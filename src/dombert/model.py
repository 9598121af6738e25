"""Small post-norm transformer encoder with two heads.

Masked-token prediction has two routes: a sparse path that gathers only the
positions carrying prediction targets before touching the vocabulary
projection (early apply of labels), and a dense reference path that projects
every position. The domain head composes two linear maps with no intermediate
nonlinearity: logits = D @ (W @ h_cls + b).

The encoder has no stochastic layer, so a forward pass is a pure function
of its inputs and parameters. Forward passes record everything reverse mode
needs; the matching backward routines live here too, so the architecture is
defined in exactly one place.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError
from .nputil import (gelu, gelu_grad, run_all, scatter_add_rows, softmax, softmax_parts,
                     worker_threads)

LN_EPS = 1e-12
INIT_STD = 0.02
_NEG = -1e9  # additive key mask; exp() underflows to exactly zero attention

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_domains: int               # n + 1, target included
    max_len: int = 128
    d_hidden: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 256
    d_domain: int = 64           # width of the domain-embedding rows
    dtype: str = "float32"

    def __post_init__(self) -> None:
        sizes = (self.vocab_size, self.n_domains, self.max_len, self.d_hidden,
                 self.n_layers, self.n_heads, self.d_ff, self.d_domain)
        if min(sizes) < 1:
            raise ConfigError("all model sizes must be >= 1")
        if self.d_hidden % self.n_heads != 0:
            raise ConfigError("d_hidden must be divisible by n_heads")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


CONFIG_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)]


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; fixes init draw order and file layout."""
    d, ff = config.d_hidden, config.d_ff
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_len, d)),
        ("emb_ln_g", (d,)),
        ("emb_ln_b", (d,)),
    ]
    for i in range(config.n_layers):
        p = f"layer{i}."
        specs += [
            (p + "wq", (d, d)), (p + "bq", (d,)),
            (p + "wk", (d, d)), (p + "bk", (d,)),
            (p + "wv", (d, d)), (p + "bv", (d,)),
            (p + "wo", (d, d)), (p + "bo", (d,)),
            (p + "ln1_g", (d,)), (p + "ln1_b", (d,)),
            (p + "w1", (d, ff)), (p + "b1", (ff,)),
            (p + "w2", (ff, d)), (p + "b2", (d,)),
            (p + "ln2_g", (d,)), (p + "ln2_b", (d,)),
        ]
    specs += [
        ("mlm_w", (d, d)), ("mlm_b", (d,)),
        ("mlm_ln_g", (d,)), ("mlm_ln_b", (d,)),
        ("mlm_out_b", (config.vocab_size,)),
        ("cls_w", (config.d_domain, d)),
        ("cls_b", (config.d_domain,)),
        ("dom_emb", (config.n_domains, config.d_domain)),
    ]
    return specs


def _is_gain(name: str) -> bool:
    return name.endswith("_g")


def _is_bias(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return leaf.endswith("_b") or leaf.startswith("b")


def init_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Weights ~ N(0, 0.02^2); biases 0; layer-norm gain 1, bias 0."""
    params: Params = {}
    for name, shape in param_specs(config):
        if _is_gain(name):
            arr = np.ones(shape)
        elif _is_bias(name):
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, INIT_STD, size=shape)
        params[name] = arr.astype(config.np_dtype)
    return params


def zero_grads(config: ModelConfig) -> Params:
    return {name: np.zeros(shape, dtype=config.np_dtype)
            for name, shape in param_specs(config)}


# ---------------------------------------------------------------------------
# Layer norm

@dataclass
class LnCache:
    xhat: np.ndarray
    inv: np.ndarray


def _ln_forward(
    x: np.ndarray,
    g: np.ndarray,
    b: np.ndarray,
    y: np.ndarray | None = None,
    cache: LnCache | None = None,
) -> tuple[np.ndarray, LnCache]:
    """Layer norm of x's last axis; y and cache, when given, are filled in
    place of new arrays."""
    if cache is None:
        cache = LnCache(xhat=np.empty_like(x), inv=np.empty(x.shape[:-1] + (1,), x.dtype))
    xhat = np.subtract(x, x.mean(-1, keepdims=True), out=cache.xhat)
    y = np.multiply(xhat, xhat, out=y)
    inv = np.divide(1.0, np.sqrt(y.mean(-1, keepdims=True) + LN_EPS), out=cache.inv)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, cache


def _ln_dx(dy: np.ndarray, cache: LnCache, g: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Layer norm's input gradient, row by row, in `out` or a new array."""
    dx = np.multiply(dy, g, out=out)
    m1 = dx.mean(-1, keepdims=True)
    t = dx * cache.xhat
    m2 = t.mean(-1, keepdims=True)
    np.multiply(cache.xhat, m2, out=t)
    dx -= m1
    dx -= t
    dx *= cache.inv
    return dx


def _ln_param_grads(dy: np.ndarray, cache: LnCache, grads: Params, prefix: str) -> None:
    """Add layer norm's gain and bias gradients, summed over every row."""
    axes = tuple(range(dy.ndim - 1))
    grads[prefix + "_g"] += (dy * cache.xhat).sum(axis=axes)
    grads[prefix + "_b"] += dy.sum(axis=axes)


# ---------------------------------------------------------------------------
# Example shards
#
# Attention never crosses examples, so the forward pass and the backward
# pass's data-gradient chain are row-local: each shard of a batch's examples
# runs them on its own examples, writing into views of the full-batch
# arrays. Only the parameter gradients sum over examples; they run on the
# full-batch arrays afterwards, with the operands and order of a one-shard
# pass. Every byte is therefore the same however the batch is split, given
# one BLAS thread (nputil.worker_threads pins it).
#
# A batch is split only when every shard gets at least MIN_SHARD_ROWS rows
# (examples x positions). Two in-process sweeps of encode + encode_backward
# (2-vCPU Xeon, one BLAS thread, default float32 model, pruned last layer),
# two shards against one: +11% and +24% at 128 rows a shard (8x32, 4x64),
# +14% to -23% at 256 (16x32, 8x64, 4x128; the sweeps disagreed), -8% to
# -15% at 384 (24x32, 12x64, 6x128) and -20% to -34% at 512 (32x32, 8x128).
MIN_SHARD_ROWS = 384


def _shard_count(b: int, l: int) -> int:
    """Shards for a (b, l) batch: one per worker thread, at most one per
    MIN_SHARD_ROWS rows."""
    return max(1, min(worker_threads(), b // -(-MIN_SHARD_ROWS // l)))


def _part(obj, sl: slice):
    """obj with every array cut to the rows sl of its first axis (examples,
    or the head's targets): views of the same memory."""
    if isinstance(obj, np.ndarray):
        return obj[sl]
    if isinstance(obj, (list, tuple)):
        return type(obj)(_part(x, sl) for x in obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{f.name: _part(getattr(obj, f.name), sl)
                                           for f in dataclasses.fields(obj)})
    return obj


def _even_parts(b: int, n: int) -> list[slice]:
    """b rows cut into min(n, b) contiguous parts of near-equal size."""
    n = max(1, min(n, b))
    return [slice(b * k // n, b * (k + 1) // n) for k in range(n)]


def _in_shards(run: Callable, arrays, parts: list[slice]) -> None:
    """run(*views) for each part's views of the tuple `arrays`, each on its
    own thread; with one part, run(*arrays) on the calling thread alone."""
    views = [arrays] if len(parts) == 1 else [_part(arrays, sl) for sl in parts]
    run_all([partial(run, *v) for v in views], len(views))


# ---------------------------------------------------------------------------
# Encoder

@dataclass
class LayerCache:
    a_in: np.ndarray             # residual input to attention (B, L, d)
    rows: np.ndarray | None      # query rows (B, R) of a pruned layer; None = all L
    q: np.ndarray                # (B, R or L, d), heads merged
    k: np.ndarray                # (B, L, d), heads merged
    v: np.ndarray
    probs: np.ndarray            # attention weights (B, h, R or L, L)
    ctx: np.ndarray              # merged heads, pre-output-projection (B, R or L, d)
    ln1: LnCache
    x1: np.ndarray               # post-LN1, residual input to the FF block
    z1: np.ndarray               # pre-GELU
    s: np.ndarray                # 1 + erf(z1 / sqrt 2); GELU(z1) = 0.5 * z1 * s
    ln2: LnCache


@dataclass
class ForwardCache:
    input_ids: np.ndarray
    valid_lens: np.ndarray
    key_bias: np.ndarray         # (B, 1, 1, L) additive mask
    emb_ln: LnCache
    layers: list[LayerCache]
    h: np.ndarray                # final hidden states (B, R or L, d)

    @property
    def h_cls(self) -> np.ndarray:
        return self.h[:, 0, :]


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray, out: np.ndarray) -> None:
    """(B, h, L, dk) heads copied into out, a C-contiguous (B, L, h * dk)."""
    b, h, l, dk = x.shape
    np.copyto(np.reshape(out, (b, l, h, dk), copy=False), x.transpose(0, 2, 1, 3))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b, the bias added into the product's own array (`out` if given)."""
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _at_rows(x: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """x[b, rows[b]] for every example b; all of x when rows is None."""
    return x if rows is None else x[np.arange(x.shape[0])[:, None], rows]


def encode(
    input_ids: np.ndarray,
    valid_lens: np.ndarray,
    params: Params,
    config: ModelConfig,
    rows: np.ndarray | None = None,
) -> ForwardCache:
    """Post-norm transformer encoding of token + position embeddings.

    Padding positions are excluded from attention (as keys) in every layer,
    so non-pad outputs are independent of pad contents.

    With rows, a (B, R) array of positions, the last layer computes all but
    its keys and values only there, and h[b, j] is position rows[b, j].
    Without rows every position is computed.

    The examples are split over the worker threads when each shard gets at
    least MIN_SHARD_ROWS = 384 rows (examples x positions), a threshold
    chosen from the in-process sweep noted at MIN_SHARD_ROWS; the bytes do
    not depend on the split.
    """
    input_ids = np.asarray(input_ids)
    b, l = input_ids.shape
    if l > config.max_len:
        raise InputError(f"sequence length {l} exceeds max_len {config.max_len}")
    if input_ids.min() < 0 or input_ids.max() >= config.vocab_size:
        raise InputError("token id out of vocabulary range")
    valid_lens = np.asarray(valid_lens)
    d, ff, dt = config.d_hidden, config.d_ff, config.np_dtype

    def empty(r: int, width: int = d) -> np.ndarray:
        return np.empty((b, r, width), dt)

    def ln(r: int) -> LnCache:
        return LnCache(xhat=empty(r), inv=empty(r, 1))

    key_valid = np.arange(l)[None, :] < valid_lens[:, None]
    key_bias = np.where(key_valid, 0.0, _NEG).astype(dt)[:, None, None, :]
    x = empty(l)
    emb_ln = ln(l)
    layers: list[LayerCache] = []
    for i in range(config.n_layers):
        q_rows = rows if i == config.n_layers - 1 else None
        r = l if q_rows is None else q_rows.shape[1]
        layers.append(LayerCache(
            a_in=x, rows=q_rows, q=empty(r), k=empty(l), v=empty(l),
            probs=np.empty((b, config.n_heads, r, l), dt), ctx=empty(r),
            ln1=ln(r), x1=empty(r), z1=empty(r, ff), s=empty(r, ff), ln2=ln(r),
        ))
        x = empty(r)
    cache = ForwardCache(input_ids=input_ids, valid_lens=valid_lens,
                         key_bias=key_bias, emb_ln=emb_ln, layers=layers, h=x)
    _in_shards(partial(_encode_into, params=params, config=config), (cache,),
               _even_parts(b, _shard_count(b, l)))
    return cache


def _encode_into(c: ForwardCache, params: Params, config: ModelConfig) -> None:
    """Fill the arrays of c, a whole ForwardCache or one shard's view of it."""
    nh = config.n_heads
    scale = config.np_dtype.type(1.0 / np.sqrt(config.d_hidden // nh))
    x0 = params["tok_emb"][c.input_ids]
    x0 += params["pos_emb"][: x0.shape[1]]
    _ln_forward(x0, params["emb_ln_g"], params["emb_ln_b"], c.layers[0].a_in, c.emb_ln)
    outputs = [lc.a_in for lc in c.layers[1:]] + [c.h]
    for i, (lc, x) in enumerate(zip(c.layers, outputs)):
        pre = f"layer{i}."
        a_q = _at_rows(lc.a_in, lc.rows)  # a_in itself when rows is None
        q = _split_heads(_affine(a_q, params[pre + "wq"], params[pre + "bq"], lc.q), nh)
        k = _split_heads(_affine(lc.a_in, params[pre + "wk"], params[pre + "bk"], lc.k), nh)
        v = _split_heads(_affine(lc.a_in, params[pre + "wv"], params[pre + "bv"], lc.v), nh)
        probs = np.matmul(q, k.swapaxes(-1, -2), out=lc.probs)
        probs *= scale
        probs += c.key_bias
        softmax(probs, axis=-1, out=probs)
        _merge_heads(probs @ v, lc.ctx)
        ao = _affine(lc.ctx, params[pre + "wo"], params[pre + "bo"])
        ao += a_q
        _ln_forward(ao, params[pre + "ln1_g"], params[pre + "ln1_b"], lc.x1, lc.ln1)
        _affine(lc.x1, params[pre + "w1"], params[pre + "b1"], lc.z1)
        z2, _ = gelu(lc.z1, lc.s)
        fo = _affine(z2, params[pre + "w2"], params[pre + "b2"])
        del z2  # backward rebuilds it from s; freeing it here lowers peak memory
        fo += lc.x1
        _ln_forward(fo, params[pre + "ln2_g"], params[pre + "ln2_b"], x, lc.ln2)


@dataclass
class _LayerGrads:
    """Full-batch data gradients of one layer, which the weight-gradient
    sums read; heads merged, shaped like the forward arrays they pair with."""
    dy: np.ndarray               # upstream gradient into LN2, like LayerCache.x1
    dres2: np.ndarray            # into the FF block's output
    dz1: np.ndarray              # pre-GELU
    dx1: np.ndarray              # upstream gradient into LN1
    dres1: np.ndarray            # into the attention block's output
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def encode_backward(
    d_h: np.ndarray,
    cache: ForwardCache,
    params: Params,
    config: ModelConfig,
    grads: Params,
) -> None:
    """Accumulate encoder gradients for upstream d_h (shaped like cache.h) into `grads`.

    The data gradients run in example shards, as encode does; each
    parameter's gradient is then summed over the whole batch, spread over
    the same threads.
    """
    b, l = cache.input_ids.shape
    n = _shard_count(b, l)
    # Each layer's upstream gradient is the data gradient of the layer above.
    dys = [np.empty_like(lc.a_in) for lc in cache.layers[1:]] + [d_h]
    lgs = []
    for lc, dy in zip(cache.layers, dys):
        lgs.append(_LayerGrads(
            dy=dy, dres2=np.empty_like(lc.x1), dz1=np.empty_like(lc.z1),
            dx1=np.empty_like(lc.x1), dres1=np.empty_like(lc.x1),
            dq=np.empty_like(lc.q), dk=np.empty_like(lc.k), dv=np.empty_like(lc.v)))
    d_emb = np.empty_like(cache.layers[0].a_in)  # upstream gradient into the embedding LN
    dx0 = np.empty_like(d_emb)
    _in_shards(partial(_backward_into, params=params, config=config),
               (cache, lgs, d_emb, dx0), _even_parts(b, n))

    tasks = [partial(_embedding_grads, cache, d_emb, dx0, grads)]
    for i, (lc, lg) in enumerate(zip(cache.layers, lgs)):
        tasks += [partial(task, lc, lg, f"layer{i}.", config, grads)
                  for task in _LAYER_GRAD_TASKS]
    run_all(tasks, n)


def _backward_into(c: ForwardCache, lgs: list[_LayerGrads], d_emb: np.ndarray,
                   dx0: np.ndarray, params: Params, config: ModelConfig) -> None:
    """The data-gradient chain of c's examples, from each layer's lg.dy down
    to dx0, written into lgs, d_emb and dx0 (whole or one shard's views)."""
    nh = config.n_heads
    # A float64 scalar here would promote every float32 gradient below it.
    scale = config.np_dtype.type(1.0 / np.sqrt(config.d_hidden // nh))
    for i in reversed(range(config.n_layers)):
        pre = f"layer{i}."
        lc, lg = c.layers[i], lgs[i]
        da_in = lgs[i - 1].dy if i > 0 else d_emb
        _ln_dx(lg.dy, lc.ln2, params[pre + "ln2_g"], lg.dres2)
        dz1 = gelu_grad(lc.z1, lc.s, lg.dz1)
        dz1 *= lg.dres2 @ params[pre + "w2"].T
        dx1 = np.matmul(dz1, params[pre + "w1"].T, out=lg.dx1)
        dx1 += lg.dres2
        _ln_dx(dx1, lc.ln1, params[pre + "ln1_g"], lg.dres1)
        dctx = _split_heads(lg.dres1 @ params[pre + "wo"].T, nh)

        q, k, v = (_split_heads(a, nh) for a in (lc.q, lc.k, lc.v))
        _merge_heads(lc.probs.swapaxes(-1, -2) @ dctx, lg.dv)
        dscores = dctx @ v.swapaxes(-1, -2)  # d probs; d scores after the in-place steps
        rowsum = (dscores * lc.probs).sum(-1, keepdims=True)
        dscores -= rowsum
        dscores *= lc.probs
        dq = dscores @ k
        dq *= scale
        _merge_heads(dq, lg.dq)
        dk_ = dscores.swapaxes(-1, -2) @ q
        dk_ *= scale
        _merge_heads(dk_, lg.dk)

        da_q = np.matmul(lg.dq, params[pre + "wq"].T, out=da_in if lc.rows is None else None)
        da_q += lg.dres1
        if lc.rows is not None:
            # Back to full width. Padding slots repeat position 0 with
            # zero gradient; adding keeps [CLS]'s where `=` would not.
            da_in.fill(0)
            scatter_add_rows(da_in, (np.arange(len(da_q))[:, None], lc.rows), da_q)
        da_in += lg.dk @ params[pre + "wk"].T
        da_in += lg.dv @ params[pre + "wv"].T
    _ln_dx(d_emb, c.emb_ln, params["emb_ln_g"], dx0)


# Each parameter's gradient, summed over the whole batch from the arrays the
# shards filled; split in four tasks of similar cost per layer.

def _ff_out_grads(lc: LayerCache, lg: _LayerGrads, pre: str,
                  config: ModelConfig, grads: Params) -> None:
    _ln_param_grads(lg.dy, lc.ln2, grads, pre + "ln2")
    z2f = 0.5 * lc.z1.reshape(-1, config.d_ff)
    z2f *= lc.s.reshape(-1, config.d_ff)  # GELU(z1), the bytes encode computed
    grads[pre + "w2"] += z2f.T @ lg.dres2.reshape(-1, config.d_hidden)
    grads[pre + "b2"] += lg.dres2.sum(axis=(0, 1))


def _ff_in_grads(lc: LayerCache, lg: _LayerGrads, pre: str,
                 config: ModelConfig, grads: Params) -> None:
    x1f = lc.x1.reshape(-1, config.d_hidden)
    grads[pre + "w1"] += x1f.T @ lg.dz1.reshape(-1, config.d_ff)
    grads[pre + "b1"] += lg.dz1.sum(axis=(0, 1))


def _attn_out_grads(lc: LayerCache, lg: _LayerGrads, pre: str,
                    config: ModelConfig, grads: Params) -> None:
    _ln_param_grads(lg.dx1, lc.ln1, grads, pre + "ln1")
    ctxf = lc.ctx.reshape(-1, config.d_hidden)
    grads[pre + "wo"] += ctxf.T @ lg.dres1.reshape(-1, config.d_hidden)
    grads[pre + "bo"] += lg.dres1.sum(axis=(0, 1))


def _qkv_grads(lc: LayerCache, lg: _LayerGrads, pre: str,
               config: ModelConfig, grads: Params) -> None:
    a_inf = lc.a_in.reshape(-1, config.d_hidden)
    a_qf = _at_rows(lc.a_in, lc.rows).reshape(-1, config.d_hidden)
    for name, dfull, af in (("q", lg.dq, a_qf), ("k", lg.dk, a_inf), ("v", lg.dv, a_inf)):
        grads[pre + "w" + name] += af.T @ dfull.reshape(-1, config.d_hidden)
        grads[pre + "b" + name] += dfull.sum(axis=(0, 1))


_LAYER_GRAD_TASKS = (_ff_out_grads, _ff_in_grads, _attn_out_grads, _qkv_grads)


def _embedding_grads(c: ForwardCache, d_emb: np.ndarray, dx0: np.ndarray,
                     grads: Params) -> None:
    _ln_param_grads(d_emb, c.emb_ln, grads, "emb_ln")
    scatter_add_rows(grads["tok_emb"], c.input_ids.reshape(-1), dx0)
    grads["pos_emb"][: dx0.shape[1]] += dx0.sum(axis=0)


# ---------------------------------------------------------------------------
# Domain head

def domain_logits(h_cls: np.ndarray, params: Params) -> np.ndarray:
    """logits = D @ (W @ h_cls + b), two linear maps and nothing between."""
    return _affine(h_cls, params["cls_w"].T, params["cls_b"]) @ params["dom_emb"].T


def domain_head_backward(
    dlogits: np.ndarray,
    h_cls: np.ndarray,
    params: Params,
    grads: Params,
) -> np.ndarray:
    """Accumulate head gradients; returns d h_cls."""
    a = _affine(h_cls, params["cls_w"].T, params["cls_b"])
    grads["dom_emb"] += dlogits.T @ a
    da = dlogits @ params["dom_emb"]
    grads["cls_w"] += da.T @ h_cls
    grads["cls_b"] += da.sum(axis=0)
    return da @ params["cls_w"]


# ---------------------------------------------------------------------------
# Masked-token head
#
# When encode splits a batch, the head splits its target rows over the
# same threads, in parts large enough to keep the bytes (below): each part
# runs the row-local chain (forward: gather, transform, tied projection,
# softmax pieces; backward: the data gradients) into views of full-size
# arrays. The scatter into d_h and every parameter gradient then run on the
# full arrays, with the operands and order of an unsplit pass.
#
# A row of a matrix product keeps its bytes in a part only when OpenBLAS
# computes the part with the kernel and row tiling it uses for the whole.
# At the head's shapes (d_hidden 64, OpenBLAS 0.3.31) that fails for a
# one-row part (gemv); for a part of at most 100^3 multiply-adds, which the
# SkylakeX kernels hand to small-matrix code whose bytes change with the
# row count (dz1 @ mlm_w.T up to 18 rows, dlogits @ tok_emb up to 6 at
# vocabulary 2,305); and for a cut off the kernel's row tile (12 rows for
# SkylakeX float64 z3 @ tok_emb.T and for Haswell float32, 2 for Haswell
# float64). So parts are cut at multiples of HEAD_ROWS, and each part does
# more than SMALL_GEMM multiply-adds in its vocabulary-wide products. Checked
# byte for byte against the unsplit head for vocabularies of 20 to 8,005 and
# up to 700 targets, float32 and float64, with OpenBLAS's SkylakeX, Haswell
# and Sandybridge kernels.
HEAD_ROWS = 24
SMALL_GEMM = 100 ** 3


def _large_parts(rows: int, n: int, width: int) -> list[slice]:
    """rows cut into at most n contiguous parts at multiples of HEAD_ROWS,
    each more than SMALL_GEMM multiply-adds at width a row; one part when
    rows do not allow two."""
    blocks = rows // HEAD_ROWS
    n = max(1, min(n, blocks // (SMALL_GEMM // max(width * HEAD_ROWS, 1) + 1)))
    cuts = [HEAD_ROWS * (blocks * k // n) for k in range(n)] + [rows]
    return [slice(a, z) for a, z in zip(cuts, cuts[1:])]


@dataclass
class EalCache:
    ex_idx: np.ndarray
    slots: np.ndarray
    g: np.ndarray                # gathered hidden states (T, d)
    z1: np.ndarray
    s: np.ndarray                # 1 + erf(z1 / sqrt 2), as in LayerCache
    z3: np.ndarray               # post-LN rows entering the tied projection
    ln: LnCache
    shards: int                  # threads the encoder split this batch over
    # With target ids, the pieces of the softmax at them (softmax_parts).
    target_ids: np.ndarray | None = None
    exp: np.ndarray | None = None        # exp(logits - row max) (T, V), in the logits' array
    exp_sum: np.ndarray | None = None    # its row sums (T, 1)
    picked: np.ndarray | None = None     # logits - row max at each target (T,)


def mlm_logits_eal(
    cache: ForwardCache,
    ex_idx: np.ndarray,
    slots: np.ndarray,
    params: Params,
    target_ids: np.ndarray | None = None,
) -> tuple[np.ndarray | None, EalCache]:
    """Vocabulary logits at target positions only (T_total x V).

    Target t is row slots[t] of example ex_idx[t] in cache.h; on a
    full-width cache the slot is the position. Hidden states are gathered
    before the output transform, so the expensive tied projection touches
    exactly T_total rows. With target_ids, the returned cache holds the
    softmax's pieces at those ids instead (nputil.softmax_parts): its exp
    pass overwrites the logits in their array, so None is returned for them.

    When encode split the batch, the target rows are split over the same
    threads where each part is large enough (see HEAD_ROWS); the bytes do
    not depend on the split.
    """
    b, l = cache.input_ids.shape
    t, (v, d), dt = len(ex_idx), params["tok_emb"].shape, cache.h.dtype

    def rows(*width: int) -> np.ndarray:
        return np.empty((t, *width), dt)

    logits = rows(v)
    ealc = EalCache(ex_idx=ex_idx, slots=slots, g=rows(d), z1=rows(d), s=rows(d),
                    z3=rows(d), ln=LnCache(xhat=rows(d), inv=rows(1)),
                    shards=_shard_count(b, l))
    if target_ids is not None:
        ealc.target_ids, ealc.exp, ealc.exp_sum, ealc.picked = target_ids, logits, rows(1), rows()
    _in_shards(partial(_head_into, h=cache.h, params=params), (logits, ealc),
               _large_parts(t, ealc.shards, d * v))
    return (logits if target_ids is None else None), ealc


def _head_into(logits: np.ndarray, c: EalCache, h: np.ndarray, params: Params) -> None:
    """Fill logits and c, whole or one part's views, from the rows of h."""
    c.g[...] = h[c.ex_idx, c.slots]
    _affine(c.g, params["mlm_w"], params["mlm_b"], c.z1)
    z2, _ = gelu(c.z1, c.s)
    _ln_forward(z2, params["mlm_ln_g"], params["mlm_ln_b"], c.z3, c.ln)
    _affine(c.z3, params["tok_emb"].T, params["mlm_out_b"], logits)
    if c.target_ids is not None:
        softmax_parts(logits, c.target_ids, logits, c.exp_sum, c.picked)


def mlm_logits_full(cache: ForwardCache, params: Params) -> np.ndarray:
    """Vocabulary logits at every position (B x L x V); reference path."""
    h = cache.h.reshape(-1, cache.h.shape[-1])  # one matmul, not one per example
    z1 = _affine(h, params["mlm_w"], params["mlm_b"])
    z2, _ = gelu(z1)
    z3, _ = _ln_forward(z2, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = _affine(z3, params["tok_emb"].T, params["mlm_out_b"])
    return logits.reshape(*cache.h.shape[:2], -1)


def mlm_head_backward(
    dlogits: np.ndarray,
    ealc: EalCache,
    d_h: np.ndarray,
    params: Params,
    grads: Params,
) -> None:
    """Accumulate masked-token head gradients; scatters into d_h in place.

    The tied projection contributes to the token-embedding gradient here;
    the input-embedding contribution is added later by encode_backward.
    The data gradients run in the parts mlm_logits_eal used; the parameter
    gradients and the scatter into d_h then run on the full arrays, spread
    over the same threads.
    """
    (t, d), v = ealc.g.shape, dlogits.shape[1]
    dz3, dz1, dg_rows = (np.empty_like(ealc.g) for _ in range(3))
    _in_shards(partial(_head_backward_into, params=params), (dlogits, ealc, dz3, dz1, dg_rows),
               _large_parts(t, ealc.shards, d * v))
    tasks = [partial(_tied_grads, dlogits, ealc.z3, grads, cols)
             for cols in _large_parts(v, ealc.shards, t * d)]
    tasks += [partial(_head_dense_grads, ealc, dz3, dz1, grads),
              partial(scatter_add_rows, d_h, (ealc.ex_idx, ealc.slots), dg_rows)]
    run_all(tasks, ealc.shards)


def _head_backward_into(dlogits: np.ndarray, c: EalCache, dz3: np.ndarray, dz1: np.ndarray,
                        dg_rows: np.ndarray, params: Params) -> None:
    """The data gradients of c's targets, from dlogits to dg_rows (whole or
    one part's views)."""
    np.matmul(dlogits, params["tok_emb"], out=dz3)
    dz2 = _ln_dx(dz3, c.ln, params["mlm_ln_g"])
    gelu_grad(c.z1, c.s, dz1)
    dz1 *= dz2
    np.matmul(dz1, params["mlm_w"].T, out=dg_rows)


def _tied_grads(dlogits: np.ndarray, z3: np.ndarray, grads: Params, cols: slice) -> None:
    """The tied projection's gradients at the vocabulary rows cols."""
    part = dlogits[:, cols]
    grads["tok_emb"][cols] += part.T @ z3
    grads["mlm_out_b"][cols] += part.sum(axis=0)


def _head_dense_grads(c: EalCache, dz3: np.ndarray, dz1: np.ndarray, grads: Params) -> None:
    _ln_param_grads(dz3, c.ln, grads, "mlm_ln")
    grads["mlm_w"] += c.g.T @ dz1
    grads["mlm_b"] += dz1.sum(axis=0)
