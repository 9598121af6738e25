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

import numpy as np

from .errors import ConfigError, InputError
from .nputil import gelu, gelu_grad, scatter_add_rows, softmax

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


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, LnCache]:
    xhat = x - x.mean(-1, keepdims=True)
    y = xhat * xhat
    inv = 1.0 / np.sqrt(y.mean(-1, keepdims=True) + LN_EPS)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, LnCache(xhat=xhat, inv=inv)

def _ln_backward(dy: np.ndarray, cache: LnCache, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axes = tuple(range(dy.ndim - 1))
    t = dy * cache.xhat
    dg = t.sum(axis=axes)
    db = dy.sum(axis=axes)
    dx = dy * g
    m1 = dx.mean(-1, keepdims=True)
    np.multiply(dx, cache.xhat, out=t)
    m2 = t.mean(-1, keepdims=True)
    np.multiply(cache.xhat, m2, out=t)
    dx -= m1
    dx -= t
    dx *= cache.inv
    return dx, dg, db


# ---------------------------------------------------------------------------
# Encoder

@dataclass
class LayerCache:
    a_in: np.ndarray             # residual input to attention (B, L, d)
    rows: np.ndarray | None      # query rows (B, R) of a pruned layer; None = all L
    q: np.ndarray                # (B, h, R or L, dk)
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray            # attention weights (B, h, R or L, L)
    ctx: np.ndarray              # merged heads, pre-output-projection (B, L, d)
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


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dk)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added into the product's own array."""
    y = x @ w
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
    """
    input_ids = np.asarray(input_ids)
    b, l = input_ids.shape
    if l > config.max_len:
        raise InputError(f"sequence length {l} exceeds max_len {config.max_len}")
    if input_ids.min() < 0 or input_ids.max() >= config.vocab_size:
        raise InputError("token id out of vocabulary range")
    dt = config.np_dtype

    key_valid = np.arange(l)[None, :] < np.asarray(valid_lens)[:, None]
    key_bias = np.where(key_valid, 0.0, _NEG).astype(dt)[:, None, None, :]

    x0 = params["tok_emb"][input_ids]
    x0 += params["pos_emb"][:l]
    x, emb_ln = _ln_forward(x0, params["emb_ln_g"], params["emb_ln_b"])

    dk = config.d_hidden // config.n_heads
    scale = dt.type(1.0 / np.sqrt(dk))
    layers: list[LayerCache] = []
    for i in range(config.n_layers):
        pre = f"layer{i}."
        a_in = x
        q_rows = rows if i == config.n_layers - 1 else None
        a_q = _at_rows(a_in, q_rows)  # a_in itself when q_rows is None
        q = _split_heads(_affine(a_q, params[pre + "wq"], params[pre + "bq"]), config.n_heads)
        k = _split_heads(_affine(a_in, params[pre + "wk"], params[pre + "bk"]), config.n_heads)
        v = _split_heads(_affine(a_in, params[pre + "wv"], params[pre + "bv"]), config.n_heads)
        probs = q @ k.swapaxes(-1, -2)
        probs *= scale
        probs += key_bias
        softmax(probs, axis=-1, out=probs)
        ctx = _merge_heads(probs @ v)
        ao = _affine(ctx, params[pre + "wo"], params[pre + "bo"])
        ao += a_q
        x1, ln1 = _ln_forward(ao, params[pre + "ln1_g"], params[pre + "ln1_b"])
        z1 = _affine(x1, params[pre + "w1"], params[pre + "b1"])
        z2, s = gelu(z1)
        fo = _affine(z2, params[pre + "w2"], params[pre + "b2"])
        del z2  # backward rebuilds it from s; freeing it here lowers peak memory
        fo += x1
        x, ln2 = _ln_forward(fo, params[pre + "ln2_g"], params[pre + "ln2_b"])
        layers.append(LayerCache(
            a_in=a_in, rows=q_rows, q=q, k=k, v=v, probs=probs, ctx=ctx,
            ln1=ln1, x1=x1, z1=z1, s=s, ln2=ln2,
        ))

    return ForwardCache(
        input_ids=input_ids, valid_lens=np.asarray(valid_lens),
        key_bias=key_bias, emb_ln=emb_ln, layers=layers, h=x,
    )


def encode_backward(
    d_h: np.ndarray,
    cache: ForwardCache,
    params: Params,
    config: ModelConfig,
    grads: Params,
) -> None:
    """Accumulate encoder gradients for upstream d_h (shaped like cache.h) into `grads`."""
    dk = config.d_hidden // config.n_heads
    # A float64 scalar here would promote every float32 gradient below it.
    scale = config.np_dtype.type(1.0 / np.sqrt(dk))
    dx = d_h
    for i in reversed(range(config.n_layers)):
        pre = f"layer{i}."
        lc = cache.layers[i]
        dres2, dg2, db2_ = _ln_backward(dx, lc.ln2, params[pre + "ln2_g"])
        grads[pre + "ln2_g"] += dg2
        grads[pre + "ln2_b"] += db2_

        z2f = 0.5 * lc.z1.reshape(-1, config.d_ff)
        z2f *= lc.s.reshape(-1, config.d_ff)  # GELU(z1), the bytes encode computed
        grads[pre + "w2"] += z2f.T @ dres2.reshape(-1, config.d_hidden)
        del z2f
        grads[pre + "b2"] += dres2.sum(axis=(0, 1))
        dz1 = gelu_grad(lc.z1, lc.s)
        dz1 *= dres2 @ params[pre + "w2"].T
        x1f = lc.x1.reshape(-1, config.d_hidden)
        grads[pre + "w1"] += x1f.T @ dz1.reshape(-1, config.d_ff)
        grads[pre + "b1"] += dz1.sum(axis=(0, 1))
        dx1 = dz1 @ params[pre + "w1"].T
        dx1 += dres2

        dres1, dg1, db1_ = _ln_backward(dx1, lc.ln1, params[pre + "ln1_g"])
        grads[pre + "ln1_g"] += dg1
        grads[pre + "ln1_b"] += db1_

        ctxf = lc.ctx.reshape(-1, config.d_hidden)
        grads[pre + "wo"] += ctxf.T @ dres1.reshape(-1, config.d_hidden)
        grads[pre + "bo"] += dres1.sum(axis=(0, 1))
        dctx = _split_heads(dres1 @ params[pre + "wo"].T, config.n_heads)

        dv = lc.probs.swapaxes(-1, -2) @ dctx
        dscores = dctx @ lc.v.swapaxes(-1, -2)  # d probs; d scores after the in-place steps
        rowsum = (dscores * lc.probs).sum(-1, keepdims=True)
        dscores -= rowsum
        dscores *= lc.probs
        dq = dscores @ lc.k
        dq *= scale
        dk_ = dscores.swapaxes(-1, -2) @ lc.q
        dk_ *= scale

        da_in = dres1  # ours to add into: _ln_backward returned a new array
        a_inf = lc.a_in.reshape(-1, config.d_hidden)
        a_qf = _at_rows(lc.a_in, lc.rows).reshape(-1, config.d_hidden)
        for name, dmat, af in (("wq", dq, a_qf), ("wk", dk_, a_inf), ("wv", dv, a_inf)):
            dfull = _merge_heads(dmat)
            grads[pre + name] += af.T @ dfull.reshape(-1, config.d_hidden)
            grads[pre + "b" + name[1]] += dfull.sum(axis=(0, 1))
            da_in += dfull @ params[pre + name].T
            if name == "wq" and lc.rows is not None:
                # Back to full width. Padding slots repeat position 0 with
                # zero gradient; adding keeps [CLS]'s where `=` would not.
                da_in, da_q = np.zeros_like(lc.a_in), da_in
                scatter_add_rows(da_in, (np.arange(len(da_q))[:, None], lc.rows), da_q)
        dx = da_in

    dx0, dg, db = _ln_backward(dx, cache.emb_ln, params["emb_ln_g"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    scatter_add_rows(grads["tok_emb"], cache.input_ids.reshape(-1), dx0)
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

@dataclass
class EalCache:
    ex_idx: np.ndarray
    slots: np.ndarray
    g: np.ndarray                # gathered hidden states (T, d)
    z1: np.ndarray
    s: np.ndarray                # 1 + erf(z1 / sqrt 2), as in LayerCache
    z3: np.ndarray               # post-LN rows entering the tied projection
    ln: LnCache


def mlm_logits_eal(
    cache: ForwardCache,
    ex_idx: np.ndarray,
    slots: np.ndarray,
    params: Params,
) -> tuple[np.ndarray, EalCache]:
    """Vocabulary logits at target positions only (T_total x V).

    Target t is row slots[t] of example ex_idx[t] in cache.h; on a
    full-width cache the slot is the position. Hidden states are gathered
    before the output transform, so the expensive tied projection touches
    exactly T_total rows.
    """
    g = cache.h[ex_idx, slots]
    z1 = _affine(g, params["mlm_w"], params["mlm_b"])
    z2, s = gelu(z1)
    z3, ln = _ln_forward(z2, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = _affine(z3, params["tok_emb"].T, params["mlm_out_b"])
    return logits, EalCache(ex_idx=ex_idx, slots=slots,
                            g=g, z1=z1, s=s, z3=z3, ln=ln)


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
    """
    grads["tok_emb"] += dlogits.T @ ealc.z3
    grads["mlm_out_b"] += dlogits.sum(axis=0)
    dz3 = dlogits @ params["tok_emb"]
    dz2, dg, db = _ln_backward(dz3, ealc.ln, params["mlm_ln_g"])
    grads["mlm_ln_g"] += dg
    grads["mlm_ln_b"] += db
    dz1 = gelu_grad(ealc.z1, ealc.s)
    dz1 *= dz2
    grads["mlm_w"] += ealc.g.T @ dz1
    grads["mlm_b"] += dz1.sum(axis=0)
    dg_rows = dz1 @ params["mlm_w"].T
    scatter_add_rows(d_h, (ealc.ex_idx, ealc.slots), dg_rows)
