"""The three loss terms and their exact gradients, per batch and per step.

total = lam * mlm + (1 - lam) * cls + delta, with the diversity penalty
delta entering unweighted. delta is the mean squared off-diagonal cosine
similarity between domain-embedding rows, which pushes the rows toward
mutual orthogonality.

cls is the batch mean of w_i * ce_i over per-example weights w: the
trainer's importance weights 1 / ((n+1) * P'_label), or all ones for the
paper's plain mean cross-entropy. backward() differentiates exactly that.

step() owns an optimizer step's loss and gradient: its micro-batches taken
as one combined batch, the regularizer's gradient added once.
"""
from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigError, InputError
from .masking import MaskedBatch
from .nputil import cosine_excess, softmax, softmax_parts


@dataclass(frozen=True)
class LossBreakdown:
    mlm: float
    cls: float
    delta: float
    lam: float
    total: float


def mean_nll(picked: np.ndarray, sums: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Mean negative log-softmax at the targets, from softmax_parts' pieces:
    logits - row max at each target, and the row sums of the exp; with
    weights, the mean of weight * nll. 0 when there are no targets."""
    nll = -(picked - np.log(sums[:, 0]))
    return float((nll if weights is None else nll * weights).mean()) if len(nll) else 0.0


def loss_cls(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None,
) -> float:
    """Mean cross-entropy of domain classification over the batch.

    With per-example weights, the mean of weight * cross-entropy.
    """
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise InputError("domain label out of range")
    _, sums, picked = softmax_parts(logits, labels)
    return mean_nll(picked, sums, weights)


def regularizer(dom_emb: np.ndarray) -> float:
    """Mean squared off-diagonal pairwise cosine among embedding rows.

    delta = ||cos(D, D^T) - I||_F^2 / (n+1)^2; the diagonal contributes
    exactly zero. Scale-invariant in every row; zero-norm rows are an error.
    """
    n = dom_emb.shape[0]
    _, _, a = cosine_excess(dom_emb)
    return float(np.sum(a * a)) / (n * n)


def regularizer_grad(dom_emb: np.ndarray) -> np.ndarray:
    """Exact gradient of regularizer() with respect to the embedding rows."""
    n = dom_emb.shape[0]
    u, norms, a = cosine_excess(dom_emb)
    du = (4.0 / (n * n)) * (a @ u)
    # Rows are normalized before the cosine, so project out the radial part.
    radial = np.sum(du * u, axis=1, keepdims=True)
    dd = (du - radial * u) / norms[:, None]
    return dd.astype(dom_emb.dtype)


def total_loss(mlm: float, cls: float, delta: float, lam: float) -> LossBreakdown:
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lam must be in [0, 1]")
    return LossBreakdown(
        mlm=mlm, cls=cls, delta=delta, lam=lam,
        total=lam * mlm + (1.0 - lam) * cls + delta,
    )


@dataclass
class StepCache:
    """Everything backward() needs from one forward pass."""

    fwd: model.ForwardCache
    ealc: model.EalCache         # with the softmax pieces at the target ids
    dom_logits: np.ndarray
    cls_weights: np.ndarray


def masked_token_pass(
    batch: MaskedBatch, params: model.Params, config: model.ModelConfig,
    for_backward: bool = True,
) -> tuple[float, model.ForwardCache, model.EalCache]:
    """Mean masked-token cross-entropy of a masked batch encoded at the heads'
    rows, with the encoder's cache and the head's, which holds the softmax's
    pieces. Without for_backward the encoder keeps no layer's cache."""
    ex_idx, _, target_ids = batch.flat_targets()
    rows, slots = batch.output_rows()
    # Positional: a wrapper of encode, such as a benchmark's, may take no keywords.
    fwd = model.encode(batch.input_ids, batch.valid_lens, params, config, rows, for_backward)
    _, ealc = model.mlm_logits_eal(fwd, ex_idx, slots, params, target_ids)
    return mean_nll(ealc.picked, ealc.exp_sum), fwd, ealc


def forward(
    batch: MaskedBatch,
    params: model.Params,
    config: model.ModelConfig,
    lam: float,
    cls_weights: np.ndarray | None = None,
) -> tuple[LossBreakdown, StepCache]:
    """Encode a masked batch and evaluate all three loss terms.

    cls_weights, one per example (all ones when None), weight the
    classification loss; backward() takes them from the returned cache.
    """
    cls_weights = (np.ones(batch.batch_size, config.np_dtype) if cls_weights is None
                   else np.asarray(cls_weights, dtype=config.np_dtype))
    if cls_weights.shape != (batch.batch_size,):
        raise InputError(f"cls_weights has shape {cls_weights.shape}, batch holds "
                         f"{batch.batch_size} examples")
    mlm, fwd, ealc = masked_token_pass(batch, params, config)
    dom = model.domain_logits(fwd.h_cls, params)
    cls = loss_cls(dom, batch.domain_labels, cls_weights)
    delta = regularizer(params["dom_emb"])
    cache = StepCache(fwd=fwd, ealc=ealc, dom_logits=dom, cls_weights=cls_weights)
    return total_loss(mlm, cls, delta, lam), cache


def backward(
    batch: MaskedBatch,
    cache: StepCache,
    params: model.Params,
    config: model.ModelConfig,
    lam: float,
    mlm_divisor: int,
    cls_divisor: int,
) -> model.FlatParams:
    """Exact gradients of one batch's masked-token and classification loss
    sums divided by mlm_divisor and cls_divisor (the batch's own target and
    example counts give forward()'s means); step() adds the regularizer's.

    backward reads the cache's pieces into locals and drops each at its last
    read: the head's exp once dlogits is built, the head's cache once its
    backward returns, and the encoder's cache, h included, as it goes into
    encode_backward, which drops each layer's in turn. A caller that keeps
    its own reference to the cache keeps all of it, unchanged."""
    fwd, ealc = [cache.fwd], cache.ealc  # fwd.pop() passes on the only reference
    dom_logits, cls_weights = cache.dom_logits, cache.cls_weights
    del cache
    grads = model.zero_grads(config)
    d_h = np.zeros_like(fwd[0].h)

    t = len(ealc.target_ids)
    if t > 0 and lam > 0.0:
        dlogits = ealc.exp / ealc.exp_sum
        ealc = dataclasses.replace(ealc, exp=None)  # the T x V exp goes here
        dlogits[np.arange(t), ealc.target_ids] -= 1.0
        dlogits *= lam / mlm_divisor
        model.mlm_head_backward(dlogits, ealc, d_h, params, grads)
        del dlogits  # T x V; encode_backward runs without it
    del ealc

    if lam < 1.0:
        dcls = softmax(dom_logits)
        dcls[np.arange(batch.batch_size), batch.domain_labels] -= 1.0
        dcls *= cls_weights[:, None]
        dcls *= (1.0 - lam) / cls_divisor
        d_h[:, 0, :] += model.domain_head_backward(dcls, fwd[0].h_cls, params, grads)

    model.encode_backward(d_h, fwd.pop(), params, config, grads)
    return grads


def step(
    batches: Sequence[MaskedBatch],
    cls_weights: Sequence[np.ndarray | None],
    params: model.Params,
    config: model.ModelConfig,
    lam: float,
) -> tuple[LossBreakdown, model.FlatParams]:
    """The loss of one optimizer step over its micro-batches, taken as one
    combined batch, and that loss's exact gradient. cls_weights holds each
    micro-batch's forward() weights. Dividing every micro-batch's gradient by
    the step's target and example counts makes their sum the combined one's.

    step hands backward the only reference to each micro-batch's cache, so
    backward frees each of its arrays at its last read. That needs CPython
    3.11 or later, which frees an argument passed as a temporary once the
    callee drops it; 3.10 holds it until the call returns, with the same
    bytes and the memory of keeping the whole cache."""
    if not batches:
        raise InputError("step needs at least one micro-batch, got none")
    n_targets = max(sum(mb.n_targets for mb in batches), 1)
    n_examples = sum(mb.batch_size for mb in batches)
    grads: model.FlatParams | None = None
    mlm_sum = cls_sum = delta = 0.0
    for mb, weights in zip(batches, cls_weights, strict=True):
        bd, *cache = forward(mb, params, config, lam, weights)
        g = backward(mb, cache.pop(), params, config, lam, n_targets, n_examples)
        if grads is None:
            # The first micro-batch's gradients start the step's sum:
            # 0 + g differs from g only in the sign of a zero, which
            # no Adamax output or logged norm can show.
            grads = g
        else:
            grads.flat += g.flat
        mlm_sum += bd.mlm * mb.n_targets
        cls_sum += bd.cls * mb.batch_size
        delta = bd.delta
        del g  # the next micro-batch's forward runs without it
    grads["dom_emb"] += regularizer_grad(params["dom_emb"])
    return total_loss(mlm_sum / n_targets, cls_sum / n_examples, delta, lam), grads
