"""The three loss terms and their exact gradients.

total = lam * mlm + (1 - lam) * cls + delta, with the diversity penalty
delta entering unweighted. delta is the mean squared off-diagonal cosine
similarity between domain-embedding rows, which pushes the rows toward
mutual orthogonality.

cls may carry per-example weights w (the trainer's importance weights
1 / ((n+1) * P'_label)); it is then the batch mean of w_i * ce_i, and
backward() differentiates exactly that. Without weights it is the paper's
plain mean cross-entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigError, InputError
from .masking import MaskedBatch
from .nputil import log_softmax, normalize_rows, softmax, softmax_parts


@dataclass(frozen=True)
class LossBreakdown:
    mlm: float
    cls: float
    delta: float
    lam: float
    total: float


def mlm_softmax(
    eal_logits: np.ndarray, target_ids: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """loss_mlm together with e = exp(logits - row max) and e's row sums.

    One exp pass serves the loss and its gradient: the softmax is e / sums.
    """
    e, sums, picked = softmax_parts(eal_logits, target_ids)
    return mean_nll(picked, sums), e, sums


def mean_nll(picked: np.ndarray, sums: np.ndarray) -> float:
    """Mean negative log-softmax at the targets, from softmax_parts' pieces:
    logits - row max at each target, and the row sums of the exp; 0 when
    there are no targets."""
    return float(-(picked - np.log(sums[:, 0])).mean()) if len(picked) else 0.0


def loss_mlm(eal_logits: np.ndarray, target_ids: np.ndarray) -> float:
    """Mean cross-entropy over target positions; 0 when there are none."""
    return mlm_softmax(eal_logits, target_ids)[0]


def loss_cls(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None,
) -> float:
    """Mean cross-entropy of domain classification over the batch.

    With per-example weights, the mean of weight * cross-entropy.
    """
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise InputError("domain label out of range")
    logp = log_softmax(logits, axis=-1)
    ce = -logp[np.arange(logits.shape[0]), labels]
    if weights is not None:
        ce = ce * weights
    return float(ce.mean())


def regularizer(dom_emb: np.ndarray) -> float:
    """Mean squared off-diagonal pairwise cosine among embedding rows.

    delta = ||cos(D, D^T) - I||_F^2 / (n+1)^2; the diagonal contributes
    exactly zero. Scale-invariant in every row; zero-norm rows are an error.
    """
    n = dom_emb.shape[0]
    u = normalize_rows(np.asarray(dom_emb, dtype=np.float64), "domain embeddings")
    c = u @ u.T
    np.fill_diagonal(c, 1.0)
    a = c - np.eye(n)
    return float(np.sum(a * a)) / (n * n)


def regularizer_grad(dom_emb: np.ndarray) -> np.ndarray:
    """Exact gradient of regularizer() with respect to the embedding rows."""
    n = dom_emb.shape[0]
    d64 = np.asarray(dom_emb, dtype=np.float64)
    u = normalize_rows(d64, "domain embeddings")
    norms = np.sqrt(np.sum(d64 * d64, axis=1))
    c = u @ u.T
    np.fill_diagonal(c, 1.0)
    a = c - np.eye(n)
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
    cls_weights: np.ndarray | None
    mlm_ce_sum: float
    cls_ce_sum: float
    delta: float


def forward(
    batch: MaskedBatch,
    params: model.Params,
    config: model.ModelConfig,
    lam: float,
    cls_weights: np.ndarray | None = None,
) -> tuple[LossBreakdown, StepCache]:
    """Encode a masked batch and evaluate all three loss terms.

    cls_weights, one per example, weight the classification loss; backward()
    takes them from the returned cache.
    """
    if cls_weights is not None:
        cls_weights = np.asarray(cls_weights, dtype=config.np_dtype)
        if cls_weights.shape != (batch.batch_size,):
            raise InputError(
                f"cls_weights has shape {cls_weights.shape}, batch holds "
                f"{batch.batch_size} examples"
            )
    ex_idx, _, target_ids = batch.flat_targets()
    rows, slots = batch.output_rows()
    fwd = model.encode(batch.input_ids, batch.valid_lens, params, config, rows)
    _, ealc = model.mlm_logits_eal(fwd, ex_idx, slots, params, target_ids)
    dom = model.domain_logits(fwd.h_cls, params)
    mlm = mean_nll(ealc.picked, ealc.exp_sum)
    cls = loss_cls(dom, batch.domain_labels, cls_weights)
    delta = regularizer(params["dom_emb"])
    breakdown = total_loss(mlm, cls, delta, lam)
    cache = StepCache(
        fwd=fwd, ealc=ealc, dom_logits=dom, cls_weights=cls_weights,
        mlm_ce_sum=mlm * batch.n_targets,
        cls_ce_sum=cls * batch.batch_size,
        delta=delta,
    )
    return breakdown, cache


def backward(
    batch: MaskedBatch,
    cache: StepCache,
    params: model.Params,
    config: model.ModelConfig,
    lam: float,
    *,
    mlm_divisor: int | None = None,
    cls_divisor: int | None = None,
    include_regularizer: bool = True,
) -> model.Params:
    """Exact gradients of the combined loss for one batch.

    With the default divisors this is the gradient of forward()'s total,
    classification weights included.
    A trainer accumulating micro-batches passes the whole-step target and
    example counts instead, so that summed micro-batch gradients equal the
    gradient of one combined batch (the regularizer is then added once).
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lam must be in [0, 1]")
    grads = model.zero_grads(config)
    d_h = np.zeros_like(cache.fwd.h)

    ealc = cache.ealc
    t = len(ealc.target_ids)
    if t > 0 and lam > 0.0:
        div = t if mlm_divisor is None else mlm_divisor
        dlogits = ealc.exp / ealc.exp_sum
        dlogits[np.arange(t), ealc.target_ids] -= 1.0
        dlogits *= lam / div
        model.mlm_head_backward(dlogits, ealc, d_h, params, grads)

    if lam < 1.0:
        div = batch.batch_size if cls_divisor is None else cls_divisor
        dcls = softmax(cache.dom_logits, axis=-1)
        dcls[np.arange(batch.batch_size), batch.domain_labels] -= 1.0
        if cache.cls_weights is not None:
            dcls *= cache.cls_weights[:, None]
        dcls *= (1.0 - lam) / div
        d_h[:, 0, :] += model.domain_head_backward(dcls, cache.fwd.h_cls, params, grads)

    model.encode_backward(d_h, cache.fwd, params, config, grads)

    if include_regularizer:
        grads["dom_emb"] += regularizer_grad(params["dom_emb"])
    return grads
