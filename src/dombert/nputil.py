"""Shared numeric helpers and the seed-derivation scheme."""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import DegenerateEmbeddingError

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Named sub-streams of the run seed. All randomness in a run flows from a
# single root seed; each component gets its own child stream so that one
# component's draws never shift another's. Ids are never reused (3 is
# retired), so each stream keeps its bytes; a new stream takes the next id.
STREAM_INIT = 0
STREAM_SAMPLER = 1
STREAM_MASKING = 2
STREAM_SYNTH = 4
STREAM_EVAL = 5


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Child generator `stream` of the root `seed` (spawn-key derivation)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def rng_from_state(state: dict) -> np.random.Generator:
    """A generator resumed from a saved ``bit_generator.state``."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum, built in one array: `out` (which may be x) or a new one."""
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) and s = 1 + erf(x / sqrt 2), which gelu_grad takes back.

    Keeping s rather than Phi = s / 2 keeps the output bytes of
    0.5 * x * (1 + erf(x / sqrt 2)): x * Phi rounds differently once Phi is
    subnormal.
    """
    s = x / _SQRT2
    erf(s, out=s)
    s += 1.0
    y = 0.5 * x
    y *= s
    return y, s


def gelu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d GELU / dx from x and the s that gelu(x) returned.

    0.5 * s + x * exp(-0.5 * x * x) / sqrt(2 pi), each product and sum in
    that order, in one new array.
    """
    t = x * -0.5
    t *= x
    np.exp(t, out=t)
    t *= x
    t *= _INV_SQRT_2PI
    t += 0.5 * s
    return t


def row_norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(d * d, axis=-1))


def normalize_rows(d: np.ndarray, context: str = "embedding matrix") -> np.ndarray:
    """Rows scaled to unit norm. Zero-norm rows are a hard error, not a fixup."""
    norms = row_norms(d)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateEmbeddingError(f"zero-norm row {bad} in {context}")
    return d / norms[:, None]
