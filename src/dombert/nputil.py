"""Shared numeric helpers, the seed-derivation scheme and the worker threads."""
from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent import futures
from typing import Callable

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


def gelu(x: np.ndarray, s: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) and s = 1 + erf(x / sqrt 2), which gelu_grad takes back.

    s, when given, is filled in place of a new array.

    Keeping s rather than Phi = s / 2 keeps the output bytes of
    0.5 * x * (1 + erf(x / sqrt 2)): x * Phi rounds differently once Phi is
    subnormal.

    erf runs on |x / sqrt 2| and copysign puts the sign back. scipy's erf
    is exactly odd (erf(-a) == -erf(a) bit for bit), so the bytes are the
    same; its sign branch is what costs on inputs of mixed sign.
    """
    s = np.divide(x, _SQRT2, out=s)
    a = np.abs(s)
    erf(a, out=a)
    np.copysign(a, s, out=s)
    s += 1.0
    y = np.multiply(0.5, x, out=a)  # a's buffer: no third full-size array
    y *= s
    return y, s


def gelu_grad(x: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d GELU / dx from x and the s that gelu(x) returned.

    0.5 * s + x * exp(-0.5 * x * x) / sqrt(2 pi), each product and sum in
    that order, in one array: `out`, or a new one.
    """
    t = np.multiply(x, -0.5, out=out)
    t *= x
    np.exp(t, out=t)
    t *= x
    t *= _INV_SQRT_2PI
    t += 0.5 * s
    return t


def scatter_add_rows(target: np.ndarray, index, rows: np.ndarray) -> None:
    """np.add.at(target, index, rows) through add.at's fast 1-D path.

    `index` picks rows of target: one index array, or a tuple of arrays that
    index its leading axes (broadcast together). Each is turned into flat
    element indices of target.reshape(-1), in row-major order, so every
    element gets its additions in the order np.add.at gives them and the
    bytes are the same. target must be C-contiguous: reshape would copy any
    other, and the additions would land in the copy.
    """
    if not target.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous target")
    lead = index if isinstance(index, tuple) else (index,)
    width = math.prod(target.shape[len(lead):])
    row_ids = np.ravel_multi_index(lead, target.shape[:len(lead)])
    flat = row_ids[..., None] * width + np.arange(width)
    np.add.at(target.reshape(-1), flat.reshape(-1), np.reshape(rows, -1))


def row_norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(d * d, axis=-1))


def normalize_rows(d: np.ndarray, context: str = "embedding matrix") -> np.ndarray:
    """Rows scaled to unit norm. Zero-norm rows are a hard error, not a fixup."""
    norms = row_norms(d)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateEmbeddingError(f"zero-norm row {bad} in {context}")
    return d / norms[:, None]


# ---------------------------------------------------------------------------
# Worker threads

# OpenBLAS's set-thread-count symbol under the names its builds export:
# numpy's and scipy's wheels prefix it with scipy_, 64-bit-integer builds
# suffix it with 64_.
_SET_BLAS_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")
_pool_lock = threading.Lock()
_threads: int | None = None
_helpers: futures.ThreadPoolExecutor | None = None


def _pin_openblas() -> bool:
    """Set every OpenBLAS loaded in this process to one thread.

    False when there is none to set: not Linux, or numpy uses another BLAS.
    openblas_set_num_threads_local is no use here: in a pthreads build it
    sets the process-wide count too.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return False
    pinned = False
    for path in sorted(paths):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        setter = next((getattr(lib, name) for name in _SET_BLAS_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned = True
    return pinned


def worker_threads() -> int:
    """Threads a batch's examples may be split over: one per available core.

    The first call pins OpenBLAS to one thread, so every core runs one
    shard and no matrix product's bytes depend on a thread count, and
    starts the helper threads. With one core, or no OpenBLAS to pin, it
    returns 1 and starts none.
    """
    global _threads, _helpers
    with _pool_lock:
        if _threads is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            _threads = cores if cores > 1 and _pin_openblas() else 1
            if _threads > 1:
                _helpers = futures.ThreadPoolExecutor(_threads - 1, "dombert-shard")
        return _threads


def _forget_threads() -> None:
    """A forked child has none of its parent's helper threads: start afresh."""
    global _threads, _helpers
    _threads, _helpers = None, None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def run_all(tasks: list[Callable[[], None]], threads: int) -> None:
    """Run every task on at most `threads` threads: the calling thread and
    the helpers each take the next one left, so a list longer than the
    thread count balances itself. With one thread it is a plain loop.

    Returns once all have finished, raising the calling thread's exception
    or else the first helper's.
    """
    n = min(threads, worker_threads(), len(tasks))
    if n <= 1:
        for task in tasks:
            task()
        return
    left = iter(tasks)
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                task = next(left, None)
            if task is None:
                return
            task()

    helpers = [_helpers.submit(drain) for _ in range(n - 1)]
    try:
        drain()
    finally:
        futures.wait(helpers)
    for done in helpers:
        done.result()
