"""Shared numeric helpers, the seed-derivation scheme, the worker threads and
the replace-on-success file writer."""
from __future__ import annotations

import ctypes
import math
import os
import queue
import sys
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path
from typing import IO, Any, Callable, Iterable

import numpy as np

from .errors import ConfigError, DegenerateEmbeddingError


def _load_erf() -> np.ufunc:
    """scipy's erf ufunc from its extension module alone: the scipy.special
    package also loads _ufuncs, linked to scipy's own OpenBLAS. The module
    is registered under its name, so `import scipy.special` reuses it."""
    name = "scipy.special._special_ufuncs"
    if name not in sys.modules:
        pkg = find_spec("scipy")  # a top-level name: scipy itself is not run
        dirs = [Path(d, "special") for d in pkg.submodule_search_locations or []] if pkg else []
        files = [str(d / f"_special_ufuncs{s}") for d in dirs for s in EXTENSION_SUFFIXES]
        path = next((f for f in files if os.path.isfile(f)), None)
        if path is None:
            raise ImportError(f"no {name} extension: looked for {files or 'a scipy package'}")
        loader = ExtensionFileLoader(name, path)
        sys.modules[name] = module = module_from_spec(spec_from_loader(name, loader))
        loader.exec_module(module)
    if not hasattr(sys.modules[name], "erf"):
        raise ImportError(f"{name} has no erf")
    return sys.modules[name].erf


erf = _load_erf()
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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def rng_from_state(state: dict) -> np.random.Generator:
    """A generator resumed from a saved ``bit_generator.state``."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum over the last axis, in `out` (may be x) or a new array."""
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_parts(
    x: np.ndarray,
    picks: np.ndarray,
    e: np.ndarray | None = None,
    sums: np.ndarray | None = None,
    picked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One exp pass over the rows of a 2-D x, for a softmax and its log.

    Returns e = exp(x - row max), e's row sums (rows, 1) and x - row max at
    column picks[i] of each row i, read before the exp: the softmax is
    e / sums, its log at the picks is picked - log(sums). e, sums and
    picked, when given, are filled in place of new arrays (e may be x).
    """
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=e)
    at_picks = e[np.arange(len(picks)), picks]
    if picked is None:
        picked = at_picks
    else:
        picked[...] = at_picks
    np.exp(e, out=e)
    sums = np.sum(e, axis=-1, keepdims=True, out=sums)
    return e, sums, picked


def gelu(x: np.ndarray, s: np.ndarray | None = None,
         out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) and s = 1 + erf(x / sqrt 2), which gelu_grad takes back.

    s and out, when given, are filled in place of new arrays; out may be x,
    so GELU needs no full-size array beyond x and s.

    Keeping s rather than Phi = s / 2 keeps the output bytes of
    0.5 * x * (1 + erf(x / sqrt 2)): x * Phi rounds differently once Phi is
    subnormal.

    erf runs on |x / sqrt 2| and copysign puts the sign back, taken from x:
    x / sqrt 2 has x's sign, zeros included. scipy's erf is exactly odd
    (erf(-a) == -erf(a) bit for bit), so the bytes are the same; its sign
    branch is what costs on inputs of mixed sign.
    """
    s = np.divide(x, _SQRT2, out=s)
    np.abs(s, out=s)
    erf(s, out=s)
    np.copysign(s, x, out=s)
    s += 1.0
    y = np.multiply(0.5, x, out=out)
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


def unit_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the domain embeddings d in float64 scaled to unit norm, and
    their norms. A zero-norm row is a hard error, not a fixup."""
    d = np.asarray(d, dtype=np.float64)
    norms = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateEmbeddingError(f"zero-norm row {bad} in domain embeddings")
    return d / norms[:, None], norms


def cosine_excess(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """unit_rows(d) as (u, norms), and a = cos(D, D^T) - I = u u^T with its
    diagonal set to exactly zero."""
    u, norms = unit_rows(d)
    a = u @ u.T
    np.fill_diagonal(a, 0.0)
    return u, norms, a


# ---------------------------------------------------------------------------
# Worker threads

# OpenBLAS's set-thread-count symbol under the names its builds export:
# numpy's and scipy's wheels prefix it with scipy_, 64-bit-integer builds
# suffix it with 64_.
_SET_BLAS_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")
_pool_lock = threading.Lock()
_threads: int | None = None
# Work for the helper threads, which the first run_all over more than one
# thread starts: each takes one callable at a time and runs it.
_inbox: queue.SimpleQueue | None = None


def _openblas_paths(maps_lines: Iterable[str]) -> list[str]:
    """The OpenBLAS files named in /proc/self/maps lines, sorted. The
    pathname is the sixth field and may hold spaces; a deleted file cannot
    be opened."""
    fields = (line.rstrip("\n").split(maxsplit=5) for line in maps_lines)
    paths = {f[5] for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]}
    return sorted(p for p in paths if not p.endswith(" (deleted)"))


def _pin_openblas() -> bool:
    """Set every OpenBLAS mapped into this process to one thread. dombert
    maps only numpy's (see _load_erf); a caller's scipy.special or
    scipy.linalg maps scipy's. False when there is none to set: not Linux, numpy uses another
    BLAS, or one cannot be opened, whose thread count then stays unknown.
    openblas_set_num_threads_local is no use here: in a pthreads build it
    sets the process-wide count too.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            libs = [ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in _openblas_paths(fh)]
    except OSError:
        return False
    pinned = False
    for lib in libs:
        setter = next((getattr(lib, name) for name in _SET_BLAS_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned = True
    return pinned


# glibc's mallopt parameters (malloc.h) and the values set for them. By
# default glibc serves a block over 128 KiB from its own mapping, unmapped
# when freed (the threshold then rises to the largest such block freed),
# and gives free heap top over 128 KiB back to the system. A step's and a
# scoring batch's caches, arrays of 0.5-3 MB, are freed and allocated again
# every batch, so each batch faulted them back in: four train-default
# micro-batches and their Adamax update took 6,500 minor page faults a step
# after warm-up, 3-10 with both limits raised. Either alone stops the
# threshold rising and still faults (380, or 3,400-6,600, a step).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # the largest glibc allows on 64-bit
TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_freed_memory() -> bool:
    """Set glibc's allocator to serve blocks up to MMAP_THRESHOLD_BYTES from
    its heap and to keep up to TRIM_THRESHOLD_BYTES of free heap mapped.
    False where the process has no glibc mallopt, which then sets nothing,
    or where mallopt refuses a value."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # TypeError: a platform whose CDLL needs a name
        return False
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    done = [mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)]
    return all(r == 1 for r in done)


def worker_threads() -> int:
    """Threads a batch's examples may be split over: one per available core.

    The first call pins OpenBLAS to one thread, so every core runs one
    shard and no matrix product's bytes depend on a thread count, and sets
    the allocator to keep freed memory (_keep_freed_memory). With one
    core, or no OpenBLAS to pin, it returns 1.
    """
    global _threads
    with _pool_lock:
        if _threads is None:
            _keep_freed_memory()
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            _threads = cores if cores > 1 and _pin_openblas() else 1
        return _threads


def _helper_inbox() -> queue.SimpleQueue:
    """The helper threads' inbox, starting the helpers (which live as long
    as the process) on the first call. A process whose batches never split
    starts none."""
    global _inbox
    with _pool_lock:
        if _inbox is None:
            _inbox = queue.SimpleQueue()
            for i in range(1, _threads):
                threading.Thread(target=_serve, args=(_inbox,), daemon=True,
                                 name=f"dombert-shard-{i}").start()
        return _inbox


def _serve(inbox: queue.SimpleQueue) -> None:
    while True:
        inbox.get()()


def _forget_threads() -> None:
    """A forked child has none of its parent's helper threads: start afresh."""
    global _threads, _inbox
    _threads, _inbox = None, None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def run_all(tasks: list[Callable[[], None]], threads: int) -> None:
    """Run every task on at most `threads` threads: the calling thread and
    the helpers each take the next one left, so a list longer than the
    thread count balances itself. With one thread it is a plain loop.

    Returns once all have finished, raising the calling thread's exception
    or else the first helper's. A task must not call run_all: the inner
    call could wait for a helper that is running the outer one.
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

    finished: queue.SimpleQueue = queue.SimpleQueue()  # one None or exception per helper

    def helper_drain() -> None:
        try:
            drain()
        except BaseException as exc:  # the helper lives on; the caller raises it
            finished.put(exc)
        else:
            finished.put(None)

    inbox = _helper_inbox()
    for _ in range(n - 1):
        inbox.put(helper_drain)
    try:
        drain()
    finally:
        errors = [finished.get() for _ in range(n - 1)]
    for exc in errors:
        if exc is not None:
            raise exc


@contextmanager
def open_replacing(path: str | Path, mode: str = "wb", **kwargs: Any) -> Iterator[IO]:
    """Open a temporary sibling of path for writing and rename it over path
    once the block completes; on failure the temporary file is removed and
    path keeps its old content. The temporary name ends in ``.tmp``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
