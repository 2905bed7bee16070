"""Backend registry for the compiled kernel tier (DESIGN.md Section 15).

The hot loops of the reproduction — the Dijkstra batch inside
Frank-Wolfe, the EDF event sweep, the pairwise pricing move — have
their inner kernels written once, in the numba nopython subset, in
:mod:`repro.kernels._impl`.  This module decides *how* those kernel
bodies run:

``auto``
    (default) use numba-compiled kernels when numba imports cleanly,
    otherwise fall back to the pure-Python/numpy engines silently.
``compiled``
    require numba; if it is absent, emit one
    :class:`KernelFallbackWarning` and fall back to ``python``.
``python``
    never dispatch to kernels — the retained array/`*_reference`
    engines run exactly as before this tier existed.
``interpreted``
    dispatch to the kernel *bodies* executed as plain Python.  Slow,
    but it runs the exact code numba would compile, which is how the
    test suite pins compiled results bit-for-bit on machines without
    numba.

The backend is chosen via :func:`set_backend`, the ``REPRO_KERNELS``
environment variable, or the ``repro-experiments --kernels`` flag.
Resolution is lazy and cached: the first :func:`active` call imports
numba (if wanted), compiles, and runs :func:`warmup` so JIT cost is
paid once up front rather than inside the first timed solve.  Compiled
kernels use ``cache=True`` so later processes reuse the on-disk JIT
cache (honours ``NUMBA_CACHE_DIR``).
"""

from __future__ import annotations

import os
import warnings
from types import SimpleNamespace

import numpy as np

from repro.kernels import _impl

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "KernelFallbackWarning",
    "active",
    "active_backend",
    "interpreted",
    "kernel_info",
    "numba_version",
    "requested_backend",
    "reset_backend",
    "set_backend",
    "warmup",
]

BACKENDS = ("auto", "compiled", "python", "interpreted")
ENV_VAR = "REPRO_KERNELS"


class KernelFallbackWarning(RuntimeWarning):
    """Compiled kernels were requested but numba is not importable."""


_requested: str | None = None  # explicit set_backend() override
_resolved: tuple[str, SimpleNamespace | None] | None = None
_numba_version: str | None = None
_interpreted_ns: SimpleNamespace | None = None
# Compiled namespace + its warm-up are per-process one-offs: backend
# switches (tests) must not recompile or rewarm on every resolution.
_compiled_ns: SimpleNamespace | None = None
_warmed = False


def set_backend(name: str) -> None:
    """Select the kernel backend for this process (overrides the env var)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKENDS}"
        )
    global _requested, _resolved
    _requested = name
    _resolved = None


def reset_backend() -> None:
    """Drop any override and cached resolution (re-reads ``REPRO_KERNELS``)."""
    global _requested, _resolved
    _requested = None
    _resolved = None


def requested_backend() -> str:
    """The backend asked for — ``set_backend`` wins over ``REPRO_KERNELS``."""
    if _requested is not None:
        return _requested
    value = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if value not in BACKENDS:
        warnings.warn(
            f"ignoring unknown {ENV_VAR}={value!r}; using 'auto'",
            KernelFallbackWarning,
            stacklevel=2,
        )
        return "auto"
    return value


def interpreted() -> SimpleNamespace:
    """The kernel bodies as plain-Python callables (the pinning tier)."""
    global _interpreted_ns
    if _interpreted_ns is None:
        ns = SimpleNamespace()
        for name in _impl.KERNEL_NAMES:
            setattr(ns, name, getattr(_impl, name))
        _interpreted_ns = ns
    return _interpreted_ns


def _load_numba():
    try:
        import numba
    except Exception:  # pragma: no cover - exercised via sys.modules stub
        return None
    return numba


def _resolve() -> tuple[str, SimpleNamespace | None]:
    global _resolved, _numba_version
    if _resolved is not None:
        return _resolved
    _numba_version = None  # reflects the *current* resolution only
    request = requested_backend()
    if request == "python":
        _resolved = ("python", None)
    elif request == "interpreted":
        _resolved = ("interpreted", interpreted())
    else:  # auto / compiled
        numba = _load_numba()
        if numba is None:
            if request == "compiled":
                warnings.warn(
                    "kernel backend 'compiled' requested but numba is not"
                    " importable; falling back to the pure-Python tier"
                    " (pip install .[kernels])",
                    KernelFallbackWarning,
                    stacklevel=3,
                )
            _resolved = ("python", None)
        else:
            global _compiled_ns
            _numba_version = getattr(numba, "__version__", "unknown")
            if _compiled_ns is None:
                ns = SimpleNamespace()
                for name in _impl.KERNEL_NAMES:
                    setattr(
                        ns, name, numba.njit(cache=True)(getattr(_impl, name))
                    )
                _compiled_ns = ns
            _resolved = ("compiled", _compiled_ns)
            if not _warmed:
                warmup()
    return _resolved


def active() -> SimpleNamespace | None:
    """The kernel namespace to dispatch to, or None for the Python tier."""
    return _resolve()[1]


def active_backend() -> str:
    """The resolved backend name: ``compiled``, ``python`` or ``interpreted``."""
    return _resolve()[0]


def numba_version() -> str | None:
    """numba's version string when the compiled backend resolved, else None."""
    _resolve()
    return _numba_version


def kernel_info() -> dict[str, str | None]:
    """Provenance blob for bench records: requested/active backend + numba."""
    return {
        "requested": requested_backend(),
        "backend": active_backend(),
        "numba": numba_version(),
    }


def warmup() -> None:
    """Run every kernel once on a tiny instance to trigger (and cache) JIT.

    Called automatically when the compiled backend resolves, so the
    one-time compilation cost (a few seconds cold, ~nothing with a warm
    ``cache=True`` directory) lands at startup instead of inside the
    first timed solve.  A no-op on the ``python`` backend.
    """
    global _warmed
    ns = _resolve()[1]
    _warmed = True
    if ns is None:
        return
    # 2-node, 2-arc ring: 0 -> 1 -> 0.
    indptr = np.array([0, 1, 2], dtype=np.int64)
    neighbors = np.array([1, 0], dtype=np.int64)
    weights = np.array([1.0])
    dist = np.zeros(2)
    heap_key = np.empty(8)
    heap_node = np.empty(8, dtype=np.int64)
    warc = np.array([1.0, 1.0])
    pred = np.full(2, -1, dtype=np.int64)
    parc = np.full(2, -1, dtype=np.int64)
    ns.spt_tree(indptr, neighbors, warc, 0, dist, pred, parc, heap_key, heap_node)
    child_head = np.empty(2, dtype=np.int64)
    child_next = np.empty(2, dtype=np.int64)
    stack = np.empty(2, dtype=np.int64)
    ns.spt_repair(
        indptr, neighbors, warc, 0, dist, pred, parc,
        heap_key, heap_node, child_head, child_next, stack,
    )
    # One job, no blocked segments.
    rel_a = np.array([0.0])
    dl_a = np.array([2.0])
    deadlines = np.array([2.0])
    durations = np.array([1.0])
    empty = np.empty(0)
    cum = np.zeros(1)
    err = np.zeros(4)
    run_pos = np.empty(6, dtype=np.int64)
    run_a0 = np.empty(6)
    run_a1 = np.empty(6)
    heap_pos = np.empty(4, dtype=np.int64)
    ns.edf_sweep(
        rel_a, dl_a, deadlines, durations, empty, empty, cum, empty,
        1e-7, 1e-9, heap_key[:4], heap_pos, run_pos, run_a0, run_a1, err,
    )
    # One commodity, one single-edge row.
    eids = np.array([0], dtype=np.int64)
    lens = np.array([1], dtype=np.int64)
    starts = np.array([0], dtype=np.int64)
    owner = np.array([0], dtype=np.int64)
    flow = np.array([1.0])
    inv_h = np.array([1.0])
    demands = np.array([1.0])
    out = np.empty(1)
    ns.row_costs(eids, starts, lens, weights, out)
    delta = np.empty(1)
    direction = np.empty(1)
    ns.pairwise_delta(
        eids, lens, starts, owner, flow, weights, inv_h,
        demands, True, delta, direction,
    )
