"""Kernel body of the compiled tier (DESIGN.md Section 15).

The one kernel here, the EDF event sweep, is written in the nopython
subset that :mod:`numba` compiles — flat ndarray arguments, scalar
locals, a manual binary heap, no Python containers — and doubles as its
own fallback: the registry in :mod:`repro.kernels` hands out a
``numba.njit``-compiled version when the toolchain is present
(``compiled`` backend) and this plain-Python function verbatim under the
``interpreted`` backend, so the pinning suites can compare the exact
code path bit for bit without numba installed.

Mirroring discipline: the kernel reproduces the arithmetic of
:func:`repro.scheduling.edf.edf_schedule_arrays` operation for
operation — the same heap tie-breaks as ``heapq`` tuples and the same
``_EPS`` guards — so its schedules are bit-identical to the array
engine's rather than merely close.  Outputs land in caller-allocated
arrays; error states return as status codes the Python wrapper
re-raises with the array engine's exact messages.
"""

from __future__ import annotations

import numpy as np

#: Kernel names exported to the backend registry.
KERNEL_NAMES = ("edf_sweep",)


# ----------------------------------------------------------------------
# EDF event sweep in available-time coordinates.
# ----------------------------------------------------------------------
def edf_sweep(
    rel_a,
    dl_a,
    deadlines,
    durations,
    bs,
    be,
    cum,
    ab,
    tol,
    eps,
    heap_key,
    heap_pos,
    run_pos,
    run_a0,
    run_a1,
    err,
):
    """The preemptive EDF sweep of ``edf_schedule_arrays``, flattened.

    Inputs are the admission-ordered available-time arrays the shared
    transform produces; outputs are the executed runs in available
    coordinates (back-mapped by the caller).  The ready heap holds
    ``(real deadline, position)`` pairs — admission order makes the
    position the exact equivalent of the Python engine's ``seq``
    tie-break, so pops match ``heapq`` bit for bit.

    ``err[0]`` returns the status: 0 ok, 1 missed deadline mid-run, 2
    finished past the deadline, 3 ran out of work (internal error);
    ``err[1:4]`` carry (position, real time, remaining work) for the
    wrapper's exact :class:`InfeasibleError` messages.  Returns the
    number of runs written.
    """
    n = rel_a.size
    remaining = durations.copy()
    hn = 0
    release_idx = 0
    finished = 0
    nruns = 0
    t = rel_a[0]
    next_rel = t
    err[0] = 0.0
    while finished < n:
        if next_rel <= t + eps:
            while release_idx < n and rel_a[release_idx] <= t + eps:
                key = deadlines[release_idx]
                pos = release_idx
                i = hn
                hn += 1
                while i > 0:
                    p = (i - 1) // 2
                    if heap_key[p] > key or (
                        heap_key[p] == key and heap_pos[p] > pos
                    ):
                        heap_key[i] = heap_key[p]
                        heap_pos[i] = heap_pos[p]
                        i = p
                    else:
                        break
                heap_key[i] = key
                heap_pos[i] = pos
                release_idx += 1
            if release_idx < n:
                next_rel = rel_a[release_idx]
            else:
                next_rel = np.inf

        if hn == 0:
            if next_rel == np.inf:
                err[0] = 3.0
                return nruns
            if next_rel > t:
                t = next_rel
            continue

        pos = heap_pos[0]
        left = remaining[pos]
        if t > dl_a[pos] - eps and left > tol:
            # Back-map t (side="right": a boundary coordinate the sweep
            # is *at* resolves to the block's end).
            lo = 0
            hi = ab.size
            while lo < hi:
                mid = (lo + hi) // 2
                if ab[mid] <= t:
                    lo = mid + 1
                else:
                    hi = mid
            missed_at = t + cum[lo]
            if missed_at > deadlines[pos] + tol:
                err[0] = 1.0
                err[1] = pos
                err[2] = missed_at
                err[3] = left
                return nruns

        run_end = t + left
        if run_end > next_rel:
            run_end = next_rel
        if nruns >= run_pos.size:
            # Caller's run buffer is full (float dust can split a run a
            # few extra times past the nominal 2n bound): report status
            # 4 so the wrapper retries with a doubled buffer.
            err[0] = 4.0
            return nruns
        run_pos[nruns] = pos
        run_a0[nruns] = t
        run_a1[nruns] = run_end
        nruns += 1
        left = left - (run_end - t)
        remaining[pos] = left
        t = run_end

        if left <= eps:
            # Pop the finished job.
            hn -= 1
            lk = heap_key[hn]
            lp = heap_pos[hn]
            i = 0
            while True:
                c = 2 * i + 1
                if c >= hn:
                    break
                r = c + 1
                if r < hn and (
                    heap_key[r] < heap_key[c]
                    or (
                        heap_key[r] == heap_key[c]
                        and heap_pos[r] < heap_pos[c]
                    )
                ):
                    c = r
                if heap_key[c] < lk or (
                    heap_key[c] == lk and heap_pos[c] < lp
                ):
                    heap_key[i] = heap_key[c]
                    heap_pos[i] = heap_pos[c]
                    i = c
                else:
                    break
            heap_key[i] = lk
            heap_pos[i] = lp
            finished += 1
            if t > dl_a[pos] - eps:
                # side="left": the run *finished* here, so a boundary
                # coordinate resolves to the block start.
                lo = 0
                hi = ab.size
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ab[mid] < t:
                        lo = mid + 1
                    else:
                        hi = mid
                finished_at = t + cum[lo]
                if finished_at > deadlines[pos] + tol:
                    err[0] = 2.0
                    err[1] = pos
                    err[2] = finished_at
                    err[3] = left
                    return nruns
    return nruns
