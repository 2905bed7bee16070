"""Randomized path rounding (Algorithm 2, steps 6–10).

After solving the per-interval F-MCF relaxations, each flow ``j_i`` owns a
set of candidate paths per interval with fractional weights ``w_P(k)``
(summing to 1 within each interval the flow is active in).  The rounding
weight of a path aggregates across intervals, weighted by interval length:

    w_bar(P) = sum_k w_P(k) * |I_k| / (d_i - r_i)

Because each interval's weights sum to 1 and the intervals tile the flow's
span exactly, the ``w_bar`` values form a probability distribution; the
flow's single route is drawn from it.

Two implementations live here (DESIGN.md Section 10):

* the **registry-id-space engine**: :func:`aggregate_path_weights_array`
  consumes :class:`~repro.routing.mcflow.ArrayPathFlows` rows directly —
  per-flow ``w_bar`` is one weighted ``bincount``-style reduction over
  interned path ids, the interval-length weighting is a vector scale — and
  :func:`sample_paths` draws *every* flow's route in one batched
  cumulative-sum + ``searchsorted`` pass (one uniform per flow, consumed
  from the generator in flow order, so the stream matches the per-flow
  reference draws exactly);
* the **dict reference**: :func:`aggregate_path_weights` /
  :func:`sample_path`, the per-flow nested-dict implementations the
  array engine is pinned against in ``tests/test_rounding.py``.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping as MappingABC
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.flows.flow import Flow
from repro.flows.intervals import Interval
from repro.routing.mcflow import ArrayPathFlows, PathRegistry

__all__ = [
    "ArrayPathWeights",
    "aggregate_path_weights",
    "aggregate_path_weights_array",
    "sample_path",
    "sample_paths",
    "argmax_paths",
]

Path = tuple[str, ...]

#: Relative deviation of a flow's aggregated weight total from 1 above
#: which the aggregation warns instead of silently absorbing the drift
#: into the final renormalization (the coverage check has already passed
#: at that point, so a larger deviation is genuine solver drift).
_DRIFT_TOL = 1e-6


def _warn_drift(flow_id: int | str, total: float) -> None:
    warnings.warn(
        f"flow {flow_id!r}: aggregated path weights sum to {total:.9g} "
        f"although the intervals tile the span exactly; renormalizing "
        f"solver drift of {abs(total - 1.0):.3g}",
        RuntimeWarning,
        stacklevel=3,
    )


def aggregate_path_weights(
    flow: Flow,
    interval_fractions: Sequence[tuple[Interval, Mapping[Path, float]]],
) -> dict[Path, float]:
    """Compute ``w_bar`` for one flow from its per-interval path fractions.

    Parameters
    ----------
    flow:
        The flow being rounded.
    interval_fractions:
        ``(interval, {path: fraction})`` for every grid interval inside the
        flow's span; each fraction map should sum to ~1.

    Returns
    -------
    dict mapping each candidate path to its rounding probability.  The
    probabilities are renormalized at the end to absorb solver tolerance;
    if the pre-normalization total drifts from 1 by more than ``1e-6``
    even though the intervals tile the span, a single
    :class:`RuntimeWarning` naming the flow is emitted (silent absorption
    used to hide solver drift).
    """
    if not interval_fractions:
        raise ValidationError(f"flow {flow.id!r}: no interval solutions supplied")
    span = flow.span_length
    weights: dict[Path, float] = {}
    covered = 0.0
    for interval, fractions in interval_fractions:
        if not flow.covers_interval(interval.start, interval.end):
            raise ValidationError(
                f"flow {flow.id!r}: interval {interval!r} outside span"
            )
        covered += interval.length
        share = interval.length / span
        for path, fraction in fractions.items():
            if fraction < -1e-9:
                raise ValidationError(
                    f"flow {flow.id!r}: negative path fraction {fraction}"
                )
            weights[path] = weights.get(path, 0.0) + fraction * share
    if abs(covered - span) > 1e-6 * max(span, 1.0):
        raise ValidationError(
            f"flow {flow.id!r}: intervals cover {covered:g} of span {span:g}"
        )
    total = sum(weights.values())
    if total <= 0:
        raise ValidationError(f"flow {flow.id!r}: all path weights are zero")
    if abs(total - 1.0) > _DRIFT_TOL:
        _warn_drift(flow.id, total)
    return {path: w / total for path, w in weights.items()}


def sample_path(
    weights: Mapping[Path, float], rng: np.random.Generator
) -> Path:
    """Draw one path according to its ``w_bar`` probability.

    Paths are ordered deterministically before sampling so a fixed seed
    yields identical choices across runs and platforms.
    """
    if not weights:
        raise ValidationError("cannot sample from an empty path set")
    paths = sorted(weights)
    probs = np.array([weights[p] for p in paths], dtype=float)
    probs = probs / probs.sum()
    choice = int(rng.choice(len(paths), p=probs))
    return paths[choice]


class ArrayPathWeights(MappingABC):
    """Aggregated ``w_bar`` distributions for a batch of flows, in
    registry-id space.

    One row per (flow, candidate path); rows of one flow are contiguous
    (``indptr``) and ordered by the candidate's *node-path name* — the
    same deterministic order :func:`sample_path` sorts into — so batched
    draws and the per-flow reference draws consume identical candidate
    orderings.  ``path_ids`` hold one canonical registry id per distinct
    node path (duplicate registry ids for one physical path are merged
    during aggregation, exactly like the nested-dict materialization).

    The class is also a read-only :class:`~collections.abc.Mapping`
    ``flow id -> {node path: probability}`` (materialized lazily), so it
    can stand in wherever the dict-of-dicts representation was consumed
    (e.g. ``DcfsrResult.rounding_weights``).
    """

    __slots__ = (
        "registry", "flow_ids", "indptr", "path_ids", "probs",
        "max_drift", "max_drift_flow", "_dict",
    )

    def __init__(
        self,
        registry: PathRegistry,
        flow_ids: tuple[int | str, ...],
        indptr: np.ndarray,
        path_ids: np.ndarray,
        probs: np.ndarray,
        max_drift: float,
        max_drift_flow: int | str | None,
    ) -> None:
        self.registry = registry
        self.flow_ids = flow_ids
        self.indptr = indptr
        self.path_ids = path_ids
        self.probs = probs
        self.max_drift = max_drift
        self.max_drift_flow = max_drift_flow
        self._dict: dict[int | str, dict[Path, float]] | None = None

    # -- Mapping interface (lazy dict materialization) ------------------
    def _materialize(self) -> dict[int | str, dict[Path, float]]:
        out = self._dict
        if out is None:
            path = self.registry.path
            indptr = self.indptr
            pids = self.path_ids.tolist()
            probs = self.probs.tolist()
            out = {}
            for slot, fid in enumerate(self.flow_ids):
                lo, hi = int(indptr[slot]), int(indptr[slot + 1])
                out[fid] = {path(pids[r]): probs[r] for r in range(lo, hi)}
            self._dict = out
        return out

    def __getitem__(self, flow_id: int | str) -> dict[Path, float]:
        return self._materialize()[flow_id]

    def __iter__(self):
        return iter(self.flow_ids)

    def __len__(self) -> int:
        return len(self.flow_ids)


def aggregate_path_weights_array(
    flows: Sequence[Flow],
    contributions: Sequence[tuple[float, ArrayPathFlows]],
) -> ArrayPathWeights:
    """Aggregate ``w_bar`` for every flow straight from solver rows.

    Parameters
    ----------
    flows:
        The flows being rounded, in rounding (draw) order.
    contributions:
        ``(interval_length, arrays)`` per elementary interval;
        ``arrays.commodity_ids`` name the flows active in that interval
        (ids not in ``flows`` are ignored, so a shared relaxation can be
        rounded flow-subset by flow-subset).

    Mirrors :func:`aggregate_path_weights` exactly: per interval each
    flow's row amounts normalize to fractions, the fraction scales by
    ``|I_k| / span``, contributions accumulate per distinct *node path*
    (duplicate registry ids merge), intervals must tile each flow's span,
    and the final distribution renormalizes — warning once (with the
    worst flow id) when the pre-normalization total drifts by more than
    ``1e-6``.
    """
    if not flows:
        raise ValidationError("aggregate_path_weights_array: no flows")
    slot_of: dict[int | str, int] = {f.id: i for i, f in enumerate(flows)}
    n_flows = len(flows)
    spans = np.array([f.span_length for f in flows])
    covered = np.zeros(n_flows)

    registry: PathRegistry | None = None
    slot_parts: list[np.ndarray] = []
    pid_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    for length, arrays in contributions:
        if registry is None:
            registry = arrays.registry
        elif arrays.registry is not registry:
            raise ValidationError(
                "interval solutions do not share one path registry"
            )
        remap = np.fromiter(
            (slot_of.get(cid, -1) for cid in arrays.commodity_ids),
            dtype=np.int64,
            count=len(arrays.commodity_ids),
        )
        active = remap >= 0
        if not active.any():
            continue
        owners = arrays.owner_slots
        amounts = arrays.amounts
        keep = active[owners]
        if not keep.all():
            owners = owners[keep]
            amounts = amounts[keep]
            pids = arrays.path_ids[keep]
        else:
            pids = arrays.path_ids
        gslots = remap[owners]
        totals = np.bincount(gslots, weights=amounts, minlength=n_flows)
        if np.any(amounts < -1e-9 * np.maximum(totals[gslots], 1e-30)):
            bad = int(gslots[np.argmin(amounts)])
            raise ValidationError(
                f"flow {flows[bad].id!r}: negative path fraction "
                f"{float(np.min(amounts)):g}"
            )
        present = totals > 0.0
        covered[present] += length
        share = length / spans
        slot_parts.append(gslots)
        pid_parts.append(pids)
        w_parts.append(
            amounts / totals[gslots] * share[gslots]
        )

    if not slot_parts:
        raise ValidationError(
            f"flow {flows[0].id!r}: no interval solutions supplied"
        )
    gap = np.abs(covered - spans) > 1e-6 * np.maximum(spans, 1.0)
    if gap.any():
        bad = int(np.flatnonzero(gap)[0])
        raise ValidationError(
            f"flow {flows[bad].id!r}: intervals cover {covered[bad]:g} "
            f"of span {spans[bad]:g}"
        )

    all_slots = np.concatenate(slot_parts)
    all_pids = np.concatenate(pid_parts)
    all_w = np.concatenate(w_parts)

    # Canonicalize registry ids by node path and rank them in the name
    # order the dict reference sorts into before sampling.
    assert registry is not None
    distinct, inverse = np.unique(all_pids, return_inverse=True)
    names = [registry.path(int(p)) for p in distinct]
    order = sorted(range(len(names)), key=lambda i: names[i])
    rank_of = np.empty(len(names), dtype=np.int64)
    canon_by_rank: list[int] = []
    rank = -1
    prev: Path | None = None
    for i in order:
        if names[i] != prev:
            rank += 1
            prev = names[i]
            canon_by_rank.append(int(distinct[i]))
        rank_of[i] = rank
    n_names = rank + 1
    ranks = rank_of[inverse]

    # One stable sort groups rows by (flow, name rank); within a group
    # rows keep interval order, so the reduceat accumulation order equals
    # the dict reference's interval-by-interval `+=`.
    keys = all_slots * np.int64(n_names) + ranks
    sort = np.argsort(keys, kind="stable")
    keys_sorted = keys[sort]
    w_sorted = all_w[sort]
    boundaries = np.flatnonzero(
        np.concatenate(([True], keys_sorted[1:] != keys_sorted[:-1]))
    )
    w_bar = np.add.reduceat(w_sorted, boundaries)
    out_keys = keys_sorted[boundaries]
    out_slots = out_keys // n_names
    out_pids = np.array(canon_by_rank, dtype=np.int64)[out_keys % n_names]

    totals = np.bincount(out_slots, weights=w_bar, minlength=n_flows)
    if np.any(totals <= 0.0):
        bad = int(np.flatnonzero(totals <= 0.0)[0])
        raise ValidationError(
            f"flow {flows[bad].id!r}: all path weights are zero"
        )
    drift = np.abs(totals - 1.0)
    worst = int(np.argmax(drift))
    max_drift = float(drift[worst])
    if max_drift > _DRIFT_TOL:
        _warn_drift(flows[worst].id, float(totals[worst]))
    probs = w_bar / totals[out_slots]

    counts = np.bincount(out_slots, minlength=n_flows)
    indptr = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ArrayPathWeights(
        registry=registry,
        flow_ids=tuple(f.id for f in flows),
        indptr=indptr,
        path_ids=out_pids,
        probs=probs,
        max_drift=max_drift,
        max_drift_flow=flows[worst].id if max_drift > 0.0 else None,
    )


def _row_slots(weights: ArrayPathWeights) -> np.ndarray:
    """Flow slot of every row (``indptr`` expanded)."""
    counts = np.diff(weights.indptr)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def sample_paths(
    weights: ArrayPathWeights, rng: np.random.Generator
) -> list[Path]:
    """Draw one route per flow in a single batched pass.

    Consumes exactly one uniform per flow, in flow order — the same
    generator stream as calling :func:`sample_path` per flow — and
    reproduces the per-flow inverse-CDF arithmetic (normalize, cumulative
    sum, normalize the CDF, ``searchsorted`` right), so fixed seeds yield
    the same routes as the dict reference.
    """
    n = len(weights.flow_ids)
    if weights.probs.size == 0:
        raise ValidationError("cannot sample from an empty path set")
    u = rng.random(n)
    slots = _row_slots(weights)
    totals = np.bincount(slots, weights=weights.probs, minlength=n)
    p = weights.probs / totals[slots]
    cs = np.cumsum(p)
    ends = weights.indptr[1:] - 1
    base = np.concatenate(([0.0], cs[ends[:-1]]))
    cdf = cs - base[slots]
    cdf /= cdf[ends][slots]
    below = np.bincount(slots, weights=(cdf <= u[slots]), minlength=n)
    rows = weights.indptr[:-1] + below.astype(np.int64)
    path = weights.registry.path
    return [path(int(pid)) for pid in weights.path_ids[rows]]


def argmax_paths(weights: ArrayPathWeights) -> list[Path]:
    """Every flow's maximum-``w_bar`` path (derandomized rounding).

    Ties break toward the name-sorted-first candidate, matching the dict
    reference's ``max(sorted(w_bar), key=w_bar.get)``.
    """
    n = len(weights.flow_ids)
    if weights.probs.size == 0:
        raise ValidationError("cannot round an empty path set")
    slots = _row_slots(weights)
    best = np.full(n, -np.inf)
    np.maximum.at(best, slots, weights.probs)
    row_idx = np.arange(weights.probs.size, dtype=np.int64)
    candidates = np.where(
        weights.probs == best[slots], row_idx, np.iinfo(np.int64).max
    )
    rows = np.minimum.reduceat(candidates, weights.indptr[:-1])
    path = weights.registry.path
    return [path(int(pid)) for pid in weights.path_ids[rows]]
