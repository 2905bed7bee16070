"""The long-lived replay service: streaming admission over sharded replay.

:class:`ReplayService` is the operational wrapper around
:class:`~repro.service.sharded.ShardedReplayEngine`: flows are admitted
one at a time (:meth:`~ReplayService.submit`) or streamed straight from a
trace file (:meth:`~ReplayService.serve_trace`), per-window telemetry is
exposed incrementally (:meth:`~ReplayService.poll`), and the whole
mid-replay state — the engine *and the trace-store cursor* — round-trips
through :meth:`~ReplayService.snapshot`/:meth:`~ReplayService.restore`,
so a service killed mid-trace resumes exactly where it stopped and
finishes with the identical report.  The engine's part of the payload is
opaque here: :mod:`repro.service.sharded` alone knows its format.

Typical lifecycle::

    service = ReplayService(topology, power, window=4.0, num_shards=4)
    service.serve_trace("trace.jsonl", limit=5_000)
    for stats in service.poll():
        print(stats.describe())
    blob = service.snapshot()          # durable checkpoint (bytes)
    ...
    service = ReplayService.restore(topology, power, blob)
    service.resume_trace()             # picks up at the stored cursor
    report = service.drain()
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile

from repro.errors import ValidationError
from repro.flows.flow import Flow
from repro.power.model import PowerModel
from repro.service.partition import TopologyPartition
from repro.service.sharded import ShardedReplayEngine, WindowStats
from repro.sim.churn import FaultEvent
from repro.topology.base import Topology
from repro.traces.replay import ReplayReport
from repro.traces.store import TraceReader

__all__ = ["ReplayService"]

_SERVICE_KIND = "repro-replay-service"
_SERVICE_VERSION = 1


class ReplayService:
    """Streaming flow admission with snapshot/restore and backpressure.

    All keyword arguments are forwarded to
    :class:`~repro.service.sharded.ShardedReplayEngine` (``num_shards``,
    ``mode``, ``pipeline_depth``, ``budget``, ...).
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        window: float,
        **engine_kwargs,
    ) -> None:
        self._engine = ShardedReplayEngine(
            topology, power, window, **engine_kwargs
        )
        self._poll_cursor = 0
        self._trace_path: str | None = None
        self._trace_cursor: int | None = None

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def submit(self, flow: Flow) -> None:
        """Admit one flow (releases must be nondecreasing)."""
        self._engine.feed(flow)

    def submit_many(self, flows) -> int:
        """Admit an iterable of flows; returns how many were admitted."""
        count = 0
        for flow in flows:
            self._engine.feed(flow)
            count += 1
        return count

    def submit_fault(self, event) -> None:
        """Admit one :class:`~repro.sim.churn.FaultEvent` inline."""
        self._engine.feed_fault(event)

    def inject_worker_crash(self, index: int) -> None:
        """Kill one shard worker now; the next collect recovers it."""
        self._engine.inject_worker_crash(index)

    def serve_trace(self, path: str, limit: int | None = None) -> int:
        """Stream flows and inline fault events from a JSONL trace file,
        tracking a resume cursor.

        Admits up to ``limit`` flows (all of them when None; fault
        records do not count) and records the byte cursor of the next
        unread record after every admission, so a :meth:`snapshot` taken
        at any point carries an exact resume position.  Returns the
        number of flows admitted by this call.
        """
        count = 0
        with TraceReader(path, include_faults=True) as reader:
            if self._trace_path == path and self._trace_cursor is not None:
                reader.seek(self._trace_cursor)
            for item in reader:
                if isinstance(item, FaultEvent):
                    self._engine.feed_fault(item)
                else:
                    self._engine.feed(item)
                    count += 1
                self._trace_path = path
                self._trace_cursor = reader.tell()
                if limit is not None and count >= limit:
                    break
        return count

    def resume_trace(self, limit: int | None = None) -> int:
        """Continue :meth:`serve_trace` from the stored cursor."""
        if self._trace_path is None:
            raise ValidationError(
                "no trace cursor to resume; call serve_trace first"
            )
        return self.serve_trace(self._trace_path, limit=limit)

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------
    def poll(self) -> list[WindowStats]:
        """Per-window stats settled since the last poll (oldest first)."""
        log = self._engine.window_log
        fresh = log[self._poll_cursor :]
        self._poll_cursor = len(log)
        return fresh

    @property
    def flows_submitted(self) -> int:
        return self._engine.flows_fed

    @property
    def partition(self) -> TopologyPartition:
        return self._engine.partition

    def describe(self) -> str:
        return (
            f"{self._engine.name}: {self._engine.flows_fed} flows "
            f"submitted, {self._engine.partition.describe()}"
        )

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def drain(self) -> ReplayReport:
        """Settle every in-flight window, stop the shard workers, report."""
        try:
            return self._engine.finish()
        finally:
            self._engine.close()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "ReplayService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Snapshot / restore.
    # ------------------------------------------------------------------
    def snapshot(self, path: str | None = None) -> bytes | str:
        """Checkpoint the full service state.

        Returns the pickled payload as bytes, or writes it to ``path``
        and returns the path.  Covers the engine (its
        :meth:`~repro.service.sharded.ShardedReplayEngine.snapshot_state`),
        the poll cursor, and the trace-store cursor.  The shard workers'
        relaxation pipelines are only caches and are not saved.

        The file write is atomic: the payload goes to a temp file in
        ``path``'s directory, is flushed and fsynced, and then replaces
        ``path`` — so a write that fails (a full disk) leaves the
        previous checkpoint intact and no temp file behind.
        """
        payload = {
            "kind": _SERVICE_KIND,
            "version": _SERVICE_VERSION,
            "engine": self._engine.snapshot_state(),
            "poll_cursor": self._poll_cursor,
            "trace": {"path": self._trace_path, "cursor": self._trace_cursor},
        }
        blob = pickle.dumps(payload)
        if path is None:
            return blob
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
        )
        try:
            with open(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def restore(
        cls,
        topology: Topology,
        power: PowerModel,
        source: bytes | str,
        *,
        partition: TopologyPartition | None = None,
    ) -> "ReplayService":
        """Rebuild a service from :meth:`snapshot` bytes or a file path."""
        if isinstance(source, (bytes, bytearray)):
            blob = bytes(source)
        else:
            with open(source, "rb") as handle:
                blob = handle.read()
        payload = pickle.loads(blob)
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != _SERVICE_KIND
        ):
            raise ValidationError("not a replay service snapshot")
        if payload.get("version") != _SERVICE_VERSION:
            raise ValidationError(
                f"unsupported service snapshot version "
                f"{payload.get('version')!r} (expected {_SERVICE_VERSION})"
            )
        service = cls.__new__(cls)
        service._poll_cursor = payload["poll_cursor"]
        service._trace_path = payload["trace"]["path"]
        service._trace_cursor = payload["trace"]["cursor"]
        # Last: the engine forks the shard workers, and only once its
        # payload has passed every check.
        service._engine = ShardedReplayEngine.restore_state(
            topology, power, payload["engine"], partition=partition
        )
        return service
