"""Streaming trace persistence: versioned JSONL.

Same contract as :mod:`repro.io` — versioned formats, loaders that refuse
what they do not recognize — but line-oriented so that writing and reading
both stream: neither direction ever holds more than one flow in memory.

JSONL layout::

    {"kind":"trace","version":1}
    {"id":0,"src":"h0","dst":"h3","size":4.25,"release":0.31,"deadline":8.81}
    {"event":"link_down","time":3.5,"edge":["s0","s4"]}
    ...

Fault events (:class:`~repro.sim.churn.FaultEvent` records, distinguished
by their ``"event"`` key) may be interleaved with flows in time order —
they are first-class trace citizens.  Plain readers skip them, so every
pre-fault consumer keeps working; pass ``include_faults=True`` (reader
and :class:`TraceReader`) to receive them inline, or
:func:`read_trace_faults` to collect just the schedule.

Floats are serialized via ``repr`` (shortest round-tripping form), so a
regenerated trace written twice is byte-for-byte identical and numeric
values survive a round-trip exactly.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from repro.errors import ValidationError
from repro.flows.flow import Flow

__all__ = [
    "TRACE_VERSION",
    "TraceReader",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "read_trace_faults",
]

TRACE_VERSION = 1


def _flow_record(flow: Flow) -> dict:
    return {
        "id": flow.id,
        "src": flow.src,
        "dst": flow.dst,
        "size": flow.size,
        "release": flow.release,
        "deadline": flow.deadline,
    }


def _flow_from_record(entry: object, where: str) -> Flow:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected a flow object, got {entry!r}")
    try:
        return Flow(
            id=entry["id"],
            src=entry["src"],
            dst=entry["dst"],
            size=float(entry["size"]),
            release=float(entry["release"]),
            deadline=float(entry["deadline"]),
        )
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad field value ({exc})") from exc


# ----------------------------------------------------------------------
# JSONL.
# ----------------------------------------------------------------------
def write_trace_jsonl(flows: Iterable[Flow], path: str, faults=None) -> int:
    """Stream ``flows`` to ``path`` as versioned JSONL; returns the count.

    ``faults`` (a :class:`~repro.sim.churn.FaultSchedule` or iterable of
    :class:`~repro.sim.churn.FaultEvent`) interleaves fault-event records
    with the flows in time order — an event lands before the first flow
    released at or after its timestamp.  The returned count is flows
    only.
    """
    pending = sorted(faults, key=lambda e: e.time) if faults else []
    next_fault = 0
    count = 0
    with open(path, "w") as handle:
        handle.write(
            json.dumps(
                {"kind": "trace", "version": TRACE_VERSION},
                separators=(",", ":"),
            )
            + "\n"
        )

        def emit_faults(upto: float) -> None:
            nonlocal next_fault
            while (
                next_fault < len(pending)
                and pending[next_fault].time <= upto
            ):
                handle.write(
                    json.dumps(
                        pending[next_fault].to_record(),
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                next_fault += 1

        for flow in flows:
            emit_faults(flow.release)
            handle.write(
                json.dumps(_flow_record(flow), separators=(",", ":")) + "\n"
            )
            count += 1
        emit_faults(float("inf"))
    return count


def read_trace_jsonl(path: str, include_faults: bool = False) -> Iterator:
    """Lazily iterate the flows of a JSONL trace.

    The header is validated eagerly (before the first flow is requested),
    so an unrecognized file fails fast; each flow re-runs
    :class:`~repro.flows.flow.Flow` validation as it is read.  Fault
    records are skipped unless ``include_faults`` — then
    :class:`~repro.sim.churn.FaultEvent` items are yielded inline, in
    file order.
    """
    handle = open(path)
    try:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not a JSONL trace ({exc})") from exc
        if not isinstance(header, dict) or header.get("kind") != "trace":
            raise ValidationError(f"{path}: expected a trace header")
        if header.get("version") != TRACE_VERSION:
            raise ValidationError(
                f"{path}: unsupported trace version {header.get('version')!r} "
                f"(expected {TRACE_VERSION})"
            )
    except BaseException:
        handle.close()
        raise

    def items() -> Iterator:
        from repro.sim.churn import FaultEvent

        with handle:
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(
                        f"{path}:{lineno}: bad JSON ({exc})"
                    ) from exc
                if isinstance(entry, dict) and "event" in entry:
                    if include_faults:
                        yield FaultEvent.from_record(
                            entry, f"{path}:{lineno}"
                        )
                    continue
                yield _flow_from_record(entry, f"{path}:{lineno}")

    return items()


def read_trace_faults(path: str):
    """Collect just the fault events of a JSONL trace, as a
    :class:`~repro.sim.churn.FaultSchedule` (empty when the trace carries
    none)."""
    from repro.sim.churn import FaultEvent, FaultSchedule

    return FaultSchedule(
        item
        for item in read_trace_jsonl(path, include_faults=True)
        if isinstance(item, FaultEvent)
    )


class TraceReader:
    """Seekable streaming reader over a JSONL trace.

    The plain :func:`read_trace_jsonl` iterator is enough for one-shot
    replays; long-lived consumers (the replay service's
    ``snapshot()``/``restore()``) additionally need a *cursor*: an opaque
    byte offset recorded mid-stream that a fresh reader can
    :meth:`seek` to and continue from, flow for flow.  Because the store
    is line-oriented (one flow per line, ``repr`` floats), a cursor is
    simply the file offset of the next unread line — stable across
    processes and across re-openings of the same file.

    Usage::

        reader = TraceReader(path)
        for flow in reader:
            ...
            cursor = reader.tell()      # resume point AFTER this flow

        later = TraceReader(path)
        later.seek(cursor)
        for flow in later:              # continues where we left off
            ...

    The header is validated eagerly, exactly like
    :func:`read_trace_jsonl`.  ``seek(0)`` (or ``seek`` to
    :attr:`start`) rewinds to the first flow.

    ``include_faults=True`` yields inline
    :class:`~repro.sim.churn.FaultEvent` records interleaved with the
    flows (default skips them — pre-fault consumers see flows only);
    cursors remain plain byte offsets either way.
    """

    def __init__(self, path: str, include_faults: bool = False) -> None:
        self._path = path
        self._include_faults = include_faults
        self._handle = open(path, "rb")
        try:
            header_line = self._handle.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}: not a JSONL trace ({exc})"
                ) from exc
            if not isinstance(header, dict) or header.get("kind") != "trace":
                raise ValidationError(f"{path}: expected a trace header")
            if header.get("version") != TRACE_VERSION:
                raise ValidationError(
                    f"{path}: unsupported trace version "
                    f"{header.get('version')!r} (expected {TRACE_VERSION})"
                )
        except BaseException:
            self._handle.close()
            raise
        self._start = self._handle.tell()

    @property
    def path(self) -> str:
        return self._path

    @property
    def start(self) -> int:
        """Cursor of the first flow (just past the header line)."""
        return self._start

    def tell(self) -> int:
        """Cursor of the next unread flow (byte offset into the file)."""
        return self._handle.tell()

    def seek(self, cursor: int) -> None:
        """Position the reader so iteration resumes at ``cursor``.

        ``cursor`` must be a value previously returned by :meth:`tell`
        (or :attr:`start`, or 0 to rewind); anything else lands mid-line
        and the next read fails validation rather than yielding a
        corrupted flow.
        """
        if cursor < 0:
            raise ValidationError(f"cursor must be >= 0, got {cursor}")
        self._handle.seek(self._start if cursor < self._start else cursor)

    def __iter__(self) -> Iterator[Flow]:
        return self

    def __next__(self):
        while True:
            offset = self._handle.tell()
            line = self._handle.readline()
            if not line:
                raise StopIteration
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{self._path}@{offset}: bad JSON ({exc})"
                ) from exc
            if isinstance(entry, dict) and "event" in entry:
                if self._include_faults:
                    from repro.sim.churn import FaultEvent

                    return FaultEvent.from_record(
                        entry, f"{self._path}@{offset}"
                    )
                continue
            return _flow_from_record(entry, f"{self._path}@{offset}")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
