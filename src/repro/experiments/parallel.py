"""Process-parallel fan-out for the experiment harness.

Experiment sweeps decompose into independent, deterministically seeded
(sweep-point, run-seed) tasks, which :func:`parallel_map` distributes over
a ``fork``-based process pool.  Fork inheritance is what makes this work
ergonomically: the task callable (typically a closure over a topology, a
power model and a workload factory) never crosses a pipe — workers inherit
it through a module-level registry populated in the parent right before
the pool starts, and only the picklable *items* and *results* are
serialized.

Fallbacks keep behavior identical everywhere: with ``jobs <= 1``, a single
item, on platforms whose default start method is not ``fork`` (macOS and
Windows — fork is technically *available* on macOS but CPython defaults
away from it because forking after Objective-C/BLAS initialization is
unsafe there), or when already inside a daemonic pool worker (nested
parallelism), the map degrades to a plain serial loop.  Results always
come back in input order, so a parallel sweep is bit-identical to its
serial counterpart.

:func:`worker_slots` extends the model across *simultaneous* maps: the
``--which all`` runner drives every ablation from its own thread, each
``parallel_map`` call still forks its own (closure-inheriting) pool, and
a fork-inherited semaphore caps the number of tasks *executing* at once
— one shared pool of execution slots, so tail ablations queue work the
moment a slot frees instead of idling behind earlier ablations.

:class:`WorkerGroup` is the long-lived counterpart for services: one
process per worker, built once and messaged many times, each keeping
whatever its handler caches between messages (a topology shard's
relaxation pipeline) that a stateless pool would rebuild on every call.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
from collections import deque
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, TypeVar

from repro.errors import ValidationError

__all__ = [
    "parallel_map",
    "grouped_map",
    "available_parallelism",
    "worker_slots",
    "WorkerGroup",
    "WorkerCrash",
]


class WorkerCrash(RuntimeError):
    """A :class:`WorkerGroup` worker died (or timed out) with work pending.

    Distinct from the ``RuntimeError`` a worker ships back when its
    *handler* raises: a crash means the process itself is gone — the pipe
    hit EOF, a send found it closed, or a bounded :meth:`WorkerGroup.
    collect` expired.  The worker's unanswered messages stay recorded,
    and :meth:`~WorkerGroup.restart` sends them again.
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"worker {index} crashed: {reason}")
        self.index = index

T = TypeVar("T")
R = TypeVar("R")

#: Parent-side registry of task callables, inherited by forked workers.
_WORK: dict[int, Callable] = {}
_TOKENS = itertools.count()

#: Fork-inherited execution-slot semaphore (see :func:`worker_slots`).
_SLOTS = None

#: Serializes pool construction when maps run on several threads, so the
#: fork happens while no sibling map is mid-fork.
_POOL_CREATE_LOCK = threading.Lock()


def _invoke(token: int, item):  # pragma: no cover - runs in the worker
    slots = _SLOTS
    if slots is None:
        return _WORK[token](item)
    with slots:
        return _WORK[token](item)


@contextmanager
def worker_slots(jobs: int) -> Iterator[None]:
    """Cap concurrently *executing* tasks across simultaneous maps.

    Inside the context every :func:`parallel_map` worker acquires one of
    ``jobs`` shared slots around each task, so any number of concurrent
    maps (e.g. one per ablation, driven from threads) together behave
    like one shared ``jobs``-wide pool.  Idle workers beyond the cap just
    sleep on the semaphore.  The semaphore must exist before the pools
    fork — enter this context before starting the threads.  No-op on
    platforms whose default start method is not ``fork`` (the maps run
    serially there anyway).
    """
    global _SLOTS
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if _SLOTS is not None:
        raise ValidationError("worker_slots does not nest")
    if mp.get_start_method() != "fork":
        yield
        return
    _SLOTS = mp.get_context("fork").BoundedSemaphore(jobs)
    try:
        yield
    finally:
        _SLOTS = None


def available_parallelism() -> int:
    """Usable worker count (scheduler affinity when exposed, else cores)."""
    try:
        import os

        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, mp.cpu_count())


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], jobs: int = 1
) -> list[R]:
    """Apply ``fn`` to every item, fanning out over ``jobs`` processes.

    Parameters
    ----------
    fn:
        Task callable.  May be any callable (closures and lambdas
        included) — it is inherited via fork, not pickled.  It must not
        depend on mutable global state changed after the call starts.
    items:
        Task inputs; each must be picklable (seeds, labels, small tuples).
    jobs:
        Maximum worker processes.  ``1`` (or fewer items than 2, or a
        platform that does not default to ``fork``) runs serially
        in-process.

    Returns results in input order.  A worker exception propagates to the
    caller (remaining tasks may be cancelled), exactly like the serial
    loop.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    task_list = list(items)
    serial = (
        jobs == 1
        or len(task_list) <= 1
        or mp.get_start_method() != "fork"
        or mp.current_process().daemon
    )
    if serial:
        return [fn(item) for item in task_list]
    token = next(_TOKENS)
    _WORK[token] = fn
    try:
        ctx = mp.get_context("fork")
        with _POOL_CREATE_LOCK:
            pool = ctx.Pool(processes=min(jobs, len(task_list)))
        try:
            return pool.starmap(_invoke, [(token, item) for item in task_list])
        finally:
            pool.terminate()
    finally:
        del _WORK[token]


#: Parent-side registry of WorkerGroup state factories (fork-inherited).
_GROUP_WORK: dict[int, Callable[[int], Callable]] = {}

_STOP = "__worker_group_stop__"


def _group_worker_main(token: int, index: int, conn) -> None:
    """Worker process body: build state post-fork, then serve messages.

    Runs until the parent sends the stop sentinel or the pipe closes.
    Exceptions inside the handler are shipped back as ``("err", repr,
    traceback_text)`` instead of killing the worker, so one poisoned
    window does not take the whole service down.
    """
    # pragma: no cover — executes in the forked child.
    import traceback

    try:
        handler = _GROUP_WORK[token](index)
    except BaseException as exc:  # noqa: BLE001 - report builder failures
        conn.send(("err", repr(exc), traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", None))  # handshake: state built
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg == _STOP:
            break
        try:
            conn.send(("ok", handler(msg)))
        except BaseException as exc:  # noqa: BLE001 - ship, don't die
            conn.send(("err", repr(exc), traceback.format_exc()))
    conn.close()


class WorkerGroup:
    """``n`` long-lived workers, each keeping its handler between messages.

    Unlike :func:`parallel_map` (stateless fan-out, fresh pool per call)
    a worker group keeps one process per worker alive across any number
    of messages, so what a handler caches — a relaxation pipeline's path
    registry and walk caches mid-replay — lives where the work happens.
    ``factory(i)`` is called *inside* worker ``i`` right after the fork
    and returns the message handler; the factory itself is inherited
    through the same fork-time registry as :func:`parallel_map` tasks,
    so closures over topologies and power models never cross a pipe —
    only messages and results do.

    :meth:`submit` is asynchronous (returns immediately);
    :meth:`collect` blocks for that worker's next pending result.
    Submitting to several workers before collecting any is what overlaps
    their work — the replay service's window pipelining.  The group
    keeps each worker's unanswered messages, oldest first: a message is
    recorded before it is sent and dropped when :meth:`collect` returns
    its answer, so :meth:`restart` can send a crashed worker's backlog
    to its replacement.

    On platforms without ``fork`` (or nested inside a daemonic pool
    worker) the group degrades to in-process handlers: each recorded
    message runs in :meth:`collect`, in submission order, so results and
    their ordering are identical, just serial.
    """

    def __init__(self, factory: Callable[[int], Callable], n: int) -> None:
        if n < 1:
            raise ValidationError(f"worker group needs n >= 1, got {n}")
        self._factory = factory  # kept for restart()
        #: Per worker, the messages sent and not yet answered, oldest first.
        self._pending: list[deque] = [deque() for _ in range(n)]
        self._closed = False
        self._serial = (
            mp.get_start_method() != "fork" or mp.current_process().daemon
        )
        if self._serial:
            self._handlers = [factory(i) for i in range(n)]
            return
        self._conns = []
        self._procs = []
        try:
            token = next(_TOKENS)
            _GROUP_WORK[token] = factory
            try:
                with _POOL_CREATE_LOCK:
                    for index in range(n):
                        self._spawn(index, token, replace=False)
            finally:
                del _GROUP_WORK[token]
            for index, conn in enumerate(self._conns):
                self._receive(index, conn.recv())  # factory handshake
        except BaseException:
            # A failed spawn or handshake must not leak the workers that
            # DID start: reap them before re-raising.
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            for conn in self._conns:
                conn.close()
            for proc in self._procs:
                proc.join(timeout=5.0)
            raise

    def _spawn(self, index: int, token: int, replace: bool) -> None:
        """Fork one worker process (factory token must be registered)."""
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_group_worker_main,
            args=(token, index, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if replace:
            self._conns[index] = parent_conn
            self._procs[index] = proc
        else:
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def serial(self) -> bool:
        """True when the group runs in-process (no fork available)."""
        return self._serial

    def _receive(self, index: int, reply):
        status, *rest = reply
        if status == "err":
            detail, tb = rest
            raise RuntimeError(
                f"worker {index} failed: {detail}\n{tb}"
            )
        return rest[0]

    def submit(self, index: int, msg) -> None:
        """Queue ``msg`` for worker ``index`` (non-blocking).

        The message is recorded before it is sent.  Raises
        :class:`WorkerCrash` when the worker is dead (killed or exited);
        the message stays recorded, and :meth:`restart` sends it.
        """
        if self._closed:
            raise ValidationError("worker group is closed")
        self._pending[index].append(msg)
        if self._serial:
            if self._handlers[index] is None:
                raise WorkerCrash(index, "worker was killed")
            return
        self._send(index, msg)

    def _send(self, index: int, msg) -> None:
        try:
            self._conns[index].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(index, f"submit failed ({exc!r})") from exc

    def collect(self, index: int, timeout: float | None = None):
        """Block for worker ``index``'s oldest pending result.

        ``timeout`` (seconds; fork mode only — a serial handler runs
        here, to completion) bounds the wait.  The answered message is
        dropped from the record.  A dead pipe or an expired wait raises
        :class:`WorkerCrash` and keeps it: :meth:`restart` sends it again.
        """
        pending = self._pending[index]
        if not pending:
            raise ValidationError(f"worker {index} has no pending work")
        if self._serial:
            handler = self._handlers[index]
            if handler is None:
                raise WorkerCrash(index, "worker was killed")
            try:
                return handler(pending[0])
            finally:
                pending.popleft()
        conn = self._conns[index]
        try:
            if timeout is not None and not conn.poll(timeout):
                raise WorkerCrash(
                    index, f"no heartbeat within {timeout:g}s"
                )
            reply = conn.recv()
        except WorkerCrash:
            raise
        except (EOFError, OSError) as exc:
            raise WorkerCrash(index, f"pipe closed ({exc!r})") from exc
        pending.popleft()
        return self._receive(index, reply)

    def kill(self, index: int) -> None:
        """Hard-kill worker ``index`` (crash injection for fault drills).

        Its pending results are unrecoverable; :meth:`collect` raises
        :class:`WorkerCrash` until :meth:`restart` respawns it.  In
        serial mode the handler is dropped, which models the same loss.
        """
        if self._serial:
            self._handlers[index] = None
            return
        proc = self._procs[index]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        self._conns[index].close()

    def restart(self, index: int) -> None:
        """Respawn worker ``index`` with fresh factory state and send it
        the messages the old one left unanswered, in order.

        If a send fails, the rest stay recorded and the next
        :meth:`collect` raises :class:`WorkerCrash`.
        """
        if self._closed:
            raise ValidationError("worker group is closed")
        if self._serial:
            self._handlers[index] = self._factory(index)
            return
        proc = self._procs[index]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        self._conns[index].close()
        token = next(_TOKENS)
        _GROUP_WORK[token] = self._factory
        try:
            with _POOL_CREATE_LOCK:
                self._spawn(index, token, replace=True)
        finally:
            del _GROUP_WORK[token]
        self._receive(index, self._conns[index].recv())  # factory handshake
        with suppress(WorkerCrash):
            for msg in self._pending[index]:
                self._send(index, msg)

    def close(self) -> None:
        """Stop every worker (idempotent); pending results are dropped.

        Idle workers get the stop sentinel and exit on their own.  A
        worker with pending results is killed instead: it may still be
        busy on a result nobody will read, and waiting for it would hold
        ``close`` for as long as that work takes.
        """
        if self._closed:
            return
        self._closed = True
        if self._serial:
            self._handlers = []
            return
        for index, conn in enumerate(self._conns):
            if self._pending[index]:
                continue
            try:
                conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        for index, proc in enumerate(self._procs):
            if self._pending[index]:
                proc.kill()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "WorkerGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def grouped_map(
    fn: Callable[[T, int], R],
    points: Iterable[T],
    runs: int,
    jobs: int = 1,
) -> list[list[R]]:
    """Fan ``fn(point, run)`` over the (point, run) grid and regroup.

    The shared shape of every sweep-style experiment: flatten the grid so
    all cores stay busy even when ``runs`` is smaller than the pool, then
    return one ``runs``-long result list per point, in point order.
    Keeping the task order and the chunk stride in one place is what lets
    the callers' per-point aggregation stay trivially correct.
    """
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    point_list = list(points)
    tasks = [(point, run) for point in point_list for run in range(runs)]
    flat = parallel_map(lambda task: fn(*task), tasks, jobs=jobs)
    return [
        flat[i * runs : (i + 1) * runs] for i in range(len(point_list))
    ]
