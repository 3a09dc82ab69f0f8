"""Process launcher: one forked OS process per rank.

:func:`repro.simmpi.engine.run_spmd` supervises both worlds; with
``world="processes"`` it starts ranks through :class:`ProcessLauncher`,
so each rank is a forked worker with a real interpreter and local SpGEMM
kernels run on separate cores instead of time-slicing one GIL.  This
module holds only what a process boundary needs:

* **fork** — the SPMD body, its arguments, the
  :class:`~repro.simmpi.faults.FaultInjector` and any
  :class:`~repro.mp.bridge.DriverCallback` wrappers are inherited
  copy-on-write, so nothing outbound needs to be picklable.  The
  resource-tracker daemon is started before the fork so every worker
  shares one;
* **pickling** — return values, tracker events, exceptions, callback
  arguments and fault snapshots are pickled explicitly in the worker,
  so errors surface at the call site, not in a queue feeder thread;
  heal meters travel through a :class:`_HealProxy`;
* **real crash faults** — an injected ``crash`` fires
  :func:`FaultInjector.crash_action` inside the worker, which ships the
  fault log up, flushes its queues and ``SIGKILL``\\ s itself; the
  supervisor observes the ``-SIGKILL`` exit code, never a Python
  traceback;
* **shared memory** — payloads cross by the shm/naive transports of
  :mod:`repro.mp.transport`; a dead rank's leftover segments are swept
  once every survivor voted, and after all workers are joined
  :func:`~repro.mp.shm.sweep_segments` removes anything a crashed
  worker left behind.  A worker that outlives the teardown grace is
  terminated.

The supervisor wakes on the results queue or any worker's process
sentinel, whichever comes first.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as _queue
import signal
import sys
from multiprocessing import connection, resource_tracker

from ..simmpi.comm import RankWorld
from . import bridge
from .bridge import DriverCallback
from .shm import SegmentRegistry, sweep_segments
from .transport import TRANSPORTS, get_transport

_RUN_COUNTER = 0


def _fresh_run_id() -> str:
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    return f"repro-{os.getpid()}-{_RUN_COUNTER}-{os.urandom(3).hex()}"


def _scan_callbacks(fn, args, kwargs) -> list[DriverCallback]:
    """Find DriverCallback wrappers in the launch arguments (shallow,
    plus any the body advertises via ``fn.driver_callbacks`` — healing
    bodies close over their arguments, so scanning ``args`` alone would
    miss them) and assign each its wire index."""
    found: list[DriverCallback] = []
    for value in (*getattr(fn, "driver_callbacks", ()), *args,
                  *kwargs.values()):
        if isinstance(value, DriverCallback) and value not in found:
            value.index = len(found)
            found.append(value)
    return found


class _HealProxy:
    """Worker-side stand-in for the driver's :class:`HealContext`.

    Workers are forked, so their ``heal_ctx`` copy is dead weight; the
    meters a healing body reports (redistribution bytes, recovery
    latency) ship through the results queue to the supervisor, which
    applies them to the one real context."""

    __slots__ = ("results",)

    def __init__(self, results) -> None:
        self.results = results

    def add_bytes(self, epoch: int, nbytes: int) -> None:
        self.results.put(("heal", "bytes", int(epoch), int(nbytes)))

    def add_latency(self, epoch: int, seconds: float) -> None:
        self.results.put(("heal", "latency", int(epoch), float(seconds)))


def _install_crash_action(rt: RankWorld, injector, rank: int) -> None:
    """Make injected ``crash`` faults kill the worker process for real.

    The action ships the fault log to the supervisor (so the driver's
    injector still reports the event), flushes the results queue and
    abandons the inboxes — a SIGKILL mid-``Queue.put`` would corrupt the
    pipe for everyone — then raises SIGKILL against itself.  The
    supervisor sees exit code ``-SIGKILL``, exactly what a segfaulted or
    OOM-killed rank looks like."""

    def crash_action(spec, event) -> None:
        op = event.op
        if op is None and event.batch is not None:
            # plan-level crash: its coordinates are (batch, stage)
            op = f"batch {event.batch}" + (
                f" stage {event.stage}" if event.stage is not None else ""
            )
        try:
            rt.results.put(("fault", rank, pickle.dumps(injector.snapshot()),
                            op, event.step))
            rt.results.close()
            rt.results.join_thread()
        except Exception:  # noqa: BLE001 — dying anyway
            pass
        for q in rt.inboxes:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # noqa: BLE001
                pass
        os.kill(os.getpid(), signal.SIGKILL)

    injector.crash_action = crash_action


class ProcessLauncher:
    """Ranks as forked worker processes, payloads over shm or pickles."""

    def __init__(self, transport: str = "auto") -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        self.transport = transport

    def start(self, sup, world_info) -> None:
        ctx = multiprocessing.get_context("fork")
        # Start the resource-tracker daemon *before* forking: all workers
        # then share one tracker, so a segment registered at creation in one
        # rank and unregistered at unlink time in another balances out
        # instead of each rank's private tracker warning about "leaks".
        resource_tracker.ensure_running()
        self.run_id = _fresh_run_id()
        if isinstance(world_info, dict):
            # published *before* any worker forks: a resident caller (the
            # DistContext pool) can sweep this run's segments even if the
            # parent dies mid-protocol and never reaches the final update
            world_info["run_id"] = self.run_id
        # Queues cannot be created after the fork, so the whole pool —
        # primaries, parked spares, respawns — is laid out up front.
        self.inboxes = [ctx.Queue() for _ in range(sup.total)]
        self.results = ctx.Queue()
        self.failed = ctx.Event()
        self.callbacks = _scan_callbacks(sup.fn, sup.args, sup.kwargs)
        self.procs = {
            g: ctx.Process(target=self._worker, args=(sup, g),
                           name=f"repro-mp-rank-{g}")
            for g in range(sup.total)
        }
        for w in self.procs.values():
            w.start()
        self.live = dict(self.procs)

    # worker side ---------------------------------------------------- #

    def rank_world(self, grank: int, sup) -> RankWorld:
        registry = SegmentRegistry(self.run_id, grank)
        registry.track_transfers = sup.heal is not None
        transport = get_transport(self.transport)(registry)
        rt = RankWorld(
            grank, self.inboxes, self.results, self.failed, transport,
            timeout=sup.timeout, checksums=sup.checksums, injector=sup.injector,
        )
        transport.post_ack = rt.post_ack
        rt.real_backoff = True
        bridge.set_runtime(rt)
        if sup.injector is not None:
            _install_crash_action(rt, sup.injector, grank)
        if sup.heal is not None:
            rt.heal_proxy = _HealProxy(self.results)
        return rt

    def _worker(self, sup, grank: int) -> None:
        ok = False
        try:
            ok = sup.rank_main(grank)
        finally:
            # the results queue must always flush — on the failure path the
            # ("err", ...) blob is exactly what the supervisor waits for;
            # peer inboxes may never be drained after a failure, so those
            # are abandoned rather than waited on
            try:
                self.results.close()
                self.results.join_thread()
            except Exception:  # noqa: BLE001
                pass
            for q in self.inboxes:
                try:
                    q.close()
                    if ok:
                        q.join_thread()
                    else:
                        q.cancel_join_thread()
                except Exception:  # noqa: BLE001
                    pass
            sys.stdout.flush()
            sys.stderr.flush()
            # skip interpreter teardown: every segment name is already
            # unlinked (or swept by the parent), and arbitrary destruction
            # order would otherwise spray harmless SharedMemory.__del__
            # BufferErrors over stderr when a handle dies before its views
            os._exit(0 if ok else 1)

    @staticmethod
    def dump(obj) -> bytes:
        return pickle.dumps(obj)

    @staticmethod
    def dump_exc(rank: int, exc: BaseException) -> bytes:
        try:
            return pickle.dumps(exc)
        except Exception:  # noqa: BLE001
            return pickle.dumps(
                RuntimeError(f"rank {rank}: {type(exc).__name__}: {exc!r}")
            )

    @staticmethod
    def fault_report(injector):
        return pickle.dumps(injector.snapshot()) if injector is not None else None

    # supervisor side ------------------------------------------------ #

    load = staticmethod(pickle.loads)

    def poll(self, timeout: float):
        """Next message, or ``None`` once the queue is empty (after up
        to ``timeout`` seconds, or at once when a worker exited)."""
        if timeout > 0:
            # the queue's reader end is a Connection; waiting on it with
            # the workers' sentinels wakes on a message or an exit
            connection.wait(
                [self.results._reader, *(w.sentinel for w in self.live.values())],
                timeout,
            )
        try:
            return self.results.get_nowait()
        except _queue.Empty:
            return None

    def reap(self) -> list[int]:
        gone = [g for g, w in self.live.items() if not w.is_alive()]
        for g in gone:
            self.live.pop(g).join()
        return gone

    def exit_status(self, grank: int):
        w = self.procs[grank]
        exitcode, signame = w.exitcode, None
        if isinstance(exitcode, int) and exitcode < 0:
            try:
                signame = signal.Signals(-exitcode).name
            except ValueError:
                signame = f"signal {-exitcode}"
        return w.pid, exitcode, signame

    def sweep_rank(self, grank: int) -> int:
        return sweep_segments(self.run_id, rank=grank)

    def teardown(self) -> int:
        """Reap every worker, sweep this run's shm segments, close the
        queues.  Runs on *every* exit path — including a parent-side
        exception in a driver callback or the heal protocol — so a
        long-lived caller reusing one grid (the serve pool) can never
        accumulate `/dev/shm` debris from failed runs."""
        live = list(self.live.values())
        if any(w.is_alive() for w in live):
            self.failed.set()
        for w in live:
            w.join(timeout=2.0)
        for w in live:
            if w.is_alive():
                w.terminate()
                w.join(timeout=5.0)
        # every worker joined (or was killed): nothing can attach now
        swept = sweep_segments(self.run_id)
        for q in (*self.inboxes, self.results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # noqa: BLE001
                pass
        return swept

    def world_stats(self, rows, swept: int) -> dict:
        return {
            "world": "processes",
            "transport": self.transport,
            "ranks_reporting": len(rows),
            "shm_segments": sum(s["shm_segments"] for s in rows),
            "shm_bytes": sum(s["shm_bytes"] for s in rows),
            "naive_msgs": sum(s["naive_msgs"] for s in rows),
            "naive_bytes": sum(s["naive_bytes"] for s in rows),
            "swept_segments": swept,
        }
