"""SPMD execution engine: run the same function on ``p`` ranks.

:func:`run_spmd` is the one supervisor of both execution worlds.  A
*launcher* decides only how a rank starts and how a payload crosses:

* ``world="threads"`` (:class:`ThreadLauncher`) — one thread per rank in
  this process; payloads, results and tracker events pass by reference
  and every rank shares the caller's
  :class:`~repro.simmpi.faults.FaultInjector`.  NumPy releases the GIL
  inside its kernels, so local multiplies overlap;
* ``world="processes"`` (:class:`repro.mp.engine.ProcessLauncher`) — one
  forked worker per rank for real multicore speedup; shm or pickled
  payloads, real ``SIGKILL`` crashes.

Either way every rank runs on its own
:class:`~repro.simmpi.comm.RankWorld` and talks through
:class:`~repro.simmpi.comm.SimComm`, and the supervisor is the parent-side
coordinator:

* **failures** — if any rank raises, the world is aborted (blocked waits
  raise :class:`~repro.errors.CommError`) and the supervisor raises
  :class:`~repro.errors.SpmdError` carrying the *original* per-rank
  exceptions; cascade errors are filtered out when at least one genuine
  failure exists;
* **healing** — with ``heal=`` a rank's death becomes an epoch
  revocation: survivors vote, the supervisor computes the
  :class:`~repro.simmpi.membership.HealDecision` with
  :func:`~repro.simmpi.membership.compute_decision` once every survivor
  voted, and publishes it.  Spare ranks and the shrink-mode respawn pool
  are started *up front* and parked, then promoted by decision;
* **watchdog** — blocked ranks ship wait records after a grace period;
  the supervisor assembles the wait-for graph, confirms a deadlock cycle
  that persists for a whole watch period (or finds a pending peer that already returned, when
  no heal layer could replace it) and notifies the classified rank,
  which raises :class:`~repro.errors.HangError`.  A flat parent deadline
  slightly above the world timeout is the last backstop.

The supervisor wakes on the next message or the next worker exit; the
idle tick :data:`IDLE_TICK` only bounds how long it sleeps when nothing
happens at all.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Callable
from typing import Any

from ..errors import CommError, HangError, RankCrashError, SpmdError
from .comm import DEFAULT_TIMEOUT, RankWorld, RefTransport, SimComm, watch_period
from .faults import as_injector
from .membership import HealDecision, RankMembership, compute_decision
from .tracker import CommTracker

#: available execution worlds: ``threads`` is the deterministic
#: reference simulator, ``processes`` the multicore performance world.
WORLDS = ("threads", "processes")

#: longest the supervisor sleeps with no message and no worker exit.
IDLE_TICK = 0.5


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args,
    tracker: CommTracker | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    faults=None,
    checksums: bool | None = None,
    world_spares: int = 0,
    heal=None,
    world: str = "threads",
    transport: str = "auto",
    world_info: dict | None = None,
    **kwargs,
) -> list:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    Parameters
    ----------
    nprocs:
        Number of simulated processes.
    fn:
        The SPMD program.  Its first argument is the rank's
        :class:`SimComm`; remaining arguments are shared (by reference in
        the thread world, fork-inherited in the process world — treat
        them as read-only, like remotely-resident input data).
    tracker:
        Optional :class:`CommTracker` that receives every rank's events
        (one per collective) after the run.  Without it they are
        discarded.
    timeout:
        Deadlock guard for collectives, in seconds.
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan`,
        :class:`~repro.simmpi.faults.FaultInjector` or list of CLI
        fault-spec strings (see :func:`~repro.simmpi.faults.as_injector`)
        to run the program under deterministic fault injection.
    checksums:
        Force per-message envelope checksums on/off; ``None`` enables
        them exactly when faults are injected.
    world_spares:
        Number of pre-started spare ranks parked outside the grid,
        promotable by the heal layer (``heal`` with mode ``"spare"``);
        ignored without ``heal``.
    heal:
        Optional :class:`~repro.resilience.heal.HealContext`.  When set,
        ``fn`` must be a healing body (it registers itself with the
        rank's membership so spares/respawns can run it too) and rank
        crashes are repaired online instead of aborting.
    world:
        ``"threads"`` (default) runs ranks as threads in this process —
        the deterministic reference.  ``"processes"`` runs one forked
        worker per rank for real multicore speedup, with the same
        fault/heal/watchdog matrix: injected crashes SIGKILL the worker
        for real, and products — healed or not — stay bit-identical to
        the thread world.
    transport:
        Payload wire format for ``world="processes"`` (one of
        :data:`repro.mp.transport.TRANSPORTS`); ignored by the thread
        world, which shares payloads by reference.
    world_info:
        Optional dict that receives world/transport statistics (shm
        bytes, naive-pickle traffic, swept segments) after the run.

    Returns
    -------
    list
        Per-rank return values of ``fn``, indexed by rank (grid
        position — under healing, a repaired position's value comes from
        whichever rank finally held it).
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if world_spares < 0:
        raise ValueError(f"world_spares must be >= 0, got {world_spares}")
    if world not in WORLDS:
        raise ValueError(f"unknown world {world!r}; expected one of {WORLDS}")
    if world == "processes":
        from ..mp.engine import ProcessLauncher

        launcher = ProcessLauncher(transport)
    else:
        launcher = ThreadLauncher()
    injector = as_injector(faults)
    sup = _Supervisor(
        nprocs, fn, args, kwargs, launcher, timeout=float(timeout),
        injector=injector,
        checksums=(injector is not None) if checksums is None else bool(checksums),
        heal=heal, spares=world_spares if heal is not None else 0,
    )
    return sup.run(tracker, world_info)


def _find_cycle(pending: dict, start: int):
    """DFS over blocked ranks for a wait-for cycle through ``start``.

    ``pending`` maps each blocked rank to the ranks it waits on.  Returns
    the rank list of the cycle (beginning at ``start``) or ``None``.  A
    computing (unblocked) rank is no node, so it breaks every path
    through it.
    """
    visited: set[int] = set()

    def dfs(rank: int, trail: list[int]):
        for peer in pending.get(rank, ()):
            if peer == start:
                return trail + [rank]
            if peer in trail or peer in visited:
                continue
            visited.add(peer)
            found = dfs(peer, trail + [rank])
            if found is not None:
                return found
        return None

    return dfs(start, []) if start in pending else None


def _park(rt: RankWorld, rank: int):
    """Spare/respawn-pool main loop: pump the inbox until promoted
    (returns ``(position, decision)``) or released (returns ``None``)."""
    deadline = time.monotonic() + rt.timeout * 1.25 + 15.0
    while True:
        if rt.finish_flag or rt.failed.is_set():
            return None
        assigned = rt.membership.assignment(rank)
        if assigned is not None:
            return assigned
        if not rt.pump() and time.monotonic() >= deadline:
            return None


class _Supervisor:
    """Parent-side coordinator of one run (see the module docstring)."""

    def __init__(self, nprocs, fn, args, kwargs, launcher, *, timeout,
                 injector, checksums, heal, spares) -> None:
        self.nprocs = nprocs
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self.launcher = launcher
        self.timeout = timeout
        self.injector = injector
        self.checksums = checksums
        self.heal = heal
        # Global rank layout: primaries, then parked spares, then the
        # shrink-mode respawn pool — all started up front.
        self.parked = list(range(nprocs, nprocs + spares))
        first_respawn = nprocs + spares
        self.respawns = (
            list(range(first_respawn, first_respawn + int(heal.max_rounds)))
            if heal is not None and heal.mode == "shrink" else []
        )
        self.total = first_respawn + len(self.respawns)
        self.pending: set[int] = set(range(self.total))  # not yet exited
        self.reported: set[int] = set()   # granks that completed their protocol
        self.done: dict[int, tuple] = {}  # position -> (value, stats)
        self.events: dict[int, Any] = {}  # grank -> its tracker events
        self.failures: dict[int, BaseException] = {}
        self.crash_causes: dict[int, BaseException] = {}
        self.fault_reports: dict[int, tuple] = {}
        self.waits: dict[int, dict] = {}  # grank -> shipped wait record
        self.votes: dict[int, set[int]] = {}
        self.decision = (
            HealDecision(0, tuple(range(nprocs)), heal.first_batch, "initial",
                         hosts={p: p for p in range(nprocs)})
            if heal is not None else None
        )
        self.healed: dict[int, BaseException] = {}  # position -> crash exc
        self.dead: set[int] = set()
        self.swept_dead: set[int] = set()
        self.heal_swept = 0
        self.epoch = 0
        self.hang_sent: tuple | None = None  # (grank, since) of the live notice
        self.finish_sent = False
        self.woken = False
        self.sweep_due = False  # a new wait record arrived
        self.cycle: tuple | None = None  # (signature, first seen) of a cycle
        self.parent_deadline_s = timeout * 1.25 + 15.0
        self.watch_period = watch_period(timeout)

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    def rank_main(self, grank: int) -> bool:
        """Run one rank to completion inside its worker and report the
        outcome to the supervisor; returns whether it completed."""
        launcher = self.launcher
        rt = launcher.rank_world(grank, self)
        if self.heal is not None:
            rt.membership = RankMembership(
                rt, self.nprocs, self.heal.first_batch, self.heal.mode
            )
        results = rt.results
        position = None
        try:
            if grank >= self.nprocs:
                promotion = _park(rt, grank)
                if promotion is None:
                    results.put(("idle", grank))
                    return True
                position = promotion[0]
                value = self.fn.run(rt, position, grank)
            else:
                position = grank
                comm = SimComm(rt, ("world",), tuple(range(self.nprocs)), grank)
                value = self.fn(comm, *self.args, **self.kwargs)
            blob = launcher.dump(value)
            rt.finish()
            results.put((
                "done", grank, position, blob, launcher.dump(rt.tracker.events),
                rt.transport.stats(), launcher.fault_report(rt.injector),
            ))
            return True
        except RankCrashError as exc:
            # one rank's death: under healing the supervisor revokes the
            # epoch and repairs; otherwise it aborts the run
            rt.abandon()
            if rt.membership is not None:
                results.put(("crashed", grank, launcher.dump_exc(grank, exc),
                             launcher.dump(rt.tracker.events)))
                return False
            failure = exc
        except BaseException as exc:  # noqa: BLE001 — reported via SpmdError
            rt.abandon()
            failure = exc
        # a failed rank's traffic still happened: it is metered too
        rt.failed.set()
        results.put(("err", grank, position, launcher.dump_exc(grank, failure),
                     launcher.dump(rt.tracker.events)))
        return False

    # ------------------------------------------------------------------ #
    # supervisor loop
    # ------------------------------------------------------------------ #

    def run(self, tracker, world_info) -> list:
        launcher = self.launcher
        deadline = time.monotonic() + self.parent_deadline_s
        next_watch = time.monotonic() + self.watch_period
        launcher.start(self, world_info)
        try:
            while self.pending:
                now = time.monotonic()
                wait_s = min(IDLE_TICK, deadline - now)
                if self.waits:
                    wait_s = min(wait_s, next_watch - now)
                msg = launcher.poll(max(wait_s, 0.0))
                if msg is not None:
                    self.handle(msg)
                    self.drain()
                for grank in launcher.reap():
                    self.pending.discard(grank)
                    self.on_exit(grank)
                # the queue is drained at this instant: safe points for
                # the heal decision (stale callbacks consumed) and the
                # watchdog
                self.maybe_decide()
                now = time.monotonic()
                if self.sweep_due or now >= next_watch:
                    self.watchdog_sweep(now)
                    next_watch = now + self.watch_period
                self.release_pools()
                if launcher.failed.is_set() and not self.woken:
                    # interrupt every blocked wait at once
                    self.woken = True
                    for g in self.pending:
                        self.post(g, ("ctl", "wake"))
                if now >= deadline:
                    launcher.failed.set()
                    break
            self.drain()
        finally:
            swept = launcher.teardown()
        return self.collect(tracker, world_info, swept)

    def post(self, grank: int, item: tuple) -> None:
        try:
            self.launcher.inboxes[grank].put(item)
        except Exception:  # noqa: BLE001 — a dying worker's queue
            pass

    def drain(self) -> None:
        msg = self.launcher.poll(0.0)
        while msg is not None:
            self.handle(msg)
            msg = self.launcher.poll(0.0)

    def handle(self, msg) -> None:
        kind = msg[0]
        load = self.launcher.load
        if kind == "cb":
            self.launcher.callbacks[msg[2]].fn(*load(msg[3]))
        elif kind == "done":
            _, grank, position, value, events, stats, faults = msg
            self.done[position] = (value, stats)
            self.events[grank] = events
            self.reported.add(grank)
            self.waits.pop(grank, None)
            if faults is not None and self.injector is not None:
                self.injector.absorb(*load(faults))
        elif kind == "err":
            _, grank, position, blob, self.events[grank] = msg
            key = grank if position is None else position
            try:
                self.failures[key] = load(blob)
            except Exception as exc:  # noqa: BLE001
                self.failures[key] = RuntimeError(
                    f"rank {key}: worker failed (exception did not "
                    f"unpickle: {exc!r})"
                )
            self.reported.add(grank)
            self.waits.pop(grank, None)
        elif kind == "crashed":
            _, grank, blob, self.events[grank] = msg
            try:
                self.crash_causes[grank] = load(blob)
            except Exception:  # noqa: BLE001 — on_exit synthesises one
                pass
            self.waits.pop(grank, None)
        elif kind == "idle":
            self.reported.add(msg[1])
        elif kind == "vote":
            self.votes.setdefault(int(msg[2]), set()).add(int(msg[1]))
        elif kind == "wait":
            self.waits[msg[1]] = msg[2]
            self.sweep_due = True
        elif kind == "endwait":
            self.waits.pop(msg[1], None)
        elif kind == "heal":  # meters from a process rank's _HealProxy
            if msg[1] == "bytes":
                self.heal.add_bytes(msg[2], msg[3])
            else:
                self.heal.add_latency(msg[2], msg[3])
        elif kind == "fault":
            _, grank, blob, op, step = msg
            self.fault_reports[grank] = (op, step)
            if self.injector is not None:
                self.injector.absorb(*load(blob))

    def crash_error(self, grank: int) -> BaseException:
        """Uniform-context RankCrashError for one worker death."""
        pid, exitcode, signame = self.launcher.exit_status(grank)
        last_op = None
        fr = self.fault_reports.get(grank)
        if fr is not None:
            op, step = fr
            last_op = f"{op} @ {step}" if step else op
        elif grank in self.waits:
            last_op = self.waits[grank].get("op")
        cause = self.crash_causes.get(grank)
        if cause is not None:
            message = str(cause)
        else:
            how = f"on {signame}" if signame else f"with exit code {exitcode}"
            message = (
                f"rank {grank}: worker (pid {pid}) died {how}"
                + (f" during {last_op}" if last_op else "")
                + " before reporting a result"
            )
        exc = cause if isinstance(cause, RankCrashError) else RankCrashError(message)
        return exc.with_context(
            rank=grank, pid=pid, exitcode=exitcode, signal=signame,
            last_op=last_op, epoch=self.epoch,
        )

    def on_exit(self, grank: int) -> None:
        """One worker ended: clean completion or a real death."""
        self.drain()  # its flushed messages happened-before the exit
        if grank in self.reported and grank not in self.crash_causes:
            return
        exc = self.crash_error(grank)
        self.waits.pop(grank, None)
        decision = self.decision
        if (
            self.heal is not None
            and decision.mode != "failed"
            and grank in decision.members
            and grank not in self.dead
        ):
            self.healed[decision.members.index(grank)] = exc
            self.dead.add(grank)
            self.epoch += 1
            for m in decision.members:
                if m not in self.dead and m in self.pending:
                    self.post(m, ("ctl", "revoke", self.epoch))
            return
        for pool in (self.parked, self.respawns):
            if grank in pool:
                pool.remove(grank)
                return
        self.failures.setdefault(grank, exc)
        self.launcher.failed.set()

    def maybe_decide(self) -> None:
        """Publish the heal decision once every survivor has voted.

        Runs only when the results queue is drained: every stale driver
        callback a survivor (or the flushed dead rank) posted before
        voting has then been consumed, so ``on_decision``'s
        ``drop_pending`` cannot race half-batch pieces arriving late.
        """
        heal, decision, epoch = self.heal, self.decision, self.epoch
        if heal is None or decision.mode == "failed" or epoch <= decision.epoch:
            return
        if self.launcher.failed.is_set():
            return  # a non-crash failure already aborted the run
        alive = [m for m in decision.members if m not in self.dead]
        if not set(alive) <= self.votes.get(epoch, set()):
            return
        # every survivor voted == every survivor abandoned the revoked
        # epoch's ops: the dead ranks' leftover segments are orphans now
        for g in sorted(self.dead - self.swept_dead):
            self.heal_swept += self.launcher.sweep_rank(g)
            self.swept_dead.add(g)
        need = sum(1 for m in decision.members if m in self.dead)
        if heal.mode == "shrink" and len(self.respawns) < need:
            new = HealDecision(
                epoch, decision.members, decision.restart_batch, "failed",
                reason=(
                    f"respawn pool exhausted: {need} position(s) to refill,"
                    f" {len(self.respawns)} pre-started worker(s) left"
                ),
            )
        else:
            # a pool worker that died was dropped from its pool by on_exit
            new = compute_decision(
                epoch, decision, self.dead, heal.mode, heal.restart_point(),
                parked=self.parked, alloc_rank=lambda: self.respawns.pop(0),
                max_rounds=heal.max_rounds,
            )
        heal.on_decision(new)
        self.decision = new
        for m in new.members:
            if m not in self.dead and m in self.pending:
                self.post(m, ("ctl", "decision", new))
        if new.mode == "failed":
            self.finish_pools()

    def finish_pools(self) -> None:
        for g in self.parked + self.respawns:
            if g in self.pending:
                self.post(g, ("ctl", "finish"))
        self.finish_sent = True

    def release_pools(self) -> None:
        """Release parked spares and respawns once no promotion can come."""
        if self.heal is None or self.finish_sent:
            return
        if self.launcher.failed.is_set() or (
            len(self.done) >= self.nprocs and self.epoch == self.decision.epoch
        ):
            self.finish_pools()

    def notify_hang(self, grank: int, kind: str, nodes) -> None:
        """Ship a classified hang to one blocked rank, which raises it."""
        waits = self.waits
        now = time.monotonic()
        dump = {}
        lines = []
        for r in sorted({grank, *nodes} & set(waits)):
            rec = waits[r]
            blocked = round(max(now - rec["since"], 0.0), 3)
            dump[r] = {
                "rank": r, "pid": rec["pid"], "op": rec["op"],
                "comm": rec["comm"], "tag": rec["tag"], "op_id": rec["op_id"],
                "pending": list(rec["pending"]), "blocked_s": blocked,
                "heartbeat": rec["heartbeat"],
            }
            lines.append(
                f"  rank {r}: {rec['op']} on {rec['comm']}"
                + (f" tag {rec['tag']}" if rec["tag"] is not None else "")
                + f" waiting on {list(rec['pending'])} for {blocked}s"
                f" in pid {rec['pid']}"
            )
        rec = waits[grank]
        if kind == "deadlock":
            chain = " -> ".join(f"rank {r}" for r in (*nodes, nodes[0]))
            head = (
                f"deadlock: wait-for cycle {chain} "
                "(persisted for a whole watchdog period)"
            )
        else:
            head = (
                f"rank {grank} (pid {rec['pid']}): {rec['op']} waits on "
                f"rank(s) {', '.join(str(p) for p in nodes)} which already "
                "returned and can never arrive"
            )
        message = "\n".join([head, *lines])
        self.post(grank, ("ctl", "hang", kind, tuple(nodes), dump, message,
                          rec["since"]))
        self.hang_sent = (grank, rec["since"])

    def watchdog_sweep(self, now: float) -> None:
        """Deadlock / peer-exited classification over the wait records.

        Runs when a record arrives and once per watch period.  A cycle
        is a deadlock only once the same wait instances (ranks and
        ``since`` stamps) have formed it for a whole period, so a cycle
        that resolves itself — data still in flight — never trips it.
        """
        self.sweep_due = False
        waits = self.waits
        if self.hang_sent is not None:
            # an outstanding notice is bound to one specific wait; if
            # that wait resolved anyway (the data raced in), the rank
            # dropped the stale notice and the watchdog re-arms
            g, s = self.hang_sent
            rec = waits.get(g)
            if rec is not None and rec["since"] == s:
                return
            self.hang_sent = None
        if self.launcher.failed.is_set() or not waits:
            self.cycle = None
            return
        if self.heal is None:
            for g in sorted(waits):
                gone = tuple(
                    p for p in waits[g]["pending"]
                    if p in self.reported or p in self.dead
                )
                if gone:
                    self.notify_hang(g, "peer-exited", gone)
                    return
        graph = {g: rec["pending"] for g, rec in waits.items()}
        for g in sorted(graph):
            cycle = _find_cycle(graph, g)
            if cycle:
                sig = tuple((r, waits[r]["since"]) for r in cycle)
                if self.cycle is None or self.cycle[0] != sig:
                    self.cycle = (sig, now)
                elif now - self.cycle[1] >= self.watch_period:
                    self.notify_hang(cycle[0], "deadlock", tuple(cycle))
                return
        self.cycle = None

    # ------------------------------------------------------------------ #
    # outcome
    # ------------------------------------------------------------------ #

    def collect(self, tracker, world_info, swept: int) -> list:
        failures, done, launcher = self.failures, self.done, self.launcher
        # positions that died and never healed surface their crash error
        for position, exc in self.healed.items():
            if position not in done:
                failures.setdefault(position, exc)
        for position in range(self.nprocs):
            if position in done or position in failures:
                continue
            holder = (self.decision.members[position]
                      if self.heal is not None else position)
            pid, exitcode, _ = launcher.exit_status(holder)
            if exitcode not in (0, None):
                failures[position] = self.crash_error(holder)
            else:
                failures[position] = HangError(
                    f"rank {position}: worker (pid {pid}) produced no "
                    f"result within the parent deadline "
                    f"({self.parent_deadline_s:.1f}s) and was stopped",
                    kind="timeout",
                    dump={position: {
                        "rank": position, "pid": pid, "op": "(outside comm)",
                        "tag": None, "pending": [],
                        "blocked_s": round(self.parent_deadline_s, 3),
                    }},
                ).with_context(rank=position, pid=pid)

        results: list[Any] = [None] * self.nprocs
        stats_rows = []
        for position in sorted(done):
            value, stats = done[position]
            if position not in failures:
                results[position] = launcher.load(value)
            if stats is not None:
                stats_rows.append(stats)
        if tracker is not None:
            for grank in sorted(self.events):
                tracker.extend(launcher.load(self.events[grank]))

        if isinstance(world_info, dict):
            world_info.update(launcher.world_stats(stats_rows, swept))
            if self.heal is not None:
                world_info["heal_epochs"] = self.decision.epoch
                world_info["heal_swept_segments"] = self.heal_swept

        if failures:
            genuine = {
                r: e for r, e in failures.items() if not isinstance(e, CommError)
            }
            raise SpmdError(genuine or failures)
        return results


class ThreadLauncher:
    """Ranks as threads of this process; everything by reference.

    Queues are :class:`queue.SimpleQueue` and the abort flag a
    :class:`threading.Event`.  Each worker thread posts ``("exit",
    grank)`` as its last act, which is how the supervisor wakes on a
    worker exit.
    """

    def start(self, sup: _Supervisor, world_info) -> None:
        self.inboxes = [queue.SimpleQueue() for _ in range(sup.total)]
        self.results = queue.SimpleQueue()
        self.failed = threading.Event()
        self.exitcodes: dict[int, int] = {}
        self.exited: list[int] = []
        self.threads = {}
        for g in range(sup.total):
            role = ("rank" if g < sup.nprocs
                    else "spare" if g < sup.nprocs + len(sup.parked)
                    else "respawn")
            self.threads[g] = threading.Thread(
                target=self._main, args=(sup, g), name=f"simmpi-{role}-{g}",
                daemon=True,
            )
        for t in self.threads.values():
            t.start()

    def _main(self, sup: _Supervisor, grank: int) -> None:
        ok = False
        try:
            ok = sup.rank_main(grank)
        finally:
            self.exitcodes[grank] = 0 if ok else 1
            self.results.put(("exit", grank))

    def rank_world(self, grank: int, sup: _Supervisor) -> RankWorld:
        return RankWorld(
            grank, self.inboxes, self.results, self.failed, RefTransport(),
            timeout=sup.timeout, checksums=sup.checksums, injector=sup.injector,
        )

    # supervisor side ------------------------------------------------ #

    def poll(self, timeout: float):
        """Next message, or ``None`` once the queue is empty (after up
        to ``timeout`` seconds, or at once when a worker exited)."""
        try:
            msg = self.results.get(timeout=timeout)
            while msg[0] == "exit":
                self.exited.append(msg[1])
                msg = self.results.get_nowait()
        except queue.Empty:
            return None
        return msg

    def reap(self) -> list[int]:
        exited, self.exited = self.exited, []
        for g in exited:
            self.threads[g].join()
        return exited

    def exit_status(self, grank: int):
        return os.getpid(), self.exitcodes.get(grank), None

    def sweep_rank(self, grank: int) -> int:
        return 0

    def teardown(self) -> int:
        """Release every thread: parked ones see the abort flag, blocked
        ones are woken, and all are joined."""
        alive = [t for t in self.threads.values() if t.is_alive()]
        if alive:
            self.failed.set()
            for inbox in self.inboxes:
                inbox.put(("ctl", "wake"))
        for t in alive:
            t.join()
        return 0

    def world_stats(self, rows, swept: int) -> dict:
        return {"world": "threads", "transport": None}

    # payload codec: by reference ------------------------------------ #

    @staticmethod
    def dump(obj):
        return obj

    load = dump

    @staticmethod
    def dump_exc(rank: int, exc: BaseException):
        return exc

    @staticmethod
    def fault_report(injector):
        return None  # ranks share the caller's injector
