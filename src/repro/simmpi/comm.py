"""Simulated MPI communicators and the per-rank world they run on.

A :class:`SimComm` is one rank's handle on a communicator, mirroring the
mpi4py API surface the SUMMA algorithms need: ``barrier``, ``bcast``,
``allreduce``, ``allgather``, ``gather``, ``scatter``, ``alltoall``,
``alltoallv``, ``send``/``recv``/``isend``/``irecv``/``ibcast`` and
``split``.  Every rank — a thread or a forked process, see
:mod:`repro.simmpi.engine` — owns one :class:`RankWorld`: an inbox,
demultiplexing buffers, its tracker, step labels and ledger.  Messages
move between inboxes:

* generic collectives (:meth:`SimComm._exchange` — barrier, allgather,
  allreduce, gather, scatter, reduce, split) relay through the
  communicator's local rank 0, which assembles the contribution dict,
  fans it back out and is the one rank that meters the collective;
* ``bcast`` fans out directly from the root (metered at the root);
* ``alltoall`` / ``alltoallv`` send personalised payloads directly; a
  tiny unmetered size-row gather lets local rank 0 record the event;
* point-to-point messages travel per-(communicator, source) channels in
  send order, and a receive takes the earliest message bearing its tag —
  MPI's non-overtaking rule.

How a payload crosses is the world's *transport*: by reference between
threads (:class:`RefTransport`), shared memory or pickles between
processes (:mod:`repro.mp.transport`).  Ledger charging happens only in
:meth:`SimComm._deliver`, so a receive is charged once, to the receiver.

Determinism: reductions combine contributions in rank order.  Received
payloads are read-only (the process world's shm views enforce it; between
threads they are shared references, as real MPI buffers would be after a
receive).

Hang classification is two-tier.  A wait outlasting a short grace period
ships its record (op, pending peers, pid) to the supervisor, whose
watchdog assembles the wait-for graph, confirms a cycle that persists
for a whole watch period (or finds a pending peer that already returned)
and notifies one member with a ``("ctl", "hang", ...)`` item; that rank
raises the classified :class:`~repro.errors.HangError`.  A flat per-rank deadline stays as the
backstop (kind ``"timeout"``).  Healing revokes an epoch with
``("ctl", "revoke", epoch)``: blocked waits observe it and raise
:class:`~repro.errors.RankRevokedError`, and
:class:`~repro.simmpi.membership.RankMembership` adopts the supervisor's
decision, purging stale-epoch buffers on the way
(:meth:`RankWorld.epoch_reset`).
"""

from __future__ import annotations

import os
import queue as _queue
import time
from contextlib import contextmanager
from typing import Any

import numpy as np

from ..errors import CommError, CorruptPayloadError, HangError, RankRevokedError
from .serialization import (
    CHECKSUM_NBYTES,
    Envelope,
    payload_checksum,
    payload_nbytes,
    wrap_payload,
)
from .tracker import CommTracker

#: seconds a rank waits inside a collective before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: extra delivery attempts per message before a checksum mismatch becomes
#: a hard :class:`~repro.errors.CorruptPayloadError`.
MAX_REDELIVERIES = 3

_NOTHING = object()


def comm_epoch(comm_id: tuple) -> int:
    """Membership epoch a communicator id belongs to.

    Epoch-``e`` world communicators are ``("world", "epoch", e)`` and
    every derived communicator (split/dup) appends to its parent's id,
    so the epoch is recoverable from the prefix; ids not rooted in an
    epoch-tagged world communicator are epoch 0.
    """
    if len(comm_id) >= 3 and comm_id[0] == "world" and comm_id[1] == "epoch":
        return int(comm_id[2])
    return 0


def watch_period(timeout: float) -> float:
    """Watchdog period of a run with flat ``timeout``: how long a wait
    blocks before it ships its record (long enough to skip the fast path
    entirely), and how long a wait-for cycle must persist before the
    supervisor declares a deadlock."""
    return max(0.05, min(1.0, timeout / 40.0))


class RefTransport:
    """Payloads cross by reference: the thread world's wire is the object."""

    def encode(self, obj, receivers: int = 1):
        return obj

    def decode(self, wire):
        return wire

    def reap(self, wire) -> bool:
        return False

    def ack(self, names) -> None:
        pass

    def epoch_reset(self) -> None:
        pass

    def outstanding(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def abandon(self) -> None:
        pass

    def stats(self) -> None:
        return None


class RankWorld:
    """One rank's view of the run: inbox, buffers, transport, labels.

    Exposes the attribute surface :class:`SimComm` and the layers above
    it read — ``tracker`` (this rank's events, merged by the supervisor),
    ``timeout``, ``checksums``, ``injector``, ``membership`` /
    ``revoke_epoch``, ``failed`` (the shared abort event),
    ``step_label`` / ``backend_label`` / ``ledger``, ``heal_proxy`` and
    ``real_backoff`` (set by the process launcher: retries there really
    sleep, see :meth:`repro.resilience.retry.RetryPolicy.call`).
    """

    def __init__(self, rank: int, inboxes, results, failed, transport, *,
                 timeout: float, checksums: bool, injector=None) -> None:
        self.rank = int(rank)
        self.inboxes = inboxes
        self.inbox = inboxes[rank]
        #: the supervisor's message queue (results, votes, wait records).
        self.results = results
        self.failed = failed
        self.transport = transport
        self.tracker = CommTracker()
        self.timeout = float(timeout)
        self.checksums = bool(checksums)
        self.injector = injector
        self.membership = None
        self.revoke_epoch = 0
        self.step_label = ""
        self.backend_label = ""
        self.ledger = None
        #: stand-in for the driver's HealContext when it lives in another
        #: process; ``None`` means "call the driver's context directly".
        self.heal_proxy = None
        self.real_backoff = False
        #: latest heal decision epoch this rank adopted; older wires and
        #: buffers are stale and get reaped, not decoded.
        self.adopted_epoch = 0
        #: set by a ``("ctl", "finish")`` item (parks spares off).
        self.finish_flag = False
        #: classified hang shipped by the supervisor's watchdog, if any.
        self._hang_notice = None
        self._tick = max(0.005, min(0.2, self.timeout / 50.0))
        self._watch_grace = watch_period(self.timeout)
        self._heartbeats: dict[int, int] = {}
        # demux buffers
        self._msgs: dict[tuple, object] = {}
        self._multi: dict[tuple, dict] = {}
        self._p2p: dict[tuple, list] = {}
        self._seq: dict[tuple, int] = {}

    def heartbeat(self, global_rank: int) -> int:
        beat = self._heartbeats.get(global_rank, 0) + 1
        self._heartbeats[global_rank] = beat
        return beat

    # -------------------------------------------------------------- #
    # message plumbing
    # -------------------------------------------------------------- #

    def post(self, dest_global: int, item) -> None:
        self.inboxes[dest_global].put(item)

    def post_ack(self, creator_global: int, name: str) -> None:
        self.post(creator_global, ("ack", (name,)))

    def next_seq(self, comm_id: tuple, dest_global: int) -> int:
        key = (comm_id, dest_global)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _demux(self, item) -> None:
        kind = item[0]
        if kind == "ctl":
            self._handle_ctl(item)
            return
        if kind == "ack":
            self.transport.ack(item[1])
            return
        if self.membership is not None and comm_epoch(item[1]) < self.adopted_epoch:
            # stale wire from a revoked epoch: never decode it, but do
            # remove the segment it may point at — nobody else will.
            self.transport.reap(item[-1])
            return
        if kind in ("c", "a", "m"):
            _, comm_id, op_id, src, body = item
            self._multi.setdefault((comm_id, kind, op_id), {})[src] = body
        elif kind in ("r", "b"):
            _, comm_id, op_id, body = item
            self._msgs[(comm_id, kind, op_id)] = body
        elif kind == "p":
            _, comm_id, src_g, seq, tag, body = item
            self._p2p.setdefault((comm_id, src_g), []).append(
                (seq, tag, body)
            )
        else:
            raise CommError(f"rank {self.rank}: unknown wire item {kind!r}")

    def _handle_ctl(self, item) -> None:
        """Supervisor control items (healing, watchdog, wake-ups)."""
        what = item[1]
        if what == "revoke":
            epoch = int(item[2])
            if epoch > self.revoke_epoch:
                self.revoke_epoch = epoch
        elif what == "decision":
            if self.membership is not None:
                self.membership.receive(item[2])
        elif what == "hang":
            self._hang_notice = item[2:]
        elif what == "finish":
            self.finish_flag = True
        elif what != "wake":  # "wake" only interrupts a blocked get
            raise CommError(f"rank {self.rank}: unknown ctl item {what!r}")

    def check_hang_notice(self, op: str, since: float | None = None) -> None:
        """Raise the watchdog's classified hang, once received.

        The notice is bound to the wait it classified (its ``since``
        stamp): if this rank has already moved on — the awaited data
        raced in just as the peer exited — the notice is stale and is
        dropped; the supervisor re-arms when it sees the record replaced.
        """
        notice = self._hang_notice
        if notice is None:
            return
        self._hang_notice = None
        kind, cycle, dump, message, target_since = notice
        if since is None or since != target_since:
            return
        # the classified rank is the one that aborts the run
        self.failed.set()
        mine = dump.get(self.rank, {})
        raise HangError(message, kind=kind, cycle=cycle, dump=dump).with_context(
            rank=self.rank, pid=os.getpid(), op=op, peers=mine.get("pending"),
            tag=mine.get("tag"), comm=mine.get("comm"),
        )

    def drain(self) -> None:
        """Process everything currently queued, without blocking."""
        while True:
            try:
                item = self.inbox.get_nowait()
            except _queue.Empty:
                return
            self._demux(item)

    def pump(self) -> bool:
        """Demux one inbox item, blocking at most one tick; ``False``
        when none arrived."""
        try:
            item = self.inbox.get(timeout=self._tick)
        except _queue.Empty:
            return False
        self._demux(item)
        return True

    def epoch_reset(self, epoch: int) -> None:
        """Adopt heal ``epoch``: purge pre-``epoch`` buffers + segments.

        Selective, not wholesale — a fast survivor's new-epoch traffic
        can land in this inbox *before* this rank adopts the decision,
        and must survive the reset.  Each dropped wire's shared-memory
        segment is reaped here (the dead rank cannot).  Adopted mappings
        with live views are untouched: in-flight zero-copy receives stay
        valid.
        """
        if epoch <= self.adopted_epoch:
            return
        self.adopted_epoch = epoch
        reap = self.transport.reap
        for key in [k for k in self._msgs if comm_epoch(k[0]) < epoch]:
            reap(self._msgs.pop(key))
        for key in [k for k in self._multi if comm_epoch(k[0]) < epoch]:
            for wire in self._multi.pop(key).values():
                reap(wire)
        for key in [k for k in self._p2p if comm_epoch(k[0]) < epoch]:
            for _seq, _tag, wire in self._p2p.pop(key):
                reap(wire)
        for key in [k for k in self._seq if comm_epoch(k[0]) < epoch]:
            del self._seq[key]
        self.transport.epoch_reset()

    def _wait(self, ready, *, comm, op: str, pending, tag=None):
        """Pump the inbox until ``ready()`` returns something.

        ``ready`` returns :data:`_NOTHING` while unsatisfied; ``pending()``
        names the global ranks still owed (the wait-for edges).  Respects
        the shared abort event (raising :class:`CommError`, the cascade
        error the supervisor filters), epoch revocation
        (:class:`~repro.errors.RankRevokedError`, so a blocked survivor
        joins the heal agreement promptly), the watchdog's classified
        hang notices, and the flat per-rank timeout backstop.  A wait
        outlasting the grace period ships its record to the supervisor
        and re-ships it whenever its pending set shrinks, so a relay root
        never keeps an edge to a peer that has already contributed.
        """
        hit = ready()
        if hit is not _NOTHING:
            return hit
        comm._check_revoked()
        since = time.monotonic()
        self.check_hang_notice(op, since)
        deadline = since + self.timeout
        watch_at = since + self._watch_grace
        posted = None
        try:
            while True:
                if self.failed.is_set():
                    raise CommError(f"{op} aborted: a peer rank failed")
                got = self.pump()
                comm._check_revoked()
                self.check_hang_notice(op, since)
                if got:
                    hit = ready()
                    if hit is not _NOTHING:
                        return hit
                now = time.monotonic()
                if now >= watch_at:
                    pend = sorted(set(pending()))
                    if pend != posted:
                        self.results.put(("wait", self.rank, {
                            "rank": self.rank, "pid": os.getpid(), "op": op,
                            "comm": str(comm.comm_id), "tag": tag,
                            "op_id": None, "pending": pend, "since": since,
                            "heartbeat": self._heartbeats.get(self.rank, 0),
                        }))
                        posted = pend
                if not got and now >= deadline:
                    self.failed.set()
                    raise self._hang(comm, op, tag=tag, pending=pending())
        finally:
            if posted is not None:
                self.results.put(("endwait", self.rank))

    def _hang(self, comm, op: str, *, tag, pending) -> HangError:
        me = self.rank
        pid = os.getpid()
        pending = sorted(set(int(p) for p in pending))
        record = {
            "rank": me, "pid": pid, "op": op, "comm": str(comm.comm_id),
            "tag": tag, "op_id": None, "pending": pending,
            "blocked_s": round(self.timeout, 3),
            "heartbeat": self._heartbeats.get(me, 0),
        }
        message = (
            f"rank {me} (pid {pid}): {op} on {comm.comm_id} timed out after "
            f"{self.timeout:g}s waiting on rank(s) "
            f"{', '.join(str(p) for p in pending) or '?'}"
            "\n  (flat per-rank deadline backstop: the watchdog classified "
            "no deadlock or exited peer)"
            f"\n  rank {me}: {op} on {comm.comm_id}"
            + (f" tag {tag}" if tag is not None else "")
            + f" waiting on {pending} for {round(self.timeout, 3)}s "
            f"in pid {pid}"
        )
        return HangError(
            message, kind="timeout", cycle=(), dump={me: record}
        ).with_context(
            rank=me, pid=pid, op=op, peers=pending, tag=tag,
            comm=str(comm.comm_id),
        )

    # wait helpers used by SimComm --------------------------------- #

    def wait_msg(self, key: tuple, *, comm, op: str, source: int):
        return self._wait(lambda: self._msgs.pop(key, _NOTHING), comm=comm,
                          op=op, pending=lambda: (source,))

    def wait_multi(self, key: tuple, *, comm, op: str):
        """Wait until every other member of ``comm`` posted under
        ``key`` (keyed by local rank); returns ``{local rank: body}``."""
        need = comm.size - 1

        def ready():
            got = self._multi.get(key)
            if got is not None and len(got) >= need:
                return self._multi.pop(key)
            return _NOTHING

        def pending():
            got = self._multi.get(key, {})
            return (m for r, m in enumerate(comm.members)
                    if r != comm.rank and r not in got)

        return self._wait(ready, comm=comm, op=op, pending=pending)

    def match_p2p(self, channel: tuple, tag: int):
        """Pop the earliest buffered message on ``channel`` bearing
        ``tag`` (arrival order == send order: one queue per producer)."""
        entries = self._p2p.get(channel)
        if not entries:
            return _NOTHING
        for i, (_seq, mtag, body) in enumerate(entries):
            if mtag == tag:
                entries.pop(i)
                return body
        return _NOTHING

    # -------------------------------------------------------------- #
    # teardown
    # -------------------------------------------------------------- #

    def finish(self) -> None:
        """Drain outstanding segment acks, then close adopted handles.

        Runs after the SPMD body returned: every message this rank sent
        was matched, so each receiver will attach (and ack) as it drains
        its own queue — the wait below ends as soon as the slowest
        consumer of our broadcasts catches up.
        """
        transport = self.transport
        deadline = time.monotonic() + self.timeout
        while transport.outstanding():
            if self.pump():
                continue
            if self.failed.is_set() or time.monotonic() >= deadline:
                transport.abandon()
                break
        transport.close()

    def abandon(self) -> None:
        self.transport.abandon()


class SimComm:
    """One rank's communicator handle.

    Parameters
    ----------
    world:
        This rank's :class:`RankWorld`.
    comm_id:
        Hashable identity shared by all members (message keys use it).
    members:
        Global ranks belonging to this communicator, in local-rank order.
    rank:
        This process's local rank within the communicator.
    epoch:
        Membership epoch this communicator belongs to.  When the world's
        ``revoke_epoch`` advances past it (a member died and the heal
        layer revoked the old grid), every operation on this communicator
        raises :class:`~repro.errors.RankRevokedError`.
    """

    __slots__ = ("world", "comm_id", "members", "rank", "_opseq", "epoch")

    def __init__(self, world: RankWorld, comm_id: tuple,
                 members: tuple[int, ...], rank: int, epoch: int = 0):
        self.world = world
        self.comm_id = comm_id
        self.members = tuple(members)
        self.rank = int(rank)
        self._opseq = 0
        self.epoch = int(epoch)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def global_rank(self) -> int:
        return self.members[self.rank]

    def __repr__(self) -> str:
        return f"SimComm(id={self.comm_id}, rank={self.rank}/{self.size})"

    # ------------------------------------------------------------------ #
    # step labelling (feeds the tracker)
    # ------------------------------------------------------------------ #

    @contextmanager
    def step(self, label: str):
        """Label all communication inside the block for metering."""
        prev = self.world.step_label
        self.world.step_label = label
        try:
            yield
        finally:
            self.world.step_label = prev

    @contextmanager
    def backend_scope(self, label: str):
        """Tag all communication inside the block with a backend name
        (``"dense"`` / ``"sparse"``) so :meth:`CommTracker.by_backend`
        can compare how much each backend moved."""
        prev = self.world.backend_label
        self.world.backend_label = label
        try:
            yield
        finally:
            self.world.backend_label = prev

    # ------------------------------------------------------------------ #
    # the rendezvous primitive
    # ------------------------------------------------------------------ #

    def _next_op(self) -> int:
        op_id = self._opseq
        self._opseq += 1
        return op_id

    def _exchange(self, payload, op: str = "collective") -> tuple[dict[int, Any], bool]:
        """Contribute ``payload``; return (all contributions, metered_here).

        Relays through local rank 0, which assembles the contribution
        dict, fans it back out and is the one rank that meters the
        collective (``metered_here`` is True there only).
        """
        op_id = self._next_op()
        rt = self.world
        if self.rank == 0:
            contrib = {0: payload}
            if self.size > 1:
                wires = rt.wait_multi((self.comm_id, "c", op_id), comm=self, op=op)
                for src, wire in wires.items():
                    contrib[src] = rt.transport.decode(wire)
                wire_all = rt.transport.encode(contrib, receivers=self.size - 1)
                for dst in self.members[1:]:
                    rt.post(dst, ("r", self.comm_id, op_id, wire_all))
            return contrib, True
        rt.post(
            self.members[0],
            ("c", self.comm_id, op_id, self.rank,
             rt.transport.encode(payload, receivers=1)),
        )
        wire = rt.wait_msg((self.comm_id, "r", op_id), comm=self, op=op,
                           source=self.members[0])
        return rt.transport.decode(wire), False

    def _check_revoked(self) -> None:
        """Raise when the heal layer revoked this communicator's epoch."""
        world = self.world
        if world.membership is not None and world.revoke_epoch > self.epoch:
            raise RankRevokedError(
                f"rank {self.global_rank}: communicator {self.comm_id} "
                f"(epoch {self.epoch}) revoked at epoch {world.revoke_epoch}"
            ).with_context(
                rank=self.global_rank, comm=str(self.comm_id),
                epoch=self.epoch, revoke_epoch=world.revoke_epoch,
            )

    def _record(
        self,
        op: str,
        nbytes: int,
        total_bytes: int | None = None,
        comm_size: int | None = None,
    ) -> None:
        self.world.tracker.record(
            self.world.step_label,
            op,
            self.size if comm_size is None else comm_size,
            nbytes,
            total_bytes,
            backend=self.world.backend_label,
        )

    # ------------------------------------------------------------------ #
    # fault injection + per-message integrity
    # ------------------------------------------------------------------ #

    def _inject(self, op: str) -> None:
        """Operation-entry hook — inbox drain, heartbeat, revocation
        check, fault injection.  Draining first means a revocation
        already sitting in the inbox is observed here.  Runs before
        ``_opseq`` advances, so a raise leaves the operation perfectly
        retryable on this rank alone (peers just keep waiting)."""
        world = self.world
        world.drain()
        world.heartbeat(self.global_rank)
        self._check_revoked()
        injector = world.injector
        if injector is not None:
            injector.on_attempt(self.global_rank, op, world.step_label)

    def _wrap(self, obj):
        """Envelope ``obj`` with its checksum when integrity is on."""
        return wrap_payload(obj) if self.world.checksums else obj

    def _deliver(self, obj, op: str):
        """Unwrap a possibly-enveloped received payload for this rank.

        Each delivery passes through the injector (which may hand back a
        corrupted copy) and is verified against the envelope checksum; a
        mismatch meters a redelivery — the retransmission a real transport
        would perform — and tries again, up to :data:`MAX_REDELIVERIES`
        extra attempts.  The wire keeps the *original* payload, so
        redelivery always heals injected corruption."""
        ledger = self.world.ledger
        if ledger is not None:
            ledger.touch(
                "recv_buffer",
                payload_nbytes(obj.payload if isinstance(obj, Envelope) else obj),
            )
        if not isinstance(obj, Envelope):
            if self.world.injector is not None:
                return self.world.injector.on_delivery(
                    self.global_rank, op, obj, self.world.step_label
                )
            return obj
        injector = self.world.injector
        for attempt in range(1 + MAX_REDELIVERIES):
            payload = obj.payload
            if injector is not None:
                payload = injector.on_delivery(
                    self.global_rank, op, payload, self.world.step_label
                )
            if payload_checksum(payload) == obj.crc:
                return payload
            if attempt == MAX_REDELIVERIES:
                break
            # checksum mismatch: meter the point-to-point retransmission
            # and record the recovery event before redelivering
            nbytes = payload_nbytes(obj.payload) + CHECKSUM_NBYTES
            self._record("redelivery", nbytes, nbytes, comm_size=2)
            if injector is not None:
                injector.record_retry(
                    self.global_rank, op, self.world.step_label,
                    attempt + 1, 0.0, kind="redelivery",
                )
        raise CorruptPayloadError(
            f"rank {self.global_rank}: {op} payload failed checksum "
            f"{obj.crc:#010x} after {MAX_REDELIVERIES} redeliveries"
        ).with_context(
            rank=self.global_rank, op=op, step=self.world.step_label,
            comm=str(self.comm_id), crc=f"{obj.crc:#010x}",
            redeliveries=MAX_REDELIVERIES,
        )

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """Synchronise all members."""
        self._inject("barrier")
        _, last = self._exchange(None, "barrier")
        if last:
            self._record("barrier", 0, 0)

    def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from local rank ``root`` to all members."""
        self._check_root(root)
        self._inject("bcast")
        op_id = self._next_op()
        rt = self.world
        if self.rank == root:
            payload = self._wrap(obj)
            nbytes = payload_nbytes(payload)
            if self.size > 1:
                wire = rt.transport.encode(payload, receivers=self.size - 1)
                for dst in self.members:
                    if dst != self.global_rank:
                        rt.post(dst, ("b", self.comm_id, op_id, wire))
            self._record("bcast", nbytes, nbytes * max(self.size - 1, 0))
            return obj  # root keeps its own reference, like MPI_Bcast
        wire = rt.wait_msg((self.comm_id, "b", op_id), comm=self, op="bcast",
                           source=self.members[root])
        return self._deliver(rt.transport.decode(wire), "bcast")

    def allgather(self, obj) -> list:
        """Every member receives the list of all contributions (rank order)."""
        self._inject("allgather")
        contrib, last = self._exchange(obj, "allgather")
        if last:
            sizes = [payload_nbytes(v) for v in contrib.values()]
            self._record("allgather", max(sizes, default=0),
                         sum(sizes) * max(self.size - 1, 0))
        return [contrib[r] for r in range(self.size)]

    def gather(self, obj, root: int = 0) -> list | None:
        """Root receives the list of contributions; others get ``None``."""
        self._check_root(root)
        self._inject("gather")
        contrib, last = self._exchange(obj, "gather")
        if last:
            sizes = [payload_nbytes(v) for v in contrib.values()]
            self._record("gather", max(sizes, default=0), sum(sizes))
        if self.rank == root:
            return [contrib[r] for r in range(self.size)]
        return None

    def scatter(self, objs, root: int = 0):
        """Root provides a list of ``size`` payloads; member ``i`` gets the
        ``i``-th."""
        self._check_root(root)
        self._inject("scatter")
        if self.rank == root:
            objs = list(objs)
            if len(objs) != self.size:
                raise CommError(
                    f"scatter needs {self.size} payloads, got {len(objs)}"
                )
        contrib, last = self._exchange(objs if self.rank == root else None, "scatter")
        payloads = contrib[root]
        if last:
            sizes = [payload_nbytes(v) for v in payloads]
            self._record("scatter", max(sizes, default=0), sum(sizes))
        return payloads[self.rank]

    def allreduce(self, value, op: str = "sum"):
        """Reduce scalars or same-shape ndarrays across members.

        ``op`` is ``"sum"``, ``"max"`` or ``"min"``; combination is in rank
        order so floating-point results are deterministic.
        """
        self._inject("allreduce")
        contrib, last = self._exchange(value, "allreduce")
        if last:
            nbytes = payload_nbytes(value)
            self._record("allreduce", nbytes, nbytes * max(self.size - 1, 0))
        values = [contrib[r] for r in range(self.size)]
        return _reduce(values, op)

    def reduce(self, value, op: str = "sum", root: int = 0):
        """Like :meth:`allreduce` but only ``root`` receives the result."""
        self._check_root(root)
        self._inject("reduce")
        contrib, last = self._exchange(value, "reduce")
        if last:
            nbytes = payload_nbytes(value)
            self._record("gather", nbytes, nbytes * max(self.size - 1, 0))
        if self.rank != root:
            return None
        return _reduce([contrib[r] for r in range(self.size)], op)

    def alltoall(self, sendlist) -> list:
        """Personalised all-to-all: member ``i`` sends ``sendlist[j]`` to
        member ``j`` and receives a list indexed by source rank."""
        sendlist = list(sendlist)
        if len(sendlist) != self.size:
            raise CommError(
                f"alltoall needs {self.size} payloads, got {len(sendlist)}"
            )
        return self._direct_alltoall(sendlist, "alltoall")

    def alltoallv(self, sendlist, counts=None) -> list:
        """Variable-size personalised all-to-all (MPI_Alltoallv semantics).

        Two calling conventions:

        * ``alltoallv(sendlist)`` — like :meth:`alltoall`, ``sendlist[j]``
          is the (arbitrarily sized) payload for member ``j``; member
          ``i`` receives a list indexed by source rank.
        * ``alltoallv(flat, counts)`` — MPI-style: ``flat`` is a flat
          sequence of items and ``counts[j]`` says how many consecutive
          items go to member ``j`` (``sum(counts) == len(flat)``); member
          ``i`` receives a list of per-source item *lists*.

        Metering differs from :meth:`alltoall`: the per-process ``nbytes``
        is the *actual* maximum any member sends (not assumed uniform),
        and the event op is ``"alltoallv"`` so the α–β model can apply
        variable-size costs.
        """
        sendlist = _normalize_alltoallv(sendlist, counts, self.size)
        return self._direct_alltoall(sendlist, "alltoallv")

    def _direct_alltoall(self, sendlist, op: str) -> list:
        self._inject(op)
        op_id = self._next_op()
        rt = self.world
        wrapped = [self._wrap(x) for x in sendlist]
        sizes = [payload_nbytes(x) for x in wrapped]
        for dst in range(self.size):
            if dst != self.rank:
                rt.post(
                    self.members[dst],
                    ("a", self.comm_id, op_id, self.rank,
                     rt.transport.encode(wrapped[dst], receivers=1)),
                )
        # metering: local rank 0 gathers every rank's send-size row
        # (unmetered metadata) and records the event with the exact
        # per-rank max/sum figures.
        if self.rank == 0:
            rows = {0: sizes}
            if self.size > 1:
                rows.update(rt.wait_multi((self.comm_id, "m", op_id),
                                          comm=self, op=op))
            per_rank = [sum(rows[r]) for r in range(self.size)]
            self._record(op, max(per_rank, default=0), sum(per_rank))
        else:
            rt.post(self.members[0], ("m", self.comm_id, op_id, self.rank, sizes))
        out: list = [None] * self.size
        out[self.rank] = self._deliver(wrapped[self.rank], op)
        key = (self.comm_id, "a", op_id)
        for src in range(self.size):
            if src == self.rank:
                continue

            def ready(src=src):
                got = rt._multi.get(key)
                if got is not None and src in got:
                    return got.pop(src)
                return _NOTHING

            wire = rt._wait(ready, comm=self, op=op,
                            pending=lambda src=src: (self.members[src],))
            out[src] = self._deliver(rt.transport.decode(wire), op)
        if not rt._multi.get(key, True):
            del rt._multi[key]
        return out

    # ------------------------------------------------------------------ #
    # communicator management
    # ------------------------------------------------------------------ #

    def split(self, color: int, key: int | None = None) -> SimComm:
        """MPI_Comm_split: members sharing ``color`` form a new communicator,
        ordered by ``(key, old local rank)``."""
        if key is None:
            key = self.rank
        op_marker = self._opseq  # consistent across members (same program order)
        contrib, _ = self._exchange((int(color), int(key)), "split")
        mine = (int(color), int(key))
        group = sorted(
            (ck[1], r) for r, ck in contrib.items() if ck[0] == mine[0]
        )
        local_ranks = [r for _, r in group]
        members = tuple(self.members[r] for r in local_ranks)
        new_rank = local_ranks.index(self.rank)
        comm_id = (*self.comm_id, op_marker, mine[0])
        return SimComm(self.world, comm_id, members, new_rank, epoch=self.epoch)

    def dup(self) -> SimComm:
        """Duplicate the communicator (fresh collective sequence space)."""
        return self.split(0, self.rank)

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        """Nonblocking send.  The simulated send buffers immediately, so
        the request is born complete; the object models MPI semantics
        (communication/computation overlap) for algorithm structure."""
        self.send(obj, dest, tag)
        return Request(ready=True)

    def ibcast(self, obj, root: int = 0, tag: int = 0) -> Request:
        """Nonblocking broadcast built on the tag-matched point-to-point
        layer: the root fans ``obj`` out with :meth:`isend` (buffered, so
        its request is born complete and carries ``obj`` as its value);
        every other member gets an :meth:`irecv` request it can wait on
        after overlapped computation.

        Unlike :meth:`bcast` there is no rendezvous — the root returns
        immediately — so a stage's broadcast can be *issued* while the
        previous stage's multiply runs (software double-buffering).  The
        ``tag`` keeps concurrent in-flight broadcasts (e.g. stage ``s``
        and the prefetched stage ``s+1``) from matching each other's
        messages.

        Metering: the root's fan-out records ``size - 1`` individual
        ``send`` events of ``nbytes`` each — the same total bytes as one
        ``bcast`` event of ``nbytes * (size - 1)``.
        """
        self._check_root(root)
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.isend(obj, dest, tag)
            return Request(ready=True, value=obj)
        return self.irecv(root, tag)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive: returns a :class:`Request` whose
        :meth:`~Request.wait` yields the message and whose
        :meth:`~Request.test` probes without blocking.  The caller
        computes in between — the overlap pattern of pipelined
        algorithms.

        Matching follows MPI: messages between one (source, dest) pair
        are queued in send order, a receive takes the *earliest* message
        whose tag matches, and :meth:`~Request.test` claims the message
        atomically — two outstanding requests can never complete against
        the same message, and a ``test()`` never blocks.
        """
        return Request(
            wait_fn=lambda: self.recv(source, tag),
            try_fn=lambda: self._try_recv(source, tag),
        )

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Buffered send to local rank ``dest``."""
        self._check_root(dest, "dest")
        self._inject("send")
        payload = self._wrap(obj)
        rt = self.world
        dest_g = self.members[dest]
        rt.post(
            dest_g,
            ("p", self.comm_id, self.global_rank,
             rt.next_seq(self.comm_id, dest_g), int(tag),
             rt.transport.encode(payload, receivers=1)),
        )
        self._record("send", payload_nbytes(payload), comm_size=2)

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from local rank ``source``.

        Delivery is FIFO per (source, tag): among in-flight messages from
        ``source``, the earliest one bearing ``tag`` is taken; messages
        with other tags are left for their own receives (MPI tag
        matching).
        """
        self._check_root(source, "source")
        self._inject("recv")
        rt = self.world
        src_g = self.members[source]
        channel = (self.comm_id, src_g)
        wire = rt._wait(lambda: rt.match_p2p(channel, int(tag)), comm=self,
                        op="recv", tag=tag, pending=lambda: (src_g,))
        return self._deliver(rt.transport.decode(wire), "recv")

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        """Claim the earliest matching message if one has arrived;
        returns ``(claimed, obj_or_None)`` without blocking."""
        self._check_root(source, "source")
        rt = self.world
        rt.drain()
        body = rt.match_p2p((self.comm_id, self.members[source]), int(tag))
        if body is _NOTHING:
            return False, None
        return True, self._deliver(rt.transport.decode(body), "recv")

    # ------------------------------------------------------------------ #

    def _check_root(self, root: int, name: str = "root") -> None:
        if not 0 <= root < self.size:
            raise CommError(f"{name} {root} out of range [0, {self.size})")




class Request:
    """Handle for a nonblocking operation (mpi4py-style).

    ``wait()`` blocks until completion and returns the received object
    (``None`` for sends); ``test()`` returns ``(done, value_or_None)``
    and never blocks: it atomically claims the matching message via the
    communicator's ``_try_recv`` (a probe-then-receive pair would race
    with other requests on the same source and block inside ``test``).
    """

    __slots__ = ("_wait_fn", "_try_fn", "_done", "_value")

    def __init__(
        self, *, ready: bool = False, wait_fn=None, try_fn=None, value=None
    ) -> None:
        self._wait_fn = wait_fn
        self._try_fn = try_fn
        self._done = ready
        self._value = value

    def wait(self):
        if not self._done:
            if self._wait_fn is not None:
                self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> tuple[bool, object]:
        """Non-blocking completion check; completes the receive when the
        matching message has arrived."""
        if self._done:
            return True, self._value
        if self._try_fn is not None:
            claimed, value = self._try_fn()
            if claimed:
                self._done = True
                self._value = value
                return True, value
            return False, None
        return True, self.wait()


def _reduce(values: list, op: str):
    if not values:
        raise CommError("reduction over empty contribution set")
    first = values[0]
    if isinstance(first, np.ndarray):
        stack = np.stack(values)
        if op == "sum":
            return stack.sum(axis=0)
        if op == "max":
            return stack.max(axis=0)
        if op == "min":
            return stack.min(axis=0)
    else:
        if op == "sum":
            out = values[0]
            for v in values[1:]:
                out = out + v
            return out
        if op == "max":
            return max(values)
        if op == "min":
            return min(values)
    raise CommError(f"unknown reduction op {op!r}")


def _normalize_alltoallv(sendlist, counts, size: int) -> list:
    """Normalise the two ``alltoallv`` calling conventions to one
    per-destination payload list of length ``size``."""
    if counts is not None:
        counts = [int(c) for c in counts]
        if len(counts) != size:
            raise CommError(
                f"alltoallv needs {size} counts, got {len(counts)}"
            )
        flat = list(sendlist)
        if sum(counts) != len(flat):
            raise CommError(
                f"alltoallv counts sum to {sum(counts)} but "
                f"{len(flat)} items were supplied"
            )
        bounds = np.concatenate(([0], np.cumsum(counts)))
        return [
            flat[int(bounds[j]) : int(bounds[j + 1])] for j in range(size)
        ]
    sendlist = list(sendlist)
    if len(sendlist) != size:
        raise CommError(
            f"alltoallv needs {size} payloads, got {len(sendlist)}"
        )
    return sendlist
