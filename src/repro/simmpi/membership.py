"""Membership, failure agreement and grid repair for the simulated MPI.

This is the ULFM-style survivor side of a rank crash.  When healing is
enabled the supervisor (:func:`repro.simmpi.engine.run_spmd`) owns the
authoritative membership and every rank carries a
:class:`RankMembership` view of it:

1. A rank's death (a crash reported by the rank, or a worker that exited
   without a result) makes the supervisor bump the revoke epoch and ship
   ``("ctl", "revoke", epoch)`` to the survivors, revoking every
   communicator of older epochs.
2. Survivors observe the revocation as
   :class:`~repro.errors.RankRevokedError` at their next operation entry
   or inside the wait they are blocked in, and call
   :meth:`RankMembership.agree`, which votes through the supervisor's
   queue.
3. The agreement is deterministic: once every surviving holder of the
   latest decision has voted, the supervisor computes the new
   :class:`HealDecision` with :func:`compute_decision` — replacing each
   dead grid position either with a parked **spare** rank
   (``mode="spare"``) or with a pre-started **respawn** rank
   oversubscribed onto the lowest surviving host (``mode="shrink"``, the
   ULFM shrink-then-respawn strategy) — and publishes it as
   ``("ctl", "decision", ...)``.
4. All participants (survivors, promoted spares, respawns) re-enter the
   run from the decision's ``restart_batch`` on epoch-``e``
   communicators (see :mod:`repro.resilience.heal`).

The logical 3D grid is deliberately **preserved** in both modes: partial
floating-point reductions do not compose across grid geometries, so a
geometric shrink could not stay bit-identical to the fault-free run.
``mode="shrink"`` therefore shrinks the *host pool*, not the grid.
"""

from __future__ import annotations

import os
import time

from ..errors import CommError, HealError
from .comm import SimComm


class HealDecision:
    """One published agreement outcome.

    ``members`` maps grid position -> global rank holding it.  ``hosts``
    maps grid position -> host id (initially its own position; a
    respawned position is oversubscribed onto a survivor's host).
    ``mode`` is ``"initial"``, ``"spare"``, ``"shrink"`` or ``"failed"``.
    """

    __slots__ = ("epoch", "members", "restart_batch", "mode", "dead",
                 "promoted", "hosts", "reason")

    def __init__(self, epoch, members, restart_batch, mode, dead=(),
                 promoted=None, hosts=None, reason=""):
        self.epoch = int(epoch)
        self.members = tuple(members)
        self.restart_batch = int(restart_batch)
        self.mode = mode
        self.dead = tuple(dead)                    # ((position, global_rank), ...)
        self.promoted = dict(promoted or {})       # global rank -> position
        self.hosts = dict(hosts or {})             # position -> host id
        self.reason = reason

    def describe(self) -> dict:
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "restart_batch": self.restart_batch,
            "dead": [{"position": p, "rank": g} for p, g in self.dead],
            "promoted": {int(g): int(p) for g, p in self.promoted.items()},
            "hosts": {int(p): int(h) for p, h in self.hosts.items()},
        }


def epoch_comm(world, decision: HealDecision, position: int) -> SimComm:
    """World communicator of ``decision``'s epoch for one grid position."""
    epoch = decision.epoch
    comm_id = ("world",) if epoch == 0 else ("world", "epoch", epoch)
    return SimComm(world, comm_id, decision.members, position, epoch=epoch)


def compute_decision(
    epoch: int,
    prev: HealDecision,
    dead: set,
    mode: str,
    restart_batch: int,
    *,
    parked: list,
    alloc_rank,
    max_rounds: int,
) -> HealDecision:
    """Deterministic repair of ``prev``'s grid for revoke ``epoch``.

    The pure half of the agreement protocol: the supervisor computes it
    once every survivor's vote has arrived.  ``parked`` is the mutable
    spare-rank pool (popped in park order); ``alloc_rank()`` takes a
    global rank from the pre-started respawn pool for a shrink respawn.
    A non-repairable grid yields a ``mode="failed"`` decision.
    """
    def failed(reason: str) -> HealDecision:
        return HealDecision(
            epoch, prev.members, prev.restart_batch, "failed", reason=reason,
        )

    if epoch > max_rounds:
        return failed(f"heal round budget exhausted ({max_rounds})")
    members = list(prev.members)
    hosts = dict(prev.hosts)
    dead_positions = [(p, g) for p, g in enumerate(members) if g in dead]
    promoted: dict[int, int] = {}
    for position, _ in dead_positions:
        if mode == "spare":
            if not parked:
                return failed(
                    f"no spare rank left for grid position {position}"
                )
            spare = parked.pop(0)
            members[position] = spare
            promoted[spare] = position
            hosts[position] = spare  # the spare brings its own host
        else:  # shrink: respawn on the lowest surviving host
            alive_hosts = [hosts[q] for q, m in enumerate(members)
                           if m not in dead and q != position]
            if not alive_hosts:
                return failed("no surviving host to respawn onto")
            fresh = alloc_rank()
            members[position] = fresh
            promoted[fresh] = position
            hosts[position] = min(alive_hosts)
    return HealDecision(
        epoch, members, restart_batch, mode,
        dead=dead_positions, promoted=promoted, hosts=hosts,
    )


class RankMembership:
    """One rank's half of the heal agreement.

    Presents the surface :class:`~repro.resilience.heal.HealingBody`
    uses — ``register_body`` / ``current_decision`` / ``agree`` — while
    the agreement itself is supervisor-coordinated: votes travel up the
    results queue, the supervisor computes the :class:`HealDecision`
    once every survivor of the previous decision has voted, and the
    decision comes back as a ``("ctl", "decision", ...)`` item.
    Determinism is preserved: the decision depends only on the fault
    plan and the checkpointed prefix, never on vote arrival order.
    """

    def __init__(self, world, nprocs: int, first_batch: int,
                 mode: str) -> None:
        self.world = world
        self.mode = mode
        self.decisions: dict[int, HealDecision] = {
            0: HealDecision(0, tuple(range(nprocs)), int(first_batch),
                            "initial", hosts={p: p for p in range(nprocs)})
        }
        self.latest = 0
        self.body = None

    def register_body(self, body) -> None:
        """First caller wins; all positions run the same SPMD body."""
        if self.body is None:
            self.body = body

    def current_decision(self) -> HealDecision:
        return self.decisions[self.latest]

    def receive(self, decision: HealDecision) -> None:
        """A decision arrived from the supervisor (demux path)."""
        self.decisions[decision.epoch] = decision
        if decision.epoch > self.latest:
            self.latest = decision.epoch
        # a decision implies its revocation (promoted spares never saw
        # the revoke ctl — they were parked outside the member set)
        if decision.epoch > self.world.revoke_epoch:
            self.world.revoke_epoch = decision.epoch

    def assignment(self, global_rank: int):
        """Position this parked rank was promoted into, if any."""
        decision = self.decisions[self.latest]
        position = decision.promoted.get(global_rank)
        if position is None:
            return None
        return position, decision

    def agree(self, global_rank: int) -> HealDecision:
        """Vote for the observed revoke epoch; adopt the supervisor's
        decision.  Re-votes when a further death advances the epoch
        mid-wait.  Raises :class:`~repro.errors.HealError` when the heal
        cannot proceed (capacity, round budget, agreement timeout)."""
        rt = self.world
        deadline = time.monotonic() + rt.timeout
        voted = -1
        while True:
            if rt.failed.is_set():
                raise CommError("heal agreement aborted: a peer rank failed")
            rt.check_hang_notice("agree")
            epoch = rt.revoke_epoch
            if self.latest >= epoch:
                decision = self.decisions[self.latest]
                rt.epoch_reset(decision.epoch)
                if decision.mode == "failed":
                    raise HealError(decision.reason).with_context(
                        rank=global_rank, epoch=decision.epoch,
                    )
                return decision
            if voted < epoch:
                rt.results.put(("vote", global_rank, epoch))
                voted = epoch
            if rt.pump():
                continue
            if time.monotonic() >= deadline:
                rt.failed.set()
                raise HealError(
                    f"heal agreement for epoch {epoch} timed out after "
                    f"{rt.timeout:g}s waiting for the supervisor's decision"
                ).with_context(
                    rank=global_rank, epoch=epoch, pid=os.getpid(),
                )
