"""The one supervisor behind both execution worlds.

``run_spmd`` drives thread ranks and forked process ranks through the
same coordinator loop; these cases pin behaviour that must not depend on
the world: spares are parked only when healing, and the loop wakes on a
worker's exit instead of sleeping out a poll interval.
"""

import threading
import time

import pytest

from repro.simmpi import engine, run_spmd

WORLDS = ("threads", "processes")


def _noop(comm):
    return comm.rank


def _sum_ranks(comm):
    return comm.allreduce(comm.rank) + comm.rank


@pytest.mark.parametrize("world", WORLDS)
def test_spares_without_healing_start_no_thread(world, monkeypatch):
    """``world_spares`` without ``heal`` has nothing to promote a spare
    into: no spare may start (or crash in a thread), and the per-rank
    results match a run without spares."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    plain = run_spmd(2, _sum_ranks, world=world)
    with_spare = run_spmd(2, _sum_ranks, world=world, world_spares=1)
    assert raised == []
    assert with_spare == plain == [1, 2]


@pytest.mark.parametrize("world", WORLDS)
def test_worker_exits_wake_the_supervisor(world, monkeypatch):
    """With the idle tick stretched to 10 s, an empty run still returns
    at once: every worker exit wakes the loop, no poll interval does."""
    monkeypatch.setattr(engine, "IDLE_TICK", 10.0)
    t0 = time.monotonic()
    assert run_spmd(4, _noop, world=world) == [0, 1, 2, 3]
    assert time.monotonic() - t0 < 2.0
