"""Per-layer measurements for the traced run, all taken from outside the
program: by timing calls into each layer's public functions, and by
reading what a :class:`~repro.summa.SummaResult` already reports.

:class:`Probe` wraps public functions for the duration of the traced
calls; :func:`call_layers` turns one traced call into layer metrics;
:func:`microbench` times the layers that run inside the ranks on the
workload's own operands (the paper's Table VII view).
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

from repro.grid.distribution import extract_a_tile, extract_b_tile, gather_tiles
from repro.model.memory import predict_memory
from repro.simmpi.engine import run_spmd
from repro.sparse.matrix import SparseMatrix
from repro.sparse.merge import merge_grouped, merge_hash, merge_heap
from repro.sparse.spgemm import multiply, symbolic_flops, symbolic_nnz
from repro.summa import symbolic3d

#: the paper's SPMD steps plus the Comm-Plan prologue, as the tracer labels them
STEPS = (
    "Symbolic", "Comm-Plan", "A-Broadcast", "B-Broadcast", "Local-Multiply",
    "Merge-Layer", "AllToAll-Fiber", "Merge-Fiber",
)
COMM_STEPS = ("Symbolic", "Comm-Plan", "A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
MEM_CATEGORIES = ("a_piece", "b_piece", "recv_buffer", "merge_scratch", "output_batch")
SUITES = ("esc", "unsorted-hash", "sorted-heap", "hybrid", "spa")
MERGES = {"grouped": merge_grouped, "hash": merge_hash, "heap": merge_heap}
#: a budget no input reaches: symbolic3d then only reports the statistics
UNBOUNDED = 1 << 60
WORLD_COUNTS = ("shm_segments", "shm_bytes", "naive_msgs", "naive_bytes")


class Probe:
    """Times the calls the caller's thread makes into a set of public
    functions while installed: the parent-side share of each layer.

    A function is wrapped wherever a ``repro`` module holds a reference to
    it, so calls through ``from x import f`` names are timed too.  Calls
    made by rank threads (threads world) or rank processes (processes
    world) run inside the SPMD steps and are not recorded.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._caller = threading.get_ident()

    def _wrapper(self, label: str, fn, keep_result: bool):
        records, caller = self.records, self._caller

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != caller:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                records.append(
                    (label, t0, time.perf_counter(), out if keep_result else None)
                )

        return timed

    def wrap(self, label: str, fn, keep_result: bool = False) -> None:
        wrapper = self._wrapper(label, fn, keep_result)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, label: str, cls, attr: str) -> None:
        fn = cls.__dict__[attr]
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(label, fn, False))

    def __enter__(self) -> "Probe":
        self.wrap("symbolic3d", symbolic3d, keep_result=True)
        self.wrap("symbolic_nnz", symbolic_nnz)
        self.wrap("gather_tiles", gather_tiles)
        self.wrap_method("validate", SparseMatrix, "__init__")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def total(self, label: str) -> float:
        return sum(t1 - t0 for lab, t0, t1, _ in self.records if lab == label)

    def results(self, label: str) -> list:
        return [out for lab, _, _, out in self.records if lab == label and out is not None]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def call_layers(outcome, probe: Probe) -> dict:
    """Layer metrics of one traced call."""
    res = outcome.result
    plan = outcome.plan
    spans = [sp for tr in res.trace if tr is not None for sp in tr.spans]
    spmd_s = max(sp.t1 for sp in spans) - min(sp.t0 for sp in spans) if spans else 0.0
    lo, hi = outcome.run_plan_window
    seen = [(sp.t0, sp.t1) for sp in spans] + [(t0, t1) for _, t0, t1, _ in probe.records]
    m = {
        "planner.auto_config_s": outcome.auto_config_s,
        "planner.candidates": len(plan.candidates) if plan is not None else 0,
        "symbolic.symbolic3d_s": probe.total("symbolic3d"),
        "symbolic.symbolic_nnz_s": probe.total("symbolic_nnz"),
        "sparse.validate_s": probe.total("validate"),
        "grid.gather_tiles_s": probe.total("gather_tiles"),
        "summa.run_plan_s": outcome.run_plan_s,
        "summa.spmd_s": spmd_s,
        "summa.parent_s": outcome.run_plan_s - spmd_s,
        "summa.batches": res.batches,
        "trace.unaccounted_s": outcome.run_plan_s - covered(seen, lo, hi),
    }
    for step in STEPS:
        m[f"summa.step.{step}_s"] = res.step_times.get(step)
    # the planner's symbolic runs meter into their own trackers
    planner_trackers = [sym.tracker for sym in probe.results("symbolic3d")]
    for step in COMM_STEPS:
        trackers = [res.tracker] + (planner_trackers if step == "Symbolic" else [])
        m[f"comm.{step}.bytes"] = sum(t.total_bytes(step=step) for t in trackers)
        m[f"comm.{step}.msgs"] = sum(t.message_count(step=step) for t in trackers)
    memory = res.info.get("memory", {})
    for cat in MEM_CATEGORIES:
        m[f"mem.{cat}.high_water"] = memory.get("categories", {}).get(cat, {}).get("high_water", 0)
    world = res.info.get("world", {})
    for key in WORLD_COUNTS:
        m[f"mp.{key}"] = world.get(key, 0)
    m["mp.shm_leaked"] = len(outcome.leaked)
    return m


def _median_time(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _noop(comm):
    return None


def microbench(inp, result, world: str) -> dict:
    """Time the in-rank layers on the workload's operands and on the grid
    ``result`` ran on, and judge the memory model against ``result``.

    * Distribute: extracting every rank's A and B tile, summed over ranks.
    * Kernels: each suite's local multiply on rank 0's stage-0 operand pair.
    * Merges: each merge over every partial product that lands in rank 0's
      output block — one per (stage, layer), the inputs Merge-Layer and
      Merge-Fiber reduce between them.
    * Runtime: a ``run_spmd`` whose ranks do nothing, in the workload's world.
    * Memory model: the Table III prediction from the exact symbolic
      statistics, divided by the measured per-rank high-water mark.
    """
    a, b, grid = inp.a, inp.b, result.grid
    nprocs, layers = grid.nprocs, grid.layers

    def distribute():
        for rank in range(nprocs):
            extract_a_tile(a, grid, rank)
            extract_b_tile(b, grid, rank)

    m = {"grid.extract_tiles_s": _median_time(distribute, 3)[0]}
    ta, tb = extract_a_tile(a, grid, 0), extract_b_tile(b, grid, 0)
    product = None
    for suite in SUITES:
        m[f"kernel.{suite}.local_s"], product = _median_time(
            lambda s=suite: multiply(ta, tb, s), 1
        )
    m["kernel.flops"] = symbolic_flops(ta, tb)
    m["kernel.nnz_out"] = product.nnz
    partials = [
        multiply(
            extract_a_tile(a, grid, grid.rank_of(0, s, k)),
            extract_b_tile(b, grid, grid.rank_of(s, 0, k)),
        )
        for s in range(grid.pc)
        for k in range(layers)
    ]
    for name, fn in MERGES.items():
        m[f"merge.{name}_s"] = _median_time(lambda f=fn: f(partials), 1)[0]
    m["runtime.empty_spmd_s"] = _median_time(
        lambda: run_spmd(nprocs, _noop, world=world), 5
    )[0]
    sym = symbolic3d(a, b, nprocs, layers, memory_budget=UNBOUNDED)
    predicted = predict_memory(
        nprocs=nprocs, layers=layers, batches=result.batches,
        max_nnz_a=sym.max_nnz_a, max_nnz_b=sym.max_nnz_b, max_nnz_c=sym.max_nnz_c,
        nnz_c=inp.ref.nnz, keep_output=result.info["plan"]["spec"]["keep_output"],
    )
    m["mem.model_error"] = predicted["high_water_total"] / result.max_local_bytes
    return m
