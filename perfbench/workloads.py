"""The benchmark's workloads: inputs drawn from a seed, one user-level call,
and the scipy oracle every product is checked against.

Each workload is a closed loop driven by ``run.py``: one caller makes one
call at a time and starts the next only after the previous one returns.
The program under test receives only the generated matrices.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.data.datasets import load_dataset
from repro.data.generators import kmer_matrix, protein_similarity, rmat
from repro.plan import ExecSpec
from repro.sparse.matrix import SparseMatrix
from repro.sparse.ops import random_symmetric_permutation, transpose
from repro.sparse.spgemm.symbolic import symbolic_flops
from repro.summa import auto_config, run_plan

#: products are checked for an identical pattern and for values within
#: this relative tolerance of the scipy oracle.  All inputs are positive,
#: so no sum cancels and summation order moves a value by a few ulps only.
REL_TOL = 1e-10

#: a call that takes longer than this counts as timed out (failed).
CALL_TIMEOUT_S = 60.0

SHM_DIR = "/dev/shm"


@dataclass
class Inputs:
    """One workload instance: the operands, the oracle and its statistics."""

    a: SparseMatrix
    b: SparseMatrix
    ref: sp.csc_matrix
    flops: int
    size: str
    generate_s: float

    def stats(self) -> dict:
        return {
            "shape_a": list(self.a.shape),
            "shape_b": list(self.b.shape),
            "nnz_a": self.a.nnz,
            "nnz_b": self.b.nnz,
            "nnz_c": int(self.ref.nnz),
            "flops": self.flops,
        }


@dataclass
class Outcome:
    """What one call produced.  ``wall_s`` excludes every oracle check."""

    wall_s: float
    ok: bool
    error: str | None = None
    result: object = None
    auto_config_s: float = 0.0
    run_plan_s: float = 0.0
    run_plan_window: tuple = (0.0, 0.0)
    plan: object = None
    leaked: list = field(default_factory=list)


def to_scipy(m: SparseMatrix) -> sp.csc_matrix:
    return sp.csc_matrix((m.values, m.rowidx, m.indptr), shape=m.shape)


def matches(m: SparseMatrix, ref: sp.csc_matrix, c0: int = 0, c1: int | None = None) -> bool:
    """Whether columns ``[c0, c1)`` of ``m`` equal the oracle's: same shape,
    same sorted row pattern, values within :data:`REL_TOL`."""
    if m is None or m.shape != ref.shape:
        return False
    c1 = m.ncols if c1 is None else c1
    p0, p1 = int(m.indptr[c0]), int(m.indptr[c1])
    q0, q1 = int(ref.indptr[c0]), int(ref.indptr[c1])
    return bool(
        m.sorted_within_columns
        and np.array_equal(m.indptr[c0:c1 + 1] - p0, ref.indptr[c0:c1 + 1] - q0)
        and np.array_equal(m.rowidx[p0:p1], ref.indices[q0:q1])
        and np.allclose(m.values[p0:p1], ref.data[q0:q1], rtol=REL_TOL, atol=0.0)
    )


def shm_segments() -> set[str]:
    """This process's ``repro-*`` shared-memory segments still on disk."""
    if not os.path.isdir(SHM_DIR):
        return set()
    prefix = f"repro-{os.getpid()}-"
    return {f for f in os.listdir(SHM_DIR) if f.startswith(prefix)}


def make_inputs(workload: "Workload", seed: int, size: str) -> Inputs:
    """Generate the operands and compute the oracle product once."""
    t0 = time.perf_counter()
    a, b = workload.operands(seed, size)
    generate_s = time.perf_counter() - t0
    ref = (to_scipy(a) @ to_scipy(b)).tocsc()
    ref.sort_indices()
    return Inputs(
        a=a, b=b, ref=ref, flops=symbolic_flops(a, b), size=size,
        generate_s=generate_s,
    )


class Workload:
    name: str = ""
    world: str = "threads"

    def operands(self, seed: int, size: str) -> tuple[SparseMatrix, SparseMatrix]:
        raise NotImplementedError

    def call(self, inp: Inputs) -> Outcome:
        raise NotImplementedError

    def checked(self, inp: Inputs) -> Outcome:
        """One call with its failure accounting: raised, timed out, wrong
        product or leaked shared-memory segments all make ``ok`` false."""
        before = shm_segments() if self.world == "processes" else set()
        try:
            out = self.call(inp)
        except Exception as exc:  # a failed call is a measurement, not a crash
            return Outcome(wall_s=0.0, ok=False, error=f"{type(exc).__name__}: {exc}")
        if out.wall_s > CALL_TIMEOUT_S:
            out.ok, out.error = False, f"timed out after {out.wall_s:.1f} s"
        if self.world == "processes":
            out.leaked = sorted(shm_segments() - before)
            if out.leaked:
                out.ok, out.error = False, f"leaked {len(out.leaked)} shm segments"
        return out


class ExplicitPlan(Workload):
    """One ``run_plan`` call on a fixed grid and batch count, output kept."""

    nprocs = layers = batches = 1

    def call(self, inp):
        spec = ExecSpec(
            nprocs=self.nprocs, layers=self.layers, batches=self.batches,
            world=self.world,
        )
        t0 = time.perf_counter()
        res = run_plan(inp.a, inp.b, spec)
        wall = time.perf_counter() - t0
        return Outcome(
            wall_s=wall, ok=matches(res.matrix, inp.ref), result=res,
            run_plan_s=wall, run_plan_window=(t0, t0 + wall),
        )


class RmatSquare(ExplicitPlan):
    """R-MAT squared (ROADMAP's reference workload)."""

    name = "rmat-square"
    nprocs, layers, batches = 4, 4, 1

    def operands(self, seed, size):
        scale, edge_factor = (12, 8) if size == "full" else (7, 4)
        a = rmat(scale, edge_factor=edge_factor, seed=seed)
        return a, a


class ProteinStream(Workload):
    """Budget-planned, streamed squaring of a protein-similarity network."""

    name = "protein-stream"
    nprocs = 4
    #: aggregate memory budget: 4 MB forces l=4 and b of about 16 on the
    #: full instance, 200 kB gives l=4 and b=5 on the tiny one.
    budgets = {"full": 4_000_000, "tiny": 200_000}

    def operands(self, seed, size):
        # The dataset's canonical instance (seed 0), relabelled by a random
        # permutation drawn from the seed, as HipMCL permutes its input for
        # load balance.  Relabelling keeps the work (nnz, flops) fixed across
        # seeds; drawing the instance itself from the seed does not, because
        # the generator's power-law cluster sizes swing flops by 3.7x.
        if size == "full":
            a = load_dataset("isolates").generate(0)
        else:
            a = protein_similarity(240, intra_density=0.5, noise_degree=1.5, seed=0)
        a, _ = random_symmetric_permutation(a, seed)
        return a, a

    def call(self, inp):
        ref, ncols = inp.ref, inp.b.ncols
        seen = np.zeros(ncols, dtype=np.int64)
        state = {"ok": True, "check_s": 0.0}

        def consume(batch, spans, batch_matrix):
            # checks each streamed batch against its column slice of the
            # oracle, then drops it; the check's own time is not counted
            c0_t = time.perf_counter()
            ok = batch_matrix.shape == ref.shape
            covered = 0
            for c0, c1 in spans:
                ok = ok and matches(batch_matrix, ref, c0, c1)
                seen[c0:c1] += 1
                covered += int(batch_matrix.indptr[c1] - batch_matrix.indptr[c0])
            state["ok"] = state["ok"] and ok and covered == batch_matrix.nnz
            state["check_s"] += time.perf_counter() - c0_t

        t0 = time.perf_counter()
        plan = auto_config(inp.a, inp.b, self.nprocs, memory_budget=self.budgets[inp.size])
        t1 = time.perf_counter()
        res = run_plan(
            inp.a, inp.b, plan.with_spec(keep_output=False, world=self.world),
            on_batch=consume,
        )
        t2 = time.perf_counter()
        ok = state["ok"] and res.matrix is None and bool(np.all(seen == 1))
        return Outcome(
            wall_s=(t2 - t0) - state["check_s"], ok=ok, result=res, plan=plan,
            auto_config_s=t1 - t0, run_plan_s=(t2 - t1) - state["check_s"],
            run_plan_window=(t1, t2),
        )


class KmerAatProcesses(ExplicitPlan):
    """Rectangular A·Aᵀ across the process boundary."""

    name = "kmer-aat-processes"
    world = "processes"
    nprocs, layers, batches = 4, 1, 2

    def operands(self, seed, size):
        if size == "full":
            return load_dataset("metaclust20m").operands(seed)
        a = kmer_matrix(80, 400, kmers_per_seq=25.0, zipf_exponent=1.4, seed=seed)
        return a, transpose(a)


WORKLOADS = {w.name: w for w in (RmatSquare(), ProteinStream(), KmerAatProcesses())}
