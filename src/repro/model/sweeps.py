"""The Eq. (2) batch-requirement curve as a library function.

:func:`batch_requirement_sweep` produces the series behind
``benchmarks/bench_eq2_budget_curve.py`` — the batch count the paper's
closed form demands across a memory-budget sweep — as plain dicts, so a
script can regenerate it without going through pytest.
"""

from __future__ import annotations

from ..sparse.matrix import BYTES_PER_NONZERO
from .machine import CORI_KNL, MachineSpec
from .predictor import estimate_batches


def batch_requirement_sweep(
    *,
    machine: MachineSpec = CORI_KNL,
    nprocs: int,
    layers: int,
    memory_budgets,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    flops: int,
    bytes_per_nonzero: int = BYTES_PER_NONZERO,
) -> list[dict]:
    """Batch counts across a memory-budget sweep (the Eq. 2 curve)."""
    rows = []
    for budget in memory_budgets:
        try:
            batches = estimate_batches(
                memory_budget=budget,
                nprocs=nprocs,
                layers=layers,
                nnz_a=nnz_a,
                nnz_b=nnz_b,
                nnz_c=nnz_c,
                flops=flops,
                bytes_per_nonzero=bytes_per_nonzero,
            )
            rows.append({"memory_budget": budget, "batches": batches,
                         "feasible": True})
        except ValueError:
            rows.append({"memory_budget": budget, "batches": None,
                         "feasible": False})
    return rows
