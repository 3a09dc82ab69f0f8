"""The benchmark's own test: every workload at a tiny size, end to end.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import tail  # noqa: E402

WORKLOADS = ("rmat-square", "protein-stream", "kmer-aat-processes")

END_TO_END = {
    "multiply_s_p50": "s", "multiply_s_tail": "s", "flops_per_s": "1/s",
    "setup_s": "s", "peak_rank_bytes": "B", "peak_rss_bytes": "B",
    "comm_bytes": "B", "ok_frac": "ratio",
}
STEPS = ("Symbolic", "Comm-Plan", "A-Broadcast", "B-Broadcast", "Local-Multiply",
         "Merge-Layer", "AllToAll-Fiber", "Merge-Fiber")
COMM_STEPS = ("Symbolic", "Comm-Plan", "A-Broadcast", "B-Broadcast", "AllToAll-Fiber")
PER_LAYER = {
    "planner.auto_config_s": "s", "planner.candidates": "count",
    "symbolic.symbolic3d_s": "s", "symbolic.symbolic_nnz_s": "s",
    "sparse.validate_s": "s", "grid.gather_tiles_s": "s", "grid.extract_tiles_s": "s",
    "summa.run_plan_s": "s", "summa.spmd_s": "s", "summa.parent_s": "s",
    "summa.batches": "count",
    **{f"summa.step.{s}_s": "s" for s in STEPS},
    **{f"kernel.{s}.local_s": "s"
       for s in ("esc", "unsorted-hash", "sorted-heap", "hybrid", "spa")},
    "kernel.flops": "count", "kernel.nnz_out": "count",
    "merge.grouped_s": "s", "merge.hash_s": "s", "merge.heap_s": "s",
    **{f"comm.{s}.bytes": "B" for s in COMM_STEPS},
    **{f"comm.{s}.msgs": "count" for s in COMM_STEPS},
    "runtime.empty_spmd_s": "s", "mp.shm_segments": "count", "mp.shm_bytes": "B",
    "mp.naive_msgs": "count", "mp.naive_bytes": "B", "mp.shm_leaked": "count",
    **{f"mem.{c}.high_water": "B" for c in
       ("a_piece", "b_piece", "recv_buffer", "merge_scratch", "output_batch")},
    "mem.model_error": "ratio", "data.generate_s": "s",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def bench(cwd: Path, workload: str, trace: int, out: Path | None = None, seed: int = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """One untraced and two traced tiny runs of a workload, same seed."""
    out = tmp_path_factory.mktemp("runs") / "runs.jsonl"
    procs = [bench(ROOT, request.param, trace, out) for trace in (0, 1, 1)]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return procs, records


def test_last_line_is_the_result(runs):
    procs, _ = runs
    for proc in procs:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_metric_is_emitted_with_its_unit(runs):
    _, records = runs
    untraced, traced, _ = (r["result"]["metrics"] for r in records)
    assert {k: m["unit"] for k, m in untraced.items()} == END_TO_END
    assert {k: m["unit"] for k, m in traced.items()} == PER_LAYER
    assert untraced["ok_frac"]["value"] == 1.0


def test_exact_counts_repeat(runs):
    _, (untraced, traced, traced_again) = runs
    assert traced["counts"] == traced_again["counts"]
    for key in ("comm_bytes", "peak_rank_bytes"):
        assert untraced["counts"][key] == traced["counts"][key]
    metrics = untraced["result"]["metrics"]
    assert metrics["comm_bytes"]["value"] == untraced["counts"]["comm_bytes"]
    assert metrics["peak_rank_bytes"]["value"] == untraced["counts"]["peak_rank_bytes"]
    assert any(k.startswith("comm.") for k in traced["counts"])
    assert any(k.startswith("mem.") for k in traced["counts"])
    assert "kernel.flops" in traced["counts"]


def test_context_is_recorded(runs):
    _, records = runs
    ctx = records[0]["context"]
    for key in ("git_sha", "source_sha256", "seed", "python", "numpy", "scipy", "nproc"):
        assert key in ctx
    assert set(ctx["inputs"]) >= {"shape_a", "nnz_a", "nnz_c", "flops"}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "rmat-square", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def session_processes(sid: int) -> list[str]:
    """``pid: command`` of every process still in session ``sid``, zombies too."""
    left = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session ...
        comm, fields = stat[stat.index("(") + 1:stat.rindex(")")], stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            left.append(f"{entry.name}: {comm} ({fields[0]})")
    return left


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_processes_world_leaves_no_process_behind():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "kmer-aat-processes",
           "--seed", "1", "--seconds", "0.3", "--trace", "0", "--size", "tiny"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=170) == 0
    assert session_processes(proc.pid) == []


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    value, pct, n = tail(values)
    assert (value, n) == (29.0, 40) and sum(v > value for v in values) == 10
    assert pct == 75.0


def _record(seed, value):
    return {"trace": 0, "context": {"seed": seed},
            "result": {"metrics": {"t": {"value": value}}}}


def test_compare_verdicts():
    metric = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]
    old = {"w": [_record(s, 1.0 + 0.001 * s) for s in range(10)]}

    def verdict(new_values):
        new = {"w": [_record(s, v) for s, v in enumerate(new_values)]}
        (row,) = compare.compare(old, new, metric)
        return row["verdict"]

    assert verdict([0.8 + 0.001 * s for s in range(10)]) == "better"
    assert verdict([1.3 + 0.001 * s for s in range(10)]) == "worse"
    assert verdict([1.0 + 0.001 * s for s in range(10)]) == "unchanged"
    assert verdict([0.7, 1.5] * 5) == "unresolved"
