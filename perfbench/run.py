#!/usr/bin/env python3
"""SpGEMM benchmark: end-to-end and per-layer metrics of BatchedSUMMA3D.

Run from the repository root::

    python3 perfbench/run.py --workload rmat-square --seed 1 --seconds 30 --trace 0

Set-up (input generation, the scipy oracle and one warm-up call) runs
three times and ``setup_s`` is its median.  Then one caller makes one
call at a time for ``--seconds`` seconds; every product is checked
against the oracle outside the timed window.  With ``--trace 0`` the
last stdout line is a JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer
metric instead, from a run that makes untraced calls for a quarter of
``--seconds`` (so the tracing overhead can be taken), traced calls for
another quarter, and then times the in-rank layers on their own.
``--out FILE`` appends the full run record (context, input statistics,
exact counts, samples) as one JSON line, the input of
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: timed calls are made until both ``--seconds`` have passed and this many
#: calls ran, so the tail percentile always has ten samples beyond it
MIN_CALLS = 11
#: the traced run gives each of its two loops a quarter of ``--seconds``
#: and at least this many calls, leaving time for the layer microbenchmarks
MIN_TRACED_CALLS = 3


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``."""
    s = sorted(values)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def peak_rss_bytes() -> int:
    """Peak RSS of this process plus that of its largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) * 1024


def stop_children() -> None:
    """Stop and reap every process this run started.

    The processes world forks its ranks through :mod:`multiprocessing` and
    starts the shared-memory resource tracker, a daemon that would
    otherwise outlive the benchmark until it notices the closed pipe.
    Ranks are joined by the program; anything still alive is terminated
    here, and the tracker is stopped and waited for."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the benchmark's own test")
    p.add_argument("--out", help="append the full run record to this JSON-lines file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy
    import scipy

    import layers
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    attempted = failed = 0
    errors: list[str] = []

    def run(probed: bool):
        """One checked call, with its layer metrics when ``probed``."""
        nonlocal attempted, failed
        attempted += 1
        if probed:
            with layers.Probe() as probe:
                out = w.checked(inp)
        else:
            out = w.checked(inp)
        if not out.ok:
            failed += 1
            errors.append(out.error or "wrong product")
            return out, None
        return out, layers.call_layers(out, probe) if probed else None

    def closed_loop(seconds: float, min_calls: int, probed: bool = False):
        """Calls until both ``seconds`` passed and ``min_calls`` calls ran.
        Returns ``(wall_s, layer metrics)`` of each successful call and the
        last successful outcome; earlier products are dropped as they come."""
        done, last, calls = [], None, 0
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or calls < min_calls:
            calls += 1
            out, layer = run(probed)
            if out.ok:
                done.append((out.wall_s, layer))
                last = out
        if last is None:
            raise SystemExit(f"perfbench: every call failed: {sorted(set(errors))[:3]}")
        return done, last

    # -- set-up: everything before the first timed call ------------------
    setup_s, generate_s = [], []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        inp = make_inputs(w, args.seed, args.size)
        run(probed=False)
        setup_s.append(time.perf_counter() - t0)
        generate_s.append(inp.generate_s)

    # -- closed loop ------------------------------------------------------
    if args.trace:
        plain, last = closed_loop(args.seconds / 4, MIN_TRACED_CALLS)
    else:
        plain, last = closed_loop(args.seconds, MIN_CALLS)
    timed = [wall for wall, _ in plain]
    counts = {
        "comm_bytes": last.result.tracker.total_bytes(),
        "peak_rank_bytes": last.result.max_local_bytes,
    }
    p50 = statistics.median(timed)
    tail_s, tail_pct, n = tail(timed)
    if args.trace:
        traced, last = closed_loop(args.seconds / 4, MIN_TRACED_CALLS, probed=True)
        values = median_of([dict(layer, wall_s=wall) for wall, layer in traced])
        values["trace.overhead_s"] = values.pop("wall_s") - p50
        values["data.generate_s"] = statistics.median(generate_s)
        values.update(layers.microbench(inp, last.result, w.world))
        counts.update({k: v for k, v in values.items()
                       if k.startswith(("comm.", "mem.", "kernel.flops", "kernel.nnz"))})
        declared = spec["per_layer"]
    else:
        values = {
            "multiply_s_p50": p50,
            "multiply_s_tail": tail_s,
            "flops_per_s": inp.flops / p50,
            "setup_s": statistics.median(setup_s),
            "peak_rank_bytes": counts["peak_rank_bytes"],
            "peak_rss_bytes": peak_rss_bytes(),
            "comm_bytes": counts["comm_bytes"],
            "ok_frac": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(names))}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    context = {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(src),
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "inputs": inp.stats(),
        "samples": n,
        "tail_percentile": tail_pct,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"# {w.name}  seed={args.seed}  trace={args.trace}  "
          f"calls={attempted} failed={failed}  tail=p{tail_pct:.0f} of {n}")
    print(f"# context {json.dumps(context)}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for err in sorted(set(errors)):
        print(f"# failure: {err}")
    if args.out:
        record = {"workload": w.name, "trace": args.trace, "seconds": args.seconds,
                  "context": context, "counts": counts, "samples_s": timed,
                  "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
