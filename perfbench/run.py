"""Run the repository benchmark: one workload, or all of them.

From the repository root::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a fresh interpreter (``workloads.py``), so no
process-global state of the program carries over from one workload,
or one traced pass, to the next.  With ``--trace 0`` the last line on
standard output is the result of the untraced run: correctness, the
counts of operations attempted and failed, and every end-to-end
metric with its unit.  With ``--trace 1`` the workload runs twice, untraced
and then traced, and the result holds the per-layer metrics of the
traced run plus the tracing overhead (traced minus untraced headline
time).  A human-readable report goes to standard error; the full
records, with the measured input properties, and the span dump go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("serve-open", "serve-ingest")
#: Wall-clock budget of one single-workload invocation, children included.
BUDGET_S = 175.0
#: BLAS runs on the calling thread.  The machine has two cores, shared by
#: the server thread and the load threads; BLAS worker threads that
#: spin while they wait would take them over and make latency depend
#: on how the operating system schedules them.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}
#: Self times must add up to wall time within this share (ROADMAP.md).
RECONCILE_TOLERANCE = 0.10


def _child(workload: str, seed: int, seconds: float, trace: int,
           deadline: float) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh interpreter; its parsed result or None."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **SINGLE_THREADED_BLAS})
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: unreadable result line {lines[-1]!r}", file=sys.stderr)
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> Optional[Dict[str, Any]]:
    """The result object of one workload, or None when a child failed."""
    plain = _child(workload, seed, seconds, 0, deadline)
    if plain is None:
        return None
    problems = list(plain["problems"])
    record: Dict[str, Any] = {"untraced": plain}
    workload_layers: Dict[str, Dict] = {}
    metrics = plain["metrics"]
    attempted, failed = plain["attempted"], plain["failed"]
    if trace:
        traced = _child(workload, seed, seconds, 1, deadline)
        if traced is None:
            return None
        record["traced"] = traced
        problems += [f"traced run: {p}" for p in traced["problems"]]
        metrics = dict(traced["layers"])
        workload_layers = traced["workload_layers"]
        overhead_ms = traced["headline"][1] - plain["headline"][1]
        metrics["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
        metrics["trace.overhead_frac"] = {
            "value": overhead_ms / plain["headline"][1], "unit": "ratio",
        }
        off = metrics["trace.unreconciled_frac"]["value"]
        if off > RECONCILE_TOLERANCE:
            problems.append(f"self times miss wall time by {off:.1%}")
        attempted, failed = traced["attempted"], traced["failed"]
    missing = manifest_mismatch(metrics, trace)
    if missing:
        print(f"{workload}: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return None
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    report(workload, metrics, workload_layers, problems, plain["inputs"])
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def manifest_mismatch(metrics: Dict[str, Dict], trace: int) -> List[str]:
    """Names whose presence or unit differs from BENCHMARK.json's list.

    Every workload must report every end-to-end metric of the manifest
    (``--trace 0``), or every per-layer metric (``--trace 1``).
    """
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


#: Figures every run records in its result file but does not gate
#: (README.md says why): (label, path into the run's inputs, unit).
RECORDED = (("fit_s (wall)", ("fit", "seconds"), "s"),
            ("score_rows_per_s (wall)", ("score", "rows_per_s"), "rows/s"),
            ("max_rps", ("max_rps",), "1/s"),
            ("p90_ms.r200", ("p90_ms.r200",), "ms"),
            ("p90_ms.r800", ("p90_ms.r800",), "ms"),
            ("served_auroc", ("served_auroc",), "auroc"),
            ("read p90_ms", ("p90_ms",), "ms"),
            ("freshness_p90_ms", ("freshness_p90_ms",), "ms"),
            ("gnn_auroc", ("fit", "gnn_auroc"), "auroc"))


def report(workload: str, metrics: Dict[str, Dict], workload_layers: Dict[str, Dict],
           problems, inputs) -> None:
    """Human-readable summary on standard error."""
    err = sys.stderr
    print(f"== {workload}", file=err)
    for name, metric in {**metrics, **workload_layers}.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}", file=err)
    for label, path, unit in RECORDED:
        value = inputs
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if value is not None:
            print(f"  {label + ' (not gated)':32s} {value:14.6g} {unit}", file=err)
    for step in inputs.get("steps", []):
        print("  step r{rate}: p50 {p50_ms} p99 {p99_ms} within {within_limit:.4f} "
              "refused {refused} late99 {generator_late_p99_ms:.2f}ms "
              "repeated {repeated_pairs:.3f}{flag}".format(
                  flag=" GENERATOR BEHIND" if step["generator_behind"] else "", **step),
              file=err)
    for problem in problems:
        print(f"  FAILED CHECK: {problem}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        deadline = time.monotonic() + BUDGET_S
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        deadline = time.monotonic() + BUDGET_S
        result = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
