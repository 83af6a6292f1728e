"""Compute-path benchmark: float32 training and batched inference.

Times the nn-stack hot loop (forward → backward → clip → step) and
repeated catalogue-scoring inference on a synthetic two-tower-style
workload, across two train modes and two inference modes:

* ``train-reference``  — float64, the default numerics
* ``train-float32``    — float32 fast path
* ``infer-reference``  — float64, graph-building forwards in
  training-sized micro-batches, item tower recomputed per scoring call
  (how ``score_against_items`` behaved before this layer)
* ``infer-batched-f32``— float32, ``no_grad`` micro-batches, item
  embeddings memoized across scoring calls

Every mode runs the same kernels and the same optimizer step; the
modes differ only in dtype, graph building, batch size and caching.

Writes ``BENCH_compute.json``; ``--check BASELINE.json`` exits 1 if
any mode regresses more than 30% below the baseline's throughput.
Acceptance floor: ≥2× train-step throughput and ≥3× inference
throughput versus the reference modes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

import _gate
from repro.nn.layers import MLP
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad

REGRESSION_TOLERANCE = 0.30  # --check fails a mode >30% below baseline
ACCEPTANCE_TRAIN_SPEEDUP = 2.0
ACCEPTANCE_INFER_SPEEDUP = 3.0

_DIMS = [256, 512, 512, 512, 512, 32]
_CLIP_NORM = 5.0
_SCORING_CALLS = 3  # repeated predict/rank calls per inference epoch


def build_workload(num_examples: int = 4096, batch_size: int = 128):
    """Synthetic workload: query features, labels, batches, item features.

    The item catalogue is twice the query count — catalogues outnumber
    per-call query batches in the planner's ranking workload, which is
    what makes cross-call item-embedding reuse worth measuring.
    """
    rng = np.random.default_rng(0)
    features = rng.standard_normal((num_examples, _DIMS[0]))
    labels = rng.integers(0, _DIMS[-1], size=num_examples)
    items = rng.standard_normal((2 * num_examples, _DIMS[0]))
    batches = [
        np.arange(i, min(i + batch_size, num_examples))
        for i in range(0, num_examples, batch_size)
    ]
    return features, labels, batches, items


def make_model(dtype, seed: int = 7) -> MLP:
    """A fresh identically-initialized tower in the requested dtype."""
    return MLP(_DIMS, np.random.default_rng(seed), dtype=dtype)


def run_train_epoch(model, optimizer, features, labels, batches, dtype) -> None:
    """One epoch of forward → backward → clip → step over all batches."""
    for batch in batches:
        optimizer.zero_grad()
        logits = model(Tensor(features[batch], dtype=dtype))
        loss = cross_entropy(logits, labels[batch])
        loss.backward()
        optimizer.gather_and_clip(_CLIP_NORM)
        optimizer.step()


def time_train_mode(mode: str, features, labels, batches) -> float:
    """Seconds for one measured training epoch of ``mode`` (one warm-up)."""
    dtype = {"train-reference": "float64", "train-float32": "float32"}[mode]
    model = make_model(dtype)
    optimizer = Adam(model.parameters(), lr=1e-3)
    run_train_epoch(model, optimizer, features, labels, batches, dtype)
    start = time.perf_counter()
    run_train_epoch(model, optimizer, features, labels, batches, dtype)
    return time.perf_counter() - start


def time_infer_mode(mode: str, features, items) -> float:
    """Seconds for ``_SCORING_CALLS`` catalogue-scoring calls (one warm-up).

    Each call embeds the item catalogue and scores every query against
    it in micro-batches — the planner's predict/rank shape.  The
    reference path rebuilds item embeddings per call and builds the
    autograd graph; the fast path scores under ``no_grad`` and reuses
    the item embeddings across calls.
    """
    dtype, batch_size, use_no_grad, cache_items = {
        "infer-reference": ("float64", 64, False, False),
        "infer-batched-f32": ("float32", 2048, True, True),
    }[mode]

    def epoch(query_tower, item_tower):
        cached = None
        for _ in range(_SCORING_CALLS):
            if cache_items and cached is not None:
                embedded = cached
            elif use_no_grad:
                with no_grad():
                    embedded = item_tower(Tensor(items, dtype=dtype))
                cached = embedded
            else:
                embedded = item_tower(Tensor(items, dtype=dtype))
            for i in range(0, len(features), batch_size):
                x = Tensor(features[i: i + batch_size], dtype=dtype)
                if use_no_grad:
                    with no_grad():
                        (query_tower(x) @ embedded.transpose()).data
                else:
                    (query_tower(x) @ embedded.transpose()).data

    query_tower = make_model(dtype).eval()
    item_tower = make_model(dtype, seed=8).eval()
    epoch(query_tower, item_tower)
    start = time.perf_counter()
    epoch(query_tower, item_tower)
    return time.perf_counter() - start


def run_suite(num_examples: int = 4096) -> Dict:
    """Time every mode and assemble the report dict."""
    features, labels, batches, items = build_workload(num_examples=num_examples)
    report: Dict = {
        "workload": {
            "num_examples": num_examples,
            "num_items": len(items),
            "num_batches": len(batches),
            "dims": _DIMS,
            "batch_size": len(batches[0]),
            "scoring_calls": _SCORING_CALLS,
        },
        "modes": {},
    }
    for mode in ("train-reference", "train-float32"):
        seconds = time_train_mode(mode, features, labels, batches)
        report["modes"][mode] = {
            "seconds": round(seconds, 4),
            "examples_per_sec": round(num_examples / seconds, 1),
        }
    scored = num_examples * _SCORING_CALLS
    for mode in ("infer-reference", "infer-batched-f32"):
        seconds = time_infer_mode(mode, features, items)
        report["modes"][mode] = {
            "seconds": round(seconds, 4),
            "examples_per_sec": round(scored / seconds, 1),
        }
    train_base = report["modes"]["train-reference"]["examples_per_sec"]
    infer_base = report["modes"]["infer-reference"]["examples_per_sec"]
    for mode, entry in report["modes"].items():
        base = train_base if mode.startswith("train") else infer_base
        entry["speedup_vs_reference"] = round(entry["examples_per_sec"] / base, 2)
    train_speedup = report["modes"]["train-float32"]["speedup_vs_reference"]
    infer_speedup = report["modes"]["infer-batched-f32"]["speedup_vs_reference"]
    report["acceptance"] = {
        "train_step_speedup": train_speedup,
        "required_train_speedup": ACCEPTANCE_TRAIN_SPEEDUP,
        "inference_speedup": infer_speedup,
        "required_inference_speedup": ACCEPTANCE_INFER_SPEEDUP,
        "passed": (
            train_speedup >= ACCEPTANCE_TRAIN_SPEEDUP
            and infer_speedup >= ACCEPTANCE_INFER_SPEEDUP
        ),
    }
    return report


_GATES = [
    _gate.MetricGate("examples_per_sec", direction="min",
                     tolerance=REGRESSION_TOLERANCE, unit="examples/s"),
]


def check_against_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the run is clean)."""
    return _gate.mode_regressions(report["modes"], baseline.get("modes", {}), _GATES)


def main(argv=None) -> int:
    """CLI entry: run the suite, print a table, write/compare the report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_compute.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on regression")
    parser.add_argument("--num-examples", type=int, default=4096,
                        help="workload size (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_suite(num_examples=args.num_examples)
    for mode, entry in report["modes"].items():
        print(f"{mode:<18} {entry['seconds']:>8.3f}s  {entry['examples_per_sec']:>10.0f} ex/s"
              f"  {entry['speedup_vs_reference']:>6.2f}x")
    print(f"train-step speedup: {report['acceptance']['train_step_speedup']:.2f}x "
          f"(required {ACCEPTANCE_TRAIN_SPEEDUP:.1f}x)")
    print(f"inference speedup:  {report['acceptance']['inference_speedup']:.2f}x "
          f"(required {ACCEPTANCE_INFER_SPEEDUP:.1f}x)")

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
    if not report["acceptance"]["passed"]:
        print("ACCEPTANCE: compute path below required speedups", file=sys.stderr)
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_compute.py) ------
def test_compute_throughput_acceptance(tmp_path):
    """The fast path must hold its speedup floors over the reference path."""
    report = run_suite(num_examples=2048)
    assert report["acceptance"]["train_step_speedup"] >= ACCEPTANCE_TRAIN_SPEEDUP
    assert report["acceptance"]["inference_speedup"] >= ACCEPTANCE_INFER_SPEEDUP
    out = tmp_path / "BENCH_compute.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert json.load(open(out))["acceptance"]["passed"]


if __name__ == "__main__":
    sys.exit(main())
