"""Epoch-sampling throughput benchmark and regression gate.

Measures seeds-sampled-per-second for one epoch of minibatch subgraph
sampling under each execution path:

* ``reference``    — reference sampler (the Python loop)
* ``vectorized``   — vectorized sampler
* ``cached-cold``  — vectorized + LRU cache, first epoch (all misses)
* ``cached-warm``  — same sampler, second epoch (all hits).  This is a
  *cache-hit ceiling*: it replays identical batches into a warm cache,
  so it measures dictionary lookups, not sampling.

Every path draws under the deterministic contract
(:mod:`repro.graph.cache`), and the run cross-checks a sample of
batches for bit-identity between the serial and cached paths before
reporting numbers — a benchmark of a diverging sampler is meaningless.

Two acceptance gates, both asserted by ``--check`` *and* by a plain
run:

* ``cold_vectorized_speedup`` — the cold in-process ``vectorized``
  epoch must beat the reference loop by ≥3×.  This is the sampler the
  planner offers as its fast path.
* ``warm_cache_speedup`` — the ``cached-warm`` ceiling must stay ≥2×
  the reference; it measures the memoization path.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling.py                 # write BENCH_sampling.json
    PYTHONPATH=src python benchmarks/bench_sampling.py --check BENCH_sampling.json

``--check`` re-runs the suite and exits non-zero if any mode's
throughput dropped more than 30% below the baseline file, or if the
differential check fails.  The file doubles as a pytest module (run
``pytest benchmarks/bench_sampling.py``) asserting the gates on a
smaller workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

import _gate
from repro.datasets import make_ecommerce
from repro.graph import NeighborSampler, VectorizedNeighborSampler, build_graph
from repro.graph.cache import CachedSampler, LRUSubgraphCache

DAY = 86400
REGRESSION_TOLERANCE = 0.30   # fail --check below 70% of baseline throughput
ACCEPTANCE_SPEEDUP = 2.0      # warm cache-hit ceiling must beat reference by this
REQUIRED_COLD_SPEEDUP = 3.0   # cold vectorized path must beat reference by this
BATCH_SIZE = 256


def build_workload(num_customers: int = 720, num_products: int = 180, seed: int = 0):
    """Graph + seed arrays + shuffled batches for one synthetic epoch."""
    db = make_ecommerce(num_customers=num_customers, num_products=num_products, seed=seed)
    graph = build_graph(db)
    span = db.time_span()
    cutoffs = np.linspace(span[0] + (span[1] - span[0]) // 2, span[1], 3).astype(np.int64)
    ids = np.tile(np.arange(num_customers, dtype=np.int64), len(cutoffs))
    times = np.repeat(cutoffs, num_customers)
    order = np.random.default_rng(0).permutation(len(ids))
    batches = [order[i: i + BATCH_SIZE] for i in range(0, len(order), BATCH_SIZE)]
    return graph, ids, times, batches


def make_path(graph, mode: str):
    """(sampler, epochs_to_run) for one benchmark mode."""
    def ref():
        return NeighborSampler(graph, fanouts=[4, 4], rng=np.random.default_rng(0))

    def vec():
        return VectorizedNeighborSampler(graph, fanouts=[4, 4], rng=np.random.default_rng(0))

    if mode == "reference":
        return CachedSampler(ref(), base_seed=0), 1
    if mode == "vectorized":
        return CachedSampler(vec(), base_seed=0), 1
    if mode == "cached-cold":
        return CachedSampler(vec(), base_seed=0, cache=LRUSubgraphCache(4096)), 1
    if mode == "cached-warm":
        return CachedSampler(vec(), base_seed=0, cache=LRUSubgraphCache(4096)), 2
    raise ValueError(f"unknown mode {mode!r}")


def run_epoch(sampler, ids, times, batches) -> None:
    for batch in batches:
        sampler.sample("customers", ids[batch], times[batch])


def time_mode(graph, mode: str, ids, times, batches) -> float:
    """Seconds for the *measured* epoch of one mode (warm modes time epoch 2)."""
    sampler, epochs = make_path(graph, mode)
    for _ in range(epochs - 1):
        run_epoch(sampler, ids, times, batches)  # warm-up epoch, untimed
    start = time.perf_counter()
    run_epoch(sampler, ids, times, batches)
    return time.perf_counter() - start


def subgraphs_equal(a, b) -> bool:
    if a.seed_type != b.seed_type or not np.array_equal(a.seed_locals, b.seed_locals):
        return False
    if sorted(a.node_types) != sorted(b.node_types):
        return False
    for node_type in a.node_types:
        if not np.array_equal(a.node_orig(node_type), b.node_orig(node_type)):
            return False
    for edge_type in a.edge_types:
        src_a, dst_a = a.edges_for(edge_type)
        src_b, dst_b = b.edges_for(edge_type)
        if not (np.array_equal(src_a, src_b) and np.array_equal(dst_a, dst_b)):
            return False
    return True


def differential_check(graph, ids, times, batches, sample_count: int = 8) -> bool:
    """Serial and cached paths (miss, then hit) agree bit-for-bit on a batch sample."""
    probe = batches[:sample_count]
    serial, _ = make_path(graph, "vectorized")
    cached, _ = make_path(graph, "cached-cold")
    for _ in range(2):
        for batch in probe:
            serial_sub = serial.sample("customers", ids[batch], times[batch])
            cached_sub = cached.sample("customers", ids[batch], times[batch])
            if not subgraphs_equal(serial_sub, cached_sub):
                return False
    return True


def run_suite(num_customers: int = 720) -> Dict:
    graph, ids, times, batches = build_workload(num_customers=num_customers)
    report: Dict = {
        "workload": {
            "dataset": "ecommerce",
            "num_customers": num_customers,
            "num_seeds": len(ids),
            "num_batches": len(batches),
            "fanouts": [4, 4],
            "batch_size": BATCH_SIZE,
        },
        "modes": {},
    }
    report["differential_ok"] = differential_check(graph, ids, times, batches)
    for mode in ("reference", "vectorized", "cached-cold", "cached-warm"):
        seconds = time_mode(graph, mode, ids, times, batches)
        report["modes"][mode] = {
            "seconds": round(seconds, 4),
            "seeds_per_sec": round(len(ids) / seconds, 1),
        }
        if mode == "cached-warm":  # replays identical batches into a warm cache
            report["modes"][mode]["cache_hit_ceiling"] = True
    base_rate = report["modes"]["reference"]["seeds_per_sec"]
    for entry in report["modes"].values():
        entry["speedup_vs_reference"] = round(entry["seeds_per_sec"] / base_rate, 2)
    cold = report["modes"]["vectorized"]["speedup_vs_reference"]
    warm = report["modes"]["cached-warm"]["speedup_vs_reference"]
    report["acceptance"] = {
        "cold_vectorized_speedup": cold,
        "warm_cache_speedup": warm,
        "required_cold_speedup": REQUIRED_COLD_SPEEDUP,
        "required_warm_speedup": ACCEPTANCE_SPEEDUP,
        "passed": (
            report["differential_ok"]
            and cold >= REQUIRED_COLD_SPEEDUP
            and warm >= ACCEPTANCE_SPEEDUP
        ),
    }
    return report


_GATES = [
    _gate.MetricGate("seeds_per_sec", direction="min",
                     tolerance=REGRESSION_TOLERANCE, unit="seeds/s"),
]


def check_against_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the run is clean)."""
    problems = []
    if not report["differential_ok"]:
        problems.append("differential check failed: serial and cached paths diverge")
    problems.extend(
        _gate.mode_regressions(report["modes"], baseline.get("modes", {}), _GATES)
    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_sampling.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on regression")
    parser.add_argument("--num-customers", type=int, default=720,
                        help="workload size (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_suite(num_customers=args.num_customers)
    for mode, entry in report["modes"].items():
        label = "  (cache-hit ceiling)" if entry.get("cache_hit_ceiling") else ""
        print(f"{mode:<16} {entry['seconds']:>8.3f}s  {entry['seeds_per_sec']:>10.0f} seeds/s"
              f"  {entry['speedup_vs_reference']:>6.2f}x{label}")
    print(f"differential check: {'ok' if report['differential_ok'] else 'FAILED'}")
    print(f"cold vectorized speedup: {report['acceptance']['cold_vectorized_speedup']:.2f}x "
          f"(required {REQUIRED_COLD_SPEEDUP:.1f}x)")
    print(f"warm cache-hit ceiling: {report['acceptance']['warm_cache_speedup']:.2f}x "
          f"(required {ACCEPTANCE_SPEEDUP:.1f}x)")

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
        print("ACCEPTANCE: speedup gates or differential check failed", file=sys.stderr)
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_sampling.py) -----
def test_sampling_throughput_acceptance(tmp_path):
    # Smaller workload than the CLI default keeps the test quick; the
    # same gates bind as in main().
    report = run_suite(num_customers=360)
    assert report["differential_ok"]
    assert report["modes"]["cached-warm"]["cache_hit_ceiling"]
    assert report["acceptance"]["warm_cache_speedup"] >= ACCEPTANCE_SPEEDUP
    assert report["acceptance"]["cold_vectorized_speedup"] >= REQUIRED_COLD_SPEEDUP
    out = tmp_path / "BENCH_sampling.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert json.load(open(out))["acceptance"]["passed"]


if __name__ == "__main__":
    sys.exit(main())
