"""Epoch-sampling throughput benchmark and regression gate.

Measures seeds-sampled-per-second for one epoch of minibatch subgraph
sampling under each execution path:

* ``scalar-oracle`` — the per-node scalar loop the array reference
  sampler replaced (``tests/sampler_oracle.py``; tests and this
  benchmark only, nothing in ``src/`` can select it)
* ``reference``     — the array reference sampler (``NeighborSampler``,
  the planner's default), which draws what the scalar loop draws, bit
  for bit
* ``vectorized``    — vectorized sampler
* ``cached-cold``   — vectorized + LRU cache, first epoch (all misses)
* ``cached-warm``   — same sampler, second epoch (all hits).  This is a
  *cache-hit ceiling*: it replays identical batches into a warm cache,
  so it measures dictionary lookups, not sampling.

Every path draws under the deterministic contract
(:mod:`repro.graph.cache`), and the run cross-checks a sample of
batches before reporting numbers — a benchmark of a diverging sampler
is meaningless: the serial and cached paths must agree bit for bit, and
so must the array reference sampler and the scalar loop.

A ``single_seed`` row times one-seed calls of the bare ``reference``
and ``scalar-oracle`` samplers at the planner's default fanouts, the
shape of a one-entity predict; the two take turns in rounds and the
row reports medians.  ``single_seed_epoch_fanouts`` repeats it at the
epoch's fanouts, where subgraphs are smaller and the array sampler's
fixed per-call cost weighs more.

Acceptance gates, all asserted by ``--check`` *and* by a plain run:

* ``cold_vectorized_speedup`` — the cold in-process ``vectorized``
  epoch must beat the scalar loop by ≥3×.
* ``warm_cache_speedup`` — the ``cached-warm`` ceiling must stay ≥2×
  the scalar loop; it measures the memoization path.
* ``array_reference_speedup`` — the ``reference`` epoch (batch 256)
  must beat the scalar loop by ≥5×.
* ``single_seed_ratio`` — a one-seed ``reference`` call at the default
  fanouts must cost no more than a one-seed scalar-loop call
  (ratio ≤ 1).

``vectorized_vs_reference`` (vectorized over array reference
throughput) and ``single_seed_epoch_fanouts`` are recorded without a
gate.

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
import pathlib
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

import _gate
from repro.datasets import make_ecommerce
from repro.graph import NeighborSampler, VectorizedNeighborSampler, build_graph
from repro.graph.cache import CachedSampler, LRUSubgraphCache
from repro.pql import PlannerConfig

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.sampler_oracle import ScalarNeighborSampler  # noqa: E402

DAY = 86400
REGRESSION_TOLERANCE = 0.30   # fail --check below 70% of baseline throughput
ACCEPTANCE_SPEEDUP = 2.0      # warm cache-hit ceiling must beat the scalar loop by this
REQUIRED_COLD_SPEEDUP = 3.0   # cold vectorized path must beat the scalar loop by this
REQUIRED_ARRAY_SPEEDUP = 5.0  # array reference sampler must beat the scalar loop by this
MAX_SINGLE_SEED_RATIO = 1.0   # one-seed array call / one-seed scalar call
BATCH_SIZE = 256
FANOUTS = [4, 4]
SINGLE_SEED_CALLS = 200
SINGLE_SEED_ROUNDS = 9


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


def base_sampler(graph, impl: str, fanouts=FANOUTS):
    """A bare sampler of one implementation, seeded like the bench paths."""
    rng = np.random.default_rng(0)
    if impl == "scalar-oracle":
        return ScalarNeighborSampler(graph, fanouts=fanouts, rng=rng)
    if impl == "reference":
        return NeighborSampler(graph, fanouts=fanouts, rng=rng)
    return VectorizedNeighborSampler(graph, fanouts=fanouts, rng=rng)


def make_path(graph, mode: str):
    """(sampler, epochs_to_run) for one benchmark mode."""
    if mode in ("scalar-oracle", "reference", "vectorized"):
        return CachedSampler(base_sampler(graph, mode), base_seed=0), 1
    if mode == "cached-cold":
        cache = LRUSubgraphCache(4096)
        return CachedSampler(base_sampler(graph, "vectorized"), base_seed=0, cache=cache), 1
    if mode == "cached-warm":
        cache = LRUSubgraphCache(4096)
        return CachedSampler(base_sampler(graph, "vectorized"), base_seed=0, cache=cache), 2
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
    """Bit identity: every array, dtype and type order of two subgraphs."""
    if a.seed_type != b.seed_type or not np.array_equal(a.seed_locals, b.seed_locals):
        return False
    if a.node_types != b.node_types or a.edge_types != b.edge_types:
        return False
    for node_type in a.node_types:
        for x, y in (
            (a.node_orig(node_type), b.node_orig(node_type)),
            (a.node_ctx_time(node_type), b.node_ctx_time(node_type)),
            (a.node_degrees(node_type), b.node_degrees(node_type)),
        ):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
    for edge_type in a.edge_types:
        src_a, dst_a = a.edges_for(edge_type)
        src_b, dst_b = b.edges_for(edge_type)
        if not (np.array_equal(src_a, src_b) and np.array_equal(dst_a, dst_b)):
            return False
    return True


def differential_check(graph, ids, times, batches, sample_count: int = 8) -> Dict[str, bool]:
    """Bit-identity probes on a sample of batches.

    ``serial_vs_cached``: the vectorized sampler with and without the
    LRU cache (miss, then hit).  ``array_vs_scalar``: the array
    reference sampler and the scalar loop from the same generator seed,
    including the generator's state after the call.
    """
    probe = batches[:sample_count]
    serial, _ = make_path(graph, "vectorized")
    cached, _ = make_path(graph, "cached-cold")
    serial_ok = True
    for _ in range(2):
        for batch in probe:
            serial_sub = serial.sample("customers", ids[batch], times[batch])
            cached_sub = cached.sample("customers", ids[batch], times[batch])
            serial_ok = serial_ok and subgraphs_equal(serial_sub, cached_sub)
    array_ok = True
    for i, batch in enumerate(probe):
        array = NeighborSampler(graph, FANOUTS, np.random.default_rng(i))
        scalar = ScalarNeighborSampler(graph, FANOUTS, np.random.default_rng(i))
        array_sub = array.sample("customers", ids[batch], times[batch])
        scalar_sub = scalar.sample("customers", ids[batch], times[batch])
        array_ok = array_ok and subgraphs_equal(array_sub, scalar_sub) and (
            array.rng.bit_generator.state == scalar.rng.bit_generator.state
        )
    return {"serial_vs_cached": serial_ok, "array_vs_scalar": array_ok}


def single_seed_row(graph, ids, times, fanouts) -> Dict:
    """Milliseconds per one-seed call, bare array vs scalar sampler.

    The two samplers take turns over the same seeds in each round (the
    first round is a warm-up); per-call times are round medians and the
    ratio is the median of the per-round ratios.
    """
    picks = np.random.default_rng(1).permutation(len(ids))[:SINGLE_SEED_CALLS]
    samplers = {
        impl: base_sampler(graph, impl, fanouts) for impl in ("reference", "scalar-oracle")
    }
    per_call: Dict[str, List[float]] = {impl: [] for impl in samplers}
    for _ in range(SINGLE_SEED_ROUNDS + 1):
        for impl, sampler in samplers.items():
            start = time.perf_counter()
            for i in picks:
                sampler.sample("customers", ids[i: i + 1], times[i: i + 1])
            per_call[impl].append((time.perf_counter() - start) / len(picks) * 1e3)
    ratios = [
        array / scalar
        for array, scalar in zip(per_call["reference"][1:], per_call["scalar-oracle"][1:])
    ]
    return {
        "fanouts": list(fanouts),
        "calls": len(picks),
        "rounds": SINGLE_SEED_ROUNDS,
        "reference_ms_per_call": round(statistics.median(per_call["reference"][1:]), 4),
        "scalar_ms_per_call": round(statistics.median(per_call["scalar-oracle"][1:]), 4),
        "ratio": round(statistics.median(ratios), 3),
    }


def run_suite(num_customers: int = 720) -> Dict:
    graph, ids, times, batches = build_workload(num_customers=num_customers)
    report: Dict = {
        "workload": {
            "dataset": "ecommerce",
            "num_customers": num_customers,
            "num_seeds": len(ids),
            "num_batches": len(batches),
            "fanouts": FANOUTS,
            "batch_size": BATCH_SIZE,
        },
        "modes": {},
    }
    report["differential"] = differential_check(graph, ids, times, batches)
    report["differential_ok"] = all(report["differential"].values())
    for mode in ("scalar-oracle", "reference", "vectorized", "cached-cold", "cached-warm"):
        seconds = time_mode(graph, mode, ids, times, batches)
        report["modes"][mode] = {
            "seconds": round(seconds, 4),
            "seeds_per_sec": round(len(ids) / seconds, 1),
        }
        if mode == "cached-warm":  # replays identical batches into a warm cache
            report["modes"][mode]["cache_hit_ceiling"] = True
    base_rate = report["modes"]["scalar-oracle"]["seeds_per_sec"]
    for entry in report["modes"].values():
        entry["speedup_vs_scalar"] = round(entry["seeds_per_sec"] / base_rate, 2)
    report["single_seed"] = single_seed_row(
        graph, ids, times, PlannerConfig().resolved_fanouts()
    )
    report["single_seed_epoch_fanouts"] = single_seed_row(graph, ids, times, FANOUTS)
    modes = report["modes"]
    cold = modes["vectorized"]["speedup_vs_scalar"]
    warm = modes["cached-warm"]["speedup_vs_scalar"]
    array = modes["reference"]["speedup_vs_scalar"]
    single = report["single_seed"]["ratio"]
    report["vectorized_vs_reference"] = round(
        modes["vectorized"]["seeds_per_sec"] / modes["reference"]["seeds_per_sec"], 2
    )
    report["acceptance"] = {
        "cold_vectorized_speedup": cold,
        "warm_cache_speedup": warm,
        "array_reference_speedup": array,
        "single_seed_ratio": single,
        "required_cold_speedup": REQUIRED_COLD_SPEEDUP,
        "required_warm_speedup": ACCEPTANCE_SPEEDUP,
        "required_array_speedup": REQUIRED_ARRAY_SPEEDUP,
        "max_single_seed_ratio": MAX_SINGLE_SEED_RATIO,
        "passed": (
            report["differential_ok"]
            and cold >= REQUIRED_COLD_SPEEDUP
            and warm >= ACCEPTANCE_SPEEDUP
            and array >= REQUIRED_ARRAY_SPEEDUP
            and single <= MAX_SINGLE_SEED_RATIO
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
    for probe, ok in report["differential"].items():
        if not ok:
            problems.append(f"differential check failed: {probe} diverge")
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
              f"  {entry['speedup_vs_scalar']:>6.2f}x{label}")
    for row, bound in (("single_seed", f"required <= {MAX_SINGLE_SEED_RATIO:.1f}"),
                       ("single_seed_epoch_fanouts", "ungated")):
        single = report[row]
        print(f"{row} {single['fanouts']}: reference {single['reference_ms_per_call']:.3f} "
              f"ms/call, scalar loop {single['scalar_ms_per_call']:.3f} ms/call, "
              f"ratio {single['ratio']:.3f} ({bound})")
    for probe, ok in report["differential"].items():
        print(f"differential {probe}: {'ok' if ok else 'FAILED'}")
    acceptance = report["acceptance"]
    print(f"cold vectorized speedup: {acceptance['cold_vectorized_speedup']:.2f}x "
          f"(required {REQUIRED_COLD_SPEEDUP:.1f}x)")
    print(f"array reference speedup: {acceptance['array_reference_speedup']:.2f}x "
          f"(required {REQUIRED_ARRAY_SPEEDUP:.1f}x)")
    print(f"warm cache-hit ceiling: {acceptance['warm_cache_speedup']:.2f}x "
          f"(required {ACCEPTANCE_SPEEDUP:.1f}x)")
    print(f"vectorized vs array reference: {report['vectorized_vs_reference']:.2f}x (ungated)")

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
    if not acceptance["passed"]:
        print("ACCEPTANCE: speedup gates or differential check failed", file=sys.stderr)
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_sampling.py) -----
def test_sampling_throughput_acceptance(tmp_path):
    # Smaller workload than the CLI default keeps the test quick; the
    # same gates bind as in main().
    report = run_suite(num_customers=360)
    assert report["differential_ok"], report["differential"]
    assert report["modes"]["cached-warm"]["cache_hit_ceiling"]
    acceptance = report["acceptance"]
    assert acceptance["warm_cache_speedup"] >= ACCEPTANCE_SPEEDUP
    assert acceptance["cold_vectorized_speedup"] >= REQUIRED_COLD_SPEEDUP
    assert acceptance["array_reference_speedup"] >= REQUIRED_ARRAY_SPEEDUP
    assert acceptance["single_seed_ratio"] <= MAX_SINGLE_SEED_RATIO
    out = tmp_path / "BENCH_sampling.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert json.load(open(out))["acceptance"]["passed"]


if __name__ == "__main__":
    sys.exit(main())
