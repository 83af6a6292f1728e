"""The array sampler against the scalar loop it replaced, bit for bit.

:class:`repro.graph.NeighborSampler` expands a hop at a time with numpy
but must draw exactly what the per-node loop in
``tests/sampler_oracle.py`` draws: the same seed locals, node and edge
arrays, degrees (and their dtype), node/edge-type order, and the same
generator state after the call.  A second group of tests pins the
samplers' behaviour after an ingest delta replaces an edge store.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import get_dataset, make_ecommerce
from repro.graph import EdgeType, HeteroGraph, NeighborSampler, build_graph
from repro.graph.fast_sampler import VectorizedNeighborSampler
from tests.conftest import assert_subgraphs_identical
from tests.sampler_oracle import ScalarNeighborSampler

DATASETS = ("ecommerce", "forum", "clinical", "static")


def assert_bit_identical(a, b) -> None:
    """Every array, dtype and insertion order of two subgraphs agree."""
    assert a.seed_type == b.seed_type
    assert a.seed_locals.dtype == b.seed_locals.dtype == np.int64
    np.testing.assert_array_equal(a.seed_locals, b.seed_locals)
    assert a.node_types == b.node_types
    assert a.edge_types == b.edge_types
    for node_type in a.node_types:
        for got, want in (
            (a.node_orig(node_type), b.node_orig(node_type)),
            (a.node_ctx_time(node_type), b.node_ctx_time(node_type)),
            (a.node_degrees(node_type), b.node_degrees(node_type)),
        ):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert a.node_degrees(node_type).flags["C_CONTIGUOUS"]
    for edge_type in a.edge_types:
        for got, want in zip(a.edges_for(edge_type), b.edges_for(edge_type)):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def static_graph() -> HeteroGraph:
    """Static nodes and ``TIME_MIN`` edges, an isolated node, a self-loop type."""
    graph = HeteroGraph()
    graph.add_node_type("shop", 4)  # static, shop 3 has no edges at all
    graph.add_node_type("sale", 6, times=np.array([10, 20, 20, 30, 40, 50]))
    sale_shop = EdgeType("sale", "shop_id", "shop")
    graph.add_edge_type(
        sale_shop, np.arange(6), np.array([0, 0, 1, 0, 2, 0]), times=graph.node_times("sale")
    )
    graph.add_edge_type(sale_shop.reverse(), np.array([0, 0, 1, 0, 2, 0]), np.arange(6))
    graph.add_edge_type(  # static shop-to-shop links
        EdgeType("shop", "partner", "shop"), np.array([0, 1, 2, 1]), np.array([1, 0, 0, 2])
    )
    return graph


@lru_cache(maxsize=None)
def dataset_graph(name: str):
    """(graph, candidate cutoffs) for one generator, built once per process."""
    if name == "static":
        return static_graph(), (0, 10, 20, 35, 60)
    db = get_dataset(name).build(scale=0.2, seed=0)
    graph = build_graph(db)
    lo, hi = db.time_span()
    # Before every event (zero-neighbour nodes), an exact event time
    # (inclusive boundary), mid-span, and the end.
    times = np.unique(np.concatenate([graph.edges(et)[2] for et in graph.edge_types]))
    boundary = int(times[len(times) // 3])
    return graph, (lo - 1, boundary, (lo + hi) // 2, hi)


def sample_both(graph, fanouts, rng_seed, time_respecting, seed_type, ids, times):
    array = NeighborSampler(graph, fanouts, np.random.default_rng(rng_seed), time_respecting)
    scalar = ScalarNeighborSampler(
        graph, fanouts, np.random.default_rng(rng_seed), time_respecting
    )
    got = array.sample(seed_type, ids, times)
    want = scalar.sample(seed_type, ids, times)
    return got, want, array.rng, scalar.rng


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dataset=st.sampled_from(DATASETS),
    fanouts=st.sampled_from([[1], [8, 8], [3, 2, 2], [2, 5]]),
    time_respecting=st.booleans(),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_property_array_sampler_matches_scalar_loop(
    data, dataset, fanouts, time_respecting, rng_seed
):
    graph, cutoffs = dataset_graph(dataset)
    seed_type = data.draw(st.sampled_from(graph.node_types), label="seed_type")
    num = graph.num_nodes(seed_type)
    # Duplicate seeds, repeated (seed, cutoff) pairs and mixed cutoffs.
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, num - 1), st.sampled_from(cutoffs)),
            min_size=0,
            max_size=40,
        ),
        label="seeds",
    )
    ids = np.array([p[0] for p in pairs], dtype=np.int64)
    times = np.array([p[1] for p in pairs], dtype=np.int64)
    got, want, got_rng, want_rng = sample_both(
        graph, fanouts, rng_seed, time_respecting, seed_type, ids, times
    )
    assert_bit_identical(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("time_respecting", [True, False])
def test_default_fit_batch_matches_scalar_loop(time_respecting):
    """A default-config training batch: 256 seeds, fanouts [8, 8], many cutoffs."""
    graph, _ = dataset_graph("ecommerce")
    lo = int(graph.node_times("orders").min())
    hi = int(graph.node_times("orders").max())
    rng = np.random.default_rng(7)
    ids = rng.integers(0, graph.num_nodes("customers"), 256)
    times = rng.choice(np.linspace(lo, hi, 12).astype(np.int64), 256)
    got, want, got_rng, want_rng = sample_both(
        graph, [8, 8], 3, time_respecting, "customers", ids, times
    )
    assert got.total_nodes() > 256
    assert_bit_identical(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_static_edges_visible_before_every_event():
    graph = static_graph()
    got, want, _, _ = sample_both(graph, [4, 4], 0, True, "shop", np.array([0, 3]), np.array([0, 0]))
    assert_bit_identical(got, want)
    # Static partner links are visible at any time; no sale is.
    assert got.num_nodes("sale") == 0
    assert got.edge_types == [EdgeType("shop", "partner", "shop")]
    np.testing.assert_array_equal(got.node_degrees("shop")[got.seed_locals], [[0, 2], [0, 0]])


def test_empty_seed_batch():
    graph, _ = dataset_graph("ecommerce")
    got, want, _, _ = sample_both(
        graph, [8, 8], 0, True, "customers", np.empty(0, np.int64), np.empty(0, np.int64)
    )
    assert_bit_identical(got, want)
    assert got.node_types == [] and got.total_edges() == 0


# ----------------------------------------------------------------------
# Samplers after an ingest delta replaces an edge store
# ----------------------------------------------------------------------
IMPLS = ["reference", "vectorized", "vectorized-unique"]


def build_impl(graph, impl, rng_seed):
    rng = np.random.default_rng(rng_seed)
    if impl == "reference":
        return NeighborSampler(graph, [4, 4], rng)
    return VectorizedNeighborSampler(graph, [4, 4], rng, unique=impl == "vectorized-unique")


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("with_last_customer", [True, False])
def test_sample_after_append_edges_matches_fresh_sampler(impl, with_last_customer):
    """A sampler that drew before ``append_edges`` draws what a new one draws after.

    Three orders are appended into customer 0, which shifts every later
    customer's CSR segment: any valid-count memo kept across the delta
    would read customer 1 onwards off by three, and past the end of its
    array for the last customer.
    """
    db = make_ecommerce(num_customers=60, num_products=30, seed=0)
    graph = build_graph(db)
    lo, hi = db.time_span()
    cutoff = (lo + hi) // 2
    num = graph.num_nodes("customers")
    ids = np.arange(num if with_last_customer else num - 1, dtype=np.int64)
    times = np.full(len(ids), cutoff, dtype=np.int64)
    sampler = build_impl(graph, impl, 0)
    sampler.sample("customers", ids, times)

    graph.append_edges(
        EdgeType("orders", "customer_id", "customers"),
        np.array([0, 1, 2]),
        np.array([0, 0, 0]),
        np.full(3, cutoff - 1, dtype=np.int64),
    )
    sampler.rng = np.random.default_rng(1)
    after = sampler.sample("customers", ids, times)
    fresh = build_impl(graph, impl, 1).sample("customers", ids, times)
    assert_subgraphs_identical(after, fresh)
    degrees = after.node_degrees("customers")[after.seed_locals]
    assert degrees[0, 0] == fresh.node_degrees("customers")[fresh.seed_locals][0, 0]


@pytest.mark.parametrize("impl", IMPLS)
def test_sample_after_grow_node_type_matches_fresh_sampler(impl):
    """Nodes appended by ``grow_node_type`` are valid seeds for a warm sampler."""
    graph = build_graph(make_ecommerce(num_customers=60, num_products=30, seed=0))
    ids = np.arange(5, dtype=np.int64)
    times = np.full(len(ids), int(graph.node_times("orders").max()), dtype=np.int64)
    sampler = build_impl(graph, impl, 0)
    sampler.sample("orders", ids, times)

    first_new = graph.grow_node_type("orders", np.full(2, times[0], dtype=np.int64))
    ids = np.append(ids, [first_new, first_new + 1])
    times = np.full(len(ids), times[0], dtype=np.int64)
    sampler.rng = np.random.default_rng(1)
    after = sampler.sample("orders", ids, times)
    fresh = build_impl(graph, impl, 1).sample("orders", ids, times)
    assert_subgraphs_identical(after, fresh)
    np.testing.assert_array_equal(after.node_degrees("orders")[after.seed_locals[-2:]], 0)
