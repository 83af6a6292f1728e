"""Differential tests: every sampling path produces the same answers.

Three paths produce minibatch subgraphs — the reference sampler, the
vectorized sampler (with and without ``unique``), and the LRU-cached
wrapper.  This suite pins down their relationships:

* **temporal validity** holds under every implementation and mode;
* **distribution equivalence**: without-replacement draws (reference
  and ``unique`` vectorized) select each neighbor with the same
  frequency;
* **bit-identity**: for one implementation and seed, the serial and
  cached paths yield identical subgraphs, identical training
  histories, and identical eval metrics — on the e-commerce and forum
  datasets, end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import NeighborSampler, build_graph
from repro.graph.cache import CachedSampler, LRUSubgraphCache
from repro.graph.fast_sampler import VectorizedNeighborSampler
from repro.pql import PredictiveQueryPlanner
from tests.conftest import assert_subgraphs_identical, shop_db, tiny_planner_config

ECOM_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
ECOM_LINK_QUERY = (
    "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
)
FORUM_QUERY = "PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 14 DAYS"

IMPLS = ["reference", "vectorized", "vectorized-unique"]


def build_impl(graph, impl, fanouts=(3, 3), rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    if impl == "reference":
        return NeighborSampler(graph, list(fanouts), rng)
    return VectorizedNeighborSampler(
        graph, list(fanouts), rng, unique=(impl == "vectorized-unique")
    )


# ----------------------------------------------------------------------
# Temporal validity, all implementations
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed_time=st.integers(0, 600),
    fanout=st.integers(1, 6),
    rng_seed=st.integers(0, 50),
    impl=st.sampled_from(IMPLS),
    cached=st.booleans(),
)
def test_property_no_path_sees_the_future(seed_time, fanout, rng_seed, impl, cached):
    g = build_graph(shop_db())
    sampler = build_impl(g, impl, fanouts=(fanout, fanout), rng_seed=rng_seed)
    if cached:
        sampler = CachedSampler(sampler, base_seed=rng_seed, cache=LRUSubgraphCache(4))
    sub = sampler.sample("customers", np.array([0, 1]), np.array([seed_time, seed_time]))
    for node_type in sub.node_types:
        node_times = g.node_times(node_type)[sub.node_orig(node_type)]
        assert (node_times <= seed_time).all()


# ----------------------------------------------------------------------
# Distribution equivalence of without-replacement draws
# ----------------------------------------------------------------------
class TestDistributionEquivalence:
    def neighbor_frequencies(self, impl, draws=400):
        """How often each of customer 0's three orders is picked at fanout 2."""
        g = build_graph(shop_db())
        counts = {}
        for base_seed in range(draws):
            sampler = CachedSampler(build_impl(g, impl, fanouts=(2,)), base_seed=base_seed)
            sub = sampler.sample("customers", np.array([0]), np.array([10**9]))
            for orig in sub.node_orig("orders").tolist():
                counts[orig] = counts.get(orig, 0) + 1
        return counts

    @pytest.mark.parametrize("impl", ["reference", "vectorized-unique"])
    def test_each_neighbor_uniformly_likely(self, impl):
        # 2 of 3 orders per draw -> expected count = draws * 2/3 ≈ 267.
        # sigma = sqrt(400 * 2/3 * 1/3) ≈ 9.4; allow ±5 sigma.
        counts = self.neighbor_frequencies(impl)
        assert set(counts) == {0, 1, 4}  # customer 0's orders
        for value in counts.values():
            assert abs(value - 400 * 2 / 3) < 50

    def test_reference_and_unique_mode_distributions_agree(self):
        ref = self.neighbor_frequencies("reference")
        uni = self.neighbor_frequencies("vectorized-unique")
        assert set(ref) == set(uni)
        for orig in ref:
            assert abs(ref[orig] - uni[orig]) < 70  # both near 267


# ----------------------------------------------------------------------
# Subgraph-level bit-identity of serial / cached paths
# ----------------------------------------------------------------------
class TestSubgraphBitIdentity:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_serial_and_cached_identical(self, impl):
        g = build_graph(shop_db())
        ids = np.array([0, 1], dtype=np.int64)
        times = np.array([400, 10**9], dtype=np.int64)
        batches = [np.array([0]), np.array([1]), np.array([0, 1])]

        serial = CachedSampler(build_impl(g, impl), base_seed=0)
        cached = CachedSampler(build_impl(g, impl), base_seed=0, cache=LRUSubgraphCache(8))
        for batch in batches:
            serial_sub = serial.sample("customers", ids[batch], times[batch])
            for trial in range(2):  # second round hits the cache
                cached_sub = cached.sample("customers", ids[batch], times[batch])
                assert_subgraphs_identical(serial_sub, cached_sub)

    @staticmethod
    def check_dataset_graph(graph, seed_type, impl="vectorized"):
        """Serial == cached over every entity of a generated dataset."""
        n = graph.num_nodes(seed_type)
        ids = np.arange(n, dtype=np.int64)
        times = np.full(n, 10**10, dtype=np.int64)
        serial = CachedSampler(build_impl(graph, impl), base_seed=0)
        cached = CachedSampler(
            build_impl(graph, impl), base_seed=0, cache=LRUSubgraphCache(16)
        )
        half = max(1, -(-n // 2))
        for start in range(0, n, half):
            batch = np.arange(start, min(start + half, n), dtype=np.int64)
            expected = serial.sample(seed_type, ids[batch], times[batch])
            for _ in range(2):  # second round is a cache hit
                assert_subgraphs_identical(
                    expected, cached.sample(seed_type, ids[batch], times[batch])
                )

    def test_serial_and_cached_identical_on_ecommerce(self, small_ecommerce_db):
        self.check_dataset_graph(build_graph(small_ecommerce_db), "customers")

    @pytest.mark.slow
    def test_serial_and_cached_identical_on_forum(self, forum_db):
        self.check_dataset_graph(build_graph(forum_db), "users")


# ----------------------------------------------------------------------
# Full-pipeline bit-identity: training + eval through the planner
# ----------------------------------------------------------------------
def fit_once(db, split, query, **overrides):
    config = tiny_planner_config(epochs=2, **overrides)
    model = PredictiveQueryPlanner(db, config).fit(query, split)
    return model


def history_of(model):
    trainer = model.node_trainer or model.link_trainer
    return (trainer.history.train_loss, trainer.history.val_loss)


class TestPipelineBitIdentity:
    def test_cached_matches_reference_on_ecommerce(
        self, small_ecommerce_db, small_ecommerce_split
    ):
        db, split = small_ecommerce_db, small_ecommerce_split
        base = fit_once(db, split, ECOM_QUERY)
        cached = fit_once(db, split, ECOM_QUERY, cache_size=256)

        assert cached.evaluate(split.test_cutoff) == base.evaluate(split.test_cutoff)
        assert history_of(cached) == history_of(base)
        stats = cached.sampler_cache_stats()
        assert stats is not None and stats["hits"] > 0

    @pytest.mark.parametrize("impl", ["vectorized", "vectorized-unique"])
    def test_vectorized_impls_are_path_invariant(
        self, small_ecommerce_db, small_ecommerce_split, impl
    ):
        db, split = small_ecommerce_db, small_ecommerce_split
        base = fit_once(db, split, ECOM_QUERY, sampler_impl=impl)
        cached = fit_once(db, split, ECOM_QUERY, sampler_impl=impl, cache_size=256)
        assert cached.evaluate(split.test_cutoff) == base.evaluate(split.test_cutoff)
        assert history_of(cached) == history_of(base)

    @pytest.mark.slow
    def test_link_task_is_path_invariant(self, small_ecommerce_db, small_ecommerce_split):
        db, split = small_ecommerce_db, small_ecommerce_split
        base = fit_once(db, split, ECOM_LINK_QUERY)
        cached = fit_once(db, split, ECOM_LINK_QUERY, cache_size=256)
        assert cached.evaluate(split.test_cutoff, k=10) == base.evaluate(
            split.test_cutoff, k=10
        )
        assert history_of(cached) == history_of(base)

    @pytest.mark.slow
    def test_cached_matches_reference_on_forum(self, forum_db, forum_split):
        base = fit_once(forum_db, forum_split, FORUM_QUERY)
        cached = fit_once(forum_db, forum_split, FORUM_QUERY, cache_size=256)
        assert cached.evaluate(forum_split.test_cutoff) == base.evaluate(
            forum_split.test_cutoff
        )
        assert history_of(cached) == history_of(base)


class TestBatchedPrediction:
    """predict()/rank_items() accept per-entity cutoff vectors."""

    @pytest.fixture(scope="class")
    def model(self, small_ecommerce_db, small_ecommerce_split):
        return fit_once(small_ecommerce_db, small_ecommerce_split, ECOM_QUERY)

    def test_uniform_vector_cutoff_matches_scalar(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        scalar = model.predict(keys, cutoff)
        batched = model.predict(keys, np.full(6, cutoff, dtype=np.int64))
        np.testing.assert_array_equal(batched, scalar)

    def test_mixed_cutoffs_are_deterministic(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        cutoffs = np.array([cutoff - 86400 * i for i in range(6)])
        first = model.predict(keys, cutoffs)
        second = model.predict(keys, cutoffs)
        assert first.shape == (6,)
        np.testing.assert_array_equal(first, second)

    def test_cutoff_shape_mismatch_rejected(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:4]
        with pytest.raises(ValueError):
            model.predict(keys, np.array([1, 2]))
