"""The query → trained-model compiler.

:class:`PredictiveQueryPlanner` is the paper's headline API: hand it a
database and a PQL string, and it produces a trained model —

1. **parse + validate** the query against the schema;
2. **label** every (entity, cutoff) pair by executing the window
   aggregate over the database;
3. **compile the graph**: rows → nodes, foreign keys → edges, feature
   statistics fitted strictly before the first label window;
4. **train** a heterogeneous GNN with time-respecting neighbor
   sampling (a two-tower retrieval model for LIST queries);
5. return a :class:`TrainedPredictiveModel` that predicts for any
   entity at any cutoff and evaluates itself on future cutoffs.

No per-task feature engineering appears anywhere in this path — that
is the point.

Production hardening is opt-in via a
:class:`~repro.resilience.ResilienceConfig`: per-stage deadline
budgets and seeded retries, epoch checkpointing with ``--resume``,
divergence guards inside the trainers, and a graceful-degradation
ladder (GNN → GBDT → heuristic) whose provenance is recorded in the
saved manifest as ``degraded_from``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace
from repro.eval.metrics import (
    accuracy,
    auroc,
    average_precision,
    brier_score,
    expected_calibration_error,
    f1_score,
    hit_rate_at_k,
    mae,
    mrr,
    ndcg_at_k,
    r2_score,
    rmse,
)
from repro.eval.splits import TemporalSplit
from repro.gnn.models import GraphMetadata, HeteroGNN, TwoTowerModel
from repro.gnn.trainer import LinkTaskTrainer, NodeTaskTrainer, TrainConfig
from repro.graph.builder import build_graph, node_index_for_keys
from repro.graph.cache import CachedSampler, LRUSubgraphCache
from repro.graph.hetero import HeteroGraph
from repro.graph.fast_sampler import VectorizedNeighborSampler
from repro.graph.sampler import NeighborSampler
from repro.pql.ast import PredictiveQuery, TaskType
from repro.pql.labeler import LabelTable, build_label_table
from repro.pql.parser import parse
from repro.pql.validate import QueryBinding, validate
from repro.relational.database import Database
# Leaf-module imports only: repro.resilience.fallback (and therefore the
# package __init__) imports back into repro.pql, so the planner must not
# trigger it at import time.  fit_fallback is imported lazily in _degrade.
from repro.resilience.checkpoint import (
    CorruptModelError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    sha256_file,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import fault_point
from repro.resilience.guards import DivergenceError
from repro.resilience.retry import (
    Deadline,
    StageFailedError,
    StageTimeoutError,
    run_stage,
)

__all__ = [
    "PlannerConfig",
    "PredictiveQueryPlanner",
    "TrainedPredictiveModel",
    "CorruptModelError",
]

_log = get_logger("pql.planner")


@dataclass
class PlannerConfig:
    """Hyperparameters of the compiled pipeline.

    The defaults are deliberately task-agnostic: the declarative claim
    is that one configuration serves every query.
    """

    hidden_dim: int = 32
    num_layers: int = 2
    fanouts: Optional[List[int]] = None  # default: [8] * num_layers
    dropout: float = 0.0
    aggregation: str = "mean"
    shared_weights: bool = False
    #: Message-passing layer family: "sage" (default) or "gat".
    conv_type: str = "sage"
    #: Seed-relative time encoding: "log" (default) or "fourier"
    #: (adds sin/cos channels at daily/weekly/monthly/yearly periods).
    time_encoding: str = "log"
    epochs: int = 30
    batch_size: int = 256
    lr: float = 5e-3
    weight_decay: float = 1e-5
    patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0
    #: The leaky ablation switch (Figure 3); keep True everywhere else.
    time_respecting: bool = True
    #: Encode each node's time-valid in-degree per relation (strong
    #: recency/frequency signal even at depth 0); off for the pure
    #: message-passing-depth ablation (Figure 1).
    degree_features: bool = True
    #: Cap on training rows (subsampled reproducibly); None = no cap.
    max_train_rows: Optional[int] = None
    #: Negatives per positive for LIST queries.
    num_negatives: int = 4
    #: Weight positive BCE terms by the inverse class ratio (binary
    #: tasks with skewed labels); improves recall at some AUROC cost.
    auto_pos_weight: bool = False
    #: Neighbor-sampler implementation: "reference" (exact
    #: without-replacement semantics), "vectorized" (with-replacement
    #: draws on high-degree nodes; ~2.2x the reference's epoch
    #: throughput in benchmarks/bench_sampling.py), or
    #: "vectorized-unique" (exact without-replacement fanouts; costs
    #: scale with node degree).
    sampler_impl: str = "reference"
    #: Subgraph LRU capacity in batches; 0 disables memoization.
    #: Sampling is deterministic per batch either way (see
    #: :mod:`repro.graph.cache`), so the cache never changes results —
    #: only how often identical batches are re-sampled.
    cache_size: int = 0
    #: Compute dtype for model parameters and activations: "float64"
    #: (default, the reference numerics) or "float32" (the fast
    #: training path; gradcheck always runs in float64).
    compute_dtype: str = "float64"
    #: Batch size for no-grad inference (evaluation, predict,
    #: rank_items); None falls back to ``batch_size``.  Inference holds
    #: no backward graph, so this can usually be several times larger.
    infer_batch_size: Optional[int] = None

    def make_sampler(self, graph, rng) -> "CachedSampler":
        """Instantiate the configured sampler implementation.

        The base sampler is wrapped in a
        :class:`~repro.graph.cache.CachedSampler`, which re-seeds it
        per batch from the batch content (making every draw a pure
        function of the batch) and, with ``cache_size > 0``, memoizes
        subgraphs across epochs and inference calls.
        """
        if self.sampler_impl in ("vectorized", "vectorized-unique"):
            base = VectorizedNeighborSampler(
                graph, fanouts=self.resolved_fanouts(), rng=rng,
                time_respecting=self.time_respecting,
                unique=self.sampler_impl == "vectorized-unique",
            )
        elif self.sampler_impl == "reference":
            base = NeighborSampler(
                graph, fanouts=self.resolved_fanouts(), rng=rng,
                time_respecting=self.time_respecting,
            )
        else:
            raise ValueError(
                "sampler_impl must be 'reference', 'vectorized', or "
                f"'vectorized-unique', got {self.sampler_impl!r}"
            )
        cache = LRUSubgraphCache(self.cache_size) if self.cache_size > 0 else None
        return CachedSampler(base, base_seed=self.seed, cache=cache)

    def resolved_fanouts(self) -> List[int]:
        """Fanouts, defaulting to 8 per message-passing hop."""
        if self.fanouts is not None:
            return list(self.fanouts)
        return [8] * max(self.num_layers, 1)

    def train_config(self) -> TrainConfig:
        """The inner loop's hyperparameters."""
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            weight_decay=self.weight_decay,
            patience=self.patience,
            clip_norm=self.clip_norm,
            seed=self.seed,
            infer_batch_size=self.infer_batch_size,
        )


class PredictiveQueryPlanner:
    """Compiles PQL queries over one database into trained models."""

    def __init__(
        self,
        db: Database,
        config: Optional[PlannerConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.db = db
        self.config = config or PlannerConfig()
        #: Fault-tolerance policy; None = no retries/budgets/fallback.
        self.resilience = resilience
        #: Memoized parse+validate results keyed by query text.  Safe
        #: because bindings depend only on the schema, which a planner
        #: holds fixed; serving repeated queries (the production use)
        #: skips re-parsing entirely.
        self._plan_cache: Dict[str, QueryBinding] = {}

    def plan(self, query: Union[str, PredictiveQuery]) -> QueryBinding:
        """Parse (if needed) and validate a query against the schema.

        Results are cached per query text; hit/miss counts are
        exported as ``planner.plan_cache.{hits,misses}``.
        """
        text = query if isinstance(query, str) else str(query)
        cached = self._plan_cache.get(text)
        if cached is not None:
            get_registry().counter("planner.plan_cache.hits").inc()
            if obs_trace.enabled():
                obs_trace.add_counter("planner.plan_cache.hits")
            return cached
        get_registry().counter("planner.plan_cache.misses").inc()
        if obs_trace.enabled():
            obs_trace.add_counter("planner.plan_cache.misses")
        parsed = parse(query) if isinstance(query, str) else query
        binding = validate(parsed, self.db)
        self._plan_cache[text] = binding
        return binding

    def notify_delta(self, report) -> int:
        """Ingest-refresh hook: revalidate the plan cache after a delta.

        Bindings depend only on the schema, and append-only ingest
        never changes it, so every cached plan survives — the point of
        this hook is to make that decision *observable* (the
        ``planner.plan_cache.retained_after_delta`` counter feeds the
        selective-invalidation evidence in ``BENCH_ingest.json``)
        rather than conservatively flushing.  Returns the retained
        count.
        """
        retained = len(self._plan_cache)
        get_registry().counter("planner.plan_cache.retained_after_delta").inc(retained)
        return retained

    def _run_stage(self, name: str, fn):
        """Run one compile stage under the configured retry/budget policy."""
        if self.resilience is None:
            return fn(deadline=Deadline(None, stage=name), attempt=0)
        return run_stage(
            name,
            fn,
            policy=self.resilience.retry_policy(),
            budget_seconds=self.resilience.timeout_for(name),
        )

    def fit(
        self,
        query: Union[str, PredictiveQuery],
        split: TemporalSplit,
    ) -> "TrainedPredictiveModel":
        """Compile and train; returns the deployable model."""
        with obs_trace.span("planner.fit"):
            with obs_trace.span("planner.parse"):
                binding = self.plan(query)
            _log.info(
                "query compiled", extra={"task_type": binding.task_type.value,
                                         "entity": binding.query.entity_table},
            )

            def label_stage(deadline: Deadline, attempt: int):
                with obs_trace.span("planner.label") as label_span:
                    train = build_label_table(self.db, binding, split.train_cutoffs)
                    val = build_label_table(self.db, binding, [split.val_cutoff])
                    label_span.add_counter("label.train_rows", len(train))
                    label_span.add_counter("label.val_rows", len(val))
                    label_span.add_counter("label.train_cutoffs", len(split.train_cutoffs))
                deadline.check("planner.label")
                return train, val

            train_labels, val_labels = self._run_stage("label", label_stage)
            if len(train_labels) == 0:
                raise ValueError("no training rows: check cutoffs against the data's time span")
            _log.info(
                "labels built", extra={"train_rows": len(train_labels), "val_rows": len(val_labels)},
            )

            train_labels = self._maybe_subsample(train_labels)
            stats_cutoff = min(split.train_cutoffs)

            def graph_stage(deadline: Deadline, attempt: int):
                with obs_trace.span("planner.graph_build") as build_span:
                    built = build_graph(self.db, stats_cutoff=stats_cutoff)
                    build_span.add_counter("graph.nodes", built.total_nodes())
                    build_span.add_counter("graph.edges", built.total_edges())
                    build_span.add_counter("graph.node_types", len(built.node_types))
                    build_span.add_counter("graph.edge_types", len(built.edge_types))
                deadline.check("planner.graph_build")
                return built

            graph = self._run_stage("graph_build", graph_stage)
            _log.info(
                "graph compiled",
                extra={"nodes": graph.total_nodes(), "edges": graph.total_edges()},
            )
            metadata = GraphMetadata.from_graph(graph)

            def train_stage(deadline: Deadline, attempt: int):
                # Each attempt rebuilds model + sampler from the seed so a
                # retry starts clean; after a mid-run failure with
                # checkpointing enabled, the retry resumes from the last
                # committed epoch instead of epoch 0.
                rng = np.random.default_rng(self.config.seed)
                sampler = self.config.make_sampler(
                    graph, np.random.default_rng(self.config.seed + 1)
                )
                resume = bool(
                    self.resilience
                    and (self.resilience.resume
                         or (attempt > 0 and self.resilience.checkpoint_dir))
                )
                if binding.task_type == TaskType.LINK:
                    return self._fit_link(
                        binding, split, graph, metadata, sampler, rng,
                        train_labels, val_labels, deadline=deadline, resume=resume,
                    )
                return self._fit_node(
                    binding, split, graph, metadata, sampler, rng,
                    train_labels, val_labels, deadline=deadline, resume=resume,
                )

            with obs_trace.span("planner.train"):
                try:
                    model = self._run_stage("train", train_stage)
                except (StageFailedError, StageTimeoutError, DivergenceError) as err:
                    if self.resilience is None or not self.resilience.fallback:
                        raise
                    model = self._degrade(binding, graph, train_labels, val_labels, err)
            if model.degraded_from is None:
                trainer = model.node_trainer or model.link_trainer
                _log.info(
                    "training finished",
                    extra={"epochs": len(trainer.history.train_loss),
                           "best_epoch": trainer.history.best_epoch},
                )
            model.stats_cutoff = stats_cutoff
            model.resilience = self.resilience
        return model

    def fit_routed(
        self,
        query: Union[str, PredictiveQuery],
        split: TemporalSplit,
        router=None,
    ):
        """Compile, train, and wrap in the cost-based tier router.

        Returns a :class:`~repro.pql.router.RoutedPredictiveModel`:
        the full GNN (red) from :meth:`fit` plus the calibrated
        green/yellow tiers and the cost model that routes between
        them.  ``router`` is a :class:`~repro.pql.router.RouterConfig`
        (default policy when omitted).
        """
        from repro.pql.router import fit_routed  # lazy: router imports this module

        return fit_routed(self, query, split, router)

    def _degrade(self, binding, graph, train_labels, val_labels, err) -> "TrainedPredictiveModel":
        """Descend the fallback ladder after a failed GNN train stage."""
        from repro.resilience.fallback import fit_fallback

        reason = f"{type(err).__name__}: {err}"
        get_registry().counter("resilience.degraded").inc()
        obs_trace.add_counter("resilience.degraded")
        _log.warning(
            "GNN stage failed; descending the degradation ladder",
            extra={"error": reason},
        )
        with obs_trace.span("planner.fallback"):
            baseline = fit_fallback(
                self.db, binding, graph, train_labels, val_labels,
                include_two_hop=self.resilience.fallback_two_hop,
            )
        return TrainedPredictiveModel(
            db=self.db,
            binding=binding,
            graph=graph,
            config=self.config,
            baseline=baseline,
            degraded_from="gnn",
            degraded_reason=reason,
        )

    def _train_config(self, resume: bool) -> TrainConfig:
        """The inner-loop config with resilience policy threaded in."""
        tc = self.config.train_config()
        resil = self.resilience
        if resil is not None:
            tc.checkpoint_dir = resil.checkpoint_dir
            tc.checkpoint_every = resil.checkpoint_every
            tc.resume = resume
            tc.divergence_recoveries = resil.divergence_recoveries
            tc.lr_backoff = resil.lr_backoff
            tc.grad_norm_limit = resil.grad_norm_limit
        return tc

    # ------------------------------------------------------------------
    # Node tasks (binary / regression)
    # ------------------------------------------------------------------
    def _fit_node(self, binding, split, graph, metadata, sampler, rng, train_labels, val_labels,
                  deadline=None, resume=False):
        entity_type = binding.query.entity_table
        model = HeteroGNN(
            metadata,
            hidden_dim=self.config.hidden_dim,
            out_dim=1,
            num_layers=self.config.num_layers,
            rng=rng,
            aggregation=self.config.aggregation,
            shared_weights=self.config.shared_weights,
            dropout=self.config.dropout,
            degree_features=self.config.degree_features,
            conv_type=self.config.conv_type,
            time_encoding=self.config.time_encoding,
            dtype=self.config.compute_dtype,
        )
        task = "binary" if binding.task_type == TaskType.BINARY else "regression"
        pos_weight = None
        if task == "binary" and self.config.auto_pos_weight:
            rate = float(np.clip(train_labels.positive_rate, 1e-3, 1 - 1e-3))
            pos_weight = (1.0 - rate) / rate
        trainer = NodeTaskTrainer(
            model, graph, sampler, task,
            config=self._train_config(resume),
            pos_weight=pos_weight,
        )
        train_ids = node_index_for_keys(graph, entity_type, train_labels.entity_keys)
        kwargs = {}
        if len(val_labels):
            kwargs = dict(
                val_ids=node_index_for_keys(graph, entity_type, val_labels.entity_keys),
                val_times=val_labels.cutoffs,
                val_labels=val_labels.labels,
            )
        trainer.fit(entity_type, train_ids, train_labels.cutoffs, train_labels.labels,
                    deadline=deadline, **kwargs)
        return TrainedPredictiveModel(
            db=self.db,
            binding=binding,
            graph=graph,
            config=self.config,
            node_trainer=trainer,
        )

    # ------------------------------------------------------------------
    # Link tasks
    # ------------------------------------------------------------------
    def _fit_link(self, binding, split, graph, metadata, sampler, rng, train_labels, val_labels,
                  deadline=None, resume=False):
        entity_type = binding.query.entity_table
        item_type = binding.item_table
        model = TwoTowerModel(
            metadata,
            item_type=item_type,
            num_items=graph.num_nodes(item_type),
            embed_dim=self.config.hidden_dim,
            num_layers=self.config.num_layers,
            rng=rng,
            dropout=self.config.dropout,
            dtype=self.config.compute_dtype,
        )
        trainer = LinkTaskTrainer(
            model,
            graph,
            sampler,
            config=self._train_config(resume),
            num_negatives=self.config.num_negatives,
        )
        q_ids, q_times, pos_items = self._explode_pairs(graph, entity_type, item_type, train_labels)
        if len(q_ids) == 0:
            raise ValueError("no positive (entity, item) pairs in the training windows")
        kwargs = {}
        vq, vt, vi = self._explode_pairs(graph, entity_type, item_type, val_labels)
        if len(vq):
            kwargs = dict(val_query_ids=vq, val_query_times=vt, val_pos_item_ids=vi)
        trainer.fit(entity_type, q_ids, q_times, pos_items, deadline=deadline, **kwargs)
        return TrainedPredictiveModel(
            db=self.db,
            binding=binding,
            graph=graph,
            config=self.config,
            link_trainer=trainer,
        )

    def _explode_pairs(self, graph, entity_type, item_type, labels: LabelTable):
        """Flatten a LIST label table into (query, time, item) triples."""
        queries, times, items = [], [], []
        for key, cutoff, item_keys in zip(
            labels.entity_keys.tolist(), labels.cutoffs.tolist(), labels.item_keys or []
        ):
            for item_key in np.asarray(item_keys).tolist():
                queries.append(key)
                times.append(cutoff)
                items.append(item_key)
        if not queries:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        q_ids = node_index_for_keys(graph, entity_type, np.asarray(queries))
        item_ids = node_index_for_keys(graph, item_type, np.asarray(items))
        return q_ids, np.asarray(times, dtype=np.int64), item_ids

    def _maybe_subsample(self, labels: LabelTable) -> LabelTable:
        cap = self.config.max_train_rows
        if cap is None or len(labels) <= cap:
            return labels
        rng = np.random.default_rng(self.config.seed + 7)
        picks = rng.choice(len(labels), size=cap, replace=False)
        return labels.subset(np.sort(picks))


class TrainedPredictiveModel:
    """A fitted predictive query, ready to predict and self-evaluate.

    Usually backed by a trained GNN; after graceful degradation it is
    backed by a fallback baseline instead, with ``degraded_from``
    recording what failed and ``baseline.kind`` recording the rung.
    """

    def __init__(
        self,
        db: Database,
        binding: QueryBinding,
        graph: HeteroGraph,
        config: PlannerConfig,
        node_trainer: Optional[NodeTaskTrainer] = None,
        link_trainer: Optional[LinkTaskTrainer] = None,
        baseline=None,
        degraded_from: Optional[str] = None,
        degraded_reason: Optional[str] = None,
    ) -> None:
        self.db = db
        self.binding = binding
        self.graph = graph
        self.config = config
        self.node_trainer = node_trainer
        self.link_trainer = link_trainer
        #: Fallback predictor when the GNN stage degraded (see
        #: :mod:`repro.resilience.fallback`).
        self.baseline = baseline
        #: What the fallback replaced (``"gnn"``), or None.
        self.degraded_from = degraded_from
        #: Human-readable cause of the degradation.
        self.degraded_reason = degraded_reason
        #: Feature-statistics cutoff used at fit time (set by the planner;
        #: persisted so a reloaded model rebuilds the identical graph).
        self.stats_cutoff: Optional[int] = None
        #: The planner's resilience policy (not persisted).
        self.resilience: Optional[ResilienceConfig] = None

    @property
    def task_type(self) -> TaskType:
        """The compiled task type."""
        return self.binding.task_type

    def sampler_cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/eviction stats of the subgraph cache, or None.

        None when the model is degraded (no sampler) or the planner
        was configured with ``cache_size=0``.
        """
        trainer = self.node_trainer or self.link_trainer
        if trainer is None:
            return None
        cache = getattr(trainer.sampler, "cache", None)
        return cache.stats() if cache is not None else None

    def sampler_cache_snapshot(self) -> Optional[Dict[str, int]]:
        """Monotonic lifetime cache counters, or None.

        Unlike :meth:`sampler_cache_stats` (whose window an owner may
        rebase via ``reset_stats``), this is safe for concurrent
        readers: the query router polls it to estimate subgraph-cache
        hit likelihood without disturbing anyone's reporting window.
        """
        trainer = self.node_trainer or self.link_trainer
        if trainer is None:
            return None
        cache = getattr(trainer.sampler, "cache", None)
        return cache.snapshot() if cache is not None else None

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_cutoffs(cutoff, count: int) -> np.ndarray:
        """Broadcast a scalar cutoff (or pass through a vector) to ``count``."""
        cutoffs = np.asarray(cutoff, dtype=np.int64)
        if cutoffs.ndim == 0:
            return np.full(count, int(cutoffs), dtype=np.int64)
        if cutoffs.shape != (count,):
            raise ValueError(
                f"cutoff must be a scalar or have shape ({count},), got {cutoffs.shape}"
            )
        return cutoffs

    def predict(self, entity_keys: np.ndarray, cutoff) -> np.ndarray:
        """Predictions for given entities as of ``cutoff``.

        ``cutoff`` may be one timestamp for the whole batch or an
        array with one prediction time per entity — one call then
        serves mixed-horizon requests, batched through the sampler
        (and its subgraph cache, when the planner configured one).

        Binary → P(positive); regression → value on the label scale.
        For link tasks use :meth:`rank_items`.
        """
        if self.task_type == TaskType.LINK:
            raise RuntimeError("predict() is for node tasks; use rank_items() for LIST queries")
        entity_keys = np.asarray(entity_keys)
        cutoffs = self._resolve_cutoffs(cutoff, len(entity_keys))
        if self.node_trainer is None:
            if self.baseline is None:
                raise RuntimeError("model has neither a trained GNN nor a fallback baseline")
            return self.baseline.predict(self.db, entity_keys, cutoffs)
        entity_type = self.binding.query.entity_table
        ids = node_index_for_keys(self.graph, entity_type, entity_keys)
        return self.node_trainer.predict(entity_type, ids, cutoffs)

    def _item_scorer(self):
        scorer = self.link_trainer or self.baseline
        if scorer is None:
            raise RuntimeError("model has neither a trained ranker nor a fallback baseline")
        return scorer

    def rank_items(self, entity_keys: np.ndarray, cutoff, k: int = 10):
        """Top-``k`` item keys and scores per entity (link tasks only).

        ``cutoff`` may be a scalar or a per-entity array, as in
        :meth:`predict`.
        """
        if self.task_type != TaskType.LINK:
            raise RuntimeError("rank_items() is only available for LIST queries")
        entity_type = self.binding.query.entity_table
        item_type = self.binding.item_table
        q_ids = node_index_for_keys(self.graph, entity_type, np.asarray(entity_keys))
        times = self._resolve_cutoffs(cutoff, len(q_ids))
        item_ids = np.arange(self.graph.num_nodes(item_type))
        scores = self._item_scorer().score_against_items(entity_type, q_ids, times, item_ids)
        item_keys = self.graph.node_keys[item_type]
        # One vectorized sort across all rows; ``stable`` keeps the same
        # deterministic tie order as sorting each row separately.
        top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        rows = np.arange(scores.shape[0])[:, None]
        top_scores = scores[rows, top]
        return [(item_keys[top[i]], top_scores[i]) for i in range(scores.shape[0])]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, cutoff: int, k: int = 10) -> Dict[str, float]:
        """Metrics against ground-truth labels computed at ``cutoff``."""
        resil = self.resilience

        def evaluate_stage(deadline: Deadline, attempt: int) -> Dict[str, float]:
            with obs_trace.span("planner.evaluate") as eval_span:
                labels = build_label_table(self.db, self.binding, [int(cutoff)])
                eval_span.add_counter("eval.rows", len(labels))
                if self.task_type == TaskType.LINK:
                    result = self._evaluate_link(labels, k)
                else:
                    result = self._evaluate_node(labels, cutoff)
            deadline.check("planner.evaluate")
            return result

        if resil is None:
            return evaluate_stage(Deadline(None, stage="evaluate"), 0)
        return run_stage(
            "evaluate",
            evaluate_stage,
            policy=resil.retry_policy(),
            budget_seconds=resil.timeout_for("evaluate"),
        )

    def _evaluate_node(self, labels: LabelTable, cutoff: int) -> Dict[str, float]:
        predictions = self.predict(labels.entity_keys, int(cutoff))
        if self.task_type == TaskType.BINARY:
            return {
                "auroc": auroc(labels.labels, predictions),
                "average_precision": average_precision(labels.labels, predictions),
                "accuracy": accuracy(labels.labels, (predictions > 0.5).astype(float)),
                "f1": f1_score(labels.labels, (predictions > 0.5).astype(float)),
                "brier": brier_score(labels.labels, predictions),
                "ece": expected_calibration_error(labels.labels, predictions),
                "num_examples": float(len(labels)),
                "positive_rate": labels.positive_rate,
            }
        return {
            "mae": mae(labels.labels, predictions),
            "rmse": rmse(labels.labels, predictions),
            "r2": r2_score(labels.labels, predictions),
            "num_examples": float(len(labels)),
        }

    def _evaluate_link(self, labels: LabelTable, k: int) -> Dict[str, float]:
        entity_type = self.binding.query.entity_table
        item_type = self.binding.item_table
        # Standard retrieval protocol: evaluate entities with >= 1 positive.
        keep = [i for i, items in enumerate(labels.item_keys or []) if len(items) > 0]
        if not keep:
            return {"mrr": float("nan"), f"hit_rate@{k}": float("nan"), f"ndcg@{k}": float("nan"), "num_queries": 0.0}
        subset = labels.subset(np.asarray(keep))
        q_ids = node_index_for_keys(self.graph, entity_type, subset.entity_keys)
        item_ids = np.arange(self.graph.num_nodes(item_type))
        scores = self._item_scorer().score_against_items(
            entity_type, q_ids, subset.cutoffs, item_ids
        )
        item_key_to_node = {key: i for i, key in enumerate(self.graph.node_keys[item_type].tolist())}
        relevance = []
        for item_keys in subset.item_keys:
            mask = np.zeros(len(item_ids), dtype=bool)
            for key in np.asarray(item_keys).tolist():
                node = item_key_to_node.get(key)
                if node is not None:
                    mask[node] = True
            relevance.append(mask)
        score_lists = [scores[i] for i in range(len(scores))]
        return {
            "mrr": mrr(score_lists, relevance),
            f"hit_rate@{k}": hit_rate_at_k(score_lists, relevance, k),
            f"ndcg@{k}": ndcg_at_k(score_lists, relevance, k),
            "num_queries": float(len(score_lists)),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    WEIGHTS_FILE = "weights.npz"
    FALLBACK_FILE = "fallback.pkl"
    MANIFEST_FILE = "manifest.json"

    def save(self, directory: str) -> None:
        """Persist the trained model to ``directory`` atomically.

        Layout: ``manifest.json`` (query text, planner config, task
        metadata, SHA-256 checksums, degradation provenance) plus
        ``weights.npz`` (GNN parameters by dotted name) or
        ``fallback.pkl`` (a degraded model's baseline).  Everything is
        staged into a sibling temp directory and renamed into place, so
        a crash mid-save never corrupts a previously saved model.  The
        database itself is *not* saved — reload against the same (or a
        schema-compatible, refreshed) database.
        """
        trainer = self.node_trainer or self.link_trainer
        manifest = {
            "query": str(self.binding.query),
            "config": dataclasses.asdict(self.config),
            "task_type": self.task_type.value,
            "stats_cutoff": self.stats_cutoff,
        }
        if self.node_trainer is not None:
            manifest["target_mean"] = self.node_trainer._target_mean
            manifest["target_std"] = self.node_trainer._target_std
        if self.degraded_from is not None:
            manifest["degraded_from"] = self.degraded_from
            manifest["degraded_reason"] = self.degraded_reason

        staging = directory.rstrip(os.sep) + ".tmp"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        if trainer is not None:
            weights_path = os.path.join(staging, self.WEIGHTS_FILE)
            atomic_write_npz(weights_path, trainer.model.state_dict())
            manifest["weights_sha256"] = sha256_file(weights_path)
        if self.baseline is not None:
            fallback_path = os.path.join(staging, self.FALLBACK_FILE)
            atomic_write_bytes(fallback_path, pickle.dumps(self.baseline))
            manifest["fallback_kind"] = self.baseline.kind
            manifest["fallback_sha256"] = sha256_file(fallback_path)
        atomic_write_json(os.path.join(staging, self.MANIFEST_FILE), manifest)
        # Crash window under test: everything staged, commit pending.  A
        # kill here must leave any previously saved model untouched.
        fault_point("planner.save")
        backup = directory.rstrip(os.sep) + ".old"
        if os.path.exists(backup):
            shutil.rmtree(backup)
        if os.path.isdir(directory):
            os.rename(directory, backup)
        os.rename(staging, directory)
        if os.path.exists(backup):
            shutil.rmtree(backup)
        _log.info(
            "model saved",
            extra={"directory": directory,
                   "degraded_from": self.degraded_from or ""},
        )

    @classmethod
    def _verify_payload(cls, directory: str, filename: str, expected: Optional[str]) -> str:
        path = os.path.join(directory, filename)
        if not os.path.exists(path):
            raise CorruptModelError(f"saved model is missing {filename!r} under {directory!r}")
        if expected is not None:
            actual = sha256_file(path)
            if actual != expected:
                raise CorruptModelError(
                    f"{filename!r} failed its manifest checksum: "
                    f"manifest={expected[:12]}… actual={actual[:12]}… — "
                    f"the model directory is corrupt; re-save or restore from backup"
                )
        return path

    @classmethod
    def load(cls, directory: str, db: Database) -> "TrainedPredictiveModel":
        """Reload a model saved by :meth:`save` against ``db``.

        The graph is recompiled from ``db`` with the persisted
        feature-statistics cutoff, the architecture is rebuilt from the
        persisted config, and the weights are restored — after every
        payload passes its manifest SHA-256 (mismatch raises
        :class:`CorruptModelError`).
        """
        with open(os.path.join(directory, cls.MANIFEST_FILE), "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        config = PlannerConfig(**manifest["config"])
        planner = PredictiveQueryPlanner(db, config)
        binding = planner.plan(manifest["query"])
        graph = build_graph(db, stats_cutoff=manifest["stats_cutoff"])

        if manifest.get("fallback_kind"):
            fallback_path = cls._verify_payload(
                directory, cls.FALLBACK_FILE, manifest.get("fallback_sha256")
            )
            with open(fallback_path, "rb") as handle:
                baseline = pickle.load(handle)
            model = cls(
                db=db, binding=binding, graph=graph, config=config,
                baseline=baseline,
                degraded_from=manifest.get("degraded_from"),
                degraded_reason=manifest.get("degraded_reason"),
            )
            model.stats_cutoff = manifest["stats_cutoff"]
            return model

        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(config.seed)
        sampler = config.make_sampler(graph, np.random.default_rng(config.seed + 1))
        weights_path = cls._verify_payload(
            directory, cls.WEIGHTS_FILE, manifest.get("weights_sha256")
        )
        weights = np.load(weights_path)
        state = {name: weights[name] for name in weights.files}

        if binding.task_type == TaskType.LINK:
            network = TwoTowerModel(
                metadata,
                item_type=binding.item_table,
                num_items=graph.num_nodes(binding.item_table),
                embed_dim=config.hidden_dim,
                num_layers=config.num_layers,
                rng=rng,
                dropout=config.dropout,
                dtype=config.compute_dtype,
            )
            network.load_state_dict(state)
            network.eval()
            trainer = LinkTaskTrainer(
                network, graph, sampler, config=config.train_config(),
                num_negatives=config.num_negatives,
            )
            model = cls(db=db, binding=binding, graph=graph, config=config, link_trainer=trainer)
        else:
            network = HeteroGNN(
                metadata,
                hidden_dim=config.hidden_dim,
                out_dim=1,
                num_layers=config.num_layers,
                rng=rng,
                aggregation=config.aggregation,
                shared_weights=config.shared_weights,
                dropout=config.dropout,
                degree_features=config.degree_features,
                conv_type=config.conv_type,
                time_encoding=config.time_encoding,
                dtype=config.compute_dtype,
            )
            network.load_state_dict(state)
            network.eval()
            task = "binary" if binding.task_type == TaskType.BINARY else "regression"
            trainer = NodeTaskTrainer(network, graph, sampler, task, config=config.train_config())
            trainer._target_mean = manifest.get("target_mean", 0.0)
            trainer._target_std = manifest.get("target_std", 1.0)
            model = cls(db=db, binding=binding, graph=graph, config=config, node_trainer=trainer)
        model.stats_cutoff = manifest["stats_cutoff"]
        return model

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, cutoff: int, table_name: str = "predictions") -> "Table":
        """Predictions for every eligible entity, as a relational table.

        The result has the entity key column plus a ``score`` column
        (P(positive) for binary queries, predicted value for
        regression) and a ``cutoff`` timestamp column; it can be added
        to a database, queried with SQL, or exported to CSV — closing
        the declarative loop.
        """
        if self.task_type == TaskType.LINK:
            raise RuntimeError("materialize() supports node tasks; LIST queries rank instead")
        labels = build_label_table(self.db, self.binding, [int(cutoff)])
        scores = self.predict(labels.entity_keys, int(cutoff))
        from repro.relational.column import Column
        from repro.relational.schema import ColumnSpec, TableSchema
        from repro.relational.table import Table
        from repro.relational.types import DType

        key_dtype = self.binding.entity_schema.dtype_of(self.binding.entity_schema.primary_key)
        schema = TableSchema(
            table_name,
            [
                ColumnSpec("entity_key", key_dtype),
                ColumnSpec("score", DType.FLOAT64),
                ColumnSpec("cutoff", DType.TIMESTAMP),
            ],
            time_column="cutoff",
        )
        return Table(
            schema,
            {
                "entity_key": Column(labels.entity_keys, key_dtype),
                "score": Column(np.asarray(scores, dtype=np.float64), DType.FLOAT64),
                "cutoff": Column(
                    np.full(len(labels), int(cutoff), dtype=np.int64), DType.TIMESTAMP
                ),
            },
        )
