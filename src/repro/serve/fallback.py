"""The zero-training fallback rung of the serve-time ladder.

Training-time degradation (``repro.resilience.fallback``) can fit a
GBDT because it holds label tables.  At serve time there is nothing to
fit with and no time to fit in — the fallback must answer *now*, from
state the service already holds.  The activity heuristic does exactly
that, using only the compiled graph's time-sorted CSR:

* **binary** — an entity's probability rises with its time-valid
  activity: ``count / (count + 1)`` over facts visible at the cutoff
  (the same recency/frequency signal the degree encoder feeds the
  GNN, collapsed to a score);
* **regression** — the raw time-valid fact count (crude, but
  monotone in the quantity most count-flavored targets track);
* **rank** — global item popularity among facts visible at the
  cutoff, the classic cold-start ranker.

Every lookup is a binary search over pre-sorted neighbor lists, so a
degraded service answers in microseconds per entity — which is the
point: when the GNN path blows its latency budget, this rung restores
the budget instantly while monitoring pages a human.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.builder import node_index_for_keys
from repro.graph.hetero import HeteroGraph
from repro.graph.sampler import in_degrees

__all__ = ["ActivityHeuristic"]


class ActivityHeuristic:
    """Time-valid activity scorer over a compiled graph."""

    kind = "activity-heuristic"

    def __init__(self, graph: HeteroGraph, entity_type: str, item_type: str = "") -> None:
        self.graph = graph
        self.entity_type = entity_type
        self.item_type = item_type
        self._entity_edges = graph.edge_types_into(entity_type)
        self._item_edges = graph.edge_types_into(item_type) if item_type else []
        #: Per-cutoff memo of the item-popularity vector (rank path);
        #: bounded because serving sees few distinct cutoffs.
        self._popularity: Dict[int, np.ndarray] = {}

    def _activity(self, node_ids: np.ndarray, cutoffs: np.ndarray, edge_types) -> np.ndarray:
        counts = in_degrees(self.graph, edge_types, node_ids, cutoffs)
        return counts.sum(axis=0).astype(np.float64)

    def predict(self, entity_keys: np.ndarray, cutoffs: np.ndarray, task: str) -> np.ndarray:
        """Activity scores per entity: probability-shaped for binary."""
        ids = node_index_for_keys(self.graph, self.entity_type, np.asarray(entity_keys))
        counts = self._activity(ids, np.asarray(cutoffs, dtype=np.int64), self._entity_edges)
        if task == "binary":
            return counts / (counts + 1.0)
        return counts

    def _popularity_at(self, cutoff: int) -> np.ndarray:
        cached = self._popularity.get(cutoff)
        if cached is not None:
            return cached
        num_items = self.graph.num_nodes(self.item_type)
        ids = np.arange(num_items, dtype=np.int64)
        times = np.full(num_items, cutoff, dtype=np.int64)
        scores = self._activity(ids, times, self._item_edges)
        if len(self._popularity) >= 32:
            self._popularity.clear()
        self._popularity[cutoff] = scores
        return scores

    def rank(
        self, entity_keys: np.ndarray, cutoffs: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Top-``k`` (item_keys, scores) per entity by time-valid popularity."""
        if not self.item_type:
            raise RuntimeError("rank fallback needs an item type (LIST queries only)")
        item_keys = self.graph.node_keys[self.item_type]
        out = []
        for cutoff in np.asarray(cutoffs, dtype=np.int64).tolist():
            scores = self._popularity_at(int(cutoff))
            top = np.argsort(-scores, kind="stable")[:k]
            out.append((item_keys[top], scores[top]))
        return out
