"""The heterogeneous temporal graph data structure.

A :class:`HeteroGraph` holds, per node type, a node count, per-node
timestamps, and encoded features; and per edge type, the edge list plus
a CSR index keyed by *destination* node whose neighbor lists are sorted
by edge timestamp.  The time-sorted CSR is what makes time-respecting
neighbor sampling a binary search instead of a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["EdgeType", "HeteroGraph", "TIME_MIN"]

#: Timestamp assigned to static (non-temporal) nodes and edges; it
#: compares below every real timestamp so static entities are visible
#: at any seed time.
TIME_MIN = np.iinfo(np.int64).min


@dataclass(frozen=True)
class EdgeType:
    """An edge type ``src --rel--> dst``.

    ``rel`` is unique per (src, dst) pair in practice because it is
    derived from the foreign-key column name.
    """

    src: str
    rel: str
    dst: str

    def reverse(self) -> "EdgeType":
        """The reversed edge type (rel gains/loses a ``rev_`` prefix)."""
        if self.rel.startswith("rev_"):
            return EdgeType(self.dst, self.rel[4:], self.src)
        return EdgeType(self.dst, f"rev_{self.rel}", self.src)

    def __str__(self) -> str:
        return f"{self.src}--{self.rel}-->{self.dst}"


class _EdgeStore:
    """Edge list plus dst-keyed CSR with time-sorted neighbor lists.

    The store keeps the original (unsorted) ``src_ids``/``dst_ids``/
    ``times`` next to the CSR arrays built from them.
    """

    __slots__ = (
        "src_ids", "dst_ids", "times", "indptr", "nbr_src", "nbr_time", "_time_index"
    )

    def __init__(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: np.ndarray,
        num_dst: int,
    ) -> None:
        self.src_ids = np.asarray(src_ids, dtype=np.int64)
        self.dst_ids = np.asarray(dst_ids, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.int64)
        if not (len(self.src_ids) == len(self.dst_ids) == len(self.times)):
            raise ValueError("src/dst/time arrays must have equal length")
        # CSR keyed by dst, neighbors sorted by (dst, time).
        order = np.lexsort((self.times, self.dst_ids))
        sorted_dst = self.dst_ids[order]
        self.nbr_src = self.src_ids[order]
        self.nbr_time = self.times[order]
        counts = np.bincount(sorted_dst, minlength=num_dst)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._time_index = None

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw (src, dst, time) arrays in insertion order."""
        return self.src_ids, self.dst_ids, self.times

    @property
    def num_edges(self) -> int:
        return len(self.nbr_src)

    def neighbors_before(self, dst: int, time: int) -> Tuple[np.ndarray, np.ndarray]:
        """Incoming neighbors of ``dst`` with edge time <= ``time``.

        Returns (source ids, edge times); both may be empty.
        """
        start, stop = self.indptr[dst], self.indptr[dst + 1]
        times = self.nbr_time[start:stop]
        # Neighbor list is time-ascending: the valid ones are a prefix.
        valid = int(np.searchsorted(times, time, side="right"))
        return self.nbr_src[start : start + valid], times[:valid]

    def all_neighbors(self, dst: int) -> np.ndarray:
        """All incoming neighbors of ``dst`` regardless of time."""
        start, stop = self.indptr[dst], self.indptr[dst + 1]
        return self.nbr_src[start:stop]

    def count_before(self, dst: int, time: int) -> int:
        """Number of incoming neighbors of ``dst`` with edge time <= ``time``."""
        start, stop = self.indptr[dst], self.indptr[dst + 1]
        return int(np.searchsorted(self.nbr_time[start:stop], time, side="right"))

    def counts_before(self, dsts: np.ndarray, times: np.ndarray) -> np.ndarray:
        """:meth:`count_before` for parallel arrays of ``dsts`` and ``times``.

        One ``searchsorted`` over a sorted ``(dst, time rank)`` key per
        CSR slot, built on first use.  The key belongs to this store:
        :meth:`merged` returns a store without one.
        """
        index = self._time_index
        # grow_node_type() pads indptr in place: rebuild for the new nodes.
        if index is None or len(index[1]) < len(self.indptr):
            values = np.unique(self.nbr_time)
            stride = len(values) + 1
            dst_base = np.arange(0, len(self.indptr) * stride, stride)
            key = dst_base[:-1].repeat(np.diff(self.indptr))
            key += values.searchsorted(self.nbr_time, "right")
            index = self._time_index = (values, dst_base, key)
        values, dst_base, key = index
        query = dst_base[dsts] + values.searchsorted(times, "right")
        return key.searchsorted(query, "right") - self.indptr[dsts]

    def degree(self) -> np.ndarray:
        """In-degree per destination node."""
        return np.diff(self.indptr)

    def merged(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: np.ndarray,
        num_dst: int,
    ) -> "_EdgeStore":
        """A new store holding this store's edges plus a delta batch.

        Bit-identical to rebuilding from scratch over the concatenated
        raw edge list: the primary constructor's ``lexsort`` is stable,
        so base rows precede delta rows within any equal ``(dst, time)``
        group — which is exactly what inserting each delta edge *after*
        the base edges with time ``<= t`` (``searchsorted`` side
        ``"right"``) reproduces, at the cost of the delta instead of
        the whole edge list.  ``num_dst`` is the (possibly grown)
        destination node count.
        """
        d_src = np.asarray(src_ids, dtype=np.int64)
        d_dst = np.asarray(dst_ids, dtype=np.int64)
        d_times = np.asarray(times, dtype=np.int64)
        order = np.lexsort((d_times, d_dst))
        s_src, s_dst, s_times = d_src[order], d_dst[order], d_times[order]
        old_num_dst = len(self.indptr) - 1
        positions = np.full(len(s_dst), self.indptr[-1], dtype=np.int64)
        in_range = s_dst < old_num_dst
        for d in np.unique(s_dst[in_range]):
            rows = np.flatnonzero(s_dst == d)
            start, stop = self.indptr[d], self.indptr[d + 1]
            segment = self.nbr_time[start:stop]
            positions[rows] = start + np.searchsorted(segment, s_times[rows], side="right")
        old_counts = np.diff(self.indptr)
        if num_dst > old_num_dst:
            old_counts = np.concatenate(
                [old_counts, np.zeros(num_dst - old_num_dst, dtype=np.int64)]
            )
        counts = old_counts + np.bincount(d_dst, minlength=num_dst)
        store = _EdgeStore.__new__(_EdgeStore)
        store.nbr_src = np.insert(self.nbr_src, positions, s_src)
        store.nbr_time = np.insert(self.nbr_time, positions, s_times)
        store.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # Raw arrays keep event order (base rows then delta rows),
        # mirroring how a cold build consumes appended table rows.
        store.src_ids = np.concatenate([self.src_ids, d_src])
        store.dst_ids = np.concatenate([self.dst_ids, d_dst])
        store.times = np.concatenate([self.times, d_times])
        store._time_index = None
        return store


class HeteroGraph:
    """A heterogeneous graph with per-node and per-edge timestamps."""

    def __init__(self) -> None:
        self._num_nodes: Dict[str, int] = {}
        self._node_times: Dict[str, np.ndarray] = {}
        self._edges: Dict[EdgeType, _EdgeStore] = {}
        #: per node type, the encoded features (set by the builder).
        self.features: Dict[str, "NodeFeatures"] = {}
        #: per node type, original primary-key value per node index.
        self.node_keys: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node_type(
        self,
        name: str,
        num_nodes: int,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Register ``num_nodes`` nodes of type ``name``.

        ``times`` gives per-node creation timestamps; omitted means the
        nodes are static (always visible).
        """
        if name in self._num_nodes:
            raise ValueError(f"node type {name!r} already exists")
        if times is None:
            times = np.full(num_nodes, TIME_MIN, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if times.shape != (num_nodes,):
            raise ValueError(f"times shape {times.shape} != ({num_nodes},)")
        self._num_nodes[name] = num_nodes
        self._node_times[name] = times

    def add_edge_type(
        self,
        edge_type: EdgeType,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Add all edges of ``edge_type`` at once.

        ``times`` stamps each edge; omitted means static edges.
        """
        for endpoint, role in ((edge_type.src, "src"), (edge_type.dst, "dst")):
            if endpoint not in self._num_nodes:
                raise KeyError(f"edge type {edge_type}: unknown {role} node type {endpoint!r}")
        if edge_type in self._edges:
            raise ValueError(f"edge type {edge_type} already exists")
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if times is None:
            times = np.full(len(src_ids), TIME_MIN, dtype=np.int64)
        if len(src_ids) and (
            src_ids.min() < 0
            or src_ids.max() >= self._num_nodes[edge_type.src]
            or dst_ids.min() < 0
            or dst_ids.max() >= self._num_nodes[edge_type.dst]
        ):
            raise IndexError(f"edge type {edge_type}: node ids out of range")
        self._edges[edge_type] = _EdgeStore(
            src_ids, dst_ids, times, self._num_nodes[edge_type.dst]
        )

    # ------------------------------------------------------------------
    # Incremental growth (the ingest delta path)
    # ------------------------------------------------------------------
    def grow_node_type(self, name: str, times: np.ndarray) -> int:
        """Append nodes to an existing type; returns the first new index.

        ``times`` holds one creation timestamp per new node
        (``TIME_MIN`` entries for static rows).  CSR indices of edge
        types *into* the grown type are padded with empty neighbor
        lists — byte-identical to what a cold rebuild at the same
        contents produces, since trailing zero counts cumsum to
        repeated ``indptr`` tails.  Features and ``node_keys`` are the
        caller's to extend (see ``repro.ingest.delta``); the memoized
        fingerprint is cleared.
        """
        if name not in self._num_nodes:
            raise KeyError(f"unknown node type {name!r}")
        times = np.asarray(times, dtype=np.int64)
        start = self._num_nodes[name]
        self._node_times[name] = np.concatenate([self._node_times[name], times])
        self._num_nodes[name] = start + len(times)
        for edge_type, store in self._edges.items():
            if edge_type.dst == name:
                pad = np.full(len(times), store.indptr[-1], dtype=np.int64)
                store.indptr = np.concatenate([store.indptr, pad])
        self._fingerprint = None
        return start

    def append_edges(
        self,
        edge_type: EdgeType,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Append a batch of edges to an existing edge type.

        The store is replaced with a stably merged one
        (:meth:`_EdgeStore.merged`) that is bit-identical to a cold
        rebuild over the combined edge list; the memoized fingerprint
        is cleared.
        """
        if edge_type not in self._edges:
            raise KeyError(f"unknown edge type {edge_type}")
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if times is None:
            times = np.full(len(src_ids), TIME_MIN, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if len(src_ids) == 0:
            return
        if (
            src_ids.min() < 0
            or src_ids.max() >= self._num_nodes[edge_type.src]
            or dst_ids.min() < 0
            or dst_ids.max() >= self._num_nodes[edge_type.dst]
        ):
            raise IndexError(f"edge type {edge_type}: node ids out of range")
        self._edges[edge_type] = self._edges[edge_type].merged(
            src_ids, dst_ids, times, self._num_nodes[edge_type.dst]
        )
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_types(self) -> List[str]:
        """All node type names."""
        return list(self._num_nodes)

    @property
    def edge_types(self) -> List[EdgeType]:
        """All edge types."""
        return list(self._edges)

    def num_nodes(self, node_type: str) -> int:
        """Node count of one type."""
        return self._num_nodes[node_type]

    def total_nodes(self) -> int:
        """Node count over all types."""
        return sum(self._num_nodes.values())

    def num_edges(self, edge_type: EdgeType) -> int:
        """Edge count of one type."""
        return self._edges[edge_type].num_edges

    def total_edges(self) -> int:
        """Edge count over all types."""
        return sum(store.num_edges for store in self._edges.values())

    def node_times(self, node_type: str) -> np.ndarray:
        """Per-node timestamps of one type."""
        return self._node_times[node_type]

    def edges(self, edge_type: EdgeType) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw (src, dst, time) arrays of one edge type."""
        return self._edges[edge_type].edge_arrays()

    def edge_types_into(self, node_type: str) -> List[EdgeType]:
        """Edge types whose destination is ``node_type``."""
        return [et for et in self._edges if et.dst == node_type]

    def in_degree(self, edge_type: EdgeType) -> np.ndarray:
        """In-degree of destination nodes under one edge type."""
        return self._edges[edge_type].degree()

    def neighbors_before(
        self, edge_type: EdgeType, dst: int, time: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Time-valid incoming neighbors of one node (see :class:`_EdgeStore`)."""
        return self._edges[edge_type].neighbors_before(dst, time)

    def all_neighbors(self, edge_type: EdgeType, dst: int) -> np.ndarray:
        """All incoming neighbors regardless of time (leaky; for ablation)."""
        return self._edges[edge_type].all_neighbors(dst)

    def count_before(self, edge_type: EdgeType, dst: int, time: int) -> int:
        """Time-valid in-degree of one node under one edge type."""
        return self._edges[edge_type].count_before(dst, time)

    def __repr__(self) -> str:
        nodes = ", ".join(f"{t}:{n}" for t, n in self._num_nodes.items())
        return f"HeteroGraph(nodes=[{nodes}], edge_types={len(self._edges)}, edges={self.total_edges()})"

    def summary(self) -> Dict[str, object]:
        """Statistics dict (used by the Table 1 benchmark)."""
        return {
            "node_types": len(self._num_nodes),
            "edge_types": len(self._edges),
            "nodes": self.total_nodes(),
            "edges": self.total_edges(),
            "nodes_by_type": dict(self._num_nodes),
            "edges_by_type": {str(et): store.num_edges for et, store in self._edges.items()},
        }
