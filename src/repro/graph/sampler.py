"""Time-respecting neighbor sampling.

Given seed nodes with seed times, the sampler grows an L-hop sampled
subgraph in which every traversed edge and every reached node existed
at the seed's time.  This is the property that makes the compiled
pipeline leak-free: a model input at prediction time ``t`` can only see
the database as of ``t``.

Node *instances* in a sampled subgraph are keyed by
``(original node id, seed-context time)``: the same row sampled under
two different seed times is two instances, because its valid
neighborhood differs.  Within one batch, seeds usually share a few
distinct cutoff times, so deduplication keeps subgraphs compact.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.obs import trace as obs_trace
from repro.resilience.faults import fault_point

__all__ = ["SampledSubgraph", "NeighborSampler"]


def _concat_parts(parts: List[object]) -> np.ndarray:
    """Collapse a mixed list of int lists / int64 arrays into one array."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


class SampledSubgraph:
    """The result of one sampling call.

    Internally, node/edge/degree columns are stored as *parts* — plain
    python lists fed by the scalar reference-sampler API plus numpy
    blocks appended by the vectorized sampler — and collapsed into
    contiguous int64/float64 arrays by :meth:`finalize`.

    Attributes
    ----------
    seed_type:
        Node type of the seeds.
    seed_locals:
        Local indices (within ``seed_type``) of the seed instances, in
        the order the seeds were given.
    """

    def __init__(self, seed_type: str) -> None:
        self.seed_type = seed_type
        self.seed_locals: np.ndarray = np.empty(0, dtype=np.int64)
        # Per node type: parts of original ids / context times.  A part
        # is either a python list (scalar appends) or an int64 array.
        self._orig: Dict[str, List[object]] = {}
        self._ctx_time: Dict[str, List[object]] = {}
        self._index: Dict[str, Dict[Tuple[int, int], int]] = {}
        # Per edge type: (src parts, dst parts).
        self._edges: Dict[EdgeType, Tuple[List[object], List[object]]] = {}
        # Per node type: parts of degree rows — a part is either one
        # row (list of floats) or a 2D float64 block.
        self._degrees: Dict[str, List[object]] = {}
        self._degree_rows: Dict[str, int] = {}

    # -- construction (used by the sampler) ----------------------------
    def add_node(self, node_type: str, orig_id: int, ctx_time: int) -> Tuple[int, bool]:
        """Intern a node instance; returns (local index, was-new)."""
        index = self._index.setdefault(node_type, {})
        key = (orig_id, ctx_time)
        local = index.get(key)
        if local is not None:
            return local, False
        local = len(index)
        index[key] = local
        self._orig.setdefault(node_type, [[]])[-1].append(orig_id)
        self._ctx_time.setdefault(node_type, [[]])[-1].append(ctx_time)
        return local, True

    def set_degrees(self, node_type: str, local: int, degrees: List[float]) -> None:
        """Record time-valid in-degrees (one per incoming edge type)."""
        rows = self._degree_rows.get(node_type, 0)
        if local != rows:
            raise ValueError("degrees must be recorded in node-creation order")
        self._degrees.setdefault(node_type, []).append(degrees)
        self._degree_rows[node_type] = rows + 1

    def set_degrees_block(
        self, node_type: str, locals_: np.ndarray, degrees: np.ndarray
    ) -> None:
        """Bulk variant of :meth:`set_degrees`.

        ``locals_`` must be the next contiguous ascending run of local
        indices (the vectorized sampler interns a hop's new nodes
        sequentially, so this always holds there).
        """
        if len(locals_) == 0:
            return
        rows = self._degree_rows.get(node_type, 0)
        expected = np.arange(rows, rows + len(locals_), dtype=np.int64)
        if not np.array_equal(np.asarray(locals_, dtype=np.int64), expected):
            raise ValueError("degree blocks must cover the next contiguous locals")
        block = np.asarray(degrees, dtype=np.float64)
        self._degrees.setdefault(node_type, []).append(block)
        self._degree_rows[node_type] = rows + len(locals_)

    def add_edge(self, edge_type: EdgeType, src_local: int, dst_local: int) -> None:
        """Record one edge between local node instances."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        if not src_parts or not isinstance(src_parts[-1], list):
            src_parts.append([])
            dst_parts.append([])
        src_parts[-1].append(src_local)
        dst_parts[-1].append(dst_local)

    def add_edges(self, edge_type: EdgeType, src_locals, dst_locals) -> None:
        """Bulk variant of :meth:`add_edge` (appends one array block)."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        src_parts.append(np.asarray(src_locals, dtype=np.int64))
        dst_parts.append(np.asarray(dst_locals, dtype=np.int64))

    def finalize(self) -> "SampledSubgraph":
        """Collapse part lists into contiguous arrays (idempotent).

        Samplers call this once sampling ends; afterwards every
        accessor returns (views of) a single contiguous array and the
        subgraph is cheap to cache, compare, and serialize.
        """
        for store in (self._orig, self._ctx_time):
            for node_type, parts in store.items():
                store[node_type] = [_concat_parts(parts)]
        for edge_type, (src_parts, dst_parts) in self._edges.items():
            self._edges[edge_type] = (
                [_concat_parts(src_parts)],
                [_concat_parts(dst_parts)],
            )
        for node_type, parts in self._degrees.items():
            self._degrees[node_type] = [self._collapse_degrees(parts)]
        return self

    @staticmethod
    def _collapse_degrees(parts: List[object]) -> np.ndarray:
        if len(parts) == 1 and isinstance(parts[0], np.ndarray):
            return np.asarray(parts[0], dtype=np.float64)
        blocks: List[np.ndarray] = []
        pending: List[List[float]] = []
        for part in parts:
            if isinstance(part, np.ndarray):
                if pending:
                    blocks.append(np.asarray(pending, dtype=np.float64))
                    pending = []
                blocks.append(np.asarray(part, dtype=np.float64))
            else:
                pending.append(part)
        if pending:
            blocks.append(np.asarray(pending, dtype=np.float64))
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    # -- read access (used by the model) -------------------------------
    @property
    def node_types(self) -> List[str]:
        """Node types present in the subgraph."""
        return list(self._orig)

    @property
    def edge_types(self) -> List[EdgeType]:
        """Edge types present in the subgraph."""
        return list(self._edges)

    def num_nodes(self, node_type: str) -> int:
        """Instances of one node type."""
        return sum(len(p) for p in self._orig.get(node_type, ()))

    def total_nodes(self) -> int:
        """Instances over all types."""
        return sum(self.num_nodes(node_type) for node_type in self._orig)

    def total_edges(self) -> int:
        """Edges over all types."""
        return sum(
            sum(len(p) for p in src_parts) for src_parts, _ in self._edges.values()
        )

    def node_orig(self, node_type: str) -> np.ndarray:
        """Original (full-graph) node ids per instance."""
        return _concat_parts(self._orig.get(node_type, []))

    def node_ctx_time(self, node_type: str) -> np.ndarray:
        """Seed-context time per instance."""
        return _concat_parts(self._ctx_time.get(node_type, []))

    def edges_for(self, edge_type: EdgeType) -> Tuple[np.ndarray, np.ndarray]:
        """(src_local, dst_local) arrays for one edge type."""
        src_parts, dst_parts = self._edges.get(edge_type, ((), ()))
        return _concat_parts(list(src_parts)), _concat_parts(list(dst_parts))

    def node_degrees(self, node_type: str) -> np.ndarray:
        """Time-valid in-degrees per instance, shape (n, k).

        ``k`` is the number of edge types into ``node_type`` in the
        full graph, in :meth:`HeteroGraph.edge_types_into` order.
        Types with no incoming relations return shape (n, 0).
        """
        parts = self._degrees.get(node_type, [])
        if not parts:
            return np.zeros((self.num_nodes(node_type), 0))
        return self._collapse_degrees(parts)

    def zero_degree_channel(self, node_type: str, channel: int) -> None:
        """Zero one in-degree channel across every node of ``node_type``.

        Used by relation knockouts (``explain_relations``): removing an
        edge type's messages must also blank its degree feature, and
        callers cannot poke ``_degrees`` directly because its parts mix
        per-node rows with 2-D blocks.
        """
        for part in self._degrees.get(node_type, []):
            if isinstance(part, np.ndarray) and part.ndim == 2:
                part[:, channel] = 0.0
            else:
                part[channel] = 0.0


class NeighborSampler:
    """Samples L-hop time-respecting neighborhoods.

    Parameters
    ----------
    graph:
        The full heterogeneous graph.
    fanouts:
        Neighbors sampled per edge type at each hop; ``len(fanouts)``
        is the number of hops (use the model depth).
    rng:
        Random generator (sampling without replacement per neighbor
        list).
    time_respecting:
        When false, ignores timestamps entirely — the *leaky* variant
        used by the Figure 3 ablation.  Never use in production.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[int],
        rng: np.random.Generator,
        time_respecting: bool = True,
    ) -> None:
        if any(f <= 0 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.rng = rng
        self.time_respecting = time_respecting
        self._edge_types_into: Dict[str, List[EdgeType]] = {
            node_type: graph.edge_types_into(node_type) for node_type in graph.node_types
        }

    @property
    def num_hops(self) -> int:
        """Sampling depth."""
        return len(self.fanouts)

    def sample(
        self,
        seed_type: str,
        seed_ids: np.ndarray,
        seed_times: np.ndarray,
    ) -> SampledSubgraph:
        """Sample the merged subgraph around the given seeds.

        ``seed_times`` gives the prediction time of each seed; every
        sampled node/edge satisfies ``timestamp <= seed time`` when
        ``time_respecting`` is on.
        """
        fault_point("sampler.sample")
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        if seed_ids.shape != seed_times.shape:
            raise ValueError("seed_ids and seed_times must have the same shape")

        subgraph = SampledSubgraph(seed_type)
        frontier: List[Tuple[str, int, int, int]] = []  # (type, orig, ctx_time, local)
        seed_locals = np.empty(len(seed_ids), dtype=np.int64)
        for i, (orig, time) in enumerate(zip(seed_ids.tolist(), seed_times.tolist())):
            local, new = subgraph.add_node(seed_type, orig, time)
            seed_locals[i] = local
            if new:
                self._record_degrees(subgraph, seed_type, orig, time, local)
                frontier.append((seed_type, orig, time, local))
        subgraph.seed_locals = seed_locals

        truncations = 0
        for fanout in self.fanouts:
            next_frontier: List[Tuple[str, int, int, int]] = []
            for node_type, orig, ctx_time, local in frontier:
                for edge_type in self._edge_types_into[node_type]:
                    neighbors, truncated = self._sample_neighbors(edge_type, orig, ctx_time, fanout)
                    truncations += truncated
                    for nbr in neighbors:
                        nbr_local, new = subgraph.add_node(edge_type.src, int(nbr), ctx_time)
                        subgraph.add_edge(edge_type, nbr_local, local)
                        if new:
                            self._record_degrees(
                                subgraph, edge_type.src, int(nbr), ctx_time, nbr_local
                            )
                            next_frontier.append((edge_type.src, int(nbr), ctx_time, nbr_local))
            frontier = next_frontier
        if obs_trace.enabled():
            obs_trace.add_counter("sampler.calls")
            obs_trace.add_counter("sampler.seeds", len(seed_ids))
            obs_trace.add_counter("sampler.nodes_sampled", subgraph.total_nodes())
            obs_trace.add_counter("sampler.edges_sampled", subgraph.total_edges())
            obs_trace.add_counter("sampler.fanout_truncations", truncations)
        return subgraph.finalize()

    def _record_degrees(
        self, subgraph: SampledSubgraph, node_type: str, orig: int, ctx_time: int, local: int
    ) -> None:
        """Store the node's time-valid in-degree per incoming edge type."""
        incoming = self._edge_types_into[node_type]
        if not incoming:
            return
        if self.time_respecting:
            degrees = [float(self.graph.count_before(et, orig, ctx_time)) for et in incoming]
        else:
            degrees = [float(len(self.graph.all_neighbors(et, orig))) for et in incoming]
        subgraph.set_degrees(node_type, local, degrees)

    def _sample_neighbors(
        self, edge_type: EdgeType, dst: int, ctx_time: int, fanout: int
    ) -> Tuple[np.ndarray, bool]:
        """(sampled neighbors, whether the fanout cap truncated them)."""
        if self.time_respecting:
            candidates, _ = self.graph.neighbors_before(edge_type, dst, ctx_time)
        else:
            candidates = self.graph.all_neighbors(edge_type, dst)
        if len(candidates) <= fanout:
            return candidates, False
        picks = self.rng.choice(len(candidates), size=fanout, replace=False)
        return candidates[picks], True
