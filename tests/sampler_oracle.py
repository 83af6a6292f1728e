"""The per-node scalar sampling loop, kept as a test oracle.

:class:`ScalarNeighborSampler` is the loop that
:class:`repro.graph.NeighborSampler` replaced, kept as it was together
with the per-node subgraph API it used (``add_node``/``add_edge``/
``set_degrees``, now gone from
:class:`~repro.graph.sampler.SampledSubgraph`): it visits frontier
nodes one at a time, asks the graph for each node's time-valid
neighbors with one binary search, draws
``rng.choice(count, fanout, replace=False)`` where the fanout
truncates, and interns every neighbor through a dict.  Only the last
step differs: the collected columns are handed to
:class:`~repro.graph.sampler.SampledSubgraph` in bulk.

The array sampler must reproduce it bit for bit
(``tests/test_sampler_oracle.py``); ``benchmarks/bench_sampling.py``
times it as the ``scalar-oracle`` mode.  Nothing in ``src/`` can
select it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.graph.sampler import SampledSubgraph
from repro.obs import trace as obs_trace
from repro.resilience.faults import fault_point


def _concat_parts(parts: List[object]) -> np.ndarray:
    """Collapse a mixed list of int lists / int64 arrays into one array."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


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


class _ScalarSubgraph:
    """The per-node construction API the loop used, as it was."""

    def __init__(self, seed_type: str) -> None:
        self.seed_type = seed_type
        self.seed_locals: np.ndarray = np.empty(0, dtype=np.int64)
        self._orig: Dict[str, List[object]] = {}
        self._ctx_time: Dict[str, List[object]] = {}
        self._index: Dict[str, Dict[Tuple[int, int], int]] = {}
        self._edges: Dict[EdgeType, Tuple[List[object], List[object]]] = {}
        self._degrees: Dict[str, List[object]] = {}
        self._degree_rows: Dict[str, int] = {}

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

    def add_edge(self, edge_type: EdgeType, src_local: int, dst_local: int) -> None:
        """Record one edge between local node instances."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        if not src_parts or not isinstance(src_parts[-1], list):
            src_parts.append([])
            dst_parts.append([])
        src_parts[-1].append(src_local)
        dst_parts[-1].append(dst_local)

    def finalize(self) -> SampledSubgraph:
        """Collapse the part lists into a :class:`SampledSubgraph`."""
        subgraph = SampledSubgraph(self.seed_type)
        subgraph.seed_locals = self.seed_locals
        for node_type, parts in self._orig.items():
            degrees = self._degrees.get(node_type)
            subgraph.add_nodes(
                node_type,
                _concat_parts(parts),
                _concat_parts(self._ctx_time[node_type]),
                None if degrees is None else _collapse_degrees(degrees),
            )
        for edge_type, (src_parts, dst_parts) in self._edges.items():
            subgraph.add_edges(edge_type, _concat_parts(src_parts), _concat_parts(dst_parts))
        return subgraph.finalize()


class ScalarNeighborSampler:
    """Same constructor and ``sample`` surface as ``NeighborSampler``."""

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

    def sample(self, seed_type: str, seed_ids, seed_times) -> SampledSubgraph:
        """Sample the merged subgraph around the seeds, one node at a time."""
        fault_point("sampler.sample")
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        if seed_ids.shape != seed_times.shape:
            raise ValueError("seed_ids and seed_times must have the same shape")

        subgraph = _ScalarSubgraph(seed_type)
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
            obs_trace.add_counter("sampler.fanout_truncations", truncations)
        return subgraph.finalize()

    def _record_degrees(
        self, subgraph: _ScalarSubgraph, node_type: str, orig: int, ctx_time: int, local: int
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
