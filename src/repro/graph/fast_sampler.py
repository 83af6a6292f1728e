"""Vectorized time-respecting neighbor sampling.

:class:`VectorizedNeighborSampler` shares the reference
:class:`~repro.graph.sampler.NeighborSampler`'s seed handling, valid
counts and interning, and differs in how it draws: where a node's valid
degree exceeds the fanout, it draws ``fanout`` random offsets into the
node's valid CSR prefix **with replacement**, for all such nodes of an
edge type at once.  Duplicate picks stay as repeated edges, so the
expected number of distinct neighbors is slightly below the fanout.  In
exchange no generator call is made per (node, edge type) pair: on the
epoch of ``benchmarks/bench_sampling.py`` (batch 256, fanouts [4, 4])
it samples about 2.2x the seeds per second of the array reference
sampler (``vectorized_vs_reference`` in ``BENCH_sampling.json``).

``unique=True`` removes that bias: high-degree nodes draw **without
replacement** (exactly ``fanout`` distinct neighbor positions, like
the reference sampler), vectorized by grouping nodes with equal valid
degree and argpartitioning a matrix of uniform keys.  The cost scales
with the degree values themselves, so the mode is intended for
small-to-moderate degrees.

The temporal-correctness invariant is identical: nothing newer than
the seed time is ever reachable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.graph.sampler import SampledSubgraph, _Block, _HopSampler, _InstanceTable

__all__ = ["VectorizedNeighborSampler"]


def _concat_blocks(blocks: List[_Block]) -> _Block:
    if len(blocks) == 1:
        return blocks[0]
    # Node columns are 1-D; ``counts`` has one row per edge type.
    columns = list(zip(*blocks))[1:]
    return _Block(blocks[0].node_type, *(np.concatenate(c, axis=-1) for c in columns))


class VectorizedNeighborSampler(_HopSampler):
    """Drop-in faster sampler (see module docstring for semantics)."""

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[int],
        rng: np.random.Generator,
        time_respecting: bool = True,
        unique: bool = False,
    ) -> None:
        super().__init__(graph, fanouts, rng, time_respecting)
        #: Exact-fanout mode: draw without replacement on high-degree
        #: nodes (see module docstring for the cost trade-off).
        self.unique = unique

    def _expand(
        self, subgraph: SampledSubgraph, table: _InstanceTable, frontier: List[_Block], fanout: int
    ) -> Tuple[List[_Block], int]:
        """Sample one hop, one (frontier type, edge type) at a time."""
        reached: Dict[str, List[_Block]] = {}
        truncations = 0
        for block in frontier:
            for k, edge_type in enumerate(self._edge_types_into[block.node_type]):
                truncations += self._expand_edge_type(
                    subgraph, table, edge_type, block, block.counts[k], fanout, reached
                )
        return [_concat_blocks(blocks) for blocks in reached.values() if blocks], truncations

    def _expand_edge_type(
        self, subgraph: SampledSubgraph, table: _InstanceTable, edge_type: EdgeType,
        block: _Block, counts: np.ndarray, fanout: int, reached: Dict[str, List[_Block]],
    ) -> int:
        """Expand one edge type; returns the fanout-truncated node count.

        ``counts`` are the destinations' valid in-degrees under
        ``edge_type``: valid neighbors are a prefix of each CSR segment,
        so a count doubles as the sampling range.
        """
        store = self.graph._edges[edge_type]
        starts = store.indptr[block.origs]
        rows = np.flatnonzero(counts)
        if not len(rows):
            return 0
        small = rows[counts[rows] <= fanout]
        large = rows[counts[rows] > fanout]

        # Candidate slots: the frontier row and the CSR position of each.
        slot_rows: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        # Low-degree nodes: take every valid neighbor (exact, like the
        # reference sampler), gathered with one repeat-based index.
        if len(small):
            lengths = counts[small]
            intra = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            slot_rows.append(np.repeat(small, lengths))
            positions.append(np.repeat(starts[small], lengths) + intra)
        # High-degree nodes: vectorized with-replacement draw.  Exact
        # duplicates of (edge, dst) pairs are acceptable — they only
        # reweight one message slightly — so no per-row dedup pass.
        # Under unique=True, draw without replacement instead: rows are
        # grouped by valid degree so each group becomes one matrix of
        # uniform keys whose smallest `fanout` entries pick distinct
        # neighbor positions.
        if len(large) and self.unique:
            large_counts = counts[large]
            for degree in np.unique(large_counts):
                rows_d = large[large_counts == degree]
                keys = self.rng.random((len(rows_d), int(degree)))
                offsets = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
                slot_rows.append(np.repeat(rows_d, fanout))
                positions.append((starts[rows_d][:, None] + offsets).reshape(-1))
        elif len(large):
            offsets = (
                self.rng.random((len(large), fanout)) * counts[large][:, None]
            ).astype(np.int64)
            slot_rows.append(np.repeat(large, fanout))
            positions.append((starts[large][:, None] + offsets).reshape(-1))
        rows = np.concatenate(slot_rows)
        nbrs = store.nbr_src[np.concatenate(positions)]
        ctxs, dsts = block.ctxs[rows], block.locals[rows]

        # Bulk interning: locals go to new instances in (node, ctx) order.
        entries = reached.setdefault(edge_type.src, [])
        visit = np.lexsort((ctxs, nbrs)).argsort()
        locals_, new = table.intern(edge_type.src, nbrs, ctxs, visit)
        if len(new):
            entries.append(self._new_block(
                subgraph, edge_type.src, nbrs[new], ctxs[new], locals_[new], locals_[new]
            ))
        subgraph.add_edges(edge_type, locals_, dsts)
        return len(large)
