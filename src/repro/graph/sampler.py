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

:class:`NeighborSampler` expands a whole hop at once with numpy, yet
draws exactly what the per-node loop it replaced draws, down to the
generator's final state (the loop is kept as ``tests/sampler_oracle.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.obs import trace as obs_trace
from repro.resilience.faults import fault_point

__all__ = ["SampledSubgraph", "NeighborSampler", "in_degrees"]

_EMPTY = np.empty(0, dtype=np.int64)
_first = itemgetter(0)


def _concat_parts(parts: List[np.ndarray]) -> np.ndarray:
    """Collapse a list of blocks into one array (along the first axis)."""
    if not parts:
        return _EMPTY
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SampledSubgraph:
    """The result of one sampling call.

    Internally, node/edge/degree columns are stored as lists of numpy
    blocks, one per bulk append, and collapsed into contiguous
    int64/float64 arrays by :meth:`finalize`.

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
        self.seed_locals: np.ndarray = _EMPTY
        # Per node type: blocks of original ids / context times / degree rows.
        self._orig: Dict[str, List[np.ndarray]] = {}
        self._ctx_time: Dict[str, List[np.ndarray]] = {}
        self._degrees: Dict[str, List[np.ndarray]] = {}
        # Per edge type: (src blocks, dst blocks).
        self._edges: Dict[EdgeType, Tuple[List[np.ndarray], List[np.ndarray]]] = {}

    # -- construction (used by the samplers) ----------------------------
    def add_nodes(self, node_type: str, origs, ctx_times, degrees=None) -> None:
        """Append new node instances; their locals continue the type's numbering.

        ``degrees`` has shape ``(n, k)``, one column per edge type into
        ``node_type`` (see :meth:`node_degrees`).  An empty block is
        ignored: a type appears in :attr:`node_types` with its first node.
        """
        if len(origs) == 0:
            return
        self._orig.setdefault(node_type, []).append(np.asarray(origs, dtype=np.int64))
        self._ctx_time.setdefault(node_type, []).append(np.asarray(ctx_times, dtype=np.int64))
        if degrees is not None and degrees.shape[1]:
            block = np.ascontiguousarray(degrees, dtype=np.float64)
            self._degrees.setdefault(node_type, []).append(block)

    def add_edges(self, edge_type: EdgeType, src_locals, dst_locals) -> None:
        """Append one block of edges between local node instances."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        src_parts.append(np.asarray(src_locals, dtype=np.int64))
        dst_parts.append(np.asarray(dst_locals, dtype=np.int64))

    def finalize(self) -> "SampledSubgraph":
        """Collapse block lists into contiguous arrays (idempotent).

        Samplers call this once sampling ends; afterwards every
        accessor returns (views of) a single contiguous array and the
        subgraph is cheap to cache, compare, and serialize.
        """
        for store in (self._orig, self._ctx_time, self._degrees):
            for node_type, parts in store.items():
                store[node_type] = [_concat_parts(parts)]
        for edge_type, (src_parts, dst_parts) in self._edges.items():
            self._edges[edge_type] = ([_concat_parts(src_parts)], [_concat_parts(dst_parts)])
        return self

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
        src_parts, dst_parts = self._edges.get(edge_type, ([], []))
        return _concat_parts(src_parts), _concat_parts(dst_parts)

    def node_degrees(self, node_type: str) -> np.ndarray:
        """Time-valid in-degrees per instance, shape (n, k).

        ``k`` is the number of edge types into ``node_type`` in the
        full graph, in :meth:`HeteroGraph.edge_types_into` order.
        Types with no incoming relations return shape (n, 0).
        """
        parts = self._degrees.get(node_type)
        if not parts:
            return np.zeros((self.num_nodes(node_type), 0))
        return _concat_parts(parts)

    def zero_degree_channel(self, node_type: str, channel: int) -> None:
        """Zero one in-degree channel across every node of ``node_type``.

        Used by relation knockouts (``explain_relations``): removing an
        edge type's messages must also blank its degree feature.
        """
        for part in self._degrees.get(node_type, []):
            part[:, channel] = 0.0


def in_degrees(
    graph: HeteroGraph,
    incoming: Sequence[EdgeType],
    origs: np.ndarray,
    times: np.ndarray,
    time_respecting: bool = True,
) -> np.ndarray:
    """Valid in-degree of each node under each of the ``incoming`` edge types.

    Shape ``(len(incoming), len(origs))``, int64.  Valid neighbors are a
    prefix of each time-sorted CSR segment, so a count is also the
    node's sampling range.  With ``time_respecting`` off, counts ignore
    ``times`` (the leaky ablation).
    """
    counts = np.empty((len(incoming), len(origs)), dtype=np.int64)
    for row, edge_type in enumerate(incoming):
        store = graph._edges[edge_type]
        if time_respecting:
            counts[row] = store.counts_before(origs, times)
        else:
            counts[row] = store.indptr[origs + 1] - store.indptr[origs]
    return counts


class _InstanceTable:
    """Numbers node instances ``(orig id, context time)`` per node type.

    An instance is one int64 key, the original id times the number of
    distinct context times plus the context time's rank; context times
    are the call's seed times.  Per type, the keys seen so far are kept
    sorted next to their locals.
    """

    def __init__(self, seed_times: np.ndarray) -> None:
        self.ctx_values = np.unique(seed_times) if len(seed_times) > 1 else seed_times
        self._tables: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def intern(
        self, node_type: str, origs: np.ndarray, ctxs: np.ndarray, visit=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(local per instance, indices of the instances that are new).

        New instances take the type's next locals by first occurrence,
        in the order of the ``visit`` keys when given; the returned
        indices follow that creation order.  ``ctxs`` is not read when
        the call has a single context time.
        """
        keys = origs
        if len(self.ctx_values) > 1:
            keys = origs * len(self.ctx_values) + self.ctx_values.searchsorted(ctxs)
        table, known = self._tables.get(node_type, (_EMPTY, _EMPTY))
        base = len(known)
        fresh, miss = keys, None
        if base:
            pos = table.searchsorted(keys)
            locals_ = known.take(pos, mode="clip")
            miss = (table.take(pos, mode="clip") != keys).nonzero()[0]
            if not len(miss):
                return locals_, miss
            fresh = keys[miss]
        if visit is not None:
            visit = (visit if miss is None else visit[miss]).argsort()
            fresh = fresh[visit]
        # First occurrences of the fresh keys, by a stable sort.
        order = fresh.argsort(kind="stable")
        ordered = fresh[order]
        repeated = ordered[1:] == ordered[:-1]
        if not np.count_nonzero(repeated):  # distinct keys: numbered as given
            unique, new = ordered, np.arange(len(fresh))
            fresh_locals, new_locals = new + base, order + base
        else:
            first = np.concatenate(([True], ~repeated))
            unique, starts = ordered[first], order[first]
            creation = starts.argsort()
            new = starts[creation]
            new_locals = np.empty(len(unique), dtype=np.int64)
            new_locals[creation] = np.arange(base, base + len(unique))
            fresh_locals = new_locals[unique.searchsorted(fresh)]
        if base:
            merged = np.concatenate((table, unique))
            by_key = merged.argsort()
            unique, new_locals = merged[by_key], np.concatenate((known, new_locals))[by_key]
        self._tables[node_type] = (unique, new_locals)
        if visit is not None:  # back from visit order to the order of ``keys``
            fresh_locals[visit] = fresh_locals.copy()
            new = visit[new]
        if miss is None:
            return fresh_locals, new
        locals_[miss] = fresh_locals
        return locals_, miss[new]


class _Block(NamedTuple):
    """New instances of one node type from one hop, in creation order."""

    node_type: str
    origs: np.ndarray
    ctxs: np.ndarray
    locals: np.ndarray
    order: np.ndarray  # increasing creation keys, comparable across a hop's blocks
    counts: np.ndarray  # in_degrees(): the sampling range per incoming edge type


class _HopSampler:
    """Seed interning, the hop loop and the trace counters of both samplers.

    Subclasses implement ``_expand(subgraph, table, frontier, fanout)``,
    which samples one hop for a frontier of :class:`_Block` and returns
    the next frontier and its count of fanout-truncated pairs.
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
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
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
        table = _InstanceTable(seed_times)
        frontier: List[_Block] = []
        if len(seed_ids):
            seed_locals, new = table.intern(seed_type, seed_ids, seed_times)
            subgraph.seed_locals = seed_locals
            frontier.append(self._new_block(
                subgraph, seed_type, seed_ids[new], seed_times[new], seed_locals[new], new
            ))
        truncations = 0
        for fanout in self.fanouts:
            if not frontier:
                break
            frontier, truncated = self._expand(subgraph, table, frontier, fanout)
            truncations += truncated
        if obs_trace.enabled():
            obs_trace.add_counter("sampler.calls")
            obs_trace.add_counter("sampler.seeds", len(seed_ids))
            obs_trace.add_counter("sampler.nodes_sampled", subgraph.total_nodes())
            obs_trace.add_counter("sampler.edges_sampled", subgraph.total_edges())
            obs_trace.add_counter("sampler.fanout_truncations", truncations)
        return subgraph.finalize()

    def _new_block(
        self, subgraph: SampledSubgraph, node_type: str, origs, ctxs, locals_, order
    ) -> _Block:
        """Record new instances with their degrees; they form the next frontier."""
        counts = in_degrees(
            self.graph, self._edge_types_into[node_type], origs, ctxs, self.time_respecting
        )
        subgraph.add_nodes(node_type, origs, ctxs, counts.T)
        return _Block(node_type, origs, ctxs, locals_, order, counts)



class NeighborSampler(_HopSampler):
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

    def _expand(
        self, subgraph: SampledSubgraph, table: _InstanceTable, frontier: List[_Block], fanout: int
    ) -> Tuple[List[_Block], int]:
        """Sample one hop; returns (next frontier, truncated pair count).

        A *pair* is one (frontier node, edge type into it); the loop
        visits pairs by the node's creation rank, then by edge type,
        and each pair's neighbor *slots* in order.  Here pairs are laid
        out in *runs*, one per (block, edge type), with the runs that
        reach the same node type next to each other, so each type's
        slots form one contiguous range.  Pair keys and slot sequence
        keys order them as the loop visits them.
        """
        width = max(len(self._edge_types_into[b.node_type]) for b in frontier)
        if not width:
            return [], 0
        # Creation ranks across blocks; blocks created one after another
        # (no interleaving) need no sort.
        ranks = None
        if any(a.order[-1] > b.order[0] for a, b in zip(frontier, frontier[1:])):
            order = np.concatenate([b.order for b in frontier])
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[order.argsort()] = np.arange(len(order))
        groups: Dict[str, list] = {}  # node type reached -> its runs
        done = 0
        for block in frontier:
            n = len(block.origs)
            if ranks is None:
                base = np.arange(done * width, (done + n) * width, width)
            else:
                base = ranks[done : done + n] * width
            done += n
            for k, edge_type in enumerate(self._edge_types_into[block.node_type]):
                groups.setdefault(edge_type.src, []).append((edge_type, block, k, base))
        runs = [run for group in groups.values() for run in group]
        stores = self.graph._edges
        counts = np.concatenate([b.counts[k] for _, b, k, _ in runs])
        keys = np.concatenate([base + k for _, _, k, base in runs])
        starts = np.concatenate([stores[et].indptr[b.origs] for et, b, _, _ in runs])

        over = counts > fanout
        truncated = over.nonzero()[0]
        take = np.minimum(counts, fanout)
        bounds = take.cumsum()
        intra = np.arange(bounds[-1]) - (bounds - take).repeat(take)
        offsets = intra
        if len(truncated):
            offsets = intra.copy()
            offsets[over.repeat(take)] = self._draw(keys[truncated], counts[truncated], fanout)
        positions = starts.repeat(take) + offsets
        seq = (keys * fanout).repeat(take) + intra
        # With one context time, instances need no per-slot context.
        one_ctx = len(table.ctx_values) == 1
        ctxs = None if one_ctx else np.concatenate([b.ctxs for _, b, _, _ in runs]).repeat(take)
        dsts = np.concatenate([b.locals for _, b, _, _ in runs]).repeat(take)
        nbrs = np.empty(len(positions), dtype=np.int64)

        edge_blocks, new_blocks = [], []
        stop = pairs = 0
        for node_type, group in groups.items():
            first = stop
            filled = []  # (edge type, slot start, slot stop) of non-empty runs
            for edge_type, block, _, _ in group:
                pairs += len(block.origs)
                start, stop = stop, int(bounds[pairs - 1])
                if stop > start:
                    nbrs[start:stop] = stores[edge_type].nbr_src[positions[start:stop]]
                    filled.append((edge_type, start, stop))
            if not filled:
                continue
            part = slice(first, stop)
            # Slots of several runs interleave in visit order.
            visit = seq[part] if len(filled) > 1 else None
            group_ctxs = None if one_ctx else ctxs[part]
            locals_, new = table.intern(node_type, nbrs[part], group_ctxs, visit)
            if len(new):
                new_ctxs = table.ctx_values.repeat(len(new)) if one_ctx else group_ctxs[new]
                order = seq[part][new]
                new_blocks.append(
                    (order[0], node_type, nbrs[part][new], new_ctxs, locals_[new], order)
                )
            for edge_type, start, end in filled:
                src = locals_[start - first : end - first]
                edge_blocks.append((seq.item(start), edge_type, src, dsts[start:end]))
        # Types and edge types enter the subgraph in first-visit order.
        edge_blocks.sort(key=_first)
        for _, edge_type, src, dst in edge_blocks:
            subgraph.add_edges(edge_type, src, dst)
        new_blocks.sort(key=_first)
        return [self._new_block(subgraph, *args[1:]) for args in new_blocks], len(truncated)

    def _draw(self, keys: np.ndarray, counts: np.ndarray, fanout: int) -> np.ndarray:
        """Without-replacement offsets for the truncated pairs, flattened.

        One row of ``fanout`` offsets per pair, in the layout order of
        ``keys``; the ``rng.choice`` calls run in key order, the loop's
        pair order.  This is the only per-pair Python work in a hop.
        """
        drawn = np.empty((len(keys), fanout), dtype=np.int64)
        visit = keys.argsort()
        choice = self.rng.choice
        for row, count in zip(visit.tolist(), counts[visit].tolist()):
            drawn[row] = choice(count, fanout, replace=False)
        return drawn.ravel()
