"""Which public calls the traced run wraps, and the per-layer metrics.

Each wrapped call is a layer boundary of the program:

==================  ===================================================
span                wrapped public call
==================  ===================================================
planner.fit         ``PredictiveQueryPlanner.fit``
labeler             ``build_label_table`` (as the planner and router call it)
graph_build         ``build_graph`` (as the planner calls it)
sampler             ``CachedSampler.sample`` (per-batch key, cache lookup)
sampler.draw        ``NeighborSampler.sample`` / ``VectorizedNeighborSampler.sample``
gnn.forward         ``HeteroGNN.forward``
gnn.conv            ``HeteroSAGEConv.forward`` / ``HeteroGATConv.forward``
nn.backward         ``Tensor.backward``
nn.optim            ``Adam.step``, ``Optimizer.zero_grad``, ``Optimizer.gather_and_clip``
model.predict       ``TrainedPredictiveModel.predict``
router.predict      ``RoutedPredictiveModel.predict``
router.decide       ``RoutedPredictiveModel.decide``
yellow.predict      ``YellowTier.predict``
yellow.features     ``YellowTier.features``
serve.submit        ``PredictionService.predict_async``
serve.refresh       ``PredictionService.refresh_graph``
ingest.process      ``IngestPipeline.process``
ingest.append       ``SegmentLog.append``
ingest.delta        ``DeltaGraphBuilder.apply``
ingest.refresh      ``refresh_model``
==================  ===================================================

The benchmark's own code adds ``fit`` (the workload's fit),
``workload`` (the measured serving phase), ``score`` (the bulk
scoring), ``ingest.write`` (one write batch, on the writer thread) and
``ingest.apply`` (the refresh callable, on the server thread).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

import numpy as np

import tracing

__all__ = ["install", "per_layer", "NAMES", "WORKLOAD_NAMES"]

#: Every per-layer metric with its unit, in report order.  Every
#: workload fits a model, serves it and bulk-scores it, so each of these
#: layers runs in every workload: ``fit.*`` and ``trainer.*`` come from
#: the fit, ``score.*`` from the bulk scoring, the unprefixed ones from
#: the measured serving phase.
NAMES = {
    "fit.sampler.busy_s": "s",
    "fit.sampler.share": "ratio",
    "fit.sampler.ms_per_call": "ms",
    "fit.sampler.nodes_per_seed": "nodes",
    "fit.sampler.cache_hit_ratio": "ratio",
    "fit.gnn.forward.busy_s": "s",
    "fit.gnn.conv.self_s": "s",
    "fit.nn.backward.busy_s": "s",
    "fit.nn.optim.busy_s": "s",
    "fit.labeler.busy_s": "s",
    "fit.graph_build.busy_s": "s",
    "trainer.epochs": "count",
    "trainer.epoch_s": "s",
    "score.sampler.busy_s": "s",
    "score.sampler.share": "ratio",
    "score.gnn.forward.busy_s": "s",
    "sampler.busy_s": "s",
    "sampler.share": "ratio",
    "sampler.ms_per_call": "ms",
    "sampler.nodes_per_seed": "nodes",
    "sampler.cache_hit_ratio": "ratio",
    "gnn.forward.busy_s": "s",
    "gnn.forward.ms_per_call": "ms",
    "gnn.conv.self_s": "s",
    "predict.rows_per_call": "rows",
    "predict.call_ms.p50": "ms",
    "predict.call_ms.p99": "ms",
    "predict.busy_frac": "ratio",
    "trace.unreconciled_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: Layers only some workloads run: the batcher (serve-open and
#: serve-ingest), the router and YELLOW tier, and ingest (serve-ingest).
#: Their metrics go to the result file, with the workloads that run them.
WORKLOAD_NAMES = {
    "batcher.queue_wait_ms.p50": "ms",
    "serve.batch_divergence_max": "score",
    "router.decide_us": "us",
    "yellow.predict_ms.p50": "ms",
    "yellow.features_ms": "ms",
    "router.route_share.green": "ratio",
    "router.route_share.yellow": "ratio",
    "router.route_share.red": "ratio",
    "router.cost_error_factor": "ratio",
    "ingest.segment_append_ms": "ms",
    "ingest.delta_apply_ms": "ms",
    "ingest.refresh_ms": "ms",
    "ingest.barrier_wait_ms": "ms",
    "ingest.touched_fraction": "ratio",
    "refresh.cache_retained_ratio": "ratio",
    "refresh.yellow_blocks_dropped": "count",
    "ingest.events_rejected": "count",
}


def _request_ids(span, args, result) -> None:
    from repro.obs.telemetry import current_request_ids

    span.request_ids = tuple(current_request_ids())
    span.attrs["rows"] = len(args[1])


def _sampled(span, args, result) -> None:
    span.attrs["seeds"] = len(args[2])
    span.attrs["nodes"] = result.total_nodes()


def _decided(span, args, result) -> None:
    span.attrs["tier"] = result.tier
    span.attrs["decision"] = result  # realized cost is filled in after predict


def _submitted(span, args, result) -> None:
    span.request_ids = (result.request_id,)


def install(tracer: tracing.Tracer) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.ingest
    import repro.pql.planner as planner
    import repro.pql.router as router
    from repro.gnn.conv import HeteroGATConv, HeteroSAGEConv
    from repro.gnn.models import HeteroGNN
    from repro.graph.cache import CachedSampler
    from repro.graph.fast_sampler import VectorizedNeighborSampler
    from repro.graph.sampler import NeighborSampler
    from repro.ingest import DeltaGraphBuilder, IngestPipeline, SegmentLog
    from repro.nn.optim import Adam, Optimizer
    from repro.nn.tensor import Tensor
    from repro.serve import PredictionService

    wrap = tracer.wrap
    wrap(planner.PredictiveQueryPlanner, "fit", "planner.fit")
    wrap(planner, "build_label_table", "labeler")
    wrap(router, "build_label_table", "labeler")
    wrap(planner, "build_graph", "graph_build")
    wrap(CachedSampler, "sample", "sampler", _sampled)
    wrap(NeighborSampler, "sample", "sampler.draw")
    wrap(VectorizedNeighborSampler, "sample", "sampler.draw")
    wrap(HeteroGNN, "forward", "gnn.forward")
    wrap(HeteroSAGEConv, "forward", "gnn.conv")
    wrap(HeteroGATConv, "forward", "gnn.conv")
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "step", "nn.optim")
    wrap(Optimizer, "zero_grad", "nn.optim")
    wrap(Optimizer, "gather_and_clip", "nn.optim")
    wrap(planner.TrainedPredictiveModel, "predict", "model.predict", _request_ids)
    wrap(router.RoutedPredictiveModel, "predict", "router.predict", _request_ids)
    wrap(router.RoutedPredictiveModel, "decide", "router.decide", _decided)
    wrap(router.YellowTier, "predict", "yellow.predict")
    wrap(router.YellowTier, "features", "yellow.features")
    wrap(PredictionService, "predict_async", "serve.submit", _submitted)
    wrap(PredictionService, "refresh_graph", "serve.refresh")
    wrap(IngestPipeline, "process", "ingest.process")
    wrap(SegmentLog, "append", "ingest.append")
    wrap(DeltaGraphBuilder, "apply", "ingest.delta")
    wrap(repro.ingest, "refresh_model", "ingest.refresh")


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _quantile(values, q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.quantile(np.asarray(values), q, method="inverted_cdf"))


class _Window:
    """The closed spans that lie inside one time window, by name."""

    def __init__(self, spans, window) -> None:
        lo, hi = window
        self.wall = hi - lo
        self.spans = [s for s in spans if s.start >= lo and s.end <= hi and s.end > 0]
        self.by_name: Dict[str, List] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
        self.selfs = tracing.self_times(self.spans)

    def busy(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name[name])

    def ms(self, name: str) -> List[float]:
        return [s.seconds * 1000.0 for s in self.by_name[name]]

    def self_s(self, name: str) -> float:
        return sum(self.selfs[id(s)] for s in self.by_name[name])


def _sampler(w: _Window, prefix: str) -> Dict[str, float]:
    samples = w.by_name["sampler"]
    drew = {id(s.parent) for s in w.by_name["sampler.draw"]}
    seeds = sum(s.attrs.get("seeds", 0) for s in samples)
    return {
        prefix + "sampler.busy_s": w.busy("sampler"),
        prefix + "sampler.share": w.busy("sampler") / w.wall,
        prefix + "sampler.ms_per_call": _mean(w.ms("sampler")),
        prefix + "sampler.nodes_per_seed": (
            sum(s.attrs.get("nodes", 0) for s in samples) / seeds if seeds else 0.0),
        prefix + "sampler.cache_hit_ratio": (
            sum(id(s) not in drew for s in samples) / len(samples) if samples else 0.0),
    }


def per_layer(tracer: tracing.Tracer, windows: Dict[str, Any], extras: Dict[str, Any]):
    """The per-layer metrics of a traced run, and those of its own layers.

    ``windows`` holds the (start, end) of the model's ``fit``, of the
    measured serving ``phase`` and of the bulk scoring (``score``).
    Returns two ``{name: {"value", "unit"}}`` maps: every metric of
    :data:`NAMES` (the tracing overhead is added by ``run.py``), and the
    metrics of :data:`WORKLOAD_NAMES` whose layer the workload ran.
    """
    fit = _Window(tracer.spans, windows["fit"])
    phase = _Window(tracer.spans, windows["phase"])
    score = _Window(tracer.spans, windows["score"])
    out: Dict[str, float] = {}
    out.update(_sampler(fit, "fit."))
    out["fit.gnn.forward.busy_s"] = fit.busy("gnn.forward")
    out["fit.gnn.conv.self_s"] = fit.self_s("gnn.conv")
    out["fit.nn.backward.busy_s"] = fit.busy("nn.backward")
    out["fit.nn.optim.busy_s"] = fit.busy("nn.optim")
    out["fit.labeler.busy_s"] = fit.busy("labeler")
    out["fit.graph_build.busy_s"] = fit.busy("graph_build")
    trainer = extras["trainer"]
    out["trainer.epochs"] = float(trainer.get("epochs", 0))
    out["trainer.epoch_s"] = float(trainer.get("epoch_s", 0.0))
    out["score.sampler.busy_s"] = score.busy("sampler")
    out["score.sampler.share"] = score.busy("sampler") / score.wall
    out["score.gnn.forward.busy_s"] = score.busy("gnn.forward")

    out.update(_sampler(phase, ""))
    out["gnn.forward.busy_s"] = phase.busy("gnn.forward")
    out["gnn.forward.ms_per_call"] = _mean(phase.ms("gnn.forward"))
    out["gnn.conv.self_s"] = phase.self_s("gnn.conv")
    # A model call is an outermost predict on the server thread: one
    # micro-batch, which carries the batch's request IDs.  A RED
    # predict inside a routed one is part of its caller.
    calls = [s for s in phase.by_name["model.predict"] + phase.by_name["router.predict"]
             if s.parent is None]
    out["predict.rows_per_call"] = _mean([c.attrs["rows"] for c in calls])
    out["predict.call_ms.p50"] = _quantile([c.seconds * 1000.0 for c in calls], 0.5)
    out["predict.call_ms.p99"] = _quantile([c.seconds * 1000.0 for c in calls], 0.99)
    out["predict.busy_frac"] = sum(c.seconds for c in calls) / phase.wall

    # Per thread, self times plus time with no span open should add up
    # to the traced part of the run, from the fit to the end of the bulk
    # scoring; the worst thread's shortfall or excess.
    threads = tracing.reconcile(tracer.spans, (windows["fit"][0], windows["score"][1]))
    out["trace.unreconciled_frac"] = max(
        (abs(ratio - 1.0) for ratio in threads.values()), default=0.0
    )
    out["trace.spans"] = float(len(tracer.spans))
    common = {name: {"value": float(out[name]), "unit": NAMES[name]}
              for name in NAMES if name in out}
    own = _workload_layers(phase, calls, extras)
    return common, {name: {"value": float(value), "unit": WORKLOAD_NAMES[name]}
                    for name, value in own.items()}


def _workload_layers(phase: _Window, calls, extras: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    submitted = extras.get("submitted_at")
    if submitted is not None:
        waits = [(call.start - submitted[rid]) * 1000.0
                 for call in calls for rid in call.request_ids if rid in submitted]
        out["batcher.queue_wait_ms.p50"] = _quantile(waits, 0.5)
    if "divergence" in extras:
        out["serve.batch_divergence_max"] = extras["divergence"]

    decides = phase.by_name["router.decide"]
    if decides:
        out["router.decide_us"] = _quantile([s.seconds * 1e6 for s in decides], 0.5)
        out["yellow.predict_ms.p50"] = _quantile(phase.ms("yellow.predict"), 0.5)
        out["yellow.features_ms"] = _mean(phase.ms("yellow.features"))
        for tier in ("green", "yellow", "red"):
            out[f"router.route_share.{tier}"] = (
                sum(s.attrs["tier"] == tier for s in decides) / len(decides))
        # How far off the router's cost estimate was, as a factor >= 1 in
        # either direction (realized over estimated, or its inverse).
        factors = [max(r, 1.0 / r) for r in (
            d.realized_cost_ms / d.est_cost_ms
            for d in (s.attrs["decision"] for s in decides)
            if np.isfinite(d.realized_cost_ms) and d.realized_cost_ms > 0
            and d.est_cost_ms > 0)]
        out["router.cost_error_factor"] = _quantile(factors, 0.5)

    writes = phase.by_name["ingest.write"]
    if writes:
        out["ingest.segment_append_ms"] = _mean(phase.ms("ingest.append"))
        out["ingest.delta_apply_ms"] = _mean(phase.ms("ingest.delta"))
        out["ingest.refresh_ms"] = _mean(phase.ms("ingest.refresh"))
        applies = {s.attrs["batch"]: s.start for s in phase.by_name["ingest.apply"]}
        out["ingest.barrier_wait_ms"] = _mean(
            [(applies[w.attrs["batch"]] - w.start) * 1000.0
             for w in writes if w.attrs.get("batch") in applies])
        out["ingest.touched_fraction"] = extras["touched_fraction"]
        out["refresh.cache_retained_ratio"] = extras["cache_retained_ratio"]
        out["refresh.yellow_blocks_dropped"] = extras["yellow_blocks_dropped"]
        out["ingest.events_rejected"] = extras["events_rejected"]
    return out
