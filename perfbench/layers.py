"""Traced-run wiring: which public call is timed as which layer.

Each ``instrument_*`` function patches, from outside ``src/``, the calls
one workload makes into the program's layers, and each ``*_metrics``
function turns what the :class:`~tracer.Tracer` saw into the per-layer
metrics named in ``BENCHMARK.json``.  Metric names are
``<module>.<what>``, where ``<module>`` is the package under
``src/repro`` that owns the layer.
"""

from __future__ import annotations

from common import percentile
from tracer import Tracer

# Call timers every workload installs: hot leaf functions of the
# geometry, video, prediction and core layers.
_TIMERS = (
    "geometry.viewport_tiles",
    "video.encoder_size",
    "prediction.predict",
    "core.mpc_choose",
)


def instrument_common(tracer: Tracer) -> None:
    """Timers on the hot leaf calls of every workload."""
    from repro.core.optimizer import EnergyQoEMpc
    from repro.geometry.tiling import TileGrid
    from repro.prediction.viewport import ViewportPredictor
    from repro.video.encoder import EncoderModel

    tracer.patch_timer(TileGrid, "viewport_tiles", "geometry.viewport_tiles")
    # The three entry points nest (tiled -> tile -> region); the shared
    # timer name counts only the outermost call.
    for attr in ("region_size_mbit", "tile_size_mbit",
                 "tiled_region_size_mbit"):
        tracer.patch_timer(EncoderModel, attr, "video.encoder_size")
    tracer.patch_timer(ViewportPredictor, "predict_viewport",
                       "prediction.predict")
    tracer.patch_timer(EnergyQoEMpc, "choose", "core.mpc_choose")
    tracer.patch_timer(
        EnergyQoEMpc, "choose_batch", "core.mpc_choose_batch",
        on_call=lambda args, kwargs: tracer.count(
            "core.mpc_batch_rows", len(args[1])),
    )


def common_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for name in _TIMERS:
        out[f"{name}_calls"] = tracer.calls(name)
        out[f"{name}_s"] = tracer.seconds(name)
    batches = tracer.calls("core.mpc_choose_batch")
    out["core.mpc_choose_batch_calls"] = batches
    out["core.mpc_choose_batch_s"] = tracer.seconds("core.mpc_choose_batch")
    out["core.mpc_batch_size_mean"] = (
        tracer.counts["core.mpc_batch_rows"] / batches if batches else 0.0)
    return out


# Per-layer metrics a workload's timed work never reaches, by name
# pattern; a traced run reports them as zero.  Serving builds its
# dataset and Ptiles in set-up, before the timed work.
_SWEEP_ONLY = (
    "traces.*", "ptile.build_video_ptiles_s", "ptile.segments_built",
    "streaming.build_video_ftiles_s", "streaming.session_s.*",
    "streaming.dynamics_self_s", "core.plan_*", "experiments.*",
    "tracing.cold_coverage_pct",
)
NOT_REACHED = {
    "sweep": ("serving.*",),
    "serving": _SWEEP_ONLY + ("streaming.sessions",),
}

# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_SPANS = {
    "traces.build_dataset": "traces.build_dataset_s",
    "ptile.build_video_ptiles": "ptile.build_video_ptiles_s",
    "streaming.build_video_ftiles": "streaming.build_video_ftiles_s",
    "experiments.run_session_jobs": "experiments.run_session_jobs_s",
    "experiments.artifact_get": "experiments.artifact_get_s",
    "experiments.artifact_put": "experiments.artifact_put_s",
    "experiments.results_read": "experiments.results_read_s",
    "experiments.results_merge": "experiments.results_merge_s",
}

COLD_COVERAGE_SPANS = (
    "traces.build_dataset",
    "ptile.build_video_ptiles",
    "streaming.build_video_ftiles",
    "experiments.run_session_jobs",
    "experiments.results_merge",
)
"""Layers whose summed self time should cover >= 90 % of a cold pass."""


def instrument_sweep(tracer: Tracer) -> dict:
    """Spans around the sweep's layer calls, timed plans per scheme."""
    import repro.experiments.setup as exp_setup
    from repro.experiments import ArtifactStore, ShardedResultsStore

    instrument_common(tracer)
    sweep_runs = []

    def count_traces(dataset, args, kwargs):
        tracer.count("traces.head_traces",
                     sum(len(t) for t in dataset.traces.values()))

    def count_segments(ptiles, args, kwargs):
        tracer.count("ptile.segments_built", len(ptiles))

    tracer.patch_span(exp_setup, "build_dataset", "traces.build_dataset",
                      on_result=count_traces)
    tracer.patch_span(exp_setup, "build_video_ptiles",
                      "ptile.build_video_ptiles", on_result=count_segments)
    tracer.patch_span(exp_setup, "build_video_ftiles",
                      "streaming.build_video_ftiles")
    tracer.patch_span(
        exp_setup, "run_session_jobs", "experiments.run_session_jobs",
        on_result=lambda run, args, kwargs: sweep_runs.append(run),
    )
    tracer.patch_span(ArtifactStore, "get", "experiments.artifact_get")
    tracer.patch_span(ArtifactStore, "put", "experiments.artifact_put")
    tracer.patch_span(ShardedResultsStore, "get_results_batch",
                      "experiments.results_read")
    tracer.patch_span(ShardedResultsStore, "merge_shard",
                      "experiments.results_merge")

    make_schemes = exp_setup.make_schemes

    def timed_schemes(*args, **kwargs):
        schemes = make_schemes(*args, **kwargs)
        for name, scheme in schemes.items():
            # Frozen dataclasses refuse plain attribute assignment.
            object.__setattr__(scheme, "__class__", tracer.timed_subclass(
                type(scheme), "plan", f"core.plan.{name}"))
        return schemes

    exp_setup.make_schemes = timed_schemes
    return sweep_runs


def sweep_metrics(tracer: Tracer, sweep_runs, matrix, stores,
                  wall_s: float) -> dict[str, float]:
    out = common_metrics(tracer)
    self_s = tracer.self_seconds()
    for span, metric in SWEEP_SPANS.items():
        out[metric] = self_s.get(span, 0.0)
    out["traces.head_traces"] = tracer.counts.get("traces.head_traces", 0)
    out["ptile.segments_built"] = tracer.counts.get("ptile.segments_built", 0)

    used = segments = 0
    for (_, scheme, _), sessions in matrix.items():
        if scheme in ("ptile", "ours"):
            for s in sessions:
                used += sum(1 for r in s.records if r.used_ptile)
                segments += s.num_segments
    out["ptile.hit_rate"] = used / segments if segments else 0.0

    session_s: dict[str, float] = {}
    sessions = 0
    for run in sweep_runs:
        for timing in run.timings:
            scheme = timing.key[1]
            session_s[scheme] = session_s.get(scheme, 0.0) + timing.elapsed_s
            sessions += 1
    plan_s = 0.0
    for scheme in sorted({key[1] for key in matrix}):
        out[f"streaming.session_s.{scheme}"] = session_s.get(scheme, 0.0)
        out[f"core.plan_calls.{scheme}"] = tracer.calls(f"core.plan.{scheme}")
        out[f"core.plan_s.{scheme}"] = tracer.seconds(f"core.plan.{scheme}")
        plan_s += out[f"core.plan_s.{scheme}"]
    out["streaming.sessions"] = sessions
    out["streaming.dynamics_self_s"] = sum(session_s.values()) - plan_s

    hits = misses = writes = 0
    for store in stores:
        hits += store.stats.total_hits
        misses += store.stats.total_misses
        writes += sum(store.stats.writes.values())
    out["experiments.artifact_hits"] = hits
    out["experiments.artifact_misses"] = misses
    out["experiments.artifact_writes"] = writes
    out["experiments.store_bytes"] = stores[0].size_bytes()
    covered = sum(self_s.get(span, 0.0) for span in COLD_COVERAGE_SPANS)
    out["tracing.cold_coverage_pct"] = 100.0 * covered / wall_s
    return out


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------


def instrument_serving(tracer: Tracer) -> dict:
    """Codec timers on both ends, a span per ``plan_batch`` call.

    The server decodes each request line into a fresh ``PlanRequest``;
    the decode wrapper remembers which request id each object carries,
    so the ``plan_batch`` span can stamp when each request's planning
    started (its queue wait ends there).
    """
    import repro.serving.protocol as protocol
    import repro.serving.server as server
    from repro.serving import VideoPlanner

    instrument_common(tracer)
    batch_start: dict[int, float] = {}  # request id -> plan_batch start
    ids_by_object: dict[int, object] = {}

    decode = server.decode_request_line

    def decode_and_remember(line):
        request_id, request = decode(line)
        ids_by_object[id(request)] = request_id
        return request_id, request

    server.decode_request_line = decode_and_remember
    for module, attr in ((server, "decode_request_line"),
                         (server, "encode_response_line"),
                         (protocol, "encode_request_line"),
                         (protocol, "decode_response_line")):
        tracer.patch_timer(module, attr, "serving.codec")

    def stamp(index, args, kwargs):
        start = tracer.spans[index][1]
        for request in args[1]:
            request_id = ids_by_object.pop(id(request), None)
            if request_id is not None:
                batch_start[request_id] = start

    tracer.patch_span(VideoPlanner, "plan_batch", "serving.plan_batch",
                      on_call=stamp)
    return batch_start


def serving_metrics(tracer: Tracer, batch_start: dict, snapshot: dict,
                    reference: dict, ptile_share: float) -> dict[str, float]:
    """``reference`` holds the fixed-rate phase's due times, answer
    latencies and how late the generator sent each request;
    ``ptile_share`` is the share of answers that chose a Ptile.

    Each reference request also gets two spans keyed by its request id:
    ``serving.request`` (due to answered) and ``serving.queue_wait``
    (due to the start of its ``plan_batch`` span).
    """
    for rid, due in reference["due"].items():
        tracer.add_span("serving.request", due,
                        due + reference["latency"][rid], request_id=rid)
        if rid in batch_start:
            tracer.add_span("serving.queue_wait", due, batch_start[rid],
                            request_id=rid)
    out = common_metrics(tracer)
    out["ptile.hit_rate"] = ptile_share
    out["serving.requests"] = snapshot["requests"]
    out["serving.errors"] = snapshot["errors"]
    out["serving.batches"] = snapshot["batches"]
    out["serving.mean_batch_size"] = snapshot["mean_batch_size"]
    out["serving.plan_batch_s"] = tracer.total("serving.plan_batch")
    out["serving.codec_s"] = tracer.seconds("serving.codec")
    waits = [
        (end - start) * 1e3
        for name, start, end, _, _ in tracer.spans
        if name == "serving.queue_wait"
    ]
    out["serving.queue_wait_p50_ms"] = percentile(waits, 0.50)
    out["serving.queue_wait_p99_ms"] = percentile(waits, 0.99)
    out["serving.gen_late_p99_ms"] = percentile(
        [x * 1e3 for x in reference["late"]], 0.99)
    return out
