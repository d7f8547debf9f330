"""One pass of the ``sweep`` workload, in its own interpreter.

Runs the canonical paper workload against the store directory it is
given, which makes the pass cold on an empty directory and warm after a
cold pass:
``make_setup(max_duration_s=60)`` then ``run_comparison`` on Pixel 3,
2 users per video, ``workers=1``, with an ``ArtifactStore`` and a
``ShardedResultsStore`` on that directory.  ``run_comparison`` is strict:
any failed session raises and fails the pass.

The result file carries every session's aggregates (energy, mean QoE,
rebuffer count, segments) so the parent can compare cold with warm
exactly, plus both stores' hit/miss/write counters.
"""

from __future__ import annotations

import time

from common import pass_args, write_result


def main() -> None:
    args = pass_args(
        ("--store", {"required": True,
                     "help": "artifact and results store directory"}),
    )
    from repro.experiments import (
        ArtifactStore, ShardedResultsStore, make_setup, run_comparison,
    )
    from repro.power import PIXEL_3

    tracer = sweep_runs = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        sweep_runs = layers.instrument_sweep(tracer)

    artifacts = ArtifactStore(args.store)
    results = ShardedResultsStore(args.store)
    t_first = time.perf_counter()
    setup = make_setup(max_duration_s=60, seed=args.seed, artifacts=artifacts)
    matrix = run_comparison(setup, PIXEL_3, users_per_video=2, workers=1,
                            results_store=results)
    t_end = time.perf_counter()

    sessions = [
        [trace, scheme, video, user, s.total_energy_j,
         s.session_qoe.mean_q, s.rebuffer_count, s.num_segments]
        for (trace, scheme, video), group in matrix.items()
        for user, s in enumerate(group)
    ]
    result = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "sessions": sessions,
        "stores": {
            name: {"hits": store.stats.total_hits,
                   "misses": store.stats.total_misses,
                   "writes": sum(store.stats.writes.values())}
            for name, store in (("artifacts", artifacts),
                                ("results", results))
        },
    }
    if tracer is not None:
        import layers

        result["layers"] = layers.sweep_metrics(
            tracer, sweep_runs, matrix, (artifacts, results), t_end - t_first)
        tracer.write(args.spans)
    write_result(args.out, result)


if __name__ == "__main__":
    main()
