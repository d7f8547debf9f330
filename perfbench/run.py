"""Repository benchmark: the paper path end to end, and split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 6 --trace 0

``--trace 0`` prints every end-to-end metric of the workload, one per
line with its unit, and as the last line one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
instead runs the workload twice, untraced and then traced, and reports
the per-layer metrics plus ``tracing.overhead_s`` (traced wall time
minus untraced wall time of the same timed work).  End-to-end metrics
always come from untraced runs.

The program is called only through its public API (``repro.experiments``,
``repro.serving``); nothing under ``src/`` changes.
Every timed pass runs in its own interpreter, with a fresh temporary
store that ``REPRO_ARTIFACT_CACHE`` points at (the user's cache is never
read or written), ``workers=1``, and ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1.  In-process memos
(the tile grid's viewport cache, the MPC plan tables, manifest sizes)
would otherwise carry over from one pass to the next: a second
in-process pass of the same sweep runs its sessions about 40 % faster.
``--seed`` feeds ``make_setup`` and the request sampler; the sweep's
second store gets its own dataset from a seed derived from ``--seed``
(``pass_seed``).  Each run writes ``result.json`` (metrics, per-pass
details, and the seed, git commit, source digest, CPU count, Python and
numpy versions and thread settings, so two result files can be checked
as comparable) and, when traced, the spans, under ``.perfbench/``.

Workloads
---------
``sweep``
    The ROADMAP's canonical paper workload, run cold, then warm.  The
    cold pass is ``make_setup(max_duration_s=60)`` then
    ``run_comparison`` on Pixel 3 with 2 users per video, ``workers=1``,
    an ``ArtifactStore`` and a ``ShardedResultsStore`` on an empty
    directory: 160 sessions, 5 schemes x 8 videos x 2 traces.  A warm
    pass is a further interpreter on the same directory.  The run
    makes two stores, each on its own dataset, and on each a cold pass
    then two warm passes.  This is the figure-regeneration path.  Cold,
    its time goes to trace synthesis, Ptile geometry, encoder sizes,
    scalar MPC (Ours beside the schemes without it) and session
    dynamics, and it writes the store; warm, it only
    synthesizes traces and reads the store, so the store layer is
    measured writing beside reading.  Checks: the run is strict (a
    failed session fails the pass), each warm pass's per-session
    energy, QoE, rebuffer count and segments equal cold exactly, and
    every warm artifact and results lookup is a hit.
``serving``
    ``DecisionService`` over ``build_planners`` for all 8 videos behind
    ``serve_tcp``, driven over 2 TCP connections from the same event
    loop (one process, one thread).  The online form of
    bounded-lookahead tile rate adaptation: many clients, one decision
    per segment each.  It is the only workload that uses the
    dispatcher, ``choose_batch`` and the wire protocol.  Every request
    is a fresh seeded draw (no timed request repeats an earlier one),
    so per-request geometry and frame-rate factors are computed, and
    their memos grow, as in a long-lived service.  An open loop at a
    fixed reference rate, closed-loop floods, and an open-loop rate
    ladder (an up-down staircase of fixed length); see
    ``serving_pass.py``.  Checks: every request is answered without
    error, and a seeded sample equals ``VideoPlanner.plan_one`` in
    process.

``PopulationEngine`` has no workload: its rates moved with the host's
speed swings by more than a quarter of their median over ten runs, and
runs long enough to smooth them did not fit the benchmark's time beside
these two.  The sweep's cold pass runs Ours beside the schemes without
MPC, so it also shows an MPC change against a control.

End-to-end metrics (``--trace 0``)
----------------------------------
Every workload reports the same four metrics, each measured its own
way: one run prints all of them, so each workload maps its two rates
onto ``main_ops_per_s`` (the path that computes most) and
``second_ops_per_s`` (the path beside it).

``setup_s``          s, lower is better: interpreter start to the
                     first timed call.  ``sweep``: imports, median of
                     its 6 passes.  ``serving``: also
                     ``make_setup``, planner construction and warm-up,
                     from its one pass (it builds every video's Ptiles,
                     too slow to repeat within a run).
``peak_rss_mb``      MB, lower is better: largest peak RSS of the
                     run's passes.
``main_ops_per_s``   1/s, higher is better.  ``sweep``: sessions per
                     second of the cold passes (``make_setup`` +
                     ``run_comparison``, 160 sessions each).
                     ``serving``: decisions per second of the median
                     closed-loop flood.
``second_ops_per_s`` 1/s, higher is better.  ``sweep``: sessions per
                     second of the warm passes (every lookup a store
                     hit).  ``serving``: the open-loop rate at which a
                     step meets p99 <= 50 ms, no error and no growing
                     backlog about half the time: median rate over the
                     last half of an up-down staircase's steps.

Each run also prints, marked as not bounded and kept in
``result.json``: ``sweep_cold_s`` and ``sweep_warm_s`` (the pass times
behind the sweep's rates), ``ours_energy_saving_pct`` (1 - E/seg(Ours)
/ E/seg(Ctile) over the matrix, deterministic per seed, a paper-fidelity
guard) and ``ours_qoe_ratio`` (mean session QoE of Ours / Ctile) on
``sweep``; ``serve_p50_ms`` and ``serve_p99_ms`` (from due time, one
step at the fixed reference rate) on ``serving``, which the traced run
reports as ``serving.reference_p50_ms`` and ``serving.reference_p99_ms``.

Rates are totals or medians over work spread across the run.  On a
shared 2-vCPU host the CPU speed swings by up to 1.8x over seconds to
minutes (one run's serving floods ranged from 835 to 1790 decisions
per second), and one dataset's sessions can cost more than another's.
So sweep sums two cold and four warm passes on two datasets, and
serving takes the median of fifteen floods that alternate with its
ladder steps.  Medians varied less from run to run than best-of-phases
did (flood rate 0.11 against 0.24 of the median, interquartile, over
twenty runs).

``serve_p99_ms`` is not bounded because on a 2-vCPU shared host its
spread over ten seeds ranged from 0.15 to 1.2 of its median, set to
set: whole runs met host stalls of 15-20 ms, visible as the same rise
in the load generator's own lateness, which no number of rounds within
a run avoided.  With fresh requests, the service's full garbage
collections (100-300 ms each, a few per run) land in some reference
steps and not others, too.

Per-layer metrics (``--trace 1``), and what each should move
-----------------------------------------------------------
Timings are call counts and total seconds; ``<name>_s`` of a span is
its self time.  Sweep metrics come from the cold pass; a ``.warm``
suffix marks the same metric taken on the warm pass (the traced run
makes one).  Every workload prints every per-layer metric; one its
timed work never reaches (``layers.NOT_REACHED``: the store and the
set-up layers, which serving runs before timing, on serving; the
service on sweep) reads zero.  Below, "cold" and "warm" are
``main_ops_per_s`` and ``second_ops_per_s`` on sweep; "flood" and
"max rate" the same on serving.

=========== ============================================ ========================
layer       per-layer metrics                            moves (workload)
=========== ============================================ ========================
traces      traces.build_dataset_s, traces.head_traces   warm (most of it) and
                                                         cold (sweep); only
                                                         setup_s elsewhere
video       video.encoder_size_calls, _s (EncoderModel   cold; near zero warm
            region/tile/tiled_region sizes, manifest     (sweep)
            memo misses only)
geometry    geometry.viewport_tiles_calls, _s            cold via ptile (sweep);
                                                         flood and max rate via
                                                         per-request planning
                                                         (serving)
ptile       ptile.build_video_ptiles_s,                  cold (sweep)
            ptile.segments_built; ptile.hit_rate
            (useful-work ratio, should not change)
streaming   streaming.build_video_ftiles_s,              cold (sweep)
            streaming.session_s.<scheme>,
            streaming.sessions, streaming.dynamics_self_s
            (session time minus core.plan_s)
prediction  prediction.predict_calls, _s                 cold (sweep)
core        core.plan_calls.<scheme>, core.plan_s.<s.>,  the Ours share of
            core.mpc_choose_calls, _s                    cold, Ctile's flat
                                                         (sweep)
            core.mpc_choose_batch_calls, _s,             flood, max rate,
            core.mpc_batch_size_mean                     reference p99 (serving)
experiments experiments.run_session_jobs_s,              reads: warm; writes:
            artifact_{hits,misses,writes},               cold (sweep)
            artifact_get_s, artifact_put_s,
            results_read_s, results_merge_s, store_bytes
serving     serving.requests, errors, batches,           flood, max rate
            mean_batch_size, plan_batch_s, codec_s       (serving)
            (protocol encode and decode, both ends),
            queue_wait_p50_ms, queue_wait_p99_ms (due
            time to the start of the request's
            plan_batch span, reference phase),
            gen_late_p99_ms, reference_p50_ms and
            reference_p99_ms (the untraced pass's
            serve_p50_ms and serve_p99_ms),
            gc_full_collections, gc_full_pause_s (the
            untraced pass's full collections over the
            timed phases: GC pressure of growing memos)
tracing     tracing.overhead_s; tracing.cold_coverage_   (all)
            pct: summed self time of traces.build_
            dataset, ptile.build_video_ptiles,
            streaming.build_video_ftiles,
            experiments.run_session_jobs and
            experiments.results_merge over the traced
            cold pass (sweep)
=========== ============================================ ========================
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every pass must end within this much of the start: a fixed set-up
# allowance plus a share that grows with --seconds, which sizes the
# serving phases (150 s at the default of 6).
BUDGET_FIXED_S = 90.0
BUDGET_PER_SECOND_S = 10.0
# Sweep stores per run, each on its own dataset (``pass_seed``): one
# cold pass and one warm pass spread 0.29 and 0.27 of their medians
# over ten seeds on a 2-vCPU host, whose speed swings for tens of
# seconds at a time.
SWEEP_STORES = 2
SWEEP_WARM_PASSES = 2  # per store
# Serving ladder steps, untraced; the traced run skips the ladder to
# stay within the run budget.
SERVING_LADDER_STEPS = 15

# Warm-pass copies of the sweep metrics that move its warm rate.
SWEEP_WARM_LAYERS = (
    "traces.build_dataset_s",
    "experiments.run_session_jobs_s",
    "experiments.artifact_hits",
    "experiments.artifact_get_s",
    "experiments.results_read_s",
)


class PassFailed(RuntimeError):
    pass


def pass_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th dataset, derived from ``--seed``."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


class Bench:
    """Starts passes in fresh interpreters and keeps their outputs."""

    def __init__(self, root: Path, out_dir: Path, args):
        self.root = root
        self.out_dir = out_dir
        self.args = args
        self.deadline = time.perf_counter() + (
            BUDGET_FIXED_S + BUDGET_PER_SECOND_S * args.seconds)
        self.scratch = Path(tempfile.mkdtemp(prefix="stores-", dir=out_dir))
        self.passes: dict[str, dict] = {}

    def fresh_store(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def env(self, store: Path) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        env["REPRO_ARTIFACT_CACHE"] = str(store)
        env["XDG_CACHE_HOME"] = str(store)
        env["PYTHONHASHSEED"] = "0"
        for name in THREAD_ENV:
            env[name] = "1"
        return env

    def run(self, script: str, name: str, *flags: str, store: Path | None = None,
            trace: bool = False, index: int = 0) -> dict:
        """Run one pass on the inputs of ``pass_seed(seed, index)``; its
        result gains ``setup_s`` from spawn time."""
        out = self.out_dir / f"{name}.json"
        cmd = [sys.executable, str(HERE / script), "--out", str(out),
               "--seed", str(pass_seed(self.args.seed, index)),
               "--trace", str(int(trace))]
        if trace:
            cmd += ["--spans", str(self.out_dir / f"{name}.spans.json")]
        cmd += list(flags)
        store = store or self.fresh_store()
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise PassFailed(f"{name}: no time left in the run budget")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env(store),
                                  stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{name}: timed out") from None
        if proc.returncode != 0:
            raise PassFailed(f"{name}: exit code {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_first"] - t_spawn
        self.passes[name] = result
        return result


class Outcome:
    """What a workload reports: metrics, operation counts, problems."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A measured value printed and kept in ``result.json`` but not
        one of the benchmark's bounded metrics."""
        self.notes[name] = (float(value), unit)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def sweep_passes(bench: Bench, out: Outcome, tag: str, trace: bool,
                 index: int = 0, warm_passes: int = 1):
    """A cold pass, then warm passes on the same fresh store, each
    cross-checked against the cold one."""
    store = bench.fresh_store()
    flags = ("--store", str(store))
    cold = bench.run("sweep_pass.py", f"cold{tag}", *flags, store=store,
                     trace=trace, index=index)
    sessions = len(cold["sessions"])
    out.attempted += sessions
    warms = []
    for i in range(warm_passes):
        warm = bench.run("sweep_pass.py", f"warm{tag}-{i}", *flags,
                         store=store, trace=trace, index=index)
        warms.append(warm)
        out.attempted += sessions
        mismatched = sum(
            a != b for a, b in zip(cold["sessions"], warm["sessions"]))
        mismatched += abs(sessions - len(warm["sessions"]))
        results = warm["stores"]["results"]
        artifacts = warm["stores"]["artifacts"]
        out.failed += mismatched + results["misses"]
        out.check(mismatched == 0,
                  f"{mismatched} warm sessions differ from cold")
        out.check(results["hits"] == sessions and results["misses"] == 0
                  and results["writes"] == 0,
                  f"warm results lookups not all hits: {results}")
        out.check(artifacts["hits"] > 0 and artifacts["misses"] == 0
                  and artifacts["writes"] == 0,
                  f"warm artifact lookups not all hits: {artifacts}")
    return cold, warms


def energy_summary(sessions) -> tuple[float, float]:
    """(Ours energy saving %, Ours/Ctile mean-QoE ratio) over the matrix."""
    energy, segments, qoe = {}, {}, {}
    for _, scheme, _, _, joules, mean_q, _, n in sessions:
        energy[scheme] = energy.get(scheme, 0.0) + joules
        segments[scheme] = segments.get(scheme, 0) + n
        qoe.setdefault(scheme, []).append(mean_q)
    per_segment = {s: energy[s] / segments[s] for s in energy}
    saving = 100.0 * (1.0 - per_segment["ours"] / per_segment["ctile"])
    return saving, statistics.fmean(qoe["ours"]) / statistics.fmean(qoe["ctile"])


def run_sweep(bench: Bench, out: Outcome) -> None:
    if bench.args.trace:
        cold, (warm,) = sweep_passes(bench, out, "", trace=False)
        tcold, (twarm,) = sweep_passes(bench, out, "-traced", trace=True)
        for name, value in tcold["layers"].items():
            out.add(name, value, layer_unit(name))
        for name in SWEEP_WARM_LAYERS:
            out.add(f"{name}.warm", twarm["layers"][name], layer_unit(name))
        out.add("tracing.overhead_s", tcold["wall_s"] + twarm["wall_s"]
                - cold["wall_s"] - warm["wall_s"], "s")
        return
    stores = [sweep_passes(bench, out, f"-{i}", trace=False, index=i,
                           warm_passes=SWEEP_WARM_PASSES)
              for i in range(SWEEP_STORES)]
    colds = [cold for cold, _ in stores]
    warms = [warm for _, store_warms in stores for warm in store_warms]
    passes = colds + warms
    out.add("setup_s", statistics.median(p["setup_s"] for p in passes), "s")
    out.add("peak_rss_mb", max(p["peak_rss_mb"] for p in passes), "MB")
    for metric, group in (("main_ops_per_s", colds),
                          ("second_ops_per_s", warms)):
        out.add(metric, sum(len(p["sessions"]) for p in group)
                / sum(p["wall_s"] for p in group), "1/s")
    out.note("sweep_cold_s", statistics.fmean(p["wall_s"] for p in colds), "s")
    out.note("sweep_warm_s", statistics.fmean(p["wall_s"] for p in warms), "s")
    savings, ratios = zip(*(energy_summary(p["sessions"]) for p in colds))
    out.note("ours_energy_saving_pct", statistics.fmean(savings), "%")
    out.note("ours_qoe_ratio", statistics.fmean(ratios), "ratio")


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------


def serving_pass(bench: Bench, out: Outcome, name: str, trace: bool,
                 ladder_steps: int = 0):
    result = bench.run(
        "serving_pass.py", name,
        "--requests-per-step", str(125 * bench.args.seconds),
        "--ladder-steps", str(ladder_steps), trace=trace)
    unanswered = result["sent"] - result["answered"]
    out.attempted += result["sent"]
    out.failed += result["errors"] + unanswered + result["mismatched"]
    out.check(result["errors"] == 0 and unanswered == 0,
              f"{name}: {result['errors']} errors, {unanswered} unanswered")
    out.check(result["mismatched"] == 0,
              f"{name}: {result['mismatched']} of {result['checked']}"
              " sampled answers differ from in-process planning")
    out.check(not ladder_steps or result["max_rps"] is not None,
              f"{name}: the ladder did not find the latency limit")
    return result


def run_serving(bench: Bench, out: Outcome) -> None:
    if bench.args.trace:
        plain = serving_pass(bench, out, "serving", trace=False)
        traced = serving_pass(bench, out, "serving-traced", trace=True)
        for name, value in traced["layers"].items():
            out.add(name, value, layer_unit(name))
        out.add("serving.reference_p50_ms", plain["reference"]["p50_ms"], "ms")
        out.add("serving.reference_p99_ms", plain["reference"]["p99_ms"], "ms")
        out.add("serving.gc_full_collections",
                plain["gc"]["full_collections"], "count")
        out.add("serving.gc_full_pause_s", plain["gc"]["full_pause_s"], "s")
        out.add("tracing.overhead_s", sum(traced["flood"]["wall_s"])
                - sum(plain["flood"]["wall_s"]), "s")
        return
    main = serving_pass(bench, out, "serving", trace=False,
                        ladder_steps=SERVING_LADDER_STEPS)
    out.add("setup_s", main["setup_s"], "s")
    out.add("peak_rss_mb", main["peak_rss_mb"], "MB")
    out.add("main_ops_per_s", main["flood"]["rps"], "1/s")
    out.add("second_ops_per_s", main["max_rps"] or 0.0, "1/s")
    out.note("serve_p50_ms", main["reference"]["p50_ms"], "ms")
    out.note("serve_p99_ms", main["reference"]["p99_ms"], "ms")


WORKLOADS = {
    "sweep": run_sweep,
    "serving": run_serving,
}


LAYER_UNITS = {"_ms": "ms", "_s": "s", "_pct": "%", "_bytes": "B",
               "_rate": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of ``<module>.<what>[.<qualifier>]``, from ``<what>``'s suffix."""
    what = name.split(".")[1]
    for suffix, unit in LAYER_UNITS.items():
        if what.endswith(suffix):
            return unit
    return "count"


def conform(out: Outcome, root: Path, args) -> None:
    """Order ``out.metrics`` as ``BENCHMARK.json`` lists them.

    A traced run reports as zero each per-layer metric the workload's
    timed work never reaches (``layers.NOT_REACHED``).  Any other
    missing, unknown or mis-unit metric is an error in the benchmark.
    """
    import fnmatch

    from layers import NOT_REACHED

    manifest = json.loads((root / "BENCHMARK.json").read_text())
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in out.metrics:
            value, got = out.metrics.pop(name)
            if got != unit:
                raise ValueError(f"{name} measured in {got}, listed in {unit}")
            metrics[name] = (value, unit)
        elif args.trace and any(fnmatch.fnmatchcase(name, pattern)
                                for pattern in NOT_REACHED[args.workload]):
            metrics[name] = (0.0, unit)
        else:
            raise ValueError(f"{args.workload} did not measure {name}")
    if out.metrics:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(out.metrics)}")
    out.metrics = metrics


# ----------------------------------------------------------------------
# metadata and entry point
# ----------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(root: Path, args, env: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env": {name: env.get(name) for name in THREAD_ENV + ("PYTHONHASHSEED",)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=6,
                        help="sizes the serving phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that ``subprocess.run`` kills
    # and waits for the running pass and the stores are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    # Build step: byte-compile the program so no pass pays for it.
    if not compileall.compile_dir(root / "src", quiet=1):
        print("perfbench: compiling src failed", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    out_dir.mkdir(parents=True)

    bench = Bench(root, out_dir, args)
    out = Outcome()
    try:
        WORKLOADS[args.workload](bench, out)
    except PassFailed as err:
        print(f"perfbench: pass failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)

    try:
        conform(out, root, args)
    except ValueError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    correct = not out.problems and out.failed == 0
    with open(out_dir / "result.json", "w") as fh:
        json.dump({
            "metadata": metadata(root, args, bench.env(bench.scratch)),
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "problems": out.problems,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in out.metrics.items()},
            "notes": {k: {"value": v, "unit": u}
                      for k, (v, u) in out.notes.items()},
            "passes": bench.passes,
        }, fh, indent=1)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, (value, unit) in out.notes.items():
        print(f"{name:44s} {value:14.6g} {unit}  (not bounded)")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
