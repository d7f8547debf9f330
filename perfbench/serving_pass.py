"""One pass of the ``serving`` workload, in its own interpreter.

Starts ``DecisionService`` over ``build_planners`` for all 8 videos and
``serve_tcp`` on this process's own event loop, then drives it through
2 TCP connections from that same loop: one process, one thread, no
cross-thread handoff anywhere in the measured path.

Every request is a fresh seeded draw, as from real clients: a video, a
segment, a training user's real viewport at a random instant of that
segment (interpolated, so no two viewports are equal), a buffer level,
a bandwidth estimate and a switching speed.  No timed request repeats
one sent before, so per-request geometry (the tile grid's viewport
cache) and frame-rate factors (the planner's per-alpha memo) are
computed for each, and those memos grow over the run as they would in
a long-lived service.  Each phase draws its requests just before it
starts, outside its timing.  Phases, in order:

1. Warm-up: a closed loop of ``WARMUP_REQUESTS`` requests from a
   separate seeded stream, disjoint from the timed ones, then a full
   garbage collection.  The plan tables are primed when the planners
   are built; warm-up runs the code paths once.  Set-up ends after it.
2. Timed phases:

   - a reference step: an open loop at ``REFERENCE_RPS``, far below
     saturation; its p50 and p99 (``serve_p50_ms``, ``serve_p99_ms``);
   - ``FLOODS`` floods: closed loops, each connection keeping
     ``FLOOD_WINDOW`` requests in flight; ``main_ops_per_s`` is the
     rate of the median flood;
   - after each of the first ``--ladder-steps`` floods, one open-loop
     step of a rate ladder, so floods and steps alternate and both
     sample the whole run: an up-down staircase on the fixed rate grid
     ``LADDER_BASE_RPS * LADDER_STEP**k``, up after a step that meets
     the limit and down after a miss, two grid points a step until its
     first reversal and one after.  It starts at the grid point below
     ``LADDER_START`` times the first flood's rate.
     ``second_ops_per_s`` is the median rate over the last half of the
     steps: the rate at which a step meets the limit about half the
     time.

   Garbage-collector pauses over these phases are recorded by
   generation: full collections, which the growing memos bring on,
   are the service's longest stalls (100-300 ms on a 2-vCPU host).

A staircase rather than a climb that stops at its first miss: p99
rises gradually towards the limit, and a full collection landing in a
step breaks the limit at any rate, so where a single climb stops is
mostly chance, while the staircase keeps returning to the limit.  Its
fixed length also fixes the number of requests a run sends, so every
run's memos, and its peak RSS, grow by the same amount.

Every step sends ``--requests-per-step`` requests (``run.py`` passes
125 per ``--seconds``: 750, seven samples beyond the p99, at its
default).  On a shared host, the CPU speed swings by up to 1.8x over
seconds to minutes; medians over phases spread across the run vary
less from run to run than the best phase does.

Open-loop latency is timed from each request's due time, so a stalled
generator's delay counts against the server; how late the generator
ran is reported per phase.  A step misses when any request errors, its
p99 exceeds ``LIMIT_P99_MS`` (a request still unanswered counts with
the time it has waited so far), or the backlog sampled at each quarter
of the step rises every time by more than one batch.  The service's
queue is unbounded, so a step whose backlog passes ``ABORT_BACKLOG_S``
worth of arrivals stops sending at once rather than drain for long.

Afterwards a seeded sample of answers (every ``CHECK_STRIDE``-th id
from a seeded offset) is compared with ``VideoPlanner.plan_one`` run
in process.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time

import numpy as np

import repro.serving.protocol as protocol
from common import pass_args, percentile, write_result
from repro.experiments import make_setup
from repro.serving import (
    DecisionService, PlanRequest, PlanRequestError, build_planners, serve_tcp,
)

LIMIT_P99_MS = 50.0
REFERENCE_RPS = 300.0
FLOODS = 15  # each followed by a ladder step, while any are left
LADDER_BASE_RPS = 100.0
LADDER_STEP = 1.04  # two grid points, the climb before a miss, are 8 %
LADDER_START = 0.55  # first step: the grid point below 0.55 x flood rate
CONNECTIONS = 2
FLOOD_WINDOW = 32
WARMUP_REQUESTS = 2048
CHECK_STRIDE = 64  # every 64th answer (seeded offset) is re-planned
ABORT_BACKLOG_S = 0.5
DRAIN_GRACE_S = 0.25
BACKLOG_SLACK = 64  # one full batch (ServiceConfig.max_batch)


class RequestSampler:
    """Fresh seeded plan requests from one random stream.

    The viewport is the training user's orientation at a uniformly
    drawn instant within the segment, interpolated as
    ``HeadTrace.orientation_at`` does but without its per-instant memo,
    which would grow this process by one entry per request.
    """

    def __init__(self, setup, planners, seed: int, stream: int):
        self.rng = np.random.default_rng([seed, 360, stream])
        self.seg_s = setup.session_config.segment_seconds
        self.fov = setup.session_config.fov_deg
        self.planners = planners
        self.videos = sorted(planners)
        self.traces = {v: setup.dataset.train_traces(v) for v in self.videos}

    def draw(self, count: int) -> list:
        rng = self.rng
        requests = []
        for _ in range(count):
            video = self.videos[rng.integers(len(self.videos))]
            train = self.traces[video]
            trace = train[rng.integers(len(train))]
            k = int(rng.integers(self.planners[video].num_segments))
            t = float(np.clip((k + rng.uniform()) * self.seg_s,
                              trace.timestamps[0], trace.timestamps[-1]))
            yaw = float(np.interp(t, trace.timestamps, trace.yaw_unwrapped))
            pitch = float(np.interp(t, trace.timestamps, trace.pitch))
            requests.append(PlanRequest(
                video_id=int(video), segment_index=k,
                buffer_s=float(rng.uniform(0.0, 3.0)),
                bandwidth_mbps=float(rng.uniform(2.0, 17.0)),
                yaw=yaw % 360.0, pitch=pitch,
                fov_h=self.fov, fov_v=self.fov,
                speed_deg_s=float(rng.uniform(0.0, 60.0)),
                segment_seconds=self.seg_s,
            ))
        return requests


class GcPauses:
    """Garbage-collector pauses by generation, from ``gc.callbacks``."""

    def __init__(self):
        self.pauses: dict[int, list[float]] = {0: [], 1: [], 2: []}
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._start = now
        else:
            self.pauses[info["generation"]].append(now - self._start)

    def close(self) -> dict:
        gc.callbacks.remove(self._callback)
        full = self.pauses[2]
        return {
            "full_collections": len(full),
            "full_pause_s": sum(full),
            "max_full_pause_ms": max(full, default=0.0) * 1e3,
            "young_collections": len(self.pauses[0]) + len(self.pauses[1]),
            "young_pause_s": sum(self.pauses[0]) + sum(self.pauses[1]),
        }


class LoadClient:
    """Pipelined newline-JSON connections driven from the running loop.

    ``send`` takes the next request of those ``load`` gave it; request
    ``i`` goes out on connection ``i % CONNECTIONS`` unless a connection
    is named.  Only the requests and answers sampled for checking are
    retained: holding every decoded plan would grow the old GC
    generation until a full collection (over 100 ms on a 2-vCPU host)
    stalled the shared loop mid-phase.
    """

    def __init__(self, keep_offset: int):
        self.keep_offset = keep_offset
        self.sent = 0
        self.due: dict[int, float] = {}  # outstanding id -> due time
        self.latency: dict[int, float] = {}  # answered id -> seconds
        self.failed: set[int] = set()  # ids answered with an error
        self.sampled: dict[int, PlanRequest] = {}  # sampled id -> request
        self.kept: dict[int, object] = {}  # sampled id -> plan
        self.plans = 0  # answers that carry a plan
        self.ptile_plans = 0  # of which chose a Ptile
        self._requests = iter(())
        self.on_answer = None
        self._writers = []
        self._readers = []
        self._idle = asyncio.Event()
        self._idle.set()

    async def connect(self, port: int) -> None:
        for conn in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self._writers.append(writer)
            self._readers.append(
                asyncio.create_task(self._read(reader, conn)))

    @property
    def outstanding(self) -> int:
        return len(self.due)

    def load(self, requests: list) -> None:
        """The requests the next ``len(requests)`` sends carry."""
        self._requests = iter(requests)

    def send(self, due: float, conn: int | None = None) -> int:
        rid = self.sent
        request = next(self._requests)
        if rid % CHECK_STRIDE == self.keep_offset:
            self.sampled[rid] = request
        self.sent += 1
        self.due[rid] = due
        self._idle.clear()
        line = protocol.encode_request_line(rid, request)
        self._writers[rid % CONNECTIONS if conn is None else conn].write(line)
        return rid

    async def _read(self, reader, conn: int) -> None:
        while line := await reader.readline():
            now = time.perf_counter()
            try:
                rid, plan = protocol.decode_response_line(line)
            except PlanRequestError as err:
                rid = err.request_id
                self.failed.add(rid)
            else:
                self.plans += 1
                self.ptile_plans += plan.used_ptile
                if rid % CHECK_STRIDE == self.keep_offset:
                    self.kept[rid] = plan
            self.latency[rid] = now - self.due.pop(rid)
            if self.on_answer is not None:
                self.on_answer(conn)
            if not self.due:
                self._idle.set()

    async def drain(self, timeout: float) -> bool:
        """Wait until nothing is outstanding; False on timeout."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            await writer.wait_closed()
        await asyncio.gather(*self._readers)


async def closed_loop(client: LoadClient, requests: list, window: int) -> float:
    """Send ``requests`` keeping ``window`` in flight per connection;
    returns the wall time until the last answer."""
    client.load(requests)
    remaining = len(requests)

    def refill(conn: int) -> None:
        nonlocal remaining
        if remaining > 0:
            remaining -= 1
            client.send(time.perf_counter(), conn)

    t0 = time.perf_counter()
    for conn in range(CONNECTIONS):
        for _ in range(min(window, remaining)):
            remaining -= 1
            client.send(t0, conn)
    client.on_answer = refill
    try:
        if not await client.drain(120.0):
            raise RuntimeError("closed loop did not finish")
    finally:
        client.on_answer = None
    return time.perf_counter() - t0


async def open_loop(client: LoadClient, rate: float, requests: list):
    """Send ``requests`` on a fixed schedule at ``rate`` req/s."""
    client.load(requests)
    count = len(requests)
    start = time.perf_counter() + 0.002
    ids, dues, late, backlog = [], [], [], []
    quarter = max(count // 4, 1)
    abort_at = rate * ABORT_BACKLOG_S
    aborted = False
    for i in range(count):
        due = start + i / rate
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = time.perf_counter()
        late.append(now - due)
        dues.append(due)
        ids.append(client.send(due))
        if (i + 1) % quarter == 0:
            backlog.append(client.outstanding)
        if client.outstanding > abort_at:
            aborted = True
            break
    drained = await client.drain(DRAIN_GRACE_S)
    now = time.perf_counter()
    latencies = [
        client.latency[rid] if rid in client.latency
        else now - client.due[rid]
        for rid in ids
    ]
    errors = sum(1 for rid in ids if rid in client.failed)
    growing = (
        len(backlog) >= 4
        and all(a < b for a, b in zip(backlog, backlog[1:]))
        and backlog[-1] - backlog[0] > BACKLOG_SLACK
    )
    step = {
        "rate_rps": rate,
        "sent": len(ids),
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "gen_late_p99_ms": percentile(late, 0.99) * 1e3,
        "backlog": backlog,
        "errors": errors,
        "aborted": aborted,
    }
    step["met"] = (not aborted and errors == 0 and not growing
                   and step["p99_ms"] <= LIMIT_P99_MS)
    if not drained and not await client.drain(30.0):
        raise RuntimeError(f"backlog at {rate:.0f} req/s did not drain")
    return step, dict(zip(ids, dues)), late


async def ladder_step(client: LoadClient, steps: list, k: int,
                      requests: list) -> int:
    """Append one staircase step at grid point ``k`` to ``steps``;
    returns the next grid point.  The staircase moves two grid points a
    step until its first reversal (a miss after meets, or the other way
    round), then one."""
    rate = LADDER_BASE_RPS * LADDER_STEP ** k
    step = (await open_loop(client, rate, requests))[0]
    steps.append(step)
    size = 1 if len({s["met"] for s in steps}) > 1 else 2
    return k + size if step["met"] else max(k - size, 0)


def ladder_rate(steps) -> float | None:
    """Median rate over the last half of the staircase; None if no step
    missed or none met (it never found the limit)."""
    if all(s["met"] for s in steps) or not any(s["met"] for s in steps):
        return None
    return statistics.median(s["rate_rps"] for s in steps[len(steps) // 2:])


async def drive(args, setup, planners, tracer, batch_start) -> dict:
    warm = RequestSampler(setup, planners, args.seed, stream=0)
    timed = RequestSampler(setup, planners, args.seed, stream=1)
    per_step = args.requests_per_step

    def draw() -> list:
        return timed.draw(per_step)

    service = DecisionService(planners)
    await service.start()
    server = await serve_tcp(service, "127.0.0.1", 0)
    client = LoadClient(keep_offset=args.seed % CHECK_STRIDE)
    await client.connect(server.sockets[0].getsockname()[1])
    result = {}
    try:
        # Warm-up requests come from their own stream, so no timed
        # request meets a memo entry they left; the full collection then
        # clears what set-up left for the old GC generation, which would
        # otherwise stall a timed phase.
        await closed_loop(client, warm.draw(WARMUP_REQUESTS), FLOOD_WINDOW)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        before = service.stats.snapshot()
        plans_before = (client.plans, client.ptile_plans)
        pauses = GcPauses()
        result["t_first"] = time.perf_counter()

        reference, ref_due, ref_late = await open_loop(
            client, REFERENCE_RPS, draw())
        floods, steps, k = [], [], None
        for j in range(FLOODS):
            floods.append(await closed_loop(client, draw(), FLOOD_WINDOW))
            if j >= args.ladder_steps:
                continue
            if k is None:
                k = max(math.floor(math.log(
                    LADDER_START * per_step / floods[0]
                    / LADDER_BASE_RPS, LADDER_STEP)), 0)
            k = await ladder_step(client, steps, k, draw())
        result["reference"] = reference
        result["flood"] = {"requests": per_step, "wall_s": floods,
                           "rps": per_step / statistics.median(floods)}
        result["ladder"] = steps
        result["max_rps"] = ladder_rate(steps)
        result["gc"] = pauses.close()
        after = service.stats.snapshot()
        stats = {key: after[key] - before[key]
                 for key in ("requests", "errors", "batches")}
        stats["mean_batch_size"] = stats["requests"] / stats["batches"]
        result["stats"] = stats
        if tracer is not None:
            import layers

            result["layers"] = layers.serving_metrics(
                tracer, batch_start, stats,
                {"due": ref_due, "late": ref_late,
                 "latency": client.latency},
                (client.ptile_plans - plans_before[1])
                / (client.plans - plans_before[0]))
    finally:
        await client.close()
        for _ in range(500):  # the server closes its side after EOF
            if not server.repro_connections:
                break
            await asyncio.sleep(0.01)
        server.close()
        await server.wait_closed()
        await service.close()

    mismatched = 0
    for rid, plan in client.kept.items():
        request = client.sampled[rid]
        mismatched += plan != planners[request.video_id].plan_one(request)
    result.update(sent=client.sent, answered=len(client.latency),
                  errors=len(client.failed), checked=len(client.kept),
                  mismatched=mismatched)
    return result


def main() -> None:
    args = pass_args(
        ("--requests-per-step", {"type": int, "default": 1000}),
        ("--ladder-steps", {"type": int, "default": FLOODS,
                            "help": "open-loop ladder steps"}),
    )
    tracer = batch_start = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        batch_start = layers.instrument_serving(tracer)

    setup = make_setup(max_duration_s=60, seed=args.seed)
    planners = build_planners(setup)
    result = asyncio.run(drive(args, setup, planners, tracer, batch_start))
    if tracer is not None:
        tracer.write(args.spans)
    write_result(args.out, result)


if __name__ == "__main__":
    main()
