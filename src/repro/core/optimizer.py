"""MPC + dynamic-programming quality/frame-rate selection (Section IV-C).

The energy-efficient and QoE-aware streaming problem (Eq. 8) minimizes
total energy subject to (a) no rebuffering (Eq. 6-7), (b) one quality
version per segment (8b), and (c) a bounded QoE loss relative to the
best downloadable version (8c, tolerance epsilon = 5 %).

Perfect future knowledge being impossible, the paper solves it online
with Model Predictive Control: at each segment, predict bandwidth for
the next H segments (harmonic mean), solve Eq. 8 over that window by
dynamic programming on a discretized buffer state (500 ms granularity),
apply the first decision, slide the window.  The DP's Bellman equation::

    U*(B_i, v_i, f_i) = min_{v,f} { U*(B_{i-1}, v_{i-1}, f_{i-1}) + E(T_i^{v,f}) }

runs in O(H * V * F) per chosen buffer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.energy import EnergyModel
from ..power.models import TilingScheme

__all__ = ["MpcConfig", "MpcSegment", "MpcWindow", "MpcDecision", "EnergyQoEMpc"]


@dataclass(frozen=True)
class MpcConfig:
    """MPC parameters (paper Section IV-C / V-A defaults)."""

    horizon: int = 5
    buffer_granularity_s: float = 0.5
    buffer_threshold_s: float = 3.0
    qoe_tolerance: float = 0.05  # epsilon in constraint (8c)
    segment_seconds: float = 1.0
    bandwidth_safety: float = 0.9  # discount on the bandwidth estimate

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.buffer_granularity_s <= 0 or self.buffer_threshold_s <= 0:
            raise ValueError("buffer parameters must be positive")
        if not (0.0 <= self.qoe_tolerance < 1.0):
            raise ValueError("tolerance must be in [0, 1)")
        # snap() runs once per DP transition; keep its clamp bound at hand.
        object.__setattr__(self, "_max_state", self.num_states - 1)

    @property
    def num_states(self) -> int:
        return int(round(self.buffer_threshold_s / self.buffer_granularity_s)) + 1

    def state_levels(self) -> np.ndarray:
        """The discretized buffer levels (0 .. beta, 500 ms steps)."""
        return np.arange(self.num_states) * self.buffer_granularity_s

    def snap(self, buffer_s: float) -> int:
        """Nearest state index for a continuous buffer level."""
        idx = int(round(buffer_s / self.buffer_granularity_s))
        return min(max(idx, 0), self._max_state)


@dataclass(frozen=True)
class MpcSegment:
    """Per-segment lookahead data: sizes and quality for every version.

    ``sizes_mbit[v-1, f-1]`` is the download size of the segment with
    bitrate level v and frame-rate index f (both 1-based in the paper);
    ``qoe[v-1, f-1]`` is the predicted per-segment quality
    ``Q_o(v) * factor(f)``.  ``frame_rates[f-1]`` are the actual fps
    values, needed for the decode/render power terms.
    """

    sizes_mbit: np.ndarray
    qoe: np.ndarray
    frame_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_mbit, dtype=float)
        qoe = np.asarray(self.qoe, dtype=float)
        if sizes.shape != qoe.shape or sizes.ndim != 2:
            raise ValueError("sizes and qoe must be equal-shape 2D arrays")
        if sizes.shape[1] != len(self.frame_rates):
            raise ValueError("frame-rate axis mismatch")
        if np.any(sizes <= 0):
            raise ValueError("sizes must be positive")
        object.__setattr__(self, "sizes_mbit", sizes)
        object.__setattr__(self, "qoe", qoe)

    @property
    def num_qualities(self) -> int:
        return int(self.sizes_mbit.shape[0])

    @property
    def num_rates(self) -> int:
        return int(self.sizes_mbit.shape[1])


@dataclass(frozen=True)
class MpcWindow:
    """A whole lookahead window stacked into single tensors.

    ``sizes_mbit[h, v-1, f-1]`` and ``qoe[h, v-1, f-1]`` are the size
    and predicted quality of version (v, f) of the h-th lookahead
    segment (the current segment is ``h = 0``).  All segments share one
    frame-rate ladder, which is what lets :meth:`EnergyQoEMpc.choose`
    compute every per-version download time and Eq. 1 energy for the
    whole horizon in one vectorized pass instead of once per segment.
    A shorter-than-horizon window near the video end is fine.
    """

    sizes_mbit: np.ndarray
    qoe: np.ndarray
    frame_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_mbit, dtype=float)
        qoe = np.asarray(self.qoe, dtype=float)
        if sizes.shape != qoe.shape or sizes.ndim != 3:
            raise ValueError("sizes and qoe must be equal-shape 3D arrays")
        if sizes.shape[0] < 1:
            raise ValueError("need at least one lookahead segment")
        if sizes.shape[2] != len(self.frame_rates):
            raise ValueError("frame-rate axis mismatch")
        if np.any(sizes <= 0):
            raise ValueError("sizes must be positive")
        object.__setattr__(self, "sizes_mbit", sizes)
        object.__setattr__(self, "qoe", qoe)

    @property
    def num_segments(self) -> int:
        return int(self.sizes_mbit.shape[0])

    @property
    def num_qualities(self) -> int:
        return int(self.sizes_mbit.shape[1])

    @property
    def num_rates(self) -> int:
        return int(self.sizes_mbit.shape[2])

    def segments(self) -> list[MpcSegment]:
        """The equivalent per-segment list (for the reference DP)."""
        return [
            MpcSegment(
                sizes_mbit=self.sizes_mbit[i],
                qoe=self.qoe[i],
                frame_rates=self.frame_rates,
            )
            for i in range(self.num_segments)
        ]


@dataclass(frozen=True)
class MpcDecision:
    """The (v, f) decision for the current segment."""

    quality: int  # 1-based bitrate level
    frame_rate_index: int  # 1-based frame-rate index
    frame_rate: float
    planned_energy_j: float  # DP total over the horizon


class EnergyQoEMpc:
    """Solves the horizon problem of Eq. 8 by buffer-state DP.

    :meth:`choose` is the production hot path: the per-(v, f) download
    times and Eq. 1 energies are computed as numpy matrices once per
    lookahead segment instead of once per (state, version) pair, the
    per-frame-rate decode/render energies are cached across calls, and
    the DP scan itself runs over pre-flattened plain-Python lists (at
    the paper's 5x5 version grid, per-element numpy indexing costs more
    than the arithmetic it feeds).  :meth:`choose_reference` keeps the
    original scalar dynamic program; both return bit-identical decisions
    (the fast path replicates the reference's iteration order and
    tie-breaking exactly), which the parity regression test enforces.
    """

    def __init__(self, energy_model: EnergyModel, config: MpcConfig = MpcConfig()):
        self.energy_model = energy_model
        self.config = config
        # (frame_rates tuple) -> (decode_j, render_j) arrays, one per rate.
        self._rate_cache: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}

    def choose(
        self,
        segments: "list[MpcSegment] | MpcWindow",
        bandwidth_mbps: float,
        buffer_s: float,
    ) -> MpcDecision:
        """Pick (v, f) for the first of the lookahead segments.

        ``segments`` holds the current segment first, then up to H-1
        future segments (a shorter list near the video end is fine) —
        either a per-segment :class:`MpcSegment` list or a stacked
        :class:`MpcWindow`.  The stacked form computes every download
        time and Eq. 1 energy for the whole horizon in one vectorized
        pass; both forms feed the same DP scan and return bit-identical
        decisions (numpy elementwise ops don't depend on whether they
        run per 2D segment or over the stacked 3D window).
        """
        if isinstance(segments, MpcWindow):
            return self._choose_window(segments, bandwidth_mbps, buffer_s)
        if not segments:
            raise ValueError("need at least one lookahead segment")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        bandwidth_mbps = bandwidth_mbps * self.config.bandwidth_safety
        window = segments[: self.config.horizon]
        trans_w = self.energy_model.device.transmission_mw * 1e-3

        per_segment = []
        for segment in window:
            dl = segment.sizes_mbit / bandwidth_mbps  # (V, F)
            decode_j, render_j = self._rate_energies(segment.frame_rates)
            # Same association order as _version_energy: (t + d) + r.
            energy = trans_w * dl + decode_j + render_j
            # Flatten to plain-Python lists once: the DP scan below is
            # pure scalar work, where list indexing beats numpy scalar
            # indexing by an order of magnitude at this problem size.
            per_segment.append((
                energy.ravel().tolist(),
                dl.ravel().tolist(),
                dl[:, -1].tolist(),
                segment.qoe.ravel().tolist(),
                segment.qoe[:, -1].tolist(),
                segment.num_qualities,
                segment.num_rates,
            ))
        return self._dp_scan(per_segment, window[0].frame_rates, buffer_s)

    def _choose_window(
        self, window: MpcWindow, bandwidth_mbps: float, buffer_s: float
    ) -> MpcDecision:
        """Stacked hot path: one vectorized energy pass for the horizon."""
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        bandwidth_mbps = bandwidth_mbps * self.config.bandwidth_safety
        horizon = min(window.num_segments, self.config.horizon)
        trans_w = self.energy_model.device.transmission_mw * 1e-3

        sizes = window.sizes_mbit[:horizon]  # (H, V, F)
        qoe = window.qoe[:horizon]
        dl_stack = sizes / bandwidth_mbps
        decode_j, render_j = self._rate_energies(window.frame_rates)
        # Broadcasting the (F,) energy vectors over (H, V, F) applies the
        # exact elementwise ops of the per-segment path — bit-identical.
        energy_stack = trans_w * dl_stack + decode_j + render_j
        v_count = window.num_qualities
        f_count = window.num_rates

        per_segment = []
        for h in range(horizon):
            dl = dl_stack[h]
            per_segment.append((
                energy_stack[h].ravel().tolist(),
                dl.ravel().tolist(),
                dl[:, -1].tolist(),
                qoe[h].ravel().tolist(),
                qoe[h][:, -1].tolist(),
                v_count,
                f_count,
            ))
        return self._dp_scan(per_segment, window.frame_rates, buffer_s)

    def _dp_scan(
        self,
        per_segment: list[tuple],
        first_frame_rates: tuple[float, ...],
        buffer_s: float,
    ) -> MpcDecision:
        """The flat-list DP over precomputed per-segment tables.

        Each entry of ``per_segment`` is ``(energy_flat, dl_flat,
        dl_top, qoe_flat, qoe_top, v_count, f_count)`` with the flat
        index ``j = (v - 1) * f_count + (f - 1)``.
        """
        cfg = self.config
        levels = cfg.state_levels()

        start = cfg.snap(buffer_s)
        costs: dict[int, float] = {start: 0.0}
        paths: dict[int, list[tuple[int, int]]] = {start: []}

        levels_list = levels.tolist()
        seg_s = cfg.segment_seconds
        threshold = cfg.buffer_threshold_s
        one_minus_eps = 1.0 - cfg.qoe_tolerance

        for (energy_flat, dl_flat, dl_top, qoe_flat, qoe_top,
             v_count, f_count) in per_segment:
            n_versions = v_count * f_count

            new_costs: dict[int, float] = {}
            new_paths: dict[int, list[tuple[int, int]]] = {}
            for state, cost in costs.items():
                buffer_level = levels_list[state]
                # Feasible versions, reference semantics: highest
                # bitrate sustainable at the top frame rate sets the
                # QoE floor; candidates must download before the
                # buffer drains.
                cap = seg_s if seg_s < buffer_level else buffer_level
                vm = 0
                for v in range(v_count, 0, -1):
                    if dl_top[v - 1] <= cap:
                        vm = v
                        break
                if vm == 0:
                    # Nothing stall-free: lowest bitrate, QoE tolerance
                    # within its own frame-rate ladder.
                    floor = one_minus_eps * qoe_top[0]
                    feasible = [
                        f for f in range(f_count) if qoe_flat[f] >= floor
                    ]
                else:
                    floor = one_minus_eps * qoe_top[vm - 1]
                    feasible = [
                        j
                        for j in range(n_versions)
                        if dl_flat[j] <= buffer_level
                        and qoe_flat[j] >= floor
                    ]
                    if not feasible:  # pragma: no cover - safety net
                        feasible = [(vm - 1) * f_count + f_count - 1]
                # Flat ascending j is exactly the reference's (v asc,
                # f asc) scan, so strict-< updates reproduce its
                # tie-breaking and dict insertion order.
                for j in feasible:
                    next_level = buffer_level - dl_flat[j]
                    if next_level < 0.0:
                        next_level = 0.0
                    next_level += seg_s
                    target = cfg.snap(
                        next_level if next_level < threshold else threshold
                    )
                    total = cost + energy_flat[j]
                    prev = new_costs.get(target)
                    if prev is None or total < prev:
                        new_costs[target] = total
                        new_paths[target] = paths[state] + [
                            (j // f_count + 1, j % f_count + 1)
                        ]
            costs, paths = new_costs, new_paths

        best_state = min(costs, key=lambda s: costs[s])
        first_v, first_f = paths[best_state][0]
        return MpcDecision(
            quality=first_v,
            frame_rate_index=first_f,
            frame_rate=first_frame_rates[first_f - 1],
            planned_energy_j=float(costs[best_state]),
        )

    def choose_batch(
        self,
        sizes_mbit: np.ndarray,
        qoe: np.ndarray,
        frame_rates: tuple[float, ...],
        bandwidths_mbps: np.ndarray,
        buffers_s: np.ndarray,
    ) -> list[MpcDecision]:
        """Solve B same-shape windows in one dense DP pass.

        ``sizes_mbit`` and ``qoe`` are stacked ``(B, H, V, F)`` tensors
        (one :class:`MpcWindow` per batch row, all sharing one
        frame-rate ladder and horizon length); ``bandwidths_mbps`` and
        ``buffers_s`` are per-request ``(B,)`` vectors.  Returns the
        per-request decisions in batch order, bit-identical to calling
        :meth:`choose` once per row.

        Identity with the scalar DP is not just numerical but
        *order-exact*: the scalar scan resolves equal-cost ties by dict
        insertion order (first state reaching a buffer level owns its
        slot until strictly beaten, and the final ``min`` keeps the
        earliest inserted state among equals).  The dense pass carries
        that order explicitly as an integer rank per (request, state):
        candidate keys ``rank * J + j`` reproduce the (state insertion,
        version index) scan order, winners take the minimal key among
        equal-minimal costs, and next-step ranks are assigned by each
        state's first-reach key.  Ties between float-identical paths —
        common when consecutive segments share size tables — therefore
        break exactly as in :meth:`choose`.
        """
        sizes = np.asarray(sizes_mbit, dtype=float)
        qo_all = np.asarray(qoe, dtype=float)
        if sizes.ndim != 4 or sizes.shape != qo_all.shape:
            raise ValueError("sizes and qoe must be equal-shape (B, H, V, F)")
        bandwidths = np.asarray(bandwidths_mbps, dtype=float)
        buffers = np.asarray(buffers_s, dtype=float)
        batch = sizes.shape[0]
        if bandwidths.shape != (batch,) or buffers.shape != (batch,):
            raise ValueError("bandwidths and buffers must be (B,) vectors")
        if batch == 0:
            return []
        if np.any(bandwidths <= 0):
            raise ValueError("bandwidth must be positive")

        cfg = self.config
        horizon = min(sizes.shape[1], cfg.horizon)
        v_count = sizes.shape[2]
        f_count = sizes.shape[3]
        n_versions = v_count * f_count
        num_states = cfg.num_states
        levels = cfg.state_levels()
        seg_s = cfg.segment_seconds
        threshold = cfg.buffer_threshold_s
        gran = cfg.buffer_granularity_s
        one_minus_eps = 1.0 - cfg.qoe_tolerance
        trans_w = self.energy_model.device.transmission_mw * 1e-3

        bw = bandwidths * cfg.bandwidth_safety
        # Same elementwise ops as the scalar path, broadcast over B.
        dl = sizes[:, :horizon] / bw[:, None, None, None]  # (B, H, V, F)
        decode_j, render_j = self._rate_energies(frame_rates)
        energy = trans_w * dl + decode_j + render_j
        qo = qo_all[:, :horizon]

        dl_flat = dl.reshape(batch, horizon, n_versions)
        qo_flat = qo.reshape(batch, horizon, n_versions)
        en_flat = energy.reshape(batch, horizon, n_versions)
        dl_top = dl[:, :, :, f_count - 1]  # (B, H, V)
        qo_top = qo[:, :, :, f_count - 1]

        b_idx = np.arange(batch)
        j_idx = np.arange(n_versions, dtype=np.int32)
        big_key = np.int32(num_states * n_versions)  # > any rank * J + j
        cap = np.minimum(seg_s, levels)  # (S,)
        src_state = np.repeat(np.arange(num_states), n_versions)
        src_j = np.tile(j_idx, num_states)
        rank_fill = np.broadcast_to(
            np.arange(num_states, dtype=np.int32), (batch, num_states)
        )
        t_range = np.arange(num_states)[None, :, None]
        # ``np.where`` and masked (``where=``) reductions are an order
        # of magnitude slower than plain ufuncs on the (B, S, S*J)
        # working set, so masking is done arithmetically: excluded
        # entries get a huge additive penalty and plain min/argmin do
        # the selection.  Unreached states therefore carry the finite
        # sentinel BIG instead of inf (penalties must compose by
        # addition without producing nan); any cost at or above REACHED
        # means "not a real path".  Real path energies are bounded far
        # below REACHED for any physical input, and reached costs are
        # exact because masking only ever adds 0.0 to live entries.
        BIG = 1e300
        REACHED = 1e250

        # int(round(x)) == np.rint(x): both round half to even.
        start = np.clip(
            np.rint(buffers / gran).astype(np.int64), 0, num_states - 1
        )
        costs = np.full((batch, num_states), BIG)
        costs[b_idx, start] = 0.0
        # rank[b, s] = insertion order of state s in the scalar DP's
        # dict (num_states = never inserted); first_dec[b, s] = flat j
        # of the h=0 decision on the best path into s.
        rank = np.full((batch, num_states), num_states, dtype=np.int32)
        rank[b_idx, start] = 0
        first_dec = np.full((batch, num_states), -1, dtype=np.int64)

        for h in range(horizon):
            dlh = dl_flat[:, h]  # (B, J)
            qoh = qo_flat[:, h]
            enh = en_flat[:, h]
            dth = dl_top[:, h]  # (B, V)
            qth = qo_top[:, h]

            # vm: highest bitrate sustainable at the top frame rate.
            sustain = dth[:, :, None] <= cap[None, None, :]  # (B, V, S)
            has_vm = sustain.any(axis=1)  # (B, S)
            vm = np.where(
                has_vm, v_count - np.argmax(sustain[:, ::-1, :], axis=1), 0
            )
            vm_row = np.maximum(vm - 1, 0)  # row 0 doubles as the vm==0 floor
            floor = one_minus_eps * np.take_along_axis(qth, vm_row, axis=1)

            qoe_ok = qoh[:, None, :] >= floor[:, :, None]  # (B, S, J)
            has_vm3 = has_vm[:, :, None]
            feasible = (
                ((dlh[:, None, :] <= levels[None, :, None]) & has_vm3)
                | ((j_idx[None, None, :] < f_count) & ~has_vm3)
            ) & qoe_ok
            # vm > 0 with nothing feasible: (vm, top f) fallback.
            need_fb = has_vm & ~feasible.any(axis=2)
            if need_fb.any():
                fb_b, fb_s = np.nonzero(need_fb)
                feasible[fb_b, fb_s, (vm[fb_b, fb_s] - 1) * f_count
                         + f_count - 1] = True

            # Target state per (state, version), scalar-snap semantics.
            next_level = np.maximum(
                levels[None, :, None] - dlh[:, None, :], 0.0
            ) + seg_s
            capped = np.minimum(next_level, threshold)
            target = np.clip(
                np.rint(capped / gran).astype(np.int64), 0, num_states - 1
            )

            # Arithmetic masking: invalid candidates get +BIG on their
            # cost and +big_key on their scan key, which keeps every
            # live entry bit-exact (x + 0.0 == x) while pushing dead
            # ones past any real value.
            invalid = ~(feasible & (costs < REACHED)[:, :, None])
            totals = costs[:, :, None] + enh[:, None, :] + invalid * BIG
            keys = rank[:, :, None] * n_versions + j_idx + invalid * big_key

            flat_tot = totals.reshape(batch, -1)
            flat_key = keys.reshape(batch, -1)
            flat_tgt = target.reshape(batch, -1)

            # All target states at once: one-hot the candidates along a
            # target-major (B, S_target, S*J) axis, mask non-hits with
            # the same additive penalties, and reduce over the
            # contiguous candidate axis with plain min/argmin.
            miss = flat_tgt[:, None, :] != t_range  # (B, S, S*J)
            masked_tot = flat_tot[:, None, :] + miss * BIG
            new_costs = masked_tot.min(axis=2)  # (B, S)
            # Winner = minimal scan key among equal-minimal costs (the
            # scalar strict-< update keeps the first one).  Equality
            # with new_costs already implies "hit and minimal": missed
            # or invalid entries sit at least BIG above any real cost.
            not_best = masked_tot != new_costs[:, :, None]
            winner = (
                flat_key[:, None, :] + not_best * big_key
            ).argmin(axis=2)  # (B, S)
            reached = new_costs < REACHED
            if h == 0:
                new_first = np.where(reached, src_j[winner], -1)
            else:
                new_first = np.where(
                    reached, first_dec[b_idx[:, None], src_state[winner]], -1
                )
            # Insertion order = first candidate reaching t at all.
            # Unreached targets end up >= big_key in some arbitrary
            # order, which is fine: their ranks only ever label states
            # whose candidates are masked as invalid anyway.
            reach_key = (flat_key[:, None, :] + miss * big_key).min(axis=2)

            order = np.argsort(reach_key, axis=1, kind="stable")
            rank = np.empty((batch, num_states), dtype=np.int32)
            np.put_along_axis(rank, order, rank_fill, axis=1)
            costs, first_dec = new_costs, new_first

        best_cost = costs.min(axis=1)
        if not np.all(best_cost < REACHED):
            raise ValueError("no feasible version sequence for some request")
        # Final min over dict iteration order: earliest-inserted state
        # among equal-minimal costs.
        best_state = np.where(
            costs == best_cost[:, None], rank, num_states + 1
        ).argmin(axis=1)
        first = first_dec[b_idx, best_state]
        quality = first // f_count + 1
        rate_idx = first % f_count + 1
        return [
            MpcDecision(
                quality=int(quality[b]),
                frame_rate_index=int(rate_idx[b]),
                frame_rate=frame_rates[int(rate_idx[b]) - 1],
                planned_energy_j=float(best_cost[b]),
            )
            for b in range(batch)
        ]

    def choose_reference(
        self,
        segments: "list[MpcSegment] | MpcWindow",
        bandwidth_mbps: float,
        buffer_s: float,
    ) -> MpcDecision:
        """The original scalar DP, kept as the parity oracle for tests."""
        if isinstance(segments, MpcWindow):
            segments = segments.segments()
        if not segments:
            raise ValueError("need at least one lookahead segment")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        bandwidth_mbps = bandwidth_mbps * self.config.bandwidth_safety
        window = segments[: self.config.horizon]
        cfg = self.config
        levels = cfg.state_levels()

        # DP tables: per state, the minimum energy and the decision path.
        start = cfg.snap(buffer_s)
        costs: dict[int, float] = {start: 0.0}
        paths: dict[int, list[tuple[int, int]]] = {start: []}

        for segment in window:
            new_costs: dict[int, float] = {}
            new_paths: dict[int, list[tuple[int, int]]] = {}
            for state, cost in costs.items():
                buffer_level = float(levels[state])
                for v, f in self._feasible_versions(
                    segment, bandwidth_mbps, buffer_level
                ):
                    size = float(segment.sizes_mbit[v - 1, f - 1])
                    dl = size / bandwidth_mbps
                    energy = self._version_energy(size, bandwidth_mbps,
                                                  segment.frame_rates[f - 1])
                    next_level = max(buffer_level - dl, 0.0) + cfg.segment_seconds
                    next_state = cfg.snap(min(next_level, cfg.buffer_threshold_s))
                    total = cost + energy
                    if total < new_costs.get(next_state, np.inf):
                        new_costs[next_state] = total
                        new_paths[next_state] = paths[state] + [(v, f)]
            costs, paths = new_costs, new_paths

        best_state = min(costs, key=lambda s: costs[s])
        first_v, first_f = paths[best_state][0]
        return MpcDecision(
            quality=first_v,
            frame_rate_index=first_f,
            frame_rate=window[0].frame_rates[first_f - 1],
            planned_energy_j=float(costs[best_state]),
        )

    # ------------------------------------------------------------------

    def _rate_energies(
        self, frame_rates: tuple[float, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-frame-rate decode and render energies, cached."""
        cached = self._rate_cache.get(frame_rates)
        if cached is None:
            decode_j = np.array([
                self.energy_model.decoding_energy_j(TilingScheme.PTILE, rate)
                for rate in frame_rates
            ])
            render_j = np.array([
                self.energy_model.rendering_energy_j(rate)
                for rate in frame_rates
            ])
            cached = (decode_j, render_j)
            self._rate_cache[frame_rates] = cached
        return cached

    def _feasible_versions(
        self, segment: MpcSegment, bandwidth_mbps: float, buffer_s: float
    ) -> list[tuple[int, int]]:
        """Versions satisfying the no-stall and QoE constraints.

        The QoE floor is ``(1 - eps) * Q(vm, fm)`` where (vm, fm) is the
        highest bitrate at the full frame rate whose version can be
        *successfully downloaded*, i.e. sustained at the predicted
        bandwidth (one segment per segment duration) — the same quality
        a pure quality-maximizing Ptile client would pick.  Actual
        candidates must additionally finish before the buffer drains
        (no-stall, Eq. 7).  When nothing is stall-free (e.g. cold
        start), the constraint relaxes to the lowest bitrate's
        frame-rate ladder.
        """
        v_count = segment.num_qualities
        f_count = segment.num_rates
        top_f = f_count  # highest frame rate index

        def downloadable(v: int, f: int) -> bool:
            return segment.sizes_mbit[v - 1, f - 1] / bandwidth_mbps <= buffer_s

        def sustainable(v: int, f: int) -> bool:
            dl = segment.sizes_mbit[v - 1, f - 1] / bandwidth_mbps
            return dl <= min(self.config.segment_seconds, buffer_s)

        vm = 0
        for v in range(v_count, 0, -1):
            if sustainable(v, top_f):
                vm = v
                break

        if vm == 0:
            # Nothing stall-free: fall back to the lowest bitrate and
            # keep the QoE tolerance within its own frame-rate ladder.
            floor = (1.0 - self.config.qoe_tolerance) * float(
                segment.qoe[0, top_f - 1]
            )
            return [
                (1, f)
                for f in range(1, f_count + 1)
                if segment.qoe[0, f - 1] >= floor
            ]

        floor = (1.0 - self.config.qoe_tolerance) * float(
            segment.qoe[vm - 1, top_f - 1]
        )
        feasible = [
            (v, f)
            for v in range(1, v_count + 1)
            for f in range(1, f_count + 1)
            if downloadable(v, f) and segment.qoe[v - 1, f - 1] >= floor
        ]
        if not feasible:  # (vm, top_f) always qualifies, but be safe
            feasible = [(vm, top_f)]
        return feasible

    def _version_energy(
        self, size_mbit: float, bandwidth_mbps: float, frame_rate: float
    ) -> float:
        """Eq. 1 energy of one version under the predicted bandwidth."""
        return (
            self.energy_model.transmission_energy_j(size_mbit, bandwidth_mbps)
            + self.energy_model.decoding_energy_j(TilingScheme.PTILE, frame_rate)
            + self.energy_model.rendering_energy_j(frame_rate)
        )
