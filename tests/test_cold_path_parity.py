"""Bit-for-bit parity of the cold-path kernels with their scalar oracles.

Trace synthesis, viewport -> tile coverage, close-neighbour search,
cluster diameters, encoder noise and the sweep-context digest all run
on fast paths.  Each must produce exactly what the plain scalar code
does: generated traces, Ptiles, manifest sizes and cache keys are
pinned byte for byte, so artifact and results caches written by older
code stay warm.  The plain scalar versions live here as the oracles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import make_setup
from repro.experiments.artifacts import (
    RESULTS_SCHEMA_VERSION,
    content_digest,
    encoder_fingerprint,
    grid_fingerprint,
    structural_fingerprint,
    sweep_context_digest,
    video_fingerprint,
)
from repro.experiments.setup import build_sweep
from repro.geometry.sphere import equirect_distance
from repro.geometry.tiling import DEFAULT_GRID, FTILE_BLOCK_GRID, Tile, TileGrid
from repro.geometry.viewport import Rect, Viewport
from repro.power import PIXEL_3
from repro.ptile import clustering
from repro.ptile.clustering import Cluster, ViewingCenter, cluster_viewing_centers
from repro.ptile.construction import Ptile, RemainderBlock, SegmentPtiles
from repro.streaming.cache import EdgeHitModel
from repro.streaming.session import SessionConfig
from repro.traces.dataset import _truncate
from repro.traces.head_movement import HeadTrace
from repro.traces.synthetic_users import (
    BehaviorParams,
    generate_roi_path,
    generate_user_trace,
)
from repro.video import EncoderModel, VideoManifest
from repro.video.content import build_catalog
from repro.video.encoder import (
    _CRF_REF,
    _MIN_UNIT_TILES,
    _OVERHEAD_AREA_EXP,
    _RATE_HALVING_CRF,
    _stable_key_ints,
)

# ----------------------------------------------------------------------
# Oracles: the plain scalar implementations.
# ----------------------------------------------------------------------


def reference_user_trace(video, user_id, roi, params=BehaviorParams(), seed=None):
    """Scalar numpy pursuit loop; returns (trace, secondary_viewer)."""
    exploratory = video.meta.behavior == "exploratory"
    if seed is None:
        seed = video.meta.video_id * 1_000_003 + user_id * 7907
    rng = np.random.default_rng(seed)
    dt = 1.0 / params.sample_rate_hz
    n = roi.num_samples
    t = roi.timestamps

    secondary_share = (
        params.secondary_attention_share_exploratory
        if exploratory
        else params.secondary_attention_share
    )
    secondary_viewer = rng.random() < secondary_share
    offset_yaw = rng.normal(0.0, params.personal_offset_deg)
    offset_pitch = rng.normal(0.0, params.personal_offset_deg * 0.6)

    yaw = np.empty(n)
    pitch = np.empty(n)
    yaw[0], pitch[0] = roi.at(0)
    yaw[0] += offset_yaw
    pitch[0] = float(np.clip(pitch[0] + offset_pitch, -80.0, 80.0))
    vel_yaw = 0.0
    vel_pitch = 0.0

    exploring = exploratory and rng.random() < 0.5
    on_secondary = False
    waypoint = (yaw[0], pitch[0])
    next_waypoint_at = 0.0
    offset_theta = 1.0 / params.offset_time_constant_s
    offset_sigma = params.personal_offset_deg

    for i in range(1, n):
        now = t[i]
        offset_yaw += (
            -offset_theta * offset_yaw * dt
            + offset_sigma * np.sqrt(2 * offset_theta * dt) * rng.normal()
        )
        offset_pitch += (
            -offset_theta * offset_pitch * dt
            + 0.6 * offset_sigma * np.sqrt(2 * offset_theta * dt) * rng.normal()
        )
        if exploratory:
            if exploring:
                if rng.random() < params.explore_to_follow_per_s * dt:
                    exploring = False
            elif rng.random() < params.follow_to_explore_per_s * dt:
                exploring = True
        if secondary_viewer and rng.random() < params.secondary_switch_per_s * dt:
            on_secondary = not on_secondary

        roi_yaw, roi_pitch = roi.at(i)
        if exploring:
            if now >= next_waypoint_at:
                lo, hi = params.waypoint_interval_s
                next_waypoint_at = now + rng.uniform(lo, hi)
                waypoint = (
                    yaw[i - 1] + rng.uniform(-1.0, 1.0) * params.waypoint_yaw_span_deg,
                    rng.uniform(*params.waypoint_pitch_range),
                )
            target_yaw, target_pitch = waypoint
        else:
            target_yaw = roi_yaw + offset_yaw
            target_pitch = roi_pitch + offset_pitch
            if on_secondary:
                target_yaw += params.secondary_roi_offset_deg
        target_pitch = float(np.clip(target_pitch, -80.0, 80.0))

        acc_yaw = (
            params.pursuit_gain * (target_yaw - yaw[i - 1])
            - params.pursuit_damping * vel_yaw
        )
        acc_pitch = (
            params.pursuit_gain * (target_pitch - pitch[i - 1])
            - params.pursuit_damping * vel_pitch
        )
        vel_yaw += acc_yaw * dt
        vel_pitch += acc_pitch * dt
        yaw[i] = yaw[i - 1] + vel_yaw * dt + rng.normal(0.0, params.jitter_deg)
        pitch[i] = float(
            np.clip(
                pitch[i - 1] + vel_pitch * dt + rng.normal(0.0, params.jitter_deg),
                -85.0,
                85.0,
            )
        )

    trace = HeadTrace(user_id=user_id, video_id=video.meta.video_id,
                      timestamps=t, yaw_unwrapped=yaw, pitch=pitch)
    return trace, secondary_viewer


def reference_tiles_overlapping(grid, rect, min_overlap=0.0):
    tile_area = grid.tile_width * grid.tile_height
    result = set()
    for tile in grid.tiles():
        overlap = grid.tile_rect(tile).intersection_area(rect)
        if overlap > min_overlap * tile_area:
            result.add(tile)
    return result


def reference_viewport_tiles(grid, viewport, min_overlap=0.1):
    overlap_by_tile = {}
    tile_area = grid.tile_width * grid.tile_height
    for rect in viewport.rects():
        for tile in grid.tiles():
            area = grid.tile_rect(tile).intersection_area(rect)
            if area > 0:
                overlap_by_tile[tile] = overlap_by_tile.get(tile, 0.0) + area
    return frozenset(
        tile
        for tile, area in overlap_by_tile.items()
        if area > min_overlap * tile_area
    )


def reference_neighbors(nodes, delta):
    return {
        u.user_id: [n for n in nodes if n.user_id != u.user_id
                    and u.distance_to(n) <= delta]
        for u in nodes
    }


def reference_diameter(cluster):
    best = 0.0
    members = cluster.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            best = max(best, members[i].distance_to(members[j]))
    return best


def reference_noise(encoder, key):
    """One fresh draw, as every size query once made."""
    rng = np.random.default_rng(
        [encoder.seed & 0xFFFFFFFF] + _stable_key_ints(key))
    sigma = encoder.noise_sigma
    return float(math.exp(rng.normal(-0.5 * sigma * sigma, sigma)))


def reference_region_size(encoder, quality, si, ti, area_fraction, *,
                          frame_rate=None, fps=30.0, noise_key=None):
    grid = encoder.grid
    n = area_fraction * grid.num_tiles
    rate = encoder.ref_bitrate_mbps * 2.0 ** (
        (_CRF_REF - encoder.ladder.crf(quality)) / _RATE_HALVING_CRF)
    bitrate = rate * float(np.clip(0.35 + 0.011 * si + 0.022 * ti, 0.3, 2.5))
    unit_bits = bitrate * encoder.segment_seconds / grid.num_tiles
    content = bitrate * encoder.segment_seconds * area_fraction
    content *= encoder.efficiency(n, quality)
    overhead = (
        encoder.overhead_fraction(quality)
        * unit_bits
        * max(n, _MIN_UNIT_TILES) ** _OVERHEAD_AREA_EXP
    )
    size = content + overhead
    if frame_rate is not None:
        size *= encoder.frame_rate_factor(frame_rate, fps)
    if noise_key is not None and encoder.noise_sigma > 0:
        size *= reference_noise(encoder, noise_key)
    return size


def _reference_update(h, obj):
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        raw = str(int(obj)).encode("ascii")
        h.update(b"i" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, bytes):
        h.update(b"y" + struct.pack("<I", len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        meta = f"{arr.dtype.str}{arr.shape}".encode("ascii")
        h.update(b"a" + struct.pack("<I", len(meta)) + meta + arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"t" + struct.pack("<I", len(obj)))
        for part in obj:
            _reference_update(h, part)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        h.update(b"d" + struct.pack("<I", len(items)))
        for key, value in items:
            _reference_update(h, key)
            _reference_update(h, value)
    else:
        raise TypeError(type(obj).__name__)


def reference_content_digest(*parts):
    h = hashlib.sha256()
    _reference_update(h, parts)
    return h.hexdigest()


def reference_fingerprint(obj: Any) -> Any:
    if obj is None or isinstance(
        obj, (bool, str, bytes, int, float, np.integer, np.floating,
              np.ndarray)
    ):
        return obj
    if isinstance(obj, VideoManifest):
        return ("video-manifest", video_fingerprint(obj.video),
                encoder_fingerprint(obj.encoder))
    if isinstance(obj, Ptile):
        return (
            "ptile",
            obj.index,
            tuple(sorted((t.row, t.col) for t in obj.tiles)),
            (obj.rect.x0, obj.rect.y0, obj.rect.x1, obj.rect.y1),
            grid_fingerprint(obj.grid),
        )
    if isinstance(obj, TileGrid):
        return grid_fingerprint(obj)
    if isinstance(obj, EdgeHitModel):
        return ("edge-hit-model", tuple(obj.hit_ratios),
                obj.edge_bandwidth_mbps)
    if isinstance(obj, HeadTrace):
        return ("head-trace", obj.user_id, obj.video_id, obj.timestamps,
                obj.yaw_unwrapped, obj.pitch)
    if isinstance(obj, (tuple, list)):
        return tuple(reference_fingerprint(part) for part in obj)
    if isinstance(obj, (set, frozenset)):
        parts = [reference_fingerprint(part) for part in obj]
        return ("set", tuple(sorted(parts, key=repr)))
    if isinstance(obj, dict):
        items = [
            (reference_fingerprint(k), reference_fingerprint(v))
            for k, v in obj.items()
        ]
        return ("dict", tuple(sorted(items, key=repr)))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            "obj",
            type(obj).__qualname__,
            tuple(
                (f.name, reference_fingerprint(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if callable(obj):
        return ("callable", getattr(obj, "__module__", "?"),
                getattr(obj, "__qualname__", repr(obj)))
    raise TypeError(type(obj).__name__)



def _order(tiles):
    """A set's iteration order: equal sets built by different insertion
    sequences can iterate differently, which would change pickles."""
    return [(t.row, t.col) for t in tiles]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

_CATALOG = build_catalog()


class TestTraceParity:
    @pytest.mark.parametrize("video", _CATALOG, ids=lambda v: f"video{v.meta.video_id}")
    def test_all_users_bit_identical(self, video):
        video = _truncate(video, 25)
        roi = generate_roi_path(video, seed=2017 + video.meta.video_id)
        secondary = 0
        for user_id in range(48):
            seed = 2017 * 65537 + video.meta.video_id * 1_000_003 + user_id * 7907
            got = generate_user_trace(video, user_id, roi, seed=seed)
            want, is_secondary = reference_user_trace(video, user_id, roi, seed=seed)
            secondary += is_secondary
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
            assert got.yaw_unwrapped.tobytes() == want.yaw_unwrapped.tobytes()
            assert got.pitch.tobytes() == want.pitch.tobytes()
            assert got.yaw_unwrapped.dtype == want.yaw_unwrapped.dtype
        # Both attention regimes are exercised on every video.
        assert 0 < secondary < 48

    def test_catalog_covers_both_behaviours(self):
        assert {v.meta.behavior for v in _CATALOG} == {"focused", "exploratory"}

    @pytest.mark.parametrize("video_id", (3, 6))
    def test_custom_params_and_default_seed(self, video_id):
        params = BehaviorParams(
            sample_rate_hz=5.0, waypoint_interval_s=(0.5, 1.0),
            follow_to_explore_per_s=0.5, secondary_attention_share=0.9,
            secondary_attention_share_exploratory=0.9,
            secondary_switch_per_s=0.5,
        )
        video = _truncate(_CATALOG[video_id - 1], 40)
        roi = generate_roi_path(video, params)
        for user_id in range(6):
            got = generate_user_trace(video, user_id, roi, params)
            want, _ = reference_user_trace(video, user_id, roi, params)
            assert got.yaw_unwrapped.tobytes() == want.yaw_unwrapped.tobytes()
            assert got.pitch.tobytes() == want.pitch.tobytes()


# ----------------------------------------------------------------------
# Viewport -> tile coverage
# ----------------------------------------------------------------------

_yaws = st.one_of(
    st.floats(-720.0, 720.0, allow_nan=False),
    st.sampled_from([0.0, 360.0, -0.0, 22.5, 45.0, 50.0, 310.0, 359.9999999, 1e-12]),
)
_pitches = st.one_of(
    st.floats(-100.0, 100.0, allow_nan=False),
    st.sampled_from([90.0, -90.0, 89.99, -89.99, 45.0, 0.0, 40.0]),
)
_fov_h = st.one_of(st.floats(1.0, 360.0), st.sampled_from([100.0, 360.0, 90.0]))
_fov_v = st.one_of(st.floats(1.0, 180.0), st.sampled_from([100.0, 180.0]))


class TestCoverageParity:
    @settings(max_examples=400, deadline=None)
    @given(yaw=_yaws, pitch=_pitches, fov_h=_fov_h, fov_v=_fov_v,
           min_overlap=st.sampled_from([0.0, 0.1, 0.5]),
           shape=st.sampled_from([(DEFAULT_GRID.rows, DEFAULT_GRID.cols),
                                  (FTILE_BLOCK_GRID.rows, FTILE_BLOCK_GRID.cols),
                                  (7, 11), (5, 9)]))
    def test_viewport_tiles(self, yaw, pitch, fov_h, fov_v, min_overlap, shape):
        grid = TileGrid(*shape)  # a fresh memo per example
        viewport = Viewport(yaw, pitch, fov_h, fov_v)
        want = reference_viewport_tiles(grid, viewport, min_overlap)
        got = grid.viewport_tiles(viewport, min_overlap)
        assert got == want
        assert _order(got) == _order(want)
        assert grid.viewport_tiles(viewport, min_overlap) is got  # memo hit
        for rect in viewport.rects():
            want_rect = reference_tiles_overlapping(grid, rect, min_overlap)
            got_rect = grid.tiles_overlapping(rect, min_overlap)
            assert _order(got_rect) == _order(want_rect)
            # Every per-tile area, not only the thresholded sets.
            areas = [(t.row, t.col, grid.tile_rect(t).intersection_area(rect))
                     for t in grid.tiles()]
            assert list(grid._rect_overlaps(rect)) == [
                a for a in areas if a[2] > 0]

    def test_default_grids_agree_on_seam_and_poles(self):
        for grid in (DEFAULT_GRID, FTILE_BLOCK_GRID):
            for yaw in (0.0, 359.0, 1.0, 180.0):
                for pitch in (-90.0, -60.0, 0.0, 60.0, 90.0):
                    for fov in (100.0, 360.0):
                        viewport = Viewport(yaw, pitch, fov, 100.0)
                        assert _order(grid.viewport_tiles(viewport)) == _order(
                            reference_viewport_tiles(grid, viewport))

    @settings(max_examples=100, deadline=None)
    @given(col0=st.integers(0, 7), span=st.integers(1, 8),
           row0=st.integers(0, 3), rows=st.integers(1, 4))
    def test_rect_tiles_on_wrapping_rects(self, col0, span, row0, rows):
        grid = DEFAULT_GRID
        rows = min(rows, grid.rows - row0)
        rect = Rect(col0 * 45.0, 90.0 - (row0 + rows) * 45.0,
                    (col0 + span) * 45.0, 90.0 - row0 * 45.0)
        if rect.x1 <= 360.0:
            want = reference_tiles_overlapping(grid, rect)
        else:
            left = Rect(rect.x0, rect.y0, 360.0, rect.y1)
            right = Rect(0.0, rect.y0, rect.x1 - 360.0, rect.y1)
            want = (reference_tiles_overlapping(grid, left)
                    | reference_tiles_overlapping(grid, right))
        assert _order(grid.rect_tiles(rect)) == _order(want)


# ----------------------------------------------------------------------
# Clustering
# ----------------------------------------------------------------------

_center_yaws = st.one_of(
    st.floats(-30.0, 30.0),  # straddles the seam once wrapped
    st.floats(330.0, 390.0),
    st.floats(0.0, 360.0),
    st.sampled_from([0.0, 360.0, 359.999, 11.25, 348.75]),
)
_centers = st.lists(
    st.tuples(_center_yaws, st.floats(-70.0, 70.0)), min_size=1, max_size=40,
)


def _viewing_centers(points):
    return [ViewingCenter(uid, yaw, pitch) for uid, (yaw, pitch) in enumerate(points)]


def _ids(neighbors):
    return {uid: [n.user_id for n in ns] for uid, ns in neighbors.items()}


class TestClusteringParity:
    @settings(max_examples=150, deadline=None)
    @given(points=_centers, delta=st.sampled_from([11.25, 2.0, 30.0, 0.5]))
    def test_neighbors_and_diameter(self, points, delta):
        nodes = sorted(_viewing_centers(points))
        got = clustering._close_neighbors(nodes, delta)
        assert _ids(got) == _ids(reference_neighbors(nodes, delta))
        cluster = Cluster(tuple(nodes))
        assert cluster.diameter() == reference_diameter(cluster)

    @settings(max_examples=60, deadline=None)
    @given(points=_centers, sigma=st.sampled_from([45.0, 20.0]),
           recursive=st.booleans())
    def test_clusters_match_scalar_algorithm(self, points, sigma, recursive):
        centers = _viewing_centers(points)
        got = cluster_viewing_centers(centers, sigma / 4.0, sigma, recursive)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_close_neighbors", reference_neighbors)
            mp.setattr(Cluster, "diameter", reference_diameter)
            want = cluster_viewing_centers(centers, sigma / 4.0, sigma, recursive)
        assert got == want

    def test_duplicates_and_tied_pairs(self):
        nodes = _viewing_centers([(0.0, 0.0), (360.0, 0.0), (10.0, 0.0),
                                  (350.0, 0.0), (0.0, 10.0), (0.0, -10.0)])
        for delta in (10.0, 11.25, 20.0):
            assert _ids(clustering._close_neighbors(nodes, delta)) == _ids(
                reference_neighbors(nodes, delta))
        cluster = Cluster(tuple(nodes))
        assert cluster.diameter() == reference_diameter(cluster) == 20.0
        single = Cluster((nodes[0],))
        assert single.diameter() == 0.0
        same = Cluster(tuple(ViewingCenter(i, 5.0, 5.0) for i in range(3)))
        assert same.diameter() == 0.0

    def test_distance_is_symmetric(self):
        rng = np.random.default_rng(3)
        for yaw1, p1, yaw2, p2 in rng.uniform(-400, 400, size=(500, 4)):
            assert equirect_distance(yaw1, p1, yaw2, p2) == equirect_distance(
                yaw2, p2, yaw1, p1)


# ----------------------------------------------------------------------
# Encoder sizes
# ----------------------------------------------------------------------

_REGIONS = (
    ("ptile-0", 9 / 32),
    ("ptile-3", 12 / 32),
    ("rem-0-top", 8 / 32),
    ("rem-1-side", 3 / 32),
    ("ftile-4", 0.0625),
    ("frame", 1.0),
)
_FRAME_RATES = (None, 30.0, 24.0, 20.0, 15.0, 10.0)


@pytest.fixture(scope="module")
def parity_video():
    return _truncate(_CATALOG[4], 6)


class TestEncoderParity:
    @pytest.mark.parametrize("encoder", [
        EncoderModel(),
        EncoderModel(seed=7, noise_sigma=0.3),
        EncoderModel(noise_sigma=0.0),
        EncoderModel(grid=TileGrid(6, 12), seed=2**33 + 5),
    ], ids=["default", "seed7", "noise-free", "grid6x12"])
    def test_every_region_kind_quality_and_rate(self, parity_video, encoder):
        manifest = VideoManifest(parity_video, encoder)
        vid = parity_video.meta.video_id
        qualities = (1, 2, 3, 4, 5, 2.5)
        for _ in range(2):  # the second round reads the memo
            for seg in manifest:
                for quality in qualities:
                    for row, col in ((0, 0), (1, 5), (3, 7)):
                        want = reference_region_size(
                            encoder, quality, seg.si, seg.ti,
                            1.0 / encoder.grid.num_tiles,
                            noise_key=(vid, seg.segment_index, "tile", row, col))
                        assert seg.tile_size_mbit(Tile(row, col), quality) == want
                    for key, area in _REGIONS:
                        for rate in _FRAME_RATES:
                            want = reference_region_size(
                                encoder, quality, seg.si, seg.ti, area,
                                frame_rate=rate, fps=30.0,
                                noise_key=(vid, seg.segment_index, key))
                            assert seg.region_size_mbit(
                                key, area, quality, frame_rate=rate) == want
                    assert seg.full_frame_size_mbit(quality) == reference_region_size(
                        encoder, quality, seg.si, seg.ti, 1.0,
                        noise_key=(vid, seg.segment_index, "frame"))

    def test_encoder_entry_points(self, parity_video):
        encoder = EncoderModel()
        seg = parity_video.segments[2]
        for quality in (1, 3, 5):
            key = (parity_video.meta.video_id, 2, "fig8-ptile")
            assert encoder.region_size_mbit(
                quality, seg.si, seg.ti, 9 / 32, noise_key=key
            ) == reference_region_size(encoder, quality, seg.si, seg.ti, 9 / 32,
                                       noise_key=key)
            total = 0.0
            for i in range(9):
                total += reference_region_size(
                    encoder, quality, seg.si, seg.ti, 1 / 32,
                    noise_key=key + (i,))
            assert encoder.tiled_region_size_mbit(
                quality, seg.si, seg.ti, 9, noise_key=key) == total
            assert encoder.region_size_mbit(
                quality, seg.si, seg.ti, 0.5) == reference_region_size(
                    encoder, quality, seg.si, seg.ti, 0.5)

    def test_noise_drawn_once_per_region(self, parity_video, monkeypatch):
        encoder = EncoderModel()
        manifest = VideoManifest(parity_video, encoder)
        draws = []
        noise = EncoderModel._noise

        def counting(self, key):
            draws.append(key)
            return noise(self, key)

        monkeypatch.setattr(EncoderModel, "_noise", counting)
        seg = manifest[0]
        for quality in (1, 2, 3, 4, 5):
            for rate in _FRAME_RATES:
                seg.region_size_mbit("ptile-0", 9 / 32, quality, frame_rate=rate)
            seg.tile_size_mbit(Tile(0, 0), quality)
        assert sorted(draws) == sorted([(parity_video.meta.video_id, 0, "ptile-0"),
                                        (parity_video.meta.video_id, 0, "tile", 0, 0)])


# ----------------------------------------------------------------------
# Context digest
# ----------------------------------------------------------------------


def golden_context() -> dict:
    """A small fixed context touching every fingerprint and digest case:
    Tile sets, Ptiles, dicts whose key reprs are prefixes of each other
    (1, 10), equal, or neither, numpy scalars and arrays."""
    tiles = frozenset(Tile(r, c) for r in (1, 2) for c in (1, 2, 7))
    cluster = Cluster((ViewingCenter(3, 10.5, -2.25), ViewingCenter(11, 12.0, 1.5)))
    ptile = Ptile(index=0, tiles=tiles, rect=Rect(45.0, -45.0, 135.0, 45.0),
                  cluster=cluster, grid=DEFAULT_GRID)
    rem = (RemainderBlock("rem-0-top", frozenset(Tile(0, c) for c in range(8)), 0.25),)
    seg = SegmentPtiles(segment_index=0, ptiles=(ptile,), remainders={0: rem})
    trace = HeadTrace(user_id=10, video_id=2, timestamps=np.arange(4) * 0.1,
                      yaw_unwrapped=np.array([359.5, 0.25, 1.0, -3.5]),
                      pitch=np.array([0.0, -0.5, 12.0, 89.0]))
    return {
        "ptiles": {10: [seg], 2: [seg], 1: []},
        "tiles": frozenset(Tile(r, c) for r in (0, 1, 2, 10) for c in (0, 3, 10, 12)),
        "traces": {2: (trace,)},
        "config": SessionConfig(edge_model=EdgeHitModel((0.5, 0.25)), max_segments=12),
        "scalars": (None, True, False, 0, -7, 2 ** 40, 0.1, -0.0, np.float64(2.5),
                    np.int64(-3), "x", b"\x00y",
                    np.arange(6, dtype=np.int32).reshape(2, 3)),
        "callable": np.hypot,
        "nested": {"b": {3: (1, 2)}, "a": [1.5, "z"], "ab": set()},
        12: {1: 0.5, 10: 0.25, 2: 1.0},
        # Distinct keys with equal fingerprints: their values decide.
        "same-fingerprint keys": {ViewingCenter(1, 0.0, 0.0).distance_to: 2.0,
                                  ViewingCenter(2, 0.0, 0.0).distance_to: 1.0},
    }


class TestDigestParity:
    def test_golden_digests(self):
        # Recorded with the scalar encoder; a change here moves every
        # shard key and orphans every results cache.
        ctx = golden_context()
        assert content_digest("golden", structural_fingerprint(ctx)) == (
            "897d737134609dbbc8a474c53e5b8c9df2657f884dfe20bef50e285220410e22")
        assert sweep_context_digest(ctx) == (
            "1e6aff3d52bde07f9f9a645bc3d6866bbceb37b4a785124818dcdb179633099d")

    def test_golden_context_matches_oracle(self):
        ctx = golden_context()
        fingerprint = structural_fingerprint(ctx)
        assert fingerprint == reference_fingerprint(ctx)
        assert content_digest("x", fingerprint, {3: 1, "k": [2.0]}) == (
            reference_content_digest("x", fingerprint, {3: 1, "k": [2.0]}))

    def test_sweep_context_matches_oracle(self):
        setup = make_setup(max_duration_s=8, n_users=8, n_train=6,
                           video_ids=(2, 7), seed=3)
        context, jobs = build_sweep(setup, PIXEL_3, users_per_video=1)
        want = reference_content_digest(
            "sweep-context", RESULTS_SCHEMA_VERSION, reference_fingerprint(context))
        assert sweep_context_digest(context) == want
