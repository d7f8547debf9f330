"""Tests for the disk-backed content-prep artifact store.

The load-bearing properties:

* **Identity** — `run_comparison` aggregates are byte-identical across
  cache-off, cache-cold, and cache-warm runs, at any worker count.
* **Invalidation** — any input that changes the artifacts (clustering
  δ/σ, grid geometry, training traces, encoder, video) changes the
  content key, so a stale hit is impossible.
* **Robustness** — corrupt or truncated cache files are treated as
  misses and rebuilt, never crashing a run.

The synthesized evaluation dataset is cached too (``dataset`` kind):
off, cold and warm setups hold equal datasets, and its key moves with
every generation input, the numpy version and the generator source.
"""

from __future__ import annotations

import inspect
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import make_setup, run_comparison
from repro.experiments.artifacts import (
    DATASET_SOURCES,
    ArtifactStore,
    content_digest,
    dataset_key,
    dataset_source_digest,
    default_cache_dir,
    encoder_fingerprint,
    ftiles_key,
    manifest_key,
    ptiles_key,
    traces_fingerprint,
    video_fingerprint,
)
from repro.experiments.setup import ExperimentSetup
from repro.geometry.tiling import DEFAULT_GRID, TileGrid
from repro.power import PIXEL_3
from repro.ptile.construction import PtileConfig
from repro.traces.synthetic_users import BehaviorParams
from repro.video import EncoderModel


@pytest.fixture()
def fresh_setup(small_dataset, network_traces):
    def make(artifacts=None, **overrides):
        return ExperimentSetup(
            dataset=small_dataset,
            encoder=EncoderModel(),
            trace1=network_traces[0],
            trace2=network_traces[1],
            artifacts=artifacts,
            **overrides,
        )

    return make


def result_signature(results):
    return [
        (key, r.user_id, r.total_energy_j, r.mean_qoe, r.total_stall_s,
         r.rebuffer_count, r.mean_frame_rate)
        for key, sessions in sorted(results.items())
        for r in sessions
    ]


SWEEP_KW = dict(
    users_per_video=1, video_ids=(2,), scheme_names=("ctile", "ours")
)


class TestContentDigest:
    def test_deterministic_and_type_tagged(self):
        assert content_digest(1, "a", 2.0) == content_digest(1, "a", 2.0)
        assert content_digest(1) != content_digest("1")
        assert content_digest(1.0) != content_digest(1)
        assert content_digest(("ab", "c")) != content_digest(("a", "bc"))
        assert content_digest(None) != content_digest(0)
        assert content_digest(True) != content_digest(1)

    def test_arrays_and_dicts(self):
        import numpy as np

        a = np.arange(6, dtype=float)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.reshape(2, 3))
        assert content_digest({"x": 1, "y": 2}) == content_digest(
            {"y": 2, "x": 1}
        )

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            content_digest(object())


class TestKeyComposition:
    def test_ptiles_key_sensitive_to_all_inputs(self, small_dataset):
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        base = ptiles_key(video, train, DEFAULT_GRID, PtileConfig())

        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig(delta=3.0)
        ) != base
        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig(sigma=60.0)
        ) != base
        assert ptiles_key(
            video, train, TileGrid(rows=6, cols=12), PtileConfig()
        ) != base
        assert ptiles_key(video, train[:-1], DEFAULT_GRID, PtileConfig()) != base
        other_video = small_dataset.video(8)
        assert ptiles_key(
            other_video, train, DEFAULT_GRID, PtileConfig()
        ) != base

    def test_resolved_defaults_hash_like_explicit_values(self, small_dataset):
        """sigma=None resolves to the tile width; the two spellings build
        identical Ptiles, so they must share a cache slot."""
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig()
        ) == ptiles_key(
            video, train, DEFAULT_GRID,
            PtileConfig(sigma=DEFAULT_GRID.tile_width,
                        delta=DEFAULT_GRID.tile_width / 4.0),
        )

    def test_manifest_key_sensitive_to_encoder(self, small_dataset):
        video = small_dataset.video(2)
        assert manifest_key(video, EncoderModel()) != manifest_key(
            video, EncoderModel(noise_sigma=0.0)
        )

    def test_ftiles_key_sensitive_to_traces(self, small_dataset):
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        assert ftiles_key(video, train) != ftiles_key(video, train[:-1])

    def test_fingerprints_are_digestible(self, small_dataset):
        video = small_dataset.video(2)
        content_digest(video_fingerprint(video))
        content_digest(encoder_fingerprint(EncoderModel()))
        content_digest(traces_fingerprint(small_dataset.train_traces(2)))


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("x")
        assert store.get("ptiles", digest) is None
        store.put("ptiles", digest, {"payload": [1, 2, 3]})
        assert store.get("ptiles", digest) == {"payload": [1, 2, 3]}
        assert store.stats.hits == {"ptiles": 1}
        assert store.stats.misses == {"ptiles": 1}
        assert store.stats.writes == {"ptiles": 1}
        assert store.size_bytes() > 0

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path).get("bogus", "00")

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("y")
        path = store.put("manifest", digest, [1, 2])
        path.write_bytes(b"not a pickle")
        assert store.get("manifest", digest) is None
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("z")
        path = store.put("ftiles", digest, list(range(100)))
        path.write_bytes(pickle.dumps(list(range(100)))[:10])
        assert store.get("ftiles", digest) is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ptiles", content_digest(1), "a")
        store.put("manifest", content_digest(2), "b")
        assert store.clear() == 2
        assert store.size_bytes() == 0

    def test_memory_error_is_a_miss_but_file_survives(self, tmp_path,
                                                      monkeypatch):
        """A transient OOM must not be treated as corruption: the entry
        stays on disk and a later load (with memory back) hits."""
        store = ArtifactStore(tmp_path)
        digest = content_digest("big")
        path = store.put("ptiles", digest, {"payload": list(range(50))})

        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pickle, "load", oom)
        assert store.get("ptiles", digest) is None
        assert path.exists()  # NOT unlinked, unlike a corrupt pickle
        assert store.stats.misses == {"ptiles": 1}

        monkeypatch.undo()
        assert store.get("ptiles", digest) == {"payload": list(range(50))}

    def test_malformed_digest_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in (
            "../../../../etc/passwd",
            "deadbeef",  # too short
            content_digest("x").upper(),  # not lowercase hex
            content_digest("x")[:-1] + "/",
            content_digest("x") + "00",  # too long
            "g" * 64,  # right length, not hex
            "",
        ):
            with pytest.raises(ValueError):
                store.path_for("ptiles", bad)
            with pytest.raises(ValueError):
                store.get("ptiles", bad)
            with pytest.raises(ValueError):
                store.put("ptiles", bad, "payload")

    def test_path_stays_inside_kind_directory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("ptiles", content_digest("x"))
        assert path.parent == tmp_path / "ptiles"

    def test_stale_tmp_files_swept(self, tmp_path):
        """A crashed writer's temp file is invisible to the glob-based
        clear()/size_bytes(); the age-gated sweep reclaims it while a
        fresh (possibly live) writer's file is left alone."""
        store = ArtifactStore(tmp_path, stale_tmp_age_s=60.0)
        store.put("ptiles", content_digest("keep"), "v")
        kind_dir = tmp_path / "ptiles"

        stale = kind_dir / f".{content_digest('dead')}.12345.tmp"
        stale.write_bytes(b"x" * 100)
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = kind_dir / f".{content_digest('live')}.12346.tmp"
        fresh.write_bytes(b"y" * 100)

        size = store.size_bytes()
        assert not stale.exists()  # orphan reclaimed
        assert fresh.exists()  # live writer untouched
        assert size >= 100  # fresh tmp is counted while it exists

        os.utime(fresh, (old, old))
        removed = store.clear()
        assert removed == 2  # the artifact + the now-stale tmp
        assert not fresh.exists()
        assert store.size_bytes() == 0

    def test_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        assert ArtifactStore().root == tmp_path / "env"
        monkeypatch.delenv("REPRO_ARTIFACT_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-360"

    def test_stats_report_renders(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get("ptiles", content_digest("miss"))
        assert "ptiles: 0 hit(s), 1 miss(es)" in store.stats.report()


class TestRunComparisonIdentity:
    def test_off_cold_warm_identical(self, fresh_setup, tmp_path, device):
        off = run_comparison(fresh_setup(None), device, **SWEEP_KW)

        cold_setup = fresh_setup(ArtifactStore(tmp_path))
        cold = run_comparison(cold_setup, device, **SWEEP_KW)
        assert cold_setup.artifacts.stats.total_hits == 0
        assert cold_setup.artifacts.stats.writes == {
            "manifest": 1, "ptiles": 1, "ftiles": 1
        }

        warm_setup = fresh_setup(ArtifactStore(tmp_path))
        warm = run_comparison(warm_setup, device, **SWEEP_KW)
        assert warm_setup.artifacts.stats.total_misses == 0
        assert warm_setup.artifacts.stats.hits == {
            "manifest": 1, "ptiles": 1, "ftiles": 1
        }

        assert (
            result_signature(off)
            == result_signature(cold)
            == result_signature(warm)
        )

    def test_warm_identical_across_worker_counts(
        self, fresh_setup, tmp_path, device
    ):
        store = ArtifactStore(tmp_path)
        cold = run_comparison(fresh_setup(store), device, **SWEEP_KW)
        warm_pooled = run_comparison(
            fresh_setup(ArtifactStore(tmp_path)), device, workers=2,
            **SWEEP_KW,
        )
        assert result_signature(cold) == result_signature(warm_pooled)

    def test_parallel_cold_prep_identical(self, fresh_setup, device,
                                          tmp_path):
        serial = run_comparison(fresh_setup(None), device,
                                users_per_video=1,
                                scheme_names=("ctile", "ours"))
        pooled_setup = fresh_setup(ArtifactStore(tmp_path / "p"))
        pooled = run_comparison(pooled_setup, device, users_per_video=1,
                                scheme_names=("ctile", "ours"), workers=2)
        assert result_signature(serial) == result_signature(pooled)

    def test_warm_run_skips_construction(self, fresh_setup, tmp_path,
                                         device, monkeypatch):
        """On a warm store the construction entry points must never run."""
        store = ArtifactStore(tmp_path)
        run_comparison(fresh_setup(store), device, **SWEEP_KW)

        import repro.experiments.setup as setup_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("construction ran on a warm cache")

        monkeypatch.setattr(setup_mod, "build_video_ptiles", boom)
        monkeypatch.setattr(setup_mod, "build_video_ftiles", boom)
        monkeypatch.setattr(setup_mod, "VideoManifest", boom)
        warm_setup = fresh_setup(ArtifactStore(tmp_path))
        warm = run_comparison(warm_setup, device, **SWEEP_KW)
        assert warm_setup.artifacts.stats.total_misses == 0
        assert result_signature(warm)


class TestTwoVideoSweep:
    def test_serial_pooled_cold_warm_identical(self, tmp_path, monkeypatch):
        """Videos 2 and 8, 16 users: a serial cold run, a 2-worker run
        and a warm run return the same sessions; cold has no hit, warm
        has no miss and never reaches construction, trace synthesis
        included."""

        def signature(results):
            return [
                (key, r.user_id, r.total_energy_j, r.mean_qoe,
                 r.total_stall_s)
                for key, sessions in sorted(results.items())
                for r in sessions
            ]

        kw = dict(max_duration_s=30, n_users=16, n_train=12, seed=7,
                  video_ids=(2, 8))
        cold_setup = make_setup(artifacts=ArtifactStore(tmp_path), **kw)
        cold = run_comparison(cold_setup, PIXEL_3, users_per_video=2,
                              workers=1)
        assert cold_setup.artifacts.stats.total_hits == 0

        pooled = run_comparison(make_setup(**kw), PIXEL_3,
                                users_per_video=2, workers=2)

        import repro.experiments.setup as setup_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm run invoked content construction")

        monkeypatch.setattr(setup_mod, "build_video_ptiles", boom)
        monkeypatch.setattr(setup_mod, "build_video_ftiles", boom)
        monkeypatch.setattr(setup_mod, "build_dataset", boom)
        warm_setup = make_setup(artifacts=ArtifactStore(tmp_path), **kw)
        warm = run_comparison(warm_setup, PIXEL_3, users_per_video=2)
        stats = warm_setup.artifacts.stats
        assert stats.total_misses == 0, stats.report()
        assert stats.total_hits > 0, stats.report()
        assert signature(cold) == signature(pooled) == signature(warm)
        assert sum(len(v) for v in cold.values()) == 40


class TestInvalidation:
    def test_changed_clustering_params_rebuild(self, fresh_setup, tmp_path,
                                               device):
        store = ArtifactStore(tmp_path)
        run_comparison(fresh_setup(store), device, **SWEEP_KW)

        changed = fresh_setup(
            ArtifactStore(tmp_path),
            ptile_config=PtileConfig(delta=2.0, sigma=50.0),
        )
        run_comparison(changed, device, **SWEEP_KW)
        # Manifests/Ftiles don't depend on δ/σ: warm.  Ptiles: rebuilt.
        assert changed.artifacts.stats.misses.get("ptiles") == 1
        assert changed.artifacts.stats.writes.get("ptiles") == 1
        assert "manifest" not in changed.artifacts.stats.misses
        assert "ftiles" not in changed.artifacts.stats.misses

    def test_changed_grid_rebuilds_ptiles(self, fresh_setup, tmp_path,
                                          device):
        store = ArtifactStore(tmp_path)
        base = fresh_setup(store)
        base.prepare((2,))
        changed = fresh_setup(
            ArtifactStore(tmp_path), grid=TileGrid(rows=6, cols=12)
        )
        changed.prepare((2,), manifests=False, ftiles=False)
        assert changed.artifacts.stats.misses.get("ptiles") == 1

    def test_changed_train_traces_rebuild(self, tmp_path, network_traces):
        from repro.traces import build_dataset

        for seed in (7, 8):  # different split => different train traces
            dataset = build_dataset(n_users=16, n_train=12, video_ids=(2,),
                                    max_duration_s=20, seed=seed)
            setup = ExperimentSetup(
                dataset=dataset,
                encoder=EncoderModel(),
                trace1=network_traces[0],
                trace2=network_traces[1],
                artifacts=ArtifactStore(tmp_path),
            )
            setup.prepare((2,))
            # The video itself is seed-independent, so the manifest may
            # hit on the second round — but Ptiles/Ftiles depend on the
            # training traces and must be rebuilt for the new split.
            assert setup.artifacts.stats.hits.get("ptiles") is None
            assert setup.artifacts.stats.hits.get("ftiles") is None
            assert setup.artifacts.stats.misses.get("ptiles") == 1
            assert setup.artifacts.stats.misses.get("ftiles") == 1


class TestPrepare:
    def test_prepare_is_idempotent(self, fresh_setup, tmp_path):
        setup = fresh_setup(ArtifactStore(tmp_path))
        setup.prepare()
        ptiles = setup.ptiles(2)
        setup.prepare()
        assert setup.ptiles(2) is ptiles  # memo untouched

    def test_prepare_without_store(self, fresh_setup):
        setup = fresh_setup(None)
        setup.prepare((2,), workers=1)
        assert setup.ptiles(2)
        assert setup.ftiles(2)

    def test_parallel_prepare_matches_serial(self, fresh_setup):
        serial = fresh_setup(None)
        serial.prepare(workers=1)
        pooled = fresh_setup(None)
        pooled.prepare(workers=2)
        for vid in (2, 8):
            assert [
                (sp.segment_index, [p.tiles for p in sp.ptiles])
                for sp in serial.ptiles(vid)
            ] == [
                (sp.segment_index, [p.tiles for p in sp.ptiles])
                for sp in pooled.ptiles(vid)
            ]
            assert [
                [c.rect for c in part.cells] for part in serial.ftiles(vid)
            ] == [
                [c.rect for c in part.cells] for part in pooled.ftiles(vid)
            ]


DATASET_KW = dict(max_duration_s=10, n_users=6, n_train=4, seed=3,
                  video_ids=(2, 8))


def dataset_signature(dataset):
    """Everything a dataset holds, in a form ``==`` compares exactly."""
    return (
        [content_digest(video_fingerprint(v)) for v in dataset.videos],
        {
            vid: [
                (t.user_id, t.video_id, t.timestamps.tobytes(),
                 t.yaw_unwrapped.tobytes(), t.pitch.tobytes())
                for t in traces
            ]
            for vid, traces in dataset.traces.items()
        },
        dataset.train_users,
        dataset.test_users,
    )


def dataset_files(root):
    return sorted((root / "dataset").glob("*.pkl"))


class TestDatasetCache:
    def test_off_cold_warm_datasets_equal(self, tmp_path):
        off = make_setup(**DATASET_KW).dataset
        cold_store = ArtifactStore(tmp_path)
        cold = make_setup(artifacts=cold_store, **DATASET_KW).dataset
        assert cold_store.stats.misses == {"dataset": 1}
        assert cold_store.stats.writes == {"dataset": 1}

        warm_store = ArtifactStore(tmp_path)
        warm = make_setup(artifacts=warm_store, **DATASET_KW).dataset
        assert warm_store.stats.hits == {"dataset": 1}
        assert warm_store.stats.total_misses == 0
        assert warm is not cold
        assert (
            dataset_signature(off)
            == dataset_signature(cold)
            == dataset_signature(warm)
        )

    def test_key_sensitive_to_every_input(self, monkeypatch):
        base_args = (16, 12, 7, (2, 8), 30)
        base = dataset_key(*base_args)
        assert dataset_key(*base_args) == base
        assert dataset_key(*base_args, BehaviorParams()) == base
        changed = [
            dataset_key(16, 12, 8, (2, 8), 30),  # seed
            dataset_key(17, 12, 7, (2, 8), 30),  # n_users
            dataset_key(16, 11, 7, (2, 8), 30),  # n_train
            dataset_key(16, 12, 7, (2,), 30),  # video_ids
            dataset_key(16, 12, 7, None, 30),  # whole catalog
            dataset_key(16, 12, 7, (2, 8), 20),  # max_duration_s
            dataset_key(16, 12, 7, (2, 8), None),  # untruncated
            dataset_key(*base_args, BehaviorParams(jitter_deg=0.5)),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(np, "__version__", np.__version__ + ".post1")
            changed.append(dataset_key(*base_args))
        with monkeypatch.context() as patch:
            patch.setattr(artifacts_mod, "dataset_source_digest",
                          lambda: content_digest("edited generator"))
            changed.append(dataset_key(*base_args))
        assert dataset_key(*base_args) == base
        assert len(set(changed)) == len(changed)
        assert base not in changed

    def test_source_digest_covers_the_generator(self):
        """Every module defining a generation step is hashed, so moving
        one elsewhere cannot silently drop it from the key."""
        from repro.traces.dataset import build_dataset
        from repro.traces.head_movement import HeadTrace
        from repro.traces.synthetic_users import generate_video_traces
        from repro.video.content import build_catalog

        root = Path(artifacts_mod.__file__).resolve().parent.parent
        for obj in (build_dataset, generate_video_traces, HeadTrace,
                    build_catalog):
            source = Path(inspect.getsourcefile(obj)).resolve()
            assert source.relative_to(root).as_posix() in DATASET_SOURCES
        assert dataset_source_digest() == content_digest(
            *((name, (root / name).read_bytes()) for name in DATASET_SOURCES)
        )

    def test_corrupt_dataset_is_rebuilt(self, tmp_path):
        off = make_setup(**DATASET_KW).dataset
        make_setup(artifacts=ArtifactStore(tmp_path), **DATASET_KW)
        (path,) = dataset_files(tmp_path)
        path.write_bytes(b"not a pickle")

        store = ArtifactStore(tmp_path)
        rebuilt = make_setup(artifacts=store, **DATASET_KW).dataset
        assert store.stats.misses == {"dataset": 1}
        assert store.stats.writes == {"dataset": 1}
        assert dataset_signature(rebuilt) == dataset_signature(off)

        again = ArtifactStore(tmp_path)
        warm = make_setup(artifacts=again, **DATASET_KW).dataset
        assert again.stats.hits == {"dataset": 1}
        assert dataset_signature(warm) == dataset_signature(off)

    def test_clear_and_size_cover_datasets(self, tmp_path):
        store = ArtifactStore(tmp_path)
        make_setup(artifacts=store, **DATASET_KW)
        (path,) = dataset_files(tmp_path)
        assert store.size_bytes() == path.stat().st_size > 0
        assert store.clear() == 1
        assert dataset_files(tmp_path) == []
        assert store.size_bytes() == 0
