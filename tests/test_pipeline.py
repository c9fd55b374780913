import json

import numpy as np
import pytest
from oracle_helpers import reference_window_features

from trajformer.data import AgentTrack, Scene, WindowConfig, load_dataset_root
from trajformer.errors import DataError
from trajformer.features import FeatureStats, PolarGridConfig, SemanticConfig
from trajformer.maps import SceneMap
from trajformer.pipeline import (build_feature_set, load_feature_cache, load_root,
                                 resample_scene, save_feature_cache)
from trajformer.serialize import load_bundle, save_bundle
from trajformer.synth import SCENARIOS, generate_scenes, synth_dataset

WCFG = WindowConfig(delta=6, kappa=8, stride=10)
PG = PolarGridConfig()
SC = SemanticConfig(k=8, d_max_px=6)


@pytest.fixture()
def scenes(tmp_path):
    root = synth_dataset(tmp_path / "ds", "crossing", 2, seed=1, n_scenes=2)
    return [resample_scene(s, WCFG.rate_hz) for s in load_dataset_root(root)]


def test_feature_set_shapes(scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC)
    assert len(fset) > 0
    n = len(fset)
    assert fset.features.shape == (n, WCFG.delta - 1, 2 + PG.n_cells + 6)
    assert fset.target_offsets.shape == (n, WCFG.kappa, 2)
    assert fset.obs_m.shape == (n, WCFG.delta, 2)


def test_load_root_equals_resample_then_build(tmp_path):
    # recorded at 25 Hz, so resampling onto the 10 Hz grid interpolates
    root = synth_dataset(tmp_path / "ds", "crossing", 2, seed=1, n_scenes=2, rate_hz=25.0)
    ref_scenes = [resample_scene(s, WCFG.rate_hz) for s in load_dataset_root(root)]
    for context in (False, True):
        scenes, fset = load_root(root, "canonical", WCFG, PG, SC, context)
        ref = build_feature_set(ref_scenes, WCFG, PG, SC, context)
        assert len(fset) > 0 and fset.keys == ref.keys and fset.context == ref.context
        for name in ("features", "target_offsets", "last_obs_m", "obs_m", "fut_m"):
            assert np.array_equal(getattr(fset, name), getattr(ref, name)), name
        for ours, want in zip(scenes, ref_scenes, strict=True):
            assert [tr.agent_id for tr in ours.tracks] == [tr.agent_id for tr in want.tracks]
            for a, b in zip(ours.tracks, want.tracks):
                assert np.array_equal(a.t, b.t) and np.array_equal(a.xy_m, b.xy_m)
                assert np.array_equal(a.xy_px, b.xy_px)


def test_stats_fitted_on_one_scenario_stay_in_range_on_another():
    wcfg, sc = WindowConfig(delta=10, kappa=20, stride=5), SemanticConfig()
    train = build_feature_set(generate_scenes("obstacle", 3, seed=0), wcfg, PG, sc).features
    test = build_feature_set(generate_scenes("crossing", 3, seed=1), wcfg, PG, sc).features
    stats = FeatureStats.fit([train])
    const = train.reshape(-1, train.shape[-1]).std(axis=0) < 1e-8
    assert const.sum() > 50  # most grid cells and map labels never vary in training
    both = np.concatenate([train, test]).reshape(-1, train.shape[-1])
    span = both.max(axis=0) - both.min(axis=0)
    held_out = stats.apply(test)
    assert np.array_equal(held_out[..., const], test[..., const] - stats.mean[const])
    assert np.all(np.abs(held_out[..., const]) <= span[const])


def test_target_offsets_bridge_and_reconstruct(scenes):
    # first target offset bridges from the last observed position; the
    # cumulative sum of the targets rebuilds the future exactly
    fset = build_feature_set(scenes, WCFG, PG, SC)
    offsets = fset.target_offsets
    assert np.allclose(offsets[:, 0], fset.fut_m[:, 0] - fset.obs_m[:, -1], atol=1e-12)
    assert np.array_equal(fset.last_obs_m, fset.obs_m[:, -1])
    rebuilt = fset.last_obs_m[:, None] + np.cumsum(offsets, axis=1)
    assert np.max(np.abs(rebuilt - fset.fut_m)) < 1e-12


def test_cache_roundtrip_and_determinism(tmp_path, scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_feature_cache(p1, fset, WCFG, PG, SC)
    save_feature_cache(p2, fset, WCFG, PG, SC)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, meta = load_feature_cache(p1)
    assert loaded.keys == fset.keys
    assert np.array_equal(loaded.features, fset.features)
    assert meta["window"]["delta"] == WCFG.delta


@pytest.mark.parametrize("version", [1, 3, None])
def test_cache_of_another_version_names_file_and_versions(tmp_path, scenes, version):
    path = tmp_path / "cache.bin"
    save_feature_cache(path, build_feature_set(scenes, WCFG, PG, SC), WCFG, PG, SC)
    arrays, meta = load_bundle(path)
    assert meta["cache_version"] == 2
    save_bundle(path, arrays, {**meta, "cache_version": version})
    with pytest.raises(DataError, match=f"feature cache version {version!r}, expected 2") as exc:
        load_feature_cache(path)
    assert str(path) in str(exc.value)


def test_cache_records_its_source(tmp_path, scenes):
    path = tmp_path / "cache.bin"
    source = {"adapter": "canonical", "scenes": {"s": "00"}}
    save_feature_cache(path, build_feature_set(scenes, WCFG, PG, SC), WCFG, PG, SC, source)
    assert load_feature_cache(path)[1]["source"] == source


def test_cache_rejects_other_bundles(tmp_path):
    (tmp_path / "junk.bin").write_bytes(b"not a bundle")
    with pytest.raises(DataError):
        load_feature_cache(tmp_path / "junk.bin")


def raw_bundle(path, header: bytes, payload: bytes = b""):
    path.write_bytes(b"TJF1" + len(header).to_bytes(8, "little") + header + payload)
    return path


def manifest(*arrays):
    return json.dumps({"format_version": 1, "meta": {}, "arrays": list(arrays)}).encode()


@pytest.mark.parametrize("name, header, payload, message", [
    ("latin1.bin", b'{"meta": "\xe9"}', b"", "not UTF-8 JSON"),
    ("notjson.bin", b"{not json", b"", "not UTF-8 JSON"),
    ("unknown_dtype.bin", manifest({"name": "x", "dtype": "<f4", "shape": [2]}), bytes(8),
     "unknown dtype"),
    ("truncated.bin", manifest({"name": "x", "dtype": "<f8", "shape": [2]}), bytes(8),
     "truncated array"),
    ("name_not_string.bin", manifest({"name": [1], "dtype": "<f8", "shape": [1]}), bytes(8),
     "not a string"),
])
def test_malformed_bundle_names_file(tmp_path, name, header, payload, message):
    path = raw_bundle(tmp_path / name, header, payload)
    with pytest.raises(DataError, match=message) as exc:
        load_bundle(path)
    assert str(path) in str(exc.value)


def test_header_length_past_end_names_file(tmp_path):
    header = manifest()
    path = tmp_path / "long.bin"
    path.write_bytes(b"TJF1" + (len(header) + 1).to_bytes(8, "little") + header)
    with pytest.raises(DataError, match="past the end") as exc:
        load_bundle(path)
    assert str(path) in str(exc.value)


def test_load_bundle_reads_only_named_arrays(tmp_path):
    arrays = {"a": np.arange(3.0), "b": np.arange(4), "c": np.ones((2, 2))}
    save_bundle(tmp_path / "x.bin", arrays, {"k": 1})
    subset, meta = load_bundle(tmp_path / "x.bin", names={"c", "missing"})
    assert list(subset) == ["c"] and np.array_equal(subset["c"], arrays["c"])
    assert meta == {"k": 1}
    assert load_bundle(tmp_path / "x.bin", names=())[0] == {}


def test_load_bundle_reads_into_caller_arrays(tmp_path):
    path = tmp_path / "x.bin"
    save_bundle(path, {"a": np.arange(3.0), "c": np.ones((2, 2))})
    dest = np.zeros(7)
    into = {"c": dest[3:].reshape(2, 2), "missing": np.zeros(1)}
    arrays, _ = load_bundle(path, names={"a"}, into=into)
    assert sorted(arrays) == ["a", "c"] and arrays["c"] is into["c"]
    assert np.array_equal(dest, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    for wrong in (np.zeros((4,)), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(DataError, match="array 'c' is <f8 \\[2, 2\\]") as exc:
            load_bundle(path, into={"c": wrong})
        assert str(path) in str(exc.value)


def test_cache_missing_array_names_file(tmp_path, scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC)
    path = tmp_path / "cache.bin"
    save_feature_cache(path, fset, WCFG, PG, SC)
    arrays, meta = load_bundle(path)
    del arrays["obs_m"]
    save_bundle(path, arrays, meta)
    with pytest.raises(DataError, match="lacks obs_m") as exc:
        load_feature_cache(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("key", [["s", "ped0"], ["s", "ped0", 1.0], ["s", 0, 1], "s,ped0,1",
                                 ["s", "ped0", True]],
                         ids=["two_fields", "float_start", "int_ego", "string", "bool_start"])
def test_cache_key_that_is_not_a_window_key_names_file(tmp_path, scenes, key):
    path = tmp_path / "cache.bin"
    save_feature_cache(path, build_feature_set(scenes, WCFG, PG, SC), WCFG, PG, SC)
    arrays, meta = load_bundle(path)
    save_bundle(path, arrays, {**meta, "keys": [*meta["keys"][:-1], key]})
    with pytest.raises(DataError, match="is not \\[scene_id, ego_id, start_index\\]") as exc:
        load_feature_cache(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("short", ["features", "fut_m"])
def test_cache_arrays_of_other_row_counts_than_keys_name_file(tmp_path, scenes, short):
    path = tmp_path / "cache.bin"
    save_feature_cache(path, build_feature_set(scenes, WCFG, PG, SC), WCFG, PG, SC)
    arrays, meta = load_bundle(path)
    save_bundle(path, {**arrays, short: arrays[short][:-1]}, meta)
    with pytest.raises(DataError, match=f"{short} rows differ from its {len(meta['keys'])} keys"
                       ) as exc:
        load_feature_cache(path)
    assert str(path) in str(exc.value)


# ------------------------------------- features once per (agent, timestep)

DESK_WINDOWS = WindowConfig(delta=10, kappa=20, stride=5)
PAPER_WINDOWS = WindowConfig(delta=30, kappa=50, stride=1)


def assert_matches_reference(tmp_path, scenes, wcfg, pg, sc):
    """Bit-equal FeatureSet and byte-equal cache versus the per-window loop;
    returns the context feature set."""
    for context in (False, True):
        ours = build_feature_set(scenes, wcfg, pg, sc, context)
        ref = reference_window_features(scenes, wcfg, pg, sc, context)
        assert ours.keys == ref.keys and ours.context == ref.context
        for name in ("features", "target_offsets", "last_obs_m", "obs_m", "fut_m"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
        save_feature_cache(tmp_path / "ours.bin", ours, wcfg, pg, sc)
        save_feature_cache(tmp_path / "ref.bin", ref, wcfg, pg, sc)
        assert (tmp_path / "ours.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
    return ours


@pytest.mark.parametrize("wcfg", [DESK_WINDOWS, PAPER_WINDOWS], ids=["desk", "paper"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_feature_set_matches_per_window_reference(tmp_path, scenario, wcfg):
    scenes = [resample_scene(s, wcfg.rate_hz) for s in generate_scenes(scenario, 2, 3, 1)]
    for channels in (1, 3):
        pg = PolarGridConfig(type_channels=channels)
        fset = assert_matches_reference(tmp_path, scenes, wcfg, pg, SC)
        assert len(fset) > 0


def test_partial_neighbor_and_short_ego_match_reference(tmp_path):
    # ego windows start at 0, 5 and 10; the cyclist appears at step 12 and
    # leaves at step 17, inside the observed steps 10-19 of the last window;
    # the second pedestrian is too short to be an ego but is a neighbor. Their
    # clocks sit 1e-9 s either side of the ego's, as samples resampled onto
    # the grid from different anchors can.
    wcfg = DESK_WINDOWS
    t = np.arange(40) / wcfg.rate_hz
    ego_m = np.stack([2.0 + 1.2 * t, np.full(40, 5.0)], axis=1)
    bike_m = ego_m[12:18] + np.array([1.0, 0.5])
    short_m = ego_m[3:28] + np.array([-1.5, -1.0])
    tracks = [AgentTrack("ego", "pedestrian", t, ego_m, ego_m / 0.2),
              AgentTrack("bike", "cyclist", t[12:18] - 1e-9, bike_m, bike_m / 0.2),
              AgentTrack("short", "pedestrian", t[3:28] + 1e-9, short_m, short_m / 0.2)]
    labels = np.random.default_rng(0).integers(0, 6, size=(60, 120)).astype(np.uint8)
    scenes = [Scene(SceneMap("s", labels, 0.2), tracks, {})]
    for channels in (1, 3):
        pg = PolarGridConfig(type_channels=channels)
        fset = assert_matches_reference(tmp_path, scenes, wcfg, pg, SC)
        assert [k[1:] for k in fset.keys] == [("ego", 0), ("ego", 5), ("ego", 10)]
        counts = fset.features[:, :, 2 : 2 + pg.n_cells].sum(axis=2)
        # the last window sees the short pedestrian at all 9 steps, the bike at 6
        assert counts[2].sum() == 9 + 6
        assert np.array_equal(counts[2], [1, 2, 2, 2, 2, 2, 2, 1, 1])
