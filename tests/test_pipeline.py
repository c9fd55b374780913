import json

import numpy as np
import pytest

from trajformer.data import WindowConfig, load_dataset_root
from trajformer.errors import DataError
from trajformer.features import PolarGridConfig, SemanticConfig
from trajformer.pipeline import (build_feature_set, load_feature_cache, resample_scene,
                                 save_feature_cache, worker_count)
from trajformer.serialize import load_bundle, save_bundle
from trajformer.synth import synth_dataset

WCFG = WindowConfig(delta=6, kappa=8, stride=10)
PG = PolarGridConfig()
SC = SemanticConfig(k=8, d_max_px=6)


@pytest.fixture()
def scenes(tmp_path):
    root = synth_dataset(tmp_path / "ds", "crossing", 2, seed=1, n_scenes=2)
    return [resample_scene(s, WCFG.rate_hz) for s in load_dataset_root(root)]


def test_feature_set_shapes(scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    assert len(fset) > 0
    n = len(fset)
    assert fset.features.shape == (n, WCFG.delta - 1, 2 + PG.n_cells + 6)
    assert fset.target_offsets.shape == (n, WCFG.kappa, 2)
    assert fset.obs_m.shape == (n, WCFG.delta, 2)


def test_target_offsets_bridge_and_reconstruct(scenes):
    # first target offset bridges from the last observed position; the
    # cumulative sum of the targets rebuilds the future exactly
    fset = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    for i, case in enumerate(fset.cases()):
        offsets = fset.target_offsets[i]
        assert np.allclose(offsets[0], case.fut_m[0] - case.obs_m[-1], atol=1e-12)
        rebuilt = case.last_obs_m + np.cumsum(offsets, axis=0)
        assert np.max(np.abs(rebuilt - case.fut_m)) < 1e-12


def test_cache_roundtrip_and_determinism(tmp_path, scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_feature_cache(p1, fset, WCFG, PG, SC)
    save_feature_cache(p2, fset, WCFG, PG, SC)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, meta = load_feature_cache(p1)
    assert loaded.keys == fset.keys
    assert np.array_equal(loaded.features, fset.features)
    assert meta["window"]["delta"] == WCFG.delta


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


def test_cache_missing_array_names_file(tmp_path, scenes):
    fset = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    path = tmp_path / "cache.bin"
    save_feature_cache(path, fset, WCFG, PG, SC)
    arrays, meta = load_bundle(path)
    del arrays["obs_m"]
    save_bundle(path, arrays, meta)
    with pytest.raises(DataError, match="lacks obs_m") as exc:
        load_feature_cache(path)
    assert str(path) in str(exc.value)


def test_worker_env_parsing(monkeypatch):
    monkeypatch.delenv("TRAJFORMER_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("TRAJFORMER_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("TRAJFORMER_THREADS", "zero")
    with pytest.raises(DataError):
        worker_count()


def test_parallel_features_match_serial(monkeypatch, scenes):
    monkeypatch.delenv("TRAJFORMER_THREADS", raising=False)
    serial = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    monkeypatch.setenv("TRAJFORMER_THREADS", "3")
    parallel = build_feature_set(scenes, WCFG, PG, SC, resampled=True)
    assert serial.keys == parallel.keys
    assert np.array_equal(serial.features, parallel.features)
