import numpy as np
import pytest
from oracle_helpers import reference_save_bundle

from trajformer import serialize
from trajformer.evaluation import MetricsRow, MetricsTable, emit_report
from trajformer.features import FeatureStats
from trajformer.model import ModelConfig, ModelParams, save_checkpoint
from trajformer.serialize import atomic_open, load_bundle, save_bundle
from trajformer.training import AdamState


def mixed_arrays():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(4, 6))
    return {
        "f64": base,
        "f32": base.astype(np.float32),
        "big_endian": base.astype(">f8"),
        "strided": base[:, ::2],
        "fortran": np.asfortranarray(base),
        "i32": np.arange(7, dtype=np.int32),
        "u8": np.arange(5, dtype=np.uint8),
        "flags": np.array([True, False, True]),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
    }


def test_streamed_writer_bytes_equal_reference_writer(tmp_path):
    arrays, meta = mixed_arrays(), {"kind": "test", "n": [1, 2]}
    save_bundle(tmp_path / "new.bin", arrays, meta)
    reference_save_bundle(tmp_path / "ref.bin", arrays, meta)
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
    loaded, loaded_meta = load_bundle(tmp_path / "new.bin")
    assert loaded_meta == meta
    for name, arr in arrays.items():  # a 0-d array comes back as shape (1,)
        assert np.array_equal(loaded[name], np.atleast_1d(arr))


def test_checkpoint_with_moments_equals_reference_writer(tmp_path, monkeypatch):
    params = ModelParams(ModelConfig(feature_dim=3, d_model=8, n_heads=2, n_layers=1), seed=1)
    state = AdamState(params, tau=3)
    stats = FeatureStats(np.zeros(3), np.ones(3))
    save_checkpoint(tmp_path / "new.ckpt", params, stats, {"epochs_done": 1}, state)
    monkeypatch.setattr("trajformer.model.save_bundle", reference_save_bundle)
    save_checkpoint(tmp_path / "ref.ckpt", params, stats, {"epochs_done": 1}, state)
    assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


def test_failing_bundle_write_leaves_old_file_and_no_partial(tmp_path, monkeypatch):
    path = tmp_path / "x.bin"
    save_bundle(path, {"a": np.arange(3.0)})
    before = path.read_bytes()

    def fail_on_b(f, arr, dtype):  # "a" is written first, then "b" fails
        if len(arr) == 4:
            raise OSError("disk full")
        f.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    monkeypatch.setattr(serialize, "_write_array", fail_on_b)
    with pytest.raises(OSError, match="disk full"):
        save_bundle(path, {"a": np.arange(5.0), "b": np.arange(4.0)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]
    with pytest.raises(OSError):
        save_bundle(tmp_path / "new.bin", {"a": np.arange(5.0), "b": np.arange(4.0)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]


def test_failing_report_write_leaves_no_file(tmp_path, monkeypatch):
    table = MetricsTable([MetricsRow("ds", "m", 1.0, 0.5, 0.6, 3)])
    emit_report(table, tmp_path / "report.csv", "csv")
    before = (tmp_path / "report.csv").read_bytes()

    def broken(_table):
        raise RuntimeError("render failed")

    monkeypatch.setattr("trajformer.evaluation.render_markdown", broken)
    with pytest.raises(RuntimeError):
        emit_report(table, tmp_path / "report.md", "markdown")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]
    assert (tmp_path / "report.csv").read_bytes() == before


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write("first")
        assert not path.exists()
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("second, half")
            raise KeyboardInterrupt
    assert path.read_text(encoding="utf-8") == "first"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
