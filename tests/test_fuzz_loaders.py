"""Mutation fuzzing of the file loaders: any mutated input either loads or
raises the loader's error (DataError; ConfigError for config files) naming
the file, never another exception."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle_helpers import write_png_gray

from trajformer.config import parse_kv_file
from trajformer.data import load_tracks, parse_scene_meta
from trajformer.errors import ConfigError, DataError
from trajformer.maps import read_pgm, read_png_gray, write_pgm
from trajformer.serialize import load_bundle, save_bundle

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _seed_files(root: Path) -> dict[str, bytes]:
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) % 6
    write_pgm(root / "map.pgm", pixels)
    write_png_gray(root / "map.png", pixels)
    save_bundle(root / "x.bin", {"a": np.arange(3.0), "b": np.arange(4).reshape(2, 2)},
                {"kind": "feature_cache", "n": 2})
    seeds = {name: (root / name).read_bytes() for name in ("map.pgm", "map.png", "x.bin")}
    seeds["map_ascii.pgm"] = b"P2\n# labels\n4 3\n255\n" + b" ".join(
        str(v).encode() for v in pixels.reshape(-1)) + b"\n"
    seeds["tracks.csv"] = (b"scene_id,agent_id,agent_type,t,x_m,y_m,x_px,y_px\n"
                           b"s,a,pedestrian,0.0,1.0,2.0,10.0,20.0\n"
                           b"s,a,pedestrian,0.1,1.1,2.0,11.0,20.0\n"
                           b"s,b,vehicle,0.0,3.0,4.0,30.0,40.0\n")
    seeds["dut.csv"] = (b"id,frame,label,x_est,y_est,vx_est,vy_est,x_px,y_px\n"
                        b"1,0,Pedestrian,1.0,2.0,0,0,10,20\n1,1,Pedestrian,1.1,2.0,0,0,11,20\n")
    seeds["ind.csv"] = (b"trackId,frame,xCenter,yCenter,xVelocity,yVelocity,class\n"
                        b"1,0,1.0,2.0,0,0,pedestrian\n1,1,1.1,2.0,0,0,pedestrian\n")
    seeds["scene.meta"] = b"scene_id = s\nmeters_per_pixel = 0.1\nlabel_map = map.pgm\n"
    seeds["run.cfg"] = b"# desk\nwindow.delta = 10\nmodel.d_model = 32\ntrain.grad_clip =\n"
    return seeds


with tempfile.TemporaryDirectory() as _tmp:
    SEEDS = _seed_files(Path(_tmp))

LOADERS = {
    "x.bin": load_bundle,
    "map.pgm": read_pgm,
    "map_ascii.pgm": read_pgm,
    "map.png": read_png_gray,
    "tracks.csv": lambda p: load_tracks(p, "canonical", 0.1),
    "dut.csv": lambda p: load_tracks(p, "dut", 0.1),
    "ind.csv": lambda p: load_tracks(p, "ind", 0.1),
    "scene.meta": parse_scene_meta,
    "run.cfg": parse_kv_file,
}
ERRORS = {"run.cfg": ConfigError}  # every other loader raises DataError


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    data = bytearray(SEEDS[name])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        chunk = draw(st.binary(min_size=1, max_size=4))
        if kind == "set":
            data[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            data[pos:pos] = chunk
        elif kind == "delete":
            del data[pos:pos + len(chunk)]
        else:
            del data[pos:]
    return name, bytes(data)


@FUZZ
@given(mutated())
def test_mutated_input_loads_or_raises_data_error(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            LOADERS[name](path)
        except ERRORS.get(name, DataError) as exc:
            assert str(path) in str(exc)


def test_unmutated_seeds_load():
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in SEEDS.items():
            path = Path(tmp) / name
            path.write_bytes(data)
            LOADERS[name](path)
