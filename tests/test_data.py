import re
import shutil
import struct
import zlib

import numpy as np
import pytest
from oracle_helpers import write_png_gray

from trajformer.data import (AgentTrack, WindowConfig, extract_windows, load_dataset_root,
                             load_scene_dir, load_tracks, resample, root_digest, scene_files,
                             write_tracks)
from trajformer.errors import DataError
from trajformer.maps import load_scene_map, read_png_gray, write_pgm

CANON_HEADER = "scene_id,agent_id,agent_type,t,x_m,y_m,x_px,y_px\n"


def write_canonical(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write(CANON_HEADER)
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def make_track(agent_id="a", agent_type="pedestrian", n=100, rate=10.0, v=(1.0, 0.0)):
    t = np.arange(n) / rate
    xy = np.array([0.0, 0.0]) + np.array(v) * t[:, None]
    return AgentTrack(agent_id, agent_type, t, xy, xy / 0.1)


# -------------------------------------------------------------- loading

def test_load_canonical_two_agents(tmp_path):
    rows = []
    for agent in ("a", "b"):
        for i in range(3):
            rows.append(["s0", agent, "pedestrian", i * 0.1, i, 0.0, i * 10, 0.0])
    path = tmp_path / "tracks.csv"
    write_canonical(path, rows)
    tracks, scene_id = load_tracks(path, "canonical", 0.1)
    assert scene_id == "s0"
    assert len(tracks) == 2
    assert all(len(t) == 3 for t in tracks)


def test_load_empty_file_header_only(tmp_path):
    path = tmp_path / "tracks.csv"
    write_canonical(path, [])
    tracks, _ = load_tracks(path, "canonical", 0.1)
    assert tracks == []


def test_load_counts_match_groupby_oracle(tmp_path):
    rng = np.random.default_rng(0)
    agents = [f"p{i}" for i in range(7)]
    rows = []
    counts = {}
    clock = {a: 0 for a in agents}
    for _ in range(100):
        agent = agents[rng.integers(len(agents))]
        clock[agent] += 1
        counts[agent] = counts.get(agent, 0) + 1
        t = clock[agent] * 0.1
        rows.append(["s0", agent, "pedestrian", t, t, 0.0, t * 10, 0.0])
    path = tmp_path / "tracks.csv"
    write_canonical(path, rows)
    tracks, _ = load_tracks(path, "canonical", 0.1)
    assert {t.agent_id: len(t) for t in tracks} == counts


def test_unknown_agent_type_names_row(tmp_path):
    path = tmp_path / "tracks.csv"
    write_canonical(path, [["s0", "a", "pedestrian", 0.0, 0, 0, 0, 0],
                           ["s0", "b", "unicycle", 0.1, 0, 0, 0, 0]])
    with pytest.raises(DataError) as exc:
        load_tracks(path, "canonical", 0.1)
    assert "row 3" in str(exc.value)
    assert "unicycle" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coordinate_names_file_and_row(tmp_path, value):
    path = tmp_path / "tracks.csv"
    write_canonical(path, [["s0", "a", "pedestrian", 0.0, 0, 0, 0, 0],
                           ["s0", "a", "pedestrian", 0.1, value, 0, 0, 0]])
    with pytest.raises(DataError, match=re.escape(f"{path} row 3: non-finite x_m")):
        load_tracks(path, "canonical", 0.1)


def test_non_monotone_timestamps_error(tmp_path):
    path = tmp_path / "tracks.csv"
    write_canonical(path, [["s0", "a", "pedestrian", 0.2, 0, 0, 0, 0],
                           ["s0", "a", "pedestrian", 0.1, 0, 0, 0, 0]])
    with pytest.raises(DataError, match="non-monotone"):
        load_tracks(path, "canonical", 0.1)


def test_dut_adapter(tmp_path):
    path = tmp_path / "scene7"
    path.mkdir()
    path = path / "traj.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("id,frame,label,x_est,y_est,vx_est,vy_est,x_px,y_px\n")
        for i in range(4):
            f.write(f"12,{i},ped,{i * 0.05},0.0,1.2,0.0,{i * 0.5},0.0\n")
        f.write("9,0,car,5.0,5.0,0.0,0.0,50.0,50.0\n")
    tracks, scene_id = load_tracks(path, "dut", 0.1)
    assert scene_id == "scene7"
    by_id = {t.agent_id: t for t in tracks}
    assert by_id["12"].agent_type == "pedestrian"
    assert by_id["9"].agent_type == "vehicle"
    assert np.isclose(by_id["12"].t[1], 1 / 23.98)


def test_ind_adapter_attaches_pixels_later(tmp_path):
    # the ind schema has no pixel columns: the loader derives them from meters
    path = tmp_path / "inter0"
    path.mkdir()
    path = path / "tracks.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("trackId,frame,xCenter,yCenter,xVelocity,yVelocity,class\n")
        f.write("3,0,1.0,2.0,0.5,0.0,pedestrian\n")
        f.write("3,1,1.05,2.0,0.5,0.0,pedestrian\n")
        f.write("4,0,9.0,9.0,0.0,0.0,bicycle\n")
    tracks, _ = load_tracks(path, "ind", 0.05)
    by_id = {t.agent_id: t for t in tracks}
    assert by_id["4"].agent_type == "cyclist"
    assert np.isclose(by_id["3"].t[1], 1 / 25.0)
    for track in tracks:
        assert np.array_equal(track.xy_px, track.xy_m / 0.05)


def test_canonical_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    rows = []
    for i in range(20):
        t = i * 0.1
        x, y = rng.normal(), rng.normal()
        rows.append(["s1", "a", "pedestrian", repr(t), repr(x), repr(y),
                     repr(x / 0.1), repr(y / 0.1)])
    src = tmp_path / "in.csv"
    write_canonical(src, rows)
    tracks, scene_id = load_tracks(src, "canonical", 0.1)
    dst = tmp_path / "out.csv"
    write_tracks(dst, tracks, scene_id)
    tracks2, scene_id2 = load_tracks(dst, "canonical", 0.1)
    assert scene_id2 == scene_id
    assert np.array_equal(tracks[0].t, tracks2[0].t)
    assert np.array_equal(tracks[0].xy_m, tracks2[0].xy_m)
    assert np.array_equal(tracks[0].xy_px, tracks2[0].xy_px)


@pytest.mark.parametrize("field", ["xy_m", "xy_px"])
@pytest.mark.parametrize("shape", [(1, 2), (3, 3), (6,)])
def test_track_positions_must_be_one_row_per_time(field, shape):
    arrays = {"xy_m": np.ones((3, 2)), "xy_px": np.ones((3, 2))}
    arrays[field] = np.ones(shape)
    with pytest.raises(DataError, match=f"agent a: 3 times vs {field}"):
        AgentTrack("a", "pedestrian", np.arange(3) * 0.1, **arrays)


def test_write_tracks_failure_keeps_previous_file(tmp_path):
    good = AgentTrack("a", "pedestrian", np.arange(3) * 0.1, np.ones((3, 2)), np.ones((3, 2)) * 10)
    short_px = AgentTrack("b", "pedestrian", np.arange(3) * 0.1, np.ones((3, 2)), np.ones((3, 2)))
    short_px.xy_px = short_px.xy_px[:1]  # fails on the track's second row
    path = tmp_path / "tracks.csv"
    write_tracks(path, [good], "s0")
    before = path.read_bytes()
    with pytest.raises(IndexError):
        write_tracks(path, [good, short_px], "s1")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tracks.csv"]


# ----------------------------------------------------------- resampling

def test_resample_integer_decimation():
    track = make_track(n=40, rate=20.0)
    out = resample(track, 10.0)
    assert len(out) == 20
    assert np.array_equal(out.xy_m, track.xy_m[::2])
    assert np.array_equal(out.t, track.t[::2])


def test_resample_linear_midpoint():
    track = AgentTrack("a", "pedestrian", [0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]],
                       [[0.0, 0.0], [10.0, 0.0]])
    out = resample(track, 10.0)
    assert len(out) == 11
    mid = np.argmin(np.abs(out.t - 0.5))
    assert abs(out.xy_m[mid, 0] - 0.5) < 1e-12


def test_resample_vs_piecewise_linear_oracle():
    # 23.98 Hz sinusoid resampled to 10 Hz against a hand-rolled evaluator
    fps = 23.98
    n = 120
    t = np.arange(n) / fps
    xy = np.stack([np.sin(1.3 * t), np.cos(0.7 * t)], axis=1)
    track = AgentTrack("a", "pedestrian", t, xy, xy / 0.1)
    out = resample(track, 10.0)

    def oracle(query):
        j = np.searchsorted(t, query)
        if j == 0:
            return xy[0]
        if j >= n:
            return xy[-1]
        w = (query - t[j - 1]) / (t[j] - t[j - 1])
        return xy[j - 1] * (1 - w) + xy[j] * w

    for i in range(len(out)):
        assert np.max(np.abs(out.xy_m[i] - oracle(out.t[i]))) < 1e-9
    assert out.t[0] == t[0]
    assert out.t[-1] <= t[-1] + 1e-12  # no extrapolation


def test_resample_single_sample_error():
    track = AgentTrack("a", "pedestrian", [0.0], [[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(DataError):
        resample(track, 10.0)


def test_resample_idempotent():
    track = make_track(n=50, rate=23.0)
    once = resample(track, 10.0)
    twice = resample(once, 10.0)
    assert np.array_equal(once.t, twice.t)
    assert np.array_equal(once.xy_m, twice.xy_m)


def test_resample_on_grid_is_bit_identical():
    track = make_track(n=64, rate=10.0)
    out = resample(track, 10.0)
    assert np.array_equal(out.t, track.t)
    assert np.array_equal(out.xy_m, track.xy_m)
    assert np.array_equal(out.xy_px, track.xy_px)


def test_resample_uniform_spacing_invariant():
    track = make_track(n=97, rate=23.98)
    out = resample(track, 10.0)
    assert np.max(np.abs(np.diff(out.t) - 0.1)) < 1e-9


# -------------------------------------------------------------- windows

def test_window_count_exact_fit():
    cfg = WindowConfig(delta=30, kappa=50, stride=1)
    assert list(extract_windows(make_track(n=80), cfg)) == [0]


def test_window_count_too_short():
    cfg = WindowConfig(delta=30, kappa=50, stride=1)
    assert list(extract_windows(make_track(n=79), cfg)) == []


def test_window_count_stride_enumeration():
    cfg = WindowConfig(delta=30, kappa=50, stride=5)
    starts = extract_windows(make_track(n=120), cfg)
    assert len(starts) == (120 - 80) // 5 + 1 == 9
    assert starts[-1] + 80 <= 120 < starts[-1] + 5 + 80


def test_windows_only_for_pedestrians():
    cfg = WindowConfig(delta=10, kappa=10)
    assert list(extract_windows(make_track(agent_type="vehicle"), cfg)) == []


def test_window_never_mixes_agents():
    cfg = WindowConfig(delta=10, kappa=10, stride=7)
    ego = make_track("ego", n=60)
    other = make_track("other", n=60, v=(0.0, 1.0))
    starts = extract_windows(ego, cfg)
    assert list(starts) == [0, 7, 14, 21, 28, 35]
    for start in starts:
        full = ego.xy_m[start : start + 20]
        assert len(full) == 20
        assert not np.array_equal(full, other.xy_m[start : start + 20])


def test_window_slices_are_contiguous():
    cfg = WindowConfig(delta=5, kappa=3, stride=2, rate_hz=10.0)
    track = make_track(n=30)
    starts = extract_windows(track, cfg)
    assert list(starts) == list(range(0, 23, 2))
    for start in starts:
        assert len(track.t[start : start + 8]) == 8
        assert np.max(np.abs(np.diff(track.t[start : start + 5]) - 0.1)) < 1e-9


# ------------------------------------------------------------ label maps

def test_scene_map_all_zero(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.zeros((4, 6), dtype=np.uint8))
    scene = load_scene_map(path, 0.1)
    assert scene.width == 6 and scene.height == 4
    assert np.all(scene.labels == 0)


def test_scene_map_single_pixel_label(tmp_path):
    labels = np.zeros((5, 5), dtype=np.uint8)
    labels[2, 3] = 3
    path = tmp_path / "map.pgm"
    write_pgm(path, labels)
    scene = load_scene_map(path, 0.1)
    assert scene.labels[2, 3] == 3  # zebra_crossing ordinal
    assert scene.labels.sum() == 3


def test_scene_map_checkerboard_histogram(tmp_path):
    labels = np.indices((8, 8)).sum(axis=0) % 2 + 1  # alternating road/sidewalk
    path = tmp_path / "map.png"
    write_png_gray(path, labels.astype(np.uint8))
    scene = load_scene_map(path, 0.1)
    counts = np.bincount(scene.labels.reshape(-1), minlength=6)
    assert counts[1] == 32 and counts[2] == 32  # pixel-count oracle


def test_scene_map_out_of_range_pixel_reports_coordinates(tmp_path):
    labels = np.zeros((3, 4), dtype=np.uint8)
    labels[1, 2] = 9
    path = tmp_path / "map.pgm"
    write_pgm(path, labels)
    with pytest.raises(DataError) as exc:
        load_scene_map(path, 0.1)
    assert "x=2" in str(exc.value) and "y=1" in str(exc.value)


def test_png_roundtrip_and_pillow_cross_check(tmp_path):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 6, size=(37, 23)).astype(np.uint8)
    ours = tmp_path / "ours.png"
    write_png_gray(ours, pixels)
    assert np.array_equal(read_png_gray(ours), pixels)

    PIL = pytest.importorskip("PIL.Image")
    theirs = tmp_path / "theirs.png"
    PIL.fromarray(pixels, mode="L").save(theirs)  # exercises real filter choices
    assert np.array_equal(read_png_gray(theirs), pixels)
    assert np.array_equal(np.asarray(PIL.open(ours)), pixels)


def spec_filter_row(ftype, row, prev, ties):
    """One PNG scanline filtered as the PNG specification (section 9.2) defines
    it, with a = left, b = up, c = upper-left, and 0 beyond the left edge.
    Paeth ties between predictors are counted into ``ties``."""
    out = bytearray([ftype])
    for x in range(len(row)):
        a = row[x - 1] if x else 0
        b = prev[x]
        c = prev[x - 1] if x else 0
        if ftype == 0:
            pred = 0
        elif ftype == 1:
            pred = a
        elif ftype == 2:
            pred = b
        elif ftype == 3:
            pred = (a + b) // 2
        else:
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            ties[0] += pa == pb or pa == pc or pb == pc
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        out.append((row[x] - pred) % 256)
    return bytes(out)


def write_filtered_png(path, pixels, filters, ties):
    def chunk(kind, payload):
        return (struct.pack(">I", len(payload)) + kind + payload
                + struct.pack(">I", zlib.crc32(kind + payload)))

    rows, prev = [], [0] * pixels.shape[1]
    for ftype, row in zip(filters, pixels.tolist()):
        rows.append(spec_filter_row(ftype, row, prev, ties))
        prev = row
    ihdr = struct.pack(">IIBBBBB", pixels.shape[1], pixels.shape[0], 8, 0, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                     + chunk(b"IDAT", zlib.compress(b"".join(rows))) + chunk(b"IEND", b""))


def test_png_decoder_undoes_every_filter_type(tmp_path):
    rng = np.random.default_rng(11)
    ties, used = [0], set()
    for i in range(30):
        h, w = rng.integers(1, 12), rng.integers(1, 12)
        top = [6, 256, 2][i % 3]  # label maps, full range, and flat images full of ties
        pixels = rng.integers(0, top, size=(h, w)).astype(np.uint8)
        filters = rng.integers(0, 5, size=h)
        used.update(filters.tolist())
        path = tmp_path / f"f{i}.png"
        write_filtered_png(path, pixels, filters, ties)
        assert np.array_equal(read_png_gray(path), pixels), (i, filters)
    assert used == {0, 1, 2, 3, 4} and ties[0] > 0


def test_pgm_ascii_variant(tmp_path):
    path = tmp_path / "map.pgm"
    path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
    scene = load_scene_map(path, 0.1)
    assert np.array_equal(scene.labels, [[0, 1, 2], [3, 4, 5]])


# ------------------------------------------------------------ scene dirs

def make_scene_dir(tmp_path, scene_id="s0", mpp=0.1, n=30):
    scene_dir = tmp_path / scene_id
    scene_dir.mkdir()
    write_pgm(scene_dir / "map.pgm", np.ones((20, 40), dtype=np.uint8))
    (scene_dir / "scene.meta").write_text(
        f"scene_id={scene_id}\nmeters_per_pixel={mpp}\nlabel_map=map.pgm\n")
    track = make_track(n=n)
    write_tracks(scene_dir / "tracks.csv", [track], scene_id)
    return scene_dir


def test_load_scene_dir(tmp_path):
    make_scene_dir(tmp_path)
    scene = load_scene_dir(tmp_path / "s0")
    assert scene.scene_map.scene_id == "s0"
    assert len(scene.tracks) == 1


def test_load_dataset_root(tmp_path):
    make_scene_dir(tmp_path, "s0")
    make_scene_dir(tmp_path, "s1")
    scenes = load_dataset_root(tmp_path)
    assert [s.scene_map.scene_id for s in scenes] == ["s0", "s1"]


BAD_IDS = ["", ".", "..", "../escaped", "x/ped0", "nul\0id"]


@pytest.mark.parametrize("bad_id", BAD_IDS)
@pytest.mark.parametrize("column", ["scene_id", "agent_id"])
def test_id_that_is_not_a_file_name_names_file_and_row(tmp_path, column, bad_id):
    path = tmp_path / "tracks.csv"
    ids = {"scene_id": "s0", "agent_id": "a", column: bad_id}
    write_canonical(path, [[ids["scene_id"], "a", "pedestrian", 0.0, 0, 0, 0, 0],
                           [ids["scene_id"], ids["agent_id"], "pedestrian", 0.1, 0, 0, 0, 0]])
    row = 2 if column == "scene_id" else 3
    message = f"{path} row {row}: {column} {bad_id!r} is not a plain file name"
    with pytest.raises(DataError, match=re.escape(message)):
        load_tracks(path, "canonical", 0.1)


@pytest.mark.parametrize("bad_id", BAD_IDS)
def test_scene_meta_id_that_is_not_a_file_name_names_file_and_line(tmp_path, bad_id):
    scene_dir = make_scene_dir(tmp_path)
    meta = scene_dir / "scene.meta"
    meta.write_text(meta.read_text().replace("scene_id=s0", f"scene_id={bad_id}"))
    message = f"{meta} line 1: scene_id {bad_id.strip()!r} is not a plain file name"
    with pytest.raises(DataError, match=re.escape(message)):
        load_scene_dir(scene_dir)


def test_two_scene_dirs_with_one_scene_id_name_both(tmp_path):
    first = make_scene_dir(tmp_path, "s0")
    second = tmp_path / "s0_copy"
    shutil.copytree(first, second)
    with pytest.raises(DataError, match=re.escape(f"{first} and {second} both hold scene 's0'")):
        load_dataset_root(tmp_path)


def test_root_digest_covers_the_files_each_scene_is_read_from(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    make_scene_dir(root, "s0")
    scene = make_scene_dir(root, "s1")
    digest = root_digest(root, "canonical")
    assert list(digest) == ["adapter", "scenes"] and digest["adapter"] == "canonical"
    assert list(digest["scenes"]) == ["s0", "s1"]
    assert root_digest(root, "dut")["scenes"] == digest["scenes"]
    meta, files = scene_files(scene)
    assert files == (scene / "scene.meta", scene / "map.pgm", scene / "tracks.csv")
    (scene / "notes.txt").write_text("not read by the loader")
    (root / "README").write_text("not a scene")
    assert root_digest(root, "canonical") == digest
    copy = tmp_path / "renamed"  # content, not the directory name, is digested
    shutil.copytree(root, copy)
    assert root_digest(copy, "canonical") == digest
    for path in files:  # one byte more in any file changes that scene's digest only
        path.write_bytes(path.read_bytes() + b"\n")
        changed = root_digest(root, "canonical")["scenes"]
        assert changed["s0"] == digest["scenes"]["s0"] and changed["s1"] != digest["scenes"]["s1"]
        shutil.copy(copy / "s1" / path.name, path)
    assert root_digest(root, "canonical") == digest


def test_root_digest_reads_the_tracks_file_scene_meta_names(tmp_path):
    scene = make_scene_dir(tmp_path)
    digest = root_digest(tmp_path, "canonical")
    (scene / "tracks.csv").rename(scene / "other.csv")
    with (scene / "scene.meta").open("a") as f:
        f.write("tracks=other.csv\n")
    assert scene_files(scene)[1][2] == scene / "other.csv"
    assert len(load_scene_dir(scene).tracks) == 1
    assert root_digest(tmp_path, "canonical")["scenes"]["s0"] != digest["scenes"]["s0"]


@pytest.mark.parametrize("name", ["map.pgm", "tracks.csv"])
def test_root_digest_names_a_missing_file(tmp_path, name):
    scene = make_scene_dir(tmp_path)
    (scene / name).unlink()
    with pytest.raises(DataError, match=re.escape(str(scene / name))):
        root_digest(tmp_path, "canonical")


def test_root_digest_refuses_two_scene_dirs_with_one_scene_id(tmp_path):
    first = make_scene_dir(tmp_path, "s0")
    second = tmp_path / "s0_copy"
    shutil.copytree(first, second)
    with pytest.raises(DataError, match=re.escape(f"{first} and {second} both hold scene 's0'")):
        root_digest(tmp_path, "canonical")


@pytest.mark.parametrize("mpp", ["abc", "nan", "0", "-0.1"])
def test_bad_meters_per_pixel_names_file_and_row(tmp_path, mpp):
    scene_dir = make_scene_dir(tmp_path, mpp=mpp)
    with pytest.raises(DataError, match=r"scene\.meta row 2: .*meters_per_pixel"):
        load_scene_dir(scene_dir)


def test_pixel_meter_consistency_enforced(tmp_path):
    scene_dir = make_scene_dir(tmp_path, mpp=0.25)  # tracks were built at 0.1
    with pytest.raises(DataError, match="disagree"):
        load_scene_dir(scene_dir)
