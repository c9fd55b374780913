import numpy as np
import pytest
from oracle_helpers import brute_force_grid, brute_force_semantics

from trajformer import features
from trajformer.data import AgentTrack, TrajectoryWindow
from trajformer.features import (FeatureStats, PolarGridConfig, SemanticConfig, build_features,
                                 compute_offsets, feature_dim, polar_occupancy,
                                 semantic_histogram)
from trajformer.maps import N_LABELS, SceneMap
from trajformer.synth import generate_scenes


# -------------------------------------------------------------- offsets

def test_offsets_stationary():
    out = compute_offsets(np.tile([2.0, 3.0], (5, 1)))
    assert np.array_equal(out, np.zeros((4, 2)))


def test_offsets_hand_case():
    out = compute_offsets(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 2.0]])


def test_offsets_prefix_sum_reconstruction():
    rng = np.random.default_rng(0)
    positions = rng.normal(size=(40, 2))
    offsets = compute_offsets(positions)
    rebuilt = positions[0] + np.concatenate([np.zeros((1, 2)), np.cumsum(offsets, axis=0)])
    assert np.max(np.abs(rebuilt - positions)) < 1e-12


def test_offsets_too_short():
    with pytest.raises(ValueError):
        compute_offsets(np.zeros((1, 2)))


# ----------------------------------------------------------- polar grid

def test_grid_empty_when_no_neighbors_within_threshold():
    cfg = PolarGridConfig(threshold_px=64)
    grid = polar_occupancy(np.zeros(2), [(np.array([100.0, 0.0]), "vehicle")], cfg)
    assert grid.sum() == 0


def test_grid_single_pedestrian_geometry():
    cfg = PolarGridConfig(threshold_px=64, radial_bins=4, angular_bins=8)
    grid = polar_occupancy(np.array([5.0, 5.0]), [(np.array([15.0, 5.0]), "pedestrian")], cfg)
    assert grid[0, 0, 0] == 1  # 10 px < 16 px bin edge, angle 0, pedestrian channel
    assert grid.sum() == 1


def test_grid_coincident_neighbors_add():
    cfg = PolarGridConfig()
    pos = np.array([10.0, -3.0])
    grid = polar_occupancy(np.zeros(2), [(pos, "vehicle"), (pos.copy(), "vehicle")], cfg)
    assert grid.max() == 2
    assert grid.sum() == 2


def test_grid_boundary_distance_inclusive():
    cfg = PolarGridConfig(threshold_px=50, radial_bins=5)
    grid = polar_occupancy(np.zeros(2), [(np.array([50.0, 0.0]), "cyclist")], cfg)
    assert grid[4, 0, 2] == 1  # exactly at the threshold lands in the outer bin


def test_grid_matches_brute_force_oracle_1000_cases():
    rng = np.random.default_rng(1)
    kinds = ("pedestrian", "vehicle", "cyclist")
    for _ in range(1000):
        cfg = PolarGridConfig(
            threshold_px=float(rng.uniform(5, 120)),
            radial_bins=int(rng.integers(1, 7)),
            angular_bins=int(rng.integers(1, 12)),
            type_channels=int(rng.choice([1, 3])),
        )
        ego = rng.uniform(-50, 50, size=2)
        neighbors = [
            (ego + rng.uniform(-130, 130, size=2), kinds[rng.integers(3)])
            for _ in range(rng.integers(0, 12))
        ]
        ours = polar_occupancy(ego, neighbors, cfg)
        assert np.array_equal(ours, brute_force_grid(ego, neighbors, cfg))


def test_grid_permutation_invariance():
    rng = np.random.default_rng(2)
    cfg = PolarGridConfig()
    ego = np.zeros(2)
    neighbors = [(rng.uniform(-70, 70, size=2), "pedestrian") for _ in range(9)]
    base = polar_occupancy(ego, neighbors, cfg)
    for _ in range(5):
        perm = [neighbors[i] for i in rng.permutation(9)]
        assert np.array_equal(polar_occupancy(ego, perm, cfg), base)


def test_grid_translation_invariance():
    rng = np.random.default_rng(3)
    cfg = PolarGridConfig()
    ego = rng.uniform(size=2)
    neighbors = [(rng.uniform(-70, 70, size=2), "vehicle") for _ in range(6)]
    base = polar_occupancy(ego, neighbors, cfg)
    shift = np.array([123.4, -56.7])
    shifted = [(p + shift, k) for p, k in neighbors]
    assert np.array_equal(polar_occupancy(ego + shift, shifted, cfg), base)


def test_grid_total_count_equals_in_range_neighbors():
    rng = np.random.default_rng(4)
    cfg = PolarGridConfig(threshold_px=40)
    for _ in range(50):
        ego = rng.uniform(-10, 10, size=2)
        neighbors = [(ego + rng.uniform(-80, 80, size=2), "cyclist")
                     for _ in range(rng.integers(0, 15))]
        expected = sum(np.hypot(*(p - ego)) <= cfg.threshold_px for p, _ in neighbors)
        assert polar_occupancy(ego, neighbors, cfg).sum() == expected


@pytest.mark.parametrize("channels", [1, 3])
def test_grid_over_many_steps_matches_brute_force_per_step(channels):
    rng = np.random.default_rng(7)
    cfg = PolarGridConfig(threshold_px=50, radial_bins=5, angular_bins=4, type_channels=channels)
    n = 400
    ego = rng.integers(-100, 100, size=(n, 2)).astype(np.float64)  # integral: exact offsets
    # on the threshold circle, at angles 0 and pi/2, at the ego's own position
    exact = [(50, 0), (0, 50), (-50, 0), (30, 40), (-30, -40), (10, 0), (0, 10), (0, 0)]
    kinds = ("pedestrian", "vehicle", "cyclist")
    neighbors = [(ego + off, kinds[i % 3]) for i, off in enumerate(exact)]
    neighbors += [(ego + rng.uniform(-70, 70, size=(n, 2)), kinds[i % 3]) for i in range(6)]
    for pos, _ in neighbors:
        pos[rng.random(n) < 0.4] = np.nan
    empty = rng.random(n) < 0.1
    for pos, _ in neighbors:
        pos[empty] = np.nan
    grids = polar_occupancy(ego, neighbors, cfg)
    assert grids.shape == (n, 5, 4, channels)
    for i in range(n):
        here = [(pos[i], kind) for pos, kind in neighbors if not np.isnan(pos[i, 0])]
        assert np.array_equal(grids[i], brute_force_grid(ego[i], here, cfg)), f"step {i}"
        if i % 50 == 0:
            assert np.array_equal(polar_occupancy(ego[i], here, cfg), grids[i])
    assert not grids[empty].any() and grids[~empty].any()
    assert polar_occupancy(ego, [], cfg).shape == (n, 5, 4, channels)


# -------------------------------------------------------- semantics

def uniform_scene(label=1, shape=(30, 40)):
    return SceneMap("s", np.full(shape, label, dtype=np.uint8), 0.1)


def test_semantics_uniform_region():
    out = semantic_histogram(np.array([20.0, 15.0]), uniform_scene(1), SemanticConfig())
    expected = np.zeros(N_LABELS)
    expected[1] = 1.0
    assert np.array_equal(out, expected)


def test_semantics_corner_half_and_half():
    labels = np.zeros((2, 2), dtype=np.uint8)
    labels[:, 0] = 1  # left column road
    labels[:, 1] = 2  # right column sidewalk
    scene = SceneMap("s", labels, 0.1)
    out = semantic_histogram(np.array([0.5, 0.5]), scene, SemanticConfig(k=4, d_max_px=2))
    assert np.allclose(out, [0, 0.5, 0.5, 0, 0, 0])


def test_semantics_zero_candidates_is_one_hot_none():
    # d_max smaller than the distance to any pixel centre
    scene = uniform_scene(1, shape=(3, 3))
    out = semantic_histogram(np.array([0.5, 0.5]), scene, SemanticConfig(k=4, d_max_px=0.4))
    assert np.array_equal(out, [1, 0, 0, 0, 0, 0])


def test_semantics_clamps_outside_positions():
    scene = uniform_scene(4, shape=(5, 5))
    out = semantic_histogram(np.array([-100.0, 100.0]), scene, SemanticConfig(k=3, d_max_px=2))
    assert out[4] == 1.0


def test_semantics_matches_exhaustive_oracle_1000_cases():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        h, w = int(rng.integers(4, 24)), int(rng.integers(4, 24))
        scene = SceneMap("s", rng.integers(0, 6, size=(h, w)).astype(np.uint8), 0.1)
        cfg = SemanticConfig(k=int(rng.integers(1, 30)), d_max_px=float(rng.uniform(0.5, 20)))
        pos = rng.uniform(-3, max(h, w) + 3, size=2)
        ours = semantic_histogram(pos, scene, cfg)
        oracle = brute_force_semantics(pos, scene, cfg)
        assert np.array_equal(ours, oracle), f"trial {trial}"


def test_semantics_always_a_distribution():
    rng = np.random.default_rng(6)
    scene = SceneMap("s", rng.integers(0, 6, size=(15, 15)).astype(np.uint8), 0.1)
    cfg = SemanticConfig(k=7, d_max_px=4)
    for _ in range(200):
        out = semantic_histogram(rng.uniform(0, 15, size=2), scene, cfg)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0) and np.all(out <= 1)


def crossing_map():
    return generate_scenes("crossing", 1, 0, 1)[0].scene_map


def awkward_positions(rng, h, w):
    """Random, half-pixel (exact ties at the k-th distance), border, corner
    and off-map positions."""
    half = np.round(rng.uniform(-2, [w + 1, h + 1], size=(700, 2)) * 2) / 2
    free = rng.uniform(-6, [w + 5, h + 5], size=(700, 2))
    xs = np.array([-3.0, 0.0, 0.5, w - 1.5, w - 1.0, w + 2.0])
    ys = np.array([-3.0, 0.0, 0.5, h - 1.5, h - 1.0, h + 2.0])
    corners = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    edge_x = np.stack([rng.choice(xs, 300), np.round(rng.uniform(0, h - 1, 300) * 2) / 2], axis=1)
    edge_y = np.stack([np.round(rng.uniform(0, w - 1, 300) * 2) / 2, rng.choice(ys, 300)], axis=1)
    return np.concatenate([half, free, corners, edge_x, edge_y])


@pytest.mark.parametrize("k,d_max", [(16, 32), (16, 32.5), (1, 0.4), (4, 2), (50, 5), (200, 10)])
def test_semantics_over_many_positions_matches_exhaustive_oracle(k, d_max):
    scene = crossing_map()
    h, w = scene.labels.shape
    positions = awkward_positions(np.random.default_rng(k), h, w)
    assert len(positions) >= 2000
    cfg = SemanticConfig(k=k, d_max_px=d_max)
    hists = semantic_histogram(positions, scene, cfg)
    assert hists.shape == (len(positions), N_LABELS)
    for i, pos in enumerate(positions):
        assert np.array_equal(hists[i], brute_force_semantics(pos, scene, cfg)), f"row {i} {pos}"
    for i in range(0, len(positions), 97):
        assert np.array_equal(semantic_histogram(positions[i], scene, cfg), hists[i])


def test_semantics_rows_the_first_stencil_cannot_hold_are_searched_again(monkeypatch):
    # a 3-row strip: a 13x13 first stencil holds at most 39 map pixels, fewer than k
    rng = np.random.default_rng(8)
    scene = SceneMap("s", rng.integers(0, 6, size=(3, 120)).astype(np.uint8), 0.1)
    cfg = SemanticConfig(k=50, d_max_px=20)
    calls = []
    search = features._nearest_label_counts

    def spy(x, y, labels, cfg, radius):
        counts, decided = search(x, y, labels, cfg, radius)
        calls.append((len(x), radius, int(decided.sum())))
        return counts, decided

    monkeypatch.setattr(features, "_nearest_label_counts", spy)
    positions = awkward_positions(rng, 3, 120)[::5]
    hists = semantic_histogram(positions, scene, cfg)
    assert calls == [(len(positions), 6, 0), (len(positions), 21, len(positions))]
    for i, pos in enumerate(positions):
        assert np.array_equal(hists[i], brute_force_semantics(pos, scene, cfg)), f"row {i} {pos}"



def test_semantics_on_small_maps_matches_exhaustive_oracle():
    # maps a few pixels wide truncate the disk, so many rows take the second search
    rng = np.random.default_rng(9)
    for trial in range(1000):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        scene = SceneMap("s", rng.integers(0, 6, size=(h, w)).astype(np.uint8), 0.1)
        cfg = SemanticConfig(k=int(rng.integers(1, 30)),
                             d_max_px=float(rng.choice([0.3, 0.5, 1, 1.5, 2.5, 4, 7.3])))
        positions = np.round(rng.uniform(-2, [w + 2, h + 2], size=(8, 2)) * 2) / 2
        hists = semantic_histogram(positions, scene, cfg)
        for i, pos in enumerate(positions):
            assert np.array_equal(hists[i], brute_force_semantics(pos, scene, cfg)), \
                f"trial {trial} row {i}"

# ------------------------------------------------------- build_features

def make_window(delta=6, rate=10.0, v=(1.0, 0.5), mpp=0.1):
    t = np.arange(delta) / rate
    xy = np.array([1.0, 1.0]) + np.array(v) * t[:, None]
    return TrajectoryWindow(ego_id="ego", scene_id="s", t_obs=t, obs_m=xy, obs_px=xy / mpp)


def test_build_features_no_agents_uniform_road():
    window = make_window()
    pg, sc = PolarGridConfig(), SemanticConfig(k=4, d_max_px=3)
    out = build_features(window, uniform_scene(1, (200, 200)), [], pg, sc)
    assert out.shape == (5, feature_dim(pg, sc))
    assert np.allclose(out[:, :2], compute_offsets(window.obs_m))
    assert np.all(out[:, 2 : 2 + pg.n_cells] == 0)
    expected = np.zeros(N_LABELS)
    expected[1] = 1.0
    assert np.allclose(out[:, 2 + pg.n_cells :], expected)


def test_feature_dim_formula():
    for r, a, c in [(4, 8, 3), (2, 4, 1), (6, 12, 3)]:
        pg = PolarGridConfig(radial_bins=r, angular_bins=a, type_channels=c)
        assert feature_dim(pg, SemanticConfig()) == 2 + r * a * c + 6


def test_context_off_ablation_is_offsets_only():
    window = make_window()
    out = build_features(window, None, [], PolarGridConfig(), SemanticConfig(), context=False)
    assert out.shape == (5, 2)
    assert np.allclose(out, compute_offsets(window.obs_m))


def test_build_features_sees_neighbor_on_shared_grid():
    window = make_window(delta=6)
    t = np.arange(10) / 10.0
    pos = np.tile(window.obs_px[3] * 0.1 + np.array([0.5, 0.0]), (10, 1))
    veh = AgentTrack("veh", "vehicle", t, pos, pos / 0.1)
    # the ego's own track in the scene list is not its neighbor
    ego = AgentTrack("ego", "pedestrian", window.t_obs, window.obs_m, window.obs_px)
    pg, sc = PolarGridConfig(), SemanticConfig(k=4, d_max_px=3)
    out = build_features(window, uniform_scene(1, (200, 200)), [ego, veh], pg, sc)
    grid_part = out[:, 2 : 2 + pg.n_cells]
    assert grid_part.sum() == 5  # the vehicle is in range at every observed step


def test_missing_scene_errors():
    with pytest.raises(ValueError, match="scene map required"):
        build_features(make_window(), None, [], PolarGridConfig(), SemanticConfig())


# ------------------------------------------------------ standardization

def test_standardize_self_statistics():
    rng = np.random.default_rng(7)
    blocks = [rng.normal(loc=3.0, scale=2.5, size=(9, 5)) for _ in range(12)]
    stats = FeatureStats.fit(blocks)
    stacked = np.concatenate([stats.apply(b) for b in blocks]).reshape(-1, 5)
    assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
    assert np.max(np.abs(stacked.std(axis=0) - 1)) < 1e-9


def test_standardize_zero_variance_dimension():
    blocks = [np.tile([2.0, 5.0], (8, 1))]
    stats = FeatureStats.fit(blocks)
    out = stats.apply(blocks[0])
    assert np.array_equal(out, np.zeros((8, 2)))


def test_standardize_constant_columns_are_centred_only():
    rng = np.random.default_rng(9)
    block = np.column_stack([rng.normal(size=40), np.zeros(40), np.full(40, 0.25),
                             np.full(40, 3.0)])
    stats = FeatureStats.fit([block])
    assert np.array_equal(stats.std[1:], np.ones(3))
    assert np.array_equal(stats.apply(block)[:, 1:], np.zeros((40, 3)))
    held_out = block + 0.5  # where training never varied, held-out data is only shifted
    assert np.array_equal(stats.apply(held_out)[:, 1:], np.full((40, 3), 0.5))


def test_standardize_roundtrip():
    rng = np.random.default_rng(8)
    blocks = [rng.normal(size=(7, 4)) for _ in range(5)]
    stats = FeatureStats.fit(blocks)
    x = rng.normal(size=(6, 4))
    assert np.max(np.abs(stats.apply(x) * stats.std + stats.mean - x)) < 1e-12


def test_standardize_dimension_mismatch():
    stats = FeatureStats.fit([np.zeros((4, 3))])
    with pytest.raises(ValueError):
        stats.apply(np.zeros((4, 5)))
