import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from a2match import synth
from a2match.geometry import CorrespondenceSet, RigidPose, label_ground_truth
from a2match.synth import (
    InvalidConfig,
    SynthConfig,
    dump_scene,
    generate_scene,
    inject_outliers,
    load_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)


def test_all_inliers_no_noise_covers_every_keypoint():
    cfg = SynthConfig(n_points=40, inlier_fraction=1.0, pixel_noise_sigma=0.0, seed=5)
    pair = generate_scene(cfg)
    assert len(pair.gt_matches) == 40
    assert sorted(pair.gt_matches.indices_2d()) == list(range(40))


def test_zero_inliers_empty_gt():
    cfg = SynthConfig(n_points=25, inlier_fraction=0.0, pixel_noise_sigma=0.0, seed=6)
    pair = generate_scene(cfg)
    assert len(pair.gt_matches) == 0


def test_same_seed_bit_identical():
    cfg = SynthConfig(n_points=30, seed=7)
    a, b = generate_scene(cfg), generate_scene(cfg)
    assert dump_scene(a) == dump_scene(b)


def test_different_seed_differs():
    a = generate_scene(SynthConfig(n_points=30, seed=1))
    b = generate_scene(SynthConfig(n_points=30, seed=2))
    assert dump_scene(a) != dump_scene(b)


def test_gt_matches_verify_labeling_rule_independently():
    for seed in range(5):
        cfg = SynthConfig(n_points=50, inlier_fraction=0.6, pixel_noise_sigma=1.0,
                          seed=100 + seed)
        pair = generate_scene(cfg)
        relabeled = label_ground_truth(pair.keypoints, pair.points, pair.query_pose,
                                       pair.intrinsics, synth.GT_TOLERANCE)
        assert relabeled.pair_set() == pair.gt_matches.pair_set()


def test_generated_points_have_positive_depth():
    pair = generate_scene(SynthConfig(n_points=64, seed=8))
    R, t = pair.query_pose.rotation, pair.query_pose.translation
    assert np.all((pair.points @ R.T + t)[:, 2] > 1e-6)


def test_counts_validated():
    with pytest.raises(InvalidConfig):
        generate_scene(SynthConfig(n_points=5))
    with pytest.raises(InvalidConfig):
        generate_scene(SynthConfig(n_points=2000))
    with pytest.raises(InvalidConfig):
        generate_scene(SynthConfig(inlier_fraction=1.2))


EDGE_CONFIGS = {
    "n-10": SynthConfig(n_points=10, seed=1),
    "n-1024": SynthConfig(n_points=1024, seed=2),
    "no-inliers": SynthConfig(inlier_fraction=0.0, seed=3),
    "all-inliers": SynthConfig(inlier_fraction=1.0, seed=4),
}


@pytest.mark.parametrize("name", EDGE_CONFIGS)
def test_generated_scene_is_a_loadable_scene(name):
    # Generation and injection either refuse the config or build a scene
    # that the scene file carries unchanged.
    def reloads(pair):
        assert dump_scene(scene_from_dict(scene_to_dict(pair))) == dump_scene(pair)

    try:
        pair = generate_scene(EDGE_CONFIGS[name])
    except InvalidConfig:
        return
    reloads(pair)
    try:
        injected = inject_outliers(pair, 0.5, seed=7)
    except InvalidConfig:
        return
    reloads(injected)


def test_inject_ratio_zero_is_identity():
    pair = generate_scene(SynthConfig(n_points=40, seed=9))
    assert inject_outliers(pair, 0.0, seed=1) is pair


def test_inject_ratio_one_empties_gt():
    pair = generate_scene(SynthConfig(n_points=40, inlier_fraction=0.8,
                                      pixel_noise_sigma=0.0, seed=10))
    out = inject_outliers(pair, 1.0, seed=2)
    assert len(out.gt_matches) == 0


def test_inject_half_of_100_leaves_exactly_50():
    pair = generate_scene(SynthConfig(n_points=100, inlier_fraction=1.0,
                                      pixel_noise_sigma=0.0, seed=11))
    assert len(pair.gt_matches) == 100
    out = inject_outliers(pair, 0.5, seed=3)
    assert len(out.gt_matches) == 50
    # enumeration: survivors are exactly the untouched original pairs
    assert out.gt_matches.pair_set() <= pair.gt_matches.pair_set()


@pytest.mark.parametrize("ratio,expected", [(0.0, 80), (0.25, 60), (0.5, 40),
                                            (0.75, 20), (1.0, 0)])
def test_inject_counts_follow_ceil_rule(ratio, expected):
    pair = generate_scene(SynthConfig(n_points=80, inlier_fraction=1.0,
                                      pixel_noise_sigma=0.0, seed=12))
    out = inject_outliers(pair, ratio, seed=4)
    assert len(out.gt_matches) == 80 - math.ceil(ratio * 80) == expected


def test_inject_monotone_in_ratio_fixed_seed():
    pair = generate_scene(SynthConfig(n_points=60, inlier_fraction=0.9,
                                      pixel_noise_sigma=0.0, seed=13))
    prev = None
    for ratio in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        out = inject_outliers(pair, ratio, seed=5)
        if prev is not None:
            assert out.gt_matches.pair_set() <= prev
        prev = out.gt_matches.pair_set()


@pytest.mark.parametrize("seed", range(3))
def test_inject_keeps_every_untouched_pair_of_a_wider_tolerance_scene(seed):
    # Only the replaced keypoints' pairs leave the ground truth, whatever
    # tolerance labeled the scene; relabeling at GT_TOLERANCE would drop
    # most of these 6 px noisy pairs.
    pair = generate_scene(SynthConfig(pixel_noise_sigma=6.0, seed=seed))
    pair = dataclasses.replace(pair, gt_matches=label_ground_truth(
        pair.keypoints, pair.points, pair.query_pose, pair.intrinsics, tol=4e-3))
    out = inject_outliers(pair, 0.25, seed=seed)
    replaced = set(np.flatnonzero(np.any(out.keypoints != pair.keypoints, axis=1)).tolist())
    assert len(replaced) == math.ceil(0.25 * len(pair.gt_matches))
    assert out.gt_matches.pairs == [p for p in pair.gt_matches.pairs if p[0] not in replaced]


def test_scene_file_round_trip_byte_identical(tmp_path):
    pair = generate_scene(SynthConfig(n_points=20, seed=14))
    path = tmp_path / "scene.json"
    save_scene(path, pair)
    reloaded = load_scene(path)
    assert dump_scene(reloaded) == dump_scene(pair)
    save_scene(tmp_path / "scene2.json", reloaded)
    assert (tmp_path / "scene.json").read_bytes() == (tmp_path / "scene2.json").read_bytes()


def test_scene_dict_bounds_check():
    pair = generate_scene(SynthConfig(n_points=15, seed=15))
    obj = scene_to_dict(pair)
    obj["gt_matches"] = [[0, 99]]
    with pytest.raises(ValueError):
        scene_from_dict(obj)


def test_scene_format_and_draw_order_pinned():
    # SHA-256 of the scene files of one fixed config and one injection of
    # it; a change to the file format or to the order of the random draws
    # changes them.
    pair = generate_scene(SynthConfig(n_points=30, inlier_fraction=0.7,
                                      pixel_noise_sigma=1.0, seed=2024))
    injected = inject_outliers(pair, 0.5, seed=7)
    assert (len(pair.gt_matches), len(injected.gt_matches)) == (21, 10)
    assert hashlib.sha256(dump_scene(pair).encode()).hexdigest() == (
        "ee562f3d51a8153b08e167948779270ed1cec79cfc02014235781b014ad4ce90")
    assert hashlib.sha256(dump_scene(injected).encode()).hexdigest() == (
        "339c501c9a8ceaab4761e2e37fe7dd654769a818f5a9fe53419b42bf82d1a334")


def test_redraw_order_pinned(monkeypatch):
    # An n=1024 scene whose outlier keypoints and outlier points both redraw
    # candidates that sit within the guard, and an injection that redraws
    # too: the hashes pin the order of the redraws' random draws.
    failed = {}

    def counting(b, bearings, clearance=synth._clearance):
        d = clearance(b, bearings)
        failed.setdefault(id(bearings), [bearings, 0])[1] += d <= 2e-3
        return d

    monkeypatch.setattr(synth, "_clearance", counting)
    pair = generate_scene(SynthConfig(n_points=1024, seed=8))
    redraws = [count for _, count in failed.values()]
    failed.clear()
    injected = inject_outliers(pair, 0.5, seed=7)
    assert (redraws, [count for _, count in failed.values()]) == ([5, 5], [4])
    assert (len(pair.gt_matches), len(injected.gt_matches)) == (717, 358)
    assert hashlib.sha256(dump_scene(pair).encode()).hexdigest() == (
        "3bd641c2074039fcbddbfb516ac444de33b298013c7f81d50ac58bb153fb4cba")
    assert hashlib.sha256(dump_scene(injected).encode()).hexdigest() == (
        "81cb99fc14e9a3b1ff931077eb3b05696fadfa5561d3cecaa7cd012039d7f95b")


def _corrupt(obj, key, row, col, value):
    obj[key][row][col] = value
    return obj


@pytest.mark.parametrize("edit,message", [
    (lambda o: _corrupt(o, "keypoints", 3, 2, 1.5), "keypoints colours"),
    (lambda o: _corrupt(o, "points", 0, 5, -0.25), "points colours"),
    (lambda o: _corrupt(o, "keypoints", 1, 0, float("nan")), "keypoints hold a non-finite"),
    (lambda o: _corrupt(o, "points", 2, 1, float("inf")), "points hold a non-finite"),
    (lambda o: _corrupt(o, "keypoints", 0, 4, "red"), "keypoints must be rows of 5"),
    (lambda o: {**o, "points": [row[:4] for row in o["points"]]}, "rows of exactly 6"),
    (lambda o: {**o, "keypoints": o["keypoints"] + [[1.0, 2.0, 0.0, 0.0]]}, "rows of 5"),
    (lambda o: {**o, "keypoints": o["keypoints"][:5]}, "5 keypoints, outside [10,1024]"),
    (lambda o: {**o, "points": o["points"] * 69}, "1035 points, outside [10,1024]"),
    (lambda o: {**o, "gt_matches": [[0, 1], [-1, 2]]}, "gt match (-1,2) out of bounds"),
    (lambda o: {**o, "gt_matches": [[0.5, 1]]}, "gt match (0.5,1) out of bounds"),
    (lambda o: {**o, "gt_matches": [[0, 1, 2]]}, "gt_matches must be rows of exactly 2"),
    (lambda o: {**o, "intrinsics": {**o["intrinsics"], "fx": -1.0}}, "camera is invalid"),
    (lambda o: {**o, "pose": {**o["pose"], "translation": [0.0, float("nan"), 0.0]}},
     "camera is invalid"),
    (lambda o: {k: v for k, v in o.items() if k != "points"}, "points must be rows"),
    (lambda o: {**o, "pose": {**o["pose"], "translation": [0.0, 0.0, -1e3]}},
     "scene point 0 lies at depth <= 1e-06"),
])
def test_scene_from_dict_rejects_invalid_scene(edit, message):
    obj = edit(scene_to_dict(generate_scene(SynthConfig(n_points=15, seed=16))))
    with pytest.raises(InvalidConfig) as exc:
        scene_from_dict(obj)
    assert message in str(exc.value)


def test_scene_from_dict_accepts_boundary_values():
    obj = scene_to_dict(generate_scene(SynthConfig(n_points=10, seed=17)))
    obj["keypoints"][0][2:5] = [0.0, 1.0, 0.0]
    obj["gt_matches"] = []
    pair = scene_from_dict(obj)
    assert pair.keypoints.shape == (10, 2) and pair.pt_colors.shape == (10, 3)
    assert pair.kp_colors[0].tolist() == [0.0, 1.0, 0.0]
    assert len(pair.gt_matches) == 0


def test_scene_pair_checks_every_construction():
    pair = generate_scene(SynthConfig(n_points=15, seed=18))
    behind = RigidPose(pair.query_pose.rotation, pair.query_pose.translation - [0, 0, 1e3])
    nan_points = pair.points.copy()
    nan_points[2, 1] = np.nan
    for edit, message in [
        (dict(keypoints=pair.keypoints[:9], kp_colors=pair.kp_colors[:9],
              gt_matches=CorrespondenceSet([])), "scene has 9 keypoints, outside [10,1024]"),
        (dict(points=nan_points), "scene points hold a non-finite value"),
        (dict(kp_colors=pair.kp_colors + 1.0), "scene keypoints colours must lie in [0,1]"),
        (dict(pt_colors=-pair.pt_colors), "scene points colours must lie in [0,1]"),
        (dict(query_pose=behind), "scene point 0 lies at depth <= 1e-06"),
        (dict(gt_matches=CorrespondenceSet([(0, 15, 1.0)])), "gt match (0,15) out of bounds"),
    ]:
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            dataclasses.replace(pair, **edit)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.points = pair.points[:10]
    # Several pairs may share a keypoint, as the pose benchmark's wrong
    # pairs do; indices that are integral floats are stored as ints.
    shared = dataclasses.replace(pair, gt_matches=CorrespondenceSet(
        [(0, 1, 1.0), (0.0, 2.0, 0.5), (0, 1, 1.0)]))
    assert shared.gt_matches.pairs == [(0, 1, 1.0), (0, 2, 0.5), (0, 1, 1.0)]
    assert all(type(i) is int for p in shared.gt_matches for i in p[:2])


@pytest.mark.parametrize("key", ["keypoints", "kp_colors", "points", "pt_colors"])
@pytest.mark.parametrize("wrong", ["width", "rows"])
def test_scene_pair_checks_array_shapes(key, wrong):
    # Only the shape is off: the widened array repeats its first column and
    # the shortened one keeps over MIN_POINTS rows.
    pair = generate_scene(SynthConfig(n_points=15, seed=18))
    rows = getattr(pair, key)
    bad = np.concatenate([rows, rows[:, :1]], axis=1) if wrong == "width" else rows[:-1]
    fields = {f.name: getattr(pair, f.name) for f in dataclasses.fields(pair)}
    for build in (lambda: dataclasses.replace(pair, **{key: bad}),
                  lambda: synth.ScenePair(**{**fields, key: bad})):
        with pytest.raises(InvalidConfig, match=rf"^scene .*\b{key}\b.* arrays, got"):
            build()


def test_load_scene_rejects_malformed_json(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"intrinsics": ', encoding="utf-8")
    with pytest.raises(InvalidConfig, match="not valid JSON"):
        load_scene(path)
