import dataclasses

import numpy as np
import pytest

from a2match.geometry import CorrespondenceSet, RigidPose
from a2match.pipeline import localize_oracle
from a2match.posemetrics import (
    EmptyList,
    RansacConfig,
    TooFewCorrespondences,
    error_quantiles,
    outlier_sweep,
    pnp_ransac,
    reprojection_auc,
    rotation_error,
    translation_error,
)
from a2match.synth import SynthConfig, generate_scene

IDENTITY = RigidPose(np.eye(3), np.zeros(3))


def noiseless_scene(seed, n=20, inlier_fraction=1.0):
    return generate_scene(SynthConfig(n_points=n, inlier_fraction=inlier_fraction,
                                      pixel_noise_sigma=0.0, seed=seed))


def gt_correspondences(pair):
    """(pixels, world points) of the scene's GT pairs, row for row."""
    i = np.array(pair.gt_matches.indices_2d(), dtype=np.intp)
    j = np.array(pair.gt_matches.indices_3d(), dtype=np.intp)
    return pair.keypoints[i], pair.points[j]


def test_pnp_noiseless_recovery():
    for seed in range(20):
        pair = noiseless_scene(seed)
        est = pnp_ransac(*gt_correspondences(pair), pair.intrinsics,
                         RansacConfig(seed=seed))
        assert est.success
        assert rotation_error(est.pose, pair.query_pose) < 1e-4
        assert translation_error(est.pose, pair.query_pose) < 1e-6
        assert est.inlier_mask.all()


def test_pnp_with_outliers_exact_mask():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        pair = noiseless_scene(100 + seed, n=40, inlier_fraction=0.5)
        uv, xyz = gt_correspondences(pair)
        truth = [True] * len(uv)
        free_k = [i for i in range(40) if i not in set(pair.gt_matches.indices_2d())]
        free_p = [j for j in range(40) if j not in set(pair.gt_matches.indices_3d())]
        rng.shuffle(free_p)
        n_wrong = min(len(free_k), len(free_p))
        uv = np.concatenate([uv, pair.keypoints[free_k[:n_wrong]]])
        xyz = np.concatenate([xyz, pair.points[free_p[:n_wrong]]])
        truth += [False] * n_wrong
        est = pnp_ransac(uv, xyz, pair.intrinsics,
                         RansacConfig(seed=seed, inlier_threshold=1e-6))
        if est.success and np.array_equal(est.inlier_mask, np.array(truth)):
            hits += 1
    assert hits >= 19


def test_pnp_too_few_correspondences():
    pair = noiseless_scene(3)
    uv, xyz = gt_correspondences(pair)
    with pytest.raises(TooFewCorrespondences):
        pnp_ransac(uv[:3], xyz[:3], pair.intrinsics, RansacConfig())
    with pytest.raises(ValueError):
        pnp_ransac(uv, xyz[:-1], pair.intrinsics, RansacConfig())


def test_pnp_deterministic_given_seed():
    pair = noiseless_scene(7, n=30, inlier_fraction=0.6)
    uv, xyz = gt_correspondences(pair)
    e1 = pnp_ransac(uv, xyz, pair.intrinsics, RansacConfig(seed=11))
    e2 = pnp_ransac(uv, xyz, pair.intrinsics, RansacConfig(seed=11))
    assert np.array_equal(e1.pose.rotation, e2.pose.rotation)
    assert np.array_equal(e1.pose.translation, e2.pose.translation)
    assert np.array_equal(e1.inlier_mask, e2.inlier_mask)


def test_rotation_translation_error_examples():
    assert rotation_error(IDENTITY, IDENTITY) == 0.0
    assert translation_error(IDENTITY, IDENTITY) == 0.0
    # 90 degrees about z: trace of relative rotation = 1 -> acos(0) = 90.
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert abs(rotation_error(RigidPose(Rz, np.zeros(3)), IDENTITY) - 90.0) < 1e-12
    off = RigidPose(np.eye(3), [0.0, 3.0, 4.0])
    assert abs(translation_error(off, IDENTITY) - 5.0) < 1e-12


def test_rotation_error_range_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        R = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        e = rotation_error(RigidPose(R, np.zeros(3)), IDENTITY)
        assert 0.0 <= e <= 180.0
    assert rotation_error(IDENTITY, IDENTITY) < 1e-12


def test_reprojection_auc_examples():
    assert reprojection_auc([0.0, 0.0]) == (100.0, 100.0, 100.0)
    assert reprojection_auc([np.inf, np.inf]) == (0.0, 0.0, 0.0)
    # single query at 5px: AUC@1 = 0, AUC@5 = 0, AUC@10 = 50.
    assert reprojection_auc([5.0]) == (0.0, 0.0, 50.0)


def test_reprojection_auc_monotonicity():
    rng = np.random.default_rng(1)
    errs = rng.uniform(0, 15, 40)
    a1, a5, a10 = reprojection_auc(errs)
    assert a1 <= a5 <= a10
    worse = reprojection_auc(errs + 1.0)
    assert all(w <= a for w, a in zip(worse, (a1, a5, a10)))


def test_error_quantiles_examples():
    assert error_quantiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    assert error_quantiles([7.0, 7.0, 7.0]) == (7.0, 7.0, 7.0)
    q = error_quantiles([1.0, 2.0, np.inf, np.inf])
    assert q[0] <= q[1] <= q[2]
    with pytest.raises(EmptyList):
        error_quantiles([])


def test_oracle_localization_upper_bound():
    pair = noiseless_scene(42)
    res = localize_oracle(pair, RansacConfig(seed=0))
    assert not res.failed
    assert res.mean_reproj_px < 1e-6
    assert res.rotation_error_deg < 1e-4


def test_oracle_reprojection_inf_for_point_behind_estimated_camera():
    pair = noiseless_scene(43)
    R, t = pair.query_pose.rotation, pair.query_pose.translation
    behind = (np.array([[0.1, -0.2, -3.0]]) - t) @ R  # camera-frame depth -3
    m, n = len(pair.keypoints), len(pair.points)
    extra = dataclasses.replace(
        pair,
        keypoints=np.concatenate([pair.keypoints, [[100.0, 200.0]]]),
        kp_colors=np.concatenate([pair.kp_colors, [[0.5, 0.5, 0.5]]]),
        points=np.concatenate([pair.points, behind]),
        pt_colors=np.concatenate([pair.pt_colors, [[0.5, 0.5, 0.5]]]),
        gt_matches=CorrespondenceSet(pair.gt_matches.pairs + [(m, n, 1.0)]))
    res = localize_oracle(extra, RansacConfig(seed=0))
    assert not res.failed
    assert res.rotation_error_deg < 1e-4
    assert not res.estimate.inlier_mask[-1] and res.estimate.inlier_mask[:-1].all()
    assert res.mean_reproj_px == np.inf


def test_outlier_sweep_oracle_shape():
    scenes = [noiseless_scene(500 + i, n=30) for i in range(3)]
    rows = outlier_sweep(None, scenes, [0.0, 0.5, 1.0], use_oracle=True,
                         ransac_cfg=RansacConfig(seed=1))
    assert [r.ratio for r in rows] == [0.0, 0.5, 1.0]
    assert all(r.n_queries == 3 for r in rows)
    # oracle at ratio 0 is (near) perfect; ratio 1 has no gt at all
    assert rows[0].auc10 > 99.0
    assert rows[2].auc10 == 0.0
    assert rows[0].median_rot_deg < 1e-4
    assert not np.isfinite(rows[2].median_rot_deg)


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        RansacConfig(confidence=1.5)
