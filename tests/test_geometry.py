import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2match.geometry import (
    CameraIntrinsics,
    PointBehindCamera,
    RigidPose,
    label_ground_truth,
    neighbor_cosine,
    pixel_bearings,
    project,
    world_bearings,
)

IDENTITY = RigidPose(np.eye(3), np.zeros(3))


def random_pose(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return RigidPose(R, rng.uniform(-2, 2, 3))


def test_bearing_identity_intrinsics():
    k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    assert pixel_bearings(k, [[0.5, 0.5]]).tolist() == [[0.5, 0.5]]


def test_bearing_principal_point_maps_to_origin():
    k = CameraIntrinsics(2.0, 2.0, 1.0, 1.0)
    assert pixel_bearings(k, [[1.0, 1.0]]).tolist() == [[0.0, 0.0]]


def test_bearing_matches_inverse_intrinsics_oracle():
    # Oracle: apply K^-1 to the homogeneous pixel with a direct 3x3 inversion.
    k = CameraIntrinsics(2.0, 2.0, 1.0, 1.0)
    K = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    hom = np.linalg.inv(K) @ np.array([3.0, 5.0, 1.0])
    assert np.allclose(hom[:2] / hom[2], [1.0, 2.0], atol=1e-15)
    assert pixel_bearings(k, [[3.0, 5.0]]).tolist() == [[1.0, 2.0]]


def test_bearing_from_world_optical_axis():
    b, visible = world_bearings(IDENTITY, [[0.0, 0.0, 2.0]])
    assert b.tolist() == [[0.0, 0.0]] and visible.tolist() == [True]


def test_bearing_from_world_hand_computed():
    # p_cam = I*(0,0,1) + (1,0,0) = (1,0,1) -> (1,0).
    pose = RigidPose(np.eye(3), [1.0, 0.0, 0.0])
    b, _ = world_bearings(pose, [[0.0, 0.0, 1.0]])
    assert b.tolist() == [[1.0, 0.0]]


def test_point_behind_camera_raises():
    with pytest.raises(PointBehindCamera):
        world_bearings(IDENTITY, [[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])
    b, visible = world_bearings(IDENTITY, [[0.0, 0.0, 2.0], [1.0, 2.0, -1.0]],
                                allow_behind=True)
    assert b.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert visible.tolist() == [True, False]


def test_project_trivial_and_scaled():
    k1 = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    uv, visible = project(k1, IDENTITY, [[0.0, 0.0, 5.0]])
    assert uv.tolist() == [[0.0, 0.0]] and visible.tolist() == [True]
    # bearing (0.5, 0.5) scaled by fx=fy=100 and shifted by (50, 50).
    k2 = CameraIntrinsics(100.0, 100.0, 50.0, 50.0)
    uv, _ = project(k2, IDENTITY, [[1.0, 1.0, 2.0]])
    assert uv.tolist() == [[100.0, 100.0]]


def test_project_marks_points_behind_camera():
    k = CameraIntrinsics(100.0, 100.0, 50.0, 60.0)
    uv, visible = project(k, IDENTITY, [[1.0, 1.0, 2.0], [1.0, 1.0, -2.0], [0.0, 0.0, 0.0]])
    assert visible.tolist() == [True, False, False]
    # A point without an image sits at the principal point.
    assert uv.tolist() == [[100.0, 110.0], [50.0, 60.0], [50.0, 60.0]]


def test_project_bearing_round_trip_batch():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = CameraIntrinsics(rng.uniform(100, 2000), rng.uniform(100, 2000),
                             rng.uniform(-50, 50), rng.uniform(-50, 50))
        pose = random_pose(rng)
        cam = np.stack([rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8),
                        rng.uniform(0.5, 10, 8)], axis=1)
        xyz = (cam - pose.translation) @ pose.rotation
        uv, visible = project(k, pose, xyz)
        assert visible.all()
        b_world, _ = world_bearings(pose, xyz)
        assert np.max(np.abs(pixel_bearings(k, uv) - b_world)) < 1e-12


def test_intrinsics_cancellation():
    rng = np.random.default_rng(1)
    pose = random_pose(rng)
    xyz = [pose.rotation.T @ (np.array([0.2, -0.1, 3.0]) - pose.translation)]
    k1 = CameraIntrinsics(500.0, 700.0, 320.0, 240.0)
    k2 = CameraIntrinsics(1234.0, 987.0, -12.0, 7.0)
    b_ref, _ = world_bearings(pose, xyz)
    for k in (k1, k2):
        uv, _ = project(k, pose, xyz)
        assert np.max(np.abs(pixel_bearings(k, uv) - b_ref)) < 1e-12


def test_pixel_bearings_matches_scalar_bitwise():
    # Oracle: ((u-cx)/fx, (v-cy)/fy) evaluated one Python float at a time.
    rng = np.random.default_rng(2)
    k = CameraIntrinsics(431.7, 512.3, 311.1, 241.9)
    uv = np.stack([rng.uniform(0, 640, 64), rng.uniform(0, 480, 64)], axis=1)
    expected = [[(u - k.cx) / k.fx, (v - k.cy) / k.fy] for u, v in uv.tolist()]
    assert pixel_bearings(k, uv).tolist() == expected


def test_neighbor_cosine_examples():
    assert neighbor_cosine((1.0, 0.0), (0.0, 1.0)) == 0.0
    assert neighbor_cosine((2.0, 0.0), (5.0, 0.0)) == 1.0
    # sqrt(2)/2 by direct evaluation
    assert abs(neighbor_cosine((1.0, 0.0), (1.0, 1.0)) - 0.7071067811865475) < 1e-15
    assert neighbor_cosine((0.0, 0.0), (1.0, 1.0)) == 0.0
    # Only an exactly-zero vector has no direction; length never matters.
    assert neighbor_cosine((0.0, 1e-15), (0.0, 1.0)) == 1.0
    assert abs(neighbor_cosine((1e-170, 0.0), (1e-170, 1e-170)) - 0.7071067811865475) < 1e-15
    assert abs(neighbor_cosine((5e-324, 5e-324), (1.0, 0.0)) - 0.7071067811865475) < 1e-15
    assert neighbor_cosine((5e-324, 0.0), (-1e300, 0.0)) == -1.0
    assert neighbor_cosine((0.0, -0.0), (1e-300, 0.0)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(-1e6, 1e6) for _ in range(4)]),
       st.floats(1e-6, 1e6))
# An edge shorter than any absolute threshold still has a direction.
@example(vals=(0.0, 1e-15, 0.0, 1.0), s=1000.0)
# Subnormal edge: its norm must keep full precision.
@example(vals=(2.225073858507e-311, 2.225073858507e-311, 0.0, 1.0), s=1e-6)
# s*a rounds to zero, or off the direction of a.
@example(vals=(5e-324, 0.0, 0.0, 1.0), s=0.25)
@example(vals=(5e-324, 1e-323, 0.0, 1.0), s=0.3)
# Two 1e-170 edges: the product of their norms underflows to 0.
@example(vals=(1e-170, 2e-170, 3e-170, -1e-170), s=1e6)
def test_neighbor_cosine_properties(vals, s):
    ax, ay, bx, by = vals
    c = neighbor_cosine((ax, ay), (bx, by))
    assert -1.0 <= c <= 1.0
    assert c == neighbor_cosine((bx, by), (ax, ay))
    sa = (s * ax, s * ay)
    scaled = neighbor_cosine(sa, (bx, by))
    if any(v != 0.0 and abs(s * v) < sys.float_info.min for v in (ax, ay)):
        # s*a lost bits to underflow, so the vector passed is not a rescaling
        # of a. Check scale invariance on that vector instead, against an
        # exact power-of-two rescaling of it (2**600 keeps 1e12 finite).
        if sa == (0.0, 0.0):
            expected = 0.0
        else:
            expected = neighbor_cosine((math.ldexp(sa[0], 600), math.ldexp(sa[1], 600)),
                                       (bx, by))
    else:
        expected = c
    assert abs(expected - scaled) < 1e-9


def _scene_for_labeling():
    k = CameraIntrinsics(1000.0, 1000.0, 0.0, 0.0)
    pose = IDENTITY
    pts = np.array([[0.0, 0.0, 2.0], [0.4, 0.0, 2.0], [0.0, 0.6, 2.0]])
    return k, pose, pts


def test_label_exact_projection_included():
    k, pose, pts = _scene_for_labeling()
    uv, _ = project(k, pose, pts[1:2])
    gt = label_ground_truth(uv, pts, pose, k, tol=1e-3)
    assert gt.pairs == [(0, 1, 1.0)]


def test_label_displacement_beyond_tolerance_excluded():
    k, pose, pts = _scene_for_labeling()
    uv, _ = project(k, pose, pts[1:2])
    # 0.01 displacement in normalized coords = 10px at f=1000, tol 0.001
    gt = label_ground_truth(uv + [10.0, 0.0], pts, pose, k, tol=1e-3)
    assert len(gt) == 0


def test_label_nearest_of_two_candidates():
    # Oracle: exhaustive distances; both points within tol, nearer one wins.
    k = CameraIntrinsics(1000.0, 1000.0, 0.0, 0.0)
    pts = np.array([[0.0008 * 2, 0.0, 2.0], [0.0004 * 2, 0.0, 2.0]])
    b = np.array([0.0, 0.0])
    d = [np.linalg.norm(b - np.array([p[0] / 2.0, 0.0])) for p in pts]
    assert d[1] < d[0] < 1e-3
    gt = label_ground_truth([[0.0, 0.0]], pts, IDENTITY, k, tol=1e-3)
    assert gt.pairs == [(0, 1, 1.0)]


def test_label_injective_on_2d_side_and_skips_behind():
    rng = np.random.default_rng(3)
    k = CameraIntrinsics(800.0, 800.0, 0.0, 0.0)
    pts = np.stack([rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30),
                    rng.uniform(1, 5, 30)], axis=1)
    pts = np.concatenate([pts, [[0.0, 0.0, -3.0]]])  # behind, never matched
    uv, _ = project(k, IDENTITY, pts[:30])
    gt = label_ground_truth(uv, pts, IDENTITY, k, tol=1e-3)
    ids = gt.indices_2d()
    assert len(ids) == len(set(ids))
    assert 30 not in gt.indices_3d()


def test_label_each_keypoint_takes_its_nearest_point():
    # Oracle: a per-row scan of the bearing distances, as a loop.
    rng = np.random.default_rng(4)
    k = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
    pts = np.stack([rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), np.ones(40)], axis=1)
    uv = rng.uniform(-100, 100, (60, 2))
    tol = 0.05
    bk = pixel_bearings(k, uv)
    expected = []
    for i in range(len(uv)):
        dist = [math.hypot(*(bk[i] - p[:2])) for p in pts]
        j = int(np.argmin(dist))
        if dist[j] < tol:
            expected.append((i, j, 1.0))
    assert 0 < len(expected) < len(uv)
    assert label_ground_truth(uv, pts, IDENTITY, k, tol).pairs == expected
    assert len(label_ground_truth(np.zeros((0, 2)), pts, IDENTITY, k, tol)) == 0


def test_rigid_pose_invariant_validation():
    with pytest.raises(ValueError):
        RigidPose(np.eye(3) * 1.001, np.zeros(3))
    bad = np.eye(3)
    bad[0, 0] = -1.0  # reflection, det = -1
    with pytest.raises(ValueError):
        RigidPose(bad, np.zeros(3))
    with pytest.raises(ValueError):
        RigidPose(np.eye(3), [0.0, math.nan, 0.0])


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(1.0, math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(1.0, 1.0, math.nan, 0.0)
