"""Camera model, rigid poses, bearing vectors, and correspondence labeling.

Bearing vectors put 2D pixels and 3D world points into the same 2D
normalized-plane representation: pixels through the inverse intrinsics,
world points through the camera pose followed by perspective division.
Points travel as float64 arrays, one row per point: (N,2) pixels, (N,3)
world coordinates, (N,2) bearings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Minimum camera-frame depth for a point to count as visible.
EPS_DEPTH = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0.0 < self.fx < math.inf and 0.0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be positive and finite, "
                             f"got fx={self.fx} fy={self.fy}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"principal point must be finite, got ({self.cx}, {self.cy})")


@dataclass(frozen=True)
class RigidPose:
    """World-to-camera transform p_cam = R @ p_world + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("pose must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not 1 within 1e-9")


@dataclass
class CorrespondenceSet:
    """(2D index, 3D index, score) triples; meaning of score depends on stage."""

    pairs: list

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def indices_2d(self):
        return [i for i, _, _ in self.pairs]

    def indices_3d(self):
        return [j for _, j, _ in self.pairs]

    def pair_set(self):
        return {(i, j) for i, j, _ in self.pairs}


def unit_vectors(vecs) -> np.ndarray:
    """(..., 2) vectors scaled to unit length; exactly-zero vectors stay zero.

    Dividing by the largest absolute component first puts one component at
    +-1, so hypot neither underflows nor loses the bits of subnormal inputs.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    m = np.max(np.abs(vecs), axis=-1, keepdims=True)
    v = vecs / np.where(m == 0.0, 1.0, m)
    n = np.hypot(v[..., :1], v[..., 1:])
    return v / np.where(n == 0.0, 1.0, n)


def neighbor_cosine(a, b) -> float:
    """Cosine of the angle between two 2-vectors.

    The result is 0 only when either vector is exactly zero; otherwise each
    vector is normalised on its own, so the cosine is scale-invariant for
    every finite input, however short or long the edge.
    """
    (ax, ay), (bx, by) = unit_vectors([a, b]).tolist()
    # Clamp the last-ulp overshoot so the result is a true cosine.
    return min(1.0, max(-1.0, ax * bx + ay * by))


def pixel_bearings(k: CameraIntrinsics, uv) -> np.ndarray:
    """(N,2) bearings of (N,2) pixels: ((u-cx)/fx, (v-cy)/fy)."""
    return (np.asarray(uv, dtype=np.float64).reshape(-1, 2) - (k.cx, k.cy)) / (k.fx, k.fy)


def world_bearings(pose: RigidPose, xyz):
    """(N,2) bearings plus visibility mask of (N,3) world points.

    A point at depth <= EPS_DEPTH has no bearing: its mask entry is False
    and its row is zero. A `synth.ScenePair` holds no such point.
    """
    P = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    R, t = pose.rotation, pose.translation
    x, y, z = P[:, 0], P[:, 1], P[:, 2]
    px = R[0, 0] * x + R[0, 1] * y + R[0, 2] * z + t[0]
    py = R[1, 0] * x + R[1, 1] * y + R[1, 2] * z + t[1]
    pz = R[2, 0] * x + R[2, 1] * y + R[2, 2] * z + t[2]
    visible = pz > EPS_DEPTH
    out = np.zeros((len(P), 2), dtype=np.float64)
    safe = np.where(visible, pz, 1.0)
    out[:, 0] = np.where(visible, px / safe, 0.0)
    out[:, 1] = np.where(visible, py / safe, 0.0)
    return out, visible


def project(k: CameraIntrinsics, pose: RigidPose, xyz):
    """(N,2) pixel coordinates of (N,3) world points plus the visibility mask.

    Points at depth <= EPS_DEPTH have no image; their rows hold the
    principal point and their mask entries are False.
    """
    b, visible = world_bearings(pose, xyz)
    return b * (k.fx, k.fy) + (k.cx, k.cy), visible


def label_ground_truth(uv, xyz, pose: RigidPose, k: CameraIntrinsics,
                       tol: float) -> CorrespondenceSet:
    """Label (i,j) pairs of pixel rows and world-point rows whose bearing
    distance is below tol.

    Each keypoint takes its nearest in-tolerance 3D point (smaller index on
    exact ties); points behind the camera are never matched.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if len(uv) == 0 or len(xyz) == 0:
        return CorrespondenceSet([])
    bk = pixel_bearings(k, uv)
    bp, visible = world_bearings(pose, xyz)
    dx = bk[:, 0][:, None] - bp[:, 0][None, :]
    dy = bk[:, 1][:, None] - bp[:, 1][None, :]
    with np.errstate(over="ignore"):  # a distance beyond float64 is inf: no match
        dist = np.sqrt(dx * dx + dy * dy)
    dist[:, ~visible] = np.inf
    nearest = np.argmin(dist, axis=1)
    rows = np.flatnonzero(dist[np.arange(len(nearest)), nearest] < tol)
    return CorrespondenceSet([(int(i), int(nearest[i]), 1.0) for i in rows])
