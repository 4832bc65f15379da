"""Deterministic synthetic scene pairs with known ground truth.

Points are sampled directly inside the camera frustum (in camera
coordinates, then back-transformed to world), so every generated point is
visible without rejection loops. Inlier keypoints are exact projections
plus optional Gaussian pixel noise; outliers on both sides are resampled
until they sit clear of everything else in bearing space, so the labeling
rule cannot accidentally pair them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    CorrespondenceSet,
    RigidPose,
    label_ground_truth,
    world_bearings,
)

MIN_POINTS = 10
MAX_POINTS = 1024


class InvalidConfig(ValueError):
    """A configuration or scene file the program cannot run on."""


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 100
    inlier_fraction: float = 0.7
    pixel_noise_sigma: float = 1.0
    depth_near: float = 4.0
    depth_far: float = 12.0
    seed: int = 0
    # Long-focal default keeps 1px detector jitter well inside the 0.001
    # normalized labeling tolerance (1px ~ 0.00024 here).
    focal: float = 4096.0
    image_width: float = 4096.0
    image_height: float = 3072.0
    gt_tolerance: float = 1e-3

    def validate(self):
        if not MIN_POINTS <= self.n_points <= MAX_POINTS:
            raise InvalidConfig(
                f"n_points must lie in [{MIN_POINTS},{MAX_POINTS}], got {self.n_points}")
        if not 0.0 <= self.inlier_fraction <= 1.0:
            raise InvalidConfig(f"inlier_fraction must lie in [0,1], got {self.inlier_fraction}")
        if self.pixel_noise_sigma < 0.0:
            raise InvalidConfig(f"pixel_noise_sigma must be >= 0, got {self.pixel_noise_sigma}")
        if not 0.0 < self.depth_near < self.depth_far:
            raise InvalidConfig(
                f"depth range must satisfy 0 < near < far, got ({self.depth_near},{self.depth_far})")
        if self.focal <= 0.0 or self.image_width <= 0.0 or self.image_height <= 0.0:
            raise InvalidConfig("camera dimensions must be positive")
        if self.gt_tolerance <= 0.0:
            raise InvalidConfig(f"gt_tolerance must be > 0, got {self.gt_tolerance}")


@dataclass
class ScenePair:
    intrinsics: CameraIntrinsics
    query_pose: RigidPose
    keypoints: np.ndarray    # (M,2) pixels
    kp_colors: np.ndarray    # (M,3) RGB in [0,1]
    points: np.ndarray       # (N,3) world coordinates
    pt_colors: np.ndarray    # (N,3) RGB in [0,1]
    gt_matches: CorrespondenceSet


def _random_rotation(rng) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _bearing_window(cfg: SynthConfig, margin=0.92):
    bx = margin * (cfg.image_width / 2.0) / cfg.focal
    by = margin * (cfg.image_height / 2.0) / cfg.focal
    return bx, by


def _sample_camera_points(rng, cfg: SynthConfig, count):
    bx_max, by_max = _bearing_window(cfg)
    z = rng.uniform(cfg.depth_near, cfg.depth_far, count)
    bx = rng.uniform(-bx_max, bx_max, count)
    by = rng.uniform(-by_max, by_max, count)
    return np.stack([bx * z, by * z, z], axis=1)


def _camera_to_world(cam: np.ndarray, pose: RigidPose) -> np.ndarray:
    R, t = pose.rotation, pose.translation
    d = cam - t
    return d @ R  # (R^T d^T)^T


def generate_scene(cfg: SynthConfig) -> ScenePair:
    """Build one scene pair, fully determined by cfg.seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    k = CameraIntrinsics(cfg.focal, cfg.focal, cfg.image_width / 2.0, cfg.image_height / 2.0)
    pose = RigidPose(_random_rotation(rng), rng.uniform(-2.0, 2.0, 3))

    n = cfg.n_points
    n_in = int(round(cfg.inlier_fraction * n))
    guard = 2.0 * cfg.gt_tolerance

    cam_in = _sample_camera_points(rng, cfg, n_in)
    world_in = _camera_to_world(cam_in, pose)
    colors_in = rng.uniform(0.0, 1.0, (n_in, 3))

    # Inlier detections: exact projections plus detector jitter.
    uv_in = np.empty((n_in, 2))
    uv_in[:, 0] = k.fx * (cam_in[:, 0] / cam_in[:, 2]) + k.cx
    uv_in[:, 1] = k.fy * (cam_in[:, 1] / cam_in[:, 2]) + k.cy
    if cfg.pixel_noise_sigma > 0.0:
        uv_in = uv_in + rng.normal(0.0, cfg.pixel_noise_sigma, uv_in.shape)

    cam_out = _sample_camera_points(rng, cfg, n - n_in)
    colors_out_pts = rng.uniform(0.0, 1.0, (n - n_in, 3))
    colors_out_kps = rng.uniform(0.0, 1.0, (n - n_in, 3))

    point_bearings = np.concatenate([cam_in[:, :2] / cam_in[:, 2:],
                                     cam_out[:, :2] / cam_out[:, 2:]], axis=0)
    kp_in_bearings = np.empty_like(uv_in)
    kp_in_bearings[:, 0] = (uv_in[:, 0] - k.cx) / k.fx
    kp_in_bearings[:, 1] = (uv_in[:, 1] - k.cy) / k.fy

    def min_dist(b, others):
        if len(others) == 0:
            return np.inf
        return float(np.min(np.hypot(others[:, 0] - b[0], others[:, 1] - b[1])))

    # Outlier keypoints: anywhere in the image but clear of every point bearing.
    uv_out = np.empty((n - n_in, 2))
    kp_out_bearings = np.empty((n - n_in, 2))
    for i in range(n - n_in):
        for _ in range(1000):
            u = rng.uniform(0.0, cfg.image_width)
            v = rng.uniform(0.0, cfg.image_height)
            b = ((u - k.cx) / k.fx, (v - k.cy) / k.fy)
            if min_dist(b, point_bearings) > guard:
                break
        else:
            raise InvalidConfig("could not place an outlier keypoint clear of all points")
        uv_out[i] = (u, v)
        kp_out_bearings[i] = b

    # Outlier 3D points must also stay clear of every inlier keypoint bearing,
    # otherwise labeling could pair them with a noisy detection.
    kp_bearings = np.concatenate([kp_in_bearings, kp_out_bearings], axis=0)
    for i in range(n - n_in):
        b = cam_out[i, :2] / cam_out[i, 2]
        for _ in range(1000):
            if min_dist(b, kp_bearings) > guard:
                break
            cam_out[i] = _sample_camera_points(rng, cfg, 1)[0]
            b = cam_out[i, :2] / cam_out[i, 2]
        else:
            raise InvalidConfig("could not place an outlier point clear of all keypoints")
    world_out = _camera_to_world(cam_out, pose)

    uv = np.concatenate([uv_in, uv_out], axis=0)
    kp_colors = np.concatenate([colors_in, colors_out_kps], axis=0)
    world = np.concatenate([world_in, world_out], axis=0)
    pt_colors = np.concatenate([colors_in, colors_out_pts], axis=0)

    # Shuffle both sides so inliers are not a prefix.
    perm_k = rng.permutation(n)
    perm_p = rng.permutation(n)
    uv, kp_colors = uv[perm_k], kp_colors[perm_k]
    world, pt_colors = world[perm_p], pt_colors[perm_p]

    gt = label_ground_truth(uv, world, pose, k, cfg.gt_tolerance)
    return ScenePair(k, pose, uv, kp_colors, world, pt_colors, gt)


def inject_outliers(pair: ScenePair, ratio: float, seed: int,
                    gt_tolerance: float = 1e-3) -> ScenePair:
    """Replace ceil(ratio * |gt|) matched keypoints with unmatched detections.

    The replaced subset is a prefix of a seed-fixed permutation, so the
    surviving ground truth is nested (monotone) across ratios.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0,1], got {ratio}")
    if ratio == 0.0 or len(pair.gt_matches) == 0:
        return pair
    rng = np.random.default_rng(seed)
    g = len(pair.gt_matches)
    n_replace = int(math.ceil(ratio * g))
    order = rng.permutation(g)
    replace_idx = {pair.gt_matches.pairs[m][0] for m in order[:n_replace]}

    k = pair.intrinsics
    width, height = 2.0 * k.cx, 2.0 * k.cy
    pt_bearings, visible = world_bearings(pair.query_pose, pair.points, allow_behind=True)
    pt_bearings = pt_bearings[visible]
    guard = 2.0 * gt_tolerance

    uv, kp_colors = pair.keypoints.copy(), pair.kp_colors.copy()
    for i in sorted(replace_idx):
        for _ in range(1000):
            u = rng.uniform(0.0, width)
            v = rng.uniform(0.0, height)
            b = ((u - k.cx) / k.fx, (v - k.cy) / k.fy)
            d = np.hypot(pt_bearings[:, 0] - b[0], pt_bearings[:, 1] - b[1])
            if float(d.min()) > guard:
                break
        else:
            raise RuntimeError("could not place a replacement keypoint clear of all points")
        uv[i] = (u, v)
        kp_colors[i] = rng.uniform(0.0, 1.0, 3)

    gt = label_ground_truth(uv, pair.points, pair.query_pose, k, gt_tolerance)
    return dataclasses.replace(pair, keypoints=uv, kp_colors=kp_colors, gt_matches=gt)


# --- scene file format ---------------------------------------------------------


def scene_to_dict(pair: ScenePair) -> dict:
    """The scene as a JSON-ready dict.

    Keys: "intrinsics" {fx, fy, cx, cy}; "pose" {rotation: 9 numbers, row
    major, translation: 3 numbers}, the world-to-camera transform; "keypoints"
    rows [u, v, r, g, b]; "points" rows [x, y, z, r, g, b]; "gt_matches" rows
    [keypoint index, point index]. scene_from_dict accepts a scene when every
    number is finite, fx and fy are positive, the rotation is orthonormal,
    colours lie in [0,1], each side has MIN_POINTS to MAX_POINTS rows and
    every gt match indexes existing rows.
    """
    return {
        "intrinsics": {"fx": pair.intrinsics.fx, "fy": pair.intrinsics.fy,
                       "cx": pair.intrinsics.cx, "cy": pair.intrinsics.cy},
        "pose": {"rotation": pair.query_pose.rotation.reshape(-1).tolist(),
                 "translation": pair.query_pose.translation.tolist()},
        "keypoints": np.concatenate([pair.keypoints, pair.kp_colors], axis=1).tolist(),
        "points": np.concatenate([pair.points, pair.pt_colors], axis=1).tolist(),
        "gt_matches": [[int(i), int(j)] for i, j, _ in pair.gt_matches],
    }


def _rows(obj: dict, key: str, width: int) -> np.ndarray:
    """obj[key] as a finite float64 array of rows of exactly `width` numbers."""
    try:
        rows = np.array(obj[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"scene {key} must be rows of {width} numbers: {exc}") from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise InvalidConfig(f"scene {key} must be rows of exactly {width} numbers")
    if not np.isfinite(rows).all():
        raise InvalidConfig(f"scene {key} hold a non-finite value")
    return rows


def _colored_points(obj: dict, key: str, width: int):
    """Positions and colours of the rows of obj[key], each ending in RGB."""
    rows = _rows(obj, key, width)
    if not MIN_POINTS <= len(rows) <= MAX_POINTS:
        raise InvalidConfig(
            f"scene has {len(rows)} {key}, outside [{MIN_POINTS},{MAX_POINTS}]")
    colors = rows[:, width - 3:]
    if np.any(colors < 0.0) or np.any(colors > 1.0):
        raise InvalidConfig(f"scene {key} colours must lie in [0,1]")
    return rows[:, :width - 3].copy(), colors.copy()


def scene_from_dict(obj: dict) -> ScenePair:
    """Inverse of scene_to_dict; raises InvalidConfig on a scene it rejects."""
    try:
        k = CameraIntrinsics(**obj["intrinsics"])
        pose = RigidPose(np.array(obj["pose"]["rotation"]).reshape(3, 3),
                         np.array(obj["pose"]["translation"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"scene camera is invalid: {exc}") from exc
    uv, kp_colors = _colored_points(obj, "keypoints", 5)
    xyz, pt_colors = _colored_points(obj, "points", 6)
    gt = _rows(obj, "gt_matches", 2)
    bad = ~((gt >= 0) & (gt < (len(uv), len(xyz))) & (gt == np.floor(gt))).all(axis=1)
    if bad.any():
        i, j = gt[bad][0]
        raise InvalidConfig(f"gt match ({i:g},{j:g}) out of bounds")
    pairs = [(i, j, 1.0) for i, j in gt.astype(np.int64).tolist()]
    return ScenePair(k, pose, uv, kp_colors, xyz, pt_colors, CorrespondenceSet(pairs))


def dump_scene(pair: ScenePair) -> str:
    return json.dumps(scene_to_dict(pair), sort_keys=True, separators=(",", ":")) + "\n"


def save_scene(path, pair: ScenePair):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_scene(pair))


def load_scene(path) -> ScenePair:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_dict(obj)
