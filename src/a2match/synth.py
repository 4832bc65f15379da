"""Deterministic synthetic scene pairs with known ground truth, and the
scene file. `ScenePair` states the scene contract; building one by any
route checks it, so every scene in memory is one the loader accepts.

Points are sampled directly inside the camera frustum (in camera
coordinates, then back-transformed to world), so every generated point is
visible without rejection loops. Inlier keypoints are exact projections
plus optional Gaussian pixel noise; outliers on both sides are resampled
until they sit clear of everything else in bearing space, so the labeling
rule cannot accidentally pair them.

Every generated scene is seen by one camera (CAMERA: a 4096 x 3072 image
at focal 4096), holds points at depths DEPTH_NEAR to DEPTH_FAR and is
labeled at GT_TOLERANCE; SynthConfig sets only what varies between scenes.
A scene file carries its own intrinsics, so the loader accepts any valid
camera.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    CorrespondenceSet,
    RigidPose,
    label_ground_truth,
    pixel_bearings,
    world_bearings,
)

MIN_POINTS = 10
MAX_POINTS = 1024
# The one camera of every generated scene: a 4096 x 3072 px image at focal
# 4096 px. The long focal keeps 1px detector jitter well inside the 0.001
# normalized labeling tolerance (1px ~ 0.00024 here).
FOCAL, IMAGE_WIDTH, IMAGE_HEIGHT = 4096.0, 4096.0, 3072.0
CAMERA = CameraIntrinsics(FOCAL, FOCAL, IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0)
# Camera-frame depth range of the generated points.
DEPTH_NEAR, DEPTH_FAR = 4.0, 12.0
# Bearing distance below which labeling pairs a keypoint with a point.
GT_TOLERANCE = 1e-3
# Bearing clearance of every outlier, generated or injected, from every
# bearing on the other side: twice the labeling tolerance.
OUTLIER_GUARD = 2.0 * GT_TOLERANCE
# Share of the image's half-extent that point bearings are drawn within.
BEARING_MARGIN = 0.92
_BEARING_WINDOW = (BEARING_MARGIN * (IMAGE_WIDTH / 2.0) / FOCAL,
                   BEARING_MARGIN * (IMAGE_HEIGHT / 2.0) / FOCAL)


class InvalidConfig(ValueError):
    """A flag, configuration, scene or weights file the program cannot run
    on, or a scene too small for the network; the CLI exits 2 on it."""


@dataclass(frozen=True)
class SynthConfig:
    """What varies between generated scenes: the point count, the inlier
    share, the inlier keypoints' pixel noise and the seed.

    Every scene shares the module's camera (CAMERA), depth range
    (DEPTH_NEAR to DEPTH_FAR) and labeling tolerance (GT_TOLERANCE). No
    workload varies them, and fixed, they cannot give a scene the loader
    rejects or an outlier that no draw can place clear of the guard.
    """

    n_points: int = 100
    inlier_fraction: float = 0.7
    pixel_noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not MIN_POINTS <= self.n_points <= MAX_POINTS:
            raise InvalidConfig(
                f"n_points must lie in [{MIN_POINTS},{MAX_POINTS}], got {self.n_points}")
        if not 0.0 <= self.inlier_fraction <= 1.0:
            raise InvalidConfig(f"inlier_fraction must lie in [0,1], got {self.inlier_fraction}")
        # Noise wider than the image is no detector's; far wider, it
        # overflows the keypoints.
        if not 0.0 <= self.pixel_noise_sigma <= IMAGE_WIDTH:
            raise InvalidConfig(f"pixel_noise_sigma must lie in [0,{IMAGE_WIDTH:g}] pixels, "
                                f"got {self.pixel_noise_sigma}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScenePair:
    """A query image's keypoints, the 3D points to match them to, and the
    ground truth. Construction checks the scene contract, raising
    InvalidConfig on a breach: keypoints are (M, 2), kp_colors (M, 3),
    points (N, 3) and pt_colors (N, 3) arrays; each side holds MIN_POINTS
    to MAX_POINTS rows; every coordinate and colour is finite; colours lie
    in [0,1]; every point lies at depth above EPS_DEPTH under query_pose;
    every gt match indexes an existing keypoint and point (several may
    share one). The gt indices are stored as ints. The arrays are not
    copied: writing into them bypasses the check.
    """

    intrinsics: CameraIntrinsics
    query_pose: RigidPose
    keypoints: np.ndarray    # (M,2) pixels
    kp_colors: np.ndarray    # (M,3) RGB in [0,1]
    points: np.ndarray       # (N,3) world coordinates
    pt_colors: np.ndarray    # (N,3) RGB in [0,1]
    gt_matches: CorrespondenceSet

    def __post_init__(self):
        for key, xy, color_key, colors, width, rows in (
                ("keypoints", self.keypoints, "kp_colors", self.kp_colors, 2, "M"),
                ("points", self.points, "pt_colors", self.pt_colors, 3, "N")):
            shape, color_shape = np.shape(xy), np.shape(colors)
            if (shape, color_shape) != (shape[:1] + (width,), shape[:1] + (3,)):
                raise InvalidConfig(f"scene {key} and {color_key} must be ({rows}, {width}) and "
                                    f"({rows}, 3) arrays, got {shape} and {color_shape}")
            if not (np.isfinite(xy).all() and np.isfinite(colors).all()):
                raise InvalidConfig(f"scene {key} hold a non-finite value")
            if not MIN_POINTS <= len(xy) <= MAX_POINTS:
                raise InvalidConfig(
                    f"scene has {len(xy)} {key}, outside [{MIN_POINTS},{MAX_POINTS}]")
            if np.any(colors < 0.0) or np.any(colors > 1.0):
                raise InvalidConfig(f"scene {key} colours must lie in [0,1]")
        _, visible = world_bearings(self.query_pose, self.points)
        if not visible.all():
            raise InvalidConfig(f"scene point {int(np.argmin(visible))} lies at depth "
                                f"<= {EPS_DEPTH} in the camera frame of the pose")
        gt = np.array([p[:2] for p in self.gt_matches], dtype=np.float64).reshape(-1, 2)
        bad = ~((gt >= 0) & (gt < (len(self.keypoints), len(self.points)))
                & (gt == np.floor(gt))).all(axis=1)
        if bad.any():
            i, j = gt[bad][0]
            raise InvalidConfig(f"gt match ({i:g},{j:g}) out of bounds")
        object.__setattr__(self, "gt_matches", CorrespondenceSet(
            [(int(i), int(j), s) for i, j, s in self.gt_matches]))


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


def _sample_camera_points(rng, count):
    bx_max, by_max = _BEARING_WINDOW
    z = rng.uniform(DEPTH_NEAR, DEPTH_FAR, count)
    bx = rng.uniform(-bx_max, bx_max, count)
    by = rng.uniform(-by_max, by_max, count)
    return np.stack([bx * z, by * z, z], axis=1)


def _camera_to_world(cam: np.ndarray, pose: RigidPose) -> np.ndarray:
    R, t = pose.rotation, pose.translation
    d = cam - t
    return d @ R  # (R^T d^T)^T


def _clearance(b, bearings) -> float:
    """Distance from bearing b to the nearest row of bearings (inf if none)."""
    return float(np.min(np.hypot(*(bearings - b).T), initial=np.inf))


def _place_clear(draw, bearing_of, bearings, x=None):
    """The first of x, when given, and then fresh draw()s whose bearing lies
    farther than OUTLIER_GUARD from every row of bearings, with that bearing."""
    x = draw() if x is None else x
    for _ in range(1000):
        b = bearing_of(x)
        if _clearance(b, bearings) > OUTLIER_GUARD:
            return x, b
        x = draw()
    raise InvalidConfig("could not place an outlier clear of every bearing on the other side")


def _clear_keypoint(rng, k: CameraIntrinsics, bearings):
    """A pixel drawn uniformly over [0, 2 cx] x [0, 2 cy] whose bearing lies
    farther than OUTLIER_GUARD from every row of bearings, with that bearing."""
    return _place_clear(lambda: (rng.uniform(0.0, 2.0 * k.cx), rng.uniform(0.0, 2.0 * k.cy)),
                        lambda uv: pixel_bearings(k, uv)[0], bearings)


def generate_scene(cfg: SynthConfig) -> ScenePair:
    """Build one scene pair, fully determined by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    k = CAMERA
    pose = RigidPose(_random_rotation(rng), rng.uniform(-2.0, 2.0, 3))

    n = cfg.n_points
    n_in = int(round(cfg.inlier_fraction * n))

    cam_in = _sample_camera_points(rng, n_in)
    world_in = _camera_to_world(cam_in, pose)
    colors_in = rng.uniform(0.0, 1.0, (n_in, 3))

    # Inlier detections: exact projections plus detector jitter.
    uv_in = np.empty((n_in, 2))
    uv_in[:, 0] = k.fx * (cam_in[:, 0] / cam_in[:, 2]) + k.cx
    uv_in[:, 1] = k.fy * (cam_in[:, 1] / cam_in[:, 2]) + k.cy
    if cfg.pixel_noise_sigma > 0.0:
        uv_in = uv_in + rng.normal(0.0, cfg.pixel_noise_sigma, uv_in.shape)

    cam_out = _sample_camera_points(rng, n - n_in)
    colors_out_pts = rng.uniform(0.0, 1.0, (n - n_in, 3))
    colors_out_kps = rng.uniform(0.0, 1.0, (n - n_in, 3))

    point_bearings = np.concatenate([cam_in[:, :2] / cam_in[:, 2:],
                                     cam_out[:, :2] / cam_out[:, 2:]], axis=0)

    # Outlier keypoints: anywhere in the image but clear of every point bearing.
    uv_out = np.empty((n - n_in, 2))
    kp_out_bearings = np.empty((n - n_in, 2))
    for i in range(n - n_in):
        uv_out[i], kp_out_bearings[i] = _clear_keypoint(rng, k, point_bearings)

    # Outlier 3D points must also stay clear of every inlier keypoint bearing,
    # otherwise labeling could pair them with a noisy detection.
    kp_bearings = np.concatenate([pixel_bearings(k, uv_in), kp_out_bearings], axis=0)
    for i in range(n - n_in):
        cam_out[i], _ = _place_clear(lambda: _sample_camera_points(rng, 1)[0],
                                     lambda c: c[:2] / c[2], kp_bearings, cam_out[i])
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

    gt = label_ground_truth(uv, world, pose, k, GT_TOLERANCE)
    return ScenePair(k, pose, uv, kp_colors, world, pt_colors, gt)


def inject_outliers(pair: ScenePair, ratio: float, seed: int) -> ScenePair:
    """Replace ceil(ratio * |gt|) matched keypoints with unmatched detections.

    The replaced subset is a prefix of a seed-fixed permutation, so the
    surviving ground truth is nested (monotone) across ratios. Each
    replacement is drawn clear of every visible point by OUTLIER_GUARD;
    only the replaced keypoints' pairs leave the ground truth, and every
    other pair survives as it was.
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
    pt_bearings, _ = world_bearings(pair.query_pose, pair.points)
    uv, kp_colors = pair.keypoints.copy(), pair.kp_colors.copy()
    for i in sorted(replace_idx):
        uv[i], _ = _clear_keypoint(rng, k, pt_bearings)
        kp_colors[i] = rng.uniform(0.0, 1.0, 3)

    gt = CorrespondenceSet([p for p in pair.gt_matches.pairs if p[0] not in replace_idx])
    return dataclasses.replace(pair, keypoints=uv, kp_colors=kp_colors, gt_matches=gt)


# --- scene file format ---------------------------------------------------------


def scene_to_dict(pair: ScenePair) -> dict:
    """The scene as a JSON-ready dict.

    Keys: "intrinsics" {fx, fy, cx, cy}; "pose" {rotation: 9 numbers, row
    major, translation: 3 numbers}, the world-to-camera transform; "keypoints"
    rows [u, v, r, g, b]; "points" rows [x, y, z, r, g, b]; "gt_matches" rows
    [keypoint index, point index]. scene_from_dict accepts a dict of this
    shape whose camera is valid (`CameraIntrinsics`, `RigidPose`) and whose
    scene keeps the `ScenePair` contract.
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
    """obj[key] as a float64 array of rows of exactly `width` numbers."""
    try:
        rows = np.array(obj[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"scene {key} must be rows of {width} numbers: {exc}") from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise InvalidConfig(f"scene {key} must be rows of exactly {width} numbers")
    return rows


def scene_from_dict(obj: dict) -> ScenePair:
    """Inverse of scene_to_dict; raises InvalidConfig on a scene it rejects."""
    try:
        k = CameraIntrinsics(**obj["intrinsics"])
        pose = RigidPose(np.array(obj["pose"]["rotation"]).reshape(3, 3),
                         np.array(obj["pose"]["translation"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"scene camera is invalid: {exc}") from exc
    kps, pts = _rows(obj, "keypoints", 5), _rows(obj, "points", 6)
    pairs = [(i, j, 1.0) for i, j in _rows(obj, "gt_matches", 2).tolist()]
    return ScenePair(k, pose, kps[:, :2].copy(), kps[:, 2:].copy(),
                     pts[:, :3].copy(), pts[:, 3:].copy(), CorrespondenceSet(pairs))


def dump_scene(pair: ScenePair) -> str:
    return json.dumps(scene_to_dict(pair), sort_keys=True, separators=(",", ":")) + "\n"


def save_scene(path, pair: ScenePair):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_scene(pair))


def _float_sized_int(text: str) -> int:
    float(value := int(text))  # OverflowError beyond the float range
    return value


def read_json(path, what: str):
    """The JSON value held in file `path`. A file that is not UTF-8 JSON,
    that nests too deep to parse or that holds an integer too large for a
    float raises InvalidConfig naming the `what` file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f, parse_int=_float_sized_int)
        # ValueError: bad JSON, bad UTF-8, or an integer of over 4300 digits.
        except (ValueError, OverflowError, RecursionError) as exc:
            raise InvalidConfig(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_scene(path) -> ScenePair:
    return scene_from_dict(read_json(path, "scene"))
