"""PnP-RANSAC pose solver and evaluation metrics.

The minimal solver is the classical three-point algebraic solution: the two
depth-ratio equations are reduced to a quartic by eliminating one unknown
(the elimination is carried out numerically in coefficient space), each
admissible root gives camera-frame depths, and a three-point rigid fit
recovers the pose. A fourth sampled point disambiguates among up to four
roots. The best RANSAC model is refined by Gauss-Newton on its inliers,
minimizing reprojection error in normalized coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    EPS_DEPTH,
    RigidPose,
    pixel_bearings,
)


class TooFewCorrespondences(Exception):
    pass


class EmptyList(Exception):
    pass


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 500
    inlier_threshold: float = 0.005   # normalized-coordinate reprojection distance
    confidence: float = 0.999
    seed: int = 0
    refine_iterations: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0.0):
            raise ValueError(
                f"inlier_threshold must be finite and > 0, got {self.inlier_threshold}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0,1), got {self.confidence}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PoseEstimate:
    pose: RigidPose
    inlier_mask: np.ndarray
    success: bool


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[:len(a)] += a
    out[:len(b)] += b
    return out


def _p3p_solutions(rays: np.ndarray, pts: np.ndarray):
    """Up to four (R, t) candidates from three ray/point pairs.

    rays: (3,3) unit bearing directions; pts: (3,3) world coordinates.
    Returns a list of world-to-camera poses; empty for degenerate input.
    """
    p1, p2, p3 = pts
    a2 = float(((p2 - p3) ** 2).sum())
    b2 = float(((p1 - p3) ** 2).sum())
    c2 = float(((p1 - p2) ** 2).sum())
    if min(a2, b2, c2) < 1e-18:
        return []
    ca = float(rays[1] @ rays[2])
    cb = float(rays[0] @ rays[2])
    cg = float(rays[0] @ rays[1])
    A2 = a2 / c2
    B2 = b2 / c2

    # u^2 - 2 u cg = f(v);  u = g(v)/h(v);  constraint g^2 - 2 cg g h - f h^2 = 0.
    f = np.array([1.0 / B2 - 1.0, -2.0 * cb / B2, 1.0 / B2])
    g = -_poly_add((1.0 - A2) * f, np.array([-A2, 0.0, 1.0]))
    h = np.array([2.0 * cg, -2.0 * ca])
    quartic = _poly_add(
        np.convolve(g, g),
        -_poly_add(np.convolve(f, np.convolve(h, h)), 2.0 * cg * np.convolve(g, h)),
    )
    if np.max(np.abs(quartic)) < 1e-18:
        return []
    roots = np.roots(quartic[::-1])

    solutions = []
    for root in roots:
        if abs(root.imag) > 1e-8 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        if v <= 0.0:
            continue
        hv = h[0] + h[1] * v
        if abs(hv) < 1e-14:
            continue
        u = float((g[0] + g[1] * v + g[2] * v * v) / hv)
        if u <= 0.0:
            continue
        denom = 1.0 + u * u - 2.0 * u * cg
        if denom <= 1e-18:
            continue
        s1 = math.sqrt(c2 / denom)
        s2, s3 = u * s1, v * s1
        # Filter extraneous elimination roots with the remaining constraint.
        resid = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
        if abs(resid) > 1e-6 * max(1.0, a2):
            continue
        cam = np.stack([s1 * rays[0], s2 * rays[1], s3 * rays[2]])
        fit = _rigid_fit(pts, cam)
        if fit is not None:
            solutions.append(fit)
    return solutions


def _rigid_fit(world: np.ndarray, cam: np.ndarray):
    """Least-squares R, t with cam ~ R @ world + t; None when collinear."""
    wc = world.mean(axis=0)
    cc = cam.mean(axis=0)
    H = (world - wc).T @ (cam - cc)
    U, S, Vt = np.linalg.svd(H)
    if S[1] < 1e-12 * max(S[0], 1e-300):
        return None
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(Vt.T @ U.T)))])
    R = Vt.T @ D @ U.T
    t = cc - R @ wc
    return R, t


def _reproj_errors(R, t, world, bearings):
    """Normalized-plane reprojection distances; inf for non-positive depth."""
    cam = world @ R.T + t
    z = cam[:, 2]
    ok = z > EPS_DEPTH
    safe = np.where(ok, z, 1.0)
    du = cam[:, 0] / safe - bearings[:, 0]
    dv = cam[:, 1] / safe - bearings[:, 1]
    err = np.hypot(du, dv)
    return np.where(ok, err, np.inf)


def _skew(q):
    """(...,3,3) cross-product matrices of (...,3) vectors."""
    zero = np.zeros(q.shape[:-1])
    return np.stack([zero, -q[..., 2], q[..., 1], q[..., 2], zero, -q[..., 0],
                     -q[..., 1], q[..., 0], zero], axis=-1).reshape(q.shape[:-1] + (3, 3))


def _exp_so3(w):
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3) + _skew(w)
    K = _skew(w / theta)
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def _refine_pose(R, t, world, bearings, iterations):
    """Gauss-Newton on normalized reprojection residuals."""
    for _ in range(iterations):
        rot = world @ R.T
        cam = rot + t
        z = cam[:, 2]
        if np.any(z <= EPS_DEPTH):
            break
        inv_z = 1.0 / z
        x, y = cam[:, 0], cam[:, 1]
        r = np.stack([x * inv_z - bearings[:, 0], y * inv_z - bearings[:, 1]], axis=1)
        n = len(world)
        # Per point: d(projection)/d(camera point), a (2,3) block, times
        # d(camera point)/d(rotation) = -skew(rotated point) and d/dt = I.
        d_pi = np.zeros((n, 2, 3))
        d_pi[:, 0, 0] = d_pi[:, 1, 1] = inv_z
        d_pi[:, 0, 2] = -x * inv_z ** 2
        d_pi[:, 1, 2] = -y * inv_z ** 2
        J = np.concatenate([d_pi @ -_skew(rot), d_pi], axis=2).reshape(2 * n, 6)
        rhs = -J.T @ r.reshape(-1)
        A = J.T @ J
        try:
            delta = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        R = _exp_so3(delta[:3]) @ R
        t = t + delta[3:]
        if np.linalg.norm(delta) < 1e-15:
            break
    # Re-orthonormalize against accumulated drift.
    U, _, Vt = np.linalg.svd(R)
    R = U @ np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))]) @ Vt
    return R, t


def pnp_ransac(uv, xyz, k: CameraIntrinsics, cfg: RansacConfig) -> PoseEstimate:
    """Robust pose from correspondences: row i of (n,2) pixels `uv` images
    row i of (n,3) world points `xyz`."""
    bearings = pixel_bearings(k, uv)
    world = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    n = len(bearings)
    if len(world) != n:
        raise ValueError(f"{n} pixels for {len(world)} world points")
    if n < 4:
        raise TooFewCorrespondences(f"need at least 4 correspondences, got {n}")
    rays = np.concatenate([bearings, np.ones((n, 1))], axis=1)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)

    rng = np.random.default_rng(cfg.seed)
    best_count = 0
    best_model = None
    needed = cfg.max_iterations
    it = 0
    while it < min(needed, cfg.max_iterations):
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        tri, probe = sample[:3], sample[3]
        candidates = _p3p_solutions(rays[tri], world[tri])
        if not candidates:
            continue
        probe_err = [
            _reproj_errors(R, t, world[probe:probe + 1], bearings[probe:probe + 1])[0]
            for R, t in candidates
        ]
        R, t = candidates[int(np.argmin(probe_err))]
        errors = _reproj_errors(R, t, world, bearings)
        count = int((errors < cfg.inlier_threshold).sum())
        if count > best_count:
            best_count = count
            best_model = (R, t)
            ratio = count / n
            if 0.0 < ratio < 1.0:
                denom = math.log(max(1.0 - ratio ** 4, 1e-16))
                needed = min(cfg.max_iterations,
                             int(math.ceil(math.log(1.0 - cfg.confidence) / denom)))
            elif ratio >= 1.0:
                needed = it

    if best_model is None or best_count < 4:
        return PoseEstimate(None, np.zeros(n, dtype=bool), False)

    R, t = best_model
    mask = _reproj_errors(R, t, world, bearings) < cfg.inlier_threshold
    R, t = _refine_pose(R, t, world[mask], bearings[mask], cfg.refine_iterations)
    mask = _reproj_errors(R, t, world, bearings) < cfg.inlier_threshold
    if int(mask.sum()) < 4:
        return PoseEstimate(None, mask, False)
    return PoseEstimate(RigidPose(R, t), mask, True)


def rotation_error(est: RigidPose, gt: RigidPose) -> float:
    """Relative rotation angle in degrees."""
    tr = float(np.trace(est.rotation.T @ gt.rotation))
    c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    return math.degrees(math.acos(c))


def translation_error(est: RigidPose, gt: RigidPose) -> float:
    return float(np.linalg.norm(est.translation - gt.translation))


AUC_THRESHOLDS = (1.0, 5.0, 10.0)


def reprojection_auc(per_query_errors, thresholds=AUC_THRESHOLDS):
    """Mean of max(0, 1 - e/tau) per threshold, as percentages."""
    e = np.asarray(per_query_errors, dtype=np.float64)
    out = []
    for tau in thresholds:
        with np.errstate(invalid="ignore"):
            frac = np.where(np.isinf(e), 0.0, np.maximum(0.0, 1.0 - e / tau))
        out.append(float(frac.mean() * 100.0))
    return tuple(out)


def error_quantiles(errors, percentiles=(25.0, 50.0, 75.0)):
    """Linear-interpolation quantiles; failures enter as +inf.

    Hand-rolled interpolation so a bracket of two infinities yields inf
    instead of the inf - inf = NaN that np.percentile produces.
    """
    e = np.sort(np.asarray(errors, dtype=np.float64))
    n = e.size
    if n == 0:
        raise EmptyList("quantiles of an empty list are undefined")
    out = []
    for q in percentiles:
        pos = (q / 100.0) * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        if e[lo] == e[hi]:
            out.append(float(e[lo]))
        else:
            t = pos - lo
            out.append(float((1.0 - t) * e[lo] + t * e[hi]))
    return tuple(out)


@dataclass
class SweepRow:
    ratio: float
    auc1: float
    auc5: float
    auc10: float
    n_queries: int
    median_rot_deg: float
    median_trans: float


def outlier_sweep(weights, scenes, ratios, *, ransac_cfg=None,
                  threshold: float = 0.5, seed: int = 0, use_oracle: bool = False):
    """Inject outliers at each ratio, run the pipeline, summarize AUC/medians.

    use_oracle bypasses the network and feeds ground-truth matches straight
    to PnP (the harness upper bound).
    """
    from .pipeline import localize_oracle, localize_scene
    from .synth import inject_outliers

    ransac_cfg = ransac_cfg or RansacConfig()

    def run_cell(r_idx, ratio, s_idx):
        cell_seed = (seed * 1000003 + r_idx * 8191 + s_idx) % 2 ** 63
        injected = inject_outliers(scenes[s_idx], ratio, seed=cell_seed)
        if use_oracle:
            return localize_oracle(injected, ransac_cfg)
        return localize_scene(injected, weights, threshold=threshold,
                              ransac_cfg=ransac_cfg)

    rows = []
    for r_idx, ratio in enumerate(ratios):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must lie in [0,1], got {ratio}")
        results = [run_cell(r_idx, ratio, s) for s in range(len(scenes))]
        reproj = [res.mean_reproj_px for res in results]
        rots = [res.rotation_error_deg for res in results]
        trans = [res.translation_error for res in results]
        auc1, auc5, auc10 = reprojection_auc(reproj)
        rows.append(SweepRow(float(ratio), auc1, auc5, auc10, len(scenes),
                             error_quantiles(rots, (50.0,))[0],
                             error_quantiles(trans, (50.0,))[0]))
    return rows
