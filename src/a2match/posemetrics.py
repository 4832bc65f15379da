"""PnP-RANSAC pose solver and evaluation metrics.

The minimal solver is the classical three-point algebraic solution: the two
depth-ratio equations are reduced to a quartic by eliminating one unknown
(the elimination is carried out numerically in coefficient space), each
admissible root gives camera-frame depths, and a three-point rigid fit
recovers the pose. A fourth sampled point disambiguates among up to four
roots. The best RANSAC model is refined by Gauss-Newton on its inliers,
minimizing reprojection error in normalized coordinates.

RANSAC works on a chunk of hypotheses per numpy call: the chunk's quartics
are solved by one eigenvalue call on their companion matrices, its
candidate poses fitted by one batched SVD, and its chosen poses scored as
one (chunk, n) error matrix. The sequential best-model and stopping-rule
updates are then replayed over the chunk in draw order, so samples, model
and hypothesis count are those of a loop that draws one hypothesis at a
time. Each step follows the arithmetic of that loop (np.convolve, np.roots,
one 3x3 SVD per root), so on a given numpy and BLAS it gives the same bits.
That matters where two candidate poses reproject the probe point equally
to round-off: the pick between them turns on the coefficients' last bits.
A sample whose companion matrix is not finite (a non-finite coefficient,
or a leading coefficient of 0) counts as a sample with no solution.
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


# Probability that RANSAC's stopping rule asks to have drawn at least one
# all-inlier sample.
CONFIDENCE = 0.999
# Gauss-Newton steps per refinement of the best RANSAC model, at most.
REFINE_ITERATIONS = 10


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 500
    inlier_threshold: float = 0.005   # normalized-coordinate reprojection distance
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0.0):
            raise ValueError(
                f"inlier_threshold must be finite and > 0, got {self.inlier_threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be > 0, got {self.max_iterations}")


@dataclass
class PoseEstimate:
    """pnp_ransac's result. A failed one (success False) has no pose; fewer
    than four pairs give one with no inliers and 0 iterations."""

    pose: RigidPose
    inlier_mask: np.ndarray
    success: bool
    iterations: int   # RANSAC hypotheses drawn


# Hypotheses drawn, solved and scored per numpy call by pnp_ransac. Scoring
# a chunk holds one (_CHUNK, 3, n) float64 array: 2.2 MB at n = 2864.
_CHUNK = 32

# Refinements of the best hypothesis at most: pnp_ransac refines again while
# the refined pose's inlier set differs from the one it was fitted on.
_REFIT_ROUNDS = 4


def _dot(a, b):
    """(H, 1) row-wise dot products of (H, k) arrays, with the bits of a @ b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def _convolve(a, v):
    """Row-wise np.convolve of (H, i) and (H, j) coefficient rows, i >= j.

    Bit for bit as np.convolve computes it (numpy's small-kernel correlate,
    checked on numpy 2.4): a coefficient with the full overlap of j products
    is summed in order, a partial one with the BLAS dot. Should numpy change
    that order, the tied-probe oracle test in tests/test_posemetrics.py
    would fail, as it does when these are formed as plain batched products.
    """
    m, k = a.shape[1], v.shape[1]
    rev = v[:, ::-1].copy()   # unit stride, so _dot is BLAS's dot
    out = np.empty((len(a), m + k - 1))
    for c in range(m + k - 1):
        lo, hi = max(0, c - k + 1), min(c, m - 1) + 1
        x, y = a[:, lo:hi], rev[:, k - 1 - c + lo:k - c + hi - 1]
        if hi - lo == k:
            out[:, c] = x[:, 0] * y[:, 0]
            for i in range(1, k):
                out[:, c] += x[:, i] * y[:, i]
        else:
            out[:, c:c + 1] = _dot(x, y)
    return out


def _p3p_solutions(rays: np.ndarray, pts: np.ndarray):
    """Up to four (R, t) candidates for each of H three-point samples.

    rays: (H,3,3) unit bearing directions; pts: (H,3,3) world coordinates.
    Returns (R, t, valid): valid is (H,4), one entry per root of the sample's
    quartic in eigenvalue order, true where the root gives a pose; R (K,3,3)
    and t (K,3) are the K world-to-camera poses of the true entries, in
    row-major order. Degenerate samples get no pose, and so does a sample
    whose companion matrix is not finite (a leading coefficient of 0
    included).
    """
    # Per-sample scalars are (H, 1) columns.
    p1, p2, p3 = pts[:, 0], pts[:, 1], pts[:, 2]
    a2 = ((p2 - p3) ** 2).sum(axis=1, keepdims=True)
    b2 = ((p1 - p3) ** 2).sum(axis=1, keepdims=True)
    c2 = ((p1 - p2) ** 2).sum(axis=1, keepdims=True)
    ca = _dot(rays[:, 1], rays[:, 2])
    cb = _dot(rays[:, 0], rays[:, 2])
    cg = _dot(rays[:, 0], rays[:, 1])
    # Rows of degenerate samples compute garbage that the masks below drop.
    with np.errstate(all="ignore"):
        A2 = a2 / c2
        B2 = b2 / c2
        # u^2 - 2 u cg = f(v);  u = g(v)/h(v);  constraint g^2 - 2 cg g h - f h^2 = 0.
        f = np.concatenate([1.0 / B2 - 1.0, -2.0 * cb / B2, 1.0 / B2], axis=1)
        g = -((1.0 - A2) * f)
        g[:, :1] += A2
        g[:, 2:] -= 1.0
        h = np.concatenate([2.0 * cg, -2.0 * ca], axis=1)
        inner = _convolve(f, _convolve(h, h))
        inner[:, :4] += 2.0 * cg * _convolve(g, h)
        quartic = _convolve(g, g) - inner
        # The companion matrices np.roots builds, highest degree first.
        companion = np.zeros((len(pts), 4, 4))
        companion[:, 0] = -quartic[:, 3::-1] / quartic[:, 4:]
        companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    solvable = ((np.minimum(np.minimum(a2, b2), c2)[:, 0] >= 1e-18)
                & (np.abs(quartic).max(axis=1) >= 1e-18)
                & np.isfinite(companion).all(axis=(1, 2)))
    roots = np.zeros((len(pts), 4), dtype=complex)
    roots[solvable] = np.linalg.eigvals(companion[solvable])

    v = roots.real
    with np.errstate(all="ignore"):
        hv = h[:, 0:1] + h[:, 1:2] * v
        u = (g[:, 0:1] + g[:, 1:2] * v + g[:, 2:3] * v * v) / hv
        denom = 1.0 + u * u - 2.0 * u * cg
        s1 = np.sqrt(c2 / denom)
        s2, s3 = u * s1, v * s1
        # Filter extraneous elimination roots with the remaining constraint.
        resid = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
        valid = (solvable[:, None]
                 & (np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(v)))
                 & (v > 0.0) & (np.abs(hv) >= 1e-14) & (u > 0.0) & (denom > 1e-18)
                 & (np.abs(resid) <= 1e-6 * np.maximum(1.0, a2)))
    owner = np.nonzero(valid)[0]
    world = pts[owner]
    cam = np.stack([s1, s2, s3], axis=2)[valid][:, :, None] * rays[owner]

    # Least-squares rigid fit cam ~ R @ world + t, none where collinear.
    wc = world.mean(axis=1)
    cc = cam.mean(axis=1)
    U, S, Vt = np.linalg.svd((world - wc[:, None]).swapaxes(1, 2) @ (cam - cc[:, None]))
    fit = S[:, 1] >= 1e-12 * np.maximum(S[:, 0], 1e-300)
    V = Vt.swapaxes(1, 2)
    Ut = U.swapaxes(1, 2)
    V[:, :, 2] *= np.sign(np.linalg.det(V @ Ut))[:, None]
    R = V @ Ut
    t = cc - (R @ wc[:, :, None])[:, :, 0]
    valid[valid] = fit
    return R[fit], t[fit], valid


def _reproj_errors(R, t, world, bearings):
    """Normalized-plane reprojection distances of H poses, (H, n).

    R (H,3,3), t (H,3); world (n,3) and bearings (n,2) are shared by every
    pose, or are (H,n,3) and (H,n,2), one set per pose. inf marks a point at
    non-positive depth.
    """
    cam = np.matmul(R, np.swapaxes(world, -1, -2))
    cam += t[:, :, None]
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    behind = ~(z > EPS_DEPTH)
    z[behind] = 1.0
    x /= z
    x -= bearings[..., 0]
    y /= z
    y -= bearings[..., 1]
    err = np.hypot(x, y, out=x)
    err[behind] = np.inf
    return err


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


def _refine_pose(R, t, world, bearings):
    """Gauss-Newton on normalized reprojection residuals, REFINE_ITERATIONS
    steps at most."""
    for _ in range(REFINE_ITERATIONS):
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
    row i of (n,3) world points `xyz`.

    Each hypothesis is one `rng.choice(n, 4, replace=False)` sample: P3P on
    its first three pairs, the fourth picking among the roots. Hypotheses are
    drawn, solved and scored _CHUNK at a time, no more than the stopping
    rule still asks for; the best-count and stopping-rule updates are then
    replayed over the chunk in draw order, so the model, the hypothesis
    count (`PoseEstimate.iterations`) and the result are those of drawing
    one hypothesis per step. Samples drawn past the stopping point in a
    chunk are dropped unused.

    The best model is refined by Gauss-Newton on its inliers. When the
    refined pose's inliers differ from the set it was fitted on, it is
    refined again on the new set, up to _REFIT_ROUNDS refinements in all:
    a hypothesis fitted on a few wrong pairs can move to a pose whose
    inliers are the true set only after a second fit.

    Fewer than four pairs, no hypothesis with four inliers, or a refined
    pose with fewer than four give a failed estimate (`success` False, no
    pose); with fewer than four pairs nothing is drawn, so `iterations` is 0.
    """
    bearings = pixel_bearings(k, uv)
    world = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    n = len(bearings)
    if len(world) != n:
        raise ValueError(f"{n} pixels for {len(world)} world points")
    if n < 4:
        return PoseEstimate(None, np.zeros(n, dtype=bool), False, 0)
    rays = np.concatenate([bearings, np.ones((n, 1))], axis=1)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)

    rng = np.random.default_rng(cfg.seed)
    best_count = 0
    best_model = None
    needed = cfg.max_iterations   # never grows past it
    it = 0
    while it < needed:
        size = min(_CHUNK, needed - it)
        samples = np.stack([rng.choice(n, size=4, replace=False) for _ in range(size)])
        tri, probe = samples[:, :3], samples[:, 3]
        R, t, valid = _p3p_solutions(rays[tri], world[tri])
        # Per sample, the candidate that best reprojects the probe point;
        # the first such, and the first candidate when every one misses it.
        owner = np.nonzero(valid)[0]
        probe_err = np.full(valid.shape, np.inf)
        probe_err[valid] = _reproj_errors(R, t, world[probe[owner], None],
                                          bearings[probe[owner], None])[:, 0]
        pick = probe_err.argmin(axis=1)
        rows = np.arange(size)
        pick = np.where(valid[rows, pick], pick, valid.argmax(axis=1))
        solved = valid.any(axis=1)
        chosen = (np.cumsum(valid).reshape(valid.shape) - 1)[rows, pick]
        counts = np.zeros(size, dtype=np.intp)   # 0 never beats best_count
        counts[solved] = (_reproj_errors(R[chosen[solved]], t[chosen[solved]], world, bearings)
                          < cfg.inlier_threshold).sum(axis=1)
        for h in range(size):
            if it >= needed:
                break
            it += 1
            count = int(counts[h])
            if count <= best_count:
                continue
            best_count = count
            best_model = (R[chosen[h]], t[chosen[h]])
            ratio = count / n
            if 0.0 < ratio < 1.0:
                denom = math.log(max(1.0 - ratio ** 4, 1e-16))
                if denom < 0.0:   # 0 where ratio^4 rounds away against 1
                    needed = min(cfg.max_iterations,
                                 int(math.ceil(math.log(1.0 - CONFIDENCE) / denom)))
            elif ratio >= 1.0:
                needed = it

    if best_model is None or best_count < 4:
        return PoseEstimate(None, np.zeros(n, dtype=bool), False, it)

    R, t = best_model
    fitted = _reproj_errors(R[None], t[None], world, bearings)[0] < cfg.inlier_threshold
    for _ in range(_REFIT_ROUNDS):
        R, t = _refine_pose(R, t, world[fitted], bearings[fitted])
        mask = _reproj_errors(R[None], t[None], world, bearings)[0] < cfg.inlier_threshold
        if int(mask.sum()) < 4 or np.array_equal(mask, fitted):
            break
        fitted = mask
    if int(mask.sum()) < 4:
        return PoseEstimate(None, mask, False, it)
    return PoseEstimate(RigidPose(R, t), mask, True, it)


def rotation_error(est: RigidPose, gt: RigidPose) -> float:
    """Relative rotation angle in degrees."""
    tr = float(np.trace(est.rotation.T @ gt.rotation))
    c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    return math.degrees(math.acos(c))


def translation_error(est: RigidPose, gt: RigidPose) -> float:
    return float(np.linalg.norm(est.translation - gt.translation))


AUC_THRESHOLDS = (1.0, 5.0, 10.0)


def reprojection_auc(per_query_errors):
    """Mean of max(0, 1 - e/tau) per tau in AUC_THRESHOLDS, as percentages."""
    e = np.asarray(per_query_errors, dtype=np.float64)
    out = []
    for tau in AUC_THRESHOLDS:
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
        raise ValueError("quantiles of an empty list are undefined")
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
