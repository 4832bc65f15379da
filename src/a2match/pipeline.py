"""End-to-end inference: network forward, transport matching, outlier
rejection, and PnP localization for one scene pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CorrespondenceSet, project
from .network import ModelWeights, NetworkConfig, forward
from .posemetrics import (
    PoseEstimate,
    RansacConfig,
    TooFewCorrespondences,
    pnp_ransac,
    rotation_error,
    translation_error,
)
from .rejection import candidate_batch, classify, filter_correspondences
from .synth import ScenePair
from .transport import augment_dustbins, cost_matrix, mutual_nn, sinkhorn


@dataclass
class MatchResult:
    initial: CorrespondenceSet
    final: CorrespondenceSet
    probabilities: np.ndarray


@dataclass
class LocalizeResult:
    estimate: PoseEstimate
    n_initial: int
    n_final: int
    rotation_error_deg: float
    translation_error: float
    mean_reproj_px: float
    failed: bool


def match_scene(pair: ScenePair, weights: ModelWeights, net_cfg: NetworkConfig = None,
                threshold: float = 0.5, use_rejection: bool = True) -> MatchResult:
    """Initial (mutual-NN transport) and final (filtered) correspondences."""
    net_cfg = net_cfg or weights.config
    f_p, f_q = forward(pair, weights, net_cfg)
    plan = sinkhorn(augment_dustbins(cost_matrix(f_p, f_q),
                                     weights.param("ot/alpha_bin")))
    initial = mutual_nn(plan)
    if not use_rejection or len(initial) == 0:
        return MatchResult(initial, CorrespondenceSet(list(initial.pairs)),
                           np.ones(len(initial)))
    probs = classify(candidate_batch(pair, initial), weights).data
    final = filter_correspondences(initial, probs, threshold)
    return MatchResult(initial, final, probs)


def _localize_from_pairs(pair: ScenePair, corrs: CorrespondenceSet,
                         ransac_cfg: RansacConfig, n_initial: int) -> LocalizeResult:
    uv = pair.keypoints[np.array(corrs.indices_2d(), dtype=np.intp)]
    xyz = pair.points[np.array(corrs.indices_3d(), dtype=np.intp)]
    try:
        est = pnp_ransac(uv, xyz, pair.intrinsics, ransac_cfg)
    except TooFewCorrespondences:
        est = PoseEstimate(None, np.zeros(len(corrs), dtype=bool), False)
    if not est.success:
        return LocalizeResult(est, n_initial, len(corrs), np.inf, np.inf, np.inf, True)

    # A point behind the estimated camera has no image: its error is inf.
    proj, visible = project(pair.intrinsics, est.pose, xyz)
    errs = np.where(visible, np.hypot(proj[:, 0] - uv[:, 0], proj[:, 1] - uv[:, 1]), np.inf)
    return LocalizeResult(
        est, n_initial, len(corrs),
        rotation_error(est.pose, pair.query_pose),
        translation_error(est.pose, pair.query_pose),
        float(np.mean(errs)), False)


def localize_scene(pair: ScenePair, weights: ModelWeights, net_cfg: NetworkConfig = None,
                   threshold: float = 0.5, ransac_cfg: RansacConfig = None,
                   use_rejection: bool = True) -> LocalizeResult:
    """Full pipeline pose estimate with errors against the scene's GT pose."""
    ransac_cfg = ransac_cfg or RansacConfig()
    match = match_scene(pair, weights, net_cfg, threshold, use_rejection)
    return _localize_from_pairs(pair, match.final, ransac_cfg, len(match.initial))


def localize_oracle(pair: ScenePair, ransac_cfg: RansacConfig = None) -> LocalizeResult:
    """Ground-truth correspondences fed straight to PnP (upper bound)."""
    ransac_cfg = ransac_cfg or RansacConfig()
    return _localize_from_pairs(pair, pair.gt_matches, ransac_cfg, len(pair.gt_matches))


def match_f1(final: CorrespondenceSet, gt: CorrespondenceSet):
    """Precision, recall, F1 of a correspondence set against ground truth."""
    pred = final.pair_set()
    truth = gt.pair_set()
    tp = len(pred & truth)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1
