"""End-to-end inference: network forward, transport matching, outlier
rejection, and PnP localization for one scene pair, and the outlier sweep
that evaluates it over a scene set.

The scene-scoring chain has one home here. `scene_plan` runs the network,
the feature cost, the dustbins and Sinkhorn, and returns the plan's logs;
`classify_candidates` gives a candidate set's inlier logits on the very
bearings the network read. Inference (`match_scene`, which filters on the
logits' sigmoid in numpy) and training (`training.scene_loss`) both call
the two, so a change to the chain or to its input frame is made once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .geometry import CorrespondenceSet, project
from .network import ModelWeights, forward, scene_inputs
from .posemetrics import (
    PoseEstimate,
    RansacConfig,
    error_quantiles,
    pnp_ransac,
    reprojection_auc,
    rotation_error,
    translation_error,
)
from .rejection import check_threshold, classify, filter_correspondences
from .synth import ScenePair, inject_outliers
from .transport import ScoreMatrix, augment_dustbins, cost_matrix, mutual_nn, sinkhorn


@dataclass
class MatchResult:
    initial: CorrespondenceSet
    final: CorrespondenceSet


@dataclass
class LocalizeResult:
    estimate: PoseEstimate
    n_initial: int
    n_final: int
    rotation_error_deg: float
    translation_error: float
    mean_reproj_px: float
    failed: bool


def scene_plan(pair: ScenePair, weights: ModelWeights) -> ScoreMatrix:
    """Log dustbin transport plan of a scene pair, (M+1, N+1)."""
    f_p, f_q = forward(pair, weights)
    return sinkhorn(augment_dustbins(cost_matrix(f_p, f_q), weights.param("ot/alpha_bin")))


def classify_candidates(pair: ScenePair, corrs: CorrespondenceSet,
                        weights: ModelWeights) -> Tensor:
    """Inlier logit of each candidate, read off the network's input rows."""
    bp, _, bq, _ = scene_inputs(pair)
    return classify(bp[np.array(corrs.indices_2d(), dtype=np.intp)],
                    bq[np.array(corrs.indices_3d(), dtype=np.intp)], weights)


def match_scene(pair: ScenePair, weights: ModelWeights, *, threshold: float = 0.5,
                use_rejection: bool = True) -> MatchResult:
    """Initial (mutual-NN transport) and final (filtered) correspondences."""
    check_threshold(threshold)
    initial = mutual_nn(scene_plan(pair, weights))
    if not use_rejection or len(initial) == 0:
        return MatchResult(initial, CorrespondenceSet(list(initial.pairs)))
    z = classify_candidates(pair, initial, weights).data
    # exp(-z) overflows to inf below -88 in float32, and 1 / inf is the 0
    # that the probability rounds to.
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-z))
    return MatchResult(initial, filter_correspondences(initial, probs, threshold))


def _localize_from_pairs(pair: ScenePair, corrs: CorrespondenceSet,
                         ransac_cfg: RansacConfig, n_initial: int) -> LocalizeResult:
    uv = pair.keypoints[np.array(corrs.indices_2d(), dtype=np.intp)]
    xyz = pair.points[np.array(corrs.indices_3d(), dtype=np.intp)]
    est = pnp_ransac(uv, xyz, pair.intrinsics, ransac_cfg)
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


def localize_scene(pair: ScenePair, weights: ModelWeights, *, threshold: float = 0.5,
                   ransac_cfg: RansacConfig = None) -> LocalizeResult:
    """Full pipeline pose estimate with errors against the scene's GT pose."""
    ransac_cfg = ransac_cfg or RansacConfig()
    match = match_scene(pair, weights, threshold=threshold)
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
    ransac_cfg = ransac_cfg or RansacConfig()

    def run_cell(ratio, s_idx):
        # Seeded per scene alone, so the surviving GT nests across ratios.
        cell_seed = (seed * 1000003 + s_idx) % 2 ** 63
        injected = inject_outliers(scenes[s_idx], ratio, seed=cell_seed)
        if use_oracle:
            return localize_oracle(injected, ransac_cfg)
        return localize_scene(injected, weights, threshold=threshold,
                              ransac_cfg=ransac_cfg)

    rows = []
    for ratio in ratios:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must lie in [0,1], got {ratio}")
        results = [run_cell(ratio, s) for s in range(len(scenes))]
        reproj = [res.mean_reproj_px for res in results]
        rots = [res.rotation_error_deg for res in results]
        trans = [res.translation_error for res in results]
        auc1, auc5, auc10 = reprojection_auc(reproj)
        rows.append(SweepRow(float(ratio), auc1, auc5, auc10, len(scenes),
                             error_quantiles(rots, (50.0,))[0],
                             error_quantiles(trans, (50.0,))[0]))
    return rows
