"""Correspondence inlier classifier on raw bearing positions.

A pointwise residual MLP made set-aware by context normalization (per
channel mean/variance across the candidate axis), ending in a sigmoid
inlier probability. Input is the concatenated 2D/3D bearing pair per
candidate, four channels; the transport score is not an input.
`classify` runs on its candidate rows in canonical order and gathers the
probabilities back, so they are bit-exactly permutation equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .geometry import CorrespondenceSet, pixel_bearings, world_bearings
from .network import CLASSIFIER_UNITS, ModelWeights

CONTEXT_EPS = 1e-5


class EmptyBatch(Exception):
    pass


@dataclass
class CandidateBatch:
    bearings_p: np.ndarray        # (n, 2)
    bearings_q: np.ndarray        # (n, 2)

    def __len__(self):
        return len(self.bearings_p)


def candidate_batch(pair, corrs: CorrespondenceSet) -> CandidateBatch:
    """Assemble classifier inputs for a correspondence set of a scene pair."""
    idx_p = np.array(corrs.indices_2d(), dtype=np.intp)
    idx_q = np.array(corrs.indices_3d(), dtype=np.intp)
    bp = pixel_bearings(pair.intrinsics, pair.keypoints[idx_p])
    bq, _ = world_bearings(pair.query_pose, pair.points[idx_q])
    return CandidateBatch(bp, bq)


def context_norm(x: Tensor, eps: float = CONTEXT_EPS) -> Tensor:
    """Per-channel normalization across candidates, no affine."""
    return ad.instance_norm(x, eps=eps)


def classify(batch: CandidateBatch, w: ModelWeights) -> Tensor:
    """Inlier probability per candidate, in (0,1)."""
    n = len(batch)
    if n == 0:
        raise EmptyBatch("classifier needs at least one candidate")
    x = np.concatenate([batch.bearings_p, batch.bearings_q], axis=1)
    order, inverse = ad.canonical_order(x)
    x = constant(x[order])

    h = ad.add(ad.matmul(x, w.param("clf/proj/W")), w.param("clf/proj/b"))
    for r in range(CLASSIFIER_UNITS):
        lin = ad.add(ad.matmul(h, w.param(f"clf/res{r}/lin/W")), w.param(f"clf/res{r}/lin/b"))
        h = ad.add(h, ad.leaky_relu(context_norm(lin)))
    logit = ad.add(ad.matmul(h, w.param("clf/head/W")), w.param("clf/head/b"))
    return ad.gather_rows(ad.sigmoid(ad.reshape(logit, (n,))), inverse)


def filter_correspondences(init: CorrespondenceSet, probs, t: float) -> CorrespondenceSet:
    """Keep candidate i iff p_i > t; order preserved."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0,1], got {t}")
    p = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if len(p) != len(init):
        raise ValueError(f"{len(p)} probabilities for {len(init)} candidates")
    kept = [pair for pair, pi in zip(init.pairs, p) if pi > t]
    return CorrespondenceSet(kept)
