"""Correspondence inlier classifier on raw bearing positions.

A pointwise residual MLP made set-aware by context normalization, which is
`autodiff.instance_norm` without affine parameters: per channel mean and
variance across the candidate axis; the residual linear layers that feed it
have no bias, which it would cancel. It ends in an inlier logit, which the
loss reads as it is and `pipeline.match_scene` turns into a numpy probability.
Input is the concatenated 2D/3D bearing pair per candidate, four channels;
the transport score is not an input. The bearings come from the caller,
which takes them from the rows the network read
(`pipeline.classify_candidates`), so this module never sees a pose.
`classify` runs on its candidate rows in canonical order and gathers the
logits back, so they are bit-exactly permutation equivariant. Like the
network body, it computes in the weights' dtype.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .geometry import CorrespondenceSet
from .network import CLASSIFIER_UNITS, ModelWeights


def classify(bearings_p, bearings_q, w: ModelWeights) -> Tensor:
    """Inlier logit per candidate from its (n, 2) 2D and 3D bearings."""
    x = np.concatenate([bearings_p, bearings_q], axis=1)
    n = len(x)
    if n == 0:
        raise ValueError("classifier needs at least one candidate")
    order, inverse = ad.canonical_order(x)
    x = constant(x[order].astype(w.dtype))

    h = ad.add(ad.matmul(x, w.param("clf/proj/W")), w.param("clf/proj/b"))
    for r in range(CLASSIFIER_UNITS):
        lin = ad.matmul(h, w.param(f"clf/res{r}/lin/W"))
        h = ad.add(h, ad.instance_norm(lin, act="leaky_relu"))
    logit = ad.add(ad.matmul(h, w.param("clf/head/W")), w.param("clf/head/b"))
    return ad.gather_rows(ad.reshape(logit, (n,)), inverse)


def check_threshold(t: float):
    """Raise ValueError unless t is an acceptance threshold, in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0,1], got {t}")


def filter_correspondences(init: CorrespondenceSet, probs, t: float) -> CorrespondenceSet:
    """Keep candidate i iff p_i > t, compared in p's dtype; order preserved."""
    check_threshold(t)
    p = np.asarray(probs)
    if len(p) != len(init):
        raise ValueError(f"{len(p)} probabilities for {len(init)} candidates")
    kept = [pair for pair, pi in zip(init.pairs, p) if pi > t]
    return CorrespondenceSet(kept)
