import numpy as np
import pytest

from a2match.autodiff import Tape, constant
from a2match import autodiff as ad
from a2match.geometry import CorrespondenceSet, pixel_bearings, world_bearings
from a2match.network import ModelWeights, NetworkConfig
from a2match.pipeline import classify_candidates, localize_scene, match_scene
from a2match.rejection import classify, filter_correspondences
from a2match.synth import SynthConfig, generate_scene

CFG = NetworkConfig(d=8)


def batch_of(n, seed=0):
    """(2D bearings, 3D bearings) of n random candidates."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(-0.5, 0.5, (n, 2))


def test_classify_outputs_finite_logits():
    w = ModelWeights.initialize(CFG, seed=0)
    z = classify(*batch_of(12), w).data
    assert z.shape == (12,)
    assert np.all(np.isfinite(z))
    p = 1.0 / (1.0 + np.exp(-z))
    assert np.all((p > 0) & (p < 1))


def test_classify_empty_batch_raises():
    w = ModelWeights.initialize(CFG, seed=0)
    with pytest.raises(ValueError, match="classifier needs at least one candidate"):
        classify(*batch_of(0), w)


def test_classify_permutation_equivariant_exactly():
    w = ModelWeights.initialize(CFG, seed=1)
    bp, bq = batch_of(17, seed=2)
    p = classify(bp, bq, w).data
    rng = np.random.default_rng(3)
    perm = rng.permutation(17)
    p2 = classify(bp[perm], bq[perm], w).data
    assert np.array_equal(p2, p[perm])


def test_classify_equivariant_bit_exact_with_duplicates_across_blas_tiles():
    # 300 candidates, 60 of them copies of others: duplicates must read the
    # same bits wherever they sit, and 300 rows end on partial BLAS tiles.
    w = ModelWeights.initialize(CFG, seed=2)
    bp, bq = batch_of(300, seed=5)
    dup = np.random.default_rng(6).integers(0, 200, 60)
    for arr in (bp, bq):
        arr[200:260] = arr[dup]
    p = classify(bp, bq, w).data
    assert np.array_equal(p[200:260], p[dup])
    rng = np.random.default_rng(7)
    for _ in range(5):
        perm = rng.permutation(300)
        p2 = classify(bp[perm], bq[perm], w).data
        assert np.array_equal(p2, p[perm])


def test_context_norm_shift_invariance_at_sublayer():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 6))
    out1 = ad.instance_norm(constant(x)).data
    out2 = ad.instance_norm(constant(x + 123.456)).data
    assert np.max(np.abs(out1 - out2)) < 1e-9


def test_classify_gradcheck_through_context_norm():
    w = ModelWeights.initialize(CFG, seed=5).astype(np.float64)
    b = batch_of(8, seed=6)
    target = np.linspace(0.2, 0.8, 8)

    def loss_val():
        p = classify(*b, w)
        diff = ad.sub(p, constant(target))
        return ad.sum_all(ad.mul(diff, diff))

    w.zero_grad()
    with Tape() as tape:
        tape.backward(loss_val())
    rng = np.random.default_rng(7)
    for name in ("clf/proj/W", "clf/res2/lin/W", "clf/proj/b", "clf/head/W"):
        p = w.params[name]
        idx = int(rng.integers(p.data.size))
        orig = p.data.flat[idx]
        h = 1e-6
        p.data.flat[idx] = orig + h
        fp = loss_val().item()
        p.data.flat[idx] = orig - h
        fm = loss_val().item()
        p.data.flat[idx] = orig
        num = (fp - fm) / (2 * h)
        a = p.grad.flat[idx]
        assert abs(a - num) / max(abs(a), abs(num), 1e-8) < 1e-3, name


def test_classify_candidates_reads_per_candidate_bearings():
    # The classifier sees each candidate's rows of the network's inputs:
    # bit for bit the bearings of its own keypoint and point.
    pair = generate_scene(SynthConfig(n_points=15, inlier_fraction=0.6,
                                      pixel_noise_sigma=0.5, seed=10))
    w = ModelWeights.initialize(CFG, seed=3)
    corrs = CorrespondenceSet([(4, 2, 1.0), (0, 11, 1.0), (9, 9, 1.0), (13, 0, 1.0),
                               (4, 7, 1.0)])
    bp = np.array([pixel_bearings(pair.intrinsics, pair.keypoints[i])[0]
                   for i in corrs.indices_2d()])
    bq = np.array([world_bearings(pair.query_pose, pair.points[j])[0][0]
                   for j in corrs.indices_3d()])
    assert np.array_equal(classify_candidates(pair, corrs, w).data, classify(bp, bq, w).data)
    with pytest.raises(ValueError, match="classifier needs at least one candidate"):
        classify_candidates(pair, CorrespondenceSet([]), w)


def make_set(n):
    return CorrespondenceSet([(i, i, 1.0) for i in range(n)])


def test_filter_threshold_extremes():
    init = make_set(6)
    probs = np.linspace(0.1, 0.9, 6)
    assert filter_correspondences(init, probs, 0.0).pairs == init.pairs
    assert filter_correspondences(init, probs, 1.0).pairs == []


def test_filter_monotone_subset_in_threshold():
    rng = np.random.default_rng(11)
    init = make_set(30)
    probs = rng.uniform(0, 1, 30)
    prev = None
    for t in (0.3, 0.5, 0.7):
        kept = {p[:2] for p in filter_correspondences(init, probs, t).pairs}
        assert {p[:2] for p in init.pairs} >= kept
        if prev is not None:
            assert kept <= prev
        prev = kept


def test_filter_validates():
    with pytest.raises(ValueError):
        filter_correspondences(make_set(3), np.ones(3), 1.5)
    with pytest.raises(ValueError):
        filter_correspondences(make_set(3), np.ones(2), 0.5)


@pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
def test_match_scene_rejects_a_bad_threshold_whatever_the_candidates(threshold):
    # A fresh d=32 model finds no candidates on this scene; one whose
    # dustbin score is -20 finds some. Both refuse the threshold up front.
    pair = generate_scene(SynthConfig(n_points=48, seed=1))
    none = ModelWeights.initialize(NetworkConfig(d=32), seed=0)
    some = ModelWeights.initialize(NetworkConfig(d=32), seed=0)
    some.param("ot/alpha_bin").data[...] = -20.0
    assert len(match_scene(pair, none).initial) == 0
    assert len(match_scene(pair, some).initial) > 0
    for w in (none, some):
        for run in (match_scene, localize_scene):
            with pytest.raises(ValueError, match="threshold must lie in"):
                run(pair, w, threshold=threshold)
