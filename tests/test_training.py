import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from a2match import autodiff as ad
from a2match import training
from a2match.autodiff import Tape, Tensor, constant
from a2match.cli import GRADCHECK_TOLERANCE
from a2match.geometry import CorrespondenceSet
from a2match.network import ModelWeights, NetworkConfig, forward
from a2match.pipeline import localize_scene, scene_plan
from a2match.synth import SynthConfig, generate_scene
from a2match.training import (
    AdamState,
    TrainConfig,
    adam_step,
    balance_weights,
    grad_check,
    matching_loss,
    rejection_loss,
    scene_loss,
    train,
)
from a2match.transport import ScoreMatrix, augment_dustbins, mutual_nn, sinkhorn


def plan_of(p):
    """The log plan of plan probabilities p; a 0 becomes -inf."""
    with np.errstate(divide="ignore"):
        return ScoreMatrix(constant(np.log(np.asarray(p, dtype=float))), True)


def test_matching_loss_perfect_plan_is_zero():
    # 2 keypoints, 2 points, gt = {(0,0),(1,1)}: P=1 at both targets.
    p = np.zeros((3, 3))
    p[0, 0] = p[1, 1] = 1.0
    gt = CorrespondenceSet([(0, 0, 1.0), (1, 1, 1.0)])
    loss = matching_loss(plan_of(p), gt)
    assert abs(loss.item()) < 1e-12


def test_matching_loss_e_inverse_cells():
    # every target cell holds exp(-1): loss = -(1/N_m) * N_m * (-1) = 1.
    p = np.zeros((3, 4))
    p[0, 0] = np.exp(-1.0)       # gt pair
    p[1, 3] = np.exp(-1.0)       # unmatched query -> dustbin column
    p[2, 1] = p[2, 2] = np.exp(-1.0)  # unmatched db -> dustbin row
    gt = CorrespondenceSet([(0, 0, 1.0)])
    loss = matching_loss(plan_of(p), gt)
    assert abs(loss.item() - 1.0) < 1e-12


def test_matching_loss_all_dustbins_zero():
    p = np.zeros((3, 3))
    p[0, 2] = p[1, 2] = 1.0
    p[2, 0] = p[2, 1] = 1.0
    loss = matching_loss(plan_of(p), CorrespondenceSet([]))
    assert abs(loss.item()) < 1e-12


def test_matching_loss_bounds_check():
    with pytest.raises(ValueError, match=r"ground-truth pair \(5,0\) out of bounds"):
        matching_loss(plan_of(np.zeros((3, 3))), CorrespondenceSet([(5, 0, 1.0)]))
    with pytest.raises(ValueError, match="log plan"):
        matching_loss(ScoreMatrix(constant(np.ones((3, 3))), False), CorrespondenceSet([]))


def test_matching_loss_cells_match_per_point_oracle():
    # Oracle: the target cells collected point by point; gt reuses row 4
    # and column 2, so each must count as matched once.
    rng = np.random.default_rng(8)
    m, n = 9, 7
    p = rng.uniform(0.01, 1.0, (m + 1, n + 1))
    gt = CorrespondenceSet([(4, 2, 1.0), (0, 6, 1.0), (4, 5, 1.0), (7, 2, 1.0)])
    rows = [i for i, _, _ in gt] + [i for i in range(m) if i not in {0, 4, 7}] + \
        [m] * (n - 3)
    cols = [j for _, j, _ in gt] + [n] * (m - 3) + [j for j in range(n) if j not in {2, 5, 6}]
    loss = matching_loss(plan_of(p), gt)
    np.testing.assert_allclose(loss.item(), -np.log(p[rows, cols]).mean(), rtol=1e-14)
    with pytest.raises(ValueError, match=r"ground-truth pair \(9,1\) out of bounds"):
        matching_loss(plan_of(p), CorrespondenceSet([(1, 1, 1.0), (9, 1, 1.0), (0, 7, 1.0)]))


def test_matching_loss_monotone_when_mass_moves_to_target():
    # 2x2 witness: moving mass from a wrong cell to the gt cell lowers loss.
    gt = CorrespondenceSet([(0, 0, 1.0)])
    lo = np.full((2, 2), 0.25)
    hi = lo.copy()
    hi[0, 0], hi[0, 1] = 0.4, 0.1
    l_lo = matching_loss(plan_of(lo), gt).item()
    l_hi = matching_loss(plan_of(hi), gt).item()
    assert l_hi < l_lo


def test_rejection_loss_examples():
    # Logits of +-35 are probabilities 1 - 6e-16 and 6e-16.
    z = constant(np.array([35.0, -35.0]))
    loss = rejection_loss(z, [1.0, 0.0], [1.0, 1.0])
    assert loss.item() < 1e-10

    single = rejection_loss(constant(np.array([0.0])), [1.0], [1.0])
    assert abs(single.item() - np.log(2.0)) < 1e-12


def test_rejection_loss_all_positive_labels_only_positive_term():
    p = np.array([0.3, 0.8])
    labels = [1.0, 1.0]
    loss = rejection_loss(constant(np.log(p / (1.0 - p))), labels, [1.0, 1.0])
    expect = -np.mean(np.log(p))
    assert abs(loss.item() - expect) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rejection_loss_keeps_the_gradient_of_a_confident_wrong_logit(dtype):
    # A label-0 candidate at logit 17: its float32 probability rounds to 1,
    # so a loss taken from 1 - p has no gradient. From the logit the loss is
    # 17 and the gradient 1.
    z = Tensor(np.array([17.0], dtype=dtype), requires_grad=True)
    with Tape() as tape:
        loss = rejection_loss(z, [0.0], [1.0])
        tape.backward(loss)
    assert loss.item() == pytest.approx(17.0, rel=1e-7)
    assert z.grad.dtype == dtype and float(z.grad[0]) == pytest.approx(1.0, rel=1e-7)


def test_matching_loss_gradient_reaches_a_cell_of_negligible_mass():
    # GT cell (0, 1) costs 40 against 0 and 10 elsewhere, so the plan gives
    # it about e^-40 of mass, far below 1e-12; its loss term is -log P01 / 3
    # and P01 barely moves the plan, so d loss / d cost[0, 1] is 1/3.
    cost = 10.0 * (1.0 - np.eye(3))
    cost[0, 1] = 40.0
    gt = CorrespondenceSet([(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)])
    c = Tensor(cost, requires_grad=True)

    def loss_val():
        return matching_loss(sinkhorn(augment_dustbins(c, constant(np.array(-5.0)))), gt)

    with Tape() as tape:
        tape.backward(loss_val())
    h = 1e-5
    c.data[0, 1] = 40.0 + h
    f_plus = loss_val().item()
    c.data[0, 1] = 40.0 - h
    f_minus = loss_val().item()
    numeric = (f_plus - f_minus) / (2 * h)
    assert c.grad[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert numeric == pytest.approx(c.grad[0, 1], rel=1e-6)


def test_rejection_loss_validates_lengths():
    with pytest.raises(ValueError, match="3 logits, 2 labels, 3 weights"):
        rejection_loss(constant(np.ones(3) * 0.5), [1.0, 0.0], [1.0, 1.0, 1.0])


def test_balance_weights_inverse_frequency():
    w = balance_weights([1, 1, 1, 0])
    assert np.allclose(w[:3], 4 / (2 * 3))
    assert np.allclose(w[3], 4 / (2 * 1))
    w_all = balance_weights([1, 1])
    assert np.allclose(w_all, [0.5, 0.5])  # n/(2*n_pos) with n_pos = n
    assert np.all(balance_weights(np.r_[np.ones(100), np.zeros(1)]) <= 10.0)


def test_adam_zero_gradient_keeps_weights():
    cfg = NetworkConfig(d=8)
    w = ModelWeights.initialize(cfg, seed=0)
    before = {k: p.data.copy() for k, p in w.params.items()}
    state = AdamState.for_weights(w)
    w.zero_grad()
    adam_step(w, state, TrainConfig())
    for k, p in w.params.items():
        assert np.array_equal(p.data, before[k])


def test_adam_first_step_closed_form():
    # bias-corrected first step: delta = lr * g / (|g| + eps) ~ lr * sign(g)
    cfg = NetworkConfig(d=8)
    w = ModelWeights.initialize(cfg, seed=1).astype(np.float64)
    name = "clf/head/b"
    g = np.array([0.37])
    before = w.param(name).data.copy()
    w.zero_grad()
    w.param(name).grad = g
    tc = TrainConfig(learning_rate=0.01)
    adam_step(w, AdamState.for_weights(w), tc)
    got = w.param(name).data - before
    expect = -tc.learning_rate * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_adam_two_runs_bit_identical():
    cfg = NetworkConfig(d=8)
    rng = np.random.default_rng(2)
    grads_seq = [
        {k: rng.standard_normal(p.data.shape) for k, p in
         ModelWeights.initialize(cfg, seed=3).params.items()}
        for _ in range(3)
    ]

    def run():
        w = ModelWeights.initialize(cfg, seed=3)
        state = AdamState.for_weights(w)
        for g in grads_seq:
            _set_grads(w, g)
            adam_step(w, state, TrainConfig())
        return {k: p.data.copy() for k, p in w.params.items()}

    r1, r2 = run(), run()
    for k in r1:
        assert np.array_equal(r1[k], r2[k])


def _set_grads(weights, grads):
    for name, p in weights.params.items():
        p.grad = grads[name]


def _adam_step_expression(weights, state, cfg):
    """adam_step written as whole-array expressions, a fresh array per step:
    the oracle of the in-place update."""
    state.t += 1
    t = state.t
    for name, p in weights.params.items():
        g, m, v = p.grad, state.m[name], state.v[name]
        m[...] = 0.9 * m + (1.0 - 0.9) * g
        v[...] = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def test_adam_step_has_the_bits_of_the_expression():
    # Three steps on d=8 weights, including the 0-d ot/alpha_bin, whose
    # gradient arrives as a numpy scalar (a 0-d grad times 1 / batch size).
    # Gradients hold zeros of both signs, subnormals and huge values.
    cfg = NetworkConfig(d=8)
    tc = TrainConfig(learning_rate=0.003)
    rng = np.random.default_rng(12)
    shapes = {k: p.data.shape for k, p in ModelWeights.initialize(cfg, seed=4).params.items()}
    assert shapes["ot/alpha_bin"] == ()
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.5])
    steps = []
    for _ in range(3):
        grads = {k: rng.standard_normal(sh) * 10.0 ** rng.integers(-8, 3) for k, sh in shapes.items()}
        for k, sh in shapes.items():
            if len(sh) == 2:
                grads[k][0] = rng.choice(special, sh[1:])
        grads["ot/alpha_bin"] = np.float64(0.25) * np.float64(rng.standard_normal())
        steps.append(grads)

    def run(step):
        w = ModelWeights.initialize(cfg, seed=4).astype(np.float64)
        state = AdamState.for_weights(w)
        for grads in steps:
            _set_grads(w, grads)
            step(w, state, tc)
        return [p.data for p in w.params.values()] + list(state.m.values()) + \
            list(state.v.values())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # (1e300)^2 overflows
        got, ref = run(adam_step), run(_adam_step_expression)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def small_scene(seed=0):
    return generate_scene(SynthConfig(n_points=12, inlier_fraction=0.75,
                                      pixel_noise_sigma=0.5, seed=seed))


def small_net():
    return NetworkConfig(d=8, k=6, g=3)


@pytest.mark.parametrize("d", [8, 16])
def test_every_parameter_moves_the_loss(d):
    # No parameter exists that the outputs do not depend on: a bias before
    # an instance norm cancels in it and gets only round-off. One taped
    # scene step, with frozen candidates so that the classifier trains.
    cfg = NetworkConfig(d=d)
    w = ModelWeights.initialize(cfg, seed=d)
    pair = generate_scene(SynthConfig(n_points=24, inlier_fraction=0.75,
                                      pixel_noise_sigma=0.5, seed=d))
    w.zero_grad()
    with Tape() as tape:
        loss, _, _ = scene_loss(pair, w, frozen_candidates=training._fixed_candidates(pair))
        tape.backward(loss)
    peak = {name: np.abs(w.param(name).grad).max() for name, _ in ModelWeights.layout(cfg)}
    largest = max(peak.values())
    dead = [name for name, g in peak.items() if not g > 1e-10 * largest]
    assert not dead, f"{len(dead)} parameters the loss does not depend on: {dead}"


def test_grad_check_fresh_model_passes():
    cfg = small_net()
    w = ModelWeights.initialize(cfg, seed=0)
    report = grad_check(small_scene(), w, sample=24, seed=0)
    # Each module's worst error is measured, not floored to 0.
    assert 0.0 < min(report.per_module.values())
    assert report.max_rel_error < GRADCHECK_TOLERANCE
    assert len(report.entries) >= 24
    assert {"enc", "clf", "ot"} <= set(report.per_module)


def test_grad_check_detects_corrupted_backward(corrupted_matmul_backward):
    cfg = small_net()
    w = ModelWeights.initialize(cfg, seed=0)
    report = grad_check(small_scene(), w, sample=24, seed=0)
    assert report.max_rel_error > 1e-1


def test_grad_check_linear_toy_network_tight():
    # loss = sum(x W): d/dW is exact up to FD truncation.
    rng = np.random.default_rng(4)
    x = constant(rng.standard_normal((6, 5)))
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.matmul(x, w)))
    analytic = w.grad.copy()
    h = 1e-5
    for idx in range(w.data.size):
        orig = w.data.flat[idx]
        w.data.flat[idx] = orig + h
        fp = ad.sum_all(ad.matmul(x, w)).item()
        w.data.flat[idx] = orig - h
        fm = ad.sum_all(ad.matmul(x, w)).item()
        w.data.flat[idx] = orig
        num = (fp - fm) / (2 * h)
        assert abs(num - analytic.flat[idx]) / max(abs(num), 1e-8) < 1e-8


def test_train_zero_learning_rate_keeps_weights():
    scenes = [small_scene(i) for i in range(3)]
    cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=2, seed=0)
    w, reports, _ = train(scenes, cfg, small_net())
    w_ref = ModelWeights.initialize(small_net(), seed=0)
    for k in w.params:
        assert np.array_equal(w.params[k].data, w_ref.params[k].data)
    assert len(reports) == 2


def test_train_bit_reproducible():
    scenes = [small_scene(10 + i) for i in range(4)]
    cfg = TrainConfig(epochs=2, batch_size=2, seed=7)

    def run():
        w, reports, _ = train(scenes, cfg, small_net())
        return ({k: p.data.copy() for k, p in w.params.items()},
                [(r.matching_loss, r.rejection_loss, r.total) for r in reports])

    (w1, r1), (w2, r2) = run(), run()
    assert r1 == r2
    for k in w1:
        assert np.array_equal(w1[k], w2[k])


def test_train_weights_and_reports_pinned():
    # SHA-256 of the trained weights and the exact epoch reports of a seeded
    # short run at the network's real annular width (k=9, g=3: windows of
    # 3). A dustbin score of -10 makes mutual NN find candidates, so the
    # classifier and its loss train too. Any backward or optimizer change
    # that moves one bit of a gradient changes them. Taken on x86-64
    # (AVX-512) with numpy 2.4 and its OpenBLAS 0.3.31; a build with other
    # BLAS or exp/log kernels may differ.
    scenes = [generate_scene(SynthConfig(n_points=32, seed=900 + i)) for i in range(3)]
    w = ModelWeights.initialize(NetworkConfig(d=8, k=9, g=3), seed=11)
    w.param("ot/alpha_bin").data[...] = -10.0
    w, reports, _ = train(scenes, TrainConfig(learning_rate=0.01, epochs=2, batch_size=2,
                                              seed=11), weights=w)
    h = hashlib.sha256()
    for name in sorted(w.params):
        h.update(name.encode())
        h.update(w.params[name].data.tobytes())
    assert h.hexdigest() == "d1abf1d81799691bafeca6757c08c0373b19b78016fc98fab21f86e131e5bb13"
    assert [(r.matching_loss.hex(), r.rejection_loss.hex(), r.total.hex(), r.n_matching,
             r.n_candidates) for r in reports] == [
        ("0x1.cb65585ec5528p+1", "0x1.8f800672747c9p+0", "0x1.4992adcbffc86p+2", 126, 57),
        ("0x1.756dd9f57c819p+1", "0x1.6365de2222223p+0", "0x1.1390648346c95p+2", 126, 36),
    ]


def test_train_reduces_loss_on_tiny_problem():
    scenes = [small_scene(20 + i) for i in range(6)]
    cfg = TrainConfig(epochs=5, batch_size=3, seed=1)
    _, reports, _ = train(scenes, cfg, small_net())
    assert reports[-1].total < reports[0].total


def test_loss_leaves_the_next_forward_unchanged():
    # Training and inference run one network with per-scene normalisation:
    # neither a loss evaluation nor a zero-rate epoch leaves state that a
    # later forward reads.
    w = ModelWeights.initialize(small_net(), seed=2)
    pair = small_scene(40)
    before = forward(pair, w)
    scene_loss(pair, w)
    after_loss = forward(pair, w)
    train([pair, small_scene(41)], TrainConfig(learning_rate=0.0, epochs=1, batch_size=2),
          weights=w)
    after_epoch = forward(pair, w)
    for f, g, h in zip(before, after_loss, after_epoch):
        assert np.array_equal(f.data, g.data)
        assert np.array_equal(f.data, h.data)


def test_scene_loss_is_finite_and_nonnegative():
    w = ModelWeights.initialize(small_net(), seed=5)
    with Tape() as tape:
        loss, report, _ = scene_loss(small_scene(30), w)
        tape.backward(loss)
    assert np.isfinite(loss.item())
    assert report.matching_loss >= 0.0
    assert report.rejection_loss >= 0.0


@pytest.mark.parametrize("fixed,records", [(False, 230), (True, 261)])
def test_scene_step_tape_records_pinned(fixed, records):
    # Most of a small step's time is a fixed cost per taped op, so an op
    # added to every step shows here. A fresh d=32 model finds no mutual-NN
    # candidates on this scene; the fixed candidates add 31 records, the
    # classifier's and its loss's. The counts were 241 and 279 while each of the 8 angle
    # calls reshaped covariance_norm's output (8 records) and the total
    # scaled the matching and rejection losses by weights of 1.0 (1 and 2
    # records), then 232 and 269 while the matching loss clamped and took
    # the log of plan probabilities (2 records) and the rejection loss did
    # so to sigmoid probabilities (12 records from the logit on, now 6).
    w = ModelWeights.initialize(NetworkConfig(d=32), seed=0)
    pair = generate_scene(SynthConfig(n_points=48, seed=1))
    frozen = training._fixed_candidates(pair) if fixed else None
    with Tape() as tape:
        loss, report, _ = scene_loss(pair, w, frozen_candidates=frozen)
        tape.backward(loss)
    assert report.n_candidates == (12 if fixed else 0)
    assert len(tape) == records


def test_scene_step_dtypes():
    # The step of test_scene_step_tape_records_pinned with its candidates:
    # the network body (encoder through cross-attention) and the classifier
    # compute in the weights' float32; pairwise_l2 widens the features, so
    # the cost, the plan and the losses are float64. Records are told apart
    # by the op that made them: the body ends before the cost, the matching
    # loss ends with a scale, and the classifier ends by gathering its
    # logits back into candidate order. The rejection loss takes the softplus
    # of those float32 logits before it widens; the total is float64.
    w = ModelWeights.initialize(NetworkConfig(d=32), seed=0)
    pair = generate_scene(SynthConfig(n_points=48, seed=1))
    w.zero_grad()
    with Tape() as tape:
        loss, _, _ = scene_loss(pair, w, frozen_candidates=training._fixed_candidates(pair))
        tape.backward(loss)
    records = [(bw.__qualname__.split(".")[0], out) for out, bw in tape._records]
    ops = [op for op, _ in records]
    cost = ops.index("pairwise_l2")
    clf = ops.index("scale", cost) + 1
    clf_end = len(ops) - ops[::-1].index("gather_rows")
    assert 0 < cost < clf < clf_end < len(ops)

    def dtypes(part):
        return {(out.data.dtype.name, out.grad.dtype.name) for _, out in part}

    assert dtypes(records[:cost]) == dtypes(records[clf:clf_end]) == {("float32", "float32")}
    assert dtypes(records[cost:clf]) == dtypes(records[-1:]) == {("float64", "float64")}
    assert loss.data.dtype == np.float64
    assert {p.grad.dtype for p in w.params.values()} == {np.dtype(np.float32)}


def test_scene_step_peak_memory_n256():
    # One n=256, d=128 scene step, forward and backward. Layers that build
    # the (n*k, 2d) edge windows and multiply them peaked at 828 MiB; the
    # neighbor-linear layers peaked at about 390 MiB, later 284 MiB. With
    # the max path's edges and each norm's normalized input and activation
    # recomputed in the backward rather than kept on the tape, the peak was
    # 189.5 MiB; with the sorted scatter-add and instance_norm's backward in
    # three buffers it was 188.8 MiB (the peak lies outside those backwards),
    # and 168 MiB once parameters held no gradient until zero_grad. With a
    # float32 network body it is 87.3 MiB.
    w = ModelWeights.initialize(NetworkConfig(d=128), seed=0)
    pair = generate_scene(SynthConfig(n_points=256, seed=256))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss, _, _ = scene_loss(pair, w)
            tape.backward(loss)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 109


def test_training_from_fresh_weights_yields_a_matcher():
    # A short seeded run: d=32, 24 new n=48 scenes per epoch for 20 epochs,
    # Adam restarting each epoch. Held out, mutual NN then finds most GT
    # pairs and few wrong ones (197 found, 196 right when measured), and the
    # full pipeline localizes. The task still leaks the GT pose into the
    # network's inputs (`network.scene_inputs`), so this shows that training
    # works, not how well the matcher generalizes.
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=1, seed=0)
    w = None
    for epoch in range(20):
        scenes = [generate_scene(SynthConfig(n_points=48, seed=24 * epoch + i))
                  for i in range(24)]
        w, _, _ = train(scenes, cfg, NetworkConfig(d=32), weights=w)
    held_out = [generate_scene(SynthConfig(n_points=48, seed=50000 + i)) for i in range(8)]
    found = correct = truth = 0
    for pair in held_out:
        got = mutual_nn(scene_plan(pair, w)).pair_set()
        found += len(got)
        correct += len(got & pair.gt_matches.pair_set())
        truth += len(pair.gt_matches)
    assert correct >= 0.8 * found and correct >= 0.3 * truth
    result = localize_scene(held_out[0], w)
    assert not result.failed and result.rotation_error_deg < 1.0
