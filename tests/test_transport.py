import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from a2match import autodiff as ad
from a2match import transport
from a2match.autodiff import Tape, Tensor, constant
from a2match.transport import (
    SINKHORN_ITERS,
    SINKHORN_TOL,
    ScoreMatrix,
    _masses,
    augment_dustbins,
    cost_matrix,
    marginal_residuals,
    mutual_nn,
    sinkhorn,
)


def _lse(x, axis):
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(x - m).sum(axis=axis))


def sinkhorn_residual_trajectory(scores: np.ndarray, iters: int):
    """Max marginal residual after each full iteration."""
    m1, n1 = scores.shape
    log_a, log_b = map(np.log, _masses(m1 - 1, n1 - 1))
    u = np.zeros(m1)
    v = np.zeros(n1)
    out = []
    for _ in range(iters):
        u = log_a - _lse(scores + v[None, :], axis=1)
        v = log_b - _lse(scores + u[:, None], axis=0)
        p = np.exp(scores + u[:, None] + v[None, :])
        row = np.abs(p.sum(axis=1) - np.exp(log_a)).max()
        col = np.abs(p.sum(axis=0) - np.exp(log_b)).max()
        out.append(max(float(row), float(col)))
    return out


def _taped_logsumexp(a, axis):
    """Log-sum-exp as a taped op with its own backward rule."""
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis)

    def bw(g):
        if a.requires_grad:
            soft = e / np.expand_dims(s, axis)
            ad._accum(a, np.expand_dims(g, axis) * soft)

    return ad._make(np.squeeze(m, axis) + np.log(s), (a,), bw)


def taped_sinkhorn(s: ScoreMatrix, iters: int) -> ScoreMatrix:
    """Oracle: the Sinkhorn loop unrolled on the tape, one record per op."""
    scores = s.values
    m1, n1 = scores.shape
    log_a, log_b = map(np.log, _masses(m1 - 1, n1 - 1))
    la, lb = constant(log_a), constant(log_b)
    u = constant(np.zeros(m1))
    v = constant(np.zeros(n1))
    for _ in range(iters):
        u = ad.sub(la, _taped_logsumexp(ad.add(scores, v), axis=1))
        v = ad.sub(lb, _taped_logsumexp(ad.add(scores, ad.reshape(u, (m1, 1))), axis=0))
    return ScoreMatrix(ad.add(ad.add(scores, ad.reshape(u, (m1, 1))), v), log_domain=True)


def test_cost_matrix_examples():
    assert cost_matrix(constant([[1.0, 2.0]]), constant([[1.0, 2.0]])).data[0, 0] == 0.0
    out = cost_matrix(constant([[0.0, 0.0]]), constant([[3.0, 4.0]]))
    assert out.data[0, 0] == 5.0  # Pythagorean oracle


def test_cost_matrix_transpose_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((7, 6))
    ab = cost_matrix(constant(a), constant(b)).data
    ba = cost_matrix(constant(b), constant(a)).data
    assert np.array_equal(ab, ba.T)
    with pytest.raises(ValueError, match="pairwise_l2 shapes"):
        cost_matrix(constant(np.zeros((3, 4))), constant(np.zeros((3, 5))))


def test_augment_dustbins_structure():
    out = augment_dustbins(constant([[2.5]]), constant(np.array(0.75)))
    assert out.values.shape == (2, 2)
    assert out.values.data[0, 0] == -2.5
    assert out.values.data[0, 1] == out.values.data[1, 0] == out.values.data[1, 1] == 0.75
    rng = np.random.default_rng(1)
    c = rng.random((3, 5))
    big = augment_dustbins(constant(c), constant(np.array(1.0)))
    assert np.array_equal(big.values.data[:3, :5], -c)


def test_alpha_bin_receives_gradient():
    rng = np.random.default_rng(2)
    cost = rng.random((3, 4))
    alpha = Tensor(np.array(0.5), requires_grad=True)

    def loss_val():
        plan = sinkhorn(augment_dustbins(constant(cost), alpha), 30)
        return ad.sum_all(ad.mul(plan.values, plan.values))

    with Tape() as tape:
        tape.backward(loss_val())
    a = float(alpha.grad)
    h = 1e-6
    alpha.data = np.array(0.5 + h)
    fp = loss_val().item()
    alpha.data = np.array(0.5 - h)
    fm = loss_val().item()
    alpha.data = np.array(0.5)
    num = (fp - fm) / (2 * h)
    assert abs(a) > 1e-6
    assert abs(a - num) / max(abs(a), abs(num)) < 1e-3


def test_sinkhorn_marginals_on_random_scores():
    rng = np.random.default_rng(3)
    plan = sinkhorn(ScoreMatrix(constant(rng.standard_normal((9, 12))), True), 100)
    row, col = marginal_residuals(plan)
    assert row < 1e-6 and col < 1e-6
    p = np.exp(plan.values.data)
    # row marginal oracle: each real row sums to 1, dustbin row to N
    assert np.max(np.abs(p[:8].sum(axis=1) - 1.0)) < 1e-6
    assert abs(p[8].sum() - 11.0) < 1e-6
    assert np.max(np.abs(p[:, :11].sum(axis=0) - 1.0)) < 1e-6
    assert abs(p[:, 11].sum() - 8.0) < 1e-6


def test_sinkhorn_uniform_scores_uniform_plan():
    plan = sinkhorn(ScoreMatrix(constant(np.zeros((5, 7))), True), 100).values.data
    main = plan[:4, :6]
    assert np.max(np.abs(main - main[0, 0])) < 1e-12
    assert np.max(np.abs(plan[4, :6] - plan[4, 0])) < 1e-12
    assert np.max(np.abs(plan[:4, 6] - plan[0, 6])) < 1e-12


def test_sinkhorn_shift_invariance():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((6, 9))
    p1 = sinkhorn(ScoreMatrix(constant(s), True), 100).values.data
    p2 = sinkhorn(ScoreMatrix(constant(s + 37.5), True), 100).values.data
    assert np.max(np.abs(p1 - p2)) < 1e-9


def test_sinkhorn_residuals_non_increasing():
    rng = np.random.default_rng(5)
    for trial in range(10):
        traj = sinkhorn_residual_trajectory(rng.standard_normal((8, 11)), 60)
        diffs = np.diff(traj)
        assert np.all(diffs <= 1e-12), f"trial {trial} not monotone"


def test_sinkhorn_near_permutation_matches_hungarian():
    for trial in range(100):
        rng = np.random.default_rng(100 + trial)
        base = rng.uniform(0.0, 1.0, (4, 4))
        perm = rng.permutation(4)
        for i, j in enumerate(perm):
            base[i, j] += 8.0
        plan = sinkhorn(augment_dustbins(constant(-base), constant(np.array(-12.0))), 100)
        main = np.exp(plan.values.data[:4, :4])
        got = {(i, j) for i, j, _ in mutual_nn(plan)}
        ri, ci = linear_sum_assignment(-base)
        assert got == set(zip(ri.tolist(), ci.tolist()))
        assert np.all(main[ri, ci] > 0.99)


def test_sinkhorn_validates_inputs():
    with pytest.raises(ValueError):
        sinkhorn(ScoreMatrix(constant(np.zeros((3, 3))), True), 0)
    with pytest.raises(ValueError):
        sinkhorn(ScoreMatrix(constant(np.ones((3, 3))), False), 5)


def test_mutual_nn_identity_dominant():
    p = np.full((4, 4), 0.01)
    p[0, 0] = p[1, 1] = p[2, 2] = 0.9
    p[3, :] = 0.02  # dustbin row
    p[:, 3] = 0.02
    plan = ScoreMatrix(constant(p), False)
    assert [(i, j) for i, j, _ in mutual_nn(plan)] == [(0, 0), (1, 1), (2, 2)]


def test_mutual_nn_requires_mutual_argmax():
    p = np.array([
        [0.8, 0.15, 0.01],
        [0.7, 0.10, 0.01],   # row 1 argmax col 0, but col 0 argmax is row 0
        [0.01, 0.01, 0.5],
    ])
    plan = ScoreMatrix(constant(p), False)
    pairs = [(i, j) for i, j, _ in mutual_nn(plan)]
    assert (1, 0) not in pairs
    assert (0, 0) in pairs


def test_mutual_nn_dustbin_dominance_excludes():
    p = np.array([
        [0.3, 0.01, 0.5],   # row dustbin beats the best main cell
        [0.01, 0.4, 0.1],
        [0.2, 0.01, 0.0],
    ])
    plan = ScoreMatrix(constant(p), False)
    pairs = [(i, j) for i, j, _ in mutual_nn(plan)]
    assert (0, 0) not in pairs
    assert (1, 1) in pairs


def test_mutual_nn_matches_bruteforce_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(25):
        p = rng.random((7, 10))
        plan = ScoreMatrix(constant(p), False)
        got = {(i, j) for i, j, _ in mutual_nn(plan)}
        m, n = 6, 9
        want = set()
        for i in range(m):
            for j in range(n):
                v = p[i, j]
                row_ok = all(p[i, jj] <= v for jj in range(n)) and v > p[i, n]
                col_ok = all(p[ii, j] <= v for ii in range(m)) and v > p[m, j]
                if row_ok and col_ok and p[i, :n].argmax() == j and p[:m, j].argmax() == i:
                    want.add((i, j))
        assert got == want


def test_mutual_nn_one_to_one_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.random((9, 6))
        pairs = mutual_nn(ScoreMatrix(constant(p), False)).pairs
        ids_i = [i for i, _, _ in pairs]
        ids_j = [j for _, j, _ in pairs]
        assert len(ids_i) == len(set(ids_i))
        assert len(ids_j) == len(set(ids_j))


def test_sinkhorn_gradcheck_through_iterations():
    rng = np.random.default_rng(8)
    scores = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    target = rng.random((5, 6))

    def loss_val():
        plan = sinkhorn(ScoreMatrix(scores, True), 40)
        diff = ad.sub(plan.values, constant(target))
        return ad.sum_all(ad.mul(diff, diff))

    with Tape() as tape:
        tape.backward(loss_val())
    g = scores.grad.copy()
    rng2 = np.random.default_rng(9)
    for _ in range(6):
        idx = int(rng2.integers(scores.data.size))
        orig = scores.data.flat[idx]
        h = 1e-6
        scores.data.flat[idx] = orig + h
        fp = loss_val().item()
        scores.data.flat[idx] = orig - h
        fm = loss_val().item()
        scores.data.flat[idx] = orig
        num = (fp - fm) / (2 * h)
        a = g.flat[idx]
        assert abs(a - num) / max(abs(a), abs(num), 1e-8) < 1e-3


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def taped_scaling_sinkhorn(s: ScoreMatrix, iters: int) -> ScoreMatrix:
    """Oracle: the scaling loop on its first kernel K = exp(x - row max), never
    formed again, taped as one op whose backward sums the rank-one terms of
    every iteration with one product."""
    scores = s.values
    x = scores.data
    m1, n1 = x.shape
    a, b = _masses(m1 - 1, n1 - 1)
    row_max = x.max(axis=1, keepdims=True)
    kernel = np.exp(x - row_max)
    p, q = np.empty((iters, m1)), np.empty((iters, n1))
    beta = np.ones(n1)
    for t in range(iters):
        p[t] = 1.0 / (kernel @ beta)
        q[t] = 1.0 / ((a * p[t]) @ kernel)
        beta = b * q[t]
    log_plan = np.subtract(x, (row_max.ravel() - np.log(a * p[-1])).reshape(m1, 1))
    log_plan -= 0.0 - np.log(beta)

    def bw(g):
        gs = g
        gu, gv = gs.sum(axis=1), gs.sum(axis=0)
        left, right = np.empty((m1, 2 * iters)), np.empty((2 * iters, n1))
        for t in range(iters - 1, -1, -1):
            alpha = a * p[t]
            beta = b * q[t - 1] if t > 0 else 1.0
            w = q[t] * gv
            du = alpha * (kernel @ w)
            gu = gu - du if t == iters - 1 else -du
            c = p[t] * gu
            left[:, 2 * t], right[2 * t] = alpha, w
            left[:, 2 * t + 1], right[2 * t + 1] = c, beta
            if t > 0:
                gv = -beta * (c @ kernel)
        ad._accum(scores, gs - kernel * (left @ right))

    return ScoreMatrix(ad._make(log_plan, (scores,), bw), log_domain=True)


def _plan_and_grads(op, cost, iters, loss_kind, weights, alpha_bin=0.3):
    c = Tensor(cost, requires_grad=True)
    alpha = Tensor(np.array(alpha_bin), requires_grad=True)
    with Tape() as tape:
        scores = augment_dustbins(c, alpha)
        plan = op(scores, iters)
        if loss_kind == "dustbins":
            # Every cell weighted, dustbin row and column included.
            loss = ad.sum_all(ad.mul(plan.values, constant(weights)))
        else:
            loss = ad.sum_all(ad.mul(c, c))
        tape.backward(loss)
    return plan, scores.values.grad, alpha.grad


def _score_range(cost, alpha_bin=0.3):
    x = augment_dustbins(constant(cost), constant(np.array(alpha_bin))).values.data
    return x.max() - x.min()


def _inputs(shape, iters):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + iters)
    return rng.random(shape) * 4.0, rng.standard_normal((shape[0] + 1, shape[1] + 1))


@pytest.mark.parametrize("iters", [1, 100, None])
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 33)])
@pytest.mark.parametrize("loss_kind", ["dustbins", "plan_free"])
def test_sinkhorn_op_matches_taped_loop_bitwise(shape, iters, loss_kind):
    # Scores that keep their first kernel get the bits of the single-kernel
    # loop, as the pinned plans and training runs do. A plan that stopped at
    # its tolerance (iters None) gets those of the loop run for the count it
    # reports.
    cost, weights = _inputs(shape, iters or 0)
    plan, g_scores, g_alpha = _plan_and_grads(sinkhorn, cost, iters, loss_kind, weights)
    ran = plan.iterations
    assert ran == iters if iters else 1 < ran < SINKHORN_ITERS
    ref_plan, ref_scores, ref_alpha = _plan_and_grads(taped_scaling_sinkhorn, cost, ran,
                                                      loss_kind, weights)
    assert np.array_equal(_bits(plan.values.data), _bits(ref_plan.values.data))
    if loss_kind == "dustbins":
        assert np.array_equal(_bits(g_alpha), _bits(ref_alpha))
        assert np.array_equal(_bits(g_scores), _bits(ref_scores))
        assert np.any(g_scores[-1] != 0.0) and np.any(g_scores[:, -1] != 0.0)
    else:
        assert plan.values.grad is None and ref_plan.values.grad is None
        assert g_scores is None and ref_scores is None
        assert g_alpha is None and ref_alpha is None


def _assert_matches_taped_loop(cost, iters, loss_kind, weights, alpha_bin=0.3, tol=1e-12):
    """Exponentiated plan and gradients within tol of the largest plan entry
    and of the largest addend |g| of the score gradient, g being the log
    plan's gradient: the gradients of contested cells and of alpha_bin
    cancel to far below either. The taped loop runs the count the op
    reports, which is iters unless iters is None."""
    plan, g_scores, g_alpha = _plan_and_grads(sinkhorn, cost, iters, loss_kind, weights,
                                              alpha_bin)
    assert iters in (None, plan.iterations)
    ref_plan, ref_scores, ref_alpha = _plan_and_grads(taped_sinkhorn, cost, plan.iterations,
                                                      loss_kind, weights, alpha_bin)
    p, ref_p = np.exp(plan.values.data), np.exp(ref_plan.values.data)
    assert np.abs(p - ref_p).max() <= tol * ref_p.max()
    if loss_kind == "dustbins":
        addend = np.abs(weights).max()
        assert np.abs(g_scores - ref_scores).max() <= tol * addend
        assert abs(g_alpha - ref_alpha) <= tol * addend
    else:
        assert g_scores is None and ref_scores is None
        assert g_alpha is None and ref_alpha is None


@pytest.mark.parametrize("iters", [1, 3, 100, None])
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 33)])
@pytest.mark.parametrize("loss_kind", ["dustbins", "plan_free"])
def test_sinkhorn_scaling_path_matches_taped_loop(shape, iters, loss_kind):
    # Each input at its own few nats, then stretched to 600 nats.
    for span in (None, 600.0):
        cost, weights = _inputs(shape, iters or 0)
        if span is not None:
            cost *= span / cost.max()
            assert _score_range(cost) > span
        _assert_matches_taped_loop(cost, iters, loss_kind, weights)


def test_sinkhorn_contested_column_matches_taped_loop():
    # Every row's best entry is in column 3; the other entries and the
    # dustbins sit span / 2 to span nats below it, so the scalings spread
    # over the whole range and, from 1400 nats, the column's gradient
    # decays to far below the largest addend.
    for span in (299.9, 1400.0, 5000.0):
        rng = np.random.default_rng(14)
        m, n = 30, 25
        cost = span * (0.5 + 0.5 * rng.random((m, n)))
        cost[:, 3] = rng.random(m)
        weights = rng.standard_normal((m + 1, n + 1))
        assert 0.99 * span < _score_range(cost, -span / 2) <= span
        for iters in (1, 3, 100, None):
            _assert_matches_taped_loop(cost, iters, "dustbins", weights, -span / 2)


@pytest.mark.parametrize("span", [600.0, 5000.0])
def test_sinkhorn_stops_on_absorption_path_with_fixed_count_bits(span, monkeypatch):
    # Column offsets spread over `span` nats leave the plan that of the
    # few-nat scores z, since a column's scaling absorbs its offset, but
    # they put most columns' kernel entries below e^-330, so the loop forms
    # new kernels. It still stops after a few iterations, and its plan and
    # gradients are those of the run given that count, bit for bit, and
    # those of the taped log-domain loop at that count to round-off.
    rng = np.random.default_rng(16)
    z = rng.standard_normal((31, 26))
    x = z + np.linspace(0.0, span, 26)
    assert span < np.ptp(x) < span + 10.0
    weights = rng.standard_normal(x.shape)
    formed = []
    kernel = transport._kernel
    monkeypatch.setattr(transport, "_kernel", lambda *args: formed.append(1) or kernel(*args))

    def run(op, iters):
        scores = Tensor(x, requires_grad=True)
        with Tape() as tape:
            plan = op(ScoreMatrix(scores, True), iters)
            kernels = len(formed)
            tape.backward(ad.sum_all(ad.mul(plan.values, constant(weights))))
        return plan, scores.grad, kernels

    stopped, g_stopped, kernels = run(sinkhorn, None)
    ran = stopped.iterations
    fixed, g_fixed, _ = run(sinkhorn, ran)
    ref, g_ref, _ = run(taped_sinkhorn, ran)
    assert kernels >= 2 and 1 < ran < 20 and fixed.iterations == ran
    assert np.array_equal(_bits(stopped.values.data), _bits(fixed.values.data))
    assert np.array_equal(_bits(g_stopped), _bits(g_fixed))
    p, ref_p = np.exp(stopped.values.data), np.exp(ref.values.data)
    assert np.abs(p - ref_p).max() <= 1e-12 * ref_p.max()
    assert np.abs(g_stopped - g_ref).max() <= 1e-12 * np.abs(weights).max()
    assert np.abs(p.sum(axis=1) / np.append(np.ones(30), 25.0) - 1.0).max() <= SINKHORN_TOL


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 39), n=st.integers(1, 39), log_range=st.floats(-3.0, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=39, n=39, log_range=5.0, seed=0)
@example(m=39, n=39, log_range=-3.0, seed=0)
def test_sinkhorn_plan_finite_with_exact_columns_on_either_path(m, n, log_range, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m + 1, n + 1))
    x = (z - z.min()) * (10.0 ** log_range / (z.max() - z.min()))
    weights = rng.standard_normal(x.shape)
    scores = Tensor(x, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with Tape() as tape:
            plan = sinkhorn(ScoreMatrix(scores, True))
            tape.backward(ad.sum_all(ad.mul(plan.values, constant(weights))))
    assert np.all(np.isfinite(plan.values.data)) and np.all(np.isfinite(scores.grad))
    p = np.exp(plan.values.data)
    b = np.append(np.ones(n), m)
    assert np.abs(p.sum(axis=0) - b).max() <= 1e-9 * (m + n)


def test_sinkhorn_nan_and_minus_inf_scores():
    # A NaN score spreads to the whole plan; a -inf cell gets no mass and
    # leaves the columns exact. Neither warns.
    rng = np.random.default_rng(15)
    x, weights = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
    for bad in (np.nan, -np.inf):
        scores = Tensor(x.copy(), requires_grad=True)
        scores.data[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with Tape() as tape:
                plan = sinkhorn(ScoreMatrix(scores, True))
                tape.backward(ad.sum_all(ad.mul(plan.values, constant(weights))))
        p = np.exp(plan.values.data)
        if np.isnan(bad):
            assert np.all(np.isnan(p))
        else:
            assert p[1, 2] == 0.0 and np.all(np.isfinite(scores.grad))
            assert np.abs(p.sum(axis=0) - np.append(np.ones(6), 4.0)).max() <= 1e-12


def test_sinkhorn_records_one_op_whatever_iters():
    z = np.random.default_rng(10).standard_normal((6, 8))
    for scale in (1.0, 1000.0):  # one kernel, then several
        scores = Tensor(z * scale, requires_grad=True)
        for iters in (1, 100):
            with Tape() as tape:
                sinkhorn(ScoreMatrix(scores, True), iters)
            assert len(tape) == 1


def test_sinkhorn_backward_peak_memory():
    # The taped loop keeps two 257 x 257 buffers per op for 100 iterations
    # (about 310 MB); the op keeps only the potentials. These scores would
    # stop after 6 iterations, so the cap is given.
    scores = Tensor(np.random.default_rng(11).standard_normal((257, 257)), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            plan = sinkhorn(ScoreMatrix(scores, True), SINKHORN_ITERS)
            tape.backward(ad.sum_all(ad.mul(plan.values, plan.values)))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 32


def test_sinkhorn_forward_peak_memory():
    # One 513 x 513 array is 2.0 MB: the scaling path forms K and then the
    # plan in that one buffer, next to the iterates' vectors.
    scores = ScoreMatrix(constant(np.random.default_rng(13).standard_normal((513, 513))), True)
    tracemalloc.start()
    try:
        sinkhorn(scores)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 5.2


def _mutual_nn_loop(p):
    """Oracle: the per-row loop mutual_nn replaced."""
    m, n = p.shape[0] - 1, p.shape[1] - 1
    if m == 0 or n == 0:
        return []
    main = p[:m, :n]
    row_best = main.argmax(axis=1)
    col_best = main.argmax(axis=0)
    pairs = []
    for i in range(m):
        j = int(row_best[i])
        if int(col_best[j]) != i:
            continue
        val = main[i, j]
        if val > p[i, n] and val > p[m, j]:
            pairs.append((i, j, float(val)))
    return pairs


def test_mutual_nn_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for trial in range(50):
        if trial < 4:
            m, n = [(0, 5), (5, 0), (0, 0), (1, 1)][trial]
        else:
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        if trial % 2:
            p = rng.integers(0, 4, (m + 1, n + 1)) / 4.0  # many ties
        else:
            p = rng.random((m + 1, n + 1))
        got = mutual_nn(ScoreMatrix(constant(p), False)).pairs
        want = _mutual_nn_loop(p)
        assert got == want
        assert repr(got) == repr(want)
        assert all(type(i) is int and type(j) is int and type(v) is float for i, j, v in got)
