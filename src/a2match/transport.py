"""Initial assignment: dustbin-augmented entropic optimal transport plus a
mutual nearest neighbor check on the transport plan.

Marginals follow the unbalanced-dustbin convention: every real point on
either side supplies unit mass, and each dustbin absorbs up to the other
side's count, so total mass balances at M + N. Each real row/column of the
plan therefore sums to one and its entries read as probabilities.

`sinkhorn` is a single autodiff op with two paths, chosen from the range of
its scores. Where max - min is at most `SCALING_RANGE` nats, it runs as
matrix scaling (Cuturi 2013): one exp forms the kernel K, and each iteration
is two matrix-vector products with it. Wider ranges would push the scaling
vectors out of float64's range, so they run the log-domain iterations
(Schmitzer 2019), two exp passes each, as do scores holding NaN or inf. Both
paths run the same iterations, so they give the same plan up to round-off,
and both keep per-iteration vectors instead of taping each iteration, so
memory grows with iters x (M + N) rather than iters x M x N. The log path's
plan and gradients are bit for bit those of the log-domain loop taped op by
op; the scaling path's agree with them to round-off. The cost matrix (a
Gram-form BLAS product, `autodiff.pairwise_l2`) and Sinkhorn run on their
inputs in input order with plain numpy sums and BLAS products, so permuting
the inputs permutes the cost and the plan only up to round-off: the
canonical order of `network.forward_features` ends at its features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import CorrespondenceSet

SINKHORN_ITERS = 100

# Widest score range R = max(x) - min(x), in nats, that `sinkhorn` runs in
# the scaling domain. There K = exp(x - row max) lies in [e^-R, 1], with a 1
# in every row. The step from beta_t to beta_t+1 is monotone and homogeneous
# in beta, so from beta_0 = 1 every beta_t stays within the spread of the
# fixed point's beta, at most e^R times a mass ratio, and every alpha_t then
# lies within e^R times mass factors too. So with R <= 300 each factor that
# the matrix-vector products and the plan K * alpha * beta multiply lies in
# e^+-300, and each product of two in e^+-600, up to powers of M + N: inside
# float64's normal range of about e^+-708 at any size the validators accept.
# Wider ranges need the log domain: a contested column (every row's best
# entry in the same column) at R = 1400 gave the right plan in the scaling
# domain, but gradients off by a relative 5e5.
SCALING_RANGE = 300.0


@dataclass
class ScoreMatrix:
    values: Tensor            # (M+1, N+1); last row/column are the dustbins
    log_domain: bool


def cost_matrix(f_p: Tensor, f_q: Tensor) -> Tensor:
    """L2 feature distances, (M, N)."""
    return ad.pairwise_l2(f_p, f_q)


def augment_dustbins(cost: Tensor, alpha_bin: Tensor) -> ScoreMatrix:
    """Scores: negated cost in the main block, alpha_bin on the dustbins."""
    cost, alpha_bin = ad._as_tensor(cost), ad._as_tensor(alpha_bin)
    m, n = cost.shape
    a = float(alpha_bin.data)
    out_data = np.full((m + 1, n + 1), a, dtype=np.float64)
    out_data[:m, :n] = -cost.data

    def bw(g):
        if cost.requires_grad:
            ad._accum(cost, -g[:m, :n])
        if alpha_bin.requires_grad:
            ad._accum(alpha_bin, np.array(g[m, :].sum() + g[:m, n].sum()))

    return ScoreMatrix(ad._make(out_data, (cost, alpha_bin), bw), log_domain=True)


def _masses(m: int, n: int):
    """Row and column masses: 1 per real point, the other side's count on
    each dustbin."""
    a = np.ones(m + 1)
    a[m] = n
    b = np.ones(n + 1)
    b[n] = m
    return a, b


def _marginals(m: int, n: int):
    log_a = np.zeros(m + 1)
    log_a[m] = np.log(n)
    log_b = np.zeros(n + 1)
    log_b[n] = np.log(m)
    return log_a, log_b


def sinkhorn(s: ScoreMatrix, iters: int = SINKHORN_ITERS) -> ScoreMatrix:
    """Sinkhorn with dustbin marginals; returns the exponentiated transport plan.

    One autodiff op, one tape record. Scores whose range max - min is at
    most `SCALING_RANGE` run in the scaling domain: K = exp(x - row max) is
    formed once, then alpha_t = a / (K beta_t) and beta_t+1 = b / (K^T
    alpha_t) from beta_0 = 1, and the plan is K * alpha * beta. The op keeps
    the iterates' reciprocal denominators, iters x (M + N + 2) floats, and its
    backward forms K again with one exp and replays the recursion in reverse
    with two matrix-vector products per iteration. Plan and gradients agree
    with the log-domain loop taped op by op to round-off.

    Wider ranges, NaN and inf run the log-domain loop, whose scaling vectors
    would leave float64's range in the scaling domain. It keeps the
    potentials of each iteration, (iters + 1) x (M + N + 2) floats, and its
    backward recomputes each one's exp(x - max) from them. Only there are
    plan and gradients bit for bit those of the taped loop.

    Either way the column update runs last, so column marginals are exact
    and row marginals converge with the iterates.
    """
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    if not s.log_domain:
        raise ValueError("sinkhorn expects a log-domain score matrix")
    scores = s.values
    x = scores.data
    # Python floats: NaN compares false and inf - inf raises no warning.
    if float(x.max()) - float(x.min()) <= SCALING_RANGE:
        plan, bw = _scaling_sinkhorn(scores, iters)
    else:
        plan, bw = _log_sinkhorn(scores, iters)
    return ScoreMatrix(ad._make(plan, (scores,), bw), log_domain=False)


def _scaling_sinkhorn(scores: Tensor, iters: int):
    """Plan and backward of `sinkhorn` in the scaling domain."""
    x = scores.data
    m1, n1 = x.shape
    a, b = _masses(m1 - 1, n1 - 1)
    row_max = x.max(axis=1, keepdims=True)
    kernel = np.subtract(x, row_max)
    np.exp(kernel, out=kernel)
    # The op keeps p[t] = 1 / (K beta_t) and q[t] = 1 / (K^T alpha_t), so that
    # alpha_t = a * p[t] and beta_t+1 = b * q[t]: the backward needs both the
    # scalings and their ratios to the masses.
    p = np.empty((iters, m1))
    q = np.empty((iters, n1))
    beta = np.ones(n1)
    for t in range(iters):
        np.divide(1.0, kernel @ beta, out=p[t])
        np.divide(1.0, (a * p[t]) @ kernel, out=q[t])
        beta = b * q[t]
    plan = kernel
    plan *= (a * p[-1]).reshape(m1, 1)
    plan *= beta

    # The log path's column softmax of iteration t is K alpha_t beta_t+1 / b
    # and its row softmax K alpha_t beta_t / a. So iteration t adds
    # -K * (alpha_t (q[t] gv)^T + (p[t] gu) beta_t^T) to the score gradient,
    # gv and gu being the gradients of log beta_t+1 and log alpha_t. The
    # factors of those rank-one terms are gathered in left and right and
    # summed by one product after the loop.
    def bw(g):
        k = np.subtract(x, row_max)
        np.exp(k, out=k)
        gs = g * plan
        gu = gs.sum(axis=1)
        gv = gs.sum(axis=0)
        left = np.empty((m1, 2 * iters))
        right = np.empty((2 * iters, n1))
        for t in range(iters - 1, -1, -1):
            alpha = a * p[t]
            beta = b * q[t - 1] if t > 0 else 1.0
            w = q[t] * gv
            du = alpha * (k @ w)
            gu = gu - du if t == iters - 1 else -du
            c = p[t] * gu
            left[:, 2 * t], right[2 * t] = alpha, w
            left[:, 2 * t + 1], right[2 * t + 1] = c, beta
            if t > 0:  # beta_0 is the constant start: no gradient
                gv = -beta * (c @ k)
        k *= left @ right
        gs -= k
        ad._accum(scores, gs)

    return plan, bw


def _log_sinkhorn(scores: Tensor, iters: int):
    """Plan and backward of `sinkhorn` in the log domain."""
    x = scores.data
    m1, n1 = x.shape
    log_a, log_b = _marginals(m1 - 1, n1 - 1)
    us = np.empty((iters, m1))
    vs = np.zeros((iters + 1, n1))
    for t in range(iters):
        us[t] = log_a - _logsumexp(x + vs[t], 1)[0]
        vs[t + 1] = log_b - _logsumexp(x + us[t].reshape(m1, 1), 0)[0]
    plan = np.exp((x + us[-1].reshape(m1, 1)) + vs[-1])

    # Replays the taped loop's records in reverse with the same elementwise
    # operations and sums, so every gradient addend comes out the same bits.
    # The tape added each addend into scores.grad in turn; gs sums them in
    # that order and is accumulated once, which is the same only because
    # scores feeds nothing but Sinkhorn, so its grad is None on entry.
    def bw(g):
        gs = g * plan
        gv = gs.sum(axis=(0,))
        gu = gs.sum(axis=(1,), keepdims=True)
        for t in range(iters - 1, -1, -1):
            # gb = -gv * (e / den), formed in e's buffer; ga likewise.
            _, gb, den = _logsumexp(x + us[t].reshape(m1, 1), 0)
            gb /= np.expand_dims(den, 0)
            gb *= np.expand_dims(-gv, 0)
            gs += gb
            g_u = gb.sum(axis=(1,), keepdims=True)
            gu = gu + g_u if t == iters - 1 else g_u
            _, ga, den = _logsumexp(x + vs[t], 1)
            ga /= np.expand_dims(den, 1)
            ga *= -gu
            gs += ga
            if t > 0:  # vs[0] is the constant start: no gradient
                gv = ga.sum(axis=(0,))
        ad._accum(scores, gs)

    return plan, bw


def _logsumexp(y, axis):
    """log(sum(exp(y))) along axis, with exp(y - max) and its sum.

    y must be a temporary: it is overwritten with exp(y - max).
    """
    m = y.max(axis=axis, keepdims=True)
    y -= m
    e = np.exp(y, out=y)
    s = e.sum(axis=axis)
    return np.squeeze(m, axis) + np.log(s), e, s


def marginal_residuals(plan: ScoreMatrix):
    """Max |row/column sum - prescribed marginal| of a transport plan."""
    p = plan.values.data
    m, n = p.shape[0] - 1, p.shape[1] - 1
    a, b = _masses(m, n)
    row = np.abs(p.sum(axis=1) - a).max()
    col = np.abs(p.sum(axis=0) - b).max()
    return float(row), float(col)


def mutual_nn(plan: ScoreMatrix) -> CorrespondenceSet:
    """Pairs that are mutually each other's best match and beat both dustbins,
    in ascending 2D index."""
    if plan.log_domain:
        raise ValueError("mutual_nn expects an exponentiated plan")
    p = plan.values.data
    m, n = p.shape[0] - 1, p.shape[1] - 1
    if m == 0 or n == 0:
        return CorrespondenceSet([])
    main = p[:m, :n]
    rows = np.arange(m)
    best = main.argmax(axis=1)
    val = main[rows, best]
    keep = (main.argmax(axis=0)[best] == rows) & (val > p[:m, n]) & (val > p[m, best])
    # Python ints and floats, not numpy scalars: callers hash repr(pairs).
    return CorrespondenceSet(list(zip(rows[keep].tolist(), best[keep].tolist(),
                                      val[keep].tolist())))
