"""Initial assignment: dustbin-augmented entropic optimal transport plus a
mutual nearest neighbor check on the transport plan.

Marginals follow the unbalanced-dustbin convention: every real point on
either side supplies unit mass, and each dustbin absorbs up to the other
side's count, so total mass balances at M + N. Each real row/column of the
plan therefore sums to one and its entries read as probabilities.

`sinkhorn` returns the plan's logs, which the matching loss reads as they
are. Probabilities are formed only where they are reported or summed: by
`mutual_nn`, whose pairs depend only on the entries' order, and by
`marginal_residuals`.

`sinkhorn` is a single autodiff op and one loop for every score range:
matrix scaling (Cuturi 2013) stabilised by absorbing large scalings into
the kernel's potentials (Schmitzer 2019). Each iteration is two
matrix-vector products with a kernel K; a new K, one exp, is formed only
when a scaling would stray more than e^`MAX_LOG_SCALING` from its mass,
which the network's scores, a few tens of nats wide, do not need. The op
keeps per-iteration vectors instead of taping each iteration, so memory
grows with iters x (M + N) rather than iters x M x N. Its plan and
gradients agree with the log-domain loop taped op by op to round-off. The
cost matrix (a Gram-form BLAS product, `autodiff.pairwise_l2`) and
Sinkhorn run on their inputs in input order with plain numpy sums and BLAS
products, so permuting the inputs permutes the cost and the plan only up
to round-off: the canonical order of `network.forward_features` ends at
its features.

The float64 boundary sits at the cost: the network computes its features in
the weights' float32, and `autodiff.pairwise_l2` widens them, so the cost,
the dustbins, Sinkhorn and the plan are float64. Sinkhorn needs that: its
scalings reach e^+-330, beyond float32's range of about e^+-88.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import CorrespondenceSet

SINKHORN_ITERS = 100

# Bound, in nats, on how far each Sinkhorn scaling lies from its mass.
# `sinkhorn` forms its kernel K = exp(x - f - g) with no entry above 1 and a
# 1 in every row or every column, and each half-step's scaling is a mass
# divided by its normaliser, K beta or alpha^T K. Before a half-step whose
# normaliser leaves [e^-330, e^330], the other side's scaling is absorbed
# into the potentials and K is formed again, which puts the normaliser in
# [1, M + N + 1]. So every scaling lies within e^+-330 times a mass of at
# most 1024 = e^6.9, and every product of two that the backward's rank-one
# factors form lies within e^+-674, inside float64's normal range of about
# e^+-708.
MAX_LOG_SCALING = 330.0


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


def sinkhorn(s: ScoreMatrix, iters: int = SINKHORN_ITERS) -> ScoreMatrix:
    """Sinkhorn with dustbin marginals; returns the transport plan's logs.

    One autodiff op, one tape record, one scaling loop for every score range.
    The kernel is K = exp(x - f - g) for potentials f and g, at first the row
    max and 0. From beta_0 = 1 it iterates alpha_t = a / (K beta_t) and
    beta_t+1 = b / (K^T alpha_t), and the plan K * alpha * beta is returned
    as its log x - (f - log alpha) - (g - log beta). Before a half-step
    whose normaliser, K beta or alpha^T K, leaves e^+-`MAX_LOG_SCALING`
    (NaN included), the other side's scaling is absorbed into its potential
    and K is formed again, max-normalised along the side the half-step sums
    over. Scores spanning a few hundred nats, network scores among them,
    keep their first kernel.

    The op keeps the iterates' reciprocal normalisers, iters x (M + N + 2)
    floats, and each kernel's potentials. Its backward takes the log plan's
    gradient as it comes, forms each kernel again with one exp and replays
    the recursion in reverse, two matrix-vector products per iteration.
    Plan and gradients agree with the log-domain loop taped op by op to
    round-off.

    The column update runs last, so column marginals are exact and row
    marginals converge with the iterates.
    """
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    if not s.log_domain:
        raise ValueError("sinkhorn expects a log-domain score matrix")
    scores = s.values
    x = scores.data
    m1, n1 = x.shape
    a, b = _masses(m1 - 1, n1 - 1)
    lo, hi = np.exp(-MAX_LOG_SCALING), np.exp(MAX_LOG_SCALING)
    # The op keeps p[t] = 1 / (K beta_t) and q[t] = 1 / (K^T alpha_t), so that
    # alpha_t = a * p[t] and beta_t+1 = b * q[t]: the backward needs both the
    # scalings and their ratios to the masses. Half-step h is iteration h // 2's
    # alpha update if h is even, its beta update if odd; kernels holds the
    # first half-step and potentials of each kernel.
    p = np.empty((iters, m1))
    q = np.empty((iters, n1))
    f, g = x.max(axis=1), np.zeros(n1)
    kernels = [(0, f, g)]
    kernel = _kernel(x, f, g)
    alpha, beta = np.ones(m1), np.ones(n1)
    for h in range(2 * iters):
        t, col = divmod(h, 2)
        norm = alpha @ kernel if col else kernel @ beta
        if not (lo <= norm.min() and norm.max() <= hi):
            if col:
                f = f - np.log(alpha)
                g = np.subtract(x, f.reshape(m1, 1)).max(axis=0)
                alpha = np.ones(m1)
            else:
                g = g - np.log(beta)
                f = np.subtract(x, g).max(axis=1)
                beta = np.ones(n1)
            kernels.append((h, f, g))
            kernel = _kernel(x, f, g)
            norm = alpha @ kernel if col else kernel @ beta
        if col:
            np.divide(1.0, norm, out=q[t])
            beta = b * q[t]
        else:
            np.divide(1.0, norm, out=p[t])
            alpha = a * p[t]
    log_plan = np.subtract(x, (f - np.log(alpha)).reshape(m1, 1), out=kernel)
    log_plan -= g - np.log(beta)

    # The log-domain loop's column softmax of iteration t is
    # K alpha_t beta_t+1 / b and its row softmax K alpha_t beta_t / a, each in
    # the frame of the kernel its half-step used. So iteration t adds
    # -K * (alpha_t (q[t] gv)^T + (p[t] gu) beta_t^T) to the score gradient,
    # gv and gu being the gradients of log beta_t+1 and log alpha_t. A
    # kernel's first half-step reads the absorbed scaling as 1. The factors
    # of one kernel's rank-one terms are gathered in left and right, column
    # h ^ 1 for half-step h, and summed by one product.
    def bw(g_log_plan):
        gs = g_log_plan.copy()
        gu = gs.sum(axis=1)
        gv = gs.sum(axis=0)
        ends = [h for h, _, _ in kernels[1:]] + [2 * iters]
        for (h0, f, g), h1 in reversed(list(zip(kernels, ends))):
            k = _kernel(x, f, g)
            first = h0 & ~1
            width = h1 + (h1 & 1) - first
            left, right = np.zeros((m1, width)), np.zeros((width, n1))
            for h in range(h1 - 1, h0 - 1, -1):
                t, col = divmod(h, 2)
                j = (h ^ 1) - first
                if col:
                    alpha = a * p[t] if h > h0 else 1.0
                    w = q[t] * gv
                    du = alpha * (k @ w)
                    gu = gu - du if t == iters - 1 else -du
                    left[:, j], right[j] = alpha, w
                else:
                    beta = b * q[t - 1] if h > h0 else 1.0
                    c = p[t] * gu
                    left[:, j], right[j] = c, beta
                    if h > 0:  # beta_0 is the constant start: no gradient
                        gv = -beta * (c @ k)
            k *= left @ right
            gs -= k
        ad._accum(scores, gs)

    return ScoreMatrix(ad._make(log_plan, (scores,), bw), log_domain=True)


def _kernel(x, f, g):
    """exp(x - f - g) for row potentials f and column potentials g."""
    k = np.subtract(x, f.reshape(-1, 1))
    k -= g
    return np.exp(k, out=k)


def marginal_residuals(plan: ScoreMatrix):
    """Max |row/column sum - prescribed marginal| of a plan or a log plan.

    The row maximum includes the dustbin row, whose mass is N, so on network
    plans it is the dustbin's residual: with fresh d=128 weights at n=256
    (scene seed 1), 3.3e-6, while every real row is within 1.4e-8."""
    p = np.exp(plan.values.data) if plan.log_domain else plan.values.data
    m, n = p.shape[0] - 1, p.shape[1] - 1
    a, b = _masses(m, n)
    row = np.abs(p.sum(axis=1) - a).max()
    col = np.abs(p.sum(axis=0) - b).max()
    return float(row), float(col)


def mutual_nn(plan: ScoreMatrix) -> CorrespondenceSet:
    """Pairs that are mutually each other's best match and beat both dustbins,
    in ascending 2D index, each with its plan probability. The pairs depend
    only on the entries' order, so a log plan gives those of its exp."""
    p = plan.values.data
    m, n = p.shape[0] - 1, p.shape[1] - 1
    if m == 0 or n == 0:
        return CorrespondenceSet([])
    main = p[:m, :n]
    rows = np.arange(m)
    best = main.argmax(axis=1)
    val = main[rows, best]
    keep = (main.argmax(axis=0)[best] == rows) & (val > p[:m, n]) & (val > p[m, best])
    val = np.exp(val[keep]) if plan.log_domain else val[keep]
    # Python ints and floats, not numpy scalars: callers hash repr(pairs).
    return CorrespondenceSet(list(zip(rows[keep].tolist(), best[keep].tolist(),
                                      val.tolist())))
