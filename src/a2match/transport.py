"""Initial assignment: dustbin-augmented entropic optimal transport plus a
mutual nearest neighbor check on the transport plan.

Marginals follow the unbalanced-dustbin convention: every real point on
either side supplies unit mass, and each dustbin absorbs up to the other
side's count, so total mass balances at M + N. Each real row/column of the
plan therefore sums to one and its entries read as probabilities.

`sinkhorn` is a single autodiff op: it stores the potentials of every
iteration instead of taping each one, and its backward recomputes each
iteration's exp(x - max) from them, so memory grows with iters x (M + N)
rather than iters x M x N. It runs on the scores in input order with plain
numpy sums, so permuting the inputs permutes the plan only up to round-off:
the canonical order of `network.forward_features` ends at its features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import CorrespondenceSet

SINKHORN_ITERS = 100


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


def _marginals(m: int, n: int):
    log_a = np.zeros(m + 1)
    log_a[m] = np.log(n)
    log_b = np.zeros(n + 1)
    log_b[n] = np.log(m)
    return log_a, log_b


def sinkhorn(s: ScoreMatrix, iters: int = SINKHORN_ITERS) -> ScoreMatrix:
    """Log-domain Sinkhorn; returns the exponentiated transport plan.

    One autodiff op. The forward runs the iterations on plain arrays and
    keeps only the potentials of each iteration, (iters + 1) x (M + N + 2)
    floats; the backward walks the iterations in reverse and recomputes each
    one's exp(x - max) from them. Forward and gradients are bit for bit those
    of the same loop taped op by op. The column update runs last, so column
    marginals are exact and row marginals converge with the iterates.
    """
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    if not s.log_domain:
        raise ValueError("sinkhorn expects a log-domain score matrix")
    scores = s.values
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

    return ScoreMatrix(ad._make(plan, (scores,), bw), log_domain=False)


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
    log_a, log_b = _marginals(m, n)
    row = np.abs(p.sum(axis=1) - np.exp(log_a)).max()
    col = np.abs(p.sum(axis=0) - np.exp(log_b)).max()
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
