"""Dense float32 and float64 tensors with taped reverse-mode differentiation.

Covers exactly what the matching network needs: 2D matmul, elementwise
arithmetic with trailing-axis / singleton-axis broadcasting for affine
parameters, concat/reshape/gather, activations, instance normalization (with
the ReLU or LeakyReLU that follows it), softmax, pairwise L2 distances,
`grouped_neighbor_conv`, one linear layer over a node's groups,
`neighbor_linear`, a linear layer over windows of edge features
[f_i, f_i - f_j] that never builds them, and two ops that fuse a linear
layer with its norm: `norm_max`, the max path whole (that linear layer over
single edges, instance norm over all edges and the max over the neighbors),
and `covariance_norm`, a linear layer of a constant input of few columns
with its norm and ReLU. An op may also be a whole algorithm:
`transport.sinkhorn` records one backward closure for all of its
iterations. No op keeps state between calls.

The norms take their statistics and gradients from low-dimensional sums
rather than passes over wide tensors. instance_norm's forward has the bits
of the unfused expression in one buffer; its backward is affine in the
centred input; it reads a ReLU's mask off its output and keeps a LeakyReLU's
sign mask from the forward. norm_max works in node space: per-node sums give
the edge mean and variance, and its backward sends each node its share of
the edge gradient through per-channel coefficients. covariance_norm takes
its variance from the covariance of its input. Their gradients, and
norm_max's and covariance_norm's outputs, match the unfused ops to
round-off, not bit for bit; the docstrings bound where the sums cancel.

Every scatter-add (`gather_rows`'s backward, neighbor_linear's, all window
positions in one call, norm_max's sum over in-edges, and `gather_pairs`'
single cells, on flat cell indices) goes through `_scatter_add`, which has
the bits of `np.add.at` on zeros: each target's sources are added in the
same order from +0, one pass per in-degree rather than one Python-level
step per entry.

Op protocol: an op computes its output array and returns
`_make(out_data, inputs, backward)`. Inside an active `Tape`, and only if
some input requires grad, `_make` appends the pair (output, backward) to
the innermost tape; `Tape.backward` replays the pairs in reverse and calls
`backward(g)` with the output's accumulated gradient g, an array of the
output's shape, and skips the call when no gradient reached the output.
`backward` hands each input that requires grad its addend through
`_accum`, which never updates a grad in place, so one array may be handed
to several inputs, or be a view of g.

Every kernel is plain numpy: matmul is BLAS, and reductions are numpy sums.
Their bits may depend on where a row sits in its array, so a matmul or a
reduction alone is not bit-exactly permutation equivariant. Callers that
promise equivariance put their rows in a canonical order first
(`canonical_order`), run on the sorted arrays and gather the outputs back:
a permuted input becomes the very same arrays, so its outputs are the same
bits, permuted.

Dtypes follow numpy 2's promotion rules (NEP 50). A Tensor keeps a float32
array as float32 and makes everything else float64. Each kernel allocates
its buffers in its input's dtype, so the network body and the classifier
compute in the float32 of the weights, or in float64 on a promoted copy of
them. `pairwise_l2` widens its inputs to float64, so the cost and everything
after it are float64. `_accum` hands each tensor a gradient of its own
dtype, so that op's backward narrows what it hands the features.
`norm_max` and `covariance_norm`, whose variances come from sums that can
cancel, accumulate those per-channel sums in float64 from buffers of their
input's dtype; instance_norm sums centred squares in its input's dtype.

`pairwise_l2` takes squared distances in Gram form, |a|^2 + |b|^2 - 2 a.b:
one BLAS product and two vectors of row norms, with no M x N x d tensor.
Cancellation loses bits where a distance is small against the norms, which
is where the matching costs that matter lie. So every cell whose Gram value
is below `_CANCEL` of |a_i|^2 + |b_j|^2, or is NaN or inf, is recomputed
from its differences, in chunks of about `_BLOCK_ELEMENTS` of them, with
the bits of the whole-tensor expression (a zero distance stays exactly 0).
Every other cell is within a relative (d + 2) u / _CANCEL of it, u = 2^-53,
about 9e-13 at d = 128, while squares stay in float64's normal range. Like
Sinkhorn's plan, the cost matrix is permutation equivariant only up to
round-off.
"""

from __future__ import annotations

import numpy as np


# The active tapes, innermost last; ops record on the innermost.
_TAPES = []

# Differences per chunk of pairwise_l2's exact recompute (512 KiB of
# float64). A chunk's gathered rows then stay in cache: with 8 MiB chunks,
# a 512 x 512, d = 128 input whose every cell cancels took 1.6x as long
# (2-vCPU Xeon, 2 MiB of L2 per core).
_BLOCK_ELEMENTS = 1 << 16

# pairwise_l2 recomputes from differences every Gram cell below this
# fraction of |a_i|^2 + |b_j|^2: cancellation there multiplies the Gram
# form's relative error by at most 1 / _CANCEL.
_CANCEL = 1.0 / 64


class Tape:
    """The (output, backward) records of executed ops, replayed once in reverse."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss):
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        _accum(loss, np.ones_like(loss.data))
        for out, backward in reversed(self._records):
            if out.grad is not None:
                backward(out.grad)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        # float32, the weights' dtype, stays float32; all else is float64.
        self.data = np.array(data, dtype=np.float32 if data.dtype == np.float32 else np.float64)
        self.requires_grad = bool(requires_grad)
        # No tensor holds a grad until one reaches it; parameters get theirs
        # from `ModelWeights.zero_grad`, an op output its first addend.
        self.grad = None

    @classmethod
    def _wrap(cls, data, requires_grad):
        obj = cls.__new__(cls)
        obj.data = data
        obj.requires_grad = requires_grad
        obj.grad = None
        return obj

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _accum(t: Tensor, g):
    # Never in place: g may be another tensor's grad, or a view of one. The
    # grad takes the tensor's dtype: a float64 op narrows a float32 input's.
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    t.grad = g if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _make(out_data, inputs, backward):
    """Wrap an op's output; on an active tape, record its backward.

    backward(g) runs when the tape replays, only if a gradient reached the
    output; see the module docstring.
    """
    req = bool(_TAPES) and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, req)
    if req:
        _TAPES[-1]._records.append((out, backward))
    return out


def canonical_order(rows):
    """(order, inverse) that put the rows of a 2D array in canonical order.

    `rows[order]` is sorted lexicographically, first column first, so it is
    the same array for every permutation of the rows. `inverse` maps each
    input row to its sorted position; equal rows all map to the first of
    their run, so they read the same output bits wherever they sit.
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.maximum.accumulate(np.where(starts, np.arange(len(ranked)), 0))
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = first
    return order, inverse


def _block_rows(row_elements):
    """Rows per block so that one block holds about _BLOCK_ELEMENTS addends."""
    return max(1, _BLOCK_ELEMENTS // max(1, row_elements))


def matmul(a, b) -> Tensor:
    """2D matrix product, a.data @ b.data through BLAS, forward and backward."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shapes {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), bw)


def transpose2d(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose2d needs a matrix, got {a.shape}")
    out_data = np.ascontiguousarray(a.data.T)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.T)

    return _make(out_data, (a,), bw)


def _check_broadcast(a_shape, b_shape):
    """b may equal a, be a trailing vector, or match with singleton axes."""
    if b_shape == a_shape:
        return
    if len(b_shape) == 1 and len(a_shape) >= 1 and b_shape[0] == a_shape[-1]:
        return
    if len(b_shape) == len(a_shape) and all(
        bs == as_ or bs == 1 for bs, as_ in zip(b_shape, a_shape)
    ):
        return
    raise ValueError(f"cannot broadcast {b_shape} onto {a_shape}")


def _reduce_to_shape(g, shape):
    """Sum gradient over axes that were broadcast."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da_fn, db_fn):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data.shape, b.data.shape)
    out_data = fwd(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, da_fn(g, a.data, b.data))
        if b.requires_grad:
            _accum(b, _reduce_to_shape(db_fn(g, a.data, b.data), b.data.shape))

    return _make(out_data, (a, b), bw)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    out_data = a.data * s

    def bw(g):
        if a.requires_grad:
            _accum(a, g * s)

    return _make(out_data, (a,), bw)


def concat_last_axis(*tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if len(tensors) < 2:
        raise ValueError("concat_last_axis needs at least two tensors")
    lead = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.shape[:-1] != lead:
            raise ValueError(
                f"concat_last_axis leading shapes differ: {[t.shape for t in tensors]}")
    widths = [t.data.shape[-1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def bw(g):
        off = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                _accum(t, g[..., off:off + w])
            off += w

    return _make(out_data, tuple(tensors), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), bw)


def gather_rows(a, idx) -> Tensor:
    """out[...] = a[idx[...]] along axis 0; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            n = a.shape[0]
            rows = g.reshape((idx.size,) + a.shape[1:])
            _accum(a, _scatter_add(rows, np.where(idx < 0, idx + n, idx), n))

    return _make(out_data, (a,), bw)


def _scatter_add(src, target, n, fan_out=1):
    """Sum the rows of src into n target rows: flat entry e of target
    takes the row src[e // fan_out], so each row of src feeds fan_out
    consecutive entries. The bits are those of np.add.at on np.zeros.

    np.add.at adds each target's sources one at a time, in ascending entry
    order, starting from +0. Here a stable argsort lists each target's
    entries in that order, and the targets are ranked by descending
    in-degree; pass q then adds the q-th source of every target that has
    more than q of them, in one contiguous `acc[:m_q] += src[...]`. So each
    target sees the same additions in the same order, down to signed zeros
    and inf, in max-in-degree passes rather than one step per entry. A NaN
    comes out NaN where np.add.at's does; its sign bit follows numpy's add
    loop, which differs between loops (and array lengths) for NaN + -NaN.
    """
    target = np.asarray(target, dtype=np.intp).ravel()
    out = np.zeros((n,) + src.shape[1:], dtype=src.dtype)
    if not target.size:
        return out
    order = np.argsort(target, kind="stable")
    ranked = target[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    degree = np.diff(np.r_[starts, target.size])
    first = starts[np.argsort(-degree, kind="stable")]
    acc = np.zeros((first.size,) + src.shape[1:], dtype=src.dtype)
    # Before pass q, the targets with at most q sources are done.
    done = np.cumsum(np.bincount(degree))
    for q in range(degree.max()):
        m = first.size - done[q]
        acc[:m] += src[order[first[:m] + q] // fan_out]
    out[ranked[first]] = acc
    return out


def gather_pairs(a, rows, cols) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"gather_pairs needs a matrix, got {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape:
        raise ValueError("gather_pairs index shapes differ")
    out_data = a.data[rows, cols]

    def bw(g):
        if a.requires_grad:
            m, n = a.shape
            cells = np.where(rows < 0, rows + m, rows) * n + np.where(cols < 0, cols + n, cols)
            _accum(a, _scatter_add(g.ravel(), cells, a.data.size).reshape(a.shape))

    return _make(out_data, (a,), bw)


LEAKY_SLOPE = 0.2  # the network's one LeakyReLU slope


def _unary(a, fwd, dfn):
    a = _as_tensor(a)
    out_data = fwd(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, dfn(g, a.data, out_data))

    return _make(out_data, (a,), bw)


def leaky_relu(a) -> Tensor:
    # The mask holds 1 or LEAKY_SLOPE in x's dtype, as np.where(x >= 0.0,
    # 1.0, LEAKY_SLOPE) does in float64.
    return _unary(a, lambda x: np.maximum(x, LEAKY_SLOPE * x),
                  lambda g, x, y: g * np.maximum(x >= 0.0, LEAKY_SLOPE, dtype=x.dtype))


def softplus(a) -> Tensor:
    # log(1 + e^x) as max(x, 0) + log1p(e^-|x|), and its derivative
    # sigmoid(x) as e^(x - y): neither exp can overflow.
    return _unary(a, lambda x: np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                  lambda g, x, y: g * np.exp(x - y))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.array(a.data.sum())

    def bw(g):
        if a.requires_grad:
            _accum(a, np.full_like(a.data, float(g)))

    return _make(out_data, (a,), bw)


def softmax_last_axis(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out_data = x - x.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            y = out_data
            _accum(a, (g - (g * y).sum(axis=-1, keepdims=True)) * y)

    return _make(out_data, (a,), bw)


NORM_EPS = 1e-5  # the variance floor of every norm


def _norm_stats(rows, out):
    """Per-channel mean and 1 / sqrt(variance + NORM_EPS) over the rows of (R, c).

    The squared deviations are formed in `out`, of rows' shape, which may be
    rows itself.
    """
    mean = rows.mean(axis=0)
    sq = np.subtract(rows, mean, out=out)
    sq *= sq
    return mean, 1.0 / np.sqrt(sq.mean(axis=0) + NORM_EPS)


def instance_norm(x, gamma=None, beta=None, act=None) -> Tensor:
    """Per-channel normalization over every non-channel axis, optional
    affine, then the activation `act`: None, "relu" or "leaky_relu".

    The network's one normalization: each call sees one scene, so its
    statistics are that scene's, in training and at inference alike. The
    output has the bits of `relu` (np.maximum(y, 0.0)) or `leaky_relu` of
    the normalized y, and is formed in one buffer, which first holds the
    squared deviations.

    The backward uses that dx is affine in the centred input. With gm the
    gradient at the activation's input, xc = x - mean, R rows and a = istd
    * gamma, per channel

        dx = a gm - (a istd^2 sum(gm xc) / R) xc - a sum(gm) / R,

    so it takes sum(gm) and sum(gm xc) as read-only reductions and never
    forms the normalized input; the gradient of gamma is istd sum(gm xc).
    ReLU's mask comes from its output, which is > 0 exactly where its input
    is. LeakyReLU's comes from its input: the forward keeps `keep = y >= 0`
    before it scales the negative cells in place, so a -0 input counts as
    kept and an input whose scaled value rounds to -0 does not, as in the
    unfused op. Gradients match the expression with one array per step to
    round-off, not bit for bit.
    """
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ValueError(f"instance_norm needs ndim >= 2, got {x.shape}")
    if act not in (None, "relu", "leaky_relu"):
        raise ValueError(f"instance_norm activation must be None, 'relu' or 'leaky_relu', "
                         f"got {act!r}")
    c = x.shape[-1]
    rows = x.data.reshape(-1, c)
    out_data = np.empty(x.shape, dtype=rows.dtype)
    y = out_data.reshape(-1, c)
    mean, istd = _norm_stats(rows, y)
    np.subtract(rows, mean, out=y)
    y *= istd
    if gamma is not None:
        gamma, beta = _as_tensor(gamma), _as_tensor(beta)
        y *= gamma.data
        y += beta.data
        inputs = (x, gamma, beta)
    else:
        inputs = (x,)
    if act == "relu":
        np.maximum(y, 0.0, out=y)
    elif act == "leaky_relu":
        keep = y >= 0.0
        np.maximum(y, LEAKY_SLOPE * y, out=y)

    def bw(g):
        g = g.reshape(-1, c)
        if act == "relu":
            gm = np.greater(y, 0.0, out=np.empty(y.shape, dtype=y.dtype))
            gm *= g
        elif act == "leaky_relu":
            # The bits of np.where(keep, g, g * LEAKY_SLOPE), as g * 1.0 is
            # g, at a fraction of np.where's cost on a random mask.
            gm = np.maximum(keep, LEAKY_SLOPE, dtype=y.dtype)
            gm *= g
        else:
            gm = g
        xc = np.subtract(rows, mean)
        s1 = gm.sum(axis=0)
        sx = np.einsum("rc,rc->c", gm, xc)
        if gamma is not None:
            if gamma.requires_grad:
                _accum(gamma, istd * sx)
            if beta.requires_grad:
                _accum(beta, s1)
        if x.requires_grad:
            a = istd if gamma is None else istd * gamma.data
            xc *= -(a * istd * istd) * (sx / len(rows))
            xc -= a * (s1 / len(rows))
            dx = np.multiply(gm, a, out=None if act is None else gm)
            dx += xc
            _accum(x, dx.reshape(x.data.shape))

    return _make(out_data, inputs, bw)


def norm_max(f, idx, weight, gamma, beta) -> Tensor:
    """The max path: the max over axis 1 of
    instance_norm(neighbor_linear(f, idx[:, :, None], weight), gamma, beta),
    for f (N, d) and idx (N, k), in one op that works in node space.

    Edge (i, p) is s_i - t_j, j = idx[i, p], with s = f @ (W1 + W2) and
    t = f @ W2. The norm is increasing per channel where gamma > 0 and
    decreasing where gamma < 0, so the output is the normalized edge
    s_i - t_j whose t_j is the smallest (gamma > 0) or largest (gamma < 0)
    over p. Ties go to the first such p, and where gamma == 0, where every
    edge normalizes to beta, to p = 0. That edge is normalized from its
    centred value s'_i - t'_j below.

    The statistics come from per-node sums, with indeg_j the in-degree of
    j. s and t are centred on their mean and indeg-weighted mean, each
    rounded to s's dtype, s' = s - s_m and t' = t - t_w; mu, the mean of the
    centred edges s'_i - t'_j, is what that rounding left (0 in float64).
    The edge mean is s_m - t_w + mu and the edge variance

        (k sum_i s'_i^2 - 2 sum_i s'_i T'_i + sum_j indeg_j t'_j^2) / (N k) - mu^2,

    T'_i = sum_p t'_j. The means and these sums accumulate in float64, so
    with u the unit round-off of s's dtype (2^-24 in float32), the only
    rounding they see is that of the centred buffers: s'_i and t'_j within
    u |s'_i| and u |t'_j|, T'_i within k^2 u max|t'|, all relative to the
    s and t the products give. So the variance is within a few k u (max|s'|
    + max|t'|)^2 of theirs, whatever offset s and t share: it cancels only
    where the edges' spread is small against the spread of s and t over the
    nodes. With R = (max|s'| + max|t'|)^2 / (variance + NORM_EPS) per
    channel, each normalized output xhat is within a few k u R (1 + |xhat|)
    of its exact value. A negative variance is taken as 0, so istd never
    exceeds 1 / sqrt(NORM_EPS).

    The backward uses that instance norm's edge gradient is istd gamma g at
    each output's edge plus a dense part a + b (s'_i - t'_j), with per-
    channel b = -istd^2 mean(gamma g xhat) and a = -istd mean(gamma g) - b mu
    over the N k edges. Summed over each node's out-edges and in-edges that
    needs T', one _scatter_add of s' over the in-edges and one bincount of
    istd gamma g into the chosen t_j. The (N, k, d) gather of t' lives only
    for its min and sum, and again in the backward to find the first
    minimizer; the tape keeps (N, d) arrays, and no squared deviations,
    normalized edges or dense edge gradient are formed.
    """
    f, weight = _as_tensor(f), _as_tensor(weight)
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 2:
        raise ValueError(f"norm_max needs idx (N,k), got {idx.shape}")
    w_self, w_nbr = _neighbor_weights(f, idx[:, :, None], weight)
    c = weight.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"norm_max needs gamma, beta ({c},), got {gamma.shape} "
                         f"and {beta.shape}")
    n, k = idx.shape
    s = f.data @ w_self
    t = f.data @ w_nbr
    dtype = s.dtype
    indeg = np.bincount(idx.ravel(), minlength=n).astype(dtype)
    s_mean = s.mean(axis=0, dtype=np.float64)
    t_mean = np.einsum("i,ic->c", indeg, t, dtype=np.float64) / (n * k)
    s_off, t_off = s_mean.astype(dtype), t_mean.astype(dtype)
    sc = s - s_off
    tc = t - t_off
    mu = (s_mean - s_off) - (t_mean - t_off)
    # Per (i, channel), the smallest sign * t'_j over p, j = idx[i, p], and
    # their sum; where gamma == 0, t'_j at p = 0. sign * best is that t'_j.
    sign = np.where(gamma.data < 0, -1.0, 1.0).astype(dtype)
    flipped = tc * sign
    gathered = flipped[idx]
    best = gathered.min(axis=1)
    total = gathered.sum(axis=1)
    del gathered
    zero = gamma.data == 0
    best[:, zero] = tc[idx[:, 0]][:, zero]
    total *= sign

    var = (k * np.einsum("ic,ic->c", sc, sc, dtype=np.float64)
           - 2.0 * np.einsum("ic,ic->c", sc, total, dtype=np.float64)
           + np.einsum("i,ic,ic->c", indeg, tc, tc, dtype=np.float64)) / (n * k) - mu * mu
    istd = (1.0 / np.sqrt(np.maximum(var, 0.0) + NORM_EPS)).astype(dtype)
    mu = mu.astype(dtype)
    xs = sc - sign * best
    xs -= mu
    xs *= istd
    out_data = xs * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xs).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0))
        if f.requires_grad or weight.requires_grad:
            top = g * (istd * gamma.data)
            b = -istd * (np.einsum("ic,ic->c", top, xs) / (n * k))
            a = -(top.sum(axis=0) / (n * k)) - b * mu
            g_self = top + k * a
            g_self += b * (k * sc - total)
            into = _scatter_add(sc, idx, n, fan_out=k)
            into -= indeg[:, None] * tc
            into *= b
            into += indeg[:, None] * a
            into += np.bincount((_first_at(flipped, idx, best) * c + np.arange(c)).ravel(),
                                weights=top.ravel(), minlength=n * c).reshape(n, c)
            _linear_backward(g_self, into, f, weight, w_self, w_nbr)

    return _make(out_data, (f, weight, gamma, beta), bw)


def _first_at(flipped, idx, best):
    """(N, c) node idx[i, p] of the first p at which flipped[idx[i, p], ch]
    equals best[i, ch] (p = k - 1 where none does, as with NaN)."""
    k = idx.shape[1]
    # k - p of the first p found is the largest k - p over the matching p.
    back = np.multiply(flipped[idx] == best[:, None, :],
                       np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]).max(axis=1)
    return np.take_along_axis(idx, k - np.maximum(back, 1, dtype=np.intp), axis=1)


def covariance_norm(x, weight, gamma, beta) -> Tensor:
    """relu(instance_norm(x @ weight, gamma, beta)) for a constant x (..., w)
    of few columns, over all R rows of x, from their w x w covariance.

    Centred, z = (x - mean(x)) @ weight has zero mean and per-channel
    variance diag(weight^T Sigma weight), Sigma = cov(x). With istd = 1 /
    sqrt(that + NORM_EPS), the output is relu((x - mean(x)) @ (weight * istd
    gamma) + beta): one (R, w) @ (w, d) product, and no (R, d) statistics
    pass. A variance that rounds below 0 is taken as 0.

    x is cast to the weight's dtype. The mean, the covariance and the
    variances accumulate in float64, so the only rounding they see is that
    of the centred input, relative u (2^-24 in float32) per entry: each
    variance is within about 2u |W|^T S |W| of the exact one, S = mean(|x -
    mean(x)| |x - mean(x)|^T), whatever the number of rows. It cancels only
    where a column of W leans on directions in which x hardly varies.

    Backward, with gz the gradient at the ReLU's input and H = (x -
    mean(x))^T gz: dW = gamma istd (H - istd^2 diag(W^T H) Sigma W),
    dgamma = istd diag(W^T H) and dbeta = sum(gz).
    """
    weight, gamma, beta = _as_tensor(weight), _as_tensor(gamma), _as_tensor(beta)
    x = np.asarray(x, dtype=weight.data.dtype)
    if x.ndim < 2 or weight.ndim != 2 or weight.shape[0] != x.shape[-1]:
        raise ValueError(f"covariance_norm shapes {x.shape} x {weight.shape}")
    if gamma.shape != weight.shape[1:] or beta.shape != weight.shape[1:]:
        raise ValueError(f"covariance_norm needs gamma, beta {weight.shape[1:]}, got "
                         f"{gamma.shape} and {beta.shape}")
    rows = x.reshape(-1, x.shape[-1])
    xc = rows - rows.mean(axis=0, dtype=np.float64).astype(x.dtype)
    sigma_w = (np.einsum("rv,rw->vw", xc, xc, dtype=np.float64) / len(rows)) @ weight.data
    istd = 1.0 / np.sqrt(np.maximum(np.einsum("wd,wd->d", weight.data, sigma_w), 0.0) + NORM_EPS)
    istd, sigma_w = istd.astype(x.dtype), sigma_w.astype(x.dtype)
    scale = istd * gamma.data
    out_data = xc @ (weight.data * scale)
    out_data += beta.data
    np.maximum(out_data, 0.0, out=out_data)

    def bw(g):
        gz = g.reshape(out_data.shape) * (out_data > 0.0)
        if beta.requires_grad:
            _accum(beta, gz.sum(axis=0))
        h = xc.T @ gz
        wh = np.einsum("wd,wd->d", weight.data, h)
        if gamma.requires_grad:
            _accum(gamma, istd * wh)
        if weight.requires_grad:
            _accum(weight, scale * (h - (istd * istd * wh) * sigma_w))

    return _make(out_data.reshape(*x.shape[:-1], -1), (weight, gamma, beta), bw)


def grouped_neighbor_conv(x, weight) -> Tensor:
    """The second stage of the annular and angle paths: one linear layer
    over all G groups of a node at once; no bias, as it feeds a norm.

    x is (N, G, d) and weight (G * d, d_out); the output, (N, d_out), is
    matmul(reshape(x, (N, G * d)), weight), bit for bit.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"grouped_neighbor_conv needs (N,G,d), got {x.shape}")
    n, groups, d = x.shape
    return matmul(reshape(x, (n, groups * d)), weight)


def neighbor_linear(f, idx, weight) -> Tensor:
    """Linear layer over windows of edge features, without building them;
    no bias, as it feeds a norm.

    f is (N, d) and idx is (N, G, width). Window (i, G) is the concatenation
    over p of [f_i, f_i - f_j] with j = idx[i, G, p], and weight has the
    matching ((width * 2d), d_out) row layout: rows [W1_p; W2_p] per p. The
    output is (N, G, d_out). Because the layer is linear,

        window @ weight = f_i @ sum_p (W1_p + W2_p) - sum_p f_j @ W2_p,

    so the forward pass is two products of f and one d_out-wide gather per
    window position, and the backward pass one scatter-add over all
    positions and two products with f.T; the (N, G, width * 2d) windows
    never exist.
    """
    f, weight = _as_tensor(f), _as_tensor(weight)
    idx = np.asarray(idx, dtype=np.intp)
    w_self, w_nbr = _neighbor_weights(f, idx, weight)
    n = f.shape[0]
    _, groups, width = idx.shape
    d_out = weight.shape[1]
    nbr = (f.data @ w_nbr).reshape(n, width, d_out)
    out_data = np.repeat((f.data @ w_self)[:, None, :], groups, axis=1)
    for p in range(width):
        out_data -= nbr[idx[:, :, p], p]

    def bw(g):
        # Row (j, p) of g_nbr sums g[i, G] over the windows with idx[i, G, p] = j.
        g_nbr = _scatter_add(g.reshape(-1, d_out), idx * width + np.arange(width),
                             n * width, fan_out=width).reshape(n, width * d_out)
        _linear_backward(g.sum(axis=1), g_nbr, f, weight, w_self, w_nbr)

    return _make(out_data, (f, weight), bw)


def _neighbor_weights(f, idx, weight):
    """Check neighbor_linear's f, idx and weight and split the weight into
    w_self = sum_p (W1_p + W2_p), (d, d_out), and w_nbr = [W2_0 | W2_1 | ...],
    (d, width * d_out)."""
    if f.ndim != 2 or idx.ndim != 3 or idx.shape[0] != f.shape[0]:
        raise ValueError(f"neighbor_linear needs f (N,d) and idx (N,G,width), "
                         f"got {f.shape} and {idx.shape}")
    d = f.shape[1]
    width = idx.shape[2]
    if weight.ndim != 2 or weight.shape[0] != width * 2 * d:
        raise ValueError(f"neighbor_linear weight expects {width * 2 * d} rows, got "
                         f"{weight.shape}")
    d_out = weight.shape[1]
    w = weight.data.reshape(width, 2, d, d_out)
    return w.sum(axis=(0, 1)), w[:, 1].transpose(1, 0, 2).reshape(d, width * d_out)


def _linear_backward(g_self, g_nbr, f, weight, w_self, w_nbr):
    """Hand neighbor_linear's inputs their gradients, given g_self (N, d_out),
    the gradient of f @ w_self, and g_nbr (N, width * d_out), that of the
    subtracted f @ w_nbr."""
    d = f.shape[1]
    width = g_nbr.shape[1] // g_self.shape[1]
    d_out = weight.shape[1]
    if f.requires_grad:
        _accum(f, g_self @ w_self.T - g_nbr @ w_nbr.T)
    if weight.requires_grad:
        gw_self = f.data.T @ g_self
        gw_nbr = (f.data.T @ g_nbr).reshape(d, width, d_out).transpose(1, 0, 2)
        gw = np.empty((width, 2, d, d_out), dtype=weight.data.dtype)
        gw[:, 0] = gw_self
        gw[:, 1] = gw_self - gw_nbr
        _accum(weight, gw.reshape(weight.shape))


def _squared_distances(a, b):
    """(sq, exact): squared distances of the rows of a (M,d) and b (N,d).

    sq is |a_i|^2 + |b_j|^2 - 2 a_i.b_j, one BLAS product and two row norms,
    except in the cells flagged in `exact`: those whose Gram value falls
    below _CANCEL of |a_i|^2 + |b_j|^2, and those that are NaN or inf. They
    are recomputed as the contiguous sum of their squared differences, the
    bits of ((a[:, None] - b[None]) ** 2).sum(-1), in chunks of
    _block_rows(d) cells.
    """
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    # Non-finite cells only flag themselves here; the exact recompute warns
    # where the difference form would.
    with np.errstate(invalid="ignore", over="ignore"):
        norms = na[:, None] + nb
        sq = a @ b.T
        sq *= -2.0
        sq += norms
        norms *= _CANCEL
        exact = ~(sq >= norms) | (sq == np.inf)
    rows, cols = np.nonzero(exact)
    step = _block_rows(a.shape[1])
    for s in range(0, len(rows), step):
        i, j = rows[s:s + step], cols[s:s + step]
        diff = a[i]
        diff -= b[j]
        diff *= diff
        sq[i, j] = diff.sum(axis=-1)
    return sq, exact


def pairwise_l2(a, b) -> Tensor:
    """D[i,j] = ||a_i - b_j||_2 for row collections a (M,d), b (N,d).

    Squared distances come from `_squared_distances`: the Gram form, with
    every cell that cancels below _CANCEL of its norms (or is NaN or inf)
    recomputed from its differences with the bits of the whole-tensor
    expression. Every other cell is within a relative (d + 2) u / _CANCEL
    of that expression, u = 2^-53, while squares stay in float64's normal
    range. A BLAS product's bits may depend on where a row sits, so
    permuting the rows permutes D only up to round-off.

    The op widens float32 inputs to float64, so D and everything after it
    (the dustbins, Sinkhorn, the losses) is float64, and `_accum` narrows
    the inputs' gradients back to their dtype.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"pairwise_l2 shapes {a.shape} x {b.shape}")
    a64, b64 = a.data.astype(np.float64, copy=False), b.data.astype(np.float64, copy=False)
    out_data = np.sqrt(_squared_distances(a64, b64)[0])

    def bw(g):
        coef = g / np.maximum(out_data, 1e-12)
        if a.requires_grad:
            _accum(a, coef.sum(axis=1)[:, None] * a64 - coef @ b64)
        if b.requires_grad:
            _accum(b, coef.sum(axis=0)[:, None] * b64 - coef.T @ a64)

    return _make(out_data, (a, b), bw)
