"""Dense float64 tensors with taped reverse-mode differentiation.

Covers exactly what the matching network needs: 2D matmul, elementwise
arithmetic with trailing-axis / singleton-axis broadcasting for affine
parameters, concat/reshape/gather, activations, instance and batch
normalization, softmax, axis max, and log-sum-exp.

Reductions that run across points (normalization statistics, the softmax
denominator, matmul contractions) sum their addends in ascending value
order, so forward results are a function of the input multiset only.
Together with the fact that numpy elementwise ops are per-element, this
makes the network forward bit-exactly equivariant under input permutation.
Backward passes use plain BLAS; gradients only need finite-difference
accuracy, not bit stability.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeMismatch(Exception):
    pass


class NonScalarLoss(Exception):
    pass


_LOCAL = threading.local()

# Verification-harness hook: when set, matmul deliberately corrupts its
# weight-side gradient by this factor so the finite-difference checker can
# prove it detects broken backward rules.
_BACKWARD_FAULT = None


def inject_backward_fault(scale):
    """Install (or clear with None) a deliberate matmul-backward corruption."""
    global _BACKWARD_FAULT
    _BACKWARD_FAULT = scale


def _tape_stack():
    if not hasattr(_LOCAL, "stack"):
        _LOCAL.stack = []
    return _LOCAL.stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed ops; backward replays it exactly once in reverse."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def record(self, backward_fn):
        self._records.append(backward_fn)

    def __len__(self):
        return len(self._records)

    def backward(self, loss):
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {loss.shape}")
        _accum(loss, np.ones_like(loss.data))
        for fn in reversed(self._records):
            fn()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        # Leaves carry a zero grad buffer so untouched parameters read as
        # zero gradient; op outputs allocate lazily on first accumulation.
        self.grad = np.zeros_like(arr) if requires_grad else None

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
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _make(out_data, inputs, backward_builder):
    """Wrap op output; record backward closure if a tape is active."""
    tape = _active_tape()
    req = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, req)
    if req:
        tape.record(backward_builder(out))
    return out


def sorted_sum(x, axis):
    """Sum along axis in ascending value order (permutation invariant)."""
    return np.sort(x, axis=axis).sum(axis=axis)


def _stable_matmul(a, b):
    """a @ b with per-element fixed-order contraction (bit row-stable).

    BLAS edge kernels can round a row differently depending on where it sits
    in the matrix; unoptimized einsum contracts every element with the same
    left-to-right loop, independent of row position.
    """
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def matmul(a, b, stable_points_axis=False) -> Tensor:
    """2D matrix product.

    stable_points_axis=True additionally sorts the contraction addends by
    value; use it when the contracted axis enumerates points (attention
    messages), where mere fixed order is not permutation invariant.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul shapes {a.shape} x {b.shape}")
    if stable_points_axis:
        out_data = sorted_sum(a.data[:, :, None] * b.data[None, :, :], axis=1)
    else:
        out_data = _stable_matmul(a.data, b.data)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                gb = a.data.T @ g
                if _BACKWARD_FAULT is not None:
                    gb = gb * _BACKWARD_FAULT
                _accum(b, gb)
        return bw

    return _make(out_data, (a, b), build)


def transpose2d(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose2d needs a matrix, got {a.shape}")
    out_data = np.ascontiguousarray(a.data.T)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, g.T)
        return bw

    return _make(out_data, (a,), build)


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
    raise ShapeMismatch(f"cannot broadcast {b_shape} onto {a_shape}")


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

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, da_fn(g, a.data, b.data))
            if b.requires_grad:
                _accum(b, _reduce_to_shape(db_fn(g, a.data, b.data), b.data.shape))
        return bw

    return _make(out_data, (a, b), build)


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

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, g * s)
        return bw

    return _make(out_data, (a,), build)


def concat_last_axis(*tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if len(tensors) < 2:
        raise ShapeMismatch("concat_last_axis needs at least two tensors")
    lead = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.shape[:-1] != lead:
            raise ShapeMismatch(
                f"concat_last_axis leading shapes differ: {[t.shape for t in tensors]}")
    widths = [t.data.shape[-1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            off = 0
            for t, w in zip(tensors, widths):
                if t.requires_grad:
                    _accum(t, g[..., off:off + w])
                off += w
        return bw

    return _make(out_data, tuple(tensors), build)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, g.reshape(a.data.shape))
        return bw

    return _make(out_data, (a,), build)


def gather_rows(a, idx) -> Tensor:
    """out[...] = a[idx[...]] along axis 0; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                da = np.zeros_like(a.data)
                np.add.at(da, idx, g)
                _accum(a, da)
        return bw

    return _make(out_data, (a,), build)


def gather_pairs(a, rows, cols) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"gather_pairs needs a matrix, got {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape:
        raise ShapeMismatch("gather_pairs index shapes differ")
    out_data = a.data[rows, cols]

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                da = np.zeros_like(a.data)
                np.add.at(da, (rows, cols), g)
                _accum(a, da)
        return bw

    return _make(out_data, (a,), build)


def _unary(a, fwd, dfn):
    a = _as_tensor(a)
    out_data = fwd(a.data)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, dfn(g, a.data, out.data))
        return bw

    return _make(out_data, (a,), build)


def leaky_relu(a, slope=0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0,1), got {slope}")
    return _unary(a, lambda x: np.where(x >= 0.0, x, slope * x),
                  lambda g, x, y: g * np.where(x >= 0.0, 1.0, slope))


def relu(a) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def sigmoid(a) -> Tensor:
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda g, x, y: g * y * (1.0 - y))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a) -> Tensor:
    return _unary(a, np.log, lambda g, x, y: g / x)


def clamp_min(a, floor: float) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, floor), lambda g, x, y: g * (x >= floor))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.array(a.data.sum())

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _accum(a, np.full_like(a.data, float(g)))
        return bw

    return _make(out_data, (a,), build)


def softmax_last_axis(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    denom = sorted_sum(e, axis=-1)[..., None]
    out_data = e / denom

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                y = out.data
                _accum(a, (g - (g * y).sum(axis=-1, keepdims=True)) * y)
        return bw

    return _make(out_data, (a,), build)


def max_over_axis(a, axis):
    """(values, argmax) over axis; gradient goes to the first maximizer."""
    a = _as_tensor(a)
    arg = a.data.argmax(axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(arg, axis), axis).squeeze(axis)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                da = np.zeros_like(a.data)
                np.put_along_axis(da, np.expand_dims(arg, axis),
                                  np.expand_dims(g, axis), axis)
                _accum(a, da)
        return bw

    return _make(out_data, (a,), build), arg


def logsumexp_over_axis(a, axis) -> Tensor:
    # Plain sums: only Sinkhorn uses this, outside the bit-exact
    # permutation-equivariance boundary of the network forward.
    a = _as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis)
    out_data = np.squeeze(m, axis) + np.log(s)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                soft = e / np.expand_dims(s, axis)
                _accum(a, np.expand_dims(g, axis) * soft)
        return bw

    return _make(out_data, (a,), build)


def _channel_stats(x):
    """Mean/variance per trailing channel over all other axes, sorted sums."""
    c = x.shape[-1]
    xr = x.reshape(-1, c)
    n = xr.shape[0]
    mu = sorted_sum(xr, axis=0) / n
    d = xr - mu
    var = sorted_sum(d * d, axis=0) / n
    return mu, var, n


def instance_norm(x, gamma=None, beta=None, eps=1e-5) -> Tensor:
    """Per-channel normalization over every non-channel axis, optional affine."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeMismatch(f"instance_norm needs ndim >= 2, got {x.shape}")
    mu, var, n = _channel_stats(x.data)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * istd
    if gamma is not None:
        gamma, beta = _as_tensor(gamma), _as_tensor(beta)
        out_data = xhat * gamma.data + beta.data
        inputs = (x, gamma, beta)
    else:
        out_data = xhat
        inputs = (x,)

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            c = x.data.shape[-1]
            gf = g.reshape(-1, c)
            xh = xhat.reshape(-1, c)
            if gamma is not None:
                if gamma.requires_grad:
                    _accum(gamma, (gf * xh).sum(axis=0))
                if beta.requires_grad:
                    _accum(beta, gf.sum(axis=0))
                dxhat = gf * gamma.data
            else:
                dxhat = gf
            if x.requires_grad:
                dx = istd * (dxhat - dxhat.mean(axis=0)
                             - xh * (dxhat * xh).mean(axis=0))
                _accum(x, dx.reshape(x.data.shape))
        return bw

    return _make(out_data, inputs, build)


class BatchNormState:
    """Running statistics for one batch-norm layer (per trailing channel)."""

    def __init__(self, mean, var, count):
        self.mean = mean
        self.var = var
        self.count = count  # 1-element array so it serializes like a buffer

    @classmethod
    def fresh(cls, channels):
        return cls(np.zeros(channels), np.ones(channels), np.zeros(1))

    @property
    def initialized(self):
        return self.count[0] > 0.0


def batch_norm_1d(x, gamma, beta, state: BatchNormState, eps=1e-5,
                  momentum=0.1, training=True, update_stats=True) -> Tensor:
    """Batch normalization over all non-channel axes.

    Training mode normalizes with batch statistics (and optionally folds them
    into the running buffers); eval mode uses the running statistics when any
    exist and otherwise falls back to batch statistics without updating.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim < 2:
        raise ShapeMismatch(f"batch_norm_1d needs ndim >= 2, got {x.shape}")

    use_running = (not training) and state.initialized
    if use_running:
        istd = 1.0 / np.sqrt(state.var + eps)
        xhat = (x.data - state.mean) * istd
    else:
        mu, var, _ = _channel_stats(x.data)
        istd = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu) * istd
        if training and update_stats:
            state.mean[...] = (1.0 - momentum) * state.mean + momentum * mu
            state.var[...] = (1.0 - momentum) * state.var + momentum * var
            state.count[0] += 1.0
    out_data = xhat * gamma.data + beta.data

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            c = x.data.shape[-1]
            gf = g.reshape(-1, c)
            xh = xhat.reshape(-1, c)
            if gamma.requires_grad:
                _accum(gamma, (gf * xh).sum(axis=0))
            if beta.requires_grad:
                _accum(beta, gf.sum(axis=0))
            if x.requires_grad:
                dxhat = gf * gamma.data
                if use_running:
                    dx = dxhat * istd
                else:
                    dx = istd * (dxhat - dxhat.mean(axis=0)
                                 - xh * (dxhat * xh).mean(axis=0))
                _accum(x, dx.reshape(x.data.shape))
        return bw

    return _make(out_data, (x, gamma, beta), build)


def grouped_neighbor_conv(x, width: int, weight, bias) -> Tensor:
    """Non-overlapping convolution along the neighbor axis.

    (N, k, d_in) -> (N, k/width, d_out); each output position sees one window
    of `width` consecutive distance-sorted neighbors across all channels.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"grouped_neighbor_conv needs (N,k,d), got {x.shape}")
    n, k, d = x.shape
    if width <= 0 or k % width != 0:
        raise ShapeMismatch(f"neighbor axis {k} not divisible by kernel width {width}")
    weight = _as_tensor(weight)
    if weight.shape[0] != width * d:
        raise ShapeMismatch(
            f"conv weight expects input width {width * d}, got {weight.shape[0]}")
    groups = k // width
    flat = reshape(x, (n * groups, width * d))
    y = add(matmul(flat, weight), bias)
    return reshape(y, (n, groups, weight.shape[1]))


def pairwise_l2(a, b) -> Tensor:
    """D[i,j] = ||a_i - b_j||_2 for row collections a (M,d), b (N,d)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"pairwise_l2 shapes {a.shape} x {b.shape}")
    diff = a.data[:, None, :] - b.data[None, :, :]
    out_data = np.sqrt((diff * diff).sum(axis=-1))

    def build(out):
        def bw():
            g = out.grad
            if g is None:
                return
            coef = g / np.maximum(out.data, 1e-12)
            if a.requires_grad:
                _accum(a, coef.sum(axis=1)[:, None] * a.data - coef @ b.data)
            if b.requires_grad:
                _accum(b, coef.sum(axis=0)[:, None] * b.data - coef.T @ a.data)
        return bw

    return _make(out_data, (a, b), build)
