import tracemalloc
import warnings

import numpy as np
import pytest

from a2match import autodiff as ad
from a2match.autodiff import Tape, Tensor, constant


def fd_grad(fn, x: np.ndarray, h=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x)
    for idx in range(x.size):
        orig = x.flat[idx]
        x.flat[idx] = orig + h
        fp = fn()
        x.flat[idx] = orig - h
        fm = fn()
        x.flat[idx] = orig
        g.flat[idx] = (fp - fm) / (2 * h)
    return g


def check_op(build, params, rtol=1e-6):
    """Assert analytic gradients of sum(build()) match finite differences.

    Differences below 1e-8 are FD truncation noise and count as agreement.
    """
    for p in params:
        p.grad = np.zeros_like(p.data)
    with Tape() as tape:
        out = build()
        loss = ad.sum_all(out)
        tape.backward(loss)
    for p in params:
        num = fd_grad(lambda: float(ad.sum_all(build()).data), p.data)
        diff = np.abs(p.grad - num)
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(num)), 1e-300)
        rel = np.where(diff <= 1e-8, 0.0, diff / denom)
        assert np.max(rel) < max(rtol, 1e-3), f"grad mismatch: {p.grad} vs {num}"


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_matmul_identity():
    x = np.arange(12, dtype=float).reshape(3, 4)
    out = ad.matmul(constant(np.eye(3)), constant(x))
    assert np.array_equal(out.data, x)


def test_add_zero_and_shape_errors():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(ad.add(constant(x), constant(np.zeros((2, 3)))).data, x)
    with pytest.raises(ValueError, match="cannot broadcast"):
        ad.add(constant(np.zeros((2, 3))), constant(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="matmul shapes"):
        ad.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_concat_block_structure():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    out = ad.concat_last_axis(constant(a), constant(b))
    assert out.shape == (5, 7)
    assert np.array_equal(out.data[:, :3], a)
    assert np.array_equal(out.data[:, 3:], b)


def test_leaky_relu_values_and_gradient():
    assert ad.leaky_relu(constant(np.array([2.0]))).data[0] == 2.0
    assert ad.leaky_relu(constant(np.array([-1.0]))).data[0] == -0.2
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.leaky_relu(x))
        tape.backward(loss)
    num = fd_grad(lambda: float(ad.sum_all(ad.leaky_relu(x)).data), x.data)
    assert abs(x.grad[0] - 0.2) < 1e-12
    assert abs(x.grad[0] - num[0]) < 1e-6


def test_leaky_relu_is_the_where_form_bit_for_bit():
    # max(x, slope * x) against where(x >= 0, x, slope * x) on signed zeros,
    # infinities, NaN, subnormals and values whose product rounds to x.
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, -1e-320,
                  -2.2250738585072014e-308, 1.5, -1.5, -1e300, 1e-300])
    got = ad.leaky_relu(constant(x)).data
    expect = np.where(x >= 0.0, x, ad.LEAKY_SLOPE * x)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_instance_norm_constant_column_collapses_to_zero():
    x = constant(np.full((7, 3), 4.2))
    out = ad.instance_norm(x)
    assert np.allclose(out.data, 0.0)


def test_instance_norm_two_point_column():
    out = ad.instance_norm(constant(np.array([[-1.0], [1.0]])))
    assert np.allclose(out.data, np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + 1e-5), atol=1e-9)


def test_instance_norm_contract_on_random_data():
    rng = np.random.default_rng(1)
    out = ad.instance_norm(constant(rng.standard_normal((64, 5))))
    assert np.max(np.abs(out.data.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.data.var(axis=0) - 1.0)) < 1e-4


def test_instance_norm_gradcheck():
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, (6, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = rand_tensor(rng, (4,))
    check_op(lambda: ad.instance_norm(x, gamma, beta), [x, gamma, beta], rtol=1e-4)


def test_softmax_uniform_rows_and_sums():
    out = ad.softmax_last_axis(constant(np.zeros((3, 5))))
    assert np.allclose(out.data, 0.2)
    rng = np.random.default_rng(5)
    out = ad.softmax_last_axis(constant(rng.standard_normal((6, 9))))
    assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12


def _max_over_axis_1(a):
    """Values at argmax over axis 1, gradient to the first maximizer: the max
    the network took over its normalized edges before `norm_max`."""
    a = ad._as_tensor(a)
    arg = a.data.argmax(axis=1)[:, None]

    def bw(g):
        if a.requires_grad:
            da = np.zeros_like(a.data)
            np.put_along_axis(da, arg, g[:, None], axis=1)
            ad._accum(a, da)

    return ad._make(np.take_along_axis(a.data, arg, axis=1)[:, 0], (a,), bw)


def _out_and_grads(build, arrays, g):
    """Output of build(*leaves) and each leaf's gradient of sum(out * g), as
    the backward hands them over. A new Tensor holds no grad, so nothing
    adds the addends to a zero grad, which would turn each -0 into +0."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
    with Tape() as tape:
        out = build(*leaves)
        tape.backward(ad.sum_all(ad.mul(out, constant(g))))
    return [out.data] + [t.grad for t in leaves]


def _assert_same_bits(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a is not None and b is not None
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _max_path_oracle(idx):
    """The unfused max path: edge linear layer, norm over all edges, max."""
    def build(f, weight, gamma, beta):
        h = ad.neighbor_linear(f, idx[:, :, None], weight)
        return _max_over_axis_1(ad.instance_norm(h, gamma, beta))
    return build


def _max_path_fused(idx):
    """norm_max with the oracle's arguments."""
    return lambda f, weight, gamma, beta: ad.norm_max(f, idx, weight, gamma, beta)


# The fused norms take their statistics and gradients from per-channel sums,
# in another order than the oracles, so they agree to round-off: each entry
# within _NORM_RTOL of the largest magnitude of its channel. The sums run
# over at most 576 edges or 18 rows, so that allows a few hundred ulps.
_NORM_RTOL = 1e-12


def _assert_close(got, ref, rtol):
    """Each array of got within rtol of ref's, per channel (last axis): every
    entry within rtol times the largest |ref| of its channel (of the whole
    array when it is 1-D), plus 1e-300 for the channels whose scale is
    subnormal (gamma = 5e-324), which carry no relative precision."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a is not None and b is not None
        assert a.shape == b.shape
        scale = np.abs(b).max(axis=tuple(range(b.ndim - 1)))
        assert np.all(np.abs(a - b) <= rtol * scale + 1e-300)


def _assert_max_path_matches_oracle(f, idx, weight, gamma, beta, g):
    """norm_max's output and gradients within _NORM_RTOL of the oracle's."""
    arrays = (f, weight, gamma, beta)
    got = _out_and_grads(_max_path_fused(idx), arrays, g)
    ref = _out_and_grads(_max_path_oracle(idx), arrays, g)
    _assert_close(got, ref, _NORM_RTOL)


@pytest.mark.parametrize("n,k,d", [(6, 4, 5), (64, 9, 16)])
def test_norm_max_equals_max_of_instance_norm_bit_for_bit(n, k, d):
    rng = np.random.default_rng(n)
    d_in = 3
    f = rng.standard_normal((n, d_in))
    f[:, 0] = np.round(2 * f[:, 0])
    idx = rng.integers(0, n, (n, k))
    idx[1, 2] = idx[1, 0]       # two edges of one row tie in every channel
    idx[3, :] = idx[3, 0]       # a row whose edges all tie
    weight = rng.standard_normal((2 * d_in, d))
    weight[d_in:, 1] = 0.0      # t = 0: every row of channel 1 ties
    weight[:, 2] = 0.0          # channel 2 holds the integer f_i0 - f_j0
    weight[d_in, 2] = 1.0
    gamma = rng.standard_normal(d)
    gamma[::2] = -np.abs(gamma[::2])
    gamma[3] = 0.0
    beta = rng.standard_normal(d)
    g = rng.standard_normal((n, d))
    _assert_max_path_matches_oracle(f, idx, weight, gamma, beta, g)


def test_norm_max_where_the_edge_variance_cancels():
    # Every neighbor of node i is i itself and W1 = 0, so every edge is
    # f_i W2 - f_i W2 = 0, with f_i W2 near 1e6. The per-node sums of squares
    # are near 1e13 and the variance they give cancels to about 1e-3 either
    # side of 0, below -eps in some channels; it is taken as 0 there, so istd
    # stays within 1 / sqrt(eps).
    rng = np.random.default_rng(14)
    n, k, d_in, d = 7, 3, 2, 4
    f = 1e6 * rng.standard_normal((n, d_in))
    idx = np.repeat(np.arange(n)[:, None], k, axis=1)
    weight = rng.standard_normal((2 * d_in, d))
    weight[:d_in] = 0.0
    gamma, beta = np.array([1.3, -0.6, 0.0, 2.0]), rng.standard_normal(d)
    g = rng.standard_normal((n, d))
    out, g_f, g_w, g_gamma, g_beta = _out_and_grads(
        lambda f, weight, gamma, beta: ad.norm_max(f, idx, weight, gamma, beta),
        (f, weight, gamma, beta), g)
    # The edge mean, and so each edge's distance from it, is within a few
    # ulps of |f_i W2|.
    size = np.abs(f @ weight[d_in:]).max(axis=0)
    assert np.all(np.abs(out - beta) <= 1e-15 * size * np.abs(gamma) / np.sqrt(ad.NORM_EPS))
    assert all(np.all(np.isfinite(x)) for x in (g_f, g_w, g_gamma))
    assert np.array_equal(g_beta, g.sum(axis=0))


def test_norm_max_float32_within_its_bound_under_a_common_offset():
    # s and t share an offset near 1e3 and spread about 1 over the nodes.
    # Inputs and weights are multiples of 1/8 below 2^10, so the products are
    # exact in float32 and the float32 and float64 ops see the same s and t;
    # all that differs is the op's own rounding. Its docstring bounds each
    # normalized output within a few k u R (1 + |xhat|), u = 2^-24 and R =
    # (max|s'| + max|t'|)^2 / (variance + NORM_EPS) per channel, which 4 k u
    # R (1 + |xhat|) covers; the op stays within 0.3% of it. Centred on
    # float32 means, with float32 sums of the raw t, it was off by 1.1e-4
    # here, 2.4 times that bound.
    rng = np.random.default_rng(41)
    n, k, d_in, c = 48, 9, 8, 6
    f = np.round(rng.standard_normal((n, d_in)) * 8) / 8
    f[:, 0] = 1000.0
    idx = rng.integers(0, n, (n, k))
    weight = np.round(rng.standard_normal((2 * d_in, c)) * 2) / 8
    weight[0], weight[d_in] = 0.0, 1.0     # W1 and W2 rows of the offset column
    gamma = np.array([1.0, -1.0, 0.5, -0.5, 2.0, 0.0])
    beta = np.zeros(c)
    out32, out64 = (ad.norm_max(constant(f.astype(dt)), idx, constant(weight.astype(dt)),
                                constant(gamma.astype(dt)), constant(beta.astype(dt))).data
                    for dt in (np.float32, np.float64))
    assert out32.dtype == np.float32
    w_self = weight[:d_in] + weight[d_in:]
    s, t = f @ w_self, f @ weight[d_in:]
    assert np.abs(s - 1000.0).max() < 8 and np.abs(t - 1000.0).max() < 8
    edges = s[:, None, :] - t[idx]
    indeg = np.bincount(idx.ravel(), minlength=n)
    spread = np.abs(s - s.mean(axis=0)).max(axis=0) + np.abs(t - indeg @ t / (n * k)).max(axis=0)
    r = spread ** 2 / (edges.var(axis=(0, 1)) + ad.NORM_EPS)
    xhat = np.divide(out64, gamma, out=np.zeros_like(out64), where=gamma != 0)
    bound = 4 * k * 2.0 ** -24 * r * (1 + np.abs(xhat)) * np.abs(gamma)
    assert np.all(np.abs(out32 - out64) <= bound)


def test_norm_max_one_hot_gradient():
    # Each (row, channel) output sends one unit to beta and its normalized
    # maximum to gamma; a negative gamma turns the maximum into the raw minimum.
    rng = np.random.default_rng(6)
    f, idx = rng.standard_normal((4, 2)), rng.integers(0, 4, (4, 7))
    weight = rng.standard_normal((4, 3))
    gamma, beta = np.array([1.5, -0.5, 0.0]), np.zeros(3)
    out, *_, g_gamma, g_beta = _out_and_grads(
        _max_path_fused(idx), (f, weight, gamma, beta), np.ones((4, 3)))
    assert np.array_equal(g_beta, [4.0, 4.0, 4.0])
    edges = ad.neighbor_linear(constant(f), idx[:, :, None], constant(weight))
    xhat = ad.instance_norm(edges).data
    # Where gamma is 0 every edge ties, so the first one is the maximizer.
    picked = np.stack([xhat[..., 0].max(axis=1), xhat[..., 1].min(axis=1), xhat[:, 0, 2]], 1)
    np.testing.assert_allclose(out, picked * gamma, rtol=1e-12)
    np.testing.assert_allclose(g_gamma, picked.sum(axis=0), rtol=1e-12)


def test_norm_max_tie_goes_to_lowest_index():
    # Row 0's edges 0 and 1 come from nodes 0 and 1, which tie; the gradient
    # takes edge 0 as the max, as if the loss read the normalized edges at
    # p = 0 alone, and not at p = 1.
    f = np.array([[1.0], [1.0], [0.5]])
    idx = np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    weight, one = np.array([[1.0], [-1.0]]), np.ones(1)
    arrays = (f, weight, one, one)

    def edge_norm(p):
        g = np.zeros((3, 3, 1))
        g[:, p] = 1.0
        build = lambda f, w, ga, be: ad.instance_norm(
            ad.neighbor_linear(f, idx[:, :, None], w), ga, be)
        return _out_and_grads(build, arrays, g)[1:]

    got = _out_and_grads(_max_path_fused(idx), arrays, np.ones((3, 1)))[1:]
    first, second = edge_norm(0), edge_norm(1)
    _assert_close(got, first, _NORM_RTOL)
    assert np.abs(got[0] - second[0]).max() > 0.1


def test_norm_max_gradcheck():
    rng = np.random.default_rng(9)
    f = rand_tensor(rng, (5, 2))
    idx = rng.integers(0, 5, (5, 4))
    weight = rand_tensor(rng, (4, 3))
    gamma = Tensor(np.array([1.2, -0.7, 0.4]), requires_grad=True)
    beta = rand_tensor(rng, (3,))
    check_op(lambda: ad.norm_max(f, idx, weight, gamma, beta),
             [f, weight, gamma, beta], rtol=1e-4)
    with pytest.raises(ValueError, match=r"norm_max needs idx \(N,k\)"):
        ad.norm_max(f, idx[:, :, None], weight, gamma, beta)
    with pytest.raises(ValueError, match="norm_max needs gamma, beta"):
        ad.norm_max(f, idx, weight, constant(np.ones(2)), beta)


def _relu_op(a):
    """ReLU as the network applied it after instance_norm before the fusion."""
    return ad._unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def _leaky_relu_op(a):
    """LeakyReLU(0.2) as the network applied it before the fusion."""
    return ad._unary(a, lambda x: np.where(x >= 0.0, x, 0.2 * x),
                     lambda g, x, y: g * np.where(x >= 0.0, 1.0, 0.2))


def _norm_case():
    """(x, gamma, beta, g) for the instance_norm bit tests. Per channel:
    gammas of both zero signs, tiny and negative, betas of both zero signs
    (so pre-activations of exactly +-0), and gradient columns of zeros of
    either sign, on a 3D (N, G, c) input with a constant channel (it
    normalizes to zeros) and an integer-valued one."""
    rng = np.random.default_rng(21)
    gammas = [0.0, -0.0, -0.7, 5e-324, 1.3]
    betas = [0.0, -0.0, 0.4, -0.4]
    grads = [rng.standard_normal((6, 3)), np.zeros((6, 3)), np.full((6, 3), -0.0)]
    combos = [(ga, be, gr) for ga in gammas for be in betas for gr in range(len(grads))]
    c = len(combos)
    x = rng.standard_normal((6, 3, c))
    x[:, :, 1] = 2.5
    x[:, :, 2] = np.round(x[:, :, 2])
    gamma = np.array([ga for ga, _, _ in combos])
    beta = np.array([be for _, be, _ in combos])
    g = np.stack([grads[gr] for _, _, gr in combos], axis=-1)
    return x, gamma, beta, g


def _instance_norm_unshared(x, gamma=None, beta=None, act=None):
    """instance_norm's output with the textbook backward, one expression per
    step and a fresh array each: the oracle of the op's affine backward."""
    x = ad._as_tensor(x)
    c = x.shape[-1]
    rows = x.data.reshape(-1, c)
    mean, istd = ad._norm_stats(rows, np.empty_like(rows))
    if gamma is None:
        inputs = (x,)
        out_data = ad.instance_norm(constant(x.data), act=act).data
    else:
        gamma, beta = ad._as_tensor(gamma), ad._as_tensor(beta)
        inputs = (x, gamma, beta)
        out_data = ad.instance_norm(constant(x.data), constant(gamma.data),
                                    constant(beta.data), act).data

    def bw(g):
        xh = (rows - mean) * istd
        gf = g.reshape(-1, c)
        if act is not None:
            pre = xh if gamma is None else xh * gamma.data + beta.data
            if act == "relu":
                gf = gf * (pre > 0.0)
            else:
                gf = gf * np.where(pre >= 0.0, 1.0, ad.LEAKY_SLOPE)
        dxhat = gf
        if gamma is not None:
            if gamma.requires_grad:
                ad._accum(gamma, (gf * xh).sum(axis=0))
            if beta.requires_grad:
                ad._accum(beta, gf.sum(axis=0))
            dxhat = gf * gamma.data
        if x.requires_grad:
            dx = istd * (dxhat - dxhat.mean(axis=0) - xh * (dxhat * xh).mean(axis=0))
            ad._accum(x, dx.reshape(x.data.shape))

    return ad._make(out_data, inputs, bw)


@pytest.mark.parametrize("act", [None, "relu", "leaky_relu"])
@pytest.mark.parametrize("affine", [True, False])
def test_instance_norm_backward_has_the_bits_of_the_expression(act, affine):
    x, gamma, beta, g = _norm_case()
    if affine:
        arrays = (x, gamma, beta)
        fused = lambda x, ga, be: ad.instance_norm(x, ga, be, act)
        oracle = lambda x, ga, be: _instance_norm_unshared(x, ga, be, act)
    else:
        arrays = (x,)
        fused = lambda x: ad.instance_norm(x, act=act)
        oracle = lambda x: _instance_norm_unshared(x, act=act)
    # The output keeps its bits; the affine backward agrees to round-off.
    got, ref = _out_and_grads(fused, arrays, g), _out_and_grads(oracle, arrays, g)
    _assert_same_bits(got[:1], ref[:1])
    _assert_close(got[1:], ref[1:], _NORM_RTOL)


@pytest.mark.parametrize("act,oracle", [("relu", _relu_op), ("leaky_relu", _leaky_relu_op)])
@pytest.mark.parametrize("affine", [True, False])
def test_instance_norm_activation_equals_composition_bit_for_bit(act, oracle, affine):
    x, gamma, beta, g = _norm_case()
    if affine:
        arrays = (x, gamma, beta)
        fused = lambda x, ga, be: ad.instance_norm(x, ga, be, act)
        unfused = lambda x, ga, be: oracle(ad.instance_norm(x, ga, be))
    else:
        arrays = (x,)
        fused = lambda x: ad.instance_norm(x, act=act)
        unfused = lambda x: oracle(ad.instance_norm(x))
    got, ref = _out_and_grads(fused, arrays, g), _out_and_grads(unfused, arrays, g)
    _assert_same_bits(got[:1], ref[:1])
    _assert_close(got[1:], ref[1:], _NORM_RTOL)


@pytest.mark.parametrize("act", ["relu", "leaky_relu"])
def test_instance_norm_activation_gradcheck(act):
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, (6, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = rand_tensor(rng, (4,))
    check_op(lambda: ad.instance_norm(x, gamma, beta, act), [x, gamma, beta], rtol=1e-4)
    check_op(lambda: ad.instance_norm(x, act=act), [x], rtol=1e-4)
    with pytest.raises(ValueError):
        ad.instance_norm(x, act="tanh")


def _cosine_rows(rng):
    """(R, 3) cosine-like rows with duplicate rows and a constant column."""
    x = rng.uniform(-1.0, 1.0, (12, 3))
    x[:, 0] = 1.0          # the nearest neighbor's cosine with itself
    x[5] = x[2]
    x[9] = x[2]
    return x


def test_covariance_norm_equals_conv_norm_relu():
    rng = np.random.default_rng(31)
    x = _cosine_rows(rng)
    weight = rng.standard_normal((3, 5))
    bias = rng.standard_normal(5)
    gamma = np.array([1.2, -0.8, 0.0, 0.5, -2.0])
    beta = rng.standard_normal(5)
    g = rng.standard_normal((12, 5))
    got = _out_and_grads(lambda w, ga, be: ad.covariance_norm(x, w, ga, be),
                         (weight, gamma, beta), g)
    ref = _out_and_grads(
        lambda w, ga, be: ad.instance_norm(ad.add(ad.matmul(constant(x), w), constant(bias)),
                                           ga, be, "relu"),
        (weight, gamma, beta), g)
    _assert_close(got, ref, _NORM_RTOL)


def test_covariance_norm_normalizes_over_every_axis_but_the_last():
    # The angle path's (N, g, k/g) call has the bits of the (N*g, k/g) call
    # reshaped, in its output and in every gradient.
    rng = np.random.default_rng(33)
    x = np.concatenate([_cosine_rows(rng), _cosine_rows(rng)]).reshape(6, 4, 3)
    weight = rng.standard_normal((3, 5))
    gamma = np.array([1.2, -0.8, 0.0, 0.5, -2.0])
    beta = rng.standard_normal(5)
    g = rng.standard_normal((6, 4, 5))
    got = _out_and_grads(lambda w, ga, be: ad.covariance_norm(x, w, ga, be),
                         (weight, gamma, beta), g)
    ref = _out_and_grads(lambda w, ga, be: ad.reshape(ad.covariance_norm(x.reshape(24, 3), w,
                                                                          ga, be), (6, 4, 5)),
                         (weight, gamma, beta), g)
    assert got[0].shape == (6, 4, 5)
    _assert_same_bits(got, ref)


def test_covariance_norm_gradcheck():
    # gamma < 0 and gamma == 0 channels, duplicate cosine rows and a
    # constant cosine column (a singular covariance).
    rng = np.random.default_rng(32)
    x = _cosine_rows(rng)
    weight = rand_tensor(rng, (3, 4))
    gamma = Tensor(np.array([1.1, -0.7, 0.0, 0.6]), requires_grad=True)
    beta = Tensor(np.array([0.3, 0.2, 0.1, -0.1]), requires_grad=True)
    check_op(lambda: ad.covariance_norm(x, weight, gamma, beta), [weight, gamma, beta],
             rtol=1e-4)
    with pytest.raises(ValueError, match="covariance_norm shapes"):
        ad.covariance_norm(x[:, :2], weight, gamma, beta)


def test_softmax_in_place_has_the_bits_of_the_expression():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 33)) * 30.0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    expect = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(ad.softmax_last_axis(constant(x)).data, expect)


def test_grouped_neighbor_conv_shapes_and_average_kernel():
    # One linear layer over all G groups: (N, G, d) -> (N, d_out).
    rng = np.random.default_rng(7)
    x = constant(rng.standard_normal((4, 9, 2)))
    w = constant(np.full((9 * 2, 5), 1.0 / 18.0))
    out = ad.grouped_neighbor_conv(x, w)
    assert out.shape == (4, 5)
    const = ad.grouped_neighbor_conv(constant(np.full((4, 9, 2), 2.0)), w)
    assert np.allclose(const.data, 2.0)
    with pytest.raises(ValueError, match=r"grouped_neighbor_conv needs \(N,G,d\)"):
        ad.grouped_neighbor_conv(constant(x.data.reshape(4, 18)), w)
    with pytest.raises(ValueError, match="matmul shapes"):
        ad.grouped_neighbor_conv(constant(x.data[:, :3]), w)


def test_grouped_neighbor_conv_gradcheck():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (4, 3, 8))
    w = rand_tensor(rng, (3 * 8, 6))
    check_op(lambda: ad.grouped_neighbor_conv(x, w), [x, w], rtol=1e-5)


def test_grouped_neighbor_conv_is_matmul_of_the_flattened_groups_bit_for_bit():
    rng = np.random.default_rng(9)
    n, groups, d = 7, 4, 5
    x = rng.standard_normal((n, groups, d))
    x[0, 1, :] = -0.0
    w = rng.standard_normal((groups * d, 3))
    g = rng.standard_normal((n, 3))
    g[2] = -0.0
    got = _out_and_grads(ad.grouped_neighbor_conv, (x, w), g)
    ref = _out_and_grads(lambda x, w: ad.matmul(ad.reshape(x, (n, groups * d)), w), (x, w), g)
    _assert_same_bits(got, ref)


def test_backward_sum_gives_ones_and_product_rule():
    x = Tensor(np.arange(6, dtype=float), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones(6))

    a = Tensor(np.array(3.0), requires_grad=True)
    b = Tensor(np.array(4.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.mul(a, b)))
    assert a.grad == 4.0 and b.grad == 3.0


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.scale(x, 2.0)
        with pytest.raises(ValueError, match="loss must be scalar"):
            tape.backward(y)


def test_backward_linearity_of_sum_of_losses():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (5, 3))
    w = rand_tensor(rng, (3, 2))

    def run(parts):
        x.grad = np.zeros_like(x.data)
        w.grad = np.zeros_like(w.data)
        with Tape() as tape:
            y = ad.matmul(x, w)
            l1 = ad.sum_all(ad.leaky_relu(y))
            l2 = ad.sum_all(ad.mul(y, y))
            tape.backward(ad.add(l1, l2) if parts == "joint" else l1)
            if parts == "separate":
                tape2_loss = l2  # same tape already closed; rebuild below
        return x.grad.copy(), w.grad.copy()

    gx_joint, gw_joint = run("joint")
    # separate passes, summed
    x.grad = np.zeros_like(x.data)
    w.grad = np.zeros_like(w.data)
    with Tape() as tape:
        y = ad.matmul(x, w)
        tape.backward(ad.sum_all(ad.leaky_relu(y)))
    gx1, gw1 = x.grad.copy(), w.grad.copy()
    x.grad = np.zeros_like(x.data)
    w.grad = np.zeros_like(w.data)
    with Tape() as tape:
        y = ad.matmul(x, w)
        tape.backward(ad.sum_all(ad.mul(y, y)))
    assert np.max(np.abs(gx_joint - (gx1 + x.grad))) < 1e-12
    assert np.max(np.abs(gw_joint - (gw1 + w.grad))) < 1e-12


def test_shared_gradient_survives_a_second_addend():
    # add hands its output gradient to both inputs as one array; when a then
    # receives t's addend, b's gradient must not change with it.
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        a, b = ad.scale(x, 1.0), ad.scale(y, 1.0)
        t = ad.scale(a, 3.0)
        s = ad.add(a, b)
        tape.backward(ad.sum_all(ad.add(s, t)))
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(a.grad, np.full(3, 4.0))
    assert np.array_equal(y.grad, np.ones(3))
    assert np.array_equal(x.grad, np.full(3, 4.0))


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 6))
    w = rng.standard_normal((6, 4))

    def run():
        h = ad.matmul(constant(x), constant(w))
        h = ad.instance_norm(h)
        return ad.softmax_last_axis(h).data.copy()

    assert np.array_equal(run(), run())


def test_unary_op_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(0.2, 2.0, (4, 3)), requires_grad=True)
    other = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    wide = Tensor(rng.uniform(-30.0, 30.0, (4, 3)), requires_grad=True)
    check_op(lambda: ad.softplus(wide), [wide], rtol=1e-5)
    check_op(lambda: ad.pairwise_l2(x, other), [x, other], rtol=1e-4)
    # Rows near a common offset cancel in the Gram form, so every cell takes
    # the exact recompute from differences.
    near = Tensor(1e3 + rng.standard_normal((4, 3)), requires_grad=True)
    far = Tensor(1e3 + rng.standard_normal((5, 3)), requires_grad=True)
    assert ad._squared_distances(near.data, far.data)[1].all()
    check_op(lambda: ad.pairwise_l2(near, far), [near, far], rtol=1e-4)


def test_softplus_float32_extremes_finite_without_warnings():
    # pytest turns warnings into errors: no exp may overflow.
    v = np.array([-100.0, -20.0, 20.0, 100.0])
    x = Tensor(v.astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = ad.softplus(x)
        tape.backward(ad.sum_all(y))
    assert y.data.dtype == x.grad.dtype == np.float32
    assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
    # e^-100 is a float32 subnormal, good to a few percent.
    tol = dict(rtol=1e-6, atol=1e-44)
    np.testing.assert_allclose(y.data, np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))), **tol)
    np.testing.assert_allclose(x.grad, 1.0 / (1.0 + np.exp(-v)), **tol)


def _random_rows(m, k, d):
    rng = np.random.default_rng(m * 1000 + d)
    p = rng.standard_normal((m, d))
    q = rng.standard_normal((k, d))
    return [(p, q), (np.round(p), np.round(q))]


def _duplicate_rows():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((9, 16))
    return [(p, np.concatenate([p[::-1], rng.standard_normal((4, 16))]))]


def _rows_1e8_apart():
    rng = np.random.default_rng(2)
    p = rng.standard_normal((20, 32))
    return [(p, p + 1e-8 * rng.standard_normal((20, 32)))]


def _rows_near_1e6_offset():
    # 100 x 200 = 20000 cells, every one flagged: many chunks of
    # _block_rows(128) = 512 cells.
    rng = np.random.default_rng(3)
    return [(1e6 + rng.standard_normal((100, 128)), 1e6 + rng.standard_normal((200, 128)))]


def _rows_partly_near_1e6():
    # 100 rows near 1e6 against 100 near 1e6 and 101 near -1e6: 10000 cells
    # flagged, more than one chunk, yet no row is flagged whole.
    rng = np.random.default_rng(5)
    a = 1e6 + rng.standard_normal((100, 128))
    b = np.concatenate([1e6 + rng.standard_normal((100, 128)),
                        -1e6 + rng.standard_normal((101, 128))])
    return [(a, b)]


def _non_finite_rows():
    rng = np.random.default_rng(4)
    p, q = rng.standard_normal((6, 5)), rng.standard_normal((7, 5))
    p[0, 1], p[1, 2], p[2, 0] = np.nan, np.inf, -np.inf
    q[3, 2], q[4, 4] = np.inf, np.nan  # q[3] meets p[1] as inf - inf
    return [(p, q), (q, p)]


def _overflowing_norms():
    # |a|^2 = 1.85e308 overflows while a.b and |a - b|^2 = 6.5e307 do not:
    # the Gram cell is inf where the distance is finite.
    a = np.array([[np.sqrt(1.85) * 1e154, 0.0]])
    cos = 0.85 / np.sqrt(1.85 * 0.5)
    b = np.sqrt(0.5) * 1e154 * np.array([[cos, np.sqrt(1 - cos * cos)]])
    return [(a, b), (b, a)]


_PAIRWISE_L2_CASES = {
    "1-512-128": lambda: _random_rows(1, 512, 128),      # a single row
    "37-512-128": lambda: _random_rows(37, 512, 128),    # no multiple of a BLAS tile
    "3-16385-64": lambda: _random_rows(3, 16385, 64),    # a wide operand
    "40-300-1": lambda: _random_rows(40, 300, 1),        # d=1, many ties
    "duplicates": _duplicate_rows,
    "rows-1e-8-apart": _rows_1e8_apart,
    "offset-1e6": _rows_near_1e6_offset,
    "partly-1e6": _rows_partly_near_1e6,
    "nan-inf": _non_finite_rows,
    "overflowing-norms": _overflowing_norms,
}


@pytest.mark.parametrize("case", list(_PAIRWISE_L2_CASES))
def test_pairwise_l2_within_bound_and_exact_where_recomputed(case):
    # The Gram form gives up bit equality with the difference form; what it
    # keeps: every cell within the documented relative bound, and every cell
    # the cancellation guard recomputes (NaN and inf included) with the
    # difference form's bits, raising no warning that form does not raise.
    for x, y in _PAIRWISE_L2_CASES[case]():
        with warnings.catch_warnings(record=True) as ref_warnings:
            warnings.simplefilter("always")
            ref = np.sqrt(((x[:, None] - y[None]) ** 2).sum(-1))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = ad.pairwise_l2(x, y).data
            exact = ad._squared_distances(x, y)[1]
        assert {str(w.message) for w in got_warnings} <= {str(w.message) for w in ref_warnings}
        assert got.shape == ref.shape
        assert np.array_equal(got[exact].view(np.int64), ref[exact].view(np.int64))
        finite = np.isfinite(ref)
        assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
        bound = (x.shape[1] + 2) * 2.0 ** -53 / ad._CANCEL
        assert np.all(np.abs(got[finite] - ref[finite]) <= bound * ref[finite])
        if case == "duplicates":
            assert np.all(got[np.arange(9), np.arange(8, -1, -1)] == 0.0)
        if case == "offset-1e6":
            assert exact.all() and exact.size > ad._block_rows(x.shape[1])
        if case == "partly-1e6":
            assert exact.sum() > ad._block_rows(x.shape[1])
            assert not exact.all(axis=1).any() and exact[:, :100].all()
        if case == "nan-inf":
            assert not finite.all() and exact[~finite].all()
        if case == "overflowing-norms":
            assert finite.all() and exact.all()


def test_squared_distances_all_cancelling_rows_bitwise():
    # Rows near a common 1e6 offset flag every cell, so every cell is
    # recomputed; the reference is built a few rows at a time, as each cell's
    # bits are its own contiguous d-length sum.
    rng = np.random.default_rng(14)
    a, b = (1e6 + rng.standard_normal((512, 128)) for _ in range(2))
    sq, exact = ad._squared_distances(a, b)
    ref = np.concatenate([((a[i:i + 16, None] - b[None]) ** 2).sum(-1)
                          for i in range(0, len(a), 16)])
    assert exact.all()
    assert np.array_equal(sq.view(np.int64), ref.view(np.int64))


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_blocked_kernels_peak_memory():
    # The whole-tensor form holds 512 x 512 x 128 float64 differences (512 MiB).
    # Near a 1e6 offset every cell takes the exact recompute, 512 chunks here.
    rng = np.random.default_rng(13)
    f_p, f_q = (rng.standard_normal((512, 128)) for _ in range(2))
    assert _traced_peak_mb(lambda: ad.pairwise_l2(f_p, f_q)) < 64
    assert _traced_peak_mb(lambda: ad.pairwise_l2(f_p + 1e6, f_q + 1e6)) < 64


def test_gather_ops_and_gradients():
    rng = np.random.default_rng(13)
    x = rand_tensor(rng, (6, 3))
    idx = np.array([[0, 2], [5, 0]])
    out = ad.gather_rows(x, idx)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[1, 0], x.data[5])
    check_op(lambda: ad.gather_rows(x, idx), [x], rtol=1e-6)
    check_op(lambda: ad.gather_pairs(x, [0, 0, 4], [1, 1, 2]), [x], rtol=1e-6)


def _add_at(src, target, n, fan_out=1):
    """The oracle of ad._scatter_add: np.add.at on zeros, each source row
    repeated for its fan_out consecutive targets."""
    out = np.zeros((n,) + src.shape[1:])
    np.add.at(out, np.asarray(target).ravel(), np.repeat(src, fan_out, axis=0))
    return out


_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308,
                     1e308, -1.5, 2.25])


def _scatter_cases():
    rng = np.random.default_rng(40)
    awkward = rng.choice(_SPECIAL, (40, 3))
    awkward[::7] = -0.0                        # whole rows of -0
    yield "repeated", rng.standard_normal((60, 5)), rng.integers(0, 9, 60), 9, 1
    yield "unreached", rng.standard_normal((12, 4)), rng.choice([1, 3, 8], 12), 11, 1
    yield "one_takes_all", rng.standard_normal((30, 3)), np.full(30, 4), 6, 1
    yield "special_values", awkward, rng.integers(0, 6, 40), 6, 1
    yield "special_values_1d", awkward[:, 0], rng.integers(0, 4, 40), 4, 1
    yield "one_d", rng.standard_normal(25), rng.integers(0, 7, 25), 7, 1
    yield "n_is_1", rng.standard_normal((5, 2)), np.zeros(5, dtype=int), 1, 1
    yield "no_sources", np.zeros((0, 3)), np.zeros(0, dtype=int), 4, 1
    idx = rng.integers(0, 10, (10, 3, 3))
    idx[:, :, 1] = 2                           # one (j, p) takes every window
    yield "width_3", rng.choice(_SPECIAL, (30, 4)), idx * 3 + np.arange(3), 30, 3
    yield "width_1", rng.standard_normal((30, 4)), rng.integers(0, 10, (10, 3, 1)), 10, 1


def _assert_same_bits_but_nan_sign(got, ref):
    """Bit for bit, except that a NaN need only be a NaN: numpy's add loops
    disagree on the sign of NaN + (-NaN) among themselves (a one-element
    `+=` keeps the second operand's, an eight-element one the first's)."""
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64))


@pytest.mark.parametrize("case", list(_scatter_cases()), ids=lambda c: c[0])
def test_scatter_add_has_the_bits_of_add_at(case):
    _, src, target, n, fan_out = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
        got = ad._scatter_add(src, target, n, fan_out)
        ref = _add_at(src, target, n, fan_out)
    _assert_same_bits_but_nan_sign(got, ref)


@pytest.mark.parametrize("width", [1, 3])
def test_scatter_backwards_have_the_bits_of_add_at(monkeypatch, width):
    # neighbor_linear (all window positions in one scatter) and gather_rows
    # (2D rows, and 1D values as rejection.classify gathers them) hand over
    # the gradients that np.add.at gave them.
    rng = np.random.default_rng(41 + width)
    n, d = 11, 4
    f = rng.standard_normal((n, d))
    idx = _neighbor_windows(rng, n, 3, width)
    weight = rng.standard_normal((width * 2 * d, 5))
    g = rng.choice([0.0, -0.0, 5e-324, -5e-324, -1.5, 2.25], (n, 3, 5))
    g[::2] = rng.standard_normal((6, 3, 5))
    gather = rng.integers(0, n, (7, 2))
    gather[:, 1] = 0
    cases = [
        (lambda f, w: ad.neighbor_linear(f, idx, w), (f, weight), g),
        (lambda f: ad.gather_rows(f, gather), (f,), rng.standard_normal((7, 2, d))),
        (lambda v: ad.gather_rows(v, gather[:, 0]), (f[:, 0],), g[:7, 0, 0]),
    ]
    for build, arrays, gr in cases:
        got = _out_and_grads(build, arrays, gr)
        with monkeypatch.context() as mp:
            mp.setattr(ad, "_scatter_add", _add_at)
            _assert_same_bits(got, _out_and_grads(build, arrays, gr))


def test_no_tape_means_no_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.matmul(x, x)
    assert not y.requires_grad
    with Tape() as tape:
        ad.matmul(x, x)
        assert len(tape) == 1


def _edge_window_oracle(f, idx, weight):
    """concat over p of [f_i, f_i - f_idx[i,G,p]], times weight."""
    n, groups, width = idx.shape
    fi = np.broadcast_to(f[:, None, None, :], idx.shape + f.shape[1:])
    windows = np.concatenate([fi, fi - f[idx]], axis=-1).reshape(n, groups, -1)
    return windows @ weight


def _neighbor_windows(rng, n, groups, width):
    idx = rng.integers(0, n, (n, groups, width))
    idx[1, 0, :] = 4           # duplicate indices within one window
    idx[2:, -1, -1] = 0        # node 0 neighbors every other node
    return idx


def test_neighbor_linear_equals_edge_window_oracle():
    n, d, groups = 9, 4, 3
    for width in (1, 3):
        rng = np.random.default_rng(20 + width)
        f = rng.standard_normal((n, d))
        idx = _neighbor_windows(rng, n, groups, width)
        weight = rng.standard_normal((width * 2 * d, 5))
        out = ad.neighbor_linear(constant(f), idx, constant(weight))
        assert out.shape == (n, groups, 5)
        np.testing.assert_allclose(out.data, _edge_window_oracle(f, idx, weight), rtol=1e-12)
        # Equal features zero every difference: only the self rows act.
        ones = ad.neighbor_linear(constant(np.ones((n, d))), idx, constant(weight))
        self_rows = weight.reshape(width, 2, d, 5)[:, 0].sum(axis=(0, 1))
        np.testing.assert_allclose(ones.data, np.broadcast_to(self_rows, ones.shape),
                                   rtol=1e-12)
        with pytest.raises(ValueError, match="neighbor_linear weight expects"):
            ad.neighbor_linear(constant(f), idx, constant(weight[1:]))
        with pytest.raises(ValueError, match="neighbor_linear needs f"):
            ad.neighbor_linear(constant(f[1:]), idx, constant(weight))


@pytest.mark.parametrize("width", [1, 3])
def test_neighbor_linear_gradcheck(width):
    rng = np.random.default_rng(30 + width)
    n, d, groups = 7, 3, 2
    f = rand_tensor(rng, (n, d))
    idx = _neighbor_windows(rng, n, groups, width)
    weight = rand_tensor(rng, (width * 2 * d, 4))
    check_op(lambda: ad.neighbor_linear(f, idx, weight), [f, weight], rtol=1e-5)


def test_gather_pairs_backward_has_the_bits_of_add_at():
    # The cells go to _scatter_add as flat indices, so this compares with
    # np.add.at on the (row, col) pairs themselves: repeated cells,
    # negative indices and signed zeros get the gradient it gave them.
    rng = np.random.default_rng(43)
    p = rng.standard_normal((5, 6))
    rows = np.array([0, 0, 4, -1, 2, 2, 3, 0])
    cols = np.array([1, 1, 5, 5, -6, 0, 2, 1])
    g = np.array([-0.0, -0.0, 1.5, 2.25, -0.0, 5e-324, 0.0, -1.5])
    got = _out_and_grads(lambda a: ad.gather_pairs(a, rows, cols), (p,), g)
    ref = np.zeros_like(p)
    np.add.at(ref, (rows, cols), g)
    _assert_same_bits(got, [p[rows, cols], ref])
