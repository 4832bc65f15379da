import dataclasses
import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

from a2match import autodiff as ad
from a2match import network, training, transport
from a2match.autodiff import Tape, Tensor, constant
from a2match.geometry import CorrespondenceSet, neighbor_cosine
from a2match.network import (
    LocalGraph,
    ModelWeights,
    NetworkConfig,
    annular_aggregate,
    angle_aggregate,
    build_knn_graph,
    cross_attention,
    encode,
    forward,
    forward_features,
    maxpool_aggregate,
    scene_inputs,
    self_attention_block,
)
from a2match.synth import InvalidConfig, SynthConfig, generate_scene
from a2match.transport import ScoreMatrix, augment_dustbins, cost_matrix, sinkhorn
from a2match.weights_io import load_weights, save_weights

CFG8 = NetworkConfig(d=8)


def small_weights(seed=0, cfg=CFG8):
    return ModelWeights.initialize(cfg, seed=seed)


def rand_positions(rng, n):
    return rng.uniform(-0.5, 0.5, (n, 2))


# --- config and graph ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(k=10, g=3)
    with pytest.raises(ValueError):
        NetworkConfig(d=2)
    with pytest.raises(ValueError):
        NetworkConfig(n_blocks=0)


def test_knn_collinear_oracle():
    # 4 equispaced collinear points; exhaustive pairwise distances say the
    # middle points' two nearest neighbors are their adjacent points.
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    g = build_knn_graph(pos, k=2)
    assert set(g.neighbor_idx[1]) == {0, 2}
    assert set(g.neighbor_idx[2]) == {1, 3}
    d = np.abs(pos[:, 0][:, None] - pos[:, 0][None, :])
    for i in range(4):
        order = np.argsort(np.where(np.arange(4) == i, np.inf, d[i]), kind="stable")[:2]
        assert list(g.neighbor_idx[i]) == list(order)
    # On a lattice many neighbors tie at the k-th distance, and duplicate
    # points tie at distance 0; the graph keeps the stable argsort's order.
    gx, gy = np.meshgrid(np.arange(7) * 0.125, np.arange(6) * 0.125)
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    lattice = np.concatenate([lattice, lattice[[8, 8, 20, 41]]])
    d = np.hypot(*(lattice[:, None, :] - lattice[None, :, :]).transpose(2, 0, 1))
    np.fill_diagonal(d, np.inf)
    for k in (2, 4, 8, 9, 12):
        g = build_knn_graph(lattice, k)
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        assert np.array_equal(g.neighbor_idx, order)
        assert np.array_equal(g.neighbor_dist, np.take_along_axis(d, order, axis=1))


def test_knn_contract_k9():
    rng = np.random.default_rng(0)
    pos = rand_positions(rng, 40)
    g = build_knn_graph(pos, k=9)
    for i in range(40):
        row = g.neighbor_idx[i]
        assert len(set(row)) == 9
        assert i not in row
        assert np.all(np.diff(g.neighbor_dist[i]) >= 0)
    assert np.all(np.abs(g.neighbor_cos) <= 1.0)
    # nearest-reference convention: first cosine is exactly 1
    assert np.allclose(g.neighbor_cos[:, 0], 1.0)


def test_knn_cosines_follow_neighbor_cosine_rule():
    # Oracle: geometry.neighbor_cosine on each (reference edge, edge) pair;
    # both normalise through geometry.unit_vectors, so they agree bitwise.
    rng = np.random.default_rng(3)
    pos = rand_positions(rng, 30)
    pos[7] = pos[3]  # duplicate point: node 3's nearest edge is exactly zero
    g = build_knn_graph(pos, 6)
    for i in range(30):
        vecs = pos[g.neighbor_idx[i]] - pos[i]
        for j in range(6):
            assert g.neighbor_cos[i, j] == neighbor_cosine(vecs[0], vecs[j])
    assert np.all(g.neighbor_cos[3] == 0.0)
    # An exact power-of-two shrink leaves every direction, so every cosine,
    # as is, and scales every distance exactly; at 2**-540 a squared
    # distance would underflow to 0.
    for shift in (-300, -540):
        tiny = build_knn_graph(np.ldexp(pos, shift), 6)
        assert np.array_equal(tiny.neighbor_idx, g.neighbor_idx)
        assert np.array_equal(tiny.neighbor_cos, g.neighbor_cos)
        assert np.array_equal(tiny.neighbor_dist, np.ldexp(g.neighbor_dist, shift))


def _hypot_knn_oracle(pos, k):
    """The graph as a stable argsort of the full hypot distance matrix."""
    d = np.hypot(pos[:, 0, None] - pos[:, 0], pos[:, 1, None] - pos[:, 1])
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(d, order, axis=1)


@pytest.mark.parametrize("case", ["uniform", "grid", "triplicated", "2^-540", "2^600",
                                  "2^-1070", "mixed", "grid 2^-1068", "underflow"])
def test_knn_ranks_like_a_stable_argsort_of_hypot(case):
    # Candidates come from scaled squared differences; every scale must
    # still rank by hypot with index ties. Unscaled, 2^600 positions square
    # to inf, 2^-540 ones underflow to 0, and subnormal ones lose most bits.
    # In "underflow", which the scaling leaves as is, point 2 is nearer point
    # 0 than point 1 is, but its squares round up to 3 * 2^-1074 and point
    # 1's down to 2 * 2^-1074.
    rng = np.random.default_rng(17)
    uniform = rng.uniform(-0.5, 0.5, (60, 2))
    gx, gy = np.meshgrid(np.arange(7) * 0.125, np.arange(6) * 0.125)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pos = {"uniform": uniform, "grid": grid,
           "triplicated": np.concatenate([uniform[:20]] * 3),
           "2^-540": np.ldexp(uniform, -540), "2^600": np.ldexp(uniform, 600),
           "2^-1070": np.ldexp(uniform, -1070),
           "mixed": np.concatenate([uniform[:30], np.ldexp(uniform[30:], -1000)]),
           "grid 2^-1068": np.ldexp(grid, -1068),
           "underflow": np.concatenate([np.ldexp([[0.0, 0.0], [1.22, 1.22], [1.72, 0.0]], -537),
                                        [[0.75, 0.75]], uniform[:10]])}[case]
    for k in (1, 2, 6, 9, 12):
        g = build_knn_graph(pos, k)
        order, dist = _hypot_knn_oracle(pos, k)
        assert np.array_equal(g.neighbor_idx, order)
        assert np.array_equal(g.neighbor_dist.view(np.int64), dist.view(np.int64))


def test_knn_too_few_points():
    with pytest.raises(ValueError, match="need more than k=9 points, got 5"):
        build_knn_graph(np.zeros((5, 2)), k=9)


def test_angle_rotation_invariance():
    # Oracle: rebuild the graph after rotating all positions; cosines match.
    rng = np.random.default_rng(1)
    pos = rand_positions(rng, 30)
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    g1 = build_knn_graph(pos, k=6)
    g2 = build_knn_graph(pos @ rot.T, k=6)
    assert np.array_equal(g1.neighbor_idx, g2.neighbor_idx)
    assert np.max(np.abs(g1.neighbor_cos - g2.neighbor_cos)) < 1e-12


# --- encoder ------------------------------------------------------------------


def test_encode_shape_and_pointwise():
    rng = np.random.default_rng(2)
    w = small_weights()
    b = rng.uniform(-0.5, 0.5, (7, 2))
    c = rng.uniform(0, 1, (7, 3))
    out = encode(b, c, w, "2d")
    assert out.shape == (7, 8)
    b2 = np.concatenate([b, b[:1]], axis=0)
    c2 = np.concatenate([c, c[:1]], axis=0)
    out2 = encode(b2, c2, w, "2d")
    assert np.array_equal(out2.data[-1], out2.data[0])


def test_encode_zeroed_color_params_ignores_colors():
    rng = np.random.default_rng(3)
    w = small_weights()
    for name, p in w.params.items():
        if name.startswith("enc/2d/color"):
            p.data[...] = 0.0
    b = rng.uniform(-0.5, 0.5, (6, 2))
    out1 = encode(b, rng.uniform(0, 1, (6, 3)), w, "2d")
    out2 = encode(b, rng.uniform(0, 1, (6, 3)), w, "2d")
    assert np.array_equal(out1.data, out2.data)


def test_encode_empty_raises():
    w = small_weights()
    with pytest.raises(ValueError, match="encode needs at least one point"):
        encode(np.zeros((0, 2)), np.zeros((0, 3)), w, "2d")


# --- aggregation --------------------------------------------------------------


def graph_and_features(rng, n=12, k=6, d=8):
    pos = rand_positions(rng, n)
    g = build_knn_graph(pos, k)
    f = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    return g, f


def test_maxpool_invariant_to_neighbor_permutation():
    rng = np.random.default_rng(5)
    w = small_weights()
    g, f = graph_and_features(rng)
    out1 = maxpool_aggregate(f, g, w, "blk0/self/max1").data
    perm_idx = g.neighbor_idx.copy()
    perm_idx[4] = perm_idx[4][::-1]
    g2 = LocalGraph(perm_idx, g.neighbor_dist, g.neighbor_cos)
    out2 = maxpool_aggregate(f, g2, w, "blk0/self/max1").data
    # Exact in real arithmetic; BLAS rounds a row by where it sits.
    np.testing.assert_allclose(out2, out1, rtol=1e-12)


def test_maxpool_equals_edge_mlp_oracle():
    # The edge MLP written out: explicit [f_i, f_i - f_j] edges, linear,
    # instance norm over all N*k edges, LeakyReLU per edge, max over k.
    rng = np.random.default_rng(15)
    w = small_weights().astype(np.float64)
    name = "blk0/self/max1"
    w.param(f"{name}/norm/gamma").data[:] = rng.uniform(-1.5, 1.5, 8)
    w.param(f"{name}/norm/beta").data[:] = rng.standard_normal(8)
    g, f = graph_and_features(rng)
    fi = np.broadcast_to(f.data[:, None, :], (12, 6, 8))
    h = np.concatenate([fi, fi - f.data[g.neighbor_idx]], axis=-1) @ w.param(f"{name}/lin/W").data
    mu, var = h.reshape(-1, 8).mean(axis=0), h.reshape(-1, 8).var(axis=0)
    h = (h - mu) / np.sqrt(var + 1e-5) * w.param(f"{name}/norm/gamma").data \
        + w.param(f"{name}/norm/beta").data
    expect = np.where(h >= 0.0, h, 0.2 * h).max(axis=1)
    out = maxpool_aggregate(f, g, w, name).data
    np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-14)


def test_annular_sensitive_to_cross_group_permutation():
    rng = np.random.default_rng(6)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    g, f = graph_and_features(rng, n=12, k=6)
    base = annular_aggregate(f, g, w, "blk0/self/ann1").data
    swapped = g.neighbor_idx.copy()
    swapped[2, [0, 5]] = swapped[2, [5, 0]]  # swap across groups 0 and 2
    g2 = LocalGraph(swapped, g.neighbor_dist, g.neighbor_cos)
    out = annular_aggregate(f, g2, w, "blk0/self/ann1").data
    assert np.max(np.abs(base - out)) > 1e-6


def test_annular_and_angle_shapes():
    rng = np.random.default_rng(7)
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 15)
    g = build_knn_graph(pos, 9)
    f = constant(rng.standard_normal((15, 8)))
    assert annular_aggregate(f, g, w, "blk0/self/ann1").shape == (15, 8)
    assert angle_aggregate(g, w, "blk0/self/ang1").shape == (15, 8)


def test_angle_feature_constant_cosines():
    rng = np.random.default_rng(8)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 12)
    g = build_knn_graph(pos, 6)
    g_const = LocalGraph(g.neighbor_idx, g.neighbor_dist,
                         np.full_like(g.neighbor_cos, 0.25))
    out = angle_aggregate(g_const, w, "blk0/self/ang1").data
    assert np.allclose(out, out[0])  # same cosines everywhere -> same feature


def test_angle_feature_rotation_invariant_through_convs():
    rng = np.random.default_rng(9)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 14)
    theta = -0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out1 = angle_aggregate(build_knn_graph(pos, 6), w, "blk0/self/ang1").data
    out2 = angle_aggregate(build_knn_graph(pos @ rot.T, 6), w, "blk0/self/ang1").data
    assert np.max(np.abs(out1 - out2)) < 1e-12


# --- attention blocks ---------------------------------------------------------


def test_self_attention_block_shape_and_equivariance():
    rng = np.random.default_rng(10)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg).astype(np.float64)
    pos = rand_positions(rng, 13)
    feats = rng.standard_normal((13, 8))
    g = build_knn_graph(pos, 6)
    out = self_attention_block(constant(feats), g, w, "blk0").data
    assert out.shape == (13, 8)
    perm = rng.permutation(13)
    g_p = build_knn_graph(pos[perm], 6)
    out_p = self_attention_block(constant(feats[perm]), g_p, w, "blk0").data
    # Bit-exact equivariance holds at forward_features, which fixes the row
    # order; a sub-layer alone is equivariant up to round-off.
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-12)


def test_cross_attention_singleton_source():
    rng = np.random.default_rng(11)
    w = small_weights()
    f_a = constant(rng.standard_normal((5, 8)))
    f_b = constant(rng.standard_normal((1, 8)))
    out = cross_attention(f_a, f_b, w, "blk0")
    # with one source, every attention row is exactly [1] and m_i = v_1
    v = f_b.data @ w.param("blk0/cross/Wv/W").data
    q = f_a.data @ w.param("blk0/cross/Wq/W").data
    h = np.concatenate([q, np.repeat(v, 5, axis=0)], axis=1)
    w1, b1 = w.param("blk0/cross/mlp/lin1/W").data, w.param("blk0/cross/mlp/lin1/b").data
    act = h @ w1 + b1
    act = np.where(act >= 0, act, 0.2 * act)
    expect = f_a.data + act @ w.param("blk0/cross/mlp/lin2/W").data
    assert np.allclose(out.data, expect, atol=1e-12)


def test_cross_attention_rows_sum_to_one():
    rng = np.random.default_rng(12)
    w = small_weights()
    f_a = constant(rng.standard_normal((6, 8)))
    f_b = constant(rng.standard_normal((9, 8)))
    q = ad.matmul(f_a, w.param("blk0/cross/Wq/W"))
    k = ad.matmul(f_b, w.param("blk0/cross/Wk/W"))
    alpha = ad.softmax_last_axis(ad.scale(ad.matmul(q, ad.transpose2d(k)),
                                          1.0 / np.sqrt(8)))
    assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-12


def test_block_gradients_against_finite_differences():
    rng = np.random.default_rng(13)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg).astype(np.float64)
    pos = rand_positions(rng, 10)
    g = build_knn_graph(pos, 6)
    feats = rng.standard_normal((10, 8))
    names = ["blk0/self/ann1/conv1/W", "blk0/self/max1/lin/W",
             "blk0/self/ang1/conv1/W", "blk0/self/fuse_aa/lin/W",
             "blk0/cross/Wq/W", "blk0/cross/mlp/lin2/W"]

    def loss_val():
        f = constant(feats)
        out = self_attention_block(f, g, w, "blk0")
        out = cross_attention(out, constant(feats[:7] * 0.5), w, "blk0")
        return ad.sum_all(ad.mul(out, out))

    w.zero_grad()
    with Tape() as tape:
        loss = loss_val()
        tape.backward(loss)
    h = 1e-6
    # Each loss evaluation carries round-off of a few ulps of |L|, so a
    # difference quotient cannot resolve gradients below about eps*|L|/h.
    fd_noise = 8 * np.finfo(np.float64).eps * abs(loss.item()) / h
    rng2 = np.random.default_rng(14)
    for name in names:
        p = w.params[name]
        idx = int(rng2.integers(p.data.size))
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + h
        fp = loss_val().item()
        p.data.flat[idx] = orig - h
        fm = loss_val().item()
        p.data.flat[idx] = orig
        num = (fp - fm) / (2 * h)
        a = p.grad.flat[idx]
        tol = max(1e-3 * max(abs(a), abs(num)), fd_noise)
        assert abs(a - num) < tol, f"{name}: {a} vs {num} (tol {tol:.1e})"


# --- forward ------------------------------------------------------------------


def scene(seed, n=24, noise=0.5):
    return generate_scene(SynthConfig(n_points=n, inlier_fraction=0.75,
                                      pixel_noise_sigma=noise, seed=seed))


def test_forward_shapes_and_determinism():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(20)
    f_p, f_q = forward(pair, w)
    assert f_p.shape == (24, 8) and f_q.shape == (24, 8)
    f_p2, f_q2 = forward(pair, w)
    assert np.array_equal(f_p.data, f_p2.data)
    assert np.array_equal(f_q.data, f_q2.data)
    assert np.all(np.isfinite(f_p.data)) and np.all(np.isfinite(f_q.data))


def test_forward_full_permutation_equivariance_bit_exact():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(21, n=20)
    bp, cp, bq, cq = scene_inputs(pair)
    f_p, f_q = forward_features(bp, cp, bq, cq, w)
    rng = np.random.default_rng(22)
    perm_p = rng.permutation(len(bp))
    perm_q = rng.permutation(len(bq))
    g_p, g_q = forward_features(bp[perm_p], cp[perm_p], bq[perm_q], cq[perm_q], w)
    assert np.array_equal(g_p.data, f_p.data[perm_p])
    assert np.array_equal(g_q.data, f_q.data[perm_q])


def _assert_forward_equivariant(inputs, w, rng, trials):
    bp, cp, bq, cq = inputs
    f_p, f_q = forward_features(bp, cp, bq, cq, w)
    for _ in range(trials):
        perm_p = rng.permutation(len(bp))
        perm_q = rng.permutation(len(bq))
        g_p, g_q = forward_features(bp[perm_p], cp[perm_p], bq[perm_q], cq[perm_q], w)
        assert np.array_equal(g_p.data, f_p.data[perm_p])
        assert np.array_equal(g_q.data, f_q.data[perm_q])


def test_forward_equivariant_bit_exact_with_tied_knn_distances():
    # A 6 x 5 lattice ties many neighbor distances, as quantised or
    # integer-pixel keypoints do; a tie broken by input index would make the
    # graph, so the features, depend on the input order.
    cfg = NetworkConfig(d=8)
    w = small_weights(cfg=cfg)
    gx, gy = np.meshgrid(np.arange(6) * 0.125, np.arange(5) * 0.125)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    rng = np.random.default_rng(0)
    inputs = (grid, rng.uniform(0, 1, (30, 3)), grid[::-1].copy(), rng.uniform(0, 1, (30, 3)))
    _assert_forward_equivariant(inputs, w, rng, trials=20)


def test_forward_equivariant_bit_exact_across_blas_tiles():
    # n=300 is no multiple of any BLAS micro-tile, so without a canonical
    # order the rows that land on edge tiles would change with the permutation.
    cfg = NetworkConfig(d=32)
    w = small_weights(seed=1, cfg=cfg)
    inputs = scene_inputs(scene(300, n=300))
    _assert_forward_equivariant(inputs, w, np.random.default_rng(1), trials=2)


def test_forward_peak_memory_n512():
    # The max and annular layers never build the (n*k, 2d) edge windows
    # (about 9 MiB here): building them one at a time peaked at 33.3 MiB,
    # two at a time at 41.8 MiB. Without them, and with the max path
    # normalizing only its maxima (`autodiff.norm_max`), the peak was
    # 11.9 MiB; normalizing all n*k edges before the max peaked at 28.8 MiB.
    # With the max path, each norm and its activation, and the softmax each
    # writing one buffer, the peak was 10.8 MiB; with float32 weights and
    # network body it is 7.2 MiB.
    w = ModelWeights.initialize(NetworkConfig(d=128), seed=0)
    pair = scene(512, n=512)
    tracemalloc.start()
    try:
        forward(pair, w)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 9.0


def test_weights_hold_no_gradient_until_zero_grad(tmp_path):
    # Inference never reads a gradient, so initialized and loaded weights
    # hold none; zero_grad is the one place that allocates them. A d=128
    # model's float32 values take 6.6 MiB; as float64 they took 13.1 MiB,
    # and with a zero grad per parameter a loaded model held 26.3 MiB.
    cfg = NetworkConfig(d=128)
    path = tmp_path / "w.a2gw"
    save_weights(path, ModelWeights.initialize(cfg, seed=0))
    tracemalloc.start()
    try:
        loaded = load_weights(path)
        held_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert held_mb < 8.2
    for w in (ModelWeights.initialize(cfg, seed=0), loaded):
        assert all(p.grad is None for p in w.params.values())
        w.zero_grad()
        for p in w.params.values():
            assert p.grad.shape == p.data.shape and not np.any(p.grad)


@pytest.mark.parametrize("n,d", [(64, 16), (512, 128)])
def test_float32_body_tracks_float64(n, d):
    # The same weights promoted to float64 run the same code in float64.
    # Each side's features agree within 2e-5 of its largest |feature|
    # (measured: 1.7e-6 at n=64, 4.1e-6 at n=512).
    #
    # Gradients: a max over near-tied neighbors, or a ReLU or LeakyReLU
    # input within round-off of 0, can go the other way in float32. The two
    # choices agree to round-off in the forward, but the gradient reaches
    # another node or none, so per-parameter errors upstream of such a flip
    # are not round-off: in float64 alone, moving the weights by a relative
    # 1e-6 moves single parameters' gradients by 1.5e-2 (n=64) and 9.6e-2
    # (n=512) of their largest entry, and the whole gradient by 7.3e-4 and
    # 3.2e-3 in L2. Float32 moves the whole gradient by 4.2e-6 and 3.2e-4
    # in L2 (bounds 2e-5 and 5e-3), and at n=64 each parameter's by at most
    # 2.2e-5 of its largest entry (bound 1e-4).
    w = ModelWeights.initialize(NetworkConfig(d=d), seed=d)
    wide = w.astype(np.float64)
    pair = generate_scene(SynthConfig(n_points=n, seed=n))
    frozen = training._fixed_candidates(pair)
    grads = []
    for weights, dtype in ((w, np.float32), (wide, np.float64)):
        weights.zero_grad()
        with Tape() as tape:
            loss, _, _ = training.scene_loss(pair, weights, frozen_candidates=frozen)
            tape.backward(loss)
        grads.append({k: p.grad for k, p in weights.params.items()})
        assert {g.dtype for g in grads[-1].values()} == {np.dtype(dtype)}
    for f32, f64 in zip(forward(pair, w), forward(pair, wide)):
        assert f32.data.dtype == np.float32 and f64.data.dtype == np.float64
        assert np.abs(f32.data - f64.data).max() <= 2e-5 * np.abs(f64.data).max()
    narrow, wide_g = grads
    diff = sum(np.sum((narrow[k] - g) ** 2) for k, g in wide_g.items())
    bound = 2e-5 if n == 64 else 5e-3
    assert diff <= bound ** 2 * sum(np.sum(g * g) for g in wide_g.values())
    if n == 64:
        for k, g in wide_g.items():
            assert np.abs(narrow[k] - g).max() <= 1e-4 * np.abs(g).max(), k


def test_forward_features_and_plan_pinned():
    # SHA-256 of the features and the Sinkhorn log plan of one seeded scene:
    # a kernel change that moves any output bit changes them. Taken on x86-64
    # (AVX-512) with numpy 2.4 and its OpenBLAS 0.3.31; a build with other
    # BLAS or exp/log kernels may differ. The scores span 19 nats, so
    # Sinkhorn keeps its first kernel.
    w = ModelWeights.initialize(NetworkConfig(d=16), seed=5)
    f_p, f_q = forward(generate_scene(SynthConfig(n_points=64, seed=2025)), w)
    plan = sinkhorn(augment_dustbins(cost_matrix(f_p, f_q), w.param("ot/alpha_bin")))
    assert f_p.shape == f_q.shape == (64, 16) and plan.values.shape == (65, 65)
    assert [hashlib.sha256(x.data.tobytes()).hexdigest() for x in (f_p, f_q, plan.values)] == [
        "648233288ec82a8d5c995de04f68e9c3044a68251a76b6dbf62b5ad9ba3673fb",
        "9063a0f712b0ffc85d42a9a6a1c6a3b5bc2fb27561dad7839ae7cfcf30810fcb",
        "37f1fbbf204b2d495b3f8f36e973b4f25ce075e834f80a374791e83347c120d6",
    ]


def test_sinkhorn_forms_one_kernel_each_way_on_network_scores(monkeypatch):
    # Network scores span tens of nats, so Sinkhorn forms its kernel once in
    # the forward and once in the backward. A loop that formed it again at
    # every half-step would pass every accuracy test at 200 exps a call.
    formed = []
    kernel = transport._kernel
    monkeypatch.setattr(transport, "_kernel", lambda *args: formed.append(1) or kernel(*args))
    for d, n, weight_seed, scene_seed in ((128, 256, 0, 1), (16, 64, 5, 2025)):
        w = ModelWeights.initialize(NetworkConfig(d=d), seed=weight_seed)
        f_p, f_q = forward(generate_scene(SynthConfig(n_points=n, seed=scene_seed)), w)
        scores = augment_dustbins(cost_matrix(f_p, f_q), w.param("ot/alpha_bin")).values
        scores = Tensor(scores.data, requires_grad=True)
        formed.clear()
        with Tape() as tape:
            plan = sinkhorn(ScoreMatrix(scores, True))
            assert len(formed) == 1
            tape.backward(ad.sum_all(ad.mul(plan.values, plan.values)))
        assert len(formed) == 2


@pytest.mark.parametrize("alpha_bin", [None, -30.0])
def test_log_plan_reads_as_its_exp(alpha_bin):
    # Callers that hold an exponentiated plan, such as the benchmark's
    # checks, get from it the pairs and residuals of the log plan. The
    # fresh model's own dustbin score finds no candidates here; -30 finds
    # many.
    w = ModelWeights.initialize(NetworkConfig(d=128), seed=0)
    if alpha_bin is not None:
        w.param("ot/alpha_bin").data[...] = alpha_bin
    pair = generate_scene(SynthConfig(n_points=256, seed=3))
    f_p, f_q = forward(pair, w)
    log_plan = sinkhorn(augment_dustbins(cost_matrix(f_p, f_q), w.param("ot/alpha_bin")))
    exp_plan = ScoreMatrix(Tensor(np.exp(log_plan.values.data)), log_domain=False)
    got = transport.mutual_nn(log_plan)
    assert got.pair_set() == transport.mutual_nn(exp_plan).pair_set()
    assert (len(got) > 50) == (alpha_bin is not None)
    m, n = len(pair.keypoints), len(pair.points)
    for r, e in zip(transport.marginal_residuals(log_plan),
                    transport.marginal_residuals(exp_plan)):
        assert abs(r - e) <= 1e-12 * (m + n)
    for i, j, score in got:
        assert 0.0 < score <= 1.0 and score == np.exp(log_plan.values.data[i, j])


def test_forward_modality_swap_with_swapped_encoders():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(23, n=18)
    bp, cp, bq, cq = scene_inputs(pair)
    f_p, f_q = forward_features(bp, cp, bq, cq, w)

    swapped = ModelWeights(cfg, dict(w.params))
    for name in list(w.params):
        if name.startswith("enc/2d/"):
            other = name.replace("enc/2d/", "enc/3d/")
            swapped.params[name] = w.params[other]
            swapped.params[other] = w.params[name]
    g_q, g_p = forward_features(bq, cq, bp, cp, swapped)
    assert np.array_equal(g_p.data, f_p.data)
    assert np.array_equal(g_q.data, f_q.data)


def test_forward_no_nan_inf_over_random_scenes():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    for seed in range(25):
        pair = scene(1000 + seed, n=16, noise=1.0)
        f_p, f_q = forward(pair, w)
        assert np.all(np.isfinite(f_p.data))
        assert np.all(np.isfinite(f_q.data))


def test_layers_take_no_config_and_no_training_flag():
    # The weights carry the one config, and training and inference run the
    # same network: no layer takes either as an argument.
    for name, fn in inspect.getmembers(network, inspect.isfunction):
        if fn.__module__ == network.__name__:
            assert not {"cfg", "config", "net_cfg", "training"} & set(
                inspect.signature(fn).parameters), name
    w = small_weights()
    with pytest.raises(TypeError):
        forward(scene(25, n=16), w, w.config)


def test_forward_count_preconditions():
    # The kNN graph needs more than k points a side; the ScenePair contract
    # allows as few as MIN_POINTS, so k = 12 leaves room on both sides.
    cfg = NetworkConfig(d=8, k=12, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(24, n=16)

    def first(m, n):
        return dataclasses.replace(
            pair, keypoints=pair.keypoints[:m], kp_colors=pair.kp_colors[:m],
            points=pair.points[:n], pt_colors=pair.pt_colors[:n],
            gt_matches=CorrespondenceSet([p for p in pair.gt_matches if p[0] < m and p[1] < n]))

    with pytest.raises(InvalidConfig, match="keypoint count 12 must exceed k=12"):
        forward(first(12, 16), w)
    with pytest.raises(InvalidConfig, match="point count 10 must exceed k=12"):
        forward(first(16, 10), w)
    f_p, f_q = forward(first(13, 13), w)
    assert f_p.data.shape == f_q.data.shape == (13, 8)
