import numpy as np
import pytest

from a2match import autodiff as ad
from a2match.autodiff import Tape, Tensor, constant
from a2match.geometry import neighbor_cosine
from a2match.network import (
    EmptyInput,
    LocalGraph,
    ModelWeights,
    NetworkConfig,
    TooFewPoints,
    annular_aggregate,
    angle_aggregate,
    build_knn_graph,
    cross_attention,
    edge_features,
    encode,
    forward,
    forward_features,
    maxpool_aggregate,
    scene_inputs,
    self_attention_block,
)
from a2match.synth import SynthConfig, generate_scene

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
    with pytest.raises(ValueError):
        NetworkConfig(angle_reference="bogus")


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
    for ref in ("nearest", "chain"):
        g = build_knn_graph(pos, 6, ref)
        for i in range(30):
            vecs = pos[g.neighbor_idx[i]] - pos[i]
            for j in range(6):
                r = 0 if ref == "nearest" else max(j - 1, 0)
                assert g.neighbor_cos[i, j] == neighbor_cosine(vecs[r], vecs[j])
        zero_ref = slice(None) if ref == "nearest" else slice(0, 2)
        assert np.all(g.neighbor_cos[3, zero_ref] == 0.0)
        # An exact power-of-two shrink leaves every direction, so every cosine,
        # as is, and scales every distance exactly; at 2**-540 a squared
        # distance would underflow to 0.
        for shift in (-300, -540):
            tiny = build_knn_graph(np.ldexp(pos, shift), 6, ref)
            assert np.array_equal(tiny.neighbor_idx, g.neighbor_idx)
            assert np.array_equal(tiny.neighbor_cos, g.neighbor_cos)
            assert np.array_equal(tiny.neighbor_dist, np.ldexp(g.neighbor_dist, shift))


def test_knn_too_few_points():
    with pytest.raises(TooFewPoints):
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
    with pytest.raises(EmptyInput):
        encode(np.zeros((0, 2)), np.zeros((0, 3)), w, "2d")


# --- aggregation --------------------------------------------------------------


def graph_and_features(rng, n=12, k=6, d=8):
    pos = rand_positions(rng, n)
    g = build_knn_graph(pos, k)
    f = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    return g, f


def test_edge_features_structure():
    rng = np.random.default_rng(4)
    g, f = graph_and_features(rng)
    e = edge_features(f, g)
    assert e.shape == (12, 6, 16)
    # first half equals f_i broadcast; identical features zero the difference
    assert np.array_equal(e.data[3, 2, :8], f.data[3])
    const = edge_features(constant(np.ones((12, 8))), g)
    assert np.allclose(const.data[..., 8:], 0.0)


def test_maxpool_invariant_to_neighbor_permutation():
    rng = np.random.default_rng(5)
    w = small_weights()
    g, f = graph_and_features(rng)
    out1 = maxpool_aggregate(edge_features(f, g), w, "blk0/self/max1", CFG8).data
    perm_idx = g.neighbor_idx.copy()
    perm_idx[4] = perm_idx[4][::-1]
    g2 = LocalGraph(perm_idx, g.neighbor_dist, g.neighbor_cos)
    out2 = maxpool_aggregate(edge_features(f, g2), w, "blk0/self/max1", CFG8).data
    assert np.array_equal(out1, out2)


def test_annular_sensitive_to_cross_group_permutation():
    rng = np.random.default_rng(6)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    g, f = graph_and_features(rng, n=12, k=6)
    base = annular_aggregate(edge_features(f, g), 3, w, "blk0/self/ann1", cfg).data
    swapped = g.neighbor_idx.copy()
    swapped[2, [0, 5]] = swapped[2, [5, 0]]  # swap across groups 0 and 2
    g2 = LocalGraph(swapped, g.neighbor_dist, g.neighbor_cos)
    out = annular_aggregate(edge_features(f, g2), 3, w, "blk0/self/ann1", cfg).data
    assert np.max(np.abs(base - out)) > 1e-6


def test_annular_and_angle_shapes():
    rng = np.random.default_rng(7)
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 15)
    g = build_knn_graph(pos, 9)
    f = constant(rng.standard_normal((15, 8)))
    e = edge_features(f, g)
    assert annular_aggregate(e, 3, w, "blk0/self/ann1", cfg).shape == (15, 8)
    assert angle_aggregate(g, w, "blk0/self/ang1", cfg).shape == (15, 8)


def test_angle_feature_constant_cosines():
    rng = np.random.default_rng(8)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 12)
    g = build_knn_graph(pos, 6)
    g_const = LocalGraph(g.neighbor_idx, g.neighbor_dist,
                         np.full_like(g.neighbor_cos, 0.25))
    out = angle_aggregate(g_const, w, "blk0/self/ang1", cfg).data
    assert np.allclose(out, out[0])  # same cosines everywhere -> same feature


def test_angle_feature_rotation_invariant_through_convs():
    rng = np.random.default_rng(9)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 14)
    theta = -0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out1 = angle_aggregate(build_knn_graph(pos, 6), w, "blk0/self/ang1", cfg).data
    out2 = angle_aggregate(build_knn_graph(pos @ rot.T, 6), w, "blk0/self/ang1", cfg).data
    assert np.max(np.abs(out1 - out2)) < 1e-12


# --- attention blocks ---------------------------------------------------------


def test_self_attention_block_shape_and_equivariance():
    rng = np.random.default_rng(10)
    cfg = NetworkConfig(d=8, k=6, g=3)
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 13)
    feats = rng.standard_normal((13, 8))
    g = build_knn_graph(pos, 6)
    out = self_attention_block(constant(feats), g, w, "blk0", cfg).data
    assert out.shape == (13, 8)
    perm = rng.permutation(13)
    g_p = build_knn_graph(pos[perm], 6)
    out_p = self_attention_block(constant(feats[perm]), g_p, w, "blk0", cfg).data
    assert np.array_equal(out_p, out[perm])


def test_cross_attention_singleton_source():
    rng = np.random.default_rng(11)
    cfg = CFG8
    w = small_weights()
    f_a = constant(rng.standard_normal((5, 8)))
    f_b = constant(rng.standard_normal((1, 8)))
    out = cross_attention(f_a, f_b, w, "blk0", cfg)
    # with one source, every attention row is exactly [1] and m_i = v_1
    v = f_b.data @ w.param("blk0/cross/Wv/W").data
    q = f_a.data @ w.param("blk0/cross/Wq/W").data
    h = np.concatenate([q, np.repeat(v, 5, axis=0)], axis=1)
    w1, b1 = w.param("blk0/cross/mlp/lin1/W").data, w.param("blk0/cross/mlp/lin1/b").data
    w2, b2 = w.param("blk0/cross/mlp/lin2/W").data, w.param("blk0/cross/mlp/lin2/b").data
    act = h @ w1 + b1
    act = np.where(act >= 0, act, cfg.leaky_slope * act)
    expect = f_a.data + act @ w2 + b2
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
    w = small_weights(cfg=cfg)
    pos = rand_positions(rng, 10)
    g = build_knn_graph(pos, 6)
    feats = rng.standard_normal((10, 8))
    names = ["blk0/self/ann1/conv1/W", "blk0/self/max1/lin/W",
             "blk0/self/ang1/conv1/W", "blk0/self/fuse_aa/lin/b",
             "blk0/cross/Wq/W", "blk0/cross/mlp/lin2/W"]

    def loss_val():
        f = constant(feats)
        out = self_attention_block(f, g, w, "blk0", cfg)
        out = cross_attention(out, constant(feats[:7] * 0.5), w, "blk0", cfg)
        return ad.sum_all(ad.mul(out, out))

    w.zero_grad()
    with Tape() as tape:
        loss = loss_val()
        tape.backward(loss)
    h = 1e-6
    # Each loss evaluation carries round-off of a few ulps of |L|, so a
    # difference quotient cannot resolve gradients below about eps*|L|/h.
    # fuse_aa/lin/b feeds a norm: its true gradient is exactly 0 and its
    # finite difference measures only that round-off.
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
    f_p, f_q = forward(pair, w, cfg)
    assert f_p.shape == (24, 8) and f_q.shape == (24, 8)
    f_p2, f_q2 = forward(pair, w, cfg)
    assert np.array_equal(f_p.data, f_p2.data)
    assert np.array_equal(f_q.data, f_q2.data)
    assert np.all(np.isfinite(f_p.data)) and np.all(np.isfinite(f_q.data))


def test_forward_full_permutation_equivariance_bit_exact():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(21, n=20)
    bp, cp, bq, cq = scene_inputs(pair)
    f_p, f_q = forward_features(bp, cp, bq, cq, w, cfg)
    rng = np.random.default_rng(22)
    perm_p = rng.permutation(len(bp))
    perm_q = rng.permutation(len(bq))
    g_p, g_q = forward_features(bp[perm_p], cp[perm_p], bq[perm_q], cq[perm_q], w, cfg)
    assert np.array_equal(g_p.data, f_p.data[perm_p])
    assert np.array_equal(g_q.data, f_q.data[perm_q])


def test_forward_modality_swap_with_swapped_encoders():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(23, n=18)
    bp, cp, bq, cq = scene_inputs(pair)
    f_p, f_q = forward_features(bp, cp, bq, cq, w, cfg)

    swapped = ModelWeights(cfg, dict(w.params), dict(w.buffers))
    for name in list(w.params):
        if name.startswith("enc/2d/"):
            other = name.replace("enc/2d/", "enc/3d/")
            swapped.params[name] = w.params[other]
            swapped.params[other] = w.params[name]
    g_q, g_p = forward_features(bq, cq, bp, cp, swapped, cfg)
    assert np.array_equal(g_p.data, f_p.data)
    assert np.array_equal(g_q.data, f_q.data)


def test_forward_no_nan_inf_over_random_scenes():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    for seed in range(25):
        pair = scene(1000 + seed, n=16, noise=1.0)
        f_p, f_q = forward(pair, w, cfg)
        assert np.all(np.isfinite(f_p.data))
        assert np.all(np.isfinite(f_q.data))


def test_forward_count_preconditions():
    cfg = NetworkConfig(d=8, k=9, g=3)
    w = small_weights(cfg=cfg)
    pair = scene(24, n=12)
    pair.keypoints = pair.keypoints[:8]
    with pytest.raises(ValueError):
        forward(pair, w, cfg)
