"""Bearing-space graph attention: encoder, kNN graphs, annular and angle
aggregation, self/cross attention.

Both sides live in the 2D bearing plane, so one set of attention block
parameters serves 2D keypoints and 3D points alike; only the input encoders
are per-modality. Neighbor lists are sorted by ascending distance; the
annular convolutions collapse each distance group and then the group axis,
and the angle path runs the same two-stage convolution over per-neighbor
direction cosines. The second stage sees all g groups at once, so it is one
linear layer over a node's flattened groups (`autodiff.grouped_neighbor_conv`).
Every normalization is `autodiff.instance_norm` over one scene, so training
and inference run the very same network, and no call leaves state behind;
it applies the ReLU (annular and angle paths) or LeakyReLU (encoder, fusion
heads) that follows it in its own buffer. Every layer reads its sizes from
the NetworkConfig of the weights it is given.

The max path and the annular path's first convolution see the edge features
e_ij = [f_i, f_i - f_j] of Dynamic Graph CNN (Wang et al., ACM TOG 2019) only
through a linear layer, so `autodiff.neighbor_linear` computes them from two
per-node products and a gather: the (N, k, 2d) edge windows are never built.
The max path normalizes its (N, k, d) edge outputs and keeps the max over
the k neighbors; the norm is monotone per channel, so `autodiff.norm_max`
runs the linear layer, the norm and the max as one op in node space: it
picks each extreme edge from the per-node products and takes the edge
statistics from per-node sums. The angle path's first stage convolves
constant cosines, so `autodiff.covariance_norm` takes its norm from their
(k/g) x (k/g) covariance. Both match the unfused layers to round-off. No
parameter exists that the outputs do not depend on (`ModelWeights.layout`),
so no linear layer that feeds a norm has a bias, which the norm subtracts.

`build_knn_graph` ranks candidates on squared differences of the positions
scaled by a power of two, then ranks only the entries within a proven
margin of each row's k-th smallest by (hypot distance, index), so the graph
is the stable argsort of the hypot distances at every scale.

`forward_features` sorts each side once into canonical order over (bearing
x, bearing y, r, g, b), runs the network on the sorted arrays with plain
BLAS and numpy sums, and gathers the features back into input order. A
permuted input is therefore the very same computation, so the features are
bit-exactly permutation equivariant, and kNN distance ties break the same
way whatever the input order. The sub-layers on their own are equivariant
only up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .geometry import pixel_bearings, unit_vectors, world_bearings
from .synth import InvalidConfig, ScenePair

# Each modality has its own input encoder.
MODALITIES = ("2d", "3d")
# Residual units of the correspondence classifier (`rejection.classify`).
CLASSIFIER_UNITS = 6


# build_knn_graph's candidate bound: an absolute allowance for underflow in
# the scaled squares, and a relative one for round-off.
_SQ_ABS = 2.0 ** -1060
_SQ_SLACK = 2.0 ** -40


@dataclass(frozen=True)
class NetworkConfig:
    d: int = 128
    k: int = 9
    g: int = 3
    n_blocks: int = 2

    def __post_init__(self):
        if self.d < 4:
            raise ValueError(f"feature width must be >= 4, got {self.d}")
        if self.k <= 0 or self.g <= 0 or self.k % self.g != 0:
            raise ValueError(f"neighbor count {self.k} must be divisible by group count {self.g}")
        if self.n_blocks < 1:
            raise ValueError(f"need at least one attention block, got {self.n_blocks}")


@dataclass
class LocalGraph:
    neighbor_idx: np.ndarray   # (N,k) int, ascending distance, no self loops
    neighbor_dist: np.ndarray  # (N,k)
    neighbor_cos: np.ndarray   # (N,k)


def build_knn_graph(positions, k: int) -> LocalGraph:
    """k nearest neighbors by Euclidean distance on bearing coordinates.

    Neighbors are ranked by (np.hypot distance, index), as a stable argsort
    of the distances would rank them. Each neighbor's cosine is taken
    between its edge and the edge to the nearest neighbor, by the rule of
    geometry.neighbor_cosine: 0 only where either edge is exactly zero (a
    duplicate point), and otherwise scale-invariant for every finite input.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    n = len(pos)
    if n <= k:
        raise ValueError(f"need more than k={k} points, got {n}")
    # Candidates come from squared differences, cheaper than hypot, of the
    # positions scaled by 2^-e so that every coordinate lies in (-1, 1): no
    # square overflows, and squares lose at most _SQ_ABS to underflow.
    e = int(np.frexp(np.abs(pos).max())[1])
    scaled = np.ldexp(pos, -e)
    sq = scaled[:, 0, None] - scaled[:, 0]
    sq *= sq
    dy = scaled[:, 1, None] - scaled[:, 1]
    dy *= dy
    sq += dy
    np.fill_diagonal(sq, np.inf)
    # Every entry whose hypot is within the k-th smallest hypot of its row
    # has a square within this bound of the row's k-th smallest square.
    # Squares are within 8u relative and _SQ_ABS absolute of the scaled
    # distance squared, hypot within 3u relative and 2^-1073 absolute of
    # the distance, u = 2^-53; _SQ_SLACK covers those factors and the
    # rounding of the bound itself.
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1]
    reach = np.sqrt(kth + _SQ_ABS) * (1.0 + _SQ_SLACK) + np.ldexp(1.0, -1072 - e)
    bound = reach * reach * (1.0 + _SQ_SLACK) + _SQ_ABS
    rows, cols = np.nonzero(sq <= bound[:, None])
    # The first k of each row's candidates by (distance, index).
    dist = np.hypot(pos[rows, 0] - pos[cols, 0], pos[rows, 1] - pos[cols, 1])
    pick = np.lexsort((dist, rows))[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]
    order = cols[pick]
    unit = unit_vectors(pos[order] - pos[:, None, :])
    ncos = np.clip(unit[:, :1, 0] * unit[..., 0] + unit[:, :1, 1] * unit[..., 1], -1.0, 1.0)
    return LocalGraph(order, dist[pick], ncos)


# --- parameters ---------------------------------------------------------------


class ModelWeights:
    """Named float32 parameters and the NetworkConfig they were made for:
    the one config every layer reads.

    Parameters follow `layout`, so initialization from a seed and the
    serialized record stream are both reproducible. The network body and the
    classifier compute in the parameters' dtype, float32, which is also the
    dtype the A2GW file stores; `astype(np.float64)` gives a copy that runs
    the same code in float64, as the gradient checker does.
    """

    def __init__(self, config: NetworkConfig, params: dict):
        self.config = config
        self.params = params
        # Always empty: a2bench/workloads.py Train.digest still reads it.
        self.buffers = {}

    @staticmethod
    def layout(config: NetworkConfig) -> list:
        """(name, shape) of every parameter of a network of this config, in
        creation order; draws nothing, so checking a file's records is cheap.

        The rule: a linear layer whose output only feeds an instance norm
        has no bias, which the norm subtracts again (Ioffe & Szegedy, ICML
        2015, sec. 3.2), and no parameter exists that the outputs do not
        depend on. So neither have the encoder projections, whose output
        reaches the attention block only through such layers, nor
        cross/mlp/lin2, which adds one constant to both sides. The biases of
        cross/mlp/lin1, clf/proj and clf/head feed a nonlinearity or the logit.
        """
        layout = []

        def linear(name, fan_in, fan_out, bias=False):
            layout.append((f"{name}/W", (fan_in, fan_out)))
            if bias:
                layout.append((f"{name}/b", (fan_out,)))

        def norm(name, c):
            layout.append((f"{name}/gamma", (c,)))
            layout.append((f"{name}/beta", (c,)))

        d, k, g = config.d, config.k, config.g
        for key in MODALITIES:
            for channel, width in (("bearing", 2), ("color", 3)):
                base = f"enc/{key}/{channel}"
                linear(f"{base}/proj", width, d)
                for r in range(3):
                    linear(f"{base}/res{r}/lin", d, d)
                    norm(f"{base}/res{r}/norm", d)

        # The annular and angle norms keep the names bn1/bn2 from when they
        # were batch norms.
        for t in range(config.n_blocks):
            blk = f"blk{t}/self"
            for r in (1, 2):
                linear(f"{blk}/max{r}/lin", 2 * d, d)
                norm(f"{blk}/max{r}/norm", d)
                linear(f"{blk}/ann{r}/conv1", (k // g) * 2 * d, d)
                norm(f"{blk}/ann{r}/bn1", d)
                linear(f"{blk}/ann{r}/conv2", g * d, d)
                norm(f"{blk}/ann{r}/bn2", d)
                linear(f"{blk}/ang{r}/conv1", (k // g) * 1, d)
                norm(f"{blk}/ang{r}/bn1", d)
                linear(f"{blk}/ang{r}/conv2", g * d, d)
                norm(f"{blk}/ang{r}/bn2", d)
            for fuse in ("fuse_max", "fuse_aa"):
                linear(f"{blk}/{fuse}/lin", 3 * d, d)
                norm(f"{blk}/{fuse}/norm", d)
            cross = f"blk{t}/cross"
            linear(f"{cross}/Wq", d, d)
            linear(f"{cross}/Wk", d, d)
            linear(f"{cross}/Wv", d, d)
            linear(f"{cross}/mlp/lin1", 2 * d, 2 * d, bias=True)
            linear(f"{cross}/mlp/lin2", 2 * d, d)

        layout.append(("ot/alpha_bin", ()))

        linear("clf/proj", 4, d, bias=True)
        for r in range(CLASSIFIER_UNITS):
            linear(f"clf/res{r}/lin", d, d)
        linear("clf/head", d, 1, bias=True)
        return layout

    @classmethod
    def initialize(cls, config: NetworkConfig, seed: int = 0) -> "ModelWeights":
        """He-uniform weight matrices drawn in layout order; zero biases and
        betas, unit gammas. Values are drawn in float64 and stored as
        float32."""
        rng = np.random.default_rng(seed)
        params: dict = {}
        for name, shape in cls.layout(config):
            if name.endswith("/W"):
                bound = np.sqrt(6.0 / shape[0])
                data = rng.uniform(-bound, bound, shape)
            elif name.endswith("/gamma"):
                data = np.ones(shape)
            elif name == "ot/alpha_bin":
                # Scores are negated L2 costs of features with about unit
                # variance per channel, and two independent ones lie about
                # sqrt(2d) apart. A dustbin score near 0 beats every such
                # cost, so every row and column picks its dustbin, and Adam
                # moves the score by at most lr per step: at -1 it never
                # leaves. Start at the distance of two unrelated points.
                data = np.array(-np.sqrt(2.0 * config.d))
            else:
                data = np.zeros(shape)
            params[name] = Tensor(data.astype(np.float32), requires_grad=True)
        return cls(config, params)

    @property
    def dtype(self):
        """The parameters' dtype, in which the network body computes."""
        return next(iter(self.params.values())).data.dtype

    def astype(self, dtype) -> "ModelWeights":
        """A copy whose parameters hold this model's values as `dtype`."""
        return ModelWeights(self.config, {name: Tensor(p.data.astype(dtype), requires_grad=True)
                                          for name, p in self.params.items()})

    def param(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self):
        """Give each parameter a zero grad: the only place one is allocated,
        so initialized or loaded weights hold none."""
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)


# --- building blocks ----------------------------------------------------------


def _norm_act(y: Tensor, w: ModelWeights, norm_name, act) -> Tensor:
    """Instance norm with the affine parameters under `norm_name`, then act."""
    return ad.instance_norm(y, w.param(f"{norm_name}/gamma"), w.param(f"{norm_name}/beta"), act)


def _lin_norm_act(x, w: ModelWeights, name):
    """linear -> instance norm -> LeakyReLU on a 2D (rows, channels) tensor."""
    return _norm_act(ad.matmul(x, w.param(f"{name}/lin/W")), w, f"{name}/norm", "leaky_relu")


def encode(bearings, colors, w: ModelWeights, modality: str) -> Tensor:
    """Per-point features: bearing MLP output plus color MLP output, in the
    weights' dtype."""
    b = np.asarray(bearings, dtype=w.dtype).reshape(-1, 2)
    c = np.asarray(colors, dtype=w.dtype).reshape(-1, 3)
    if len(b) == 0 or len(c) == 0:
        raise ValueError("encode needs at least one point")
    if len(b) != len(c):
        raise ValueError(f"bearing/color counts differ: {len(b)} vs {len(c)}")
    if modality not in MODALITIES:
        raise ValueError(f"modality must be '2d' or '3d', got {modality!r}")

    def stack(x, channel):
        base = f"enc/{modality}/{channel}"
        h = ad.matmul(constant(x), w.param(f"{base}/proj/W"))
        for r in range(3):
            h = ad.add(h, _lin_norm_act(h, w, f"{base}/res{r}"))
        return h

    return ad.add(stack(b, "bearing"), stack(c, "color"))


def maxpool_aggregate(f: Tensor, graph: LocalGraph, w: ModelWeights, name) -> Tensor:
    """Edge MLP over [f_i, f_i - f_j] per neighbor, then the max over neighbors.

    Linear, instance norm over all N*k edges, max, then LeakyReLU. The norm
    is a per-channel monotone map, so the max commutes with it:
    `autodiff.norm_max` finds each channel's extreme edge from the per-node
    products and normalizes only those, with statistics from per-node sums.
    LeakyReLU is increasing, so applying it to the maxima gives the same
    values as applying it to every edge first.
    """
    h = ad.norm_max(f, graph.neighbor_idx, w.param(f"{name}/lin/W"),
                    w.param(f"{name}/norm/gamma"), w.param(f"{name}/norm/beta"))
    return ad.leaky_relu(h)


def annular_aggregate(f: Tensor, graph: LocalGraph, w: ModelWeights, name) -> Tensor:
    """Two-stage grouped convolution: collapse distance groups, then groups.

    The first stage convolves each group's k/g edge features [f_i, f_i - f_j]
    in distance order, with g from the weights' config.
    """
    n, k = graph.neighbor_idx.shape
    g = w.config.g
    if k % g != 0:
        raise ValueError(f"neighbor count {k} not divisible by {g} groups")
    h = ad.neighbor_linear(f, graph.neighbor_idx.reshape(n, g, k // g),
                           w.param(f"{name}/conv1/W"))
    h = _norm_act(h, w, f"{name}/bn1", "relu")
    return _norm_act(ad.grouped_neighbor_conv(h, w.param(f"{name}/conv2/W")), w,
                     f"{name}/bn2", "relu")


def angle_aggregate(graph: LocalGraph, w: ModelWeights, name) -> Tensor:
    """Two-stage grouped convolution over the per-neighbor cosines.

    The first stage's input is constant, k/g cosines per group, so
    `autodiff.covariance_norm` runs its convolution, norm and ReLU from the
    (k/g) x (k/g) covariance of the cosines and hands its (N, g, d) output
    straight to the second stage.
    """
    cfg = w.config
    n = graph.neighbor_cos.shape[0]
    h = ad.covariance_norm(graph.neighbor_cos.reshape(n, cfg.g, cfg.k // cfg.g),
                           w.param(f"{name}/conv1/W"), w.param(f"{name}/bn1/gamma"),
                           w.param(f"{name}/bn1/beta"))
    h = ad.grouped_neighbor_conv(h, w.param(f"{name}/conv2/W"))
    return _norm_act(h, w, f"{name}/bn2", "relu")


def self_attention_block(f: Tensor, graph: LocalGraph, w: ModelWeights, block: str) -> Tensor:
    """Two aggregation rounds on a fixed graph, fused through two heads.

    The max path and the annular+angle path evolve independently; round two
    aggregates each path's round-one output over the same graph. The angle
    input is constant per graph but each round has its own convolution
    parameters.
    """
    p = f"{block}/self"
    m1 = maxpool_aggregate(f, graph, w, f"{p}/max1")
    a1 = ad.add(annular_aggregate(f, graph, w, f"{p}/ann1"),
                angle_aggregate(graph, w, f"{p}/ang1"))
    m2 = maxpool_aggregate(m1, graph, w, f"{p}/max2")
    a2 = ad.add(annular_aggregate(a1, graph, w, f"{p}/ann2"),
                angle_aggregate(graph, w, f"{p}/ang2"))

    fused_max = _lin_norm_act(ad.concat_last_axis(f, m1, m2), w, f"{p}/fuse_max")
    fused_aa = _lin_norm_act(ad.concat_last_axis(f, a1, a2), w, f"{p}/fuse_aa")
    return ad.add(fused_max, fused_aa)


def cross_attention(f_a: Tensor, f_b: Tensor, w: ModelWeights, block: str) -> Tensor:
    """Attend from side a over side b and add an MLP update to f_a."""
    if f_a.shape[0] == 0 or f_b.shape[0] == 0:
        raise ValueError("cross_attention needs non-empty inputs")
    if f_a.shape[1] != f_b.shape[1]:
        raise ValueError(f"feature widths differ: {f_a.shape} vs {f_b.shape}")
    p = f"{block}/cross"
    q = ad.matmul(f_a, w.param(f"{p}/Wq/W"))
    kk = ad.matmul(f_b, w.param(f"{p}/Wk/W"))
    v = ad.matmul(f_b, w.param(f"{p}/Wv/W"))
    scores = ad.scale(ad.matmul(q, ad.transpose2d(kk)), 1.0 / np.sqrt(w.config.d))
    alpha = ad.softmax_last_axis(scores)
    msg = ad.matmul(alpha, v)
    h = ad.add(ad.matmul(ad.concat_last_axis(q, msg), w.param(f"{p}/mlp/lin1/W")),
               w.param(f"{p}/mlp/lin1/b"))
    return ad.add(f_a, ad.matmul(ad.leaky_relu(h), w.param(f"{p}/mlp/lin2/W")))


def forward_features(bearings_p, colors_p, bearings_q, colors_q, w: ModelWeights):
    """Run the full network on raw bearing/color arrays for both sides.

    Each side runs in canonical order; the features come back in input order.
    """
    cfg = w.config
    bearings_p, colors_p, back_p = _canonical_side(bearings_p, colors_p)
    bearings_q, colors_q, back_q = _canonical_side(bearings_q, colors_q)
    f_p = encode(bearings_p, colors_p, w, "2d")
    f_q = encode(bearings_q, colors_q, w, "3d")
    graph_p = build_knn_graph(bearings_p, cfg.k)
    graph_q = build_knn_graph(bearings_q, cfg.k)
    for t in range(cfg.n_blocks):
        blk = f"blk{t}"
        f_p = self_attention_block(f_p, graph_p, w, blk)
        f_q = self_attention_block(f_q, graph_q, w, blk)
        f_p, f_q = (cross_attention(f_p, f_q, w, blk),
                    cross_attention(f_q, f_p, w, blk))
    return ad.gather_rows(f_p, back_p), ad.gather_rows(f_q, back_q)


def _canonical_side(bearings, colors):
    """One side's bearings and colors in canonical order, and the way back."""
    b = np.asarray(bearings, dtype=np.float64).reshape(-1, 2)
    c = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    if len(b) != len(c):
        raise ValueError(f"bearing/color counts differ: {len(b)} vs {len(c)}")
    order, inverse = ad.canonical_order(np.concatenate([b, c], axis=1))
    return b[order], c[order], inverse


def scene_inputs(pair: ScenePair):
    """Bearing and color arrays for both sides of a scene pair.

    The one place the 3D side's frame is chosen; the classifier reads its
    candidates' rows of these arrays. That frame is still the query's
    ground-truth pose, which inference should not read. The `ScenePair`
    contract puts every point in front of it, so every bearing is defined.
    """
    bp = pixel_bearings(pair.intrinsics, pair.keypoints)
    bq, _ = world_bearings(pair.query_pose, pair.points)
    return bp, pair.kp_colors, bq, pair.pt_colors


def forward(pair: ScenePair, w: ModelWeights):
    """Enhanced per-point features (M x d, N x d) for a scene pair, whose
    sides must each hold more than k points for the kNN graph."""
    k = w.config.k
    m, n = len(pair.keypoints), len(pair.points)
    for count, side in ((m, "keypoint"), (n, "point")):
        if count <= k:
            raise InvalidConfig(f"{side} count {count} must exceed k={k}")
    bp, cp, bq, cq = scene_inputs(pair)
    return forward_features(bp, cp, bq, cq, w)
