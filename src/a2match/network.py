"""Bearing-space graph attention: encoder, kNN graphs, annular and angle
aggregation, self/cross attention.

Both sides live in the 2D bearing plane, so one set of attention block
parameters serves 2D keypoints and 3D points alike; only the input encoders
are per-modality (optionally shared). Neighbor lists are sorted by ascending
distance; the annular convolutions collapse each distance group and then the
group axis, and the angle path runs the same two-stage convolution over
per-neighbor direction cosines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .geometry import pixel_bearings, unit_vectors, world_bearings
from .synth import MAX_POINTS, MIN_POINTS, ScenePair


class TooFewPoints(Exception):
    pass


class EmptyInput(Exception):
    pass


ANGLE_REFERENCES = ("nearest", "chain")


@dataclass(frozen=True)
class NetworkConfig:
    d: int = 128
    k: int = 9
    g: int = 3
    n_blocks: int = 2
    leaky_slope: float = 0.2
    norm_eps: float = 1e-5
    share_encoders: bool = False
    classifier_units: int = 6
    classifier_use_score: bool = False
    angle_reference: str = "nearest"

    def __post_init__(self):
        if self.d < 4:
            raise ValueError(f"feature width must be >= 4, got {self.d}")
        if self.k <= 0 or self.g <= 0 or self.k % self.g != 0:
            raise ValueError(f"neighbor count {self.k} must be divisible by group count {self.g}")
        if self.n_blocks < 1:
            raise ValueError(f"need at least one attention block, got {self.n_blocks}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky slope must be in (0,1), got {self.leaky_slope}")
        if self.angle_reference not in ANGLE_REFERENCES:
            raise ValueError(f"angle_reference must be one of {ANGLE_REFERENCES}")


@dataclass
class LocalGraph:
    neighbor_idx: np.ndarray   # (N,k) int, ascending distance, no self loops
    neighbor_dist: np.ndarray  # (N,k)
    neighbor_cos: np.ndarray   # (N,k)


def _edge_cosines(vecs: np.ndarray, reference: str) -> np.ndarray:
    """Cosines between per-node reference edges and each neighbor edge.

    vecs is (N,k,2), node->neighbor in ascending-distance order. "nearest"
    compares every edge against the edge to the nearest neighbor; "chain"
    compares consecutive edges. The rule is that of geometry.neighbor_cosine:
    cosine 0 only where either edge is exactly zero (a duplicate point), and
    otherwise scale-invariant for every finite input.
    """
    unit = unit_vectors(vecs)
    if reference == "nearest":
        ref = unit[:, :1, :]
    else:
        ref = np.concatenate([unit[:, :1, :], unit[:, :-1, :]], axis=1)
    dot = ref[..., 0] * unit[..., 0] + ref[..., 1] * unit[..., 1]
    return np.clip(dot, -1.0, 1.0)


def build_knn_graph(positions, k: int, angle_reference: str = "nearest") -> LocalGraph:
    """k nearest neighbors by Euclidean distance on bearing coordinates."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    n = len(pos)
    if n <= k:
        raise TooFewPoints(f"need more than k={k} points, got {n}")
    dx = pos[:, 0][:, None] - pos[:, 0][None, :]
    dy = pos[:, 1][:, None] - pos[:, 1][None, :]
    dist = np.hypot(dx, dy)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    ndist = np.take_along_axis(dist, order, axis=1)
    vecs = pos[order] - pos[:, None, :]
    ncos = _edge_cosines(vecs, angle_reference)
    return LocalGraph(order, ndist, ncos)


# --- parameters ---------------------------------------------------------------


class ModelWeights:
    """Named float64 parameters plus batch-norm running buffers.

    Parameter creation order is fixed, so initialization from a seed and the
    serialized record stream are both reproducible.
    """

    def __init__(self, config: NetworkConfig, params: dict, buffers: dict):
        self.config = config
        self.params = params
        self.buffers = buffers

    @classmethod
    def initialize(cls, config: NetworkConfig, seed: int = 0) -> "ModelWeights":
        rng = np.random.default_rng(seed)
        params: dict = {}
        buffers: dict = {}

        def linear(name, fan_in, fan_out, bias=True):
            bound = np.sqrt(6.0 / fan_in)
            params[f"{name}/W"] = Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)),
                                         requires_grad=True)
            if bias:
                params[f"{name}/b"] = Tensor(np.zeros(fan_out), requires_grad=True)

        def norm(name, c):
            params[f"{name}/gamma"] = Tensor(np.ones(c), requires_grad=True)
            params[f"{name}/beta"] = Tensor(np.zeros(c), requires_grad=True)

        def bn(name, c):
            norm(name, c)
            buffers[f"{name}/running_mean"] = np.zeros(c)
            buffers[f"{name}/running_var"] = np.ones(c)
            buffers[f"{name}/count"] = np.zeros(1)

        d, k, g = config.d, config.k, config.g
        enc_keys = ["shared"] if config.share_encoders else ["2d", "3d"]
        for key in enc_keys:
            for channel, width in (("bearing", 2), ("color", 3)):
                base = f"enc/{key}/{channel}"
                linear(f"{base}/proj", width, d)
                for r in range(3):
                    linear(f"{base}/res{r}/lin", d, d)
                    norm(f"{base}/res{r}/norm", d)

        for t in range(config.n_blocks):
            blk = f"blk{t}/self"
            for r in (1, 2):
                linear(f"{blk}/max{r}/lin", 2 * d, d)
                norm(f"{blk}/max{r}/norm", d)
                linear(f"{blk}/ann{r}/conv1", (k // g) * 2 * d, d)
                bn(f"{blk}/ann{r}/bn1", d)
                linear(f"{blk}/ann{r}/conv2", g * d, d)
                bn(f"{blk}/ann{r}/bn2", d)
                linear(f"{blk}/ang{r}/conv1", (k // g) * 1, d)
                bn(f"{blk}/ang{r}/bn1", d)
                linear(f"{blk}/ang{r}/conv2", g * d, d)
                bn(f"{blk}/ang{r}/bn2", d)
            for fuse in ("fuse_max", "fuse_aa"):
                linear(f"{blk}/{fuse}/lin", 3 * d, d)
                norm(f"{blk}/{fuse}/norm", d)
            cross = f"blk{t}/cross"
            linear(f"{cross}/Wq", d, d, bias=False)
            linear(f"{cross}/Wk", d, d, bias=False)
            linear(f"{cross}/Wv", d, d, bias=False)
            linear(f"{cross}/mlp/lin1", 2 * d, 2 * d)
            linear(f"{cross}/mlp/lin2", 2 * d, d)

        # Scores are negated L2 costs, so every main cell is <= 0; a positive
        # dustbin score would dominate every row until the optimizer walks it
        # down, which at lr=1e-3 takes hundreds of epochs. Start just below
        # the score of a perfect match instead.
        params["ot/alpha_bin"] = Tensor(np.array(-1.0), requires_grad=True)

        clf_in = 5 if config.classifier_use_score else 4
        linear("clf/proj", clf_in, d)
        for r in range(config.classifier_units):
            linear(f"clf/res{r}/lin", d, d)
        linear("clf/head", d, 1)

        return cls(config, params, buffers)

    def param(self, name: str) -> Tensor:
        return self.params[name]

    def encoder_key(self, modality: str) -> str:
        if self.config.share_encoders:
            return "shared"
        if modality not in ("2d", "3d"):
            raise ValueError(f"modality must be '2d' or '3d', got {modality!r}")
        return modality

    def bn_state(self, prefix: str) -> ad.BatchNormState:
        return ad.BatchNormState(self.buffers[f"{prefix}/running_mean"],
                                 self.buffers[f"{prefix}/running_var"],
                                 self.buffers[f"{prefix}/count"])

    def zero_grad(self):
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())


# --- building blocks ----------------------------------------------------------


def _linear(x, w: ModelWeights, name):
    y = ad.matmul(x, w.param(f"{name}/W"))
    bias = f"{name}/b"
    if bias in w.params:
        y = ad.add(y, w.param(bias))
    return y


def _lin_norm_act(x, w: ModelWeights, name, cfg: NetworkConfig):
    """linear -> instance norm -> LeakyReLU on a 2D (rows, channels) tensor."""
    y = _linear(x, w, f"{name}/lin")
    y = ad.instance_norm(y, w.param(f"{name}/norm/gamma"), w.param(f"{name}/norm/beta"),
                         eps=cfg.norm_eps)
    return ad.leaky_relu(y, cfg.leaky_slope)


def encode(bearings, colors, w: ModelWeights, modality: str) -> Tensor:
    """Per-point features: bearing MLP output plus color MLP output."""
    b = np.asarray(bearings, dtype=np.float64).reshape(-1, 2)
    c = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    if len(b) == 0 or len(c) == 0:
        raise EmptyInput("encode needs at least one point")
    if len(b) != len(c):
        raise ad.ShapeMismatch(f"bearing/color counts differ: {len(b)} vs {len(c)}")
    key = w.encoder_key(modality)
    cfg = w.config

    def stack(x, channel):
        base = f"enc/{key}/{channel}"
        h = _linear(constant(x), w, f"{base}/proj")
        for r in range(3):
            h = ad.add(h, _lin_norm_act(h, w, f"{base}/res{r}", cfg))
        return h

    return ad.add(stack(b, "bearing"), stack(c, "color"))


def edge_features(f: Tensor, graph: LocalGraph) -> Tensor:
    """e_ij = concat[f_i, f_i - f_ij] over the k graph neighbors."""
    n = graph.neighbor_idx.shape[0]
    if f.shape[0] != n:
        raise ad.ShapeMismatch(f"{f.shape[0]} feature rows but graph has {n} nodes")
    fj = ad.gather_rows(f, graph.neighbor_idx)
    self_idx = np.broadcast_to(np.arange(n)[:, None], graph.neighbor_idx.shape)
    fi = ad.gather_rows(f, self_idx)
    return ad.concat_last_axis(fi, ad.sub(fi, fj))


def _h_theta(e: Tensor, w: ModelWeights, name, cfg: NetworkConfig) -> Tensor:
    """Edge MLP: linear over channels, instance norm, LeakyReLU; keeps (N,k,.)."""
    n, k, d2 = e.shape
    flat = ad.reshape(e, (n * k, d2))
    h = _lin_norm_act(flat, w, name, cfg)
    return ad.reshape(h, (n, k, h.shape[-1]))


def maxpool_aggregate(e: Tensor, w: ModelWeights, name, cfg: NetworkConfig) -> Tensor:
    h = _h_theta(e, w, name, cfg)
    vals, _ = ad.max_over_axis(h, axis=1)
    return vals


def _conv_bn_relu(x: Tensor, width, w: ModelWeights, conv_name, bn_name,
                  cfg: NetworkConfig, training, update_stats) -> Tensor:
    y = ad.grouped_neighbor_conv(x, width, w.param(f"{conv_name}/W"), w.param(f"{conv_name}/b"))
    y = ad.batch_norm_1d(y, w.param(f"{bn_name}/gamma"), w.param(f"{bn_name}/beta"),
                         w.bn_state(bn_name), eps=cfg.norm_eps,
                         training=training, update_stats=update_stats)
    return ad.relu(y)


def annular_aggregate(e: Tensor, g: int, w: ModelWeights, name, cfg: NetworkConfig,
                      training=False, update_stats=False) -> Tensor:
    """Two-stage grouped convolution: collapse distance groups, then groups."""
    n, k, _ = e.shape
    if k % g != 0:
        raise ad.ShapeMismatch(f"neighbor count {k} not divisible by {g} groups")
    h = _conv_bn_relu(e, k // g, w, f"{name}/conv1", f"{name}/bn1", cfg, training, update_stats)
    h = _conv_bn_relu(h, g, w, f"{name}/conv2", f"{name}/bn2", cfg, training, update_stats)
    return ad.reshape(h, (n, h.shape[-1]))


def angle_aggregate(graph: LocalGraph, w: ModelWeights, name, cfg: NetworkConfig,
                    training=False, update_stats=False) -> Tensor:
    cosines = constant(graph.neighbor_cos[:, :, None])
    n = cosines.shape[0]
    h = _conv_bn_relu(cosines, cfg.k // cfg.g, w, f"{name}/conv1", f"{name}/bn1",
                      cfg, training, update_stats)
    h = _conv_bn_relu(h, cfg.g, w, f"{name}/conv2", f"{name}/bn2", cfg, training, update_stats)
    return ad.reshape(h, (n, h.shape[-1]))


def self_attention_block(f: Tensor, graph: LocalGraph, w: ModelWeights, block: str,
                         cfg: NetworkConfig, training=False, update_stats=False) -> Tensor:
    """Two aggregation rounds on a fixed graph, fused through two heads.

    The max path and the annular+angle path evolve independently; round two
    rebuilds edge features from each path's round-one output. The angle input
    is constant per graph but each round has its own convolution parameters.
    """
    p = f"{block}/self"
    e1 = edge_features(f, graph)
    m1 = maxpool_aggregate(e1, w, f"{p}/max1", cfg)
    m2 = maxpool_aggregate(edge_features(m1, graph), w, f"{p}/max2", cfg)

    a1 = ad.add(annular_aggregate(e1, cfg.g, w, f"{p}/ann1", cfg, training, update_stats),
                angle_aggregate(graph, w, f"{p}/ang1", cfg, training, update_stats))
    a2 = ad.add(annular_aggregate(edge_features(a1, graph), cfg.g, w, f"{p}/ann2", cfg,
                                  training, update_stats),
                angle_aggregate(graph, w, f"{p}/ang2", cfg, training, update_stats))

    fused_max = _lin_norm_act(ad.concat_last_axis(f, m1, m2), w, f"{p}/fuse_max", cfg)
    fused_aa = _lin_norm_act(ad.concat_last_axis(f, a1, a2), w, f"{p}/fuse_aa", cfg)
    return ad.add(fused_max, fused_aa)


def cross_attention(f_a: Tensor, f_b: Tensor, w: ModelWeights, block: str,
                    cfg: NetworkConfig) -> Tensor:
    """Attend from side a over side b and add an MLP update to f_a."""
    if f_a.shape[0] == 0 or f_b.shape[0] == 0:
        raise EmptyInput("cross_attention needs non-empty inputs")
    if f_a.shape[1] != f_b.shape[1]:
        raise ad.ShapeMismatch(f"feature widths differ: {f_a.shape} vs {f_b.shape}")
    p = f"{block}/cross"
    q = ad.matmul(f_a, w.param(f"{p}/Wq/W"))
    kk = ad.matmul(f_b, w.param(f"{p}/Wk/W"))
    v = ad.matmul(f_b, w.param(f"{p}/Wv/W"))
    scores = ad.scale(ad.matmul(q, ad.transpose2d(kk)), 1.0 / np.sqrt(cfg.d))
    alpha = ad.softmax_last_axis(scores)
    msg = ad.matmul(alpha, v, stable_points_axis=True)
    h = ad.leaky_relu(_linear(ad.concat_last_axis(q, msg), w, f"{p}/mlp/lin1"), cfg.leaky_slope)
    return ad.add(f_a, _linear(h, w, f"{p}/mlp/lin2"))


def forward_features(bearings_p, colors_p, bearings_q, colors_q, w: ModelWeights,
                     cfg: NetworkConfig = None, training=False, update_stats=False):
    """Run the full network on raw bearing/color arrays for both sides."""
    cfg = cfg or w.config
    f_p = encode(bearings_p, colors_p, w, "2d")
    f_q = encode(bearings_q, colors_q, w, "3d")
    graph_p = build_knn_graph(bearings_p, cfg.k, cfg.angle_reference)
    graph_q = build_knn_graph(bearings_q, cfg.k, cfg.angle_reference)
    for t in range(cfg.n_blocks):
        blk = f"blk{t}"
        f_p = self_attention_block(f_p, graph_p, w, blk, cfg, training, update_stats)
        f_q = self_attention_block(f_q, graph_q, w, blk, cfg, training, update_stats)
        f_p, f_q = (cross_attention(f_p, f_q, w, blk, cfg),
                    cross_attention(f_q, f_p, w, blk, cfg))
    return f_p, f_q


def scene_inputs(pair: ScenePair):
    """Bearing and color arrays for both sides of a scene pair."""
    bp = pixel_bearings(pair.intrinsics, pair.keypoints)
    bq, _ = world_bearings(pair.query_pose, pair.points)
    return bp, pair.kp_colors, bq, pair.pt_colors


def forward(pair: ScenePair, w: ModelWeights, cfg: NetworkConfig = None,
            training=False, update_stats=False):
    """Enhanced per-point features (M x d, N x d) for a scene pair."""
    cfg = cfg or w.config
    m, n = len(pair.keypoints), len(pair.points)
    for count, side in ((m, "keypoint"), (n, "point")):
        if not MIN_POINTS <= count <= MAX_POINTS:
            raise ValueError(f"{side} count {count} outside [{MIN_POINTS},{MAX_POINTS}]")
        if count <= cfg.k:
            raise TooFewPoints(f"{side} count {count} must exceed k={cfg.k}")
    bp, cp, bq, cq = scene_inputs(pair)
    return forward_features(bp, cp, bq, cq, w, cfg, training, update_stats)
