"""Losses, Adam, the desk-scale training loop, and gradient verification.

A scene's loss runs the chain inference runs, `pipeline.scene_plan` then
`pipeline.classify_candidates`, so training and inference score a scene
the same way. The matching loss is the negative log-likelihood of the
transport plan, read off Sinkhorn's log plan, at the ground-truth cells
plus the dustbin cells of unmatched points, from the plan and the ground
truth alone; the rejection loss is class-balanced binary cross-entropy on
the classifier logits. Neither takes the log of a probability, so neither
needs a floor that would stop a gradient. A scene's total is their sum, or
the matching loss alone when there are no candidates. Candidate selection
(mutual NN) is discrete, so gradients treat the selected set as fixed; the
finite-difference checker freezes it at the base point for the same reason,
and holds Sinkhorn at the iteration count its base-point plan ran, since a
count that moves with the scores would make the differences jump.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, constant
from .geometry import CorrespondenceSet
from .network import ModelWeights, NetworkConfig
from .pipeline import classify_candidates, scene_plan
from .transport import ScoreMatrix, mutual_nn


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LossReport:
    matching_loss: float
    rejection_loss: float
    total: float
    n_matching: int
    n_candidates: int
    sinkhorn_iters: int


def matching_cells(gt, m: int, n: int):
    """(rows, cols) of the matching loss's target cells in an (m+1) x (n+1)
    plan: the gt pairs in order, then each unmatched row's dustbin column
    and each unmatched column's dustbin row, both ascending."""
    gt_i = np.array(gt.indices_2d(), dtype=np.intp)
    gt_j = np.array(gt.indices_3d(), dtype=np.intp)
    bad = np.flatnonzero((gt_i < 0) | (gt_i >= m) | (gt_j < 0) | (gt_j >= n))
    if len(bad):
        raise ValueError(f"ground-truth pair ({gt_i[bad[0]]},{gt_j[bad[0]]}) out of bounds")
    free_i = np.setdiff1d(np.arange(m), gt_i)
    free_j = np.setdiff1d(np.arange(n), gt_j)
    return (np.concatenate([gt_i, free_i, np.full(len(free_j), m)]),
            np.concatenate([gt_j, np.full(len(free_i), n), free_j]))


def matching_loss(log_plan: ScoreMatrix, gt) -> Tensor:
    """Mean negative entry of an (M+1, N+1) log plan over its `matching_cells`."""
    if not log_plan.log_domain:
        raise ValueError("matching_loss expects a log plan")
    p = log_plan.values
    rows, cols = matching_cells(gt, p.shape[0] - 1, p.shape[1] - 1)
    return ad.scale(ad.sum_all(ad.gather_pairs(p, rows, cols)), -1.0 / len(rows))


def balance_weights(labels) -> np.ndarray:
    """Inverse class-frequency weights within a batch, clamped to [0.1, 10]."""
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    n_pos = max(int(y.sum()), 1)
    n_neg = max(n - int(y.sum()), 1)
    w_pos = np.clip(n / (2.0 * n_pos), 0.1, 10.0)
    w_neg = np.clip(n / (2.0 * n_neg), 0.1, 10.0)
    return np.where(y > 0.5, w_pos, w_neg)


def rejection_loss(logits: Tensor, labels, weights) -> Tensor:
    """Weighted binary cross-entropy over candidate logits z with labels y:
    the mean of w (softplus(z) - y z), which is -w log sigmoid(z) for y = 1
    and -w log(1 - sigmoid(z)) for y = 0."""
    y = np.asarray(labels, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = logits.shape[0]
    if len(y) != n or len(w) != n:
        raise ValueError(f"{n} logits, {len(y)} labels, {len(w)} weights")
    term = ad.sub(ad.softplus(logits), ad.mul(constant(y), logits))
    return ad.scale(ad.sum_all(ad.mul(constant(w), term)), 1.0 / n)


# --- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_weights(cls, weights: ModelWeights) -> "AdamState":
        return cls({k: np.zeros_like(p.data) for k, p in weights.params.items()},
                   {k: np.zeros_like(p.data) for k, p in weights.params.items()}, 0)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(weights: ModelWeights, state: AdamState, cfg: TrainConfig):
    """One in-place Adam update from each parameter's grad; deterministic
    given state.

    Per parameter, with c1 = 1 - beta1^t and c2 = 1 - beta2^t:
    m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g and
    p -= (lr (m / c1)) / (sqrt(v / c2) + eps), each step one ufunc into m,
    v, p or two scratch buffers shared by all parameters.
    """
    state.t += 1
    t = state.t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    size = max(p.data.size for p in weights.params.values())
    buf = np.empty((2, size), dtype=weights.dtype)
    for name, p in weights.params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        # Views, so that a 0-d parameter gets a 0-d array to write into.
        s, u = (b[:m.size].reshape(m.shape) for b in buf)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        v += np.multiply(s, g, out=s)
        np.sqrt(np.divide(v, c2, out=s), out=s)
        s += ADAM_EPS
        np.divide(m, c1, out=u)
        u *= cfg.learning_rate
        p.data -= np.divide(u, s, out=u)


# --- per-scene loss -----------------------------------------------------------


def scene_loss(pair, weights: ModelWeights, *, frozen_candidates=None, sinkhorn_iters=None):
    """Total loss of one scene; returns (loss, report, candidates).

    frozen_candidates pins the discrete mutual-NN selection, and
    sinkhorn_iters Sinkhorn's iteration count, so repeated forward
    evaluations (finite differences) see a smooth function.
    """
    plan = scene_plan(pair, weights, sinkhorn_iters)
    l_match = matching_loss(plan, pair.gt_matches)

    candidates = frozen_candidates if frozen_candidates is not None else mutual_nn(plan)
    l_rej = None
    if len(candidates) > 0:
        gt_set = pair.gt_matches.pair_set()
        labels = np.array([1.0 if (i, j) in gt_set else 0.0 for i, j, _ in candidates])
        logits = classify_candidates(pair, candidates, weights)
        l_rej = rejection_loss(logits, labels, balance_weights(labels))

    total = l_match if l_rej is None else ad.add(l_match, l_rej)
    report = LossReport(
        matching_loss=l_match.item(),
        rejection_loss=l_rej.item() if l_rej is not None else 0.0,
        total=total.item(),
        n_matching=len(matching_cells(pair.gt_matches, len(pair.keypoints), len(pair.points))[0]),
        n_candidates=len(candidates),
        sinkhorn_iters=plan.iterations,
    )
    return total, report, candidates


def train(dataset, cfg: TrainConfig, net_cfg: NetworkConfig = None,
          weights: ModelWeights = None):
    """Mini-batch training over scene pairs; bit-reproducible given seed.

    net_cfg is used only when no weights are given: fresh weights of that
    config (default NetworkConfig()) are initialized from cfg.seed. Given
    weights carry their own config. Returns (weights, reports, epoch_seconds)
    with one LossReport per epoch holding epoch-mean losses and summed counts,
    Sinkhorn iterations included.
    """
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    if weights is None:
        weights = ModelWeights.initialize(net_cfg or NetworkConfig(), seed=cfg.seed)
    state = AdamState.for_weights(weights)
    rng = np.random.default_rng(cfg.seed)
    reports = []
    epoch_seconds = []

    for _epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(dataset))
        sums = np.zeros(3)
        counts = np.zeros(3, dtype=np.int64)
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            weights.zero_grad()
            for sid in batch_idx:
                pair = dataset[int(sid)]
                with Tape() as tape:
                    loss, rep, _ = scene_loss(pair, weights)
                    tape.backward(loss)
                sums += (rep.matching_loss, rep.rejection_loss, rep.total)
                counts += (rep.n_matching, rep.n_candidates, rep.sinkhorn_iters)
            # Each grad is a fresh array owned by its parameter (zero_grad
            # or an _accum sum), so it is scaled in place.
            inv = 1.0 / len(batch_idx)
            for p in weights.params.values():
                p.grad *= inv
            adam_step(weights, state, cfg)
        mean = sums / len(dataset)
        reports.append(LossReport(*mean.tolist(), *counts.tolist()))
        epoch_seconds.append(time.perf_counter() - t0)
    return weights, reports, epoch_seconds


# --- finite-difference verification --------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    entries: list
    max_rel_error: float
    worst: GradCheckEntry
    per_module: dict


FD_STEP = 1e-5


def _module_of(name: str) -> str:
    head = name.split("/")[0]
    if head.startswith("blk"):
        return f"{head}/{name.split('/')[1]}"
    return head


def _fixed_candidates(pair):
    """Deterministic candidate set so the classifier path is always exercised.

    A model's own mutual-NN candidates may be none or too few: the context
    norm maps one candidate to 0 and two to about +-1, so next to no
    gradient reaches the classifier. Mix ground-truth pairs with wrong pairs so both
    cross-entropy terms carry gradient.
    """
    gt = [(i, j) for i, j, _ in list(pair.gt_matches)[:8]]
    cells = gt + [(i, (j + 3) % len(pair.points)) for i, j in gt[:4]]
    if len(cells) < 2:
        cells = [(0, 0), (1, 1), (2, 3)]
    # dict.fromkeys drops repeated cells and keeps first-seen order.
    return CorrespondenceSet([(i, j, 0.5) for i, j in dict.fromkeys(cells)])


def grad_check(pair, weights: ModelWeights, sample: int = 64, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients with central differences on sampled entries.

    Sampling is stratified over parameter groups (encoder, max path, annular,
    angle, fusion, cross attention, dustbin score, classifier) so every
    distinct backward rule is exercised. The check runs the network's own
    code on a float64 copy of the weights, whose differences resolve
    FD_STEP; the given weights are left as they are.
    """
    weights = weights.astype(np.float64)
    rng = np.random.default_rng(seed)

    candidates = _fixed_candidates(pair)
    weights.zero_grad()
    with Tape() as tape:
        loss, report, _ = scene_loss(pair, weights, frozen_candidates=candidates)
        tape.backward(loss)
    iters = report.sinkhorn_iters
    analytic = {k: p.grad.copy() for k, p in weights.params.items()}

    groups: dict = {}
    for name, p in weights.params.items():
        groups.setdefault(_module_of(name), []).append(name)
    picks = []
    group_names = sorted(groups)
    per_group = max(1, sample // len(group_names))
    for gname in group_names:
        names = groups[gname]
        for _ in range(per_group):
            name = names[int(rng.integers(len(names)))]
            size = weights.params[name].data.size
            picks.append((name, int(rng.integers(size))))
    while len(picks) < sample:
        name = list(weights.params)[int(rng.integers(len(weights.params)))]
        picks.append((name, int(rng.integers(weights.params[name].data.size))))

    def loss_at() -> float:
        total, _, _ = scene_loss(pair, weights, frozen_candidates=candidates,
                                 sinkhorn_iters=iters)
        return total.item()

    def measure(p, idx, step) -> float:
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + step
        f_plus = loss_at()
        p.data.flat[idx] = orig - step
        f_minus = loss_at()
        p.data.flat[idx] = orig
        return (f_plus - f_minus) / (2.0 * step)

    # An entry's error is |a - n| over the largest of |a|, |n| and its
    # module's median |gradient|, so an entry that should be near 0 is judged
    # against the module's scale rather than its own round-off.
    scale = {module: float(np.median(np.abs(np.concatenate([analytic[k].ravel() for k in names]))))
             for module, names in groups.items()}
    entries = []
    for name, idx in picks:
        p = weights.params[name]
        a = float(analytic[name].flat[idx])
        floor = scale[_module_of(name)]
        best_numeric, best_rel = None, None
        # A ReLU/argmax kink inside the difference interval fakes a mismatch;
        # shrinking the step moves the kink outside, while a genuinely wrong
        # backward rule disagrees at every step.
        for step in (FD_STEP, FD_STEP / 10.0, FD_STEP / 100.0):
            numeric = measure(p, idx, step)
            diff = abs(a - numeric)
            rel = 0.0 if diff == 0.0 else diff / max(abs(a), abs(numeric), floor)
            if best_rel is None or rel < best_rel:
                best_numeric, best_rel = numeric, rel
            if best_rel < 1e-4:
                break
        entries.append(GradCheckEntry(name, idx, a, best_numeric, best_rel))

    worst = max(entries, key=lambda e: e.rel_error)
    per_module: dict = {}
    for e in entries:
        key = _module_of(e.name)
        if key not in per_module or e.rel_error > per_module[key]:
            per_module[key] = e.rel_error
    return GradCheckReport(entries, worst.rel_error, worst, per_module)
