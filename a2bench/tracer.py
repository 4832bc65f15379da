"""Per-layer tracing of a2match from outside the package.

Each traced layer is a public (or module-level) function of one a2match
module. Tracing rebinds that function, in every a2match module that holds a
reference to it, to a wrapper that times the call and counts it; leaving the
tracer restores every binding. No file of the package changes.

A layer's self time is its call's duration minus the time spent in traced
calls it made. Work done by the tracer itself after a call returns (the
derived counters below) is charged to no layer, so it shows only in the
tracing overhead, which the workload measures as traced minus untraced wall
time on identical inputs.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass

import speed

PACKAGE = "a2match"


@dataclass(frozen=True)
class Layer:
    name: str            # metric prefix, e.g. "network.encode"
    module: str          # defining module inside the package
    attr: str            # attribute path in that module, e.g. "Tape.backward"
    expected: frozenset  # workloads on which the layer must be called


NET = frozenset({"localize", "train"})
TRAIN = frozenset({"train"})
POSE = frozenset({"pose"})
NONE = frozenset()

LAYERS = (
    Layer("pipeline.localize_scene", "pipeline", "localize_scene", frozenset({"localize"})),
    Layer("pipeline.localize_oracle", "pipeline", "localize_oracle", POSE),
    Layer("training.train", "training", "train", TRAIN),
    Layer("network.forward", "network", "forward", NET),
    Layer("network.encode", "network", "encode", NET),
    Layer("network.build_knn_graph", "network", "build_knn_graph", NET),
    Layer("network.self_attention_block", "network", "self_attention_block", NET),
    Layer("network.maxpool_aggregate", "network", "maxpool_aggregate", NET),
    Layer("network.annular_aggregate", "network", "annular_aggregate", NET),
    Layer("network.angle_aggregate", "network", "angle_aggregate", NET),
    Layer("network.cross_attention", "network", "cross_attention", NET),
    Layer("autodiff.matmul", "autodiff", "matmul", NET),
    Layer("autodiff.instance_norm", "autodiff", "instance_norm", NET),
    Layer("autodiff.batch_norm_1d", "autodiff", "batch_norm_1d", NET),
    Layer("autodiff.grouped_neighbor_conv", "autodiff", "grouped_neighbor_conv", NET),
    Layer("autodiff.softmax_last_axis", "autodiff", "softmax_last_axis", NET),
    Layer("autodiff.logsumexp_over_axis", "autodiff", "logsumexp_over_axis", NET),
    Layer("autodiff.Tape.backward", "autodiff", "Tape.backward", TRAIN),
    Layer("transport.cost_matrix", "transport", "cost_matrix", NET),
    Layer("transport.sinkhorn", "transport", "sinkhorn", NET),
    Layer("transport.mutual_nn", "transport", "mutual_nn", NET),
    # Idle on every workload while the untrained model yields no mutual-NN
    # candidates; listed so that work appearing here is seen.
    Layer("rejection.classify", "rejection", "classify", NONE),
    Layer("rejection.filter_correspondences", "rejection", "filter_correspondences", NONE),
    Layer("training.scene_loss", "training", "scene_loss", TRAIN),
    Layer("training.matching_loss", "training", "matching_loss", TRAIN),
    Layer("training.adam_step", "training", "adam_step", TRAIN),
    Layer("posemetrics.pnp_ransac", "posemetrics", "pnp_ransac", POSE),
    Layer("posemetrics._p3p_solutions", "posemetrics", "_p3p_solutions", POSE),
    Layer("posemetrics._refine_pose", "posemetrics", "_refine_pose", POSE),
    # Defined in geometry; the per-correspondence loop that calls it lives
    # in pipeline, hence the name.
    Layer("pipeline.project", "geometry", "project", POSE),
)

# matmul calls with stable_points_axis=True materialise an M x N x d tensor;
# they are timed as their own layer.
POINTS_AXIS = "autodiff.matmul.points_axis"


def layer_names():
    """Every timed layer name, the points-axis matmul variant included."""
    names = [layer.name for layer in LAYERS]
    names.insert(names.index("autodiff.matmul") + 1, POINTS_AXIS)
    return names


def expected_layers(workload):
    names = {layer.name for layer in LAYERS if workload in layer.expected}
    if "autodiff.matmul" in names:
        names.add(POINTS_AXIS)
    return names


def rebind(module, attr, make):
    """Rebind `module.attr` everywhere in the package to `make(current)`.

    Every package module attribute that refers to the current object is
    rebound, so callers that imported the function by name see the wrapper
    too. For a method (`Class.method`) the class attribute is rebound.
    Returns a callable that restores the old bindings, or None when the
    attribute does not exist.
    """
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    current = getattr(owner, last, None) if owner is not None else None
    if current is None:
        return None
    replacement = make(current)
    if path:
        sites = [(owner, last)]
    else:
        sites = [(mod, name)
                 for mod_name, mod in list(sys.modules.items())
                 if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                 for name, value in list(vars(mod).items()) if value is current]
    for target, name in sites:
        setattr(target, name, replacement)

    def restore():
        for target, name in sites:
            setattr(target, name, current)
    return restore


class Tracer:
    """Context manager that times every layer in LAYERS while active."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(float)
        self.missing = []
        self._stack = []
        self._restore = []
        self._gt = frozenset()

    def __enter__(self):
        for layer in LAYERS:
            undo = rebind(layer.module, layer.attr, lambda fn, layer=layer: self._wrap(fn, layer))
            if undo is None:
                self.missing.append(layer.name)
            else:
                self._restore.append(undo)
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._restore:
            self._restore.pop()()
        return False

    def _wrap(self, fn, layer):
        after = getattr(self, "_after_" + layer.name.replace(".", "_"), None)
        is_matmul = layer.name == "autodiff.matmul"

        def traced(*args, **kwargs):
            name = layer.name
            if is_matmul and kwargs.get("stable_points_axis", args[2] if len(args) > 2 else False):
                name = POINTS_AXIS
            frame = [0.0]
            self._stack.append(frame)
            t0 = speed.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = speed.clock() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if after is not None:
                t1 = speed.clock()
                after(args, result)
                if self._stack:
                    self._stack[-1][0] += speed.clock() - t1
            return result

        return traced

    # --- derived counters, read from a layer's arguments and result ---------

    def _after_network_forward(self, args, result):
        self._gt = frozenset(args[0].gt_matches.pair_set())

    def _after_transport_sinkhorn(self, args, plan):
        residuals = getattr(sys.modules[f"{PACKAGE}.transport"], "marginal_residuals", None)
        if residuals is None:
            if "transport.marginal_residuals" not in self.missing:
                self.missing.append("transport.marginal_residuals")
            return
        self.sums["row_residual"] += residuals(plan)[0]
        self.sums["plans"] += 1

    def _after_transport_mutual_nn(self, args, corrs):
        pairs = corrs.pair_set()
        self.sums["candidates"] += len(pairs)
        self.sums["true_candidates"] += len(pairs & self._gt)

    def _after_autodiff_Tape_backward(self, args, result):
        self.sums["tape_records"] += len(args[0])

    def _after_posemetrics_pnp_ransac(self, args, estimate):
        if len(estimate.inlier_mask):
            self.sums["inlier_share"] += float(estimate.inlier_mask.mean())
            self.sums["estimates"] += 1

    def _after_rejection_filter_correspondences(self, args, kept):
        self.sums["offered"] += len(args[0])
        self.sums["accepted"] += len(kept)

    def metrics(self, items):
        """Per-layer metrics per item, plus the names of undefined ratios."""
        out = {}
        for name in layer_names():
            out[f"{name}.self_s"] = (self.self_s[name] / items, "s")
            out[f"{name}.calls"] = (self.calls[name] / items, "count")
        undefined = []

        def ratio(num, den, metric):
            if self.sums[den] == 0:
                undefined.append(metric)
                return 0.0
            return self.sums[num] / self.sums[den]

        out["transport.sinkhorn.row_residual"] = (
            ratio("row_residual", "plans", "transport.sinkhorn.row_residual"), "mass")
        out["transport.mutual_nn.candidates"] = (self.sums["candidates"] / items, "count")
        out["transport.mutual_nn.precision"] = (
            ratio("true_candidates", "candidates", "transport.mutual_nn.precision"), "ratio")
        out["autodiff.tape_records"] = (self.sums["tape_records"] / items, "count")
        out["posemetrics.inlier_share"] = (
            ratio("inlier_share", "estimates", "posemetrics.inlier_share"), "ratio")
        out["rejection.accept_share"] = (
            ratio("accepted", "offered", "rejection.accept_share"), "ratio")
        return out, undefined
