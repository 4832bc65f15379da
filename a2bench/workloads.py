"""The a2match benchmark workloads: seeded inputs, closed-loop timing and
output checks.

One client runs a closed loop: the next item starts when the previous one
has returned. Items come in fixed cycles that always run whole, so every run
of a workload measures the same mix of input sizes whatever its length; a
run stops before a cycle that would end after its time is up.
Latency is the program call alone; the checks and fingerprints between calls
are the benchmark's own work and are not timed. Throughput is the items of
one cycle over the cycle's busy time, taken as the sum of each input's
median call time.

Times are reported at nominal machine speed (speed.py): every program call
and set-up runs under a speed probe, and its seconds are scaled by the
probe's speed factor. The times before scaling are printed as well.

Every output is fingerprinted, and an input seen before must give the same
fingerprint again. That one rule checks that a rerun is bit-identical and
that the traced run reproduces the untraced run.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed
import tracer
from a2match import network, pipeline, posemetrics, synth, training, transport, weights_io
from a2match.geometry import CorrespondenceSet

WORKLOADS = ("localize", "train", "pose")

# Pose limits, set from measured values. Over seeds 0-19 every query
# succeeded; the largest errors were 0.020 deg and 0.0030 scene units with
# the full profile, 0.049 deg and 0.0059 with the smoke test's tiny scenes.
# A broken solver or refine is off by degrees.
ROT_LIMIT_DEG = 0.1
TRANS_LIMIT = 0.015

# Inlier masks, set from measured values. Over seeds 0-7 (full profile) and
# 0-19 (tiny) every true pair was an inlier, and at most 1 wrong pair in 179
# (0.56%) was.
TRUE_INLIER_MIN = 0.99
WRONG_INLIER_MAX = 0.02

# Column sums of the transport plan are exact up to float rounding because
# Sinkhorn's column update runs last.
COLUMN_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class Profile:
    """Input sizes of every workload."""

    localize_sizes: tuple = (100, 256, 512)
    pose_sizes: tuple = (100, 256, 512, 1024)
    outlier_shares: tuple = (0.25, 0.5, 0.75)
    train_size: int = 256
    train_scenes: int = 2
    train_epochs: int = 2
    d: int = 128
    setup_repeats: int = 5


FULL = Profile()
# Every code path of every workload in seconds, for the smoke test.
TINY = Profile(localize_sizes=(16,), pose_sizes=(16, 24), train_size=16, d=16, setup_repeats=1)


# --- inputs -------------------------------------------------------------------


def contaminate(pair, share, rng):
    """The scene's GT pairs plus random wrong pairs making up `share` of the set."""
    gt = list(pair.gt_matches)
    truth = pair.gt_matches.pair_set()
    m, n = len(pair.keypoints), len(pair.points)
    n_wrong = round(share / (1.0 - share) * len(gt))
    wrong = set()
    while len(wrong) < n_wrong:
        i, j = int(rng.integers(m)), int(rng.integers(n))
        if (i, j) not in truth:
            wrong.add((i, j))
    pairs = gt + [(i, j, 1.0) for i, j in sorted(wrong)]
    order = rng.permutation(len(pairs))
    return dataclasses.replace(pair, gt_matches=CorrespondenceSet([pairs[k] for k in order]))


def synthesize(workload, seed, profile):
    """The workload's scene pairs and, for pose, the set of true (i, j) pairs
    of each; fully determined by the seed."""
    rng = np.random.default_rng(seed)

    def scene(n):
        return synth.generate_scene(synth.SynthConfig(n_points=n, seed=int(rng.integers(2 ** 31))))

    if workload == "localize":
        return [scene(n) for n in profile.localize_sizes], []
    if workload == "train":
        return [scene(profile.train_size) for _ in range(profile.train_scenes)], []
    bases = [scene(n) for n in profile.pose_sizes]
    pairs = [contaminate(base, share, rng) for base in bases for share in profile.outlier_shares]
    truths = [base.gt_matches.pair_set() for base in bases for _ in profile.outlier_shares]
    return pairs, truths


# Imports numpy and a2match in a fresh interpreter and prints the seconds.
_IMPORT = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, a2match
print(time.perf_counter() - t0)
"""


def import_seconds(src, root):
    """Seconds a fresh interpreter takes to import numpy and a2match from src."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT, str(src)], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


@dataclass
class Setup:
    pairs: list
    truths: list      # pose: true (i, j) pairs of each input
    weights: object
    stages: dict      # stage name -> seconds


def set_up(workload, seed, profile, root, src):
    """Import the program in a fresh interpreter, synthesize the inputs,
    round-trip them through the scene JSON format and fresh weights through
    the A2GW format, inside `root`."""
    import_s = import_seconds(src, root)
    t0 = speed.clock()
    generated, truths = synthesize(workload, seed, profile)
    t1 = speed.clock()
    with tempfile.TemporaryDirectory(prefix=".a2bench-", dir=root) as tmp:
        pairs = []
        for idx, pair in enumerate(generated):
            path = Path(tmp) / f"scene{idx}.json"
            synth.save_scene(path, pair)
            pairs.append(synth.load_scene(path))
        t2 = speed.clock()
        path = Path(tmp) / "weights.a2gw"
        weights_io.save_weights(path, network.ModelWeights.initialize(
            network.NetworkConfig(d=profile.d), seed))
        weights = weights_io.load_weights(path)
        t3 = speed.clock()
    return Setup(pairs, truths, weights, {"import.s": import_s,
                                          "synth.generate_scene.s": t1 - t0,
                                          "synth.scene_roundtrip.s": t2 - t1,
                                          "weights_io.roundtrip.s": t3 - t2})


# --- helpers ------------------------------------------------------------------


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _result_digest(res):
    pose = res.estimate.pose
    return _digest(res.failed, res.n_initial, res.n_final, res.rotation_error_deg,
                   res.translation_error, res.mean_reproj_px, res.estimate.inlier_mask,
                   *((pose.rotation, pose.translation) if pose is not None else ()))


def _mutual_nn_pairs(p):
    """(i, j) pairs that are each other's best entry of the plan's main block
    and beat both dustbins, computed without the program's mutual_nn."""
    m, n = p.shape[0] - 1, p.shape[1] - 1
    if m == 0 or n == 0:
        return set()
    main = p[:m, :n]
    rows = np.arange(m)
    best = main.argmax(axis=1)
    val = main[rows, best]
    keep = (main.argmax(axis=0)[best] == rows) & (val > p[:m, n]) & (val > p[m, best])
    return {(int(i), int(j)) for i, j in zip(rows[keep], best[keep])}


class Capture:
    """Keeps the last return value of the named pipeline functions."""

    def __init__(self, *names):
        self.names = names
        self.last = {}
        self._restore = []

    def __enter__(self):
        for name in self.names:
            undo = tracer.rebind("pipeline", name, lambda fn, name=name: self._keep(fn, name))
            if undo is None:
                raise RuntimeError(f"pipeline.{name} not found; the localize checks need it")
            self._restore.append(undo)
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._restore:
            self._restore.pop()()
        return False

    def _keep(self, fn, name):
        def keep(*args, **kwargs):
            self.last[name] = fn(*args, **kwargs)
            return self.last[name]
        return keep


# --- workloads ----------------------------------------------------------------
#
# Each workload takes its inputs from Setup and exposes:
#   cycle           input indices of one cycle
#   call(q)         run the program on input q:
#                   (output, busy seconds, latency samples, items done)
#   check(q, out)   failed correctness checks, as messages
#   digest(out)     fingerprint of the output
#   quality(outs)   end-to-end quality metrics over (q, output) pairs, one
#                   per input: repeats of an input are bit-identical


class Localize:
    """Full inference path, pipeline.localize_scene, one query per scene."""

    unit = "queries"

    def __init__(self, setup, profile):
        self.pairs = setup.pairs
        self.weights = setup.weights
        self.cycle = list(range(len(self.pairs)))
        self.capture = Capture("forward", "sinkhorn", "match_scene")

    def call(self, q):
        with self.capture:
            t0 = speed.clock()
            res = pipeline.localize_scene(self.pairs[q], self.weights)
            dt = speed.clock() - t0
        f_p, f_q = self.capture.last["forward"]
        plan = self.capture.last["sinkhorn"]
        match = self.capture.last["match_scene"]
        return (res, f_p.data, f_q.data, plan, match), dt, [dt], 1

    def check(self, q, out):
        res, f_p, f_q, plan, match = out
        m, n = len(self.pairs[q].keypoints), len(self.pairs[q].points)
        errors = []
        if not (np.isfinite(f_p).all() and np.isfinite(f_q).all()):
            errors.append("non-finite features")
        col = transport.marginal_residuals(plan)[1]
        if not col <= COLUMN_MARGINAL_TOL * (m + n):
            errors.append(f"plan column marginal residual {col:.3e}")
        ii, jj = match.initial.indices_2d(), match.initial.indices_3d()
        if not all(0 <= i < m for i in ii) or not all(0 <= j < n for j in jj):
            errors.append("mutual-NN pair out of range")
        if len(set(ii)) != len(ii) or len(set(jj)) != len(jj):
            errors.append("mutual-NN pairs not one-to-one")
        if match.initial.pair_set() != _mutual_nn_pairs(plan.values.data):
            errors.append("mutual-NN pairs differ from the plan's mutual best entries")
        if not match.final.pair_set() <= match.initial.pair_set():
            errors.append("final pairs not a subset of the mutual-NN pairs")
        if len(res.estimate.inlier_mask) != len(match.final):
            errors.append(f"inlier mask has {len(res.estimate.inlier_mask)} entries "
                          f"for {len(match.final)} final pairs")
        return errors

    def digest(self, out):
        res, f_p, f_q, plan, match = out
        return _digest(f_p, f_q, plan.values.data, match.initial.pairs, match.final.pairs,
                       _result_digest(res))

    def quality(self, outs):
        f1 = [pipeline.match_f1(out[4].final, self.pairs[q].gt_matches)[2] for q, out in outs]
        return {"success_share": (float(np.mean([not out[0].failed for _, out in outs])), "ratio"),
                "match_f1": (float(np.mean(f1)), "ratio")}


class Train:
    """training.train on a fixed dataset for a fixed number of epochs, each
    call from the same set-up weights."""

    unit = "scenes"

    def __init__(self, setup, profile):
        self.pairs = setup.pairs
        self.weights = setup.weights
        self.cfg = training.TrainConfig(epochs=profile.train_epochs,
                                        batch_size=len(self.pairs), seed=0)
        self.cycle = [0]

    def call(self, q):
        weights = copy.deepcopy(self.weights)
        t0 = speed.clock()
        trained, reports, epoch_seconds = training.train(self.pairs, self.cfg,
                                                         weights.config, weights)
        dt = speed.clock() - t0
        # The epoch times are the program's own and include the speed probe's
        # samples; scale them to sum to the probe-free call time.
        per_scene = [s * dt / sum(epoch_seconds) / len(self.pairs) for s in epoch_seconds]
        return (trained, reports), dt, per_scene, len(self.pairs) * self.cfg.epochs

    def check(self, q, out):
        trained, reports = out
        errors = []
        for e, rep in enumerate(reports):
            losses = (rep.matching_loss, rep.rejection_loss, rep.total)
            if not all(math.isfinite(v) for v in losses):
                errors.append(f"non-finite loss in epoch {e}")
        if not all(np.isfinite(p.data).all() for p in trained.params.values()):
            errors.append("non-finite trained weights")
        return errors

    def digest(self, out):
        trained, reports = out
        return _digest(*(p.data for p in trained.params.values()),
                       *trained.buffers.values(), [dataclasses.astuple(r) for r in reports])

    def quality(self, outs):
        _, (trained, reports) = outs[-1]
        return {"final_match_loss": (reports[-1].matching_loss, "nll")}


class Pose:
    """pipeline.localize_oracle on GT pairs mixed with wrong pairs."""

    unit = "queries"

    def __init__(self, setup, profile):
        self.pairs = setup.pairs
        self.truths = setup.truths
        self.cycle = list(range(len(self.pairs)))

    def call(self, q):
        t0 = speed.clock()
        res = pipeline.localize_oracle(self.pairs[q])
        dt = speed.clock() - t0
        return res, dt, [dt], 1

    def check(self, q, res):
        errors = []
        if res.failed:
            errors.append("localization failed")
        elif not res.rotation_error_deg <= ROT_LIMIT_DEG:
            errors.append(f"rotation error {res.rotation_error_deg:.4g} deg > {ROT_LIMIT_DEG}")
        elif not res.translation_error <= TRANS_LIMIT:
            errors.append(f"translation error {res.translation_error:.4g} > {TRANS_LIMIT}")
        pairs, truth = self.pairs[q].gt_matches, self.truths[q]
        mask = res.estimate.inlier_mask
        if len(mask) != len(pairs):
            errors.append(f"inlier mask has {len(mask)} entries for {len(pairs)} pairs")
            return errors
        true_in = sum(bool(keep) and (i, j) in truth for keep, (i, j, _) in zip(mask, pairs))
        wrong_in = int(np.sum(mask)) - true_in
        if true_in < TRUE_INLIER_MIN * len(truth):
            errors.append(f"{true_in} of {len(truth)} true pairs are inliers")
        if wrong_in > WRONG_INLIER_MAX * (len(pairs) - len(truth)):
            errors.append(f"{wrong_in} of {len(pairs) - len(truth)} wrong pairs are inliers")
        return errors

    def digest(self, res):
        return _result_digest(res)

    def quality(self, outs):
        rot = [res.rotation_error_deg for _, res in outs]
        trans = [res.translation_error for _, res in outs]
        return {"success_share": (float(np.mean([not res.failed for _, res in outs])), "ratio"),
                "rot_err_p50_deg": (posemetrics.error_quantiles(rot, (50.0,))[0], "deg"),
                "trans_err_p50": (posemetrics.error_quantiles(trans, (50.0,))[0], "units")}


KINDS = {"localize": Localize, "train": Train, "pose": Pose}


# --- the closed loop ----------------------------------------------------------


@dataclass
class Pass:
    """Calls of one pass. Times are at nominal speed; wall_* before scaling."""

    latencies: list = field(default_factory=list)
    wall_latencies: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # input -> first output
    busy: dict = field(default_factory=lambda: defaultdict(list))  # input -> call seconds
    wall_busy: dict = field(default_factory=lambda: defaultdict(list))
    speed: list = field(default_factory=list)     # speed factor of each call
    items: int = 0
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    mismatched: int = 0
    messages: list = field(default_factory=list)

    def cycle_seconds(self, wall=False):
        """Busy time of one cycle as the sum of each input's median call time.

        The machine's speed drifts and bursts by tens of percent over
        seconds; a median per input moves less with it than a total would.
        """
        busy = self.wall_busy if wall else self.busy
        return sum(statistics.median(v) for v in busy.values())

    def items_per_cycle(self):
        return self.items / self.cycles


def _attempt(wl, q, refs, p):
    """Run input q once, check it, and record it in pass p."""
    p.attempted += 1
    try:
        with speed.Probe() as probe:
            out, busy, latencies, items = wl.call(q)
        factor = probe.speed()
        errors = wl.check(q, out)
        fingerprint = wl.digest(out)
    except Exception:
        p.failed += 1
        p.messages.append(f"input {q} raised:\n{traceback.format_exc()}")
        return
    if refs.setdefault(q, fingerprint) != fingerprint:
        p.mismatched += 1
        errors.append("output differs from the first run of this input")
    if errors:
        p.failed += 1
        p.messages.extend(f"input {q}: {e}" for e in errors)
    p.busy[q].append(busy * factor)
    p.wall_busy[q].append(busy)
    p.latencies.extend(x * factor for x in latencies)
    p.wall_latencies.extend(latencies)
    p.speed.append(factor)
    p.items += items
    p.outputs.setdefault(q, out)


def closed_loop(wl, refs, seconds=None, cycles=None):
    """Run exactly `cycles` whole cycles, or as many as fit in `seconds`
    at the mean cycle time so far (at least one)."""
    p = Pass()
    t0 = time.perf_counter()
    while p.cycles < cycles if cycles is not None else (
            p.cycles == 0 or (time.perf_counter() - t0) * (p.cycles + 1) / p.cycles <= seconds):
        for q in wl.cycle:
            _attempt(wl, q, refs, p)
        p.cycles += 1
    return p


# --- one benchmark run --------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict        # name -> (value, unit), the metrics the run is judged on
    report: list         # (name, value, unit, samples) of every printed metric
    attempted: int
    failed: int
    messages: list       # failed checks and exceptions
    notes: list          # layers missing or idle, metrics not reported


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(wl, p, setup_s, notes):
    """End-to-end metrics of an untraced pass, and the printed report."""
    lat = p.latencies
    if not lat:
        notes.append("no call succeeded; nothing to measure")
        return {}, []
    rate = p.items_per_cycle() / p.cycle_seconds()
    p50 = statistics.median(lat)
    metrics = {"items_per_s": (rate, "1/s"), "latency_p50_s": (p50, "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"), "setup_s": (setup_s, "s")}
    report = [(f"{wl.unit}_per_s", rate, "1/s", p.items),
              ("latency_p50_s", p50, "s", len(lat)),
              (f"wall.{wl.unit}_per_s", p.items_per_cycle() / p.cycle_seconds(wall=True),
               "1/s", p.items),
              ("wall.latency_p50_s", statistics.median(p.wall_latencies), "s", len(lat)),
              ("speed_factor_p50", statistics.median(p.speed), "ratio", len(p.speed))]
    p90 = float(np.percentile(lat, 90))
    beyond = sum(x > p90 for x in lat)
    if beyond >= 10:
        report.append(("latency_p90_s", p90, "s", len(lat)))
    else:
        notes.append(f"latency_p90_s not reported: {beyond} of {len(lat)} samples "
                     "lie beyond it, 10 needed")
    quality = wl.quality(list(p.outputs.items()))
    report += [(k, v, unit, len(p.outputs)) for k, (v, unit) in quality.items()]
    return metrics, report


def run(workload, seed, seconds, trace, profile=FULL, root=".", src="src"):
    """Set up, measure and check one workload; see the module docstring."""
    timings, totals = [], []
    for _ in range(profile.setup_repeats):
        # Free the previous set-up first, so that peak_rss_mb holds one.
        setup = None
        gc.collect()
        with speed.Probe() as probe:
            setup = set_up(workload, seed, profile, root, src)
        timings.append(setup.stages)
        totals.append(sum(setup.stages.values()) * probe.speed())
    setup_s = statistics.median(totals)
    setup_times = (setup_s, statistics.median(sum(t.values()) for t in timings))
    stages = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    wl = KINDS[workload](setup, profile)
    refs = {}
    warm = Pass()
    if workload != "train":
        # Warm-up, untimed; the first timed run of this input must repeat it
        # bit for bit. A training call is too long to spend on warm-up.
        _attempt(wl, wl.cycle[0], refs, warm)
    notes = []

    if not trace:
        p = closed_loop(wl, refs, seconds=seconds)
        passes = [warm, p]
        metrics, report = _end_to_end(wl, p, setup_s, notes)
    else:
        untraced = closed_loop(wl, refs, seconds=seconds / 2)
        with tracer.Tracer() as tr:
            traced = closed_loop(wl, refs, cycles=untraced.cycles)
        passes = [warm, untraced, traced]
        if not (untraced.items and traced.items):
            notes.append("no call succeeded; nothing to measure")
            return _outcome({}, [], passes, notes, setup_times, profile)
        metrics, undefined = tr.metrics(traced.items)
        metrics["trace.overhead_s"] = (
            (traced.cycle_seconds() - untraced.cycle_seconds()) / traced.items_per_cycle(), "s")
        metrics.update((k, (v, "s")) for k, v in stages.items())
        report = [(k, v, unit, traced.items) for k, (v, unit) in metrics.items()]
        report += [(f"trace.{p_name}_cycle_s", p.cycle_seconds(), "s", p.cycles)
                   for p_name, p in (("untraced", untraced), ("traced", traced))]
        notes.append(f"traced outputs equal untraced outputs bit for bit: "
                     f"{traced.mismatched == 0} "
                     f"({traced.mismatched} of {traced.attempted} differ)")
        idle = [n for n in tracer.layer_names() if tr.calls[n] == 0 and n not in tr.missing]
        expected = tracer.expected_layers(workload)
        for label, names in (("layers missing", tr.missing),
                             ("layers idle where expected to work",
                              [n for n in idle if n in expected]),
                             ("layers idle, not expected to work here",
                              [n for n in idle if n not in expected]),
                             ("ratios undefined (no denominator), reading 0", undefined)):
            if names:
                notes.append(f"{label}: {', '.join(names)}")

    return _outcome(metrics, report, passes, notes, setup_times, profile)


def _outcome(metrics, report, passes, notes, setup_times, profile):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    setup_s, wall_setup_s = setup_times
    report = report + [("error_share", failed / attempted, "ratio", attempted),
                       ("peak_rss_mb", peak_rss_mb(), "MB", 1),
                       ("setup_s", setup_s, "s", profile.setup_repeats),
                       ("wall.setup_s", wall_setup_s, "s", profile.setup_repeats)]
    messages = [m for p in passes for m in p.messages]
    return Outcome(metrics, report, attempted, failed, messages, notes)
