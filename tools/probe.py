"""Train the tier-1 recipe once and score mutual NN on held-out scenes.

The recipe is that of tests/test_training.py::
test_training_from_fresh_weights_yields_a_matcher: d=32, 24 new n=48 scenes
per epoch, one `train` call per epoch, 20 epochs. Held out:
- n=48: 64 scenes, seeds 50000-50063;
- n=256: 8 scenes, seeds 60000-60007;
- n=512: 4 scenes, seeds 70000-70003.

`--frame leaked` scores the task as `network.scene_inputs` poses it: the 3D
side's bearings come from the query's ground-truth pose. `--frame offset`
takes them from a reference pose 10 degrees about a random axis and 1 unit
in a random direction from it, drawn per scene from a hash of its points,
in training and at evaluation alike.

Run from a checkout, one BLAS thread:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/probe.py --seed 0 --frame offset
"""

import argparse
import hashlib
import json

import numpy as np

from a2match import network, pipeline
from a2match.geometry import RigidPose, pixel_bearings, world_bearings
from a2match.network import NetworkConfig
from a2match.synth import SynthConfig, generate_scene
from a2match.training import TrainConfig, train
from a2match.transport import mutual_nn

HELD_OUT = ((48, 50000, 64), (256, 60000, 8), (512, 70000, 4))


def offset_scene_inputs(pair):
    """`network.scene_inputs` with the 3D side seen from an offset pose."""
    rng = np.random.default_rng(int.from_bytes(
        hashlib.sha256(pair.points.tobytes()).digest()[:8], "little"))
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    skew = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    angle = np.radians(10.0)
    rot = np.eye(3) + np.sin(angle) * skew + (1 - np.cos(angle)) * skew @ skew
    shift = rng.standard_normal(3)
    shift /= np.linalg.norm(shift)
    pose = pair.query_pose
    ref = RigidPose(rot @ pose.rotation, rot @ pose.translation + shift)
    bp = pixel_bearings(pair.intrinsics, pair.keypoints)
    bq, _ = world_bearings(ref, pair.points)
    return (np.concatenate([bp, pair.kp_colors], axis=1),
            np.concatenate([bq, pair.pt_colors], axis=1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="TrainConfig seed")
    ap.add_argument("--frame", choices=("leaked", "offset"), default="leaked")
    args = ap.parse_args()
    if args.frame == "offset":
        network.scene_inputs = pipeline.scene_inputs = offset_scene_inputs

    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=1, seed=args.seed)
    w = None
    for epoch in range(20):
        scenes = [generate_scene(SynthConfig(n_points=48, seed=24 * epoch + i))
                  for i in range(24)]
        w, _, _ = train(scenes, cfg, NetworkConfig(d=32), weights=w)

    result = {"seed": args.seed, "frame": args.frame}
    for n, first, count in HELD_OUT:
        found = right = truth = 0
        for seed in range(first, first + count):
            pair = generate_scene(SynthConfig(n_points=n, seed=seed))
            got = mutual_nn(pipeline.scene_plan(pair, w)).pair_set()
            found += len(got)
            right += len(got & pair.gt_matches.pair_set())
            truth += len(pair.gt_matches)
        result[f"n{n}"] = {"found": found, "right": right, "truth": truth,
                           "P": round(right / max(found, 1), 3), "R": round(right / truth, 3)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
