"""Command line entry points binding the pipeline into reproducible runs.

Subcommands: synth, train, match, localize, sweep, gradcheck. Exit codes:
0 success (including a reported localization failure), 1 verification
failure, 2 a usage error, `InvalidConfig` (input the program cannot run on)
or an OS file error. All seeded commands produce byte-identical primary
outputs across runs; the training CSV's wall-clock column is the one
inherently non-reproducible field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .network import ModelWeights, NetworkConfig
from .pipeline import localize_scene, match_scene, outlier_sweep
from .runconfig import InvalidConfig, load_run_config
from .svgplot import render_sweep_svg
from .synth import generate_scene, load_scene, save_scene
from .training import grad_check, train
from .weights_io import load_weights, save_weights

GRADCHECK_TOLERANCE = 1e-3


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _check_unit_interval(flag: str, value: float):
    if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
        raise InvalidConfig(f"{flag} must be a finite value in [0, 1], got {value!r}")


def _check_output_files(*outputs):
    """Reject, before any work, an output file path that cannot be written
    and two outputs that name one file (the later write would replace the
    earlier). Each output is a (flag, path) pair; a None path is unused."""
    seen = {}
    for flag, path in outputs:
        if path is None:
            continue
        path = Path(path)
        if path.is_dir():
            raise InvalidConfig(f"{flag} {path} is a directory")
        if not path.parent.is_dir():
            raise InvalidConfig(f"{flag} {path}: directory {path.parent} does not exist")
        other = seen.setdefault(path.resolve(), flag)
        if other != flag:
            raise InvalidConfig(f"{other} and {flag} name one file, {path}")


def _load_scenes_dir(scenes_dir: Path):
    files = sorted(scenes_dir.glob("scene_*.json"))
    if not files:
        raise InvalidConfig(f"no scene files found in {scenes_dir}")
    return [load_scene(f) for f in files]


def cmd_synth(args) -> int:
    if args.count < 0:
        raise InvalidConfig(f"--count must be >= 0, got {args.count}")
    cfg = load_run_config(args.config)
    out_dir = Path(args.out)
    files = []
    for i in range(args.count):
        scene_cfg = dataclasses.replace(cfg.synth, seed=cfg.synth.seed + i)
        pair = generate_scene(scene_cfg)
        # Made once a scene exists, so a config no scene keeps leaves none.
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"scene_{i:04d}.json"
        save_scene(out_dir / name, pair)
        files.append(name)
    manifest = {"count": args.count, "seed": cfg.synth.seed, "files": files}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(_json_dump(manifest), encoding="utf-8")
    print(f"wrote {args.count} scenes to {out_dir}")
    return 0


def cmd_train(args) -> int:
    csv_path = Path(args.loss_csv) if args.loss_csv else Path(args.out).with_suffix(".csv")
    _check_output_files(("--out", args.out),
                        ("--loss-csv" if args.loss_csv else "--loss-csv (default)", csv_path))
    cfg = load_run_config(args.config)
    scenes = _load_scenes_dir(Path(args.scenes))
    weights, reports, seconds = train(scenes, cfg.train, cfg.network)
    save_weights(args.out, weights)
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("epoch,matching_loss,rejection_loss,total,wall_seconds\n")
        for e, (rep, sec) in enumerate(zip(reports, seconds), start=1):
            f.write(f"{e},{rep.matching_loss:.6f},{rep.rejection_loss:.6f},"
                    f"{rep.total:.6f},{sec:.3f}\n")
    print(f"trained {cfg.train.epochs} epochs on {len(scenes)} scenes -> {args.out}")
    return 0


def _corr_rows(corrs):
    return [[int(i), int(j), float(s)] for i, j, s in corrs]


def cmd_match(args) -> int:
    _check_unit_interval("--threshold", args.threshold)
    _check_output_files(("--out", args.out))
    weights = load_weights(args.weights)
    pair = load_scene(args.scene)
    result = match_scene(pair, weights, threshold=args.threshold,
                         use_rejection=not args.no_or)
    payload = {
        "threshold": 0.0 if args.no_or else args.threshold,
        "initial": _corr_rows(result.initial),
        "final": _corr_rows(result.final),
    }
    text = _json_dump(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_localize(args) -> int:
    _check_unit_interval("--threshold", args.threshold)
    _check_output_files(("--out", args.out))
    cfg = load_run_config(args.config)
    weights = load_weights(args.weights)
    pair = load_scene(args.scene)
    res = localize_scene(pair, weights, threshold=args.threshold,
                         ransac_cfg=cfg.ransac)
    est = res.estimate

    def finite_or_none(x):
        return float(x) if np.isfinite(x) else None

    payload = {
        "localization_failed": res.failed,
        "num_initial": res.n_initial,
        "num_final": res.n_final,
        "num_inliers": int(est.inlier_mask.sum()),
        "rotation": [float(x) for x in est.pose.rotation.reshape(-1)] if est.success else None,
        "translation": [float(x) for x in est.pose.translation] if est.success else None,
        "rotation_error_deg": finite_or_none(res.rotation_error_deg),
        "translation_error": finite_or_none(res.translation_error),
        "mean_reprojection_px": finite_or_none(res.mean_reproj_px),
    }
    text = _json_dump(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    _check_unit_interval("--threshold", args.threshold)
    try:
        ratios = [float(r) for r in args.ratios.split(",") if r.strip() != ""]
    except ValueError:
        raise InvalidConfig(f"could not parse --ratios {args.ratios!r}")
    if not ratios:
        raise InvalidConfig(f"--ratios names no ratio, got {args.ratios!r}")
    for r in ratios:
        _check_unit_interval("--ratios", r)
    _check_output_files(("--out-csv", args.out_csv), ("--out-svg", args.out_svg))
    cfg = load_run_config(args.config)
    weights = load_weights(args.weights)
    scenes = _load_scenes_dir(Path(args.scenes))
    rows = outlier_sweep(weights, scenes, ratios, ransac_cfg=cfg.ransac,
                         threshold=args.threshold, seed=cfg.synth.seed)
    with open(args.out_csv, "w", encoding="utf-8") as f:
        f.write("ratio,auc1,auc5,auc10,n_queries,median_rot_deg,median_trans\n")
        for row in rows:
            f.write(f"{row.ratio!r},{row.auc1:.6f},{row.auc5:.6f},{row.auc10:.6f},"
                    f"{row.n_queries},{row.median_rot_deg:.6f},{row.median_trans:.6f}\n")
    if args.out_svg:
        Path(args.out_svg).write_text(render_sweep_svg(rows), encoding="utf-8")
    print(f"swept {len(ratios)} ratios over {len(scenes)} scenes -> {args.out_csv}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise InvalidConfig(f"--samples must be >= 1, got {args.samples}")
    cfg = load_run_config(args.config)
    if args.config is None:
        # Small default width keeps the full check well under a minute.
        net_cfg = NetworkConfig(d=32)
    else:
        net_cfg = cfg.network
    scene_cfg = dataclasses.replace(cfg.synth, n_points=16, pixel_noise_sigma=0.5,
                                    inlier_fraction=0.75)
    pair = generate_scene(scene_cfg)
    weights = ModelWeights.initialize(net_cfg, seed=cfg.train.seed)
    report = grad_check(pair, weights, sample=args.samples, seed=cfg.train.seed)
    for module in sorted(report.per_module):
        print(f"{module:24s} worst rel err {report.per_module[module]:.3e}")
    print(f"checked {len(report.entries)} sampled parameters; "
          f"max rel err {report.max_rel_error:.3e} "
          f"(worst: {report.worst.name}[{report.worst.flat_index}])")
    if report.max_rel_error < GRADCHECK_TOLERANCE:
        print("gradient check PASSED")
        return 0
    print(f"gradient check FAILED: {report.worst.name} rel err "
          f"{report.worst.rel_error:.3e} >= {GRADCHECK_TOLERANCE}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2",
        description="Descriptor-free 2D-3D matching: synthetic scenes, training, "
                    "matching, localization, and evaluation sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scene files")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=10, help="number of scenes")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on scene files")
    p.add_argument("--config", default=None)
    p.add_argument("--scenes", required=True, help="directory of scene_*.json")
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--loss-csv", default=None, help="per-epoch loss CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("match", help="emit initial and final correspondences")
    p.add_argument("--weights", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-or", action="store_true", help="skip outlier rejection")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("localize", help="full-pipeline pose with GT errors")
    p.add_argument("--weights", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("sweep", help="outlier-ratio sensitivity sweep")
    p.add_argument("--weights", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--ratios", default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--config", default=None)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidConfig, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
