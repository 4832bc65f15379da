import json
import struct
from pathlib import Path

import numpy as np
import pytest

from a2match.cli import main
from a2match.network import ModelWeights, NetworkConfig
from a2match.runconfig import InvalidConfig, load_run_config, parse_run_config
from a2match.synth import SynthConfig, generate_scene, save_scene, scene_to_dict
from a2match.weights_io import (
    VersionMismatch,
    WeightsFormatError,
    load_weights,
    save_weights,
)

NET8 = {"network": {"d": 8, "k": 6, "g": 3}}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def make_weights_file(tmp_path, cfg=None, seed=0, name="w.a2w"):
    cfg = cfg or NetworkConfig(d=8, k=6, g=3)
    w = ModelWeights.initialize(cfg, seed=seed)
    path = tmp_path / name
    save_weights(path, w)
    return str(path), w


def scene_file(tmp_path, seed=0, n=16, noise=0.0, inlier=1.0, name="scene.json"):
    pair = generate_scene(SynthConfig(n_points=n, inlier_fraction=inlier,
                                      pixel_noise_sigma=noise, seed=seed))
    path = tmp_path / name
    save_scene(path, pair)
    return str(path), pair


# --- weights file -------------------------------------------------------------


def test_weights_round_trip_float32_exact(tmp_path):
    path, w = make_weights_file(tmp_path)
    loaded = load_weights(path)
    assert loaded.config == w.config
    assert list(loaded.params) == list(w.params)
    for k, p in w.params.items():
        assert np.array_equal(loaded.params[k].data,
                              p.data.astype(np.float32).astype(np.float64))
    for k, b in w.buffers.items():
        assert np.array_equal(loaded.buffers[k],
                              b.astype(np.float32).astype(np.float64))


def test_weights_save_deterministic(tmp_path):
    p1, _ = make_weights_file(tmp_path, seed=3, name="a.a2w")
    p2, _ = make_weights_file(tmp_path, seed=3, name="b.a2w")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_weights_magic_and_version_checks(tmp_path):
    path, _ = make_weights_file(tmp_path)
    blob = bytearray(Path(path).read_bytes())
    bad = tmp_path / "bad.a2w"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(WeightsFormatError):
        load_weights(bad)
    ver = bytearray(blob)
    ver[4:6] = struct.pack("<H", 9)
    bad.write_bytes(bytes(ver))
    with pytest.raises(VersionMismatch):
        load_weights(bad)
    trunc = tmp_path / "trunc.a2w"
    trunc.write_bytes(bytes(blob[:100]))
    with pytest.raises(WeightsFormatError):
        load_weights(trunc)


# --- run config ----------------------------------------------------------------


def test_run_config_defaults_and_unknown_keys(tmp_path):
    cfg = load_run_config(None)
    assert cfg.network.d == 128 and cfg.train.batch_size == 16
    with pytest.raises(InvalidConfig, match="bogus_section"):
        parse_run_config({"bogus_section": {}})
    with pytest.raises(InvalidConfig, match="synth.bogus_key"):
        parse_run_config({"synth": {"bogus_key": 1}})
    with pytest.raises(InvalidConfig):
        parse_run_config({"synth": {"inlier_fraction": 2.0}})


def test_run_config_sections_applied(tmp_path):
    path = write_config(tmp_path, {"network": {"d": 16}, "train": {"epochs": 2},
                                   "synth": {"n_points": 12}})
    cfg = load_run_config(path)
    assert cfg.network.d == 16
    assert cfg.train.epochs == 2
    assert cfg.synth.n_points == 12


# --- synth command --------------------------------------------------------------


def test_cmd_synth_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"synth": {"n_points": 12, "seed": 7}})
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["synth", "--config", cfg, "--out", str(out1), "--count", "10"]) == 0
    assert main(["synth", "--config", cfg, "--out", str(out2), "--count", "10"]) == 0
    files1 = sorted(out1.glob("scene_*.json"))
    assert len(files1) == 10
    for f1 in files1:
        assert f1.read_bytes() == (out2 / f1.name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 7 and len(manifest["files"]) == 10


def test_cmd_synth_zero_count_empty_manifest(tmp_path):
    out = tmp_path / "empty"
    assert main(["synth", "--out", str(out), "--count", "0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == []


def test_cmd_synth_bad_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"synth": {"no_such_knob": 3}})
    rc = main(["synth", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no_such_knob" in capsys.readouterr().err


# --- train command ---------------------------------------------------------------


def train_setup(tmp_path, epochs):
    cfg = write_config(tmp_path, {
        "network": {"d": 8, "k": 6, "g": 3},
        "train": {"epochs": epochs, "batch_size": 2, "seed": 0},
        "synth": {"n_points": 12, "pixel_noise_sigma": 0.5, "seed": 3},
    })
    scenes = tmp_path / "scenes"
    assert main(["synth", "--config", cfg, "--out", str(scenes), "--count", "3"]) == 0
    return cfg, str(scenes)


def test_cmd_train_epochs_zero_writes_initial_weights(tmp_path):
    cfg, scenes = train_setup(tmp_path, epochs=0)
    out = tmp_path / "w0.a2w"
    csv = tmp_path / "loss.csv"
    assert main(["train", "--config", cfg, "--scenes", scenes,
                 "--out", str(out), "--loss-csv", str(csv)]) == 0
    w = load_weights(out)
    ref = ModelWeights.initialize(NetworkConfig(d=8, k=6, g=3), seed=0)
    for k, p in ref.params.items():
        assert np.array_equal(w.params[k].data,
                              p.data.astype(np.float32).astype(np.float64))
    lines = csv.read_text().strip().splitlines()
    assert lines == ["epoch,matching_loss,rejection_loss,total,wall_seconds"]


def test_cmd_train_deterministic_weights_and_csv_rows(tmp_path):
    cfg, scenes = train_setup(tmp_path, epochs=2)
    w1, w2 = tmp_path / "w1.a2w", tmp_path / "w2.a2w"
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["train", "--config", cfg, "--scenes", scenes,
                 "--out", str(w1), "--loss-csv", str(c1)]) == 0
    assert main(["train", "--config", cfg, "--scenes", scenes,
                 "--out", str(w2), "--loss-csv", str(c2)]) == 0
    assert w1.read_bytes() == w2.read_bytes()
    rows1 = c1.read_text().strip().splitlines()
    rows2 = c2.read_text().strip().splitlines()
    assert len(rows1) == 3  # header + one row per epoch
    # identical up to the wall-clock column
    strip = lambda lines: [",".join(r.split(",")[:4]) for r in lines]
    assert strip(rows1) == strip(rows2)


def test_cmd_train_missing_scenes_dir(tmp_path, capsys):
    rc = main(["train", "--scenes", str(tmp_path / "nope"),
               "--out", str(tmp_path / "w.a2w")])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


# --- match / localize ------------------------------------------------------------


def test_cmd_match_contract(tmp_path, capsys):
    wpath, _ = make_weights_file(tmp_path)
    spath, _ = scene_file(tmp_path, seed=4)
    out = tmp_path / "m.json"
    assert main(["match", "--weights", wpath, "--scene", spath,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ids_i = [i for i, _, _ in payload["final"]]
    ids_j = [j for _, j, _ in payload["final"]]
    assert len(ids_i) == len(set(ids_i))
    assert len(ids_j) == len(set(ids_j))

    out2 = tmp_path / "m2.json"
    assert main(["match", "--weights", wpath, "--scene", spath, "--no-or",
                 "--out", str(out2)]) == 0
    p2 = json.loads(out2.read_text())
    assert p2["final"] == p2["initial"]
    assert p2["threshold"] == 0.0

    out3 = tmp_path / "m3.json"
    assert main(["match", "--weights", wpath, "--scene", spath,
                 "--threshold", "1.0", "--out", str(out3)]) == 0
    assert json.loads(out3.read_text())["final"] == []


def test_cmd_localize_robust_and_deterministic(tmp_path):
    wpath, _ = make_weights_file(tmp_path)
    spath, _ = scene_file(tmp_path, seed=5, n=20)
    o1, o2 = tmp_path / "l1.json", tmp_path / "l2.json"
    assert main(["localize", "--weights", wpath, "--scene", spath, "--out", str(o1)]) == 0
    assert main(["localize", "--weights", wpath, "--scene", spath, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    payload = json.loads(o1.read_text())
    assert set(payload) >= {"localization_failed", "num_initial", "num_final",
                            "rotation_error_deg", "translation_error"}


def test_cmd_localize_all_outliers_never_crashes(tmp_path):
    wpath, _ = make_weights_file(tmp_path)
    spath, _ = scene_file(tmp_path, seed=6, n=16, inlier=0.0, name="bad.json")
    out = tmp_path / "l.json"
    assert main(["localize", "--weights", wpath, "--scene", spath,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["localization_failed"] in (True, False)


def _corrupted_scene_file(tmp_path, edit):
    obj = scene_to_dict(generate_scene(SynthConfig(n_points=16, seed=9)))
    edit(obj)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _keep_five_keypoints(obj):
    obj["keypoints"] = obj["keypoints"][:5]
    obj["gt_matches"] = [[i, j] for i, j in obj["gt_matches"] if i < 5]


def _short_point_row(obj):
    obj["points"][0] = obj["points"][0][:4]


def _set_keypoint_value(col, value):
    def edit(obj):
        obj["keypoints"][2][col] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_keep_five_keypoints, "5 keypoints, outside [10,1024]"),
    (_short_point_row, "points must be rows of 6"),
    (_set_keypoint_value(3, 1.5), "keypoints colours must lie in [0,1]"),
    (_set_keypoint_value(0, float("nan")), "keypoints hold a non-finite"),
])
def test_cmd_localize_invalid_scene_exits_2(tmp_path, capsys, edit, message):
    wpath, _ = make_weights_file(tmp_path)
    spath = _corrupted_scene_file(tmp_path, edit)
    assert main(["localize", "--weights", wpath, "--scene", spath]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cmd_localize_scene_not_above_k_exits_2(tmp_path, capsys):
    wpath, _ = make_weights_file(tmp_path, cfg=NetworkConfig(d=8, k=12, g=3))
    spath, _ = scene_file(tmp_path, seed=10, n=12)
    assert main(["localize", "--weights", wpath, "--scene", spath]) == 2
    assert "must exceed k=12" in capsys.readouterr().err


def test_cmd_match_rejects_wrong_weights_version(tmp_path, capsys):
    wpath, _ = make_weights_file(tmp_path)
    blob = bytearray(Path(wpath).read_bytes())
    blob[4:6] = struct.pack("<H", 3)
    bad = tmp_path / "bad.a2w"
    bad.write_bytes(bytes(blob))
    spath, _ = scene_file(tmp_path, seed=8)
    assert main(["match", "--weights", str(bad), "--scene", spath]) == 2


# --- sweep ------------------------------------------------------------------------


def test_cmd_sweep_csv_and_svg_contract(tmp_path):
    wpath, _ = make_weights_file(tmp_path)
    cfg = write_config(tmp_path, {"synth": {"n_points": 14, "seed": 2,
                                            "pixel_noise_sigma": 0.0}})
    scenes = tmp_path / "scenes"
    assert main(["synth", "--config", cfg, "--out", str(scenes), "--count", "2"]) == 0
    csv, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    args = ["sweep", "--weights", wpath, "--scenes", str(scenes),
            "--ratios", "0,0.25,0.5,0.75,1.0",
            "--out-csv", str(csv), "--out-svg", str(svg)]
    assert main(args) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "ratio,auc1,auc5,auc10,n_queries,median_rot_deg,median_trans"
    assert len(lines) == 6
    assert [row.split(",")[0] for row in lines[1:]] == ["0.0", "0.25", "0.5", "0.75", "1.0"]
    assert svg.read_text().count("<polyline") == 3

    csv2 = tmp_path / "sweep2.csv"
    assert main(args[:-4] + ["--out-csv", str(csv2)]) == 0
    assert csv.read_text() == csv2.read_text()


def test_cmd_sweep_empty_dir_names_directory(tmp_path, capsys):
    wpath, _ = make_weights_file(tmp_path)
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["sweep", "--weights", wpath, "--scenes", str(empty),
               "--out-csv", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "none" in capsys.readouterr().err


# --- gradcheck ----------------------------------------------------------------------


def test_cmd_gradcheck_passes_and_detects_fault(tmp_path, capsys):
    cfg = write_config(tmp_path, {"network": {"d": 8, "k": 6, "g": 3},
                                  "synth": {"seed": 1}})
    assert main(["gradcheck", "--config", cfg, "--samples", "24"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "worst rel err" in out
    assert main(["gradcheck", "--config", cfg, "--samples", "24",
                 "--inject-fault"]) == 1


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["match", "--definitely-not-a-flag", "x"])
    assert exc.value.code == 2
