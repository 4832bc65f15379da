import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from a2match.cli import main
from a2match.network import ModelWeights, NetworkConfig, forward_features, scene_inputs
from a2match.runconfig import (
    FIELD_TYPES,
    SECTIONS,
    InvalidConfig,
    load_run_config,
    parse_run_config,
)
from a2match.synth import SynthConfig, generate_scene, save_scene, scene_to_dict
from a2match.training import scene_loss
from a2match.weights_io import (
    VERSION,
    _write_record,
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
    # Weights hold float32, the file's dtype: a fresh model and its round
    # trip are the same bits.
    path, w = make_weights_file(tmp_path)
    loaded = load_weights(path)
    assert loaded.config == w.config
    assert list(loaded.params) == list(w.params)
    for k, p in w.params.items():
        assert p.data.dtype == loaded.params[k].data.dtype == np.float32
        assert np.array_equal(loaded.params[k].data.view(np.int32), p.data.view(np.int32))


def test_weights_save_deterministic(tmp_path):
    p1, _ = make_weights_file(tmp_path, seed=3, name="a.a2w")
    p2, _ = make_weights_file(tmp_path, seed=3, name="b.a2w")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_weights_magic_and_version_checks(tmp_path):
    path, _ = make_weights_file(tmp_path)
    blob = bytearray(Path(path).read_bytes())
    bad = tmp_path / "bad.a2w"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(InvalidConfig, match=r"not a weights file \(bad magic\)"):
        load_weights(bad)
    ver = bytearray(blob)
    ver[4:6] = struct.pack("<H", 9)
    bad.write_bytes(bytes(ver))
    with pytest.raises(InvalidConfig, match="unsupported weights version 9, expected 3"):
        load_weights(bad)
    trunc = tmp_path / "trunc.a2w"
    trunc.write_bytes(bytes(blob[:100]))
    with pytest.raises(InvalidConfig, match="truncated weights file"):
        load_weights(trunc)


# A value other than the base's for every NetworkConfig field, with whatever
# other fields it needs to stay valid. A field missing here fails the test.
ROUND_TRIP_BASE = NetworkConfig(d=8, k=6, g=3, n_blocks=1)
ROUND_TRIP_OTHER = {
    "d": {"d": 12},
    "k": {"k": 9},
    "g": {"g": 2},
    "n_blocks": {"n_blocks": 2},
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NetworkConfig)])
def test_weights_round_trip_every_config_field(tmp_path, field):
    # Everything of the config the file does not persist would reload as a
    # different network, or not at all.
    assert field in ROUND_TRIP_OTHER, f"no non-default value for NetworkConfig.{field}"
    cfg = dataclasses.replace(ROUND_TRIP_BASE, **ROUND_TRIP_OTHER[field])
    assert getattr(cfg, field) != getattr(ROUND_TRIP_BASE, field)
    w = ModelWeights.initialize(cfg, seed=4)
    for p in w.params.values():
        p.data[...] = p.data.astype(np.float32)
    path = tmp_path / "w.a2w"
    save_weights(path, w)
    loaded = load_weights(path)
    assert loaded.config == cfg
    inputs = scene_inputs(generate_scene(SynthConfig(n_points=16, seed=6)))
    for a, b in zip(forward_features(*inputs, w), forward_features(*inputs, loaded)):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("offset,value", [(22, 1), (22, 4), (22, 1 << 31), (14, 10)])
def test_weights_header_without_a_config_fails_to_load(tmp_path, capsys, offset, value):
    # Bytes 22-25 are the reserved flags word, which must be 0; bytes 14-17
    # hold k, and k=10 with g=3 is no NetworkConfig.
    path, _ = make_weights_file(tmp_path)
    blob = bytearray(Path(path).read_bytes())
    blob[offset:offset + 4] = struct.pack("<I", value)
    bad = tmp_path / "bad.a2w"
    bad.write_bytes(bytes(blob))
    message = "reserved flags word" if offset == 22 else "invalid network header"
    with pytest.raises(InvalidConfig, match=message):
        load_weights(bad)
    scene, _ = scene_file(tmp_path)
    capsys.readouterr()
    assert main(["match", "--weights", str(bad), "--scene", scene]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


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


def test_run_config_rejects_non_finite_and_out_of_range_values(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")
    bad = {
        ("train", "learning_rate"): (nan, inf, -inf, -1e-3),
        ("ransac", "inlier_threshold"): (nan, inf, 0.0, -0.005),
        ("synth", "pixel_noise_sigma"): (nan, inf, -1.0),
    }
    for (section, key), values in bad.items():
        for value in values:
            with pytest.raises(InvalidConfig, match=key):
                parse_run_config({section: {key: value}})
    cfg = parse_run_config({"train": {"learning_rate": 0.0}})
    assert cfg.train.learning_rate == 0.0
    # A finite noise this wide overflows keypoints, so the first scene breaks
    # the scene contract: a2 synth exits 2 before it makes --out.
    path = write_config(tmp_path, {"synth": {"pixel_noise_sigma": 1e308}})
    out = tmp_path / "s"
    assert main(["synth", "--config", path, "--out", str(out), "--count", "1"]) == 2
    assert capsys.readouterr().err == "error: scene keypoints hold a non-finite value\n"
    assert not out.exists()


# Every key a run config may set, section by section. A new knob is a
# deliberate edit here.
SETTABLE_KEYS = {
    "synth": ["n_points", "inlier_fraction", "pixel_noise_sigma", "seed"],
    "network": ["d", "k", "g", "n_blocks"],
    "train": ["learning_rate", "batch_size", "epochs", "seed"],
    "ransac": ["max_iterations", "inlier_threshold", "seed"],
}
# Names a run config cannot set: values every run shares (module constants
# of synth and posemetrics) and weights the loss does not have.
UNSETTABLE_KEYS = [("synth", "focal"), ("synth", "image_width"), ("synth", "image_height"),
                   ("synth", "depth_near"), ("synth", "depth_far"), ("synth", "gt_tolerance"),
                   ("ransac", "confidence"), ("ransac", "refine_iterations"),
                   ("train", "match_weight"), ("train", "rejection_weight")]


def test_run_config_settable_keys_pinned(tmp_path, capsys):
    assert {name: [f.name for f in dataclasses.fields(cls)]
            for name, cls in SECTIONS.items()} == SETTABLE_KEYS
    assert sum(map(len, SETTABLE_KEYS.values())) == 15
    for section, key in UNSETTABLE_KEYS:
        cfg = write_config(tmp_path, {section: {key: 1}})
        out = tmp_path / "s"
        assert main(["synth", "--config", cfg, "--out", str(out), "--count", "1"]) == 2
        assert capsys.readouterr().err == f"error: unknown config key: {section}.{key}\n"
        assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("network", "d", 16.0),
    ("network", "n_blocks", True),
    ("train", "epochs", 1.5),
    ("train", "batch_size", True),
    ("train", "learning_rate", False),
    ("train", "seed", "3"),
    ("synth", "n_points", 50.5),
    ("synth", "inlier_fraction", "0.5"),
    ("ransac", "max_iterations", None),
])
def test_run_config_rejects_values_of_the_wrong_type(tmp_path, capsys, section, key, value):
    with pytest.raises(InvalidConfig, match=f"{section}.{key}"):
        parse_run_config({section: {key: value}})
    cfg = write_config(tmp_path, {section: {key: value}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "s"), "--count", "1"]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_run_config_field_types():
    # Every field has a checked type, and integers stand for floats.
    for cls in SECTIONS.values():
        for f in dataclasses.fields(cls):
            assert f.type in FIELD_TYPES, f"{cls.__name__}.{f.name}"
    cfg = parse_run_config({"train": {"learning_rate": 0}, "synth": {"pixel_noise_sigma": 2}})
    assert cfg.train.learning_rate == 0 and cfg.synth.pixel_noise_sigma == 2


@pytest.mark.parametrize("section,command", [
    ("synth", "synth"), ("train", "train"), ("ransac", "localize")])
def test_cmd_negative_seed_exits_2(tmp_path, capsys, section, command):
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        parse_run_config({section: {"seed": -1}})
    cfg = write_config(tmp_path, {section: {"seed": -1}})
    wpath, _ = make_weights_file(tmp_path)
    (tmp_path / "scenes").mkdir()
    spath, _ = scene_file(tmp_path, name="scenes/scene_0000.json")
    out = tmp_path / "out"
    args = {"synth": ["--out", str(out)],
            "train": ["--scenes", str(tmp_path / "scenes"), "--out", str(out)],
            "localize": ["--weights", wpath, "--scene", spath, "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, "--config", cfg, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("max_iterations", -3, "max_iterations must be > 0, got -3"),
    ("max_iterations", 0, "max_iterations must be > 0, got 0")])
def test_cmd_localize_bad_ransac_budget_exits_2(tmp_path, capsys, key, value, message):
    with pytest.raises(InvalidConfig, match=message):
        parse_run_config({"ransac": {key: value}})
    cfg = write_config(tmp_path, {"ransac": {key: value}})
    wpath, _ = make_weights_file(tmp_path)
    spath, _ = scene_file(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["localize", "--config", cfg, "--weights", wpath, "--scene", spath,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


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


def test_cmd_train_nan_learning_rate_exits_2(tmp_path, capsys):
    _, scenes = train_setup(tmp_path, epochs=1)
    # json writes and reads a float NaN as the bare token NaN.
    cfg = write_config(tmp_path, {**NET8, "train": {"learning_rate": float("nan")}},
                       name="nan.json")
    assert "NaN" in Path(cfg).read_text(encoding="utf-8")
    out = tmp_path / "w.a2w"
    assert main(["train", "--config", cfg, "--scenes", scenes, "--out", str(out)]) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_classifier_branch_pinned(tmp_path):
    # A fresh model's rows all prefer their dustbins, which leaves the
    # classifier idle. With the dustbin score lowered to -8 this scene has 11
    # mutual-NN candidates, and the classifier keeps 4 at the default
    # threshold. SHA-256 of the `a2 match` output and of scene_loss's
    # candidates and losses; same platform caveat as
    # test_forward_features_and_plan_pinned.
    w = ModelWeights.initialize(NetworkConfig(d=8, k=6, g=3), seed=0)
    w.params["ot/alpha_bin"].data[...] = -8.0
    save_weights(tmp_path / "w.a2w", w)
    spath, pair = scene_file(tmp_path, seed=4, n=24, noise=0.5, inlier=0.7)
    out = tmp_path / "m.json"
    assert main(["match", "--weights", str(tmp_path / "w.a2w"), "--scene", spath,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (len(payload["initial"]), len(payload["final"])) == (11, 4)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "98ef5f4193924f40b423ad511a6775d2b8c21c5f6709bb162ad4b6b2d42b9ff9")
    loss, report, candidates = scene_loss(pair, w)
    assert len(candidates) == 11
    fingerprint = repr((candidates.pairs, loss.item(), report.rejection_loss))
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == (
        "1144bb6c3bceb05a5a8a7d7b73b352e19989cb65353c1c0b3842382fecf9db74")


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


def _point_on_camera_plane(obj):
    # Point 3 moves to depth 0 in the camera frame, on the optical axis.
    R = np.array(obj["pose"]["rotation"]).reshape(3, 3)
    obj["points"][3][:3] = (R.T @ -np.array(obj["pose"]["translation"])).tolist()


@pytest.mark.parametrize("command", ["match", "localize", "sweep", "train"])
def test_cmd_scene_point_behind_camera_exits_2(tmp_path, capsys, command):
    wpath, _ = make_weights_file(tmp_path)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    spath = _corrupted_scene_file(scenes, _point_on_camera_plane)
    Path(spath).rename(scenes / "scene_0000.json")
    spath = str(scenes / "scene_0000.json")
    out = tmp_path / "out"
    args = {"match": ["--weights", wpath, "--scene", spath, "--out", str(out)],
            "localize": ["--weights", wpath, "--scene", spath, "--out", str(out)],
            "sweep": ["--weights", wpath, "--scenes", str(scenes), "--out-csv", str(out)],
            "train": ["--scenes", str(scenes), "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scene point 3 lies at depth <= 1e-06" in captured.err
    assert not out.exists()


def test_cmd_localize_scene_not_above_k_exits_2(tmp_path, capsys):
    wpath, _ = make_weights_file(tmp_path, cfg=NetworkConfig(d=8, k=12, g=3))
    spath, _ = scene_file(tmp_path, seed=10, n=12)
    assert main(["localize", "--weights", wpath, "--scene", spath]) == 2
    assert "must exceed k=12" in capsys.readouterr().err


def test_cmd_match_rejects_version_1_weights(tmp_path, capsys):
    # Version 1 stored batch-norm running buffers after the parameters.
    wpath, w = make_weights_file(tmp_path)
    blob = bytearray(Path(wpath).read_bytes())
    blob[4:6] = struct.pack("<H", 1)
    buffers = [(f"buffers/{name[:-len('/gamma')]}/{kind}", value)
               for name in w.params if name.endswith(("/bn1/gamma", "/bn2/gamma"))
               for kind, value in (("running_mean", np.zeros(8)), ("running_var", np.ones(8)),
                                   ("count", np.ones(1)))]
    blob[26:30] = struct.pack("<I", len(w.params) + len(buffers))
    out = []
    for name, value in buffers:
        _write_record(out, name, value)
    v1 = tmp_path / "v1.a2w"
    v1.write_bytes(bytes(blob) + b"".join(out))
    with pytest.raises(InvalidConfig, match="unsupported weights version 1, expected 3"):
        load_weights(v1)
    spath, _ = scene_file(tmp_path, seed=8)
    capsys.readouterr()
    assert main(["match", "--weights", str(v1), "--scene", spath]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "version 1" in err


def test_cmd_match_rejects_version_2_weights(tmp_path, capsys):
    # Version 2 held a bias after every weight matrix but the attention
    # projections': 48 more records, none of which changed an output.
    wpath, w = make_weights_file(tmp_path)
    blob = Path(wpath).read_bytes()
    records, n_records = [], 0
    for name, p in w.params.items():
        _write_record(records, name, p.data)
        n_records += 1
        bias = name[:-len("W")] + "b"
        if name.endswith("/W") and "/cross/W" not in name and bias not in w.params:
            _write_record(records, bias, np.zeros(p.data.shape[1]))
            n_records += 1
    assert n_records == len(w.params) + 48
    body = blob[6:26] + struct.pack("<I", n_records) + b"".join(records)
    v2 = tmp_path / "v2.a2w"
    v2.write_bytes(blob[:4] + struct.pack("<H", 2) + body)
    with pytest.raises(InvalidConfig, match="unsupported weights version 2, expected 3"):
        load_weights(v2)
    spath, _ = scene_file(tmp_path, seed=8)
    capsys.readouterr()
    assert main(["match", "--weights", str(v2), "--scene", spath]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "version 2" in err
    # Nor do its records pass for the current version's, whatever the count
    # says: the first bias stands where the layout puts the next weight.
    relabeled = tmp_path / "relabeled.a2w"
    relabeled.write_bytes(blob[:4] + struct.pack("<H", VERSION) + body)
    with pytest.raises(InvalidConfig, match="file holds 183 records, the header's"):
        load_weights(relabeled)
    recounted = blob[:4] + struct.pack("<H", VERSION) + blob[6:30] + b"".join(records)
    relabeled.write_bytes(recounted)
    with pytest.raises(InvalidConfig, match="record 1 is not enc/2d/bearing/res0/lin/W"):
        load_weights(relabeled)


def test_weights_layout_pinned_with_its_version():
    # What a weights file holds for the default network. A change to the
    # parameter records must come with a decision on the format version.
    layout = ModelWeights.layout(NetworkConfig())
    assert len(layout) == 135
    assert [name for name, _ in layout if name.endswith("/b")] == [
        "blk0/cross/mlp/lin1/b", "blk1/cross/mlp/lin1/b", "clf/proj/b", "clf/head/b"]
    assert hashlib.sha256(repr(layout).encode()).hexdigest() == (
        "3a9744085fb527972a206f03c326ff7edbc177b54c0ff510dc5f05186c7b1026")
    assert VERSION == 3


def test_cmd_match_rejects_repeated_weights_record(tmp_path, capsys):
    wpath, w = make_weights_file(tmp_path)
    blob = bytearray(Path(wpath).read_bytes())
    first = next(iter(w.params))
    extra = []
    _write_record(extra, first, w.params[first].data + 1.0)
    blob[26:30] = struct.pack("<I", len(w.params) + 1)
    dup = tmp_path / "dup.a2w"
    dup.write_bytes(bytes(blob) + b"".join(extra))
    with pytest.raises(InvalidConfig, match="file holds 136 records, the header's"):
        load_weights(dup)
    spath, _ = scene_file(tmp_path, seed=8)
    capsys.readouterr()
    assert main(["match", "--weights", str(dup), "--scene", spath]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "136 records" in err
    # Repeated in place of the second record, the count is right.
    names = list(w.params)
    twice = []
    for name in [first, first, *names[2:]]:
        _write_record(twice, name, w.params[name].data)
    dup.write_bytes(Path(wpath).read_bytes()[:30] + b"".join(twice))
    with pytest.raises(InvalidConfig, match=f"record 1 is not {names[1]} of shape"):
        load_weights(dup)


def test_weights_records_out_of_layout_order_rejected(tmp_path):
    # A file loads only with its records in layout order, which is what
    # save writes, so a loaded file re-saves to its own bytes.
    wpath, w = make_weights_file(tmp_path)
    blob = Path(wpath).read_bytes()
    save_weights(tmp_path / "again.a2w", load_weights(wpath))
    assert (tmp_path / "again.a2w").read_bytes() == blob
    names = list(w.params)
    order = np.random.default_rng(0).permutation(len(names))
    records = []
    for i in order:
        _write_record(records, names[i], w.params[names[i]].data)
    shuffled = tmp_path / "shuffled.a2w"
    shuffled.write_bytes(blob[:30] + b"".join(records))
    first = int(np.flatnonzero(order != np.arange(len(names)))[0])
    shape = w.params[names[first]].data.shape
    with pytest.raises(InvalidConfig, match=re.escape(
            f"record {first} is not {names[first]} of shape {shape}: "
            "records follow the layout order")):
        load_weights(shuffled)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cmd_match_rejects_non_finite_weights(tmp_path, capsys, value):
    wpath, w = make_weights_file(tmp_path)
    blob = bytearray(Path(wpath).read_bytes())
    blob[-4:] = struct.pack("<f", value)  # the last value of the last record
    bad = tmp_path / "bad.a2w"
    bad.write_bytes(bytes(blob))
    last = list(w.params)[-1]
    with pytest.raises(InvalidConfig, match=f"record {last} holds a non-finite"):
        load_weights(bad)
    spath, _ = scene_file(tmp_path, seed=8)
    capsys.readouterr()
    assert main(["match", "--weights", str(bad), "--scene", spath]) == 2
    out, err = capsys.readouterr()
    assert out == "" and last in err


def _one_record(name: bytes, dims):
    """A weights file with a valid header and one record, `name` with `dims`
    and no payload, in place of the first of the layout."""
    def write(blob):
        return (blob[:30] + struct.pack("<H", len(name)) + name
                + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims))
    return write


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("flag, content, message", [
    # 65536^4 values overflow a 64-bit count to 0; the head comparison
    # rejects the record before any count is taken.
    ("--weights", _one_record(b"enc/2d/b/proj/W", [65536] * 4),
     "record 0 is not enc/2d/bearing/proj/W"),
    ("--weights", _one_record(b"\xff\xfe", [1]), "record 0 is not enc/2d/bearing/proj/W"),
    ("--scene", b'{"intrinsics": "\xe9"}', "is not valid JSON: 'utf-8' codec"),
    ("--scene", DEEP.encode(), "is not valid JSON: maximum recursion depth"),
    ("--config", b'{"synth": {}, "x": "\xe9"}', "is not valid JSON: 'utf-8' codec"),
    ("--config", ('{"synth": ' + DEEP + "}").encode(), "is not valid JSON: maximum recursion"),
], ids=["weights-count-overflow", "weights-name-not-utf8", "scene-not-utf8", "scene-too-deep",
        "config-not-utf8", "config-too-deep"])
def test_cmd_malformed_file_exits_2(tmp_path, capsys, flag, content, message):
    wpath, _ = make_weights_file(tmp_path)
    spath, _ = scene_file(tmp_path)
    bad = tmp_path / "bad"
    bad.write_bytes(content(Path(wpath).read_bytes()) if callable(content) else content)
    args = {"--weights": wpath, "--scene": spath, "--config": write_config(tmp_path, {})}
    args[flag] = str(bad)
    capsys.readouterr()
    assert main(["localize", *(x for item in args.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


BIG = "1" + "0" * 400  # a JSON integer beyond the float64 range


@pytest.mark.parametrize("target", ["config-noise", "scene-fx", "scene-point"])
def test_cmd_integer_too_large_for_a_float_exits_2(tmp_path, capsys, target):
    out = tmp_path / "out"
    if target == "config-noise":
        path = write_config(tmp_path, {"synth": {"pixel_noise_sigma": "BIG"}})
        args = ["synth", "--config", path, "--out", str(out)]
    else:
        wpath, _ = make_weights_file(tmp_path)
        path, pair = scene_file(tmp_path)
        obj = scene_to_dict(pair)
        if target == "scene-fx":
            obj["intrinsics"]["fx"] = "BIG"
        else:
            obj["points"][0][1] = "BIG"
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
        args = ["match", "--weights", wpath, "--scene", path, "--out", str(out)]
    text = Path(path).read_text(encoding="utf-8")
    Path(path).write_text(text.replace('"BIG"', BIG), encoding="utf-8")
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {target.split('-')[0]} file ")
    assert captured.err.endswith("int too large to convert to float\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e39])
def test_save_weights_refuses_values_float32_cannot_hold(tmp_path, value):
    # A float64 copy can hold values that the float32 records cannot.
    w = ModelWeights.initialize(NetworkConfig(d=8, k=6, g=3), seed=0).astype(np.float64)
    name = list(w.params)[3]
    w.params[name].data.flat[0] = value
    with pytest.raises(InvalidConfig, match=f"record {name} "):
        save_weights(tmp_path / "w.a2w", w)
    assert not (tmp_path / "w.a2w").exists()


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


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--ratios", "1.5"),
    ("sweep", "--ratios", "0,nan"),
    ("sweep", "--ratios", ""),
    ("sweep", "--ratios", ","),
    ("sweep", "--threshold", "inf"),
    ("match", "--threshold", "5"),
    ("match", "--threshold", "nan"),
    ("localize", "--threshold", "-1"),
    ("synth", "--count", "-3"),
    ("gradcheck", "--samples", "-3"),
    ("gradcheck", "--samples", "0"),
])
def test_cmd_out_of_range_argument_exits_2(tmp_path, capsys, command, flag, value):
    wpath, _ = make_weights_file(tmp_path)
    (tmp_path / "scenes").mkdir()
    spath, _ = scene_file(tmp_path, name="scenes/scene_0000.json")
    out = tmp_path / "out"
    args = {"synth": ["--out", str(out)],
            "gradcheck": [],
            "match": ["--weights", wpath, "--scene", spath],
            "localize": ["--weights", wpath, "--scene", spath],
            "sweep": ["--weights", wpath, "--scenes", str(tmp_path / "scenes"),
                      "--out-csv", str(out)]}[command]
    assert main([command, *args, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, path", [
    ("match", "--weights", "adir"),
    ("match", "--scene", "adir"),
    ("localize", "--weights", "adir"),
    ("localize", "--scene", "adir"),
    ("sweep", "--weights", "adir"),
    ("train", "--out", "adir"),
    ("synth", "--out", "afile"),
    ("synth", "--out", "afile/sub"),
])
def test_cmd_path_of_the_wrong_kind_exits_2(tmp_path, capsys, command, flag, path):
    # A directory where a file is read or written, or a file where a
    # directory is made, is a usage error, reported in one line.
    wpath, _ = make_weights_file(tmp_path)
    (tmp_path / "scenes").mkdir()
    spath, _ = scene_file(tmp_path, name="scenes/scene_0000.json")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    args = {"match": {"--weights": wpath, "--scene": spath},
            "localize": {"--weights": wpath, "--scene": spath},
            "sweep": {"--weights": wpath, "--scenes": str(tmp_path / "scenes"),
                      "--out-csv": str(tmp_path / "out.csv")},
            "train": {"--config": write_config(tmp_path, {**NET8, "train": {"epochs": 0}}),
                      "--scenes": str(tmp_path / "scenes"), "--out": ""},
            "synth": {"--out": "", "--count": "1"}}[command]
    args[flag] = str(tmp_path / path)
    capsys.readouterr()
    assert main([command, *(x for item in args.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path in captured.err


@pytest.mark.parametrize("command, flag, path", [
    ("train", "--out", "adir"),
    ("train", "--out", "nodir/w.a2w"),
    ("train", "--out", "w.a2w"),          # its derived loss CSV, w.csv, is a directory
    ("train", "--loss-csv", "adir"),
    ("train", "--loss-csv", "nodir/loss.csv"),
    ("match", "--out", "adir"),
    ("match", "--out", "nodir/m.json"),
    ("localize", "--out", "adir"),
    ("localize", "--out", "nodir/l.json"),
    ("sweep", "--out-csv", "adir"),
    ("sweep", "--out-csv", "nodir/s.csv"),
    ("sweep", "--out-svg", "adir"),
    ("sweep", "--out-svg", "nodir/s.svg"),
])
def test_cmd_unwritable_output_exits_2_before_the_work(tmp_path, capsys, monkeypatch,
                                                       command, flag, path):
    # An output path that is a directory, or whose directory is missing, is
    # rejected before any input is loaded or any work done (train would run
    # all 30 default epochs first).
    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("load_run_config", "load_weights", "load_scene", "_load_scenes_dir",
                 "train", "match_scene", "localize_scene", "outlier_sweep"):
        monkeypatch.setattr(f"a2match.cli.{name}", never)
    (tmp_path / "adir").mkdir()
    (tmp_path / "w.csv").mkdir()
    args = {"train": {"--scenes": str(tmp_path), "--out": str(tmp_path / "ok.a2w")},
            "match": {"--weights": "w.a2w", "--scene": "s.json"},
            "localize": {"--weights": "w.a2w", "--scene": "s.json"},
            "sweep": {"--weights": "w.a2w", "--scenes": str(tmp_path),
                      "--out-csv": str(tmp_path / "ok.csv")}}[command]
    args[flag] = str(tmp_path / path)
    assert main([command, *(x for item in args.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (path if path != "w.a2w" else "w.csv") in captured.err


@pytest.mark.parametrize("command, outputs", [
    ("train", {"--out": "model.csv"}),    # the default loss CSV is --out itself
    ("train", {"--out": "w.a2w", "--loss-csv": "w.a2w"}),
    ("train", {"--out": "w.a2w", "--loss-csv": "adir/../w.a2w"}),
    ("sweep", {"--out-csv": "s.out", "--out-svg": "s.out"}),
])
def test_cmd_outputs_naming_one_file_exit_2_before_the_work(tmp_path, capsys, monkeypatch,
                                                           command, outputs):
    # The later write would replace the earlier output (a loss CSV over the
    # weights, an SVG over the sweep CSV), so the command refuses to start.
    def never(*args, **kwargs):
        raise AssertionError("ran before the output paths were checked")

    for name in ("load_run_config", "load_weights", "_load_scenes_dir", "train",
                 "outlier_sweep"):
        monkeypatch.setattr(f"a2match.cli.{name}", never)
    (tmp_path / "adir").mkdir()
    inputs = {"train": ["--scenes", str(tmp_path)],
              "sweep": ["--weights", "w.a2w", "--scenes", str(tmp_path)]}[command]
    args = [x for flag, path in outputs.items() for x in (flag, str(tmp_path / path))]
    assert main([command, *inputs, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "name one file" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]


def test_cmd_train_default_loss_csv_sits_beside_the_weights(tmp_path):
    cfg, scenes = train_setup(tmp_path, epochs=1)
    out = tmp_path / "w.a2w"
    assert main(["train", "--config", cfg, "--scenes", scenes, "--out", str(out)]) == 0
    load_weights(out)
    lines = (tmp_path / "w.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,matching_loss,rejection_loss,total,wall_seconds"
    assert len(lines) == 2


# --- gradcheck ----------------------------------------------------------------------


def test_cmd_gradcheck_passes_and_detects_fault(tmp_path, capsys, request):
    cfg = write_config(tmp_path, {"network": {"d": 8, "k": 6, "g": 3},
                                  "synth": {"seed": 1}})
    assert main(["gradcheck", "--config", cfg, "--samples", "24"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "worst rel err" in out
    request.getfixturevalue("corrupted_matmul_backward")
    assert main(["gradcheck", "--config", cfg, "--samples", "24"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["match", "--definitely-not-a-flag", "x"])
    assert exc.value.code == 2
