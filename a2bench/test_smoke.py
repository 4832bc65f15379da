"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the repository root:

    python3 -m pytest a2bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_program()

import a2match.network  # noqa: E402
import numpy as np  # noqa: E402
from a2match import transport  # noqa: E402
from a2match.autodiff import Tensor  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Metrics printed by each workload besides those in BENCHMARK.json.
WALL = {"wall.latency_p50_s", "wall.setup_s", "speed_factor_p50"}
PRINTED = {
    "localize": {"queries_per_s", "latency_p50_s", "success_share", "match_f1",
                 "error_share", "peak_rss_mb", "setup_s", "wall.queries_per_s"} | WALL,
    "train": {"scenes_per_s", "latency_p50_s", "final_match_loss",
              "error_share", "peak_rss_mb", "setup_s", "wall.scenes_per_s"} | WALL,
    "pose": {"queries_per_s", "latency_p50_s", "success_share", "rot_err_p50_deg",
             "trans_err_p50", "error_share", "peak_rss_mb", "setup_s",
             "wall.queries_per_s"} | WALL,
}


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric(workload, trace, tmp_path):
    out = workloads.run(workload, seed=0, seconds=0.0, trace=trace,
                        profile=workloads.TINY, root=tmp_path, src=run.SRC)
    assert out.failed == 0, out.messages
    assert out.attempted >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in out.metrics.items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {name: unit for name, _, unit, _ in out.report}
    assert all(printed.values())
    if trace:
        assert any("bit for bit: True" in note for note in out.notes)
        assert not any(note.startswith(("layers missing", "layers idle where expected"))
                       for note in out.notes)
    else:
        assert PRINTED[workload] <= set(printed)
        assert "latency_p90_s" in printed or any("latency_p90_s" in n for n in out.notes)
    assert list(tmp_path.iterdir()) == []


def test_failed_checks_are_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ROT_LIMIT_DEG", 0.0)
    out = workloads.run("pose", seed=0, seconds=0.0, trace=False,
                        profile=workloads.TINY, root=tmp_path, src=run.SRC)
    assert out.failed == out.attempted
    assert dict((name, value) for name, value, _, _ in out.report)["error_share"] == 1.0


def test_probe_samples_during_a_call_and_clock_skips_it(monkeypatch):
    def kernel():
        time.sleep(0.05)
        return speed.REF_NOMINAL_S / 2
    monkeypatch.setattr(speed, "reference_seconds", kernel)
    c0, w0 = speed.clock(), time.perf_counter()
    with speed.Probe() as probe:
        while time.perf_counter() - w0 < 2 * speed.INTERVAL_S:
            pass
    skipped = (time.perf_counter() - w0) - (speed.clock() - c0)
    assert len(probe.samples) >= 3   # before, during and after
    assert probe.speed() == pytest.approx(2.0)
    assert skipped == pytest.approx(0.05 * len(probe.samples), abs=0.02)


def test_mutual_nn_check_agrees_with_program():
    rng = np.random.default_rng(0)
    p = rng.random((41, 31))
    p[:40, :30] += 5.0 * np.eye(40, 30)[rng.permutation(40)]
    plan = transport.ScoreMatrix(Tensor(p), log_domain=False)
    expected = workloads._mutual_nn_pairs(p)
    assert len(expected) > 10
    assert transport.mutual_nn(plan).pair_set() == expected


def test_tracer_restores_bindings_and_names_missing_layers(monkeypatch):
    original = a2match.network.encode
    extra = tracer.Layer("network.no_such_layer", "network", "no_such_layer", tracer.NET)
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (extra,))
    with tracer.Tracer() as tr:
        assert a2match.network.encode is not original
    assert a2match.network.encode is original
    assert tr.missing == ["network.no_such_layer"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "pose",
                           "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
