"""The benchmark in a2bench/ drives the program through its public API; run
each of its workloads once at tiny sizes, untraced, so that an API change
that would break it fails here. The benchmark's files are only imported."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "a2bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    import run
    run.import_program()
    import workloads
    return workloads


@pytest.mark.parametrize("workload", ["localize", "train", "pose"])
def test_benchmark_workload_runs(workloads, workload, tmp_path):
    out = workloads.run(workload, seed=0, seconds=0.0, trace=False,
                        profile=workloads.TINY, root=tmp_path, src=BENCH.parent / "src")
    assert out.failed == 0, out.messages
    assert out.attempted >= 1


def test_tracer_binds_every_layer_but_the_stale_two(workloads):
    # A src change that deletes or renames a function the tracer times
    # fails here; the two names are ops deleted before the tracer caught up.
    import tracer
    with tracer.Tracer() as tr:
        pass
    assert set(tr.missing) <= {"autodiff.batch_norm_1d", "autodiff.logsumexp_over_axis"}
