"""Run one a2match benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 a2bench/run.py --workload localize --seed 1 --seconds 30 --trace 0

Workloads are localize, train and pose (see a2bench/README.md). With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it runs the
same inputs untraced and then traced, and reports per-layer metrics. The
program is imported from the checkout's src/ directory. Every metric is
printed with its unit and sample count; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 means a result was printed; 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import a2match from the checkout's src/ and the benchmark modules.

    Raises ImportError when the sources are absent or an a2match from
    elsewhere would be imported.
    """
    if not (SRC / "a2match" / "__init__.py").is_file():
        raise ImportError(f"a2match sources not found under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import a2match
    import workloads  # noqa: F401
    if Path(a2match.__file__).resolve().parent != SRC / "a2match":
        raise ImportError(f"imported a2match from {a2match.__file__}, not from {SRC}")


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_metadata(args, profile):
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS", "A2_THREADS")
                       if k in os.environ},
        "profile": dataclasses.asdict(profile),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("localize", "train", "pose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"a2bench: cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    profile = workloads.FULL
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            profile, root=ROOT, src=SRC)

    print("meta " + json.dumps(run_metadata(args, profile), sort_keys=True))
    for name, value, unit, samples in outcome.report:
        print(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    for note in outcome.notes:
        print(f"note {note}")
    for message in outcome.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"checks: {outcome.attempted - outcome.failed} of {outcome.attempted} passed")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
