"""Benchmark of mvsubspace: one workload per process, driven through the public API.

    python3 bench/run.py --workload tall --seed 1 --seconds 50 --trace 0

Workloads are ``tall`` and ``wide`` (see workload.py).  Inputs are
generated from ``--seed``; seed 1000 is kept aside for checking claims and is
not used while tuning a change.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the result object; the line
before it holds provenance, sample counts and failures.  A traced run also
writes its spans to ``bench/results/``.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2 when it is missing.  BLAS runs on one thread
(see ``pin_threads``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    Measured on a 2-vCPU Xeon VM: with two OpenBLAS threads the small matrix
    products of a deep epoch ran 2.6x slower and their timings spread by 31%
    of the median (interquartile range), against 5% on one thread.  One
    thread keeps every workload steady; nproc is recorded with the result.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    src = ROOT / "src"
    if not (src / "mvsubspace" / "__init__.py").is_file():
        print(f"error: no program source at {src}/mvsubspace", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import mvsubspace

    if Path(mvsubspace.__file__).resolve().parent != (src / "mvsubspace").resolve():
        print(f"error: imported mvsubspace from {mvsubspace.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return mvsubspace


def _openblas():
    """Version string and effective thread count of each loaded OpenBLAS."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"),
                               ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                found[Path(path).name] = {"config": config().decode(),
                                          "threads": threads()}
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(mv, nproc, args):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it has one)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": 1000,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mvsubspace": mv.__version__,
        "openblas": _openblas(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": nproc,
        "cpu_model": _cpu_model(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_threads()
    mv = import_program()
    import workload as wl

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail, spans = wl.run(mv, wl.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"provenance": provenance(mv, nproc, args),
              "shape": wl.WORKLOADS[args.workload].shape, **detail}
    if args.trace:
        out = HERE / "results" / f"trace_{args.workload}_seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fh:
            fh.write(json.dumps(detail) + "\n")
            for s in spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "peak_bytes": s.peak_bytes, **s.attrs}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
