"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload data_slide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The last line of standard output is the result record
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, sample counts and every metric by name and unit, each timed
one followed by its wall as measured ("raw").
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs each workload in its own process, one after
another, and combines their records.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"   # single-threaded BLAS: steadier on a shared 2-vCPU host
WORKLOADS = ("data_slide", "train_hiding12", "stream_hiding64")
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas_environment(np) -> dict:
    """BLAS library name, version and the thread count it reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads = int(query())
                break
    return {"blas": name, "blas_threads": threads}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and a combined record."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(lines[-1])
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in record["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "shapestream" / "__init__.py").is_file():
        print(f"error: no shapestream sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import numpy as np
    import workloads

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "numpy": np.__version__, **blas_environment(np),
           "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    print("env " + json.dumps(env), flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("samples " + json.dumps(result.pop("samples")))
    for note in result.pop("failures"):
        print(f"failed: {note}", file=sys.stderr)
    raw = result.pop("raw")
    for name, m in result["metrics"].items():
        measured = f" (raw {raw[name]['value']!r} {m['unit']})" if name in raw else ""
        print(f"{name} {m['value']!r} {m['unit']}{measured}")
    for name, m in raw.items():
        if name not in result["metrics"]:
            print(f"{name} {m['value']!r} {m['unit']} (raw only, not in the record)")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate {rate!r} ratio ({result['failed']} failed / "
          f"{result['attempted']} attempted)")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
