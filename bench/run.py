"""Benchmark entry point for bass-sim.

    python3 bench/run.py --workload headline --seed 0 --seconds 30 --trace 0
    python3 bench/smoke.py      # every workload at a few rounds

Runs one workload of ``harness.WORKLOADS`` closed-loop (one experiment at a
time, sequentially, in this process) for ``--seconds`` seconds and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones, from spans the benchmark
records around each public call it makes into the library. The line before
it holds the machine and environment record, the operation counts with
``ops_failed_frac``, and the quality guardrails (final train loss and
consensus error), which are reported but not bounded.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without those sources the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> int:
    """Cap BLAS threads at the CPUs this process may use and put ``src`` first.

    Must run before numpy is imported: BLAS reads the caps once, at load.
    Returns the cap.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    if not (SRC / "bass" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bass sources at {SRC}; run from a full checkout")
    cap = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    sys.path.insert(0, str(SRC))
    import bass

    if Path(bass.__file__).resolve().parent != SRC / "bass":
        raise SystemExit(f"bench: imported bass from {bass.__file__}, not from {SRC}")
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cap = prepare()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = harness.run_benchmark(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), cap
    )
    print(json.dumps(result.report_line()))
    print(json.dumps(result.final_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
