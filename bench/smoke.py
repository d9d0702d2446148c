"""Smoke test of the benchmark itself: every workload at a few rounds.

    python3 bench/smoke.py

For each workload of BENCHMARK.json, one untraced and one traced run must be
correct with no failed operation (the traced run is incorrect unless its
replica reproduced ``build_policy`` and ``run_training`` byte for byte), and
must emit exactly the metrics BENCHMARK.json names, each with its unit and a
finite value. Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import sys

import run

ROUNDS = 3


def main() -> int:
    cap = run.prepare()
    import harness

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(harness.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != harness {sorted(harness.WORKLOADS)}")
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run_benchmark(
                harness.WORKLOADS[name], 0, 0.01, trace, cap, rounds=ROUNDS
            )
            line = result.final_line()
            where = f"{name} trace={int(trace)}"
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                failures.append(f"{where}: {result.report_line()}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            if emitted != expected:
                missing = sorted(set(expected.items()) ^ set(emitted.items()))
                failures.append(f"{where}: metrics differ from BENCHMARK.json: {missing}")
            bad = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{where}: non-finite values for {bad}")
            print(f"smoke {where}: {line['attempted']} ops checked", file=sys.stderr)
    for failure in failures:
        print(f"smoke: FAILED {failure}", file=sys.stderr)
    print("smoke: FAIL" if failures else "smoke: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
