"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For each workload: two runs of SEED must give identical inputs,
per-instance counts and configuration hashes, and one run on the held-out
seed must complete with every check passing.  HELD_OUT_SEED is kept out of
tuning, so a later performance claim can be re-checked on inputs nobody
looked at while writing it.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import json
import sys

from run import _import_library, run_workload

SEED = 1
HELD_OUT_SEED = 90001
SECONDS = 3.0

# per-instance fields that must repeat exactly; timings may not
STABLE = ("k", "input_sha", "trials", "refinements", "accepts", "builds",
          "frozen_trials", "frozen_accepts", "size", "config_sha", "gap",
          "error")


def run(workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced benchmark run; returns (last stdout line, record)."""
    _, result, path = run_workload(workload, seed, SECONDS, 0)
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def stable_view(record: dict) -> dict:
    return {
        "input_sha256": record["input_sha256"],
        "configs_sha256": record["configs_sha256"],
        "instances": [{k: inst[k] for k in STABLE}
                      for inst in record["per_instance"]],
    }


def main() -> int:
    _import_library()
    import workloads

    ok = True
    for w in workloads.WORKLOADS:
        _, first = run(w, SEED)
        _, second = run(w, SEED)
        a, b = stable_view(first), stable_view(second)
        same = a == b
        diffs = [i["k"] for i, j in zip(a["instances"], b["instances"])
                 if i != j]
        print(f"{w}: seed {SEED} twice, {len(a['instances'])} "
              f"instances: {'identical' if same else 'DIFFERENT'}"
              + (f" (instances {diffs})" if diffs else ""))
        held, record = run(w, HELD_OUT_SEED)
        passed = held["correct"] and held["failed"] == 0
        print(f"{w}: held-out seed {HELD_OUT_SEED}, {held['attempted']} "
              f"instances: {'pass' if passed else 'FAIL'}")
        for f in record["failures"]:
            print(f"  instance {f['instance']}: {f['error']}")
        ok = ok and same and passed
    print("determinism self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
