#!/usr/bin/env python3
"""Self-check of the end-to-end repair benchmark.

Runs every workload of BENCHMARK.json at minimum size (--smoke) with fixed
seeds, untraced and traced, through perfbench/run.py, and asserts that:

  - the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics;
  - every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is emitted, by name, with its unit, and no other;
  - the run attempted jobs and none failed (ok_frac == 1);
  - acas-slices repaired a non-empty spec (syrenn.key_points > 0).

Usage, from the root of a prdnn checkout:

    python3 perfbench/selfcheck.py

Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {workload} trace={trace}: no output")
    return json.loads(lines[-1])


def check(workload, trace, declared, result):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {where}: correct={result['correct']} "
                 f"failed={result['failed']}")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {where}: no job attempted")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        sys.exit(f"FAIL {where}: emitted {sorted(metrics)}")
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL {where}: {m['name']} unit "
                     f"{metrics[m['name']]['unit']} != {m['unit']}")
    if trace == 0 and metrics["ok_frac"]["value"] != 1:
        sys.exit(f"FAIL {where}: ok_frac {metrics['ok_frac']['value']}")
    if (trace == 1 and workload == "acas-slices"
            and not metrics["syrenn.key_points"]["value"] > 0):
        sys.exit(f"FAIL {where}: acas-slices repaired an empty spec")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            check(w["name"], trace, declared, run(w["name"], trace))
            print(f"ok {w['name']} trace={trace}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
