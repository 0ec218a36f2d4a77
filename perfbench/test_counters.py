#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of the repository:

    python3 perfbench/test_counters.py [workload ...]

For each workload (default: all) on the default seed it checks that
  * two traced runs reproduce every deterministic work counter exactly,
  * both traced runs and one untraced run export the reference digest
    recorded in reference.json and report no failed design point,
  * the untraced run prints every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its unit.
Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("counters", "digest"):
            tagged[tag] = rest
    return proc.returncode, json.loads(lines[-1]), tagged, proc.stderr


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def check_metrics(result, spec, what):
    for m in spec:
        got = result["metrics"].get(m["name"])
        check(got is not None, f"{what}: metric {m['name']} missing")
        check(got["unit"] == m["unit"],
              f"{what}: {m['name']} unit {got['unit']} != {m['unit']}")
    check(set(result["metrics"]) == {m["name"] for m in spec},
          f"{what}: unexpected metric names")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    seed = reference["default_seed"]
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        expect = reference["digests"][wl]
        code, res, tagged, err = run(wl, seed, 0)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              f"{wl} untraced run failed:\n{err}")
        check(tagged.get("digest") == expect, f"{wl} untraced digest")
        check_metrics(res, bench["end_to_end"], f"{wl} untraced")
        counters = []
        for _ in range(2):
            code, res, tagged, err = run(wl, seed, 1)
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  f"{wl} traced run failed:\n{err}")
            check(tagged.get("digest") == expect, f"{wl} traced digest")
            check_metrics(res, bench["per_layer"], f"{wl} traced")
            counters.append(json.loads(tagged["counters"]))
        check(counters[0] == counters[1],
              f"{wl} counters differ between runs:\n{counters}")
        print(f"ok {wl}: digest {expect}, counters {counters[0]}")


if __name__ == "__main__":
    main()
