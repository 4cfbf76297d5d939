#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at reduced size (--size smoke),
untraced and traced, on the default seed and the held-out seed. Each
run must exit 0, pass its correctness checks, and print as its last
line a result carrying exactly the metric names and units that
BENCHMARK.json lists (end_to_end when untraced, per_layer when traced).
Exits non-zero on the first problem.
"""

import json
import subprocess
import sys

SEEDS = ("1", "2")


def check_run(spec, workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", seed,
           "--seconds", "1", "--trace", trace, "--size", "smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = "%s seed %s trace %s" % (workload, seed, trace)
    if out.returncode != 0:
        return "%s: exit %d\n%s" % (where, out.returncode, out.stderr[-2000:])
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "%s: last line is not a JSON result" % where
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "%s: result keys %s" % (where, sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        return "%s: checks failed (%d of %d)\n%s" % (
            where, result["failed"], result["attempted"], out.stderr[-2000:])
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "%s: metrics differ: missing %s, extra %s, wrong units %s" % (
            where, missing, extra, units)
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            return "%s: %s has no numeric value" % (where, k)
    if not any(line.startswith("host ") for line in out.stdout.splitlines()):
        return "%s: no host line" % where
    return None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = 0
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in ("0", "1"):
                err = check_run(spec, w["name"], seed, trace)
                status = "ok" if err is None else "FAIL"
                print("%-4s %s seed %s trace %s" % (status, w["name"], seed, trace), flush=True)
                if err is not None:
                    print(err, file=sys.stderr)
                    problems += 1
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
