"""The benchmark's own test: traced runs of one seed repeat every count.

    python3 bench/check_calls.py [--seed N] [--workload W ...]

Runs `run.py --trace 1` twice per workload from the current directory
(the root of a checkout) and fails unless every count-valued per-layer
metric (calls, shells, and the ratios and degrees derived from counts)
is identical across the two runs, both runs report correct = true, and
the metrics reported are exactly the `per_layer` list of BENCHMARK.json.
Exits 0 on success, 1 on a mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s" and not name.startswith("trace.")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=W.WORKLOADS)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    bad = 0
    for workload in args.workload or W.WORKLOADS:
        a, b = traced(workload, args.seed), traced(workload, args.seed)
        ca, cb = deterministic(a["metrics"]), deterministic(b["metrics"])
        diff = sorted(k for k in ca if ca[k] != cb.get(k))
        names = set(a["metrics"]) ^ declared
        ok = not diff and not names and a["correct"] and b["correct"] \
            and ca.keys() == cb.keys()
        bad += not ok
        print("%-7s %s: %d counts compared%s%s" % (
            workload, "ok" if ok else "MISMATCH", len(ca),
            "; differ: " + ", ".join(diff) if diff else "",
            "; not both reported and declared: " + ", ".join(sorted(names))
            if names else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
