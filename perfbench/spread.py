#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload <name> --seeds 1,2,3,4,5 --seconds 20 [--trace 0|1]

Runs run.py once per seed and prints, per metric, the median and the
interquartile distance over the median (the spread the benchmark's bounds are
set against).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    series = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", seed, "--seconds", args.seconds,
                               "--trace", args.trace], stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("seed %s: exit %d, no result" % (seed, proc.returncode))
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %s: output check failed" % seed)
        for name, v in result["metrics"].items():
            series.setdefault(name, []).append(v["value"])
    for name, values in series.items():
        med = m.median(values)
        spread = m.spread(values) if len(values) > 1 and med else 0.0
        print("%-36s median %-14.6g spread %.4f  %s" % (
            name, med, spread, " ".join("%.6g" % v for v in values)))


if __name__ == "__main__":
    main()
