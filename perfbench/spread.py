"""Runs one workload on a range of seeds and prints each metric's median
and spread (the distance between the first and third quartile as a share
of the median), the figures README.md quotes.

    python3 perfbench/spread.py --workload flat-melo --seeds 1-10
    python3 perfbench/spread.py --workload service-eco --seeds 1-3 --trace 1

Run it from the root of a checkout; it calls perfbench/run.sh.
"""

import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    values, units, failed = {}, {}, set()
    for seed in range(first, last + 1):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        failed.add((res["correct"], res["failed"] / res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)

    print(f"(correct, failed share) across seeds: {sorted(failed)}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
        print(f"{name:28s} median {med:.6g} {units[name]:6s} spread {spread:.3f}  n={len(v)}")


if __name__ == "__main__":
    main()
