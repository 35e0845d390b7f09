#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how much each end-to-end
metric spreads: the distance between the first and third quartile of its
values as a share of their median, next to the metric's bound in
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --workload serve-cold --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect output ({res['failed']} of {res['attempted']} failed)")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:20s} median={med:12.6g} spread={spread:7.4f} bound={bound} {flag}")


if __name__ == "__main__":
    main()
