#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per workload and metric, the
median, the quartiles and the spread (quartile distance over median), with
the bound from BENCHMARK.json beside it.

Run from the repository root:
    python3 simbench/spread.py --workloads dc5k-dr,ctl-dense --seeds 1-10
Add --trace to summarise the per-layer metrics instead. Raw result lines are
appended to --out (default .bench_build/spread.jsonl) as they arrive.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    failed = False
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "1" if args.trace else "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": wl, "seed": seed, "trace": args.trace,
                                    "exit": p.returncode, "result": res}) + "\n")
            if p.returncode != 0 or not res.get("correct"):
                print(f"{wl} seed {seed}: exit {p.returncode}, correct={res.get('correct')}")
                failed = True
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({args.seeds})")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound:
                mark = "  OVER BOUND"
            elif bound is not None and spread > bound / 3:
                mark = "  above bound/3"
            print(f"  {name:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{mark}")
        sys.stdout.flush()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
