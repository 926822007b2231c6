#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and records, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile spread as a share
of the median, next to the metric's bound:

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/evidence/set-a.json
    python3 perfbench/steady.py --workloads faults-compiler --seeds 1-5

Run it from the repository root. Each run's result line is kept in the
output file, so a set can be re-analysed without re-running it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            took = time.time() - t0
            if p.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}")
            reps = [l for l in p.stderr.splitlines() if "repetitions" in l]
            res = json.loads(p.stdout.strip().splitlines()[-1])
            res.update(seed=seed, took_s=round(took, 1))
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            print(f"{name} seed {seed}: correct={res['correct']} {vals} ({took:.0f}s) {reps}", flush=True)
        metrics = {}
        for m, bound in bounds.items():
            metrics[m] = summarize([r["metrics"][m]["value"] for r in runs], bound)
            s = metrics[m]
            print(f"  {m}: median {s['median']:.4g} spread {s['spread']:.3f} (bound {bound})", flush=True)
        report["workloads"][name] = {"metrics": metrics, "runs": runs,
                                     "all_correct": all(r["correct"] for r in runs)}
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
