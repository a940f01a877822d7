#!/usr/bin/env python3
"""Record the run-to-run spread of every end-to-end metric.

    python3 perfbench/noise.py [--runs 10] [--first-seed 1] [--seconds 15]
                               [--workloads cold-model,serve-mix] [--out perfbench/results/noise.json]

Run from the repository root. Runs `perfbench/run.py` `--runs` times per
workload, seeds `--first-seed` onwards, and writes per metric the values
with their seeds, the median, the quartiles (`statistics.quantiles(values,
n=4)`) and the spread (interquartile range / median), stamped with the host
metadata the runs printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    host = next((json.loads(l[len("host: "):]) for l in out if l.startswith("host: ")), {})
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return host, result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default="perfbench/results/noise.json")
    args = ap.parse_args()

    record = {"seconds": args.seconds, "runs": args.runs, "host": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            host, result = run_once(workload, seed, args.seconds)
            record["host"] = record["host"] or host
            for name, m in result["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "seeds": [], "values": []})
                values[name]["seeds"].append(seed)
                values[name]["values"].append(m["value"])
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v["values"], n=4)
            v.update(median=statistics.median(v["values"]), q1=q1, q3=q3,
                     spread=(q3 - q1) / statistics.median(v["values"]))
            print(f"{workload:13s} {name:12s} median={v['median']:.6g} spread={v['spread']:.3f}")
        record["workloads"][workload] = values
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
