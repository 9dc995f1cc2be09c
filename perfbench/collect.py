"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/collect.py [--workloads tomo survey ...] [--runs 10]
        [--first-seed 1] [--trace 0] [--out FILE]

Reads the command, run_seconds and end-to-end bounds from BENCHMARK.json
and runs the command once per seed, one run at a time. For every metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound. With --out it also
writes every run's report and result, plus the summary, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name), "values": vals}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    for w in args.workloads:
        runs = [run_once(spec, w, args.first_seed + k, args.trace)
                for k in range(args.runs)]
        results = [res for _, res in runs]
        summary = summarise(results, bounds)
        record[w] = {"summary": summary,
                     "runs": [{"report": rep, "result": res}
                              for rep, res in runs]}
        bad = sum(r["failed"] for r in results)
        print(f"{w}: {args.runs} runs, correct "
              f"{all(r['correct'] for r in results)}, failed ops {bad}")
        if args.trace == 0:
            for name, s in summary.items():
                flag = ""
                if s["bound"] is not None and s["spread"] is not None:
                    flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
                print(f"  {name:14s} median {s['median']:.6g}  q1 "
                      f"{s['q1']:.6g}  q3 {s['q3']:.6g}  spread "
                      f"{s['spread']:.4f}  bound {s['bound']}  {flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
