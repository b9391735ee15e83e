#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads mto-rewire,...]
                                  [--trace 0] [--seconds N] [--write]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, and prints for each metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread: the quartile distance as
a share of the median.  End-to-end spreads are compared with a third of
their ``BENCHMARK.json`` bound.  ``--write`` stores the summary in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{command} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{command} reported incorrect output:\n{done.stdout}")
    # Numeric informational fields ride along as ``info.<name>``.
    for key, value in json.loads(lines[-2])["info"].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            result["metrics"][f"info.{key}"] = {"value": value}
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    summary = {}
    for name in names:
        values = {}
        for seed in seeds:
            result = run_once(name, seed, seconds, args.trace)
            for metric, row in result["metrics"].items():
                values.setdefault(metric, []).append(row["value"])
        summary[name] = {metric: summarise(vals) for metric, vals in values.items()}
        for metric, row in summary[name].items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and row["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
            print(
                f"{name:14s} {metric:32s} median {row['median']:.6g} "
                f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}"
                + (f" bound {bound}" if bound is not None else "") + flag,
                flush=True,
            )
    if args.write:
        path = HERE / "baseline.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded.setdefault("trace" if args.trace else "end_to_end", {}).update(
            {name: {"seeds": seeds, "run_seconds": seconds, "metrics": rows}
             for name, rows in summary.items()}
        )
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
