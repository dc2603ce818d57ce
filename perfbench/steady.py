#!/usr/bin/env python3
"""Steadiness mode: run each workload N times with seeds 1..N and print
each end-to-end metric's median, quartiles and spread (IQR / median).

    python3 perfbench/steady.py --runs 10 --seconds 25 [--workload W ...] \
        [--out FILE] [--against EARLIER_FILE]

Run from the root of a checkout.  The spread of an end-to-end metric is
what its bound in BENCHMARK.json must cover; ``--out`` also writes every
run's result with the machine info (nproc, Python, numpy, commit).
``--against`` reads an earlier ``--out`` file and prints how far each
median moved from that set's, against the same bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]} \
        if (HERE.parent / "BENCHMARK.json").exists() else {}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    record = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(one_run(workload, seed, args.seconds))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct "
                  f"{res['correct']} attempted {res['attempted']} failed "
                  f"{res['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarize(values)
            s = summary[name]
            bound = bounds.get(name)
            mark = "" if bound is None else \
                f"  bound {bound:.2f} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before and bound is not None:
                shift = s["median"] / before["median"] - 1
                mark += (f"  median moved {shift:+.2%} "
                         f"({'ok' if shift <= bound else 'WORSE'})")
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.2%}{mark}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}")
        record[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
