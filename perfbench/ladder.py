#!/usr/bin/env python3
"""One-off scaling ladder: in-process layer times and peak RSS at
5/10/20/40 vertices x S3/S4, one fresh process per instance.

    python3 perfbench/ladder.py

Run from the root of a checkout.  Prints a markdown table; its figures are
reference numbers for the README, not a workload.  Steps whose cost grows
past a few seconds are skipped above a size cap ("-" in the table):
JSON emission above 5e6 composable pairs, ``verify_action`` above 10
vertices, ``fiber_semigroup`` above 20 vertices.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 0
COLUMNS = ("groupoid_of_bundle", "verify_groupoid", "transport_to_json",
           "canonical_dumps", "build_ambit", "verify_action",
           "fiber_semigroup")


def measure(vertices: int, group_name: str) -> dict:
    """Runs inside the fresh process."""
    sys.path.insert(0, str(HERE))
    from oracle import Bundle, group
    from gpdflow import dynamics, ehresmann, groupoid, serialize

    b = Bundle.random(random.Random(SEED), vertices, vertices // 2,
                      group(group_name))
    _, bundle = serialize.build_bundle(serialize.parse_model(b.json()).data)
    out: dict = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        out[name] = time.perf_counter() - t0
        return result

    tg = timed("groupoid_of_bundle", ehresmann.groupoid_of_bundle, bundle)
    gpd = tg.groupoid
    out["comp_pairs"] = gpd.n_comp_pairs
    diag = timed("verify_groupoid", groupoid.verify_groupoid, gpd)
    out["assoc"] = diag.notes.get("assoc_strategy")
    if gpd.n_comp_pairs <= 5_000_000:
        model = timed("transport_to_json", serialize.transport_to_json, tg)
        text = timed("canonical_dumps", serialize.canonical_dumps, model)
        out["report_mb"] = len(text) / 1e6
        del model, text
    ambit = timed("build_ambit", dynamics.build_ambit, gpd, 0)
    if vertices <= 10:
        timed("verify_action", dynamics.verify_action, ambit.action)
    if vertices <= 20:
        timed("fiber_semigroup", dynamics.fiber_semigroup, ambit)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--one", nargs=2, metavar=("VERTICES", "GROUP"))
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(int(args.one[0]), args.one[1])))
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("| vertices | group | comp pairs | " + " | ".join(COLUMNS)
          + " | report MB | peak RSS MB |")
    print("|" + " --- |" * (len(COLUMNS) + 5))
    for group_name in ("S3", "S4"):
        for vertices in (5, 10, 20, 40):
            proc = subprocess.run(
                [sys.executable, __file__, "--one", str(vertices), group_name],
                capture_output=True, text=True, env=env, timeout=900)
            if proc.returncode != 0:
                print(f"| {vertices} | {group_name} | failed: "
                      f"{proc.stderr.strip().splitlines()[-1]} |")
                continue
            r = json.loads(proc.stdout)
            cells = [f"{r[c]:.3f}" if c in r else "-" for c in COLUMNS]
            report = f"{r['report_mb']:.1f}" if "report_mb" in r else "-"
            print(f"| {vertices} | {group_name} | {r['comp_pairs']:,} | "
                  + " | ".join(cells)
                  + f" | {report} | {r['peak_rss_mb']:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
