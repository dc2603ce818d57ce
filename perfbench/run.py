#!/usr/bin/env python3
"""The gpdflow benchmark: seeded workloads of CLI calls, checked and timed.

    python3 perfbench/run.py --workload transport-pipe --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
One client runs the workload's CLI calls as subprocesses, one at a time
(a closed loop), in ``--seconds / ROUND_S`` whole rounds.  Every
call's output is checked against the benchmark's own computations
(``oracle.py``); a step's later calls must reproduce its first call's bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, replays each of its steps in fresh processes with spans
around every layer (``replay.py``), prints the per-layer report and the
per-layer metrics.  The last line of stdout is always the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import replay  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# nominal length of one round: a run makes --seconds / ROUND_S rounds (at
# least one), a count that does not depend on the program's or the host's
# speed.  At the benchmark's run_seconds of 25 that is one round, so that
# 4 + 22 x 3 runs fit in their time budget even when other processes slow
# every call by half (a run takes about 22 s)
ROUND_S = 25
STAGES = ("groupoidify_s", "bundleize_s", "ambit_s", "action_reload_s")
# per-layer metrics: the self time of every traced function, plus the work
# counts, peak RSS and lookup cost below
PER_LAYER = tuple(f"{layer}.{fn}_s" for layer, fns in replay.LAYERS.items()
                  for fn in fns) + (
    "groupoid.lookup_ns", "groupoid.triples", "groupoid.generators",
    "dynamics.action_triples", "serialize.model_bytes",
    "ehresmann.groupoid_of_bundle_rss_mb", "serialize.load_model_rss_mb")


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ns", "ns"), ("_mb", "MB"),
                         ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Session:
    """One run's work directory and the launcher (``launcher.py``) that
    starts every measured process, so that no child's peak RSS counts this
    process's memory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env())

    def close(self) -> None:
        if self.launcher.poll() is None:
            self.launcher.terminate()  # also ends a call still running
        self.launcher.wait()
        self.launcher.stdin.close()
        self.launcher.stdout.close()

    def spawn(self, args: list[str], stdin: Path | None, stdout: Path,
              stderr: Path) -> tuple[int, float, float, float]:
        """Run one process in the work directory to its end; return (exit
        code, wall s, CPU s and peak RSS MB of the child)."""
        self.launcher.stdin.write(json.dumps({
            "args": args, "cwd": str(self.workdir),
            "stdin": None if stdin is None else str(stdin),
            "stdout": str(stdout), "stderr": str(stderr)}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("the launcher process ended")
        r = json.loads(reply)
        return r["rc"], r["wall"], r["cpu"], r["rss_mb"]

    def cli_call(self, argv: list[str], stdin: Path | None,
                 out: Path) -> wl.Outcome:
        err = out.with_suffix(".err")
        rc, wall, cpu, rss = self.spawn(
            [sys.executable, "-m", "gpdflow.cli", *argv], stdin, out, err)
        return wl.Outcome(rc=rc, out=out.read_bytes(), err=err.read_bytes(),
                          wall=wall, cpu=cpu, rss_mb=rss)

    def run_round(self, w: wl.Workload) -> dict[str, list[wl.Outcome]]:
        """One pass over the workload's steps; a step's samples in call order."""
        outs = {}
        for step in w.steps:
            stdin = self.workdir / f"{step.stdin}.out" if step.stdin else None
            outs[step.name] = [self.cli_call(step.argv, stdin,
                                             self.workdir / f"{step.name}.out")
                               for _ in range(step.repeat)]
        return outs


class Judge:
    """Checks each call once per distinct output; a step's later calls
    must give the same bytes as its first."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.failed = 0
        self.incorrect: list[str] = []
        self.defects: dict[str, str] = {}

    def verdict(self, step: wl.Step, o: wl.Outcome) -> str | None:
        key = (o.rc, hashlib.sha256(o.out).hexdigest(),
               hashlib.sha256(o.err).hexdigest())
        seen = self.first.get(step.name)
        if seen is not None and seen[0] == key:
            return seen[1]
        try:
            wl.check_contract(o)
            step.check(o)
            problem = None
        except wl.CheckFailed as exc:
            problem = str(exc)
        except (AttributeError, KeyError, IndexError, TypeError,
                ValueError) as exc:
            problem = f"malformed report: {type(exc).__name__}: {exc}"
        if seen is None:
            self.first[step.name] = (key, problem)
        elif problem is None:
            problem = "output differs from the step's first call"
        return problem

    def round(self, w: wl.Workload, outs: dict[str, list[wl.Outcome]]) -> None:
        for step in w.steps:
            for o in outs[step.name]:
                problem = self.verdict(step, o)
                if problem is None:
                    continue
                self.failed += 1
                if step.defect:
                    self.defects[step.name] = f"{step.defect}: {problem}"
                else:
                    self.incorrect.append(f"{step.name}: {problem}")


def measure_setup(session: Session) -> list[float]:
    """CPU times of ``gpdflow --help``: start-up, imports, no work.  The
    first call is untimed so that byte-compiled modules exist."""
    times = []
    out, err = session.workdir / "help.out", session.workdir / "help.err"
    for i in range(SETUP_SAMPLES + 1):
        rc, _, cpu, _ = session.spawn(
            [sys.executable, "-m", "gpdflow.cli", "--help"], None, out, err)
        if rc != 0:
            raise SystemExit("gpdflow --help failed: " + err.read_text()[-500:])
        if i:
            times.append(cpu)
    return times


def machine_info() -> dict:
    try:
        # the ceiling keeps git from looking above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "machine": platform.machine()}


# --- end-to-end run -------------------------------------------------------------


def end_to_end(w: wl.Workload, session: Session, seconds: float,
               judge: Judge) -> tuple[dict, int]:
    setup = measure_setup(session)
    rounds = [session.run_round(w)
              for _ in range(max(1, round(seconds / ROUND_S)))]
    for outs in rounds:  # checked after timing, so checks never delay a round
        judge.round(w, outs)

    def samples(step: wl.Step, kind: str) -> list[float]:
        return [getattr(o, kind) for r in rounds for o in r[step.name]]

    # times are the calls' own CPU time, which leaves out the time other
    # processes hold the cores; contention that remains (a busy sibling
    # hyperthread, shared caches) only ever slows a call, so the fastest
    # round (and the fastest call of a step) is the steadiest estimate of
    # the program's own cost
    metrics = {
        "setup_s": statistics.median(setup),
        "cpu_s": min(sum(o.cpu for samples in r.values() for o in samples)
                     for r in rounds),
        "peak_rss_mb": max(o.rss_mb for r in rounds
                           for samples in r.values() for o in samples),
    }
    for stage in STAGES:
        metrics[stage] = sum(min(samples(s, "cpu")) for s in w.steps
                             if s.stage == stage)
    print(f"{w.name}: {len(rounds)} rounds of "
          f"{sum(s.repeat for s in w.steps)} calls; "
          f"setup samples {[round(x, 4) for x in setup]}")
    for step in w.steps:
        print(f"  {step.name:40s} min wall {min(samples(step, 'wall')):8.3f} s"
              f"  min cpu {min(samples(step, 'cpu')):8.3f} s  rss "
              f"{max(o.rss_mb for r in rounds for o in r[step.name]):8.1f} MB")
    return metrics, len(rounds) * sum(s.repeat for s in w.steps)


# --- traced run --------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


COUNTERS = {"triples": "groupoid.triples", "generators": "groupoid.generators",
            "action_triples": "dynamics.action_triples",
            "bytes": "serialize.model_bytes"}
RSS_SPANS = {"ehresmann.groupoid_of_bundle": "ehresmann.groupoid_of_bundle_rss_mb",
             "serialize.load_model": "serialize.load_model_rss_mb"}


def replay_step(session: Session, step: wl.Step, mode: str) -> dict:
    """Replay one step in a fresh process; return its spans and report hash."""
    stem = session.workdir / f"{step.name}.{mode}"
    stdin = session.workdir / f"{step.stdin}.out" if step.stdin else None
    rc, _, _, _ = session.spawn([sys.executable, str(HERE / "replay.py"), mode,
                                 f"{stem}.json", "--", *step.argv], stdin,
                                Path(f"{stem}.stdout"), Path(f"{stem}.stderr"))
    if rc != 0:
        raise SystemExit(f"{mode} replay of {step.name} failed: "
                         + Path(f"{stem}.stderr").read_text()[-800:])
    return json.loads(Path(f"{stem}.json").read_text())


def fold(sums: dict, calls: dict, whole: dict) -> dict[str, float]:
    """Add one step's spans to the per-layer metrics; return the step's self
    time per span name."""
    per_name: dict[str, float] = {}
    for span, own in zip(calls["spans"], self_times(calls["spans"])):
        name = span["name"]
        per_name[name] = per_name.get(name, 0.0) + own
        if not name.startswith("cli."):
            sums[name + "_s"] += own
        for key, value in span["counters"].items():
            sums[COUNTERS[key]] += value
        if name in RSS_SPANS:
            sums[RSS_SPANS[name]] = max(sums[RSS_SPANS[name]], span["maxrss_mb"])
    for span in whole["spans"]:
        if span["name"].startswith("cli."):
            sums[span["name"] + "_s"] += span["end"] - span["start"]
    return per_name


def traced(w: wl.Workload, session: Session, seed: int,
           judge: Judge) -> tuple[dict, int]:
    outs = session.run_round(w)
    judge.round(w, outs)
    sums = {m: 0.0 for m in PER_LAYER}
    spent = {"calls": 0.0, "whole": 0.0}
    print(f"{w.name}: traced replay of {len(w.steps)} steps "
          "(self time per layer; coverage = top-level spans / CLI wall)")
    for step in w.steps:
        runs = {mode: replay_step(session, step, mode)
                for mode in ("calls", "whole")}
        cli_out = outs[step.name][0].out
        for mode, r in runs.items():
            spent[mode] += r["wall"]
            agrees = r["report_sha256"] == hashlib.sha256(cli_out).hexdigest() \
                if r["failure"] is None else not cli_out
            if not agrees:
                judge.incorrect.append(
                    f"{step.name}: {mode} replay disagrees with the CLI call")
        per_name = fold(sums, runs["calls"], runs["whole"])
        covered = sum(s["end"] - s["start"] for s in runs["calls"]["spans"]
                      if s["parent"] < 0)
        wall = min(o.wall for o in outs[step.name])
        print(f"  {step.name}: CLI {wall:.3f} s, coverage {covered / wall:.1%}, "
              f"whole replay {runs['whole']['wall']:.3f} s")
        top = sorted(per_name.items(), key=lambda kv: -kv[1])
        print("    " + (", ".join(f"{k} {v:.4f}" for k, v in top if v >= 5e-4)
                         or "no layer above 0.5 ms"))
    look = session.workdir / "lookup.json"
    rc, _, _, _ = session.spawn([sys.executable, str(HERE / "replay.py"), "lookup",
                                 str(look), w.lookup_input, str(seed)], None,
                                session.workdir / "lookup.stdout",
                                session.workdir / "lookup.stderr")
    if rc != 0:
        raise SystemExit("lookup probe failed: " + (
            session.workdir / "lookup.stderr").read_text()[-800:])
    sums["groupoid.lookup_ns"] = json.loads(look.read_text())["lookup_ns"]
    print(f"  tracing overhead: traced replays {spent['calls']:.3f} s vs "
          f"untraced {spent['whole']:.3f} s "
          f"({spent['calls'] / spent['whole'] - 1:+.1%})")
    return sums, sum(s.repeat for s in w.steps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still ends its child process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gpdflow" / "cli.py").is_file():
        print(f"no gpdflow sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    session = Session(workdir)
    try:
        w = wl.build(args.workload, args.seed, workdir)
        judge = Judge()
        if args.trace:
            metrics, attempted = traced(w, session, args.seed, judge)
        else:
            metrics, attempted = end_to_end(w, session, args.seconds, judge)
    finally:
        session.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    for name, problem in sorted(judge.defects.items()):
        print(f"known defect, counted as failed: {name}: {problem[:300]}")
    for problem in judge.incorrect:
        print(f"INCORRECT: {problem[:500]}")
    print(json.dumps({"info": machine_info(), "workload": args.workload,
                      "seed": args.seed, **w.notes}))
    print(json.dumps({
        "correct": not judge.incorrect,
        "attempted": attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
