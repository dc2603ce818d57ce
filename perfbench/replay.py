"""Replay one CLI step in this fresh process and record spans per layer.

    python3 perfbench/replay.py calls SPANS_OUT -- COMMAND [FILES... | --fixtures]
    python3 perfbench/replay.py whole SPANS_OUT -- COMMAND [FILES... | --fixtures]
    python3 perfbench/replay.py lookup OUT BUNDLE_FILE SEED

Run with ``src`` on ``PYTHONPATH`` and the step's stdin on stdin.

``calls`` replays the step as the public calls the command line makes --
``load_model`` per file (or ``fixture_models``), ``run_command``,
``emit_report`` -- with the public functions of every layer wrapped, where
gpdflow's modules look them up, in a span: name, parent, start, end,
counters, and the process's ``ru_maxrss`` at span end.  ``whole`` replays it
through the same three calls with only those wrapped, which gives the
step's in-process time without tracing inside it.  Spans stay in memory and
are written to SPANS_OUT when the replay ends, with the sha256 of the report
the replay emitted.

``lookup`` times ``Groupoid.try_compose_many`` on a seeded batch of
composable pairs of the bundle's groupoid and writes ns per pair.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time

# layer -> public functions whose calls are spans
LAYERS = {
    "algebra": ("verify_group",),
    "groupoid": ("verify_groupoid", "check_local_triviality"),
    "bundle": ("holonomy_group",),
    "ehresmann": ("groupoid_of_bundle", "verify_connection",
                  "bundle_of_groupoid"),
    "dynamics": ("build_ambit", "verify_action", "fiber_semigroup",
                 "enumerate_equivariant_maps", "orbits"),
    "amenability": ("invariant_sections",),
    "serialize": ("load_model", "parse_model", "model_digest",
                  "build_groupoid", "build_action", "transport_to_json",
                  "ambit_to_json", "canonical_dumps"),
    "cli": ("run_command", "emit_report"),
}
WHOLE = ("serialize.load_model", "cli.run_command", "cli.emit_report")
LOOKUP_BATCH = 1 << 18
LOOKUP_REPEATS = 7


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(name: str, result) -> dict:
    """Work counts read from a call's result: the verdict notes of the two
    verifiers, and the bytes of each canonical encoding."""
    if name == "groupoid.verify_groupoid":
        return {k: result.notes[k] for k in ("triples", "generators")
                if k in result.notes}
    if name == "dynamics.verify_action" and "triples" in result.notes:
        return {"action_triples": result.notes["triples"]}
    if name == "serialize.canonical_dumps":
        return {"bytes": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self.stack[-1] if self.stack else -1,
                    "start": time.perf_counter(), "counters": {}}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span["counters"] = _counters(name, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                span["maxrss_mb"] = _maxrss_mb()
                self.stack.pop()
        return traced

    def install(self, names) -> None:
        """Replace each named function in every gpdflow module that holds it."""
        modules = {layer: importlib.import_module(f"gpdflow.{layer}")
                   for layer in LAYERS}
        holders = [m for key, m in sys.modules.items()
                   if key == "gpdflow" or key.startswith("gpdflow.")]
        for full in names:
            layer, fname = full.split(".")
            orig = getattr(modules[layer], fname)
            traced = self.wrap(full, orig)
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)


def replay(mode: str, out_path: str, argv: list[str]) -> None:
    tracer = Tracer()
    names = WHOLE if mode == "whole" else \
        [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
    tracer.install(names)
    from gpdflow import cli, serialize

    command, rest = argv[0], argv[1:]
    text, failure = None, None
    t0 = time.perf_counter()
    try:
        try:
            if rest == ["--fixtures"]:
                models = cli.fixture_models(command)
            else:
                models = [("stdin" if p == "-" else p, serialize.load_model(p))
                          for p in rest]
            report = cli.run_command(command, models)
        except serialize.ModelError as exc:
            report = {"command": command, "ok": False,
                      "error": {"code": exc.code, "message": exc.message}}
        except cli.UsageError as exc:
            report = {"command": command, "ok": False,
                      "error": {"code": cli.USAGE_ERROR, "message": str(exc)}}
        text = cli.emit_report(report) + "\n"
    except Exception as exc:  # the step crashes the CLI the same way
        failure = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump({"mode": mode, "wall": wall, "failure": failure,
                   "report_sha256": None if text is None else
                   hashlib.sha256(text.encode()).hexdigest(),
                   "spans": tracer.spans}, fh)


def lookup(out_path: str, bundle_path: str, seed: int) -> None:
    import numpy as np
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import build_bundle, load_model

    _, bundle = build_bundle(load_model(bundle_path).data)
    gpd = groupoid_of_bundle(bundle).groupoid
    rng = np.random.default_rng(seed)
    # a composable pair: any g, then an arrow out of tgt(g)
    out_order = np.argsort(gpd.src, kind="stable")
    out_start = np.searchsorted(gpd.src[out_order], np.arange(gpd.n_objects))
    out_deg = np.bincount(gpd.src, minlength=gpd.n_objects)
    gs = rng.integers(gpd.n_arrows, size=LOOKUP_BATCH)
    at = gpd.tgt[gs]
    hs = out_order[out_start[at]
                   + (rng.random(LOOKUP_BATCH) * out_deg[at]).astype(np.int64)]
    times = []
    for _ in range(LOOKUP_REPEATS):
        t0 = time.perf_counter()
        _, ok = gpd.try_compose_many(gs, hs)
        times.append(time.perf_counter() - t0)
        if not bool(ok.all()):
            raise SystemExit("lookup: a composable pair was reported undefined")
    with open(out_path, "w") as fh:
        json.dump({"lookup_ns": statistics.median(times) / LOOKUP_BATCH * 1e9,
                   "pairs": LOOKUP_BATCH}, fh)


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "lookup":
        lookup(out, sys.argv[3], int(sys.argv[4]))
    elif mode in ("calls", "whole") and sys.argv[3] == "--":
        replay(mode, out, sys.argv[4:])
    else:
        raise SystemExit(__doc__)
