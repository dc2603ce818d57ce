"""Batch front door: load JSON models, run a construction or check, report.

One command per invocation.  Reports are emitted as canonical JSON (sorted
keys, no whitespace variance) or as plain text carrying the same
information; identical inputs always produce identical bytes.  Exit codes:
0 when every checked property holds (questions like ``trivial`` and ``ea``
count as answered either way), 1 when a checked property fails (the report
carries a witness), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Optional

from .algebra import verify_group
from .amenability import extreme_amenability_check, fiber_action, \
    fixed_points, invariant_sections
from .bundle import CocycleBundle, holonomy_group, is_trivial, \
    verify_cocycle
from .diagnostics import Diagnostics
from .dynamics import base_action, build_ambit, enumerate_equivariant_maps, \
    fiber_semigroup, orbits, verify_action
from .ehresmann import bundle_of_groupoid, groupoid_of_bundle, \
    roundtrip_bundle, verify_connection
from .fixtures import named_bundles
from .groupoid import Groupoid, check_local_triviality, is_transitive, \
    verify_groupoid
from .serialize import Model, ModelError, action_to_json, ambit_to_json, \
    build_action, build_graph, build_group, build_groupoid, bundle_to_json, \
    canonical_dumps, load_model, model_digest, parse_model, transport_to_json

__all__ = ["COMMANDS", "USAGE_ERROR", "run_command", "emit_report", "main"]

COMMANDS = ("verify", "groupoidify", "bundleize", "roundtrip", "holonomy",
            "trivial", "orbits", "ambit", "universal", "sections",
            "semigroup", "ea")

USAGE_ERROR = 2


class UsageError(Exception):
    """A well-formed model that the requested command cannot act on."""


# --- report assembly ------------------------------------------------------------


def _verdict(prop: str, diag: Diagnostics) -> dict:
    return {"property": prop, "ok": bool(diag.ok), "failure": diag.failure,
            "witness": list(diag.witness) if diag.witness is not None else None,
            "notes": diag.notes}


def _plain(prop: str, ok: bool, witness=None, failure: Optional[str] = None,
           notes: Optional[dict] = None) -> dict:
    return {"property": prop, "ok": bool(ok),
            "failure": None if ok else (failure or prop),
            "witness": witness, "notes": notes or {}}


def _need_kind(command: str, model: Model, kinds: tuple[str, ...]) -> None:
    if model.kind not in kinds:
        raise UsageError(f"{command} needs a {' or '.join(kinds)} model, "
                         f"got {model.kind}")


def _bundle_run(model: Model) -> tuple[list[dict], Optional[CocycleBundle]]:
    """Shared preamble for bundle inputs: group axioms, then the cocycle."""
    gdiag, grp = build_group(model.data["group"])
    verdicts = [_verdict("group axioms", gdiag)]
    if grp is None:
        return verdicts, None
    bundle = CocycleBundle.from_edge_labels(
        build_graph(model.data["graph"]), grp, model.data["labels"])
    verdicts.append(_verdict("dart cocycle", verify_cocycle(bundle)))
    if not verdicts[-1]["ok"]:
        return verdicts, None
    return verdicts, bundle


def _ambit_source(command: str, model: Model, basepoint: int):
    """Bundle or groupoid input -> (verdicts, groupoid or None).

    Bundles pass through groupoid_of_bundle; either way the groupoid is
    checked for transitivity, which every ambit construction needs.
    """
    _need_kind(command, model, ("bundle", "groupoid"))
    if model.kind == "bundle":
        verdicts, bundle = _bundle_run(model)
        if bundle is None:
            return verdicts, None
        gpd = groupoid_of_bundle(bundle).groupoid
    else:
        verdicts = []
        gpd, _ = build_groupoid(model.data)
        verdicts.append(_verdict("groupoid axioms", verify_groupoid(gpd)))
        if not verdicts[-1]["ok"]:
            return verdicts, None
    return verdicts, _transitive(verdicts, gpd, basepoint,
                                 "no arrow between a pair of objects")


def _transitive(verdicts: list[dict], gpd: Groupoid, basepoint: int,
                failure: Optional[str] = None) -> Optional[Groupoid]:
    """Append the transitivity verdict; the groupoid when it holds, else
    None.  A basepoint out of range is a usage error."""
    ok, witness = is_transitive(gpd)
    verdicts.append(_plain("transitive", ok, witness=list(witness) if witness else None,
                           failure=failure))
    if not ok:
        return None
    if not (0 <= basepoint < gpd.n_objects):
        raise UsageError(f"basepoint {basepoint} out of range for "
                         f"{gpd.n_objects} objects")
    return gpd


def _action_source(command: str, model: Model, basepoint: int):
    """Action, bundle or groupoid input -> (verdicts, groupoid, action).

    An action has its axioms verified and its groupoid checked for
    transitivity; other inputs go through :func:`_ambit_source` and leave
    the action None, for the caller to use the ambit.  The groupoid is None
    when a verdict fails.
    """
    if model.kind != "action":
        verdicts, gpd = _ambit_source(command, model, basepoint)
        return verdicts, gpd, None
    action, _ = build_action(model.data)
    verdicts = [_verdict("groupoid action axioms", verify_action(action))]
    if not verdicts[-1]["ok"]:
        return verdicts, None, None
    return verdicts, _transitive(verdicts, action.gpd, basepoint), action


# --- command runners ------------------------------------------------------------


def _run_verify(name: str, model: Model, basepoint: int) -> dict:
    verdicts: list[dict] = []
    facts: dict = {}
    if model.kind == "group":
        diag, grp = build_group(model.data)
        verdicts.append(_verdict("group axioms", diag))
        if grp is not None:
            facts["order"] = grp.order
    elif model.kind == "graph":
        graph = build_graph(model.data)
        verdicts.append(_plain("graph shape", True))
        facts = {"vertices": graph.n_vertices, "edges": graph.n_edges,
                 "connected": graph.is_connected()}
    elif model.kind == "bundle":
        verdicts, bundle = _bundle_run(model)
        if bundle is not None:
            facts = {"vertices": bundle.base.n_vertices,
                     "edges": bundle.base.n_edges,
                     "group_order": bundle.group.order}
    elif model.kind == "groupoid":
        gpd, conn = build_groupoid(model.data)
        verdicts.append(_verdict("groupoid axioms", verify_groupoid(gpd)))
        facts = {"objects": gpd.n_objects, "arrows": gpd.n_arrows}
        if verdicts[-1]["ok"]:
            ok, _ = is_transitive(gpd)
            facts["transitive"] = ok
            facts["locally_trivial"] = check_local_triviality(gpd).trivial
            if conn is not None:
                verdicts.append(_verdict("connection transport",
                                         verify_connection(gpd, conn)))
    else:
        action, _ = build_action(model.data)
        verdicts.append(_verdict("groupoid action axioms",
                                 verify_action(action)))
        facts = {"space": action.n_points}
        if verdicts[-1]["ok"]:
            facts["orbits"] = len(orbits(action))
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_groupoidify(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("groupoidify", model, ("bundle",))
    verdicts, bundle = _bundle_run(model)
    if bundle is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    tg = groupoid_of_bundle(bundle)
    gpd = tg.groupoid
    verdicts.append(_verdict("groupoid axioms", verify_groupoid(gpd)))
    local = check_local_triviality(gpd)
    verdicts.append(_plain("local triviality", local.trivial,
                           witness=list(local.witness) if local.witness else None))
    expected = bundle.base.n_vertices ** 2 * bundle.group.order
    verdicts.append(_plain("arrow count law", gpd.n_arrows == expected,
                           witness=[gpd.n_arrows, expected],
                           failure="arrow count differs from |V|^2 |G|"))
    facts = {"objects": gpd.n_objects, "arrows": gpd.n_arrows}
    return {"input": name, "verdicts": verdicts, "facts": facts,
            "model": transport_to_json(tg)}


def _run_bundleize(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("bundleize", model, ("groupoid",))
    gpd, conn = build_groupoid(model.data)
    if conn is None:
        raise UsageError("bundleize needs a groupoid model with a connection")
    verdicts = [_verdict("groupoid axioms", verify_groupoid(gpd))]
    if verdicts[-1]["ok"]:
        verdicts.append(_verdict("connection transport",
                                 verify_connection(gpd, conn)))
    if not verdicts[-1]["ok"]:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    if not (0 <= basepoint < gpd.n_objects):
        raise UsageError(f"basepoint {basepoint} out of range for "
                         f"{gpd.n_objects} objects")
    rec = bundle_of_groupoid(gpd, conn, basepoint)
    verdicts.append(_verdict("dart cocycle", verify_cocycle(rec.bundle)))
    facts = {"basepoint": basepoint, "references": rec.references}
    return {"input": name, "verdicts": verdicts, "facts": facts,
            "model": bundle_to_json(rec.bundle)}


def _run_roundtrip(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("roundtrip", model, ("bundle",))
    verdicts, bundle = _bundle_run(model)
    if bundle is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    if not (0 <= basepoint < bundle.base.n_vertices):
        raise UsageError(f"basepoint {basepoint} out of range for "
                         f"{bundle.base.n_vertices} vertices")
    try:
        rt = roundtrip_bundle(bundle, basepoint)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    verdicts.append(_plain("reconstruction isomorphic", True,
                           witness=rt.witness_gauge))
    before = is_trivial(bundle, basepoint)
    after = is_trivial(rt.reconstructed.bundle, basepoint)
    verdicts.append(_plain("triviality agreement",
                           before.trivial == after.trivial,
                           witness=[before.trivial, after.trivial]))
    facts = {"basepoint": basepoint, "witness_gauge": rt.witness_gauge,
             "conjugator": rt.conjugator,
             "holonomy_original": before.holonomy,
             "holonomy_reconstructed": after.holonomy}
    return {"input": name, "verdicts": verdicts, "facts": facts,
            "model": bundle_to_json(rt.reconstructed.bundle)}


def _run_holonomy(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("holonomy", model, ("bundle",))
    verdicts, bundle = _bundle_run(model)
    if bundle is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    if not (0 <= basepoint < bundle.base.n_vertices):
        raise UsageError(f"basepoint {basepoint} out of range for "
                         f"{bundle.base.n_vertices} vertices")
    hol = holonomy_group(bundle, basepoint)
    facts = {"basepoint": basepoint,
             "subgroup": hol.subgroup,
             "order": len(hol.subgroup),
             "cycles": [{"edge": c.edge, "dart": c.dart,
                         "element": c.element, "darts": c.darts}
                        for c in hol.cycles]}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_trivial(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("trivial", model, ("bundle",))
    verdicts, bundle = _bundle_run(model)
    if bundle is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    if not (0 <= basepoint < bundle.base.n_vertices):
        raise UsageError(f"basepoint {basepoint} out of range for "
                         f"{bundle.base.n_vertices} vertices")
    rep = is_trivial(bundle, basepoint)
    facts = {"trivial": rep.trivial,
             "by_labels": rep.by_labels,
             "by_section": rep.by_section,
             "section": rep.section,
             "holonomy": rep.holonomy,
             "witness_cycles": [
                 {"edge": c.edge, "element": c.element, "darts": c.darts}
                 for c in rep.cycles
                 if c.element != bundle.group.identity]}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_orbits(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("orbits", model, ("action",))
    action, _ = build_action(model.data)
    verdicts = [_verdict("groupoid action axioms", verify_action(action))]
    facts: dict = {}
    if verdicts[-1]["ok"]:
        parts = orbits(action)
        facts = {"orbits": parts, "count": len(parts)}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_ambit(name: str, model: Model, basepoint: int) -> dict:
    verdicts, gpd = _ambit_source("ambit", model, basepoint)
    if gpd is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    ambit = build_ambit(gpd, basepoint)
    # a groupoid input had its axioms verified by _ambit_source already
    verdicts.append(_verdict("groupoid action axioms", verify_action(
        ambit.action, groupoid_ok=model.kind == "groupoid")))
    facts = {"basepoint": basepoint,
             "space": ambit.action.n_points,
             "u0_arrow": ambit.points[ambit.u0],
             "fiber": [ambit.points[y] for y in ambit.fiber_points()]}
    return {"input": name, "verdicts": verdicts, "facts": facts,
            "model": ambit_to_json(ambit)}


def _run_universal(name: str, model: Model, basepoint: int) -> dict:
    """Enumerate the equivariant maps out of the ambit: into the given
    action when the input is one, into the ambit itself otherwise."""
    verdicts, gpd, action = _action_source("universal", model, basepoint)
    if gpd is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    ambit = build_ambit(gpd, basepoint)
    target = ambit.action if action is None else action
    maps = enumerate_equivariant_maps(ambit, target)
    fiber = target.fiber(ambit.basepoint)
    verdicts.append(_plain("one equivariant map per fiber point",
                           len(maps) == len(fiber),
                           witness=[len(maps), len(fiber)]))
    facts = {"basepoint": basepoint,
             "count": len(maps),
             "maps": [{"fiber_point": m.values[ambit.u0],
                       "values": m.values} for m in maps]}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_sections(name: str, model: Model, basepoint: int) -> dict:
    verdicts, gpd, action = _action_source("sections", model, basepoint)
    if gpd is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    if action is None:
        action = build_ambit(gpd, basepoint).action
    secs = invariant_sections(action, basepoint)
    table, fiber, grp = fiber_action(action, basepoint)
    fixed = fixed_points(grp, table)
    verdicts.append(_plain("section count matches fixed fiber points",
                           len(secs) == len(fixed),
                           witness=[len(secs), len(fixed)]))
    facts = {"basepoint": basepoint,
             "count": len(secs),
             "sections": [s.values for s in secs],
             "fixed_fiber_points": [fiber[i] for i in fixed]}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_semigroup(name: str, model: Model, basepoint: int) -> dict:
    verdicts, gpd = _ambit_source("semigroup", model, basepoint)
    if gpd is None:
        return {"input": name, "verdicts": verdicts, "facts": {}}
    ambit = build_ambit(gpd, basepoint)
    fs = fiber_semigroup(ambit)
    diag, _ = verify_group(fs.table, identity=0)
    verdicts.append(_verdict("fiber table is a group", diag))
    verdicts.append(_plain("isomorphic to the vertex group", True,
                           witness=fs.vertex_iso))
    verdicts.append(_plain("unit is the only idempotent",
                           fs.idempotents == [ambit.u0],
                           witness=fs.idempotents))
    facts = {"basepoint": basepoint,
             "fiber": fs.fiber,
             "table": fs.table,
             "idempotents": fs.idempotents,
             "left_ideals": fs.left_ideals,
             "vertex_iso": fs.vertex_iso}
    return {"input": name, "verdicts": verdicts, "facts": facts}


def _run_ea(name: str, model: Model, basepoint: int) -> dict:
    _need_kind("ea", model, ("group",))
    diag, grp = build_group(model.data)
    verdicts = [_verdict("group axioms", diag)]
    facts: dict = {}
    if grp is not None:
        rep = extreme_amenability_check(grp)
        cert = rep.certificate
        verdicts.append(_plain(
            "translation certificate consistent",
            cert.free and bool(cert.fixed) == (cert.order == 1),
            witness=cert.fixed))
        facts = {"extremely_amenable": rep.extremely_amenable,
                 "order": cert.order,
                 "fixed": cert.fixed,
                 "free": cert.free,
                 "table": cert.table}
    return {"input": name, "verdicts": verdicts, "facts": facts}


_RUNNERS = {
    "verify": _run_verify,
    "groupoidify": _run_groupoidify,
    "bundleize": _run_bundleize,
    "roundtrip": _run_roundtrip,
    "holonomy": _run_holonomy,
    "trivial": _run_trivial,
    "orbits": _run_orbits,
    "ambit": _run_ambit,
    "universal": _run_universal,
    "sections": _run_sections,
    "semigroup": _run_semigroup,
    "ea": _run_ea,
}


def run_command(command: str, models: list[tuple[str, Model]],
                basepoint: int = 0) -> dict:
    """Run one command over the named models and assemble the report."""
    if command not in _RUNNERS:
        raise UsageError(f"unknown command {command!r}")
    runs = [_RUNNERS[command](name, model, basepoint)
            for name, model in models]
    ok = all(v["ok"] for run in runs for v in run["verdicts"])
    return {"command": command,
            "inputs": [{"name": name, "digest": model_digest(model.data)}
                       for name, model in models],
            "runs": runs,
            "ok": ok}


# --- the built-in corpus ----------------------------------------------------------


def _bundle_models(keys=None) -> list[tuple[str, Model]]:
    bundles = named_bundles()
    names = sorted(bundles) if keys is None else list(keys)
    return [(k, parse_model(bundle_to_json(bundles[k]))) for k in names]


def _transport_models(keys=None) -> list[tuple[str, Model]]:
    bundles = named_bundles()
    names = sorted(bundles) if keys is None else list(keys)
    return [(f"{k}/groupoid",
             parse_model(transport_to_json(groupoid_of_bundle(bundles[k]))))
            for k in names]


def _group_models(names) -> list[tuple[str, Model]]:
    return [(n, parse_model({"kind": "group", "preset": n})) for n in names]


_SMALL = ("edge-s3", "point-s3", "point-z2", "triangle-z1",
          "triangle-z2-trivial", "triangle-z2-twisted", "wedge2-z1",
          "wedge2-z3")


def fixture_models(command: str) -> list[tuple[str, Model]]:
    """The built-in corpus for one command, in a fixed order."""
    if command == "verify":
        bundles = named_bundles()
        action = base_action(groupoid_of_bundle(
            bundles["triangle-z2-twisted"]).groupoid)
        return (_bundle_models()
                + _group_models(["Z1", "S3"])
                + _transport_models(["wedge2-z3"])
                + [("triangle-z2-twisted/base-action",
                    parse_model(action_to_json(action)))])
    if command in ("groupoidify", "roundtrip", "holonomy", "trivial"):
        return _bundle_models()
    if command == "bundleize":
        return _transport_models()
    if command == "orbits":
        bundles = named_bundles()
        out = []
        for k in _SMALL:
            action = base_action(groupoid_of_bundle(bundles[k]).groupoid)
            out.append((f"{k}/base-action",
                        parse_model(action_to_json(action))))
        return out
    if command in ("ambit", "universal", "sections", "semigroup"):
        return _bundle_models(_SMALL)
    if command == "ea":
        return _group_models(["Z1", "Z2", "Z3", "S3", "S4"])
    raise UsageError(f"unknown command {command!r}")


# --- emission ---------------------------------------------------------------------


def emit_report(report: dict, fmt: str = "json") -> str:
    """Render a report; JSON is canonical, text carries the same content."""
    if fmt == "json":
        return canonical_dumps(report)
    lines = [f"command: {report['command']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"error {err['code']}: {err['message']}")
        lines.append("result: error")
        return "\n".join(lines)
    for entry, run in zip(report["inputs"], report["runs"]):
        lines.append(f"input: {entry['name']} sha256:{entry['digest']}")
        for v in run["verdicts"]:
            mark = "ok" if v["ok"] else "FAIL"
            tail = ""
            if not v["ok"] and v["failure"]:
                tail += f": {v['failure']}"
            if v["witness"] is not None:
                tail += f" witness={canonical_dumps(v['witness'])}"
            if v["notes"]:
                tail += f" notes={canonical_dumps(v['notes'])}"
            lines.append(f"  [{mark}] {v['property']}{tail}")
        for key in sorted(run.get("facts", {})):
            lines.append(f"  fact {key}: "
                         f"{canonical_dumps(run['facts'][key])}")
        if "model" in run:
            lines.append(f"  model: {canonical_dumps(run['model'])}")
    lines.append(f"result: {'pass' if report['ok'] else 'fail'}")
    return "\n".join(lines)


# --- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpdflow",
        description="Finite groupoid/bundle toolkit: verify models, "
                    "convert between forms, and report dynamical invariants.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("files", nargs="*",
                        help="JSON model files ('-' reads stdin)")
    parser.add_argument("--basepoint", type=int, default=0,
                        help="object/vertex to base the construction at")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the built-in corpus instead of files")
    return parser


def main(argv=None) -> int:
    """Run the command line; returns the exit code.

    The cyclic garbage collector is paused for the run and the caller's
    setting restored afterwards.  A run is one-shot and its tables are
    acyclic, so reference counting frees them; left on, the collector
    re-scans every list ``json.loads`` has made so far each time a batch
    of new ones arrives, which on a large model costs more than the
    decoding itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.fixtures:
            if ns.files:
                raise UsageError("give files or --fixtures, not both")
            models = fixture_models(ns.command)
        else:
            if not ns.files:
                raise UsageError("no input files (or use --fixtures)")
            models = [(("stdin" if path == "-" else path), load_model(path))
                      for path in ns.files]
        report = run_command(ns.command, models, basepoint=ns.basepoint)
    except ModelError as exc:
        report = {"command": ns.command, "ok": False,
                  "error": {"code": exc.code, "message": exc.message}}
        return _write(emit_report(report, ns.format), 2)
    except UsageError as exc:
        report = {"command": ns.command, "ok": False,
                  "error": {"code": USAGE_ERROR, "message": str(exc)}}
        return _write(emit_report(report, ns.format), 2)
    return _write(emit_report(report, ns.format), 0 if report["ok"] else 1)


def _write(text: str, code: int) -> int:
    """Print the report and return the run's exit code.  A reader that
    closed the pipe early (``gpdflow ... | head``) gets no traceback:
    stdout is pointed at devnull, so the interpreter's final flush cannot
    raise again, and the code is the one the run had."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
