"""Batch front door: load JSON models, run a construction or check, report.

One command per invocation.  Reports are emitted as canonical JSON (sorted
keys, no whitespace variance) or as plain text carrying the same
information; identical inputs always produce identical bytes.  Exit codes:
0 when every checked property holds (questions like ``trivial`` and ``ea``
count as answered either way), 1 when a checked property fails (the report
carries a witness), 2 for usage or input errors.  Every failure, a command
line that does not parse included, is a canonical report on stdout; only
``--help`` prints usage instead.

One table, ``_COMMANDS``, maps each command to its runner and the input
kinds it takes; a model of another kind is a usage error.  A runner appends
its verdicts and returns its facts, plus the model it emits when it has
one.  When a verdict the rest of a run needs fails, the run stops there
with empty facts; every run is assembled in one place.  Runners call the
layer functions through this module's globals, where a tracer can wrap
them.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from .amenability import extreme_amenability_check, invariant_sections
from .bundle import CocycleBundle, dart_labels, holonomy_group, is_trivial, \
    verify_cocycle
from .diagnostics import Diagnostics
from .dynamics import GroupoidAction, base_action, build_ambit, \
    enumerate_equivariant_maps, fiber_semigroup, orbits, verify_action
from .ehresmann import bundle_of_groupoid, groupoid_of_bundle, \
    roundtrip_bundle, verify_connection
from .fixtures import named_bundles
from .groupoid import Groupoid, check_local_triviality, is_transitive, \
    verify_groupoid
from .serialize import KNOWN_KINDS, Model, ModelError, action_to_json, \
    ambit_to_json, build_action, build_graph, build_group, build_groupoid, \
    bundle_to_json, canonical_dumps, canonical_pieces, load_model, \
    parse_model, transport_to_json

__all__ = ["COMMANDS", "USAGE_ERROR", "run_command", "emit_report", "main"]

USAGE_ERROR = 2


class UsageError(ModelError):
    """A command line that does not parse or names no input to run on, or a
    well-formed model that the requested command cannot act on."""

    def __init__(self, message: str):
        super().__init__(USAGE_ERROR, message)


class _Stop(Exception):
    """A verdict the rest of the run depends on has failed."""


# --- verdicts and sources ---------------------------------------------------------


def _verdict(prop: str, diag: Diagnostics) -> dict:
    return {"property": prop, "ok": bool(diag.ok), "failure": diag.failure,
            "witness": list(diag.witness) if diag.witness is not None else None,
            "notes": diag.notes}


def _plain(prop: str, ok: bool, witness=None,
           failure: Optional[str] = None) -> dict:
    failure = None if ok else failure or prop
    return _verdict(prop, Diagnostics(ok, failure, witness))


def _gate(verdicts: list[dict], verdict: dict) -> None:
    """Append a verdict the rest of the run needs; when it fails, the run
    stops there with no facts."""
    verdicts.append(verdict)
    if not verdict["ok"]:
        raise _Stop


def _check_basepoint(basepoint: int, n: int, what: str) -> None:
    if not (0 <= basepoint < n):
        raise UsageError(f"basepoint {basepoint} out of range for {n} {what}")


def _bundle(model: Model, verdicts: list[dict]) -> CocycleBundle:
    """A bundle input: group axioms, then the cocycle."""
    gdiag, grp = build_group(model.data["group"])
    _gate(verdicts, _verdict("group axioms", gdiag))
    diag, bundle = verify_cocycle(build_graph(model.data["graph"]), grp,
                                  dart_labels(grp, model.data["labels"]))
    _gate(verdicts, _verdict("dart cocycle", diag))
    return bundle


def _transitive(model: Model, verdicts: list[dict], basepoint: int
                ) -> tuple[Groupoid, Optional[GroupoidAction]]:
    """A bundle, groupoid or action input -> (groupoid, the action or None).

    A bundle passes through groupoid_of_bundle; a groupoid or an action has
    its axioms verified.  Either way the groupoid must be transitive, as
    every ambit construction needs, and hold the basepoint.
    """
    action = None
    if model.kind == "bundle":
        gpd = groupoid_of_bundle(_bundle(model, verdicts)).groupoid
    elif model.kind == "groupoid":
        gpd, _ = build_groupoid(model.data)
        _gate(verdicts, _verdict("groupoid axioms", verify_groupoid(gpd)))
    else:
        action = build_action(model.data)
        _gate(verdicts, _verdict("groupoid action axioms",
                                 verify_action(action)))
        gpd = action.gpd
    ok, witness = is_transitive(gpd)
    _gate(verdicts, _plain("transitive", ok,
                           witness=list(witness) if witness else None,
                           failure="no arrow between a pair of objects"))
    _check_basepoint(basepoint, gpd.n_objects, "objects")
    return gpd, action


# --- command runners --------------------------------------------------------------
#
# A runner gets a model of a kind its command accepts, appends its verdicts
# and returns (facts, the emitted model or None).


def _run_verify(model: Model, basepoint: int, verdicts: list[dict]):
    if model.kind == "group":
        diag, grp = build_group(model.data)
        _gate(verdicts, _verdict("group axioms", diag))
        return {"order": grp.order}, None
    if model.kind == "graph":
        graph = build_graph(model.data)
        verdicts.append(_plain("graph shape", True))
        return {"vertices": graph.n_vertices, "edges": graph.n_edges,
                "connected": graph.is_connected()}, None
    if model.kind == "bundle":
        bundle = _bundle(model, verdicts)
        return {"vertices": bundle.base.n_vertices,
                "edges": bundle.base.n_edges,
                "group_order": bundle.group.order}, None
    if model.kind == "groupoid":
        gpd, conn = build_groupoid(model.data)
        verdicts.append(_verdict("groupoid axioms", verify_groupoid(gpd)))
        facts = {"objects": gpd.n_objects, "arrows": gpd.n_arrows}
        if verdicts[-1]["ok"]:
            facts["transitive"], _ = is_transitive(gpd)
            facts["locally_trivial"] = check_local_triviality(gpd).trivial
            if conn is not None:
                verdicts.append(_verdict("connection transport",
                                         verify_connection(gpd, conn)))
        return facts, None
    action = build_action(model.data)
    verdicts.append(_verdict("groupoid action axioms", verify_action(action)))
    facts = {"space": action.n_points}
    if verdicts[-1]["ok"]:
        facts["orbits"] = len(orbits(action))
    return facts, None


def _run_groupoidify(model: Model, basepoint: int, verdicts: list[dict]):
    bundle = _bundle(model, verdicts)
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
    return ({"objects": gpd.n_objects, "arrows": gpd.n_arrows},
            transport_to_json(tg))


def _run_bundleize(model: Model, basepoint: int, verdicts: list[dict]):
    gpd, conn = build_groupoid(model.data)
    if conn is None:
        raise UsageError("bundleize needs a groupoid model with a connection")
    _gate(verdicts, _verdict("groupoid axioms", verify_groupoid(gpd)))
    _gate(verdicts, _verdict("connection transport",
                             verify_connection(gpd, conn)))
    _check_basepoint(basepoint, gpd.n_objects, "objects")
    rec = bundle_of_groupoid(gpd, conn, basepoint)  # built, so a cocycle
    verdicts.append(_verdict("dart cocycle", Diagnostics.passed(
        vertices=conn.base.n_vertices, edges=conn.base.n_edges)))
    return ({"basepoint": basepoint, "references": rec.references},
            bundle_to_json(rec.bundle))


def _run_roundtrip(model: Model, basepoint: int, verdicts: list[dict]):
    bundle = _bundle(model, verdicts)
    _check_basepoint(basepoint, bundle.base.n_vertices, "vertices")
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
    return ({"basepoint": basepoint, "witness_gauge": rt.witness_gauge,
             "conjugator": rt.conjugator,
             "holonomy_original": before.holonomy,
             "holonomy_reconstructed": after.holonomy},
            bundle_to_json(rt.reconstructed.bundle))


def _run_holonomy(model: Model, basepoint: int, verdicts: list[dict]):
    bundle = _bundle(model, verdicts)
    _check_basepoint(basepoint, bundle.base.n_vertices, "vertices")
    hol = holonomy_group(bundle, basepoint)
    return {"basepoint": basepoint,
            "subgroup": hol.subgroup,
            "order": len(hol.subgroup),
            "cycles": [{"edge": c.edge, "dart": c.dart,
                        "element": c.element, "darts": c.darts}
                       for c in hol.cycles]}, None


def _run_trivial(model: Model, basepoint: int, verdicts: list[dict]):
    bundle = _bundle(model, verdicts)
    _check_basepoint(basepoint, bundle.base.n_vertices, "vertices")
    rep = is_trivial(bundle, basepoint)
    return {"trivial": rep.trivial,
            "by_labels": rep.by_labels,
            "by_section": rep.by_section,
            "section": rep.section,
            "holonomy": rep.holonomy,
            "witness_cycles": [
                {"edge": c.edge, "element": c.element, "darts": c.darts}
                for c in rep.cycles
                if c.element != bundle.group.identity]}, None


def _run_orbits(model: Model, basepoint: int, verdicts: list[dict]):
    action = build_action(model.data)
    _gate(verdicts, _verdict("groupoid action axioms", verify_action(action)))
    parts = orbits(action)
    return {"orbits": parts, "count": len(parts)}, None


def _run_ambit(model: Model, basepoint: int, verdicts: list[dict]):
    gpd, _ = _transitive(model, verdicts, basepoint)
    ambit = build_ambit(gpd, basepoint)
    verdicts.append(_verdict("groupoid action axioms", verify_action(ambit.action)))
    return ({"basepoint": basepoint,
             "space": ambit.action.n_points,
             "u0_arrow": ambit.points[ambit.u0],
             "fiber": [ambit.points[y] for y in ambit.fiber_points()]},
            ambit_to_json(ambit))


def _run_universal(model: Model, basepoint: int, verdicts: list[dict]):
    """Enumerate the equivariant maps out of the ambit: into the given
    action when the input is one, into the ambit itself otherwise."""
    gpd, action = _transitive(model, verdicts, basepoint)
    ambit = build_ambit(gpd, basepoint)
    target = ambit.action if action is None else action
    maps = enumerate_equivariant_maps(ambit, target)
    fiber = target.fiber(ambit.basepoint)
    verdicts.append(_plain("one equivariant map per fiber point",
                           len(maps) == len(fiber),
                           witness=[len(maps), len(fiber)]))
    return {"basepoint": basepoint,
            "count": len(maps),
            "maps": [{"fiber_point": m.values[ambit.u0],
                      "values": m.values} for m in maps]}, None


def _run_sections(model: Model, basepoint: int, verdicts: list[dict]):
    gpd, action = _transitive(model, verdicts, basepoint)
    if action is None:
        action = build_ambit(gpd, basepoint).action
    secs = invariant_sections(action, basepoint)
    return {"basepoint": basepoint,
            "count": len(secs),
            "sections": [s.values for s in secs],
            "fixed_fiber_points": [s.fixed_point for s in secs]}, None


def _run_semigroup(model: Model, basepoint: int, verdicts: list[dict]):
    gpd, _ = _transitive(model, verdicts, basepoint)
    ambit = build_ambit(gpd, basepoint)
    fs = fiber_semigroup(ambit)
    verdicts.append(_verdict("fiber table is a group", fs.verdict))
    verdicts.append(_plain("isomorphic to the vertex group", True,
                           witness=fs.vertex_iso))
    verdicts.append(_plain("unit is the only idempotent",
                           fs.idempotents == [ambit.u0],
                           witness=fs.idempotents))
    return {"basepoint": basepoint,
            "fiber": fs.fiber,
            "table": fs.table,
            "idempotents": fs.idempotents,
            "left_ideals": fs.left_ideals,
            "vertex_iso": fs.vertex_iso}, None


def _run_ea(model: Model, basepoint: int, verdicts: list[dict]):
    diag, grp = build_group(model.data)
    _gate(verdicts, _verdict("group axioms", diag))
    rep = extreme_amenability_check(grp)
    cert = rep.certificate
    verdicts.append(_plain(
        "translation certificate consistent",
        cert.free and bool(cert.fixed) == (cert.order == 1),
        witness=cert.fixed))
    return {"extremely_amenable": rep.extremely_amenable,
            "order": cert.order,
            "fixed": cert.fixed,
            "free": cert.free,
            "table": cert.table}, None


_AMBIT_KINDS = ("bundle", "groupoid")

# command -> (runner, the input kinds its usage error names, other kinds it
# takes).  universal and sections also take an action, as the target of the
# maps or the action whose sections are counted; the ambit they build still
# comes from a bundle or a groupoid.
_COMMANDS = {
    "verify": (_run_verify, KNOWN_KINDS, ()),
    "groupoidify": (_run_groupoidify, ("bundle",), ()),
    "bundleize": (_run_bundleize, ("groupoid",), ()),
    "roundtrip": (_run_roundtrip, ("bundle",), ()),
    "holonomy": (_run_holonomy, ("bundle",), ()),
    "trivial": (_run_trivial, ("bundle",), ()),
    "orbits": (_run_orbits, ("action",), ()),
    "ambit": (_run_ambit, _AMBIT_KINDS, ()),
    "universal": (_run_universal, _AMBIT_KINDS, ("action",)),
    "sections": (_run_sections, _AMBIT_KINDS, ("action",)),
    "semigroup": (_run_semigroup, _AMBIT_KINDS, ()),
    "ea": (_run_ea, ("group",), ()),
}
COMMANDS = tuple(_COMMANDS)


def _run(command: str, name: str, model: Model, basepoint: int) -> dict:
    runner, kinds, others = _COMMANDS[command]
    if model.kind not in kinds + others:
        article = "an" if kinds[0][0] in "aeiou" else "a"
        raise UsageError(f"{command} needs {article} {' or '.join(kinds)} "
                         f"model, got {model.kind}")
    verdicts: list[dict] = []
    try:
        facts, emitted = runner(model, basepoint, verdicts)
    except _Stop:
        facts, emitted = {}, None
    run = {"input": name, "verdicts": verdicts, "facts": facts}
    if emitted is not None:
        run["model"] = emitted
    return run


def run_command(command: str, models: list[tuple[str, Model]],
                basepoint: int = 0) -> dict:
    """Run one command over the named models and assemble the report."""
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    runs = [_run(command, name, model, basepoint) for name, model in models]
    ok = all(v["ok"] for run in runs for v in run["verdicts"])
    return {"command": command,
            "inputs": [{"name": name, "digest": model.digest}
                       for name, model in models],
            "runs": runs,
            "ok": ok}


# --- the built-in corpus ----------------------------------------------------------


def _bundle_models(keys=None, suffix: str = "",
                   to_json=bundle_to_json) -> list[tuple[str, Model]]:
    """Named bundles (all, sorted, by default), each put through
    ``to_json`` and named by its key and ``suffix``."""
    bundles = named_bundles()
    return [(k + suffix, parse_model(to_json(bundles[k])))
            for k in (sorted(bundles) if keys is None else keys)]


def _transport(bundle: CocycleBundle) -> dict:
    return transport_to_json(groupoid_of_bundle(bundle))


def _base_action(bundle: CocycleBundle) -> dict:
    return action_to_json(base_action(groupoid_of_bundle(bundle).groupoid))


def _group_models(names) -> list[tuple[str, Model]]:
    return [(n, parse_model({"kind": "group", "preset": n})) for n in names]


_SMALL = ("edge-s3", "point-s3", "point-z2", "triangle-z1",
          "triangle-z2-trivial", "triangle-z2-twisted", "wedge2-z1",
          "wedge2-z3")


def fixture_models(command: str) -> list[tuple[str, Model]]:
    """The built-in corpus for one command, in a fixed order."""
    if command == "verify":
        return (_bundle_models()
                + _group_models(["Z1", "S3"])
                + _bundle_models(["wedge2-z3"], "/groupoid", _transport)
                + _bundle_models(["triangle-z2-twisted"], "/base-action",
                                 _base_action))
    if command in ("groupoidify", "roundtrip", "holonomy", "trivial"):
        return _bundle_models()
    if command == "bundleize":
        return _bundle_models(None, "/groupoid", _transport)
    if command == "orbits":
        return _bundle_models(_SMALL, "/base-action", _base_action)
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


class _Parser(argparse.ArgumentParser):
    """A parser whose every failure is a usage error, reported like any
    other instead of as usage text on stderr, its message cut to 200
    characters however long what was typed."""

    def error(self, message: str):
        raise UsageError(message if len(message) <= 200
                         else message[:197] + "...")


def _basepoint(text: str) -> int:
    """An optional '-' and 1 to 9 digits: read the same whatever the
    interpreter's digit limit, and never echoed back."""
    if re.fullmatch(r"-?[0-9]{1,9}", text) is None:
        raise argparse.ArgumentTypeError("expected an integer of at most "
                                         "9 digits")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpdflow",
        description="Finite groupoid/bundle toolkit: verify models, "
                    "convert between forms, and report dynamical invariants.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("files", nargs="*", default=[],
                        help="JSON model files ('-' reads stdin)")
    parser.add_argument("--basepoint", type=_basepoint, default=0,
                        help="object/vertex to base the construction at")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the built-in corpus instead of files")
    return parser


def main(argv=None) -> int:
    """Run the command line; returns the exit code."""
    command, fmt = None, "json"
    try:
        ns = _build_parser().parse_args(argv)
        command, fmt = ns.command, ns.format
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
        report = {"command": command, "ok": False,
                  "error": {"code": exc.code, "message": exc.message}}
        return _write(report, fmt, 2)
    return _write(report, fmt, 0 if report["ok"] else 1)


def _write(report: dict, fmt: str, code: int) -> int:
    """Print the report, a JSON one piece by piece as it is encoded, and
    return the run's exit code.  It is called once the run is over, so
    nothing is printed before the report is known to be the run's.  A
    reader that closed the pipe early (``gpdflow ... | head``) gets no
    traceback: stdout is pointed at devnull, so the interpreter's final
    flush cannot raise again, and the code is the one the run had."""
    pieces = canonical_pieces(report) if fmt == "json" \
        else [emit_report(report, fmt)]
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
