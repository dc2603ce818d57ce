"""JSON model files: loading with precise errors, and canonical emission.

Every model is a JSON object with a ``"kind"`` tag.  Loading validates
shapes and index ranges only; whether the data satisfies its axioms is the
verify operations' business, so a malformed table loads fine and then
fails verification with a witness.  Emission is canonical: sorted keys and
no whitespace, so equal models produce equal bytes.

Load failures carry one of three codes: 10 for unreadable JSON, 11 for a
missing or unknown kind, 12 for a shape or index-range problem.

Every integer table (``comp``, ``act``, ``src``, ``tgt``, ``unit``,
``inv``, ``anchor``, ``labels``, ``edges``, the rows of ``mult`` and
``connection``) is checked by one helper in a few whole-table passes: the
rows' types and lengths, their entries' types (exactly ``int``, so
``true`` is refused), one conversion to an int64 array and a min/max
range check.  Only when that fails does the per-element scanner run, to
name the first bad entry with the same code, path and message.  The
``comp`` and ``act`` arrays are handed to the first build
(:attr:`Model.tables`), which takes them, so each table is converted once.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .algebra import FiniteGroup, PRESET_NAMES, preset_group, verify_group
from .bundle import BaseGraph, CocycleBundle, verify_cocycle
from .diagnostics import Diagnostics
from .dynamics import Ambit, GroupoidAction
from .ehresmann import Connection, TransportGroupoid
from .groupoid import Groupoid

__all__ = [
    "ModelError",
    "Model",
    "PARSE_ERROR",
    "UNKNOWN_KIND",
    "BAD_INDEX",
    "KNOWN_KINDS",
    "canonical_dumps",
    "model_digest",
    "load_model",
    "parse_model",
    "group_to_json",
    "graph_to_json",
    "bundle_to_json",
    "groupoid_to_json",
    "transport_to_json",
    "action_to_json",
    "ambit_to_json",
    "build_group",
    "build_graph",
    "build_bundle",
    "build_groupoid",
    "build_action",
]

PARSE_ERROR = 10
UNKNOWN_KIND = 11
BAD_INDEX = 12

KNOWN_KINDS = ("group", "graph", "bundle", "groupoid", "action")


class ModelError(Exception):
    """A model file that cannot be used, with a machine-readable code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Model:
    """A validated model file: the kind tag, the raw payload, and the
    validated ``comp`` / ``act`` tables as arrays, which the first build
    takes (see :func:`build_groupoid`)."""

    kind: str
    data: dict
    tables: dict = field(default_factory=dict)


def _coerce(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no stray whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_coerce)


def model_digest(model: dict) -> str:
    """sha256 of the canonical encoding, for input fingerprints."""
    return hashlib.sha256(canonical_dumps(model).encode()).hexdigest()


# --- validation helpers -------------------------------------------------------


def _need(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ModelError(BAD_INDEX, f"{where}: missing field {key!r}")
    return data[key]


def _int_in(value: Any, low: int, high: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(BAD_INDEX, f"{where}: expected an integer, got {value!r}")
    if not (low <= value < high):
        raise ModelError(
            BAD_INDEX, f"{where}: {value} outside range [{low}, {high})")
    return value


def _scan(value: Any, length: int, high: int, where: str) -> None:
    """The per-element check of a list of ``length`` integers in
    ``[0, high)``: raises for the first bad entry."""
    if not isinstance(value, list) or len(value) != length:
        raise ModelError(
            BAD_INDEX, f"{where}: expected a list of {length} integers")
    for i, v in enumerate(value):
        _int_in(v, 0, high, f"{where}[{i}]")


def _int_table(rows: list, width: int, high: Any,
               scan: Callable[[], Any]) -> np.ndarray:
    """The rows, each a list of ``width`` integers in ``[0, high)``
    (``high`` may give one bound per column), as one int64 array.

    The fast check reads the types and lengths of the rows and the types
    of their entries (exactly ``int``: numpy would read ``True`` as 1),
    converts once and compares min and max with the bounds.  Only when it
    fails does ``scan``, the per-element check, run to raise the error of
    the first bad entry.
    """
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        scan()  # raises, unless the entries are int subclasses
    try:
        arr = np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                          len(rows) * width).reshape(len(rows), width)
    except OverflowError:  # beyond int64, so out of range
        arr = None
    if arr is None or (arr.size and not (
            arr.min() >= 0 and bool((arr.max(axis=0) < high).all()))):
        scan()
    return arr


def _int_list(value: Any, length: int, high: int, where: str) -> None:
    """Check a list of ``length`` integers in ``[0, high)``."""
    _int_table([value], length, high, lambda: _scan(value, length, high, where))


def _int_rows(rows: list, width: int, high: int, where: str) -> np.ndarray:
    """A list of rows of ``width`` integers in ``[0, high)``, as an array."""
    return _int_table(rows, width, high, lambda: [
        _scan(row, width, high, f"{where}[{i}]") for i, row in enumerate(rows)])


def _validate_group(data: dict, where: str = "group") -> None:
    if "preset" in data:
        if data["preset"] not in PRESET_NAMES:
            raise ModelError(BAD_INDEX,
                             f"{where}: unknown preset {data['preset']!r}")
        return
    order = _int_in(_need(data, "order", where), 1, 1 << 30, f"{where}.order")
    _int_in(_need(data, "identity", where), 0, order, f"{where}.identity")
    mult = _need(data, "mult", where)
    if not isinstance(mult, list) or len(mult) != order:
        raise ModelError(BAD_INDEX, f"{where}.mult: expected {order} rows")
    _int_rows(mult, order, order, f"{where}.mult")


def _validate_graph(data: dict, where: str = "graph") -> None:
    vertices = _int_in(_need(data, "vertices", where), 1, 1 << 30,
                       f"{where}.vertices")
    edges = _need(data, "edges", where)
    if not isinstance(edges, list):
        raise ModelError(BAD_INDEX, f"{where}.edges: expected a list")
    _int_rows(edges, 2, vertices, f"{where}.edges")


def _group_order(data: dict) -> int:
    return preset_group(data["preset"]).order if "preset" in data \
        else data["order"]


def _validate_bundle(data: dict) -> None:
    graph = _need(data, "graph", "bundle")
    _validate_graph(graph, "bundle.graph")
    group = _need(data, "group", "bundle")
    _validate_group(group, "bundle.group")
    order = _group_order(group)
    labels = _need(data, "labels", "bundle")
    n_edges = len(graph["edges"])
    if not isinstance(labels, list) or len(labels) != n_edges:
        got = len(labels) if isinstance(labels, (list, dict, str)) \
            else repr(labels)
        raise ModelError(BAD_INDEX, f"bundle.labels: expected one label per "
                         f"edge ({n_edges}), got {got}")

    def scan() -> None:
        for e, g in enumerate(labels):
            if not isinstance(g, int) or isinstance(g, bool) \
                    or not (0 <= g < order):
                raise ModelError(BAD_INDEX,
                                 f"bundle.labels[{e}]: label {g!r} out of "
                                 f"range for group order {order} (edge {e})")
    _int_table([labels], n_edges, order, scan)


def _validate_groupoid(data: dict, where: str = "groupoid") -> dict:
    """Check a groupoid's fields; returns ``{"comp": array}``."""
    objects = _int_in(_need(data, "objects", where), 0, 1 << 30,
                      f"{where}.objects")
    arrows = _int_in(_need(data, "arrows", where), 0, 1 << 30,
                     f"{where}.arrows")
    for key in ("src", "tgt"):
        _int_list(_need(data, key, where), arrows, objects, f"{where}.{key}")
    _int_list(_need(data, "unit", where), objects, arrows, f"{where}.unit")
    _int_list(_need(data, "inv", where), arrows, arrows, f"{where}.inv")
    comp = _need(data, "comp", where)
    if not isinstance(comp, list):
        raise ModelError(BAD_INDEX, f"{where}.comp: expected a list")
    tables = {"comp": _int_rows(comp, 3, arrows, f"{where}.comp")}
    if "connection" in data:
        pairs = data["connection"]
        if not isinstance(pairs, list) or len(pairs) % 2 != 0:
            raise ModelError(
                BAD_INDEX, f"{where}.connection: expected an even-length list")

        def scan() -> None:
            for i, pair in enumerate(pairs):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ModelError(
                        BAD_INDEX,
                        f"{where}.connection[{i}]: expected [dart, arrow]")
                _int_in(pair[0], 0, len(pairs), f"{where}.connection[{i}]")
                _int_in(pair[1], 0, arrows, f"{where}.connection[{i}]")
        darts = _int_table(pairs, 2, (len(pairs), arrows), scan)[:, 0]
        if bool((np.bincount(darts, minlength=len(pairs)) != 1).any()):
            raise ModelError(
                BAD_INDEX, f"{where}.connection: darts must cover "
                f"0..{len(pairs) - 1} exactly once")
        if objects == 0:
            raise ModelError(
                BAD_INDEX, f"{where}.connection: a connection needs at least "
                "one object")
    return tables


def _validate_action(data: dict) -> dict:
    """Check an action's fields; returns its ``comp`` and ``act`` arrays
    by name."""
    groupoid = _need(data, "groupoid", "action")
    tables = _validate_groupoid(groupoid, "action.groupoid")
    arrows = groupoid["arrows"]
    space = _int_in(_need(data, "space", "action"), 0, 1 << 30, "action.space")
    _int_list(_need(data, "anchor", "action"), space, groupoid["objects"],
              "action.anchor")
    act = _need(data, "act", "action")
    if not isinstance(act, list):
        raise ModelError(BAD_INDEX, "action.act: expected a list")

    def scan() -> None:
        for i, triple in enumerate(act):
            if not isinstance(triple, list) or len(triple) != 3:
                raise ModelError(BAD_INDEX,
                                 f"action.act[{i}]: expected [y, g, yg]")
            _int_in(triple[0], 0, space, f"action.act[{i}][0]")
            _int_in(triple[1], 0, arrows, f"action.act[{i}][1]")
            _int_in(triple[2], 0, space, f"action.act[{i}][2]")
    tables["act"] = _int_table(act, 3, (space, arrows, space), scan)
    if "basepoint" in data:
        _int_in(data["basepoint"], 0, groupoid["objects"], "action.basepoint")
    if "u0" in data:
        _int_in(data["u0"], 0, arrows, "action.u0")
    return tables


_VALIDATORS = {
    "group": _validate_group,
    "graph": _validate_graph,
    "bundle": _validate_bundle,
    "groupoid": _validate_groupoid,
    "action": _validate_action,
}


def parse_model(data: Any) -> Model:
    """Validate a decoded JSON object as a model.

    Report envelopes are unwrapped so command output can be piped straight
    back in: a ``{"model": ...}`` wrapper, or a full report whose first
    run carries a constructed model under ``runs[i].model``.
    """
    if isinstance(data, dict) and "kind" not in data:
        if "model" in data:
            data = data["model"]
        elif isinstance(data.get("runs"), list):
            for run in data["runs"]:
                if isinstance(run, dict) and "model" in run:
                    data = run["model"]
                    break
    if not isinstance(data, dict):
        raise ModelError(UNKNOWN_KIND, "model must be a JSON object")
    kind = data.get("kind")
    if kind not in KNOWN_KINDS:
        raise ModelError(UNKNOWN_KIND, f"unknown kind {kind!r}")
    return Model(kind=kind, data=data, tables=_VALIDATORS[kind](data) or {})


def load_model(path: str) -> Model:
    """Read a model from a file path, or from stdin when path is '-'."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ModelError(PARSE_ERROR, f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(PARSE_ERROR, f"{path}: invalid JSON: {exc}") from exc
    del text  # not held while the tables are validated
    return parse_model(data)


# --- emission -----------------------------------------------------------------


def group_to_json(grp: FiniteGroup) -> dict:
    out = {"kind": "group", "order": grp.order, "identity": grp.identity,
           "mult": [list(row) for row in grp.mult]}
    if grp.name:
        out["name"] = grp.name
    return out


def graph_to_json(graph: BaseGraph) -> dict:
    return {"kind": "graph", "vertices": graph.n_vertices,
            "edges": [list(e) for e in graph.edges]}


def bundle_to_json(b: CocycleBundle) -> dict:
    return {"kind": "bundle",
            "graph": {"vertices": b.base.n_vertices,
                      "edges": [list(e) for e in b.base.edges]},
            "group": {key: val for key, val in group_to_json(b.group).items()
                      if key != "kind"},
            "labels": b.edge_labels()}


def groupoid_to_json(gpd: Groupoid) -> dict:
    return {"kind": "groupoid",
            "objects": gpd.n_objects,
            "arrows": gpd.n_arrows,
            "src": [int(x) for x in gpd.src],
            "tgt": [int(x) for x in gpd.tgt],
            "unit": [int(x) for x in gpd.unit],
            "inv": [int(x) for x in gpd.inv],
            "comp": gpd.comp_triples()}


def transport_to_json(tg: TransportGroupoid) -> dict:
    out = groupoid_to_json(tg.groupoid)
    out["connection"] = [[d, int(a)] for d, a in enumerate(tg.connection.arrows)]
    out["coords"] = [{"arrow": i, "coord": list(c)}
                     for i, c in enumerate(tg.coords)]
    return out


def action_to_json(a: GroupoidAction) -> dict:
    return {"kind": "action",
            "groupoid": groupoid_to_json(a.gpd),
            "space": a.n_points,
            "anchor": a.anchor.tolist(),
            "act": a.triples()}


def ambit_to_json(ambit: Ambit) -> dict:
    out = action_to_json(ambit.action)
    out["basepoint"] = ambit.basepoint
    out["u0"] = ambit.points[ambit.u0]
    out["points"] = list(ambit.points)
    return out


# --- building domain objects ----------------------------------------------------


def build_group(model_data: dict) -> tuple[Diagnostics, Optional[FiniteGroup]]:
    """Turn validated group data into a FiniteGroup, or a failed diagnosis
    when the table breaks the axioms."""
    if "preset" in model_data:
        grp = preset_group(model_data["preset"])
        return Diagnostics.passed(order=grp.order, preset=model_data["preset"]), grp
    return verify_group(model_data["mult"], model_data["identity"],
                        name=model_data.get("name", ""))


def build_graph(model_data: dict) -> BaseGraph:
    return BaseGraph(model_data["vertices"],
                     tuple((e[0], e[1]) for e in model_data["edges"]))


def build_bundle(model_data: dict
                 ) -> tuple[Diagnostics, Optional[CocycleBundle]]:
    diag, grp = build_group(model_data["group"])
    if grp is None:
        return diag, None
    bundle = CocycleBundle.from_edge_labels(build_graph(model_data["graph"]),
                                            grp, model_data["labels"])
    return verify_cocycle(bundle), bundle


def _take(tables: Optional[dict], model_data: dict, key: str) -> Any:
    """The validated array of a table, removed from ``tables`` so that it is
    not held past the build, or else the list in the payload."""
    arr = tables.pop(key, None) if tables else None
    return model_data[key] if arr is None else arr


def build_groupoid(model_data: dict, tables: Optional[dict] = None
                   ) -> tuple[Groupoid, Optional[Connection]]:
    """Assemble the groupoid, from the ``comp`` array in ``tables``
    (:attr:`Model.tables`) when it is there; when a connection is present,
    recover the base graph from it (edge i spans the sources of darts 2i
    and 2i+1)."""
    gpd = Groupoid.from_tables(
        model_data["objects"], model_data["src"], model_data["tgt"],
        model_data["unit"], model_data["inv"],
        _take(tables, model_data, "comp"))
    conn = None
    if "connection" in model_data:
        arrows = [0] * len(model_data["connection"])
        for dart, arrow in model_data["connection"]:
            arrows[dart] = arrow
        edges = tuple((int(gpd.src[arrows[2 * e]]), int(gpd.src[arrows[2 * e + 1]]))
                      for e in range(len(arrows) // 2))
        conn = Connection(base=BaseGraph(gpd.n_objects, edges), arrows=arrows)
    return gpd, conn


def build_action(model_data: dict, tables: Optional[dict] = None
                 ) -> tuple[GroupoidAction, dict]:
    """Assemble the action plus any ambit extras (basepoint, u0), from the
    ``comp`` and ``act`` arrays in ``tables`` when they are there."""
    gpd, _ = build_groupoid(model_data["groupoid"], tables)
    action = GroupoidAction.from_triples(gpd, model_data["space"],
                                         model_data["anchor"],
                                         _take(tables, model_data, "act"))
    extras = {key: model_data[key] for key in ("basepoint", "u0")
              if key in model_data}
    return action, extras
