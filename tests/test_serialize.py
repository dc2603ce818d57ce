"""Model loading: the fast table check against the per-element scanner, and
builds from the validated arrays against builds from the python lists;
canonical emission: the integer-table kernel and the walk around it
against the plain ``json`` encoding.

The oracle for a load error is the scanner itself: ``_int_table`` swapped
for a version that runs only the per-element check must give the same code
and message as the fast path on every seeded single-element mutation.  The
code and message of every case of a wider seeded corpus are pinned in
``golden/load_errors.json``.
"""
import copy
import dataclasses
import errno
import functools
import gc
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gpdflow import groupoid as groupoid_module
from gpdflow import serialize
from gpdflow.algebra import preset_group
from gpdflow.bundle import BaseGraph, CocycleBundle
from gpdflow.cli import COMMANDS, fixture_models, run_command
from gpdflow.dynamics import GroupoidAction, build_ambit
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import large_random_bundle, matrix_bundles, \
    named_bundles
from gpdflow.groupoid import Groupoid, RowTable, pair_groupoid
from gpdflow.serialize import ModelError, ambit_to_json, build_action, \
    build_groupoid, bundle_to_json, canonical_dumps, group_to_json, \
    groupoid_to_json, parse_model, transport_to_json

from test_groupoid import discrete

MUTATIONS = (True, 1.0, "1", None, [1], "short row", "long row", -1,
             "upper bound")


def _lists(model: dict) -> dict:
    """The model as a file decodes, every array a list (to edit in place)."""
    return json.loads(canonical_dumps(model))


def _models() -> dict:
    bundle = named_bundles()["triangle-z2-twisted"]
    tg = groupoid_of_bundle(bundle)
    return {"bundle": bundle_to_json(bundle),
            "groupoid": _lists(transport_to_json(tg)),
            "ambit": _lists(ambit_to_json(build_ambit(tg.groupoid, 0)))}


# table -> (model, path to the table, rows of a fixed width?, upper bound of
# column j); the bound is read from the model before it is mutated
TABLES = {
    "comp": ("groupoid", ("comp",), True, lambda m, j: m["arrows"]),
    "src": ("groupoid", ("src",), False, lambda m, j: m["objects"]),
    "connection": ("groupoid", ("connection",), True,
                   lambda m, j: (len(m["connection"]), m["arrows"])[j]),
    "act": ("ambit", ("act",), True,
            lambda m, j: (m["space"], m["groupoid"]["arrows"], m["space"])[j]),
    "action.groupoid.comp": ("ambit", ("groupoid", "comp"), True,
                             lambda m, j: m["groupoid"]["arrows"]),
    "anchor": ("ambit", ("anchor",), False,
               lambda m, j: m["groupoid"]["objects"]),
    "labels": ("bundle", ("labels",), False,
               lambda m, j: m["group"]["order"]),
    "mult": ("bundle", ("group", "mult"), True,
             lambda m, j: m["group"]["order"]),
    "edges": ("bundle", ("graph", "edges"), True,
              lambda m, j: m["graph"]["vertices"]),
}


def _mutate(model: dict, table: str, mutation, rng: random.Random) -> dict:
    _, path, rows, upper = TABLES[table]
    model = copy.deepcopy(model)
    holder = model
    for key in path:
        holder = holder[key]
    i = rng.randrange(len(holder))
    # a flat list: its entries are the elements and the list is the row
    target, j = (holder[i], rng.randrange(len(holder[i]))) if rows \
        else (holder, i)
    if mutation == "short row":
        if rows:
            holder[i] = target[:-1]
        else:
            del holder[i]
    elif mutation == "long row":
        if rows:
            holder[i] = target + [0]
        else:
            holder.append(0)
    else:
        target[j] = upper(model, j) if mutation == "upper bound" else mutation
    return model


def _scanner_only(rows, width, high, scan):
    scan(rows)
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _load_error(data: dict) -> tuple[int, str]:
    with pytest.raises(ModelError) as err:
        parse_model(data)
    return err.value.code, err.value.message


@pytest.mark.parametrize("table", sorted(TABLES))
def test_fast_check_agrees_with_the_scanner(table, monkeypatch):
    models = _models()
    for mutation in MUTATIONS:
        rng = random.Random(f"{table}:{mutation!r}")
        for _ in range(3):
            data = _mutate(models[TABLES[table][0]], table, mutation, rng)
            fast = _load_error(data)
            with monkeypatch.context() as m:
                m.setattr(serialize, "_int_table", _scanner_only)
                scanned = _load_error(data)
            assert fast == scanned, (table, mutation)
            assert fast[0] == serialize.BAD_INDEX


def _arrays(payload: dict, path=()) -> dict:
    """Every array in a payload, by its path; a row table's ``row_off``
    and ``val`` at its path and the attribute's name."""
    found = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            found[path + (key,)] = value
        elif isinstance(value, RowTable):
            found[path + (key, "row_off")] = value.row_off
            found[path + (key, "val")] = value.val
        elif isinstance(value, dict):
            found.update(_arrays(value, path + (key,)))
    return found


@pytest.mark.parametrize("kind", ["bundle", "groupoid", "ambit"])
def test_fast_check_accepts_what_the_scanner_accepts(kind, monkeypatch):
    data = _models()[kind]
    fast = _arrays(parse_model(data).data)
    monkeypatch.setattr(serialize, "_int_table", _scanner_only)
    scanned = _arrays(parse_model(data).data)
    assert fast.keys() == scanned.keys()
    for key in fast:
        assert np.array_equal(fast[key], scanned[key])


def _holder(model: dict, path: tuple) -> dict:
    for key in path[:-1]:
        model = model[key]
    return model


@pytest.mark.parametrize("table", ["comp", "act", "action.groupoid.comp"])
def test_array_tables_load_like_their_lists(table):
    """A table given as an array loads, or fails with code and message,
    exactly as its ``tolist()`` does: int arrays of several widths (a
    negative entry wraps in the unsigned one), bool and float arrays, in
    range or not."""
    kind, path = TABLES[table][:2]
    for mutation in (None, -1, "upper bound"):
        data = _models()[kind] if mutation is None else \
            _mutate(_models()[kind], table, mutation, random.Random(table))
        table_list = _holder(data, path)[path[-1]]
        for dtype in (np.int64, np.int32, np.uint16, np.float64, bool):
            arr = np.array(table_list, dtype=np.int64).astype(dtype)
            outcomes = []
            for value in (arr, arr.tolist()):
                trial = copy.deepcopy(data)
                _holder(trial, path)[path[-1]] = value
                try:
                    outcomes.append(_arrays(parse_model(trial).data))
                except ModelError as exc:
                    outcomes.append((exc.code, exc.message))
            got, want = outcomes
            if isinstance(want, tuple):
                assert got == want, (table, mutation, dtype)
            else:
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[k], want[k]) for k in got)


def _same_tables(built, plain, where) -> None:
    assert np.array_equal(built.row_off, plain.row_off), where
    assert np.array_equal(built.val, plain.val), where
    assert built.flaw == plain.flaw, where


def _flawed(table: list) -> list:
    """The table with its second entry put on the first entry's pair: a
    duplicate pair and a missing one."""
    table = copy.deepcopy(table)
    table[1][:2] = table[0][:2]
    return table


def _from_lists(data: dict) -> Groupoid:
    """The groupoid built straight from a payload's python lists."""
    return Groupoid.from_tables(data["src"], data["tgt"], data["unit"],
                                data["inv"], data["comp"])


def test_builds_from_arrays_match_builds_from_lists():
    flawed = 0
    for name, bundle in sorted(matrix_bundles().items()):
        tg = groupoid_of_bundle(bundle)
        transport = _lists(transport_to_json(tg))
        ambit = _lists(ambit_to_json(build_ambit(tg.groupoid, 0)))
        broken = dict(transport, comp=_flawed(transport["comp"]))
        for data in (transport, broken):
            model = parse_model(data)
            assert isinstance(model.data["comp"], Groupoid), name
            assert isinstance(data["comp"], list), name  # a copy holds it
            built, _ = build_groupoid(model.data)
            assert built is model.data["comp"], name  # not built again
            plain = _from_lists(data)
            _same_tables(built, plain, name)
            flawed += built.flaw is not None
        if len(ambit["act"]) < 2:
            continue
        for data in (ambit, dict(ambit, act=_flawed(ambit["act"]))):
            model = parse_model(data)
            assert isinstance(model.data["act"], GroupoidAction), name
            assert model.data["act"].gpd is model.data["groupoid"]["comp"]
            assert isinstance(data["act"], list), name
            assert isinstance(data["groupoid"]["comp"], list), name
            built = build_action(model.data)
            assert built is model.data["act"], name
            plain = GroupoidAction.from_triples(
                _from_lists(data["groupoid"]), data["anchor"], data["act"])
            _same_tables(built, plain, name)
            _same_tables(built.gpd, plain.gpd, name)
            flawed += built.flaw is not None
    assert flawed >= 30


def test_an_act_table_over_a_flawed_groupoid_is_checked_whole():
    """No entry of an action table is placed over a groupoid whose table
    has a flaw, yet each of its entries is checked: a value out of range
    in its last row is the load error, with the table given as a list, an
    array, a span of the canonical text or a row table; the clean table
    gives the same model from each."""
    ambit = _models()["ambit"]
    clean = parse_model(ambit).data["act"]
    ambit["groupoid"]["comp"] = _flawed(ambit["groupoid"]["comp"])
    assert parse_model(ambit).data["groupoid"]["comp"].flaw is not None
    last, space = len(ambit["act"]) - 1, ambit["space"]

    def sources(act: list, table: GroupoidAction) -> list[dict]:
        spanned, _ = serialize._span_json(
            canonical_dumps(dict(ambit, act=act)).encode())
        assert isinstance(spanned["act"], serialize._Span)
        return [dict(ambit, act=act), dict(ambit, act=np.array(act)),
                spanned, dict(ambit, act=table)]

    models = [parse_model(data) for data in sources(ambit["act"], clean)]
    assert len({(canonical_dumps(model.data), model.digest,
                 model.data["act"].val.tobytes(),
                 repr(model.data["act"].flaw)) for model in models}) == 1
    act = copy.deepcopy(ambit["act"])
    act[last][2] = space
    table = dataclasses.replace(clean, val=clean.val.copy())
    table.val[-1] = space
    for data in sources(act, table):
        assert _load_error(data) == (
            serialize.BAD_INDEX, f"action.act[{last}][2]: {space} outside "
            f"range [0, {space})")


# --- load errors, pinned ----------------------------------------------------------------


LOAD_ERRORS = Path(__file__).parent / "golden" / "load_errors.json"
FIELD_VALUES = (None, True, 1.0, "1", [], {}, -1, 2 ** 70)


def _corpus_models() -> dict[str, dict]:
    """A group as a table and as a preset, a graph, a bundle with each
    kind of group, a groupoid with a connection and an ambit (an action
    with a basepoint and ``u0``), without the fields no validator reads."""
    bundle = CocycleBundle.from_edge_labels(BaseGraph.path(2),
                                            preset_group("Z2"), [1])
    tg = groupoid_of_bundle(bundle)
    groupoid = {k: v for k, v in _lists(transport_to_json(tg)).items()
                if k != "coords"}
    ambit = {k: v for k, v in _lists(ambit_to_json(
        build_ambit(tg.groupoid, 0))).items() if k != "points"}
    bundle = bundle_to_json(bundle)
    return {"group": group_to_json(preset_group("Z3")),
            "preset": {"kind": "group", "preset": "S3"},
            "graph": {"kind": "graph", "vertices": 3,
                      "edges": [[0, 1], [1, 2], [2, 0]]},
            "bundle": bundle,
            "bundle-preset": dict(bundle, group={"preset": "Z2"}),
            "groupoid": groupoid, "ambit": ambit}


def _paths(value, path=()):
    """Every field's path, and the paths of a few seeded entries of every
    list (all of a short one)."""
    if isinstance(value, dict):
        picks = list(value)
    elif isinstance(value, list):
        rng = random.Random(repr(path))
        picks = range(len(value)) if len(value) <= 3 else sorted(
            {0, len(value) - 1, rng.randrange(len(value))})
    else:
        return
    for key in picks:
        yield path + (key,)
        yield from _paths(value[key], path + (key,))


def _sizes(value) -> set:
    """The integers held in fields, and the lengths of the lists there:
    every upper bound an entry has is among them."""
    found = set()
    for item in value.values():
        if isinstance(item, dict):
            found |= _sizes(item)
        elif isinstance(item, list):
            found.add(len(item))
        elif type(item) is int:
            found.add(item)
    return found


def _path_text(path: tuple) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


def _case_edits(model: dict):
    """(name, edit) for every mutation of the model: a field deleted or set
    to each of ``FIELD_VALUES``; a list cut short, made longer, reversed;
    an entry set to -1, ``True`` or 2**70; an integer set to each size in
    the model."""
    sizes = sorted(_sizes(model))
    for path in _paths(model):
        value = _holder(model, path)[path[-1]]
        edits = []
        if isinstance(path[-1], str):
            edits.append(("del", None))
            edits += [(f"={v!r}", v) for v in FIELD_VALUES]
        elif type(value) is int:
            edits += [(f"={v!r}", v) for v in (-1, True, 2 ** 70)]
        if isinstance(value, list):
            edits += [("short", value[:-1]),
                      ("long", value + [value[-1] if value else 0]),
                      ("reversed", value[::-1])]
        if type(value) is int:
            edits += [(f"={s}", s) for s in sizes]
        for name, new in edits:
            yield f"{_path_text(path)} {name}", path, name, new


def _array_edits(model: dict):
    """``comp`` and ``act`` as arrays of several dtypes and shapes: as they
    are, and with an entry set to -1 or to the groupoid's arrow count."""
    for path in (("comp",), ("act",), ("groupoid", "comp")):
        if path[0] not in model:
            continue
        arrows = (model["groupoid"] if "groupoid" in model else model)["arrows"]
        table = np.array(_holder(model, path)[path[-1]], dtype=np.int64)
        low, high = table.copy(), table.copy()
        low[0, 0], high[-1, 1] = -1, arrows
        for variant, arr in (("", table), (" [0][0]=-1", low),
                             (f" [-1][1]={arrows}", high)):
            for dtype in (np.int64, np.int32, np.uint8, np.float64, bool):
                yield (f"{_path_text(path)} {np.dtype(dtype).name}{variant}",
                       path, arr.astype(dtype))
        for shape, arr in (("1-d", table.ravel()), ("width 2", table[:, :2]),
                           ("empty", table[:0])):
            yield f"{_path_text(path)} int64 {shape}", path, arr


def _load_outcomes() -> dict:
    outcomes = {}

    def record(case, data, load=parse_model):
        assert case not in outcomes, case
        try:
            load(data)
            outcomes[case] = "ok"
        except ModelError as exc:
            outcomes[case] = [exc.code, exc.message]
    models = _corpus_models()
    for kind, model in models.items():
        for case, path, name, new in _case_edits(model):
            data = _lists(model)
            if name == "del":
                del _holder(data, path)[path[-1]]
            else:
                _holder(data, path)[path[-1]] = copy.deepcopy(new)
            record(f"{kind} {case}", data)
        for case, path, arr in _array_edits(model):
            data = _lists(model)
            _holder(data, path)[path[-1]] = arr
            record(f"{kind} {case}", data)
    for kind, model in models.items():  # as text, through load_model
        for case, raw in _long_integers(model):
            record(f"{kind} {case}", raw, _load_stdin)
    return outcomes


def _load_stdin(raw: bytes):
    with pytest.MonkeyPatch.context() as m:
        m.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        return serialize.load_model("-")


def _long_integers(model: dict):
    """(name, input bytes) for the model written compact with a 5,000-digit
    integer literal beside its fields and in place of the first entry of
    each table of rows.  The literal goes into the text, since ``json``
    writes no ``int`` that long under the interpreter's default limit."""
    marker = "long integer here"
    paths = [("x",)] + [p for p in _paths(model) if p[-2:] == (0, 0)]
    for path in paths:
        data = _lists(model)
        _holder(data, path)[path[-1]] = marker
        text = canonical_dumps(data).replace(json.dumps(marker), "9" * 5000)
        yield f"{_path_text(path)} long integer", text.encode()


def test_load_errors_match_golden():
    """Code and message, or ``ok``, of every case of a seeded mutation
    corpus over one model of each shape, against the golden file;
    ``GPDFLOW_REGOLD=1`` writes it."""
    outcomes = _load_outcomes()
    assert 1000 <= len(outcomes) <= 2000
    text = "{\n" + ",\n".join(f"{json.dumps(case)}:{json.dumps(outcome)}"
                              for case, outcome in outcomes.items()) + "\n}\n"
    if os.environ.get("GPDFLOW_REGOLD") == "1":
        LOAD_ERRORS.write_text(text)
    assert text == LOAD_ERRORS.read_text()


# --- canonical emission ---------------------------------------------------------------


def _plain_json(obj) -> str:
    """The reference encoding: ``json`` with every array as a list, every
    row table (an emitted ``comp`` or ``act``) as its triples and every
    span of an input as the rows it reads."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, serialize._Span):
            return np.concatenate(list(value.rows())).tolist()
        return value.triples() if isinstance(value, RowTable) else int(value)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=plain)


EDGES = np.array([0, 9, 10, 99, 100, 9999, 10000, 2 ** 30 - 1])
WIDE = np.array([[10 ** 8 - 1, 10 ** 8, 10 ** 12 - 1], [0, 10 ** 4, 1]])


def _tables():
    grid = np.arange(48).reshape(8, 6) * 2251
    rng = np.random.default_rng(7)
    yield from (EDGES, EDGES.reshape(2, 4), EDGES.reshape(8, 1),
                EDGES[None, :3], np.zeros((0, 3), np.int64),
                np.zeros(0, np.int64), np.array([[0]]), WIDE,
                grid[::2, 1::2], grid.T, EDGES[::-3])
    for dtype in (np.int32, np.int64, np.uint8, np.uint64):
        yield EDGES[EDGES < np.iinfo(dtype).max].astype(dtype)
        yield grid.astype(dtype) % 250
    for digits in range(1, 13):
        yield rng.integers(0, 10 ** digits, size=(50, 3))


@pytest.mark.parametrize("arr", list(_tables()), ids=str)
def test_table_text_matches_json(arr):
    """The kernel that writes row tables and checks the rows read from an
    input gives ``json``'s text for every array as a 2-D table (a 1-D one
    as one row) with entries; ``canonical_dumps`` writes the array as its
    list."""
    assert canonical_dumps(arr) == \
        json.dumps(arr.tolist(), separators=(",", ":"))
    table = np.atleast_2d(arr)
    if table.size:
        assert serialize._table_bytes(table) == \
            json.dumps(table.tolist(), separators=(",", ":")).encode()


def test_digit_groups_are_the_digits_as_text():
    """The kernel's table, against ``str`` formatting: at ``n`` the digits
    of ``n`` NUL-padded on the left to four bytes, at ``10**4 + n`` all
    four digits, last four NULs, each read as one uint32."""
    text = b"".join(b"%4d" % n for n in range(10 ** 4)).replace(b" ", b"\0")
    text += b"".join(b"%04d" % n for n in range(10 ** 4)) + b"\0" * 4
    table = serialize._digit_groups()
    assert table.dtype == np.uint32 and not table.flags.writeable
    assert table.tobytes() == text


def test_digit_groups_are_built_without_int64_temporaries():
    """Building the 80,004-byte table peaks below four times its size,
    where ``(10**4, 4)`` int64 temporaries would take 320,000 bytes
    each."""
    serialize._digit_groups.cache_clear()
    tracemalloc.start()
    try:
        table = serialize._digit_groups()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 80_004
    assert peak < 4 * table.nbytes, peak


@pytest.mark.parametrize("arr", [np.array([[3, -1, 4]]), np.array([-10]),
                                 np.array([10 ** 12]), np.array([[True]]),
                                 np.array([0.5]), np.zeros((2, 0), int),
                                 np.array(7)], ids=str)
def test_table_text_falls_back_to_json(arr, monkeypatch):
    def unused():
        raise AssertionError("the kernel ran")
    monkeypatch.setattr(serialize, "_digit_groups", unused)
    assert canonical_dumps(arr) == _plain_json(arr.tolist())


def _row_tables(value):
    """The row tables in a report, depth first."""
    if isinstance(value, RowTable):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _row_tables(item)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_pieces_join_to_json_at_every_block_size(rows, monkeypatch):
    """Integer arrays, 1-D and 2-D, out of the kernel's range included,
    and every fixture report, its row tables read ``rows`` entries at a
    time: the pieces join to the ``json`` text, and a row table comes in
    one piece per block of ``row_blocks`` with entries."""
    monkeypatch.setattr(groupoid_module, "_BLOCK", rows)
    fallback = [np.array([[3, -1, 4]]), np.array([10 ** 12, 0]),
                np.zeros((0, 3), np.int64), np.zeros(0, np.int64)]
    for arr in [*_tables(), *fallback]:
        pieces = list(serialize.canonical_pieces(arr))
        assert "".join(pieces) == _plain_json(arr.tolist())
    tables = 0
    for command in COMMANDS:
        report = run_command(command, fixture_models(command))
        assert "".join(serialize.canonical_pieces(report)) == \
            _plain_json(report)
        for table in _row_tables(report):
            pieces = list(serialize.canonical_pieces(table))
            assert "".join(pieces) == _plain_json(table)
            blocks = sum(len(block) > 0 for block in table.row_blocks())
            assert len(pieces) == max(blocks, 1)
            tables += blocks > 1
    assert tables


@pytest.mark.parametrize("command", COMMANDS)
def test_canonical_dumps_matches_json_on_fixture_reports(command):
    report = run_command(command, fixture_models(command))
    assert canonical_dumps(report) == _plain_json(report)


NESTED = [
    {"b": [np.arange(3), {2: np.arange(2), 1: "\u0000"},
           (np.zeros((0, 3), np.int64), "x")],
     "\u0000": "\u0000é", "a": {"y": [[WIDE]], "x": np.int64(7)},
     "c": {0.5: [np.arange(1)], -1.0: None}, "": ()},
    [EDGES, [], {}, "\u0000", [np.array([[5, -5]])]],
    (np.arange(4).reshape(2, 2), {"k": np.array([1.5, 2.0])}),
    np.arange(3), np.int64(3), {"z": 1, "é": [np.arange(2)]},
]


def test_canonical_dumps_matches_json_on_nested_values():
    for value in NESTED:
        assert canonical_dumps(value) == _plain_json(value), value


@pytest.mark.parametrize("items", [1, 2, 3])
def test_long_lists_are_written_a_slice_at_a_time(items, monkeypatch):
    """With ``_SLICE`` set to ``items``, a list or tuple of more items is
    written a slice at a time, and the text is still ``json``'s: the
    nested values above, lists of them, and every fixture report, whose
    runs, coords and points are long lists and some of whose lists hold a
    row table.  ``model_digest`` hashes that text."""
    monkeypatch.setattr(serialize, "_SLICE", items)
    for value in [*NESTED, NESTED, tuple(NESTED[:4]), [[], [[]], ()]]:
        assert canonical_dumps(value) == _plain_json(value), value
    for command in COMMANDS:
        report = run_command(command, fixture_models(command))
        text = _plain_json(report)
        assert canonical_dumps(report) == text, command
        assert serialize.model_digest(report) == \
            hashlib.sha256(text.encode()).hexdigest(), command


# --- loading: the byte-level table decode against json.loads ----------------------


def _text_mode_load(path: str) -> tuple[serialize.Model, str]:
    """The oracle: the whole input read as text (a file with universal
    newlines, stdin as it comes) and decoded by ``json``, then
    ``parse_model``, with ``load_model``'s codes and messages; and the
    sha256 of the canonical text of the payload as ``json`` decoded it,
    its tables' rows in the input's order."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(serialize.PARSE_ERROR,
                         f"{path}: invalid JSON: {exc}") from exc
    model = parse_model(data)
    if serialize._nesting(model.data)[0] > serialize._MAX_DEPTH:
        raise ModelError(serialize.PARSE_ERROR, f"{path}: nested too deeply "
                         f"(more than {serialize._MAX_DEPTH} levels)")
    if "kind" not in data:  # the envelope parse_model unwrapped
        data = data["model"] if "model" in data else next(
            run["model"] for run in data["runs"]
            if isinstance(run, dict) and "model" in run)
    return model, hashlib.sha256(canonical_dumps(data).encode()).hexdigest()


def _outcome(load, path: str):
    """(kind, canonical text, arrays, flaws, input digest) of a load, or
    the error's (code, message).  Every row table's ``val`` is int16 when
    its points and its groupoid's arrows are below ``2**15``, else int32."""
    try:
        model = load(path)
    except ModelError as exc:
        return exc.code, exc.message
    model, digest = model if load is _text_mode_load else (model,
                                                           model.digest)
    arrays = _arrays(model.data)
    tables = {key[:-1]: _holder(model.data, key[:-1])[key[-2]]
              for key in arrays if key[-1] == "val"}
    for t in tables.values():
        small = max(len(t.anchor), t.gpd.n_arrows) < 1 << 15
        assert t.val.dtype == (np.int16 if small else np.int32)
    flaws = {key: t.flaw for key, t in tables.items()}
    return (model.kind, canonical_dumps(model.data),
            {key: a.tolist() for key, a in arrays.items()}, flaws, digest)


# what stdin holds before the input where it is a file at an offset: a
# table key and the token mark, so a load that read it would go wrong
STDIN_PREFIX = b'{"comp":[[1e-0000000,'


def _load_routes(raw: bytes, tmp_path, monkeypatch, routes) -> list:
    """(load_model's outcome, the oracle's, whether load_model took it from
    the tables' spans of the bytes) for one input read by each route: from
    a file (``False``), or from stdin: a stream of the bytes (``True``) or,
    for ``"fd"``, a file opened at a nonzero offset, which the load must
    leave at its end.  An input taken so must also equal ``json``'s reading
    of all of it, the tables the model does not use included.  Both stdin
    routes give the oracle the same text, so it reads it once for them, and
    ``json`` reads the input once for every route."""
    # json's reading of the input, as _plain_json gives it
    whole = functools.cache(lambda: _plain_json(json.loads(raw)))

    def spy(data, spans, too_deep):
        try:
            model = real(data, spans, too_deep)
        except ModelError:  # the error of an input taken from the spans
            decoded.append(True)
            raise
        else:
            decoded.append(model is not None)
            return model
        finally:
            if decoded[-1]:
                assert _plain_json(data) == whole()
    real = serialize._span_model
    path = tmp_path / "input.json"

    def outcome(load, stdin):
        prefix = STDIN_PREFIX if stdin == "fd" else b""
        path.write_bytes(prefix + raw)
        with monkeypatch.context() as m, \
                open(path, encoding="utf-8", newline="\n") as fh:
            m.setattr(serialize, "_span_model", spy)
            fh.buffer.seek(len(prefix))
            if stdin:
                m.setattr("sys.stdin", fh if stdin == "fd" else
                          io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                           newline="\n"))
            found = _outcome(load, "-" if stdin else str(path))
            if stdin == "fd":  # left at its end
                assert fh.buffer.tell() == len(prefix + raw)
        return found
    plain, loads = {}, []
    for stdin in routes:
        decoded = []
        fast = outcome(serialize.load_model, stdin)
        if bool(stdin) not in plain:
            plain[bool(stdin)] = outcome(_text_mode_load, stdin)
        loads.append((fast, plain[bool(stdin)], bool(decoded) and decoded[0]))
    return loads


def _load_both(raw: bytes, tmp_path, monkeypatch, stdin=False):
    """:func:`_load_routes` for one route."""
    return _load_routes(raw, tmp_path, monkeypatch, [stdin])[0]


def _fixture_texts() -> list[str]:
    """Every fixture report, and every fixture model on its own."""
    texts = {}
    for command in COMMANDS:
        models = fixture_models(command)
        texts[canonical_dumps(run_command(command, models))] = None
        for _, model in models:
            texts[canonical_dumps(model.data)] = None
    return list(texts)


# bytes of input scanned, filled and hashed at a time: the former 1 MB and
# 256 KB defaults, the default, and small enough that block ends fall all
# over each table, and every table key and token mark (9 bytes) straddles
# two chunks
BLOCKS = [1 << 20, 1 << 18, serialize._CHUNK, 8]


@pytest.mark.parametrize("block", BLOCKS)
def test_decode_agrees_with_json_on_fixture_texts(block, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(serialize, "_CHUNK", block)
    spans = 0
    for text in _fixture_texts():
        raw = text.encode()
        fast, plain, decoded = _load_both(raw, tmp_path, monkeypatch)
        assert fast == plain
        # a canonical table anywhere is decoded from the bytes
        assert decoded == bool(serialize._TABLE_KEY.search(raw))
        spans += decoded
    assert spans >= 15


SPAN = re.compile(r'"(?:comp|act)":(\[\[[^"]*?\]\])')


def _in_span(text: str, rng: random.Random, pattern: str, repl) -> str:
    """Replace one seeded match of ``pattern`` inside one table span."""
    span = rng.choice(list(SPAN.finditer(text)))
    body = span.group(1)
    match = rng.choice(list(re.finditer(pattern, body)))
    body = body[:match.start()] + repl(match) + body[match.end():]
    return text[:span.start(1)] + body + text[span.end(1):]


def _replace_span(text: str, rng: random.Random, table: str) -> str:
    span = rng.choice(list(SPAN.finditer(text)))
    return text[:span.start(1)] + table + text[span.end(1):]


def _before_key(text: str, rng: random.Random, field: str) -> str:
    """Put ``field`` in the object of one table, just before its key; a
    ``{key}`` in it is that key."""
    span = rng.choice(list(SPAN.finditer(text)))
    key = span.group()[:-len(span.group(1))]
    return (text[:span.start()] + field.format(key=key) + ","
            + text[span.start():])


TOKEN = serialize._SPAN_TOKEN.decode() % 0

# mutation -> (edit of the canonical text, whether the decode may run)
TEXT_MUTATIONS = {
    "another number": (lambda t, r: _in_span(
        t, r, r"\d+", lambda m: str(r.randrange(int(m.group()) + 1))), True),
    "space in a span": (lambda t, r: _in_span(t, r, ",", lambda m: ", "),
                        False),
    "leading zero": (lambda t, r: _in_span(
        t, r, r"\d+", lambda m: "0" + m.group()), False),
    "minus one": (lambda t, r: _in_span(t, r, r"\d+", lambda m: "-1"), False),
    "float": (lambda t, r: _in_span(t, r, r"\d+", lambda m: "1.0"), False),
    "13 digits": (lambda t, r: _in_span(
        t, r, r"\d+", lambda m: str(10 ** 12)), False),
    # a number that an int32 table would wrap back to the one it replaces
    "past int32": (lambda t, r: _in_span(
        t, r, r"\d+", lambda m: str(2 ** 32 + int(m.group()))), False),
    # and one that an int16 table would
    "past int16": (lambda t, r: _in_span(
        t, r, r"\d+", lambda m: str(2 ** 16 + int(m.group()))), True),
    "one row": (lambda t, r: _replace_span(t, r, "[[0,0,0]]"), True),
    "empty": (lambda t, r: _replace_span(t, r, "[]"), True),
    "empty row": (lambda t, r: _replace_span(t, r, "[[]]"), False),
    "key in a string": (lambda t, r: t.replace(
        "{", '{"\\"comp":[[1,2,3]],', 1), False),
    "duplicate key": (lambda t, r: _before_key(t, r, "{key}[[0,0,0]]"),
                      False),
    "truncated": (lambda t, r: _in_span(t, r, r"\]\]$", lambda m: "]"),
                  False),
    "token in a string": (lambda t, r: t.replace(
        "{", '{"note":"%s",' % TOKEN, 1), False),
    "token as a number": (lambda t, r: _before_key(t, r, '"x":' + TOKEN),
                          False),
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("mutation", sorted(TEXT_MUTATIONS))
def test_decode_agrees_with_json_on_mutated_text(mutation, block, tmp_path,
                                                  monkeypatch):
    """Seeded edits of the groupoidify and ambit fixture reports: the load
    equals the oracle's, model or (code, message), and every edit that
    leaves a table not canonical, or a table's token anywhere but as the
    value of a ``comp`` or ``act`` key, is read by ``json`` whole."""
    monkeypatch.setattr(serialize, "_CHUNK", block)
    edit, may_decode = TEXT_MUTATIONS[mutation]
    for command in ("groupoidify", "ambit"):
        report = canonical_dumps(run_command(command,
                                             fixture_models(command)))
        rng = random.Random(f"{mutation}:{command}")
        for _ in range(4):
            raw = edit(report, rng).encode()
            fast, plain, decoded = _load_both(raw, tmp_path, monkeypatch)
            assert fast == plain, (mutation, command)
            assert may_decode or not decoded, (mutation, command)


def test_a_table_inside_another_field_loads_as_json_reads_it(tmp_path,
                                                               monkeypatch):
    """A canonical ``comp`` or ``act`` table where the model reads no
    table: shown in an error message as the lists ``json`` gives, and
    counted in the nesting depth as the two levels of its rows.  The input
    is read by ``json`` whole when such a table is in the model."""
    table = '{"comp":[[1,2,3]]}'
    graph = '{"edges":[[0,1]],"kind":"graph","vertices":2,"x":%s}'
    texts = ['{"arrows":1,"kind":"groupoid","objects":%s}' % table,
             '{"kind":{"act":[[1,2,3]]}}', '{"kind":{"act":[[1,2,03]]}}',
             '{"group":{"order":1,"identity":0,"mult":[[0]],"x":%s},'
             '"kind":"bundle"}' % table]
    texts += [graph % ("[" * depth + table + "]" * depth)
              for depth in (96, 97, 98, 99)]
    outcomes = set()
    for text in texts:
        fast, plain, decoded = _load_both(text.encode(), tmp_path,
                                          monkeypatch)
        assert fast == plain, text
        outcomes.add(len(fast) == 2)  # an error, or a model
    assert outcomes == {False, True}


def test_a_span_value_at_its_bound_loads_as_json_reads_it(tmp_path,
                                                          monkeypatch):
    """An entry of a ``comp`` or ``act`` table read from its span set one
    below, at and one above its column's bound: a span's block skips the
    second range check only when its largest value is below every bound,
    so each load gives the model, or the error naming the entry, that
    ``json`` reading the whole text gives."""
    gpd = groupoid_of_bundle(named_bundles()["triangle-z2-twisted"]).groupoid
    ambit = _lists(ambit_to_json(build_ambit(gpd, 0)))
    arrows, space = gpd.n_arrows, ambit["space"]
    tables = {("groupoid", "comp"): (arrows,) * 3,
              ("act",): (space, arrows, space)}
    outcomes = []
    for path, bounds in tables.items():
        for j, bound in enumerate(bounds):
            for value in (bound - 1, bound, bound + 1):
                model = copy.deepcopy(ambit)
                _holder(model, path)[path[-1]][-1][j] = value
                fast, plain, decoded = _load_both(
                    canonical_dumps(model).encode(), tmp_path, monkeypatch)
                assert fast == plain and decoded, (path, j, value)
                outcomes.append(len(fast))
    assert outcomes.count(2) == 12  # at the bound and above: errors


def test_a_span_without_row_separators_is_refused_in_two_windows(
        tmp_path, monkeypatch):
    """A groupoid model written with ``", "`` separators, whose ``comp``
    span has no ``],[`` and spans over 20 ``_CHUNK`` windows: the span
    refuses it as not canonical after reading at most two windows, where
    once each window was carried into the next to the table's end.  The
    load, then by ``json``, gives the model and the digest of the compact
    text."""
    monkeypatch.setattr(serialize, "_CHUNK", 128)
    payload = json.loads(canonical_dumps(groupoid_to_json(
        groupoid_of_bundle(named_bundles()["edge-s3"]).groupoid)))
    reads, outcomes = [], []

    class Reader(bytes):  # the input's bytes, each read recorded
        def __getitem__(self, at: slice) -> bytes:
            reads.append(at)
            return bytes.__getitem__(self, at)
    for sep in (",", ", "):
        raw = json.dumps(payload, sort_keys=True,
                         separators=(sep, ":")).encode()
        start = serialize._TABLE_KEY.search(raw).end() - 2
        end = raw.index(b"]]", start) + 2
        assert end - start > 20 * serialize._CHUNK
        reads.clear()
        rows = serialize._Span(Reader(raw), start, end).rows()
        if sep == ",":
            assert len(np.concatenate(list(rows))) == len(payload["comp"])
        else:
            with pytest.raises(serialize._NotCanonical):
                list(rows)
            assert len(reads) <= 2
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        outcomes.append(_outcome(serialize.load_model, str(path)))
    assert len(outcomes[0]) == 5 and outcomes[0] == outcomes[1]


# seeded edits of a canonical report's text, each given the text, the
# random source and the table spans it may edit
def test_a_value_past_int16_is_refused_from_a_span_and_from_json(
        tmp_path, monkeypatch):
    """The 32,767-arrow discrete groupoid, whose values are int16, with the
    value of its pair ``(v, v)`` written ``2**16 + v``: read from its span
    and by ``json`` whole, the load refuses the entry as written, at code
    12, and never fills a table that reads ``v``.  Unedited, both load it
    whole, int16."""
    m, v = 32_767, 12_345
    text = canonical_dumps(groupoid_to_json(discrete(m)))
    edited = text.replace(f"[{v},{v},{v}]", f"[{v},{v},{2 ** 16 + v}]")
    fast, plain, decoded = _load_both(edited.encode(), tmp_path, monkeypatch)
    assert fast == plain and decoded
    assert fast == (12, f"groupoid.comp[{v}][2]: {2 ** 16 + v} outside "
                        f"range [0, {m})")
    fast, plain, decoded = _load_both(text.encode(), tmp_path, monkeypatch)
    assert fast == plain and decoded
    assert fast[3] == {("comp",): None}
    assert len(fast[2][("comp", "val")]) == m



def _rows_of(span: str) -> list[str]:
    return span[2:-2].split("],[")


def _with_rows(rows: list[str]) -> str:
    return "[[" + "],[".join(rows) + "]]" if rows else "[]"


def _edit_rows(edit):
    def mutate(text, rng, spans):
        span = rng.choice(spans)
        rows = _rows_of(span.group(1))
        edit(rows, rng)
        return text[:span.start(1)] + _with_rows(rows) + text[span.end(1):]
    return mutate


def _edit_number(new):
    def mutate(text, rng, spans):
        span = rng.choice(spans)
        body = span.group(1)
        number = rng.choice(list(re.finditer(r"\d+", body)))
        body = (body[:number.start()] + new(number.group(), rng)
                + body[number.end():])
        return text[:span.start(1)] + body + text[span.end(1):]
    return mutate


def _swap(rows, rng):
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i], rows[j] = rows[j], rows[i]


def _cut(text, rng, spans):
    """A table's last rows dropped, or the text cut inside a table."""
    span = rng.choice(spans)
    if rng.random() < 0.5:
        return text[:rng.randrange(span.start(1) + 1, span.end(1))]
    rows = _rows_of(span.group(1))
    rows = rows[:rng.randrange(len(rows))]
    return text[:span.start(1)] + _with_rows(rows) + text[span.end(1):]


def _space(text, rng, spans):
    span = rng.choice(spans)
    at = rng.randrange(span.start(1) + 1, span.end(1))
    return text[:at] + rng.choice(" \n") + text[at:]


def _token(text, rng, spans):
    """An ``e-0000000`` number or string before a table's key."""
    span = rng.choice(spans)
    field = rng.choice(['"x":%de-0000000', '"x":"%de-0000000"'])
    return (text[:span.start()] + field % rng.randrange(3) + ","
            + text[span.start():])


FUZZ_EDITS = {
    "digit": _edit_number(lambda n, rng: str(rng.randrange(
        rng.choice((int(n) + 2, 10 ** rng.randrange(1, 7)))))),
    "row swap": _edit_rows(_swap),
    "row repeat": _edit_rows(lambda rows, rng: rows.insert(
        rng.randrange(len(rows) + 1), rng.choice(rows))),
    "row drop": _edit_rows(lambda rows, rng: rows.pop(
        rng.randrange(len(rows)))),
    "space": _space,
    "leading zero": _edit_number(lambda n, rng: "0" + n),
    "cut short": _cut,
    "token": _token,
}
# where the model reads no table: a value it would refuse, or bad JSON
UNUSED_EDITS = {
    "bad value": _edit_number(lambda n, rng: rng.choice(
        ["-1", "1.0", "true", str(2 ** 40), "null"])),
    "invalid JSON": _edit_number(lambda n, rng: rng.choice(
        [n + ",", "", "1 2", "[" + n, n + "]"])),
}
FUZZ_CASES = 300


@functools.cache
def _fuzz_texts() -> list[tuple[str, str]]:
    """``(command, text)`` for 300 seeded edits of the canonical
    groupoidify and ambit reports of two fixtures each, one or two edits a
    case, in the tables of any run or in those of the run the model does
    not use."""
    reports, texts = {}, []
    for command in ("groupoidify", "ambit"):
        report = run_command(command, fixture_models(command)[:2])
        text = canonical_dumps(report)
        # the model's tables come first: its run is the first
        used = len(SPAN.findall(canonical_dumps(report["runs"][0]["model"])))
        reports[command] = text, used
    for case in range(FUZZ_CASES):
        rng = random.Random(f"load fuzz {case}")
        command = rng.choice(sorted(reports))
        text, used = reports[command]
        for _ in range(rng.choice((1, 1, 2))):
            spans = list(SPAN.finditer(text))
            if rng.random() < 0.2:
                edit = UNUSED_EDITS[rng.choice(sorted(UNUSED_EDITS))]
                spans = spans[used:]
            else:
                edit = FUZZ_EDITS[rng.choice(sorted(FUZZ_EDITS))]
            if spans:
                text = edit(text, rng, spans)
        texts.append((command, text))
    return texts


def test_load_fuzz_agrees_with_json(tmp_path, monkeypatch):
    """On each of the :func:`_fuzz_texts`, ``load_model`` gives the model,
    with its rows, flaws and input digest, or the error's code and
    message, that ``json`` reading the whole text gives.  Both paths are
    taken, and both give models and errors."""
    paths = set()
    for case, (command, text) in enumerate(_fuzz_texts()):
        fast, plain, decoded = _load_both(text.encode(), tmp_path,
                                          monkeypatch)
        assert fast == plain, (case, command)
        paths.add((decoded, len(fast) == 2))
    assert paths == {(True, True), (True, False), (False, True),
                     (False, False)}


@pytest.mark.parametrize("block", BLOCKS)
def test_decode_and_digest_agree_with_json_from_stdin(block, tmp_path,
                                                      monkeypatch):
    """Every fixture text and every seeded text mutation read from stdin,
    as a stream and as a file at a nonzero offset: the model and its input
    digest (hashed from the input's bytes where a table was decoded from
    them) equal the oracle's, with the decode taken on some inputs and not
    on others."""
    monkeypatch.setattr(serialize, "_CHUNK", block)
    texts = _fixture_texts()
    for command in ("groupoidify", "ambit"):
        report = canonical_dumps(run_command(command,
                                             fixture_models(command)))
        for mutation, (edit, _) in sorted(TEXT_MUTATIONS.items()):
            rng = random.Random(f"{mutation}:{command}")
            texts += [edit(report, rng) for _ in range(4)]
    paths = set()
    for text in texts:
        routes = (True, "fd")
        loads = _load_routes(text.encode(), tmp_path, monkeypatch, routes)
        for stdin, (fast, plain, decoded) in zip(routes, loads):
            assert fast == plain
            paths.add((stdin, decoded))
    assert paths == {(True, False), (True, True), ("fd", False), ("fd", True)}


@functools.cache
def _groupoid_texts() -> list[str]:
    """The canonical groupoid models of the 7- and 8-vertex S4 bundles,
    2,808,791 and 4,386,961 bytes: one on each side of the default
    ``_LEAN_DIGEST``."""
    return [canonical_dumps(groupoid_to_json(groupoid_of_bundle(
        large_random_bundle(n, 3, "S4")).groupoid)) for n in (7, 8)]


# the longest input hashed by the interpreter's sha256, and the most bytes
# of a payload built in memory before hashlib's takes over: none, one,
# part of a large table, and the default
DIGEST_BOUNDS = [0, 1, 1 << 16, serialize._LEAN_DIGEST]
ORACLE_DIGESTS: dict[str, str] = {}  # of each text that loads


@pytest.mark.parametrize("bound", DIGEST_BOUNDS)
def test_both_digest_routes_give_hashlib_sha256(bound, tmp_path,
                                                monkeypatch):
    """With the interpreter's sha256 taking inputs of up to ``bound``
    bytes and ``hashlib``'s the rest, the input digest of every fixture
    text, load fuzz text and large groupoid model that loads is
    ``hashlib.sha256`` of its payload's canonical text, and so is
    :func:`~gpdflow.serialize.model_digest` of each large model as built,
    its table a row table.  The default bound falls between the two large
    models."""
    monkeypatch.setattr(serialize, "_LEAN_DIGEST", bound)
    path = tmp_path / "input.json"
    texts = _fixture_texts() + [text for _, text in _fuzz_texts()]
    digests = 0
    for text in texts + _groupoid_texts():
        path.write_text(text)
        try:
            digest = serialize.load_model(str(path)).digest
        except ModelError:
            continue
        if text not in ORACLE_DIGESTS:  # the same for every bound
            ORACLE_DIGESTS[text] = _text_mode_load(str(path))[1]
        assert digest == ORACLE_DIGESTS[text]
        digests += 1
    assert digests > len(texts) // 2
    sizes = []
    for text in _groupoid_texts():
        payload = parse_model(json.loads(text)).data
        plain = canonical_dumps(payload).encode()
        assert serialize.model_digest(payload) == \
            hashlib.sha256(plain).hexdigest()
        sizes.append(len(plain))
    assert sizes[0] <= DIGEST_BOUNDS[-1] < sizes[1]


def test_each_input_is_hashed_once(tmp_path, monkeypatch):
    """An input read from a file is hashed by one sha256, picked from its
    length: of exactly ``_LEAN_DIGEST`` bytes by the interpreter's alone,
    to the end; one byte longer by ``hashlib``'s alone, made once, with no
    byte fed to the interpreter's.  A payload built in memory, with no
    length to go by, is hashed by the interpreter's up to the bound and,
    past it, again by ``hashlib``'s, once.  The digest is the same every
    way."""
    payload = groupoid_to_json(discrete(3))
    plain = canonical_dumps(payload).encode()
    path = tmp_path / "input.json"
    path.write_bytes(plain)
    lean, real, fed, made = serialize._sha256, hashlib.sha256, [], []

    class Lean:  # the interpreter's sha256, counting the bytes fed to it
        def __init__(self):
            self.hash = lean()
            fed.append(0)

        def update(self, data):
            fed[-1] += len(data)
            self.hash.update(data)

        def hexdigest(self):
            return self.hash.hexdigest()
    monkeypatch.setattr(serialize, "_sha256", Lean)
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *data: made.append(data) or real(*data))
    expected = real(plain).hexdigest()
    for bound, lean_fed, hashlib_made in ((len(plain), [len(plain)], 0),
                                          (len(plain) - 1, [], 1)):
        monkeypatch.setattr(serialize, "_LEAN_DIGEST", bound)
        fed.clear()
        made.clear()
        assert serialize.load_model(str(path)).digest == expected
        assert (fed, len(made)) == (lean_fed, hashlib_made), bound
    for bound, hashlib_made in ((len(plain), 0), (len(plain) - 1, 1)):
        monkeypatch.setattr(serialize, "_LEAN_DIGEST", bound)
        fed.clear()
        made.clear()
        assert serialize.model_digest(payload) == expected
        assert len(fed) == 1 and 0 < fed[0] <= bound, (bound, fed)
        assert len(made) == hashlib_made, bound


def test_decode_takes_the_table_and_one_block_of_temporaries():
    """Filling a 72,000-entry ``comp`` table from its span (about 1 MB of
    text, 15 blocks) allocates, over the input bytes, the row table's
    values, ``val.itemsize`` bytes an entry (2 for these 600 arrows), and
    a fixed slack for one block's temporaries and the rest of the model:
    no ``(n, 3)`` array of the triples (12 bytes a triple as int32)."""
    gpd = groupoid_of_bundle(large_random_bundle(5, 3, "S4")).groupoid
    raw = canonical_dumps(serialize.groupoid_to_json(gpd)).encode()
    data, spans = serialize._span_json(raw)
    serialize._digit_groups.cache_clear()  # its build counts too
    tracemalloc.start()
    try:
        model = serialize._span_model(data, spans, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    comp = model.data["comp"]
    assert comp.val.size == 72_000 and comp.flaw is None
    assert np.array_equal(comp.val, gpd.val)
    assert comp.val.dtype == np.int16
    assert peak < comp.val.itemsize * comp.val.size + (3 << 19), peak


def _medium_transport():
    """The transport groupoid of a 6-vertex S4 bundle: 124,416 triples."""
    return groupoid_of_bundle(large_random_bundle(6, 3, "S4"))


def test_report_tables_are_written_from_the_rows(monkeypatch):
    """Writing a transport groupoid's report, its rows read 1,024 entries at
    a time, allocates less than 4 bytes an entry, whatever the width of
    the values, plus the kernel's table, built here, and a fixed slack for
    its build, one block's temporaries and the rest of the model: no
    ``(n, 3)`` array of the triples (24 bytes a triple) is built."""
    monkeypatch.setattr(groupoid_module, "_BLOCK", 1024)
    tg = _medium_transport()
    serialize._digit_groups.cache_clear()  # its build counts too
    tracemalloc.start()
    try:
        size = sum(map(len, serialize.canonical_pieces(transport_to_json(tg))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == len(canonical_dumps(transport_to_json(tg)))
    assert peak < 4 * tg.groupoid.val.size + serialize._digit_groups().nbytes \
        + (256 << 10), peak


@pytest.mark.parametrize("vertices", [6, 12])
def test_a_report_is_written_and_hashed_in_one_block_of_temporaries(
        vertices):
    """Writing a transport report with ``canonical_pieces`` and hashing it
    with ``model_digest``, at 6 vertices (124,416 entries, 144 coords)
    and at 12 (995,328 entries, 3,456 coords), allocates less than 768 KB
    above what the report holds, a bound that does not grow with the
    table: the temporaries of one 4,096-entry block of rows, about 190
    bytes an entry from ``row_blocks`` to the text, or of one slice of a
    long list such as ``coords``, which ``json`` would encode whole in
    about 15 times its text."""
    report = transport_to_json(groupoid_of_bundle(
        large_random_bundle(vertices, 3, "S4")))
    serialize._digit_groups()  # built once a process, and kept
    for write in (lambda: sum(map(len, serialize.canonical_pieces(report))),
                  lambda: serialize.model_digest(report)):
        tracemalloc.start()
        try:
            write()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 768 << 10, (vertices, peak - held)


def _medium_report(tmp_path) -> Path:
    """A groupoidify report on a 6-vertex S4 bundle: 124,416 entries."""
    bundle = bundle_to_json(large_random_bundle(6, 3, "S4"))
    path = tmp_path / "groupoidify.json"
    path.write_text(canonical_dumps(run_command(
        "groupoidify", [("bundle", parse_model(bundle))])))
    serialize._digit_groups.cache_clear()  # its build counts too
    return path


def test_a_loaded_report_holds_val_itemsize_bytes_an_entry(tmp_path):
    """A groupoidify report, loaded: its ``comp`` is the groupoid, with an
    int16 ``val`` for its 864 arrows, and the model holds ``val.itemsize``
    bytes an entry plus a fixed slack for its other fields, where an
    ``(n, 3)`` int32 table would take 12."""
    path = _medium_report(tmp_path)
    tracemalloc.start()
    try:
        model = serialize.load_model(str(path))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    comp = model.data["comp"]
    assert isinstance(comp, Groupoid) and comp.flaw is None
    assert comp.val.size == 124_416 and comp.val.dtype == np.int16
    assert held < comp.val.itemsize * comp.val.size + (512 << 10), held


def test_loading_a_report_peaks_at_its_bytes_and_val_itemsize_an_entry(
        tmp_path):
    """Loading that report peaks below the input's bytes, the row table's
    values (``val.itemsize`` bytes an entry), and a fixed slack for one
    block's temporaries and the rest of the model: neither an ``(n, 3)``
    table nor a mask over the triples or the entries is made."""
    path = _medium_report(tmp_path)
    tracemalloc.start()
    try:
        model = serialize.load_model(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    val = model.data["comp"].val
    assert val.size == 124_416
    assert peak < path.stat().st_size + val.itemsize * val.size + (2 << 20), \
        peak


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_decode_agrees_with_json_on_crlf_line_ends(stdin, tmp_path,
                                                   monkeypatch):
    """CRLF line ends: indented text (no canonical table) and a compact one
    ending in CRLF agree with the oracle; so do both cut short, where the
    positions in the JSON error count the line ends as the oracle reads
    them."""
    report = run_command("ambit", fixture_models("ambit"))
    indented = json.dumps(json.loads(canonical_dumps(report)), indent=1)
    compact = canonical_dumps(report) + "\n"
    for text, may_decode in ((indented, False), (compact, True)):
        raw = text.replace("\n", "\r\n").encode()
        for cut in (len(raw), len(raw) // 2):
            fast, plain, decoded = _load_both(raw[:cut], tmp_path,
                                              monkeypatch, stdin)
            assert fast == plain
            assert decoded == (may_decode and cut == len(raw))


def test_a_report_from_a_path_is_not_held_while_it_loads(tmp_path,
                                                         monkeypatch):
    """Loading that report from a path, its table read back from the file,
    or from a stream of its bytes on stdin, copied to a temporary file and
    read back from it, peaks below the row table's values (``val.itemsize``
    bytes an entry) and a fixed slack smaller than the file: no copy of the
    input is held."""
    path = _medium_report(tmp_path)
    assert path.stat().st_size > 3 << 19
    for stdin in (False, True):
        serialize._digit_groups.cache_clear()
        if stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(path.read_bytes())))
        tracemalloc.start()
        try:
            model = serialize.load_model("-" if stdin else str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        val = model.data["comp"].val
        assert val.size == 124_416
        assert peak < val.itemsize * val.size + (3 << 19), (stdin, peak)


def _report_bytes() -> bytes:
    return canonical_dumps(run_command(
        "groupoidify", fixture_models("groupoidify")[:2])).encode()


def _file_spy(monkeypatch) -> list:
    """Every :class:`serialize._File` made from now on."""
    files = []

    class Spy(serialize._File):
        def __init__(self, *args):
            super().__init__(*args)
            files.append(self)
    monkeypatch.setattr(serialize, "_File", Spy)
    return files


def _spool_spy(monkeypatch) -> list:
    """Every temporary file an input is copied to from now on."""
    spools = []

    def spy(*args, **kwargs):
        spools.append(real(*args, **kwargs))
        return spools[-1]
    real = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    return spools


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_every_input_is_read_back_from_a_file(tmp_path, monkeypatch):
    """A path and stdin that is a regular file are read back from the file;
    a FIFO path, a stream of bytes and a stream of text on stdin are
    copied to a temporary file first and read back from it.  All five give
    the same model and input digest."""
    raw = _report_bytes()
    path, fifo = tmp_path / "report.json", tmp_path / "fifo"
    path.write_bytes(raw)
    os.mkfifo(fifo)

    def from_fifo():
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,),
                                  daemon=True)
        writer.start()
        try:
            return serialize.load_model(str(fifo))
        finally:
            writer.join(30)
            assert not writer.is_alive()

    def from_stdin(stream):
        with stream, monkeypatch.context() as m:
            m.setattr("sys.stdin", stream)
            return serialize.load_model("-")
    loads = {
        "path": (False, lambda: serialize.load_model(str(path))),
        "file stdin": (False, lambda: from_stdin(open(path))),
        "fifo": (True, from_fifo),
        "stream stdin": (True, lambda: from_stdin(
            io.TextIOWrapper(io.BytesIO(raw)))),
        "text stdin": (True, lambda: from_stdin(io.StringIO(raw.decode()))),
    }
    outcomes = set()
    for name, (spooled, load) in loads.items():
        with monkeypatch.context() as m:
            files, spools = _file_spy(m), _spool_spy(m)
            model = load()
        assert (len(files), len(spools)) == (1, spooled), name
        assert all(spool.closed for spool in spools), name
        outcomes.add((canonical_dumps(model.data), model.digest))
    assert len(outcomes) == 1


@pytest.mark.parametrize("change", ["cut short", "rewritten"])
@pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
def test_a_file_changed_while_it_is_read_is_an_error(change, stdin,
                                                     tmp_path, monkeypatch):
    """A file changed after the scan and before its tables are filled: cut
    short inside its first table, the fill's read comes back short; written
    again in place, with a later modification time, the check of the
    file's stat at the end of the load finds it.  Either way the load fails
    with code 10, never with a model of the two versions."""
    raw = _report_bytes()
    path = tmp_path / "report.json"
    path.write_bytes(raw)
    real = serialize._span_model

    def change_then_fill(data, spans, too_deep):
        if change == "cut short":
            os.truncate(path, spans[0].start + 10)
        else:
            st = path.stat()
            path.write_bytes(raw)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        return real(data, spans, too_deep)
    monkeypatch.setattr(serialize, "_span_model", change_then_fill)
    with open(path) as stream:
        if stdin:
            monkeypatch.setattr("sys.stdin", stream)
        name = "-" if stdin else str(path)
        with pytest.raises(ModelError) as err:
            serialize.load_model(name)
    assert (err.value.code, err.value.message) == \
        (serialize.PARSE_ERROR, f"{name}: changed while it was read")


@pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
def test_a_failed_read_is_an_error(stdin, tmp_path, monkeypatch):
    """An ``os.pread`` that fails, as a disk error would, fails the load
    with code 10 and the error's own words, never with a traceback."""
    path = tmp_path / "report.json"
    path.write_bytes(_report_bytes())

    def fail(fd, size, offset):
        raise OSError(errno.EIO, "Input/output error")
    with open(path) as stream:
        if stdin:
            monkeypatch.setattr("sys.stdin", stream)
        monkeypatch.setattr(os, "pread", fail)
        name = "-" if stdin else str(path)
        with pytest.raises(ModelError) as err:
            serialize.load_model(name)
    assert (err.value.code, err.value.message) == \
        (serialize.PARSE_ERROR, f"{name}: [Errno 5] Input/output error")


@pytest.mark.parametrize("value, name", [
    ({"x": [object()]}, "object"), ({1: [0], 2: [pair_groupoid(1)]},
                                    "Groupoid"),
], ids=["object", "table under an int key"])
def test_a_value_json_cannot_write_is_refused(value, name):
    """A value that is neither JSON, a numpy array or scalar, a row table
    nor a span is refused with ``TypeError``, naming its type: one met by
    ``json``, and a row table in a dict whose keys are not all strings,
    which keeps ``json``'s key rules and so cannot be written a piece at a
    time."""
    with pytest.raises(TypeError) as refused:
        canonical_dumps(value)
    assert str(refused.value) == f"not JSON serializable: {name}"


def test_a_load_leaves_no_file_open(tmp_path, monkeypatch):
    """The file of a path, and the temporary file a stream on stdin is
    copied to, are closed after every load: a model, an error in a table
    read from the file, a table the fill cannot read, text only ``json``
    reads, unreadable JSON, and a file changed while it is read."""
    raw = _report_bytes()
    bad_value = re.sub(rb'("comp":\[\[)\d+', rb"\g<1>99999", raw, count=1)
    texts = {"model": raw, "bad value": bad_value,
             "not canonical": raw.replace(b"],[", b"], [", 1),
             "indented": json.dumps(json.loads(raw), indent=1).encode(),
             "invalid": raw[:-1], "changed": raw}
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(serialize, "open", spy_open, raising=False)
    spools = _spool_spy(monkeypatch)
    real = serialize._span_model
    path = tmp_path / "input.json"
    outcomes = {}
    for stdin in (False, True):
        for name, text in texts.items():
            path.write_bytes(text)

            def fill(data, spans, too_deep):
                cut = spans[0].start + 10
                if name == "changed" and stdin:  # the copy cut short
                    os.ftruncate(spans[0].reader.fd, cut)
                elif name == "changed":  # the file cut short
                    os.truncate(path, cut)
                return real(data, spans, too_deep)
            monkeypatch.setattr(serialize, "_span_model", fill)
            monkeypatch.setattr("sys.stdin",
                                io.TextIOWrapper(io.BytesIO(text)))
            try:
                serialize.load_model("-" if stdin else str(path))
                outcomes[name, stdin] = 0
            except ModelError as exc:
                outcomes[name, stdin] = exc.code
    codes = {"model": 0, "bad value": 12, "not canonical": 0, "indented": 0,
             "invalid": 10, "changed": 10}
    assert outcomes == {(name, stdin): code for name, code in codes.items()
                        for stdin in (False, True)}
    assert len(opened) == len(spools) == len(texts)
    assert all(fh.closed for fh in opened + spools)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_pauses_the_collector_and_puts_back_the_callers(
        tmp_path, monkeypatch, enabled):
    """The cyclic collector is off while ``json.loads`` and ``parse_model``
    run inside ``load_model``, and the caller's setting, on or off, is back
    after a load that gives a model, whether its tables are read from
    their spans or by ``json`` whole, and after a load error with each
    code: 10 (a missing file and bad JSON), 11 and 12."""
    during = set()

    def recording(real):
        def call(*args, **kwargs):
            during.add((real.__name__, gc.isenabled()))
            return real(*args, **kwargs)
        return call
    monkeypatch.setattr(json, "loads", recording(json.loads))
    monkeypatch.setattr(serialize, "parse_model",
                        recording(serialize.parse_model))
    raw = _report_bytes()
    group = {"kind": "group", "order": 2, "identity": 0,
             "mult": [[0, 1], [1, 0]]}
    texts = {"spans": raw, "json": raw.replace(b"],[", b"], [", 1),
             "invalid": raw[:-1],
             "unknown kind": json.dumps({**group, "kind": "ring"}).encode(),
             "bad index": json.dumps({**group, "identity": 2}).encode()}
    codes = {"spans": 0, "json": 0, "missing": 10, "invalid": 10,
             "unknown kind": 11, "bad index": 12}
    (gc.enable if enabled else gc.disable)()
    try:
        for name, code in codes.items():
            path = tmp_path / f"{name}.json"
            if name in texts:
                path.write_bytes(texts[name])
            during.clear()
            try:
                serialize.load_model(str(path))
                assert code == 0, name
            except ModelError as exc:
                assert exc.code == code, (name, exc.message)
            assert gc.isenabled() == enabled, name
            called = {"missing": (), "invalid": ("loads",)}.get(
                name, ("loads", "parse_model"))
            assert during == {(f, False) for f in called}, name
    finally:
        gc.enable()


def test_a_table_json_reads_is_freed_before_the_collector_is_back_on(
        tmp_path, monkeypatch):
    """A ``comp`` table that ``json`` reads whole is no longer held when
    ``load_model`` puts the collector back on, so the collector's first
    pass does not scan its rows."""
    class Rows(list):  # a list that a weak reference can follow
        pass
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(json.loads(canonical_dumps(
        groupoid_to_json(pair_groupoid(3)))), indent=1))
    tables, held = [], []
    real_loads, real_enable = json.loads, gc.enable

    def loads(*args, **kwargs):
        data = real_loads(*args, **kwargs)
        data["comp"] = Rows(data["comp"])
        tables.append(weakref.ref(data["comp"]))
        return data

    def enable():
        held.append([ref() is not None for ref in tables])
        real_enable()
    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(gc, "enable", enable)
    assert gc.isenabled()
    serialize.load_model(str(path))
    assert held == [[False]]


# --- bundles built from a payload ---------------------------------------------

@pytest.mark.parametrize("name", sorted(named_bundles()))
def test_build_bundle_gives_the_fixture_back(name):
    bundle = named_bundles()[name]
    diag, built = serialize.build_bundle(
        parse_model(bundle_to_json(bundle)).data)
    assert diag.ok
    assert built.base == bundle.base
    assert built.group.mult == bundle.group.mult
    assert built.labels == bundle.labels


def test_build_bundle_refuses_a_group_table_that_is_not_latin():
    model = bundle_to_json(named_bundles()["edge-s3"])
    model["group"] = {"order": 2, "identity": 0, "mult": [[0, 1], [1, 1]]}
    model["labels"] = [0]
    diag, built = serialize.build_bundle(parse_model(model).data)
    assert (diag.failure, diag.witness) == ("row 1 not a permutation", (1,))
    assert built is None
