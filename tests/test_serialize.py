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
import hashlib
import io
import json
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpdflow import serialize
from gpdflow.algebra import preset_group
from gpdflow.bundle import BaseGraph, CocycleBundle
from gpdflow.cli import COMMANDS, fixture_models, run_command
from gpdflow.dynamics import build_ambit
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import large_random_bundle, matrix_bundles, \
    named_bundles
from gpdflow.serialize import ModelError, ambit_to_json, build_action, \
    build_groupoid, bundle_to_json, canonical_dumps, group_to_json, \
    parse_model, transport_to_json

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
    """Every array in a payload, by its path."""
    found = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            found[path + (key,)] = value
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


def test_builds_from_arrays_match_builds_from_lists():
    flawed = 0
    for name, bundle in sorted(matrix_bundles().items()):
        tg = groupoid_of_bundle(bundle)
        transport = _lists(transport_to_json(tg))
        ambit = _lists(ambit_to_json(build_ambit(tg.groupoid, 0)))
        broken = dict(transport, comp=_flawed(transport["comp"]))
        for data in (transport, broken):
            model = parse_model(data)
            assert isinstance(model.data["comp"], np.ndarray), name
            assert isinstance(data["comp"], list), name  # a copy holds it
            built, _ = build_groupoid(model.data)
            plain, _ = build_groupoid(data)
            _same_tables(built, plain, name)
            flawed += built.flaw is not None
        if len(ambit["act"]) < 2:
            continue
        for data in (ambit, dict(ambit, act=_flawed(ambit["act"]))):
            model = parse_model(data)
            assert isinstance(model.data["act"], np.ndarray), name
            assert isinstance(model.data["groupoid"]["comp"], np.ndarray)
            assert isinstance(data["act"], list), name
            assert isinstance(data["groupoid"]["comp"], list), name
            built = build_action(model.data)
            plain = build_action(data)
            _same_tables(built, plain, name)
            _same_tables(built.gpd, plain.gpd, name)
            flawed += built.flaw is not None
    assert flawed >= 30


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

    def record(case, data):
        assert case not in outcomes, case
        try:
            parse_model(data)
            outcomes[case] = "ok"
        except ModelError as exc:
            outcomes[case] = [exc.code, exc.message]
    for kind, model in _corpus_models().items():
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
    return outcomes


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
    """The reference encoding: ``json`` with every array as a list."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=lambda value: value.tolist()
                      if isinstance(value, np.ndarray) else int(value))


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
    assert canonical_dumps(arr) == \
        json.dumps(arr.tolist(), separators=(",", ":"))


@pytest.mark.parametrize("arr", [np.array([[3, -1, 4]]), np.array([-10]),
                                 np.array([10 ** 12]), np.array([[True]]),
                                 np.array([0.5]), np.zeros((2, 0), int),
                                 np.array(7)], ids=str)
def test_table_text_falls_back_to_json(arr, monkeypatch):
    def unused():
        raise AssertionError("the kernel ran")
    monkeypatch.setattr(serialize, "_digit_groups", unused)
    assert canonical_dumps(arr) == _plain_json(arr.tolist())


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_pieces_join_to_json_at_every_block_size(rows, monkeypatch):
    """Integer arrays written ``rows`` rows at a time, 1-D and 2-D, a row
    count the block does not divide, arrays on the ``json`` path, and every
    fixture report: the pieces join to the ``json`` text, and an array on
    the kernel path comes in one piece per block."""
    monkeypatch.setattr(serialize, "_ROWS", rows)
    fallback = [np.array([[3, -1, 4]]), np.array([10 ** 12, 0]),
                np.zeros((0, 3), np.int64), np.zeros(0, np.int64)]
    for arr in [*_tables(), *fallback]:
        pieces = list(serialize.canonical_pieces(arr))
        assert "".join(pieces) == _plain_json(arr.tolist())
        kernel = arr.size and arr.min() >= 0 and arr.max() < 10 ** 12
        assert len(pieces) == (-(-len(arr) // rows) if kernel else 1)
    for command in COMMANDS:
        report = run_command(command, fixture_models(command))
        assert "".join(serialize.canonical_pieces(report)) == \
            _plain_json(report)


@pytest.mark.parametrize("command", COMMANDS)
def test_canonical_dumps_matches_json_on_fixture_reports(command):
    report = run_command(command, fixture_models(command))
    assert canonical_dumps(report) == _plain_json(report)


def test_canonical_dumps_matches_json_on_nested_values():
    values = [
        {"b": [np.arange(3), {2: np.arange(2), 1: "\u0000"},
               (np.zeros((0, 3), np.int64), "x")],
         "\u0000": "\u0000é", "a": {"y": [[WIDE]], "x": np.int64(7)},
         "c": {0.5: [np.arange(1)], -1.0: None}, "": ()},
        [EDGES, [], {}, "\u0000", [np.array([[5, -5]])]],
        (np.arange(4).reshape(2, 2), {"k": np.array([1.5, 2.0])}),
        np.arange(3), np.int64(3), {"z": 1, "é": [np.arange(2)]},
    ]
    for value in values:
        assert canonical_dumps(value) == _plain_json(value), value


# --- loading: the byte-level table decode against json.loads ----------------------


def _text_mode_load(path: str) -> serialize.Model:
    """The oracle: the whole input read as text (a file with universal
    newlines, stdin as it comes) and decoded by ``json``, then
    ``parse_model``, with ``load_model``'s codes and messages."""
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
    return parse_model(data)


def _outcome(load, path: str):
    """(kind, canonical text, arrays, input digest) of a load, or the
    error's (code, message).  The oracle's digest is the sha256 of its
    model's canonical text."""
    try:
        model = load(path)
    except ModelError as exc:
        return exc.code, exc.message
    arrays = _arrays(model.data)
    assert all(a.dtype == np.int64 for a in arrays.values())
    text = canonical_dumps(model.data)
    digest = hashlib.sha256(text.encode()).hexdigest() \
        if load is _text_mode_load else model.digest
    return (model.kind, text, {key: a.tolist() for key, a in arrays.items()},
            digest)


def _load_both(raw: bytes, tmp_path, monkeypatch, stdin: bool = False):
    """(load_model's outcome, the oracle's, whether load_model decoded the
    tables from the bytes) for one input, from a file or from stdin.  A
    decoded input must also equal ``json``'s reading of all of it, the
    tables the model does not use included."""
    decoded = []

    def spy(buf):
        result = real(buf)
        decoded.append(result is not None)
        if result is not None:
            assert _plain_json(result[0]) == _plain_json(json.loads(buf))
        return result
    real = serialize._decode_tables
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    name = "-" if stdin else str(path)
    outcomes = []
    for load in (serialize.load_model, _text_mode_load):
        with monkeypatch.context() as m:
            m.setattr(serialize, "_decode_tables", spy)
            if stdin:
                m.setattr("sys.stdin", io.TextIOWrapper(
                    io.BytesIO(raw), encoding="utf-8", newline="\n"))
            outcomes.append(_outcome(load, name))
    return outcomes[0], outcomes[1], decoded[0]


def _fixture_texts() -> list[str]:
    """Every fixture report, and every fixture model on its own."""
    texts = {}
    for command in COMMANDS:
        models = fixture_models(command)
        texts[canonical_dumps(run_command(command, models))] = None
        for _, model in models:
            texts[canonical_dumps(model.data)] = None
    return list(texts)


# bytes of table text read at a time: the former 1 MB default, the
# default, and small enough that block ends fall all over each table
BLOCKS = [1 << 20, serialize._BLOCK, 8]


@pytest.mark.parametrize("block", BLOCKS)
def test_decode_agrees_with_json_on_fixture_texts(block, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(serialize, "_BLOCK", block)
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
    monkeypatch.setattr(serialize, "_BLOCK", block)
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


@pytest.mark.parametrize("block", BLOCKS)
def test_decode_and_digest_agree_with_json_from_stdin(block, tmp_path,
                                                      monkeypatch):
    """Every fixture text and every seeded text mutation read from stdin:
    the model and its input digest (hashed from the input's bytes where a
    table was decoded from them) equal the oracle's, with the decode taken
    on some inputs and not on others."""
    monkeypatch.setattr(serialize, "_BLOCK", block)
    texts = _fixture_texts()
    for command in ("groupoidify", "ambit"):
        report = canonical_dumps(run_command(command,
                                             fixture_models(command)))
        for mutation, (edit, _) in sorted(TEXT_MUTATIONS.items()):
            rng = random.Random(f"{mutation}:{command}")
            texts += [edit(report, rng) for _ in range(4)]
    paths = set()
    for text in texts:
        fast, plain, decoded = _load_both(text.encode(), tmp_path,
                                          monkeypatch, stdin=True)
        assert fast == plain
        paths.add(decoded)
    assert paths == {False, True}


def test_decode_takes_the_table_and_one_block_of_temporaries():
    """Decoding a 72,000-row ``comp`` table (about 1 MB of text, four
    blocks) allocates, over the input bytes, the decoded table and a fixed
    slack for one block's temporaries: the text slice, its copy without
    brackets, the parsed values and their re-encoding."""
    gpd = groupoid_of_bundle(large_random_bundle(5, 3, "S4")).groupoid
    raw = canonical_dumps(serialize.groupoid_to_json(gpd)).encode()
    tracemalloc.start()
    try:
        data, _ = serialize._decode_tables(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data["comp"].shape == (72_000, 3)
    assert peak < data["comp"].nbytes + (3 << 20), peak


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
