"""Model loading: the fast table check against the per-element scanner, and
builds from the validated arrays against builds from the python lists.

The oracle for a load error is the scanner itself: ``_int_table`` swapped
for a version that runs only the per-element check must give the same code
and message as the fast path on every seeded single-element mutation.
"""
import copy
import random

import numpy as np
import pytest

from gpdflow import serialize
from gpdflow.dynamics import build_ambit
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import matrix_bundles, named_bundles
from gpdflow.serialize import ModelError, ambit_to_json, build_action, \
    build_groupoid, bundle_to_json, parse_model, transport_to_json

MUTATIONS = (True, 1.0, "1", None, [1], "short row", "long row", -1,
             "upper bound")


def _models() -> dict:
    bundle = named_bundles()["triangle-z2-twisted"]
    tg = groupoid_of_bundle(bundle)
    return {"bundle": bundle_to_json(bundle),
            "groupoid": transport_to_json(tg),
            "ambit": ambit_to_json(build_ambit(tg.groupoid, 0))}


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
    scan()
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


@pytest.mark.parametrize("kind", ["bundle", "groupoid", "ambit"])
def test_fast_check_accepts_what_the_scanner_accepts(kind, monkeypatch):
    data = _models()[kind]
    fast = parse_model(data).tables
    monkeypatch.setattr(serialize, "_int_table", _scanner_only)
    scanned = parse_model(data).tables
    assert fast.keys() == scanned.keys()
    for key in fast:
        assert np.array_equal(fast[key], scanned[key])


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
        transport = transport_to_json(tg)
        ambit = ambit_to_json(build_ambit(tg.groupoid, 0))
        broken = dict(transport, comp=_flawed(transport["comp"]))
        for data in (transport, broken):
            model = parse_model(data)
            built, _ = build_groupoid(model.data, model.tables)
            assert model.tables == {}, name  # the build took the array
            plain, _ = build_groupoid(model.data)
            _same_tables(built, plain, name)
            flawed += built.flaw is not None
        if len(ambit["act"]) < 2:
            continue
        for data in (ambit, dict(ambit, act=_flawed(ambit["act"]))):
            model = parse_model(data)
            built, _ = build_action(model.data, model.tables)
            assert model.tables == {}, name
            plain, _ = build_action(model.data)
            _same_tables(built, plain, name)
            _same_tables(built.gpd, plain.gpd, name)
            flawed += built.flaw is not None
    assert flawed >= 30
