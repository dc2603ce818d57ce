"""Seeded corpora of broken arguments, one per structured type, shared by
the refusal gate (``test_refusal.py``) and the fuzz tests.

The row tables: each case is a groupoid or an action built directly from
its constructor's fields, with one field changed: an array with one entry
set to a value from -3 to 3 past its greatest, one entry dropped or added,
or reversed.  Case ``case`` is seeded by ``"table fuzz {case}"``, so the
corpus is the same from run to run and from test to test.  Beside it,
edited group tables, bundle labellings, graphs, connections, maps and
transport groupoids, each seeded the same way under its own name.
"""
import dataclasses
import random
import signal
from contextlib import contextmanager

import numpy as np

from gpdflow.algebra import preset_group
from gpdflow.bundle import BaseGraph
from gpdflow.dynamics import GroupoidAction
from gpdflow.ehresmann import ArrowCoordinate, Connection, groupoid_of_bundle
from gpdflow.fixtures import named_bundles
from gpdflow.groupoid import Groupoid, pair_groupoid

CASES = 1000
GROUP_CASES = 150
# an entry that is no integer, or (the numpy one) one that is
ODD_ENTRIES = (None, True, False, 1.0, "0", np.int64(1))


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def over(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def corrupt(fields: dict, rng: random.Random) -> tuple[dict, str]:
    """One array of a table's constructor fields changed, and its name."""
    key = rng.choice(sorted(k for k in fields if k != "gpd"))
    arr = np.asarray(fields[key], dtype=np.int64).copy()
    top = int(arr.max(initial=0))
    how = rng.choice(("set", "set", "drop", "add", "reverse"))
    if how == "set" and arr.size:
        arr[rng.randrange(arr.size)] = rng.randrange(-3, top + 4)
    elif how == "drop" and arr.size:
        arr = np.delete(arr, rng.randrange(arr.size))
    elif how == "add":
        arr = np.insert(arr, rng.randrange(arr.size + 1),
                        rng.randrange(-1, top + 2))
    else:
        arr = arr[::-1].copy()
    return {**fields, key: arr}, key


def corrupted_tables(gpd: Groupoid, act: GroupoidAction):
    """``CASES`` seeded single-field corruptions, by :func:`corrupt`, of
    ``gpd`` and of ``act`` in turn, each built directly, as ``(kind, field
    name, table)``."""
    tables = (
        (Groupoid, {"src": gpd.src, "tgt": gpd.tgt, "unit": gpd.unit,
                    "inv": gpd.inv, "val": gpd.val}),
        (GroupoidAction, {"gpd": gpd, "anchor": act.anchor, "val": act.val}))
    for case in range(CASES):
        rng = random.Random(f"table fuzz {case}")
        kind, clean = tables[case % 2]
        fields, key = corrupt(clean, rng)
        yield kind, key, kind(**fields)


def edited_entries(seq: list, n: int, rng: random.Random):
    """``seq`` with one entry set to a value from -1 to ``n`` or to one of
    :data:`ODD_ENTRIES`, one dropped or one added; or ``seq`` as a tuple,
    an array or None."""
    seq, how = list(seq), rng.choice(("set", "set", "odd", "drop", "add",
                                      "whole"))
    at = rng.randrange(len(seq) + (how == "add")) if seq else 0
    if how == "set" and seq:
        seq[at] = rng.randrange(-1, n + 1)
    elif how == "odd" and seq:
        seq[at] = rng.choice(ODD_ENTRIES)
    elif how in ("add", "drop", "set", "odd"):
        seq.insert(at, rng.randrange(-1, n + 1))
    else:
        return rng.choice((tuple(seq), np.array(seq, dtype=np.int64), None))
    return seq


def edited_group_tables():
    """``GROUP_CASES`` seeded single-entry edits of the S3, Z4, D4, Q8 and
    Z6 tables, as ``(preset, edit, table)``: one entry set out of range
    (from -3 to -1, or from the order to the order + 2), or set to another
    element, or one row cut short at an entry.  Case ``case`` is seeded by
    ``"group fuzz {case}"``."""
    for case in range(GROUP_CASES):
        rng = random.Random(f"group fuzz {case}")
        name = rng.choice(("S3", "Z4", "D4", "Q8", "Z6"))
        table = [list(row) for row in preset_group(name).mult]
        n = len(table)
        i, j = rng.randrange(n), rng.randrange(n)
        edit = rng.choice(("out of range", "another element", "cut short"))
        if edit == "out of range":
            table[i][j] = rng.choice((-3, -2, -1, n, n + 1, n + 2))
        elif edit == "another element":
            table[i][j] = rng.choice([g for g in range(n) if g != table[i][j]])
        else:
            del table[i][j:]
        yield name, edit, table


def odd_tables():
    """Z3's table, as ``(preset, edit, table)``, broken once in each way the
    table rule names: not a list, empty, a row not a list or ragged, an
    entry that is no int, negative or past the end; and kept whole with
    tuples for rows."""
    z3 = [list(row) for row in preset_group("Z3").mult]
    for table in (None, 5, "012", {}, [], ()):
        yield "Z3", "not a table", table
    for row in (5, None, [1, 2], [1, 2, 0, 1], (1, 2, 0)):
        yield "Z3", "row", [z3[0], row, z3[2]]
    for entry in ODD_ENTRIES + (-1, 3):
        yield "Z3", "entry", [z3[0], [1, entry, 0], z3[2]]


def edited_bundles():
    """600 seeded edits of the fixture bundles' dart labels, as ``(clean,
    labels)``: one label set to a value from -3 to the group's order + 2,
    dropped or added, seeded by ``"bundle fuzz {case}"``."""
    bundles = list(named_bundles().values())
    for case in range(600):
        rng = random.Random(f"bundle fuzz {case}")
        b = rng.choice(bundles)
        labels, order = list(b.labels), b.group.order
        how = rng.choice(("set", "drop", "add"))
        if how == "set" and labels:
            labels[rng.randrange(len(labels))] = rng.randrange(-3, order + 3)
        elif how == "drop" and labels:
            del labels[rng.randrange(len(labels))]
        else:
            labels.insert(rng.randrange(len(labels) + 1),
                          rng.randrange(-3, order + 3))
        yield b, labels


def edited_graphs():
    """200 seeded edits of the fixture bundles' graphs, as ``(n_vertices,
    edges)``: one endpoint set to a value from -1 to ``n_vertices`` or to
    one of :data:`ODD_ENTRIES`, one edge dropped or added, or one vertex
    more, which leaves it disconnected.  Case ``case`` is seeded by
    ``"graph fuzz {case}"``."""
    graphs = sorted({b.base for b in named_bundles().values()},
                    key=lambda g: (g.n_vertices, g.edges))
    for case in range(200):
        rng = random.Random(f"graph fuzz {case}")
        g = rng.choice(graphs)
        n, edges = g.n_vertices, [list(e) for e in g.edges]
        how = rng.choice(("endpoint", "endpoint", "drop", "add", "vertex"))
        if how == "endpoint" and edges:
            edges[rng.randrange(len(edges))][rng.randrange(2)] = rng.choice(
                (rng.randrange(-1, n + 1),) + ODD_ENTRIES)
        elif how == "drop" and edges:
            del edges[rng.randrange(len(edges))]
        elif how == "vertex":
            n += 1
        else:
            edges.append([rng.randrange(n), rng.randrange(n)])
        yield n, edges


def path_connection(gpd: Groupoid) -> Connection:
    """The connection of ``gpd`` along the path through its objects."""
    base = BaseGraph.path(gpd.n_objects)
    return Connection(base, [int(gpd.hom(base.dsrc(d), base.dtgt(d))[0])
                             for d in range(base.n_darts)])


def edited_connections():
    """200 seeded edits of the path connection of ``pair_groupoid(3)``, as
    ``(base, arrows)``: the arrows edited by :func:`edited_entries`, or the
    base swapped for None, its edges, a graph on 4 vertices or a cycle.
    Case ``case`` is seeded by ``"connection fuzz {case}"``."""
    clean = path_connection(pair_groupoid(3))
    for case in range(200):
        rng = random.Random(f"connection fuzz {case}")
        if rng.random() < 0.75:
            yield clean.base, edited_entries(clean.arrows, 9, rng)
        else:
            yield rng.choice((None, clean.base.edges, BaseGraph.path(4),
                              BaseGraph.cycle(3))), clean.arrows


def edited_maps(gpd: Groupoid, act: GroupoidAction):
    """Maps on the action ``act`` of ``gpd``, as ``(source, target,
    values)``: each corrupted action of :func:`corrupted_tables` as the
    target of the identity's values, as the source, and as both; then 200
    seeded edits of the identity map, its values edited by
    :func:`edited_entries` or its source or target swapped for ``gpd``,
    None or an action of another groupoid.  Case ``case`` is seeded by
    ``"map fuzz {case}"``."""
    same = list(range(act.n_points))
    for kind, _, t in corrupted_tables(gpd, act):
        if kind is GroupoidAction:
            yield from ((act, t, same), (t, act, same),
                        (t, t, list(range(t.n_points))))
    other = GroupoidAction(pair_groupoid(3), act.anchor, act.val)
    for case in range(200):
        rng = random.Random(f"map fuzz {case}")
        fields = [act, act, same]
        at = rng.randrange(3)
        fields[at] = edited_entries(same, act.n_points, rng) if at == 2 \
            else rng.choice((gpd, None, other))
        yield tuple(fields)


def edited_transports():
    """200 seeded edits of the transport groupoid of ``edge-s3``, each made
    by ``dataclasses.replace``: its ``index`` with one cell set to a value
    from -1 to the arrow count or with the last twist cut off, one of its
    ``coords`` set to another arrow's or given a value out of range, its
    ``connection`` edited, or its ``groupoid`` corrupted by
    :func:`corrupt` or swapped for another bundle's.  Case ``case`` is
    seeded by ``"transport fuzz {case}"``."""
    bundles = named_bundles()
    tg = groupoid_of_bundle(bundles["edge-s3"])
    other = groupoid_of_bundle(bundles["wedge2-z3"]).groupoid
    g = tg.groupoid
    arrays = {"src": g.src, "tgt": g.tgt, "unit": g.unit, "inv": g.inv,
              "val": g.val}
    for case in range(200):
        rng = random.Random(f"transport fuzz {case}")
        key = rng.choice(("index", "coords", "connection", "groupoid"))
        if key == "index":
            value = tg.index.copy()
            if rng.random() < 0.8:
                cell = tuple(rng.randrange(k) for k in value.shape)
                value[cell] = rng.randrange(-1, g.n_arrows + 1)
            else:
                value = value[:, :, :-1]
        elif key == "coords":
            value, at = list(tg.coords), rng.randrange(len(tg.coords))
            value[at] = rng.choice(tg.coords) if rng.random() < 0.5 else \
                ArrowCoordinate(*(rng.randrange(-1, 8) for _ in range(3)))
        elif key == "connection":
            value = Connection(tg.connection.base, [
                rng.randrange(g.n_arrows) for _ in tg.connection.arrows])
        else:
            value = rng.choice((other, Groupoid(**corrupt(arrays, rng)[0])))
        yield key, dataclasses.replace(tg, **{key: value})
