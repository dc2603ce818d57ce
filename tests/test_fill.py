"""The blockwise fill of a row table against the whole-table fill of the
test oracle, and the memory the fill takes.

``RowTable._fill`` reads the triples ``_BLOCK`` at a time, in one pass.
At every block size, a groupoid's composition table and an action table
built from seeded corruptions (indices and values out of range, entries
off the domain, missing entries, repeated pairs within a block and across
a block boundary, and one pair given two values out of range), given to
the fill as int32 and to the oracle as int64, must give the oracle's rows,
flaw and, on a whole table, values.

One flaw policy serves both kinds of table: a groupoid's corruption built
again as its regular action gives the same kind of flaw at the same
witness, reading its block source once, and a shuffled copy of a
corruption gives the same kind of flaw at the same pair.  For the triples
A, B, B, A and B, A, A, B the repeated pair named is the lesser, A,
whichever copy is seen again first.
"""
import random
import tracemalloc

import numpy as np
import pytest

from gpdflow import groupoid as groupoid_module
from gpdflow.dynamics import GroupoidAction, build_ambit
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import large_random_bundle, named_bundles
from gpdflow.groupoid import Groupoid

from law_oracle import whole_table_fill

# entries read at a time: small ones, the former default and the default
BLOCKS = [1, 7, 40, 100, 1 << 14, groupoid_module._BLOCK]
BUNDLES = ("edge-s3", "triangle-z2-twisted")


def _tables(name):
    """A groupoid (its own regular action) and its ambit's action, each with
    a function that builds it from triples."""
    gpd = groupoid_of_bundle(named_bundles()[name]).groupoid
    a = build_ambit(gpd, 0).action
    return ((gpd, lambda triples: Groupoid.from_tables(
                gpd.src, gpd.tgt, gpd.unit, gpd.inv, triples)),
            (a, lambda triples: GroupoidAction.from_triples(
                gpd, a.anchor, triples)))


def _corruptions(table, rng, block):
    """Seeded edits of the table's triples, by name: each a list of
    ``[y, h, y . h]`` rows."""
    gpd, n = table.gpd, table.anchor.shape[0]
    whole = table.triples()

    def edited(count, edit):
        rows = [list(t) for t in whole]
        for i in rng.sample(range(len(rows)), count):
            edit(rows[i])
        return rows

    def off_domain(row):
        row[1] = rng.choice([h for h in range(gpd.n_arrows)
                             if gpd.src[h] != table.anchor[row[0]]])

    def repeat_at(rows, at):
        """A copy of a row, its value changed, put at ``at`` (or the end)
        and its original just before it."""
        rows = [list(t) for t in rows]
        y, h, z = rows.pop(rng.randrange(len(rows)))
        at = min(at, len(rows))
        rows[at:at] = [[y, h, z], [y, h, (z + 1) % n]]
        return rows

    shuffled = [list(t) for t in whole]
    rng.shuffle(shuffled)
    tied = [list(t) for t in whole]  # one pair, two values out of range
    y, h, _ = tied.pop(rng.randrange(len(tied)))
    tied[block - 1:block - 1] = [[y, h, n], [y, h, -1]]
    a, b = whole[3], whole[5]
    rest = [t for t in whole if t not in (a, b)]
    yield "whole", whole
    yield "shuffled", shuffled
    yield "point out of range", edited(2, lambda r: r.__setitem__(
        0, rng.choice([-1, n, n + 7])))
    yield "arrow out of range", edited(1, lambda r: r.__setitem__(
        1, rng.choice([-3, gpd.n_arrows])))
    yield "value out of range", edited(3, lambda r: r.__setitem__(
        2, rng.choice([-1, n])))
    yield "off the domain", edited(2, off_domain)
    yield "missing", [t for i, t in enumerate(whole)
                      if i not in rng.sample(range(len(whole)), 3)]
    yield "repeat in a block", repeat_at(whole, rng.randrange(len(whole)))
    yield "repeat across blocks", repeat_at(whole, block - 1)
    yield "A, B, B, A", [a, b, b, a] + rest
    yield "B, A, A, B", [b, a, a, b] + rest
    yield "values out of range at one pair", tied
    yield "mixed", repeat_at(edited(3, lambda r: r.__setitem__(
        2, rng.choice([-1, n]))), block - 1)[:-2]


def _kind(table):
    """The kind of a table's flaw, by its place in the one flaw order, and
    its witness, structural flag and notes; None for no flaw."""
    flaw = table.flaw
    if flaw is None:
        return None
    labels = type(table)._FLAW_LABELS + ("composability domain violated",)
    return (labels.index(flaw.failure), flaw.witness, flaw.structural,
            flaw.notes)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", BUNDLES)
def test_blockwise_fill_agrees_with_the_whole_table_fill(name, block,
                                                         monkeypatch):
    monkeypatch.setattr(groupoid_module, "_BLOCK", block)
    rng = random.Random(f"{name}:{block}")
    for table, build in _tables(name):
        for case, triples in _corruptions(table, rng, block):
            for seed in range(3):
                built = build(np.array(triples, np.int32))
                row_off, val, flaw = whole_table_fill(
                    table, np.array(triples, np.int64))
                got = None if built.flaw is None else (
                    built.flaw.failure, built.flaw.witness,
                    built.flaw.structural, built.flaw.notes)
                assert got == flaw, (case, seed)
                assert built.row_off.tolist() == row_off.tolist(), case
                if flaw is None:
                    assert built.val.tolist() == val.tolist(), case
                # the same kind at the same pair; a value out of range is
                # the earlier triple's, so it may follow the shuffle
                kind = got and (got[0], got[1][:2], got[2], got[3])
                if seed == 0:
                    unshuffled = kind
                assert kind == unshuffled, (case, seed)
                if table is table.gpd:  # again as its regular action
                    calls = []

                    def blocks():
                        calls.append(1)
                        return groupoid_module.blocks_of(
                            np.array(triples, np.int32))
                    regular = GroupoidAction.from_triples(
                        table, table.tgt, blocks)
                    assert _kind(regular) == _kind(built), (case, seed)
                    assert len(calls) == 1, (case, seed)  # one pass
                triples = [list(t) for t in triples]
                rng.shuffle(triples)
            if case == "whole":
                assert built.flaw is None
                assert built.val.tolist() == table.val.tolist()


def test_flaw_keys_of_an_int32_table_do_not_wrap():
    """A discrete groupoid of 50,000 objects (units only) from an int32
    table with two values out of range, at a high arrow and then at a low
    one: the witness is the low one, the least ``(g, h)``, as in the
    oracle's int64 fill, though ``g * k`` of the high one would be past
    ``2**31``."""
    m = 50_000
    units = np.arange(m)
    comp = np.repeat(units.astype(np.int32)[:, None], 3, axis=1)
    comp[[m - 10, 3], 2] = m
    gpd = Groupoid.from_tables(units, units, units, units, comp)
    assert gpd.flaw.failure == "comp value out of range"
    assert gpd.flaw.witness == (3, 3, m)
    _, _, flaw = whole_table_fill(gpd, comp.astype(np.int64))
    assert flaw == (gpd.flaw.failure, gpd.flaw.witness, True, {})


def test_fill_allocates_only_the_values(monkeypatch):
    """Building from a 72,000-entry int64 table a block of 1,024 triples at
    a time takes the values (``val.itemsize`` bytes an entry, 2 for these
    600 arrows) and a fixed slack for one block's temporaries (about 64
    KB): no whole-table temporary of int64 positions or counts, and no
    whole-table mask of the entries placed, which would take 72 KB more
    than the slack leaves."""
    monkeypatch.setattr(groupoid_module, "_BLOCK", 1024)
    gpd = groupoid_of_bundle(large_random_bundle(5, 3, "S4")).groupoid
    comp = gpd.triple_array()
    assert len(comp) == 72_000
    args = (gpd.src, gpd.tgt, gpd.unit, gpd.inv, comp)
    tracemalloc.start()
    try:
        built = Groupoid.from_tables(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.flaw is None and built.val.dtype == np.int16
    assert np.array_equal(built.val, gpd.val)
    assert peak < built.val.itemsize * built.val.size + (96 << 10), peak
