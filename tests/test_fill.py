"""The blockwise fill of a row table against the whole-table fill of the
test oracle, and the memory the fill takes.

``RowTable._fill`` reads the triples ``_BLOCK`` at a time.  At every block
size, a groupoid's composition table and an action table built from
seeded corruptions (indices and values out of range, entries off the
domain, missing entries, and repeated pairs within a block and across a
block boundary) must give the oracle's rows, flaw and, on a whole table,
values.  For the triples A, B, B, A of an action, the first triple that
repeats a pair is A, not the B that is seen again first.
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

BLOCKS = [1, 7, 40, 100, groupoid_module._BLOCK]
BUNDLES = ("edge-s3", "triangle-z2-twisted")


def _tables(name):
    """A groupoid (its own regular action) and its ambit's action, each with
    a function that builds it from triples."""
    gpd = groupoid_of_bundle(named_bundles()[name]).groupoid
    a = build_ambit(gpd, 0).action
    return ((gpd, lambda triples: Groupoid.from_tables(
                gpd.n_objects, gpd.src, gpd.tgt, gpd.unit, gpd.inv, triples)),
            (a, lambda triples: GroupoidAction.from_triples(
                gpd, a.n_points, a.anchor, triples)))


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
    yield "mixed", repeat_at(edited(3, lambda r: r.__setitem__(
        2, rng.choice([-1, n]))), block - 1)[:-2]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", BUNDLES)
def test_blockwise_fill_agrees_with_the_whole_table_fill(name, block,
                                                         monkeypatch):
    monkeypatch.setattr(groupoid_module, "_BLOCK", block)
    rng = random.Random(f"{name}:{block}")
    for table, build in _tables(name):
        for case, triples in _corruptions(table, rng, block):
            for seed in range(3):
                built = build(triples)
                row_off, val, flaw = whole_table_fill(table, triples)
                got = None if built.flaw is None else (
                    built.flaw.failure, built.flaw.witness,
                    built.flaw.structural, built.flaw.notes)
                assert got == flaw, (case, seed)
                assert built.row_off.tolist() == row_off.tolist(), case
                if flaw is None:
                    assert built.val.tolist() == val.tolist(), case
                triples = [list(t) for t in triples]
                rng.shuffle(triples)
            if case == "whole":
                assert built.flaw is None
                assert built.val.tolist() == table.val.tolist()


def test_fill_allocates_only_the_values_and_byte_masks(monkeypatch):
    """Building from a 72,000-entry int64 table a block of 1,024 triples at
    a time takes the values (8 bytes an entry), five one-byte masks (range,
    value, domain and repeat flags of the triples; the entries placed) and
    a fixed slack: no whole-table temporary of int64 positions or counts."""
    monkeypatch.setattr(groupoid_module, "_BLOCK", 1024)
    gpd = groupoid_of_bundle(large_random_bundle(5, 3, "S4")).groupoid
    comp = gpd.triple_array()
    assert len(comp) == 72_000
    args = (gpd.n_objects, gpd.src, gpd.tgt, gpd.unit, gpd.inv, comp)
    tracemalloc.start()
    try:
        built = Groupoid.from_tables(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.flaw is None
    assert np.array_equal(built.val, gpd.val)
    assert peak < built.val.nbytes + 5 * len(comp) + (256 << 10), peak
