"""Tests for the groupoid core: verification, transitivity, vertex groups."""
import dataclasses
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from gpdflow import groupoid as groupoid_module
from gpdflow.algebra import preset_group
from gpdflow.amenability import fiber_action, invariant_sections, \
    verify_invariant_section
from gpdflow.bundle import BaseGraph
from gpdflow.diagnostics import Diagnostics
from gpdflow.ehresmann import Connection, bundle_of_groupoid, \
    groupoid_of_bundle, verify_connection
from gpdflow.fixtures import large_random_bundle, matrix_bundles
from gpdflow.dynamics import EquivariantMap, GroupoidAction, base_action, \
    build_ambit, disjoint_union_actions, enumerate_equivariant_maps, \
    fiber_semigroup, invariant_subsets, minimal_flow_uniqueness, \
    minimal_subflows, orbits, restrict_action, universal_map, verify_action, \
    verify_equivariant_map
from gpdflow.groupoid import (
    Groupoid,
    check_local_triviality,
    disjoint_union,
    hom_set,
    is_transitive,
    normalize_groupoid,
    one_object_groupoid,
    pair_groupoid,
    verify_groupoid,
    verify_groupoid_iso,
    vertex_group,
    vertex_groups_isomorphic,
)
from gpdflow.serialize import action_to_json, canonical_dumps, \
    groupoid_to_json

from law_oracle import brute_closure, brute_groupoid_violation, \
    brute_local_triviality, groupoid_law_broken, relabelled
from table_corpus import corrupted_tables

# entries read at a time: small enough that block ends fall inside rows,
# two former defaults and the default
BLOCKS = [1, 7, 40, 100, 1 << 14, 1 << 16, groupoid_module._BLOCK]


def product_groupoid(n_objects, group):
    """Oracle fixture built independently of the library constructors: one
    arrow (v, w, a) for every ordered object pair and group element, composed
    componentwise."""
    assert group.identity == 0
    coords = [(x, x, 0) for x in range(n_objects)]
    for v in range(n_objects):
        for w in range(n_objects):
            for a in range(group.order):
                if v == w and a == 0:
                    continue
                coords.append((v, w, a))
    index = {c: i for i, c in enumerate(coords)}
    comp = {}
    for (v, w, a) in coords:
        for (w2, z, b) in coords:
            if w == w2:
                comp[(index[(v, w, a)], index[(w2, z, b)])] = \
                    index[(v, z, group.mul(a, b))]
    return Groupoid.from_tables(
        src=[c[0] for c in coords],
        tgt=[c[1] for c in coords],
        unit=list(range(n_objects)),
        inv=[index[(w, v, group.inv[a])] for (v, w, a) in coords],
        comp=comp,
    ), coords, index


# --- verify_groupoid -------------------------------------------------------

@pytest.mark.parametrize("name", ["Z1", "Z2", "S3", "D4"])
def test_one_object_groupoid_verifies(name):
    g = one_object_groupoid(preset_group(name))
    diag = verify_groupoid(g)
    assert diag.ok, diag
    assert g.is_normalized()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_groupoid_verifies(n):
    g = pair_groupoid(n)
    diag = verify_groupoid(g)
    assert diag.ok, diag
    assert g.is_normalized()
    assert g.n_arrows == n * n


def test_product_fixture_verifies():
    g, _, _ = product_groupoid(2, preset_group("Z2"))
    assert verify_groupoid(g).ok


def test_remapped_unit_fails_unit_law():
    # pair groupoid on two objects; arrows are (0,0), (1,1), (0,1), (1,0),
    # and the unit of object 0 is remapped to the arrow (0, 1)
    g = pair_groupoid(2)
    broken = Groupoid(src=g.src, tgt=g.tgt, unit=np.array([2, 1]), inv=g.inv,
                      val=g.val)
    diag = verify_groupoid(broken)
    assert not diag.ok
    assert diag.failure == "unit law"
    assert diag.witness == (2,)
    assert not diag.structural


def test_comp_on_non_composable_pair_is_structural():
    g = pair_groupoid(2)
    # arrow 2 is (0, 1) and arrow 0 is (0, 0): tgt(2) = 1 != 0 = src(0)
    triples = [(gg, hh, vv) for gg, hh, vv in g.triples()] + [(2, 0, 2)]
    broken = Groupoid.from_tables(g.src, g.tgt, g.unit, g.inv, triples)
    diag = verify_groupoid(broken)
    assert not diag.ok and diag.structural
    assert diag.failure == "composability domain violated"
    assert diag.witness == (2, 0)


def test_missing_comp_entry_is_structural():
    g = pair_groupoid(2)
    triples = g.triples()[:-1]
    broken = Groupoid.from_tables(g.src, g.tgt, g.unit, g.inv, triples)
    diag = verify_groupoid(broken)
    assert not diag.ok and diag.structural
    assert diag.failure == "composability domain violated"
    assert diag.notes.get("detail") == "missing entry on a composable pair"


def test_duplicate_comp_pair_is_structural():
    g = pair_groupoid(2)
    triples = g.triples() + [g.triples()[0]]
    broken = Groupoid.from_tables(g.src, g.tgt, g.unit, g.inv, triples)
    diag = verify_groupoid(broken)
    assert not diag.ok and diag.structural
    assert diag.failure == "duplicate comp pair"


def _row_order(table) -> list[list[int]]:
    """``[y, h, y . h]`` for every defined entry, row by row, by a loop."""
    gpd = table.gpd
    return [[y, int(h), table.move(y, int(h))]
            for y in range(table.anchor.shape[0])
            for h in gpd.arrows_from(int(table.anchor[y]))
            if table.defined(y, int(h))]


def test_vector_lookup_agrees_with_the_scalar_one_out_of_range():
    """A point or arrow out of range is undefined for ``move_many`` as for
    ``move``: -1 and False, not a wrapped index or an IndexError."""
    gpd = pair_groupoid(2)
    for table in (gpd, base_action(gpd)):
        n, k = table.anchor.shape[0], gpd.n_arrows
        pairs = list(product(range(-n - 1, n + 1), range(-k - 1, k + 1)))
        values, ok = table.move_many(*np.array(pairs).T)
        want = [table.move(y, h) if table.defined(y, h) else -1
                for y, h in pairs]
        assert values.tolist() == want
        assert ok.tolist() == [z >= 0 for z in want]


def test_a_table_without_entries_defines_no_move():
    """One arrow, from object 0 to object 1, composes with none, so every
    row is empty and ``val`` has no entry: ``move_many`` answers -1 and
    False for a pair in range, and for one out of it, as ``move`` refuses
    them."""
    gpd = Groupoid.from_tables([0], [1], [0, 0], [0], [])
    assert gpd.flaw is None and gpd.val.size == 0
    values, ok = gpd.move_many([0, 0], [0, 1])
    assert values.tolist() == [-1, -1] and ok.tolist() == [False, False]
    with pytest.raises(ValueError, match=r"^move \(0, 0\) is not defined$"):
        gpd.move(0, 0)


def test_verify_groupoid_holds_one_block_of_temporaries():
    """``verify_groupoid`` on the transport groupoid of a 12-vertex S4
    bundle (3,456 arrows, 995,328 entries, and a 288 x 288 grid for each
    generator in Light's test) allocates less than 384 KB above what it
    keeps: the temporaries of one 4,096-entry block of rows in the endpoint
    scan, or of one block of a generator's grid, and arrays over the
    arrows.  A whole grid's int64 index array alone takes 648 KB."""
    import tracemalloc
    gpd = groupoid_of_bundle(large_random_bundle(12, 3, "S4")).groupoid
    tracemalloc.start()
    try:
        assert verify_groupoid(gpd).ok
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 384 << 10, peak - held


def test_a_clean_fill_allocates_no_mask_of_the_triples(monkeypatch):
    """Building a whole, well-formed 197,568-entry table from an int32
    array, 1,024 triples at a time, allocates ``val`` (``val.itemsize``
    bytes an entry, 2 for these 1,176 arrows) and a fixed slack below the
    193 KB that a mask over the triples, or over the entries placed, would
    take.  A table with its last triple
    repeated, and one with a triple dropped, stay inside the same bound:
    the flaw is picked in the same pass, from per-block temporaries."""
    import tracemalloc
    monkeypatch.setattr(groupoid_module, "_BLOCK", 1024)
    gpd = groupoid_of_bundle(large_random_bundle(7, 3, "S4")).groupoid
    comp = gpd.triple_array().astype(np.int32)
    assert len(comp) == 197_568
    g, h, _ = comp[-1].tolist()
    for table, flaw in ((comp, None),
                        (np.concatenate([comp, comp[-1:]]),
                         ("duplicate comp pair", (g, h))),
                        (np.delete(comp, 1000, axis=0),
                         ("composability domain violated",
                          tuple(comp[1000, :2].tolist())))):
        args = (gpd.src, gpd.tgt, gpd.unit, gpd.inv, table)
        tracemalloc.start()
        try:
            built = Groupoid.from_tables(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.val.dtype == np.int16
        if flaw is None:
            assert built.flaw is None
            assert np.array_equal(built.val, gpd.val)
        else:
            assert (built.flaw.failure, built.flaw.witness) == flaw
        assert peak < built.val.nbytes + (128 << 10), peak


@pytest.mark.parametrize("block", BLOCKS)
def test_blockwise_row_reads_agree_with_a_loop(block, monkeypatch):
    """The triple array and the endpoint scan read the rows ``block``
    entries at a time (a longer row alone): the triples of a groupoid, of
    its ambit and of a table with an entry missing come in row order, and
    a product sent to an arrow with other endpoints is reported at the
    first such entry in row order."""
    monkeypatch.setattr(groupoid_module, "_BLOCK", block)
    gpd, _, _ = product_groupoid(3, preset_group("S3"))
    triples = _row_order(gpd)
    for table in (gpd, build_ambit(gpd, 1).action):
        assert table.triple_array().tolist() == _row_order(table)
    holed = Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                                 triples[:500] + triples[501:])
    assert holed.triple_array().tolist() == triples[:500] + triples[501:]
    rng = random.Random(0)
    for _ in range(10):
        broken = [list(t) for t in triples]
        for i in rng.sample(range(len(broken)), rng.randint(1, 3)):
            g, h, gh = broken[i]
            broken[i][2] = rng.choice([
                c for c in range(gpd.n_arrows)
                if (gpd.src[c], gpd.tgt[c]) != (gpd.src[g], gpd.tgt[h])])
        first = next(t for t in broken if (gpd.src[t[2]], gpd.tgt[t[2]])
                     != (gpd.src[t[0]], gpd.tgt[t[1]]))
        diag = verify_groupoid(Groupoid.from_tables(
            gpd.src, gpd.tgt, gpd.unit, gpd.inv, broken))
        assert (diag.failure, diag.witness) == \
            ("composition endpoints", tuple(first))


@pytest.mark.parametrize("block", BLOCKS)
def test_blockwise_witnesses_agree_with_a_loop(block, monkeypatch):
    """Every first-failure scan reads the rows ``block`` entries at a time
    and reports the witness a plain loop over the rows finds first."""
    gpd, coords, index = product_groupoid(3, preset_group("S3"))
    mixed = disjoint_union(gpd, one_object_groupoid(preset_group("Z3")))
    expected = normalize_groupoid(mixed)
    monkeypatch.setattr(groupoid_module, "_BLOCK", block)
    out, perm = normalize_groupoid(mixed)
    assert perm == expected[1]
    assert out.triples() == expected[0].triples()
    assert (out.src.tolist(), out.tgt.tolist(), out.inv.tolist()) == \
        (expected[0].src.tolist(), expected[0].tgt.tolist(),
         expected[0].inv.tolist())

    rng = random.Random(1)
    ambit = build_ambit(gpd, 1)
    a = ambit.action
    triples = _row_order(a)
    group = preset_group("S3")
    for _ in range(5):
        # entries sent into the wrong fiber
        val = a.val.copy()
        for i in rng.sample(range(val.size), 3):
            val[i] = rng.choice([z for z in range(a.n_points)
                                 if a.anchor[z] != a.anchor[val[i]]])
        bad = GroupoidAction(gpd, a.anchor, val)
        first = next((y, h) for y, h, z in _row_order(bad)
                     if bad.anchor[z] != gpd.tgt[h])
        diag = verify_action(bad)
        assert (diag.failure, diag.witness) == ("anchor compatibility", first)

        # a universal map with two values moved within their fibers
        values = universal_map(a, ambit, ambit.u0).values
        for y in rng.sample(range(a.n_points), 2):
            values[y] = rng.choice([z for z in a.fiber(int(a.anchor[y]))
                                    if z != values[y]])
        first = next((y, h) for y, h, z in triples
                     if a.move(values[y], h) != values[z])
        diag = verify_equivariant_map(EquivariantMap(a, a, values))
        assert (diag.failure, diag.witness) == ("equivariance", first)

        # two self-inverse loops at one object swapped
        x = rng.randrange(3)
        p, q = rng.sample([index[(x, x, e)] for e in range(1, group.order)
                           if group.inv[e] == e], 2)
        am = list(range(gpd.n_arrows))
        am[p], am[q] = q, p
        first = next((g, h) for g, h, gh in _row_order(gpd)
                     if am[gh] != gpd.compose(am[g], am[h]))
        diag = verify_groupoid_iso(gpd, gpd, [0, 1, 2], am)
        assert (diag.failure, diag.witness) == \
            ("composition not preserved", first)

        # several composition entries missing
        comp = _row_order(gpd)
        gone = rng.sample(range(len(comp)), 4)
        g, h, _ = comp[min(gone)]  # the first in row order
        holed = Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                                     [t for i, t in enumerate(comp)
                                      if i not in gone])
        assert holed.flaw.witness == (g, h)
        assert holed.flaw.notes == {
            "detail": "missing entry on a composable pair"}

        # several action entries missing
        gone = rng.sample(range(len(triples)), 4)
        holed = GroupoidAction.from_triples(
            gpd, a.anchor, [t for i, t in enumerate(triples) if i not in gone])
        assert holed.flaw.witness == tuple(triples[min(gone)][:2])

    # a product g . h == g with h not a unit makes the ambit not free
    broken = [list(t) for t in _row_order(gpd)]
    points = gpd.arrows_from(1).tolist()
    for i in rng.sample([i for i, (g, h, _) in enumerate(broken)
                         if g in points and g != gpd.unit[1]
                         and h != gpd.unit[gpd.tgt[h]]], 2):
        broken[i][2] = broken[i][0]
    first = next((points.index(g), h) for g, h, gh in broken
                 if g in points and gh == g and h != gpd.unit[gpd.tgt[h]])
    with pytest.raises(ValueError, match=f"not free at point {first[0]}, "
                                         f"arrow {first[1]}$"):
        build_ambit(Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                                         broken), 1)


def test_broken_associativity_detected_by_both_strategies():
    """Light's test in the engine and the brute-force triple scan of the
    test oracle both reject the table, and the engine's witness breaks the
    law."""
    g = one_object_groupoid(preset_group("Z4"))
    comp = {(a, b): v for a, b, v in g.triples()}
    comp[(1, 1)] = 3  # leaves unit and inverse laws intact
    broken = Groupoid.from_tables(g.src, g.tgt, g.unit, g.inv, comp)
    diag = verify_groupoid(broken)
    assert not diag.ok
    assert diag.failure == "associativity"
    assert not diag.structural
    model = groupoid_to_json(broken)
    assert brute_groupoid_violation(model)[0] == "associativity"
    assert groupoid_law_broken(model, diag.failure, diag.witness)


def test_assoc_strategies_agree_on_valid_fixture():
    g, _, _ = product_groupoid(3, preset_group("S3"))
    diag = verify_groupoid(g)
    assert diag.ok
    assert brute_groupoid_violation(groupoid_to_json(g)) is None
    assert diag.notes["assoc_strategy"] == "generated"
    assert diag.notes["triples"] == g.n_arrows * 18 * 18
    assert 1 <= diag.notes["generators"] < g.n_arrows


def test_generators_are_a_cycle_through_the_objects_and_a_completion():
    """With ``m > 1`` objects the first ``m`` generators are the least
    arrows ``x -> x + 1 (mod m)``, and the closure of the test oracle
    reaches every arrow from the set: on the matrix, on a relabelled copy
    (whose least arrows are others) and on a disjoint union (not
    transitive)."""
    rng = random.Random("generators")
    for name, bundle in sorted(matrix_bundles().items()):
        g = groupoid_of_bundle(bundle).groupoid
        m = g.n_objects
        if m > 1:
            assert g.generators[:m] == [g.hom(x, (x + 1) % m)[0]
                                        for x in range(m)], name
        for h in (g, relabelled(g, rng), disjoint_union(g, g)):
            assert brute_closure(groupoid_to_json(h), h.generators) \
                == set(range(h.n_arrows)), name


def test_generators_multiply_each_arrow_by_a_generator_once():
    """The closure only grows: no arrow is multiplied twice by the same
    generator, and only generators are multiplied by."""
    g = groupoid_of_bundle(matrix_bundles()["S3/K4"]).groupoid
    rng = random.Random("closure")
    for h in (g, relabelled(g, rng), disjoint_union(g, relabelled(g, rng))):
        pairs = []

        def spy(ys, bs, h=h):
            ys, bs = np.broadcast_arrays(ys, bs)
            pairs.extend(zip(ys.ravel().tolist(), bs.ravel().tolist()))
            return Groupoid.try_compose_many(h, ys, bs)
        h.try_compose_many = spy
        gens = h.generators
        assert len(pairs) == len(set(pairs))
        assert {b for _, b in pairs} == set(gens)


def test_generators_of_a_20_vertex_bundle():
    """20 cycle arrows and 3 loops at object 0 (the greedy set this
    replaced had 41)."""
    g = groupoid_of_bundle(large_random_bundle(20, 11, "S4")).groupoid
    assert len(g.generators) == 23


def test_generators_raise_when_the_units_do_not_absorb():
    """``0 . 1 == 0``: the closure of the unit never reaches arrow 1, so
    adjoining it again would never end; the verdict is the unit law."""
    g = Groupoid.from_tables([0, 0], [0, 0], [0], [0, 1],
                             [[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="generator 1 is not reached"):
        g.generators
    diag = verify_groupoid(g)
    assert (diag.failure, diag.witness) == ("unit law", (1,))


def test_broken_inverse_detected():
    g = one_object_groupoid(preset_group("Z3"))
    broken = Groupoid(g.src, g.tgt, g.unit, np.array([0, 1, 2]), g.val)
    diag = verify_groupoid(broken)
    assert not diag.ok
    assert diag.failure == "inverse law"


Z3_SUMS = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}


@pytest.mark.parametrize("tables, failure, witness, detail", [
    (([0], [0, 0], [0], [0], []), "array length mismatch", (1, 2, 1), None),
    (([0, 0], [0, 0], [0], [0], []), "array length mismatch", (2, 2, 1),
     None),
    (([0] * 3, [0] * 3, [0], [0, 2, 2], Z3_SUMS), "inverse law", (1,),
     "inverse not involutive"),
], ids=["tgt-length", "inv-length", "inverse-not-involutive"])
def test_verify_groupoid_names_each_verdict(tables, failure, witness, detail):
    diag = verify_groupoid(Groupoid.from_tables(*tables))
    assert (diag.ok, diag.failure, diag.witness) == (False, failure, witness)
    assert diag.notes.get("detail") == detail


# --- transitivity and local triviality ---------------------------------------

def test_pair_groupoid_is_transitive():
    ok, witness = is_transitive(pair_groupoid(3))
    assert ok and witness is None


def discrete(m, comp=None):
    """The discrete groupoid on ``m`` objects (units only), from ``comp``
    when given, else from its ``m`` triples ``[x, x, x]``."""
    units = np.arange(m)
    if comp is None:
        comp = np.repeat(units[:, None], 3, axis=1)
    return Groupoid.from_tables(units, units, units, units, comp)


def test_values_are_int16_below_2_15_arrows_and_int32_from_there():
    for m, width in ((32_767, np.int16), (32_768, np.int32)):
        g = discrete(m)
        assert g.val.dtype == width
        assert verify_groupoid(g).ok


def test_disjoint_union_widens_before_it_shifts():
    """Two 20,000-arrow parts make a 40,000-arrow union: int32, whose
    triples are the first part's, then the second's shifted by 20,000,
    where an int16 shift would wrap."""
    part = discrete(20_000)
    union = disjoint_union(part, part)
    assert part.val.dtype == np.int16 and union.val.dtype == np.int32
    assert union.triples() == part.triples() + [
        [g + 20_000, h + 20_000, gh + 20_000] for g, h, gh in part.triples()]
    assert verify_groupoid(union).ok


def test_a_value_past_the_width_is_out_of_range_not_wrapped():
    """In a 32,767-arrow table, whose values are int16, the value of the
    pair ``(v, v)`` given as ``2**16 + v``, which int16 reads as ``v``:
    filled, it is a value out of range with the value as given; built
    directly, the table keeps int32, reads it as given and gets the same
    verdict."""
    m, v = 32_767, 12_345
    comp = np.repeat(np.arange(m)[:, None], 3, axis=1)
    comp[v, 2] += 1 << 16
    g = discrete(m, comp)
    assert (g.flaw.failure, g.flaw.witness) == \
        ("comp value out of range", (v, v, (1 << 16) + v))
    assert verify_groupoid(g) == g.flaw
    units = np.arange(m)
    direct = Groupoid(units, units, units, units, comp[:, 2])
    assert direct.val.dtype == np.int32
    assert direct.move(v, v) == (1 << 16) + v
    assert direct.flaw == g.flaw
    assert verify_groupoid(direct) == g.flaw


@pytest.mark.parametrize("value, failure, witness", [
    (7, "comp value out of range", (2, 2, 7)),
    (3, "comp value out of range", (2, 2, 3)),
    (-2, "comp value out of range", (2, 2, -2)),
    (-1, "composability domain violated", (2, 2)),
])
def test_a_table_built_directly_gets_the_fill_verdict_for_its_values(
        value, failure, witness):
    """A groupoid built directly, with no flaw given, whose last value is
    outside ``[0, n_arrows)``: a value outside ``[-1, n_arrows)`` is the
    fill's value out of range at its ``(g, h, value)``, and -1 a missing
    entry at its pair, never an ``IndexError`` or a law's verdict.  As in
    the fill, a value out of range outranks a missing entry before it."""
    u = np.arange(3)
    g = Groupoid(u, u, u, u, [0, 1, value])
    assert (g.flaw.failure, g.flaw.witness) == (failure, witness)
    assert g.flaw.structural
    assert verify_groupoid(g) == g.flaw
    behind_a_hole = Groupoid(u, u, u, u, [0, -1, value])
    assert (behind_a_hole.flaw.failure, behind_a_hole.flaw.witness) == \
        (failure, witness if value != -1 else (1, 1))


def test_an_action_built_directly_gets_the_fill_verdict_for_its_values():
    """The base action of a pair groupoid, built directly with one value
    past its points: the action's value out of range at that entry."""
    gpd = pair_groupoid(2)
    a = base_action(gpd)
    val = a.val.copy()
    val[3] = 2
    bad = GroupoidAction(gpd, a.anchor, val)
    ys, hs = a.pairs_at(np.array([3]))
    assert (bad.flaw.failure, bad.flaw.witness) == \
        ("action value out of range", (int(ys[0]), int(hs[0]), 2))
    assert verify_action(bad) == bad.flaw


def test_a_value_missing_from_the_end_is_a_verdict():
    """A groupoid and an action built directly with ``val`` one short or
    one long of the layout their anchor implies, and an action whose anchor
    ``dataclasses.replace`` cut one short: a structural flaw at the table's
    end, ``n_points``, for every verifier, never an ``IndexError`` or a
    ``ValueError`` from the rows."""
    gpd = pair_groupoid(3)
    same = (list(range(gpd.n_objects)), list(range(gpd.n_arrows)))
    a = base_action(gpd)
    for val in (gpd.val[:-1], np.append(gpd.val, 0)):
        bad = Groupoid(gpd.src, gpd.tgt, gpd.unit, gpd.inv, val)
        assert (bad.flaw.failure, bad.flaw.witness, bad.flaw.structural) == \
            ("row offsets off the anchor's layout", (9,), True)
        assert verify_groupoid(bad) == bad.flaw
        assert verify_groupoid_iso(gpd, bad, *same) == bad.flaw
    for bad, end in ((GroupoidAction(gpd, a.anchor, a.val[:-1]), 3),
                     (GroupoidAction(gpd, a.anchor, np.append(a.val, 0)), 3),
                     (dataclasses.replace(a, anchor=a.anchor[:-1]), 2)):
        assert (bad.flaw.failure, bad.flaw.witness, bad.flaw.structural) == \
            ("row offsets off the anchor's layout", (end,), True)
        assert verify_action(bad) == bad.flaw
        # the offsets are those of the table's own anchor
        assert bad.row_off.tolist() == [3 * y for y in range(end + 1)]


def test_every_single_field_corruption_of_a_table_gets_a_verdict():
    """1,000 seeded single-field corruptions of ``pair_groupoid(3)`` and of
    its ambit's action, each built directly from its arrays (the corpus of
    ``table_corpus``): every verifier that reads the table returns a ``Diagnostics``, none raises.
    A groupoid goes through ``verify_groupoid`` and, both ways against the
    clean one when the sizes agree, ``verify_groupoid_iso``; an action
    through ``verify_action`` and ``verify_equivariant_map`` by the
    identity, from itself, into the clean action and out of it."""
    gpd = pair_groupoid(3)
    act = build_ambit(gpd, 0).action
    edited, failures = set(), set()
    for kind, key, table in corrupted_tables(gpd, act):
        if kind is Groupoid:
            verdicts = [verify_groupoid(table)]
            if (table.n_objects, table.n_arrows) == \
                    (gpd.n_objects, gpd.n_arrows):
                same = (list(range(gpd.n_objects)), list(range(gpd.n_arrows)))
                verdicts += [verify_groupoid_iso(table, gpd, *same),
                             verify_groupoid_iso(gpd, table, *same)]
        else:
            same = list(range(act.n_points))
            verdicts = [verify_action(table)] + [
                verify_equivariant_map(EquivariantMap(s, t, values))
                for s, t, values in ((act, table, same), (table, act, same),
                                     (table, table,
                                      list(range(table.n_points))))]
        assert all(isinstance(d, Diagnostics) for d in verdicts), key
        edited.add((kind, key))
        failures.update(d.failure for d in verdicts)
    assert len(edited) == 7  # every field of both
    assert "row offsets off the anchor's layout" in failures


def test_every_construction_refuses_a_flawed_table():
    """The corruptions above, run through the constructions that read a
    table's rows: a groupoid through ``normalize_groupoid``,
    ``disjoint_union`` with the clean one on either side,
    ``restrict_action`` to all its arrows and ``build_ambit`` at 0; an
    action through ``restrict_action`` to all its points and
    ``disjoint_union_actions`` with the clean one on either side.  Every
    table whose verifier gives a structural verdict is refused with ``table
    has a flaw``.  None raises ``IndexError``, and a ``ValueError`` from
    ``build_ambit``'s own retrieval and freeness checks comes only on a
    groupoid that breaks a law."""
    gpd = pair_groupoid(3)
    act = build_ambit(gpd, 0).action
    outcomes = Counter()
    for kind, key, t in corrupted_tables(gpd, act):
        own = list(range(t.anchor.shape[0]))
        if kind is Groupoid:
            verdict = verify_groupoid(t)
            calls = {"normalize": lambda: normalize_groupoid(t),
                     "union": lambda: disjoint_union(t, gpd),
                     "union after": lambda: disjoint_union(gpd, t),
                     "restrict": lambda: restrict_action(t, own),
                     "ambit": lambda: build_ambit(t, 0)}
        else:
            verdict = verify_action(t)
            calls = {"restrict": lambda: restrict_action(t, own),
                     "union": lambda: disjoint_union_actions(t, act),
                     "union after": lambda: disjoint_union_actions(act, t)}
        flawed = not verdict.ok and verdict.structural
        for name, call in calls.items():
            try:
                call()
            except ValueError as error:
                outcome = "refused" if str(error).startswith(
                    "table has a flaw") else "ValueError"
                if str(error).startswith(("the unit does not retrieve",
                                          "action is not free")):
                    assert name == "ambit" and not verdict.ok, (key, error)
                    outcome = "own check"
            else:
                outcome = "built"
            assert outcome == "refused" or not flawed, (key, name, outcome)
            outcomes[flawed, outcome] += 1
    # every outcome the corruptions can have is reached
    assert set(outcomes) == {(True, "refused"), (False, "built"),
                             (False, "ValueError"),
                             (False, "own check")}


def test_every_reader_refuses_a_flawed_action():
    """The corruptions above with a structural verdict, 295 groupoids and
    339 actions, run through the readers of a table's rows or index
    arrays.  A groupoid: ``is_transitive``, ``check_local_triviality``,
    ``Groupoid.generators``, ``base_action``, ``vertex_group`` and
    ``vertex_groups_isomorphic``; an action: ``orbits``,
    ``invariant_subsets``, ``minimal_subflows``, ``fiber_action``,
    ``invariant_sections`` and ``universal_map``.  Each refuses it with
    ``table has a flaw``; ``verify_invariant_section`` on the clean
    action's section gives the action's flaw as its verdict, and
    ``enumerate_equivariant_maps`` from the ambit finds no map into it.
    None raises ``IndexError``, ``KeyError`` or ``AssertionError``, or
    returns a result."""
    gpd = pair_groupoid(3)
    ambit = build_ambit(gpd, 0)
    section = invariant_sections(ambit.action, 0)[0].values
    readers = {
        Groupoid: (is_transitive, check_local_triviality,
                   lambda t: t.generators, base_action,
                   lambda t: vertex_group(t, 0),
                   lambda t: vertex_groups_isomorphic(t, 0, 1)),
        GroupoidAction: (orbits, invariant_subsets, minimal_subflows,
                         lambda t: fiber_action(t, 0),
                         lambda t: invariant_sections(t, 0),
                         lambda t: universal_map(t, ambit, 0))}
    flawed = Counter()
    for kind, key, t in corrupted_tables(gpd, ambit.action):
        verdict = verify_groupoid(t) if kind is Groupoid else verify_action(t)
        if verdict.ok or not verdict.structural:
            continue
        flawed[kind] += 1
        for call in readers[kind]:
            with pytest.raises(ValueError, match="^table has a flaw"):
                call(t)
        if kind is GroupoidAction:
            assert verify_invariant_section(t, section) is t.flaw, key
            assert enumerate_equivariant_maps(ambit, t) == [], key
    assert flawed == {Groupoid: 295, GroupoidAction: 339}


def test_every_public_function_refuses_a_broken_table():
    """Every public function that takes a groupoid or an action, on every
    table of the corpus above: the verifiers, the readers, the
    constructions, ``hom_set``, ``verify_groupoid_iso`` and
    ``verify_equivariant_map`` against the clean table either way,
    ``verify_connection`` and ``bundle_of_groupoid`` with a connection of
    the clean groupoid, ``fiber_semigroup`` and ``minimal_flow_uniqueness``
    on the ambit the table builds, and its emitted JSON.  An action is also
    the second argument of ``universal_map`` and
    ``enumerate_equivariant_maps``, from ``pair_groupoid(3)``'s ambit.
    Each call gives a result, a verdict or a ``ValueError``, on a table
    with a flaw and on a lawless one alike; any other exception fails the
    test, with its count per function.  A verifier gives a verdict on
    every table, a clean table is refused by nothing, and each function
    whose result rests on the laws refuses some lawless table."""
    gpd = pair_groupoid(3)
    ambit = build_ambit(gpd, 0)
    act = ambit.action
    section = invariant_sections(act, 0)[0].values
    base = BaseGraph(3, ((0, 1), (1, 2)))
    conn = Connection(base, [gpd.hom(base.dsrc(d), base.dtgt(d))[0]
                             for d in range(base.n_darts)])
    objects, arrows = list(range(gpd.n_objects)), list(range(gpd.n_arrows))
    points = list(range(act.n_points))
    calls = {
        Groupoid: {
            "verify_groupoid": verify_groupoid,
            "verify_groupoid_iso": lambda t: verify_groupoid_iso(
                t, gpd, objects, arrows),
            "verify_groupoid_iso from": lambda t: verify_groupoid_iso(
                gpd, t, objects, arrows),
            "verify_connection": lambda t: verify_connection(t, conn),
            "is_transitive": is_transitive,
            "check_local_triviality": check_local_triviality,
            "generators": lambda t: t.generators,
            "hom_set": lambda t: hom_set(t, 0, 1),
            "vertex_group": lambda t: vertex_group(t, 0),
            "vertex_groups_isomorphic": lambda t: vertex_groups_isomorphic(
                t, 0, 1),
            "normalize_groupoid": normalize_groupoid,
            "disjoint_union": lambda t: disjoint_union(t, gpd),
            "disjoint_union after": lambda t: disjoint_union(gpd, t),
            "restrict_action": lambda t: restrict_action(
                t, list(range(t.anchor.shape[0]))),
            "base_action": base_action,
            "build_ambit": lambda t: build_ambit(t, 0),
            "fiber_semigroup": lambda t: fiber_semigroup(build_ambit(t, 0)),
            "minimal_flow_uniqueness": lambda t: minimal_flow_uniqueness(
                build_ambit(t, 0)),
            "bundle_of_groupoid": lambda t: bundle_of_groupoid(t, conn),
            "groupoid_to_json": lambda t: canonical_dumps(
                groupoid_to_json(t))},
        GroupoidAction: {
            "verify_action": verify_action,
            "verify_equivariant_map into": lambda t: verify_equivariant_map(
                EquivariantMap(act, t, points)),
            "verify_equivariant_map from": lambda t: verify_equivariant_map(
                EquivariantMap(t, act, points)),
            "verify_equivariant_map self": lambda t: verify_equivariant_map(
                EquivariantMap(t, t, list(range(t.n_points)))),
            "verify_invariant_section": lambda t: verify_invariant_section(
                t, section),
            "orbits": orbits,
            "invariant_subsets": invariant_subsets,
            "minimal_subflows": minimal_subflows,
            "restrict_action": lambda t: restrict_action(
                t, list(range(t.n_points))),
            "disjoint_union_actions": lambda t: disjoint_union_actions(t, act),
            "disjoint_union_actions after": lambda t: disjoint_union_actions(
                act, t),
            "fiber_action": lambda t: fiber_action(t, 0),
            "invariant_sections": lambda t: invariant_sections(t, 0),
            "universal_map": lambda t: universal_map(t, ambit, 0),
            "enumerate_equivariant_maps": lambda t: enumerate_equivariant_maps(
                ambit, t),
            "action_to_json": lambda t: canonical_dumps(action_to_json(t))}}
    outcomes, states = Counter(), Counter()
    for kind, key, t in corrupted_tables(gpd, act):
        verdict = verify_groupoid(t) if kind is Groupoid else verify_action(t)
        state = "clean" if verdict.ok else \
            "flawed" if verdict.structural else "lawless"
        states[kind, state] += 1
        for name, call in calls[kind].items():
            try:
                out = call(t)
            except ValueError:
                outcome = "ValueError"
            except Exception as error:  # the gate: counted, then failed
                outcome = type(error).__name__
            else:
                outcome = "verdict" if isinstance(out, Diagnostics) \
                    else "result"
            outcomes[state, name, outcome] += 1
    stray = {k: n for k, n in outcomes.items()
             if k[2] not in ("result", "verdict", "ValueError")}
    assert not stray, stray
    assert states == {(Groupoid, "flawed"): 295, (Groupoid, "lawless"): 189,
                      (Groupoid, "clean"): 16,
                      (GroupoidAction, "flawed"): 339,
                      (GroupoidAction, "lawless"): 141,
                      (GroupoidAction, "clean"): 20}
    for (state, name, outcome), n in outcomes.items():
        assert (outcome == "verdict") == name.startswith("verify"), name
        assert state != "clean" or outcome != "ValueError", name
    for name in ("vertex_group", "vertex_groups_isomorphic", "build_ambit",
                 "fiber_semigroup", "bundle_of_groupoid", "universal_map",
                 "invariant_sections"):
        assert outcomes["lawless", name, "ValueError"], name


def test_bundle_of_groupoid_names_the_law_a_label_breaks():
    """The lawless groupoids of the corpus whose transported loop, read as
    a label, is not a loop at the basepoint (with the path connection of
    ``pair_groupoid(3)``): the refusal names the dart, the arrow and the
    first law ``verify_groupoid`` finds broken, where ``list.index`` once
    said only "5 is not in list"."""
    gpd = pair_groupoid(3)
    base = BaseGraph(3, ((0, 1), (1, 2)))
    conn = Connection(base, [gpd.hom(base.dsrc(d), base.dtgt(d))[0]
                             for d in range(base.n_darts)])
    refused = {}
    for case, (kind, key, t) in enumerate(
            corrupted_tables(gpd, build_ambit(gpd, 0).action)):
        if kind is Groupoid and t.flaw is None:
            try:
                bundle_of_groupoid(t, conn)
            except ValueError as error:
                if str(error).startswith("label of dart"):
                    refused[case, key] = str(error)
    law = "is not a loop at 0: composition endpoints"
    assert refused == {
        (0, "src"): f"label of dart 2: arrow 5 {law} (1, 7, 2)",
        (80, "src"): f"label of dart 2: arrow 5 {law} (1, 7, 2)",
        (90, "val"): f"label of dart 2: arrow 2 {law} (8, 5, 2)"}


def test_a_copy_made_whole_by_replace_verifies_clean():
    """A table's flaw is found from its own arrays: a groupoid and an
    action with one value broken by ``dataclasses.replace``, then put back
    the same way, verify clean, and ``build_ambit`` and ``orbits`` accept
    them, where the broken copy's flaw once stayed on the whole one."""
    gpd = pair_groupoid(3)
    val = gpd.val.copy()
    val[5] = -1
    broken = dataclasses.replace(gpd, val=val)
    assert (broken.flaw.failure, broken.flaw.witness) == \
        ("composability domain violated", (1, 6))
    whole = dataclasses.replace(broken, val=gpd.val.copy())
    assert whole.flaw is None and verify_groupoid(whole).ok
    assert build_ambit(whole, 0).action.n_points == 3
    act = base_action(gpd)
    val = act.val.copy()
    val[3] = 99
    broken = dataclasses.replace(act, val=val)
    assert (broken.flaw.failure, broken.flaw.witness) == \
        ("action value out of range", (1, 1, 99))
    whole = dataclasses.replace(broken, val=act.val.copy())
    assert whole.flaw is None and verify_action(whole).ok
    assert orbits(whole) == [[0, 1, 2]]


def test_a_flaw_cannot_be_given():
    """``flaw`` is no constructor argument of either kind of table."""
    gpd = pair_groupoid(2)
    act = base_action(gpd)
    with pytest.raises(TypeError, match="flaw"):
        Groupoid(gpd.src, gpd.tgt, gpd.unit, gpd.inv, gpd.val, flaw=None)
    with pytest.raises(TypeError, match="flaw"):
        GroupoidAction(gpd, act.anchor, act.val, flaw=None)


@pytest.mark.parametrize("build, sizes", [
    (lambda g, a, **extra: Groupoid(src=g.src, tgt=g.tgt, unit=g.unit,
                                    inv=g.inv, val=g.val, **extra),
     "n_objects"),
    (lambda g, a, **extra: Groupoid.from_tables(
        src=g.src, tgt=g.tgt, unit=g.unit, inv=g.inv, comp=g.triples(),
        **extra), "n_objects"),
    (lambda g, a, **extra: GroupoidAction(gpd=g, anchor=a.anchor, val=a.val,
                                          **extra), "n_points"),
    (lambda g, a, **extra: GroupoidAction.from_triples(
        gpd=g, anchor=a.anchor, triples=a.triples(), **extra), "n_points"),
], ids=["Groupoid", "from_tables", "GroupoidAction", "from_triples"])
def test_sizes_and_row_offsets_cannot_be_given(build, sizes):
    """A table takes only its arrays: its size (``n_objects`` or
    ``n_points``) and ``row_off`` are no argument of either kind of table
    or of its builder from triples.  Its fields are its arrays and its
    flaw, its size is the length of ``unit`` or ``anchor``, and
    ``row_off`` is its anchor's layout: two entries a row, one for each
    arrow out of the row's object."""
    gpd = pair_groupoid(2)
    act = base_action(gpd)
    table = build(gpd, act)
    fields = {Groupoid: ["src", "tgt", "unit", "inv", "val", "flaw"],
              GroupoidAction: ["gpd", "anchor", "val", "flaw"]}
    assert [f.name for f in dataclasses.fields(table)] == fields[type(table)]
    assert getattr(table, sizes) == 2 and table.flaw is None
    assert table.row_off.tolist() == list(range(0, 2 * len(table.anchor) + 1,
                                                2))
    for name in (sizes, "row_off"):
        with pytest.raises(TypeError, match=f"keyword argument '{name}'"):
            build(gpd, act, **{name: 2})


def test_a_verdict_has_no_truth_value():
    """``bool`` of a passed and of a failed verdict raises, pointing to
    ``ok``: a truthy verdict would let ``if verify_groupoid(g):`` pass a
    failed one, and a falsy one would let ``if t.flaw:`` miss a flaw."""
    for diag in (verify_groupoid(pair_groupoid(2)),
                 Diagnostics.failed("unit law", (0,))):
        with pytest.raises(TypeError, match=r"use \.ok"):
            bool(diag)


def test_a_block_of_more_entries_than_int16_counts_is_read_in_slices():
    """One block of 65,537 triples into a 32,767-entry int16 table: the
    pair ``(0, 0)`` first and last, 65,536 apart, and each other pair two
    or three times between.  The repeated pair named is ``(0, 0)``, which
    an index into the whole block would miss, as int16 reads its two
    copies' indices as one."""
    m = 32_767
    ys = np.concatenate(([0], np.arange(65_535) % (m - 1) + 1, [0]))
    block = np.repeat(ys[:, None], 3, axis=1)
    g = discrete(m, lambda: iter([block]))
    assert g.val.dtype == np.int16
    assert (g.flaw.failure, g.flaw.witness) == ("duplicate comp pair", (0, 0))


def test_disjoint_union_is_not_transitive():
    g = disjoint_union(one_object_groupoid(preset_group("Z2")),
                       one_object_groupoid(preset_group("Z3")))
    assert verify_groupoid(g).ok
    ok, witness = is_transitive(g)
    assert not ok
    assert witness == (0, 1)


@pytest.mark.parametrize("build", [
    lambda: pair_groupoid(3),
    lambda: one_object_groupoid(preset_group("S3")),
    lambda: product_groupoid(2, preset_group("Z2"))[0],
    lambda: disjoint_union(one_object_groupoid(preset_group("Z2")),
                           one_object_groupoid(preset_group("Z2"))),
])
def test_local_triviality_agrees_with_transitivity(build):
    g = build()
    lt = check_local_triviality(g)
    ok, witness = is_transitive(g)
    assert lt.trivial == ok
    if not ok:
        assert lt.witness == witness


def _local_triviality_cases():
    """The group-by-graph matrix, then seeded relabellings of transitive
    groupoids and of disjoint unions, which are not transitive."""
    for name, bundle in sorted(matrix_bundles().items()):
        yield name, groupoid_of_bundle(bundle).groupoid
    rng = random.Random("local triviality")
    parts = [pair_groupoid(1), pair_groupoid(3),
             one_object_groupoid(preset_group("Z3")),
             product_groupoid(2, preset_group("Z2"))[0]]
    for seed in range(12):
        g = rng.choice(parts)
        for _ in range(seed % 3):
            g = disjoint_union(g, rng.choice(parts))
        yield f"seed {seed}", relabelled(g, rng)


def test_local_triviality_agrees_with_the_triple_loop():
    """The one-pass verdict and witness are those of the old loop (kept in
    the test oracle), and local triviality is transitivity."""
    kinds = set()
    for name, g in _local_triviality_cases():
        assert verify_groupoid(g).ok, name
        lt = check_local_triviality(g)
        assert (lt.trivial, lt.witness) == brute_local_triviality(g), name
        ok, witness = is_transitive(g)
        assert (lt.trivial, lt.witness) == (ok, witness), name
        kinds.add(ok)
    assert kinds == {True, False}


# --- hom sets and vertex groups ----------------------------------------------

def test_vertex_group_of_pair_groupoid_is_trivial():
    hs = vertex_group(pair_groupoid(3), 1)
    assert hs.group.order == 1
    assert hs.arrows == [1]


def test_vertex_group_of_one_object_groupoid_recovers_table():
    s3 = preset_group("S3")
    hs = vertex_group(one_object_groupoid(s3), 0)
    assert hs.group.order == 6
    assert hs.group.mult == s3.mult


def test_vertex_group_on_product_fixture():
    g, coords, index = product_groupoid(2, preset_group("Z3"))
    hs = vertex_group(g, 1)
    assert [coords[a] for a in hs.arrows] == [(1, 1, 0), (1, 1, 1), (1, 1, 2)]
    assert hs.group.mult == preset_group("Z3").mult


def test_hom_set_size_matches_vertex_group_and_translation_bijects():
    g, coords, index = product_groupoid(3, preset_group("S3"))
    for x in range(3):
        loops = vertex_group(g, x)
        for y in range(3):
            hom = hom_set(g, x, y)
            assert len(hom.arrows) == loops.group.order
            a = hom.arrows[0]
            image = {g.compose(a, l) for l in vertex_group(g, y).arrows}
            assert image == set(hom.arrows)


def test_vertex_groups_isomorphic_on_product_fixture():
    g, coords, index = product_groupoid(2, preset_group("Z2"))
    iso = vertex_groups_isomorphic(g, 0, 1)
    assert coords[iso.via] == (0, 1, 0)
    assert iso.local_map == [0, 1]
    assert {coords[a]: coords[b] for a, b in iso.arrow_map.items()} == \
        {(0, 0, 0): (1, 1, 0), (0, 0, 1): (1, 1, 1)}


def test_vertex_groups_isomorphic_requires_joining_arrow():
    g = disjoint_union(one_object_groupoid(preset_group("Z2")),
                       one_object_groupoid(preset_group("Z2")))
    with pytest.raises(ValueError):
        vertex_groups_isomorphic(g, 0, 1)


# --- isomorphism checking ----------------------------------------------------

def test_identity_iso_passes():
    g = pair_groupoid(3)
    diag = verify_groupoid_iso(g, g, list(range(3)), list(range(g.n_arrows)))
    assert diag.ok


def test_object_swap_iso_on_pair_groupoid():
    g = pair_groupoid(2)
    # pairs in construction order: (0,0), (1,1), (0,1), (1,0)
    obj_map = [1, 0]
    arr_map = [1, 0, 3, 2]
    diag = verify_groupoid_iso(g, g, obj_map, arr_map)
    assert diag.ok


def test_non_bijective_map_is_structural():
    g = pair_groupoid(2)
    diag = verify_groupoid_iso(g, g, [0, 0], [0, 1, 2, 3])
    assert not diag.ok and diag.structural
    assert "bijection" in diag.failure


def test_wrong_arrow_map_fails():
    g = pair_groupoid(2)
    diag = verify_groupoid_iso(g, g, [0, 1], [0, 1, 3, 2])
    assert not diag.ok and not diag.structural


@pytest.mark.parametrize("group, obj_map, arr_map, failure, witness", [
    (None, [1, 0], [0, 1, 2, 3], "src not preserved", 0),
    (None, [0, 1], [2, 3, 0, 1], "tgt not preserved", 0),
    ("Z2", [0], [1, 0], "unit not preserved", 0),
    ("Z4", [0], [0, 2, 1, 3], "inverse not preserved", 1),
])
def test_iso_names_the_first_structure_map_not_preserved(
        group, obj_map, arr_map, failure, witness):
    """Bijections that break src, tgt, unit or inverse are reported in that
    order, at the first arrow or object that breaks it."""
    g = pair_groupoid(2) if group is None \
        else one_object_groupoid(preset_group(group))
    diag = verify_groupoid_iso(g, g, obj_map, arr_map)
    assert (diag.ok, diag.structural) == (False, False)
    assert (diag.failure, diag.witness) == (failure, (witness,))


def test_iso_reports_a_table_flaw_before_the_rows():
    """A missing entry reads -1, which must not pass for the last arrow."""
    g = pair_groupoid(2)
    holed = Groupoid.from_tables(
        g.src, g.tgt, g.unit, g.inv,
        [t for t in g.triples() if t != [1, 3, 3]])
    for g1, g2 in ((holed, g), (g, holed)):
        diag = verify_groupoid_iso(g1, g2, [0, 1], [0, 1, 2, 3])
        assert diag is holed.flaw
        assert (diag.failure, diag.witness) == \
            ("composability domain violated", (1, 3))


@pytest.mark.parametrize("build", ["from_tables", "direct"])
def test_iso_reports_a_structure_map_out_of_range(build):
    """An out-of-range ``src`` is reported, in either argument order,
    before the maps index with it."""
    p = pair_groupoid(2)
    src = [0, 1, 0, 7]
    if build == "from_tables":
        bad = Groupoid.from_tables(src, p.tgt, p.unit, p.inv, p.triples())
    else:  # built directly: its flaw is set as it is built
        bad = Groupoid(src, p.tgt, p.unit, p.inv, p.val)
        assert (bad.flaw.failure, bad.flaw.witness) == \
            ("src index out of range", (3, 7))
    for g1, g2 in ((bad, p), (p, bad)):
        diag = verify_groupoid_iso(g1, g2, [0, 1], [0, 1, 2, 3])
        assert (diag.failure, diag.witness) == ("src index out of range", (3, 7))
        assert diag.structural


def test_iso_between_different_sizes_is_structural():
    diag = verify_groupoid_iso(pair_groupoid(2), pair_groupoid(3),
                               [0, 1], [0, 1, 2, 3])
    assert not diag.ok and diag.structural


@pytest.mark.parametrize("obj_map, arr_map, failure, witness", [
    ([0, 0], [0, 1], "map length mismatch", (2, 1, 2, 2)),
    ([0], [0], "map length mismatch", (1, 1, 1, 2)),
    ([1], [0, 1], "object map out of range", (1, 1)),
], ids=["object-map-length", "arrow-map-length", "object-out-of-range"])
def test_iso_names_each_structural_verdict(obj_map, arr_map, failure,
                                           witness):
    g = one_object_groupoid(preset_group("Z2"))
    diag = verify_groupoid_iso(g, g, obj_map, arr_map)
    assert (diag.ok, diag.structural) == (False, True)
    assert (diag.failure, diag.witness) == (failure, witness)


# --- normalization ------------------------------------------------------------

def test_normalize_disjoint_union():
    g = disjoint_union(one_object_groupoid(preset_group("Z2")),
                       one_object_groupoid(preset_group("Z3")))
    assert not g.is_normalized()
    normalized, perm = normalize_groupoid(g)
    assert normalized.is_normalized()
    assert verify_groupoid(normalized).ok
    # the relabelling is an isomorphism from the original
    diag = verify_groupoid_iso(g, normalized, list(range(g.n_objects)), perm)
    assert diag.ok


def test_normalize_refuses_repeated_units():
    import dataclasses
    g = dataclasses.replace(pair_groupoid(2), unit=[0, 0])
    with pytest.raises(ValueError, match="unit arrows are not distinct"):
        normalize_groupoid(g)


def test_normalize_is_identity_on_normalized_input():
    g = pair_groupoid(3)
    normalized, perm = normalize_groupoid(g)
    assert perm == list(range(g.n_arrows))
    assert np.array_equal(normalized.unit, g.unit)
