"""Tests for the groupoid core: verification, transitivity, vertex groups."""
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from gpdflow import groupoid as groupoid_module
from gpdflow.algebra import preset_group
from gpdflow.diagnostics import Diagnostics
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import large_random_bundle, matrix_bundles
from gpdflow.dynamics import EquivariantMap, GroupoidAction, base_action, \
    build_ambit, disjoint_union_actions, restrict_action, universal_map, \
    verify_action, verify_equivariant_map
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
from gpdflow.serialize import groupoid_to_json

from law_oracle import brute_closure, brute_groupoid_violation, \
    brute_local_triviality, groupoid_law_broken, relabelled

# entries read at a time: small enough that block ends fall inside rows,
# the former default and the default
BLOCKS = [1, 7, 40, 100, 1 << 16, groupoid_module._BLOCK]


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
        n_objects=n_objects,
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
    broken = Groupoid(
        n_objects=2, src=g.src, tgt=g.tgt,
        unit=np.array([2, 1]), inv=g.inv,
        row_off=g.row_off, val=g.val)
    diag = verify_groupoid(broken)
    assert not diag.ok
    assert diag.failure == "unit law"
    assert diag.witness == (2,)
    assert not diag.structural


def test_comp_on_non_composable_pair_is_structural():
    g = pair_groupoid(2)
    # arrow 2 is (0, 1) and arrow 0 is (0, 0): tgt(2) = 1 != 0 = src(0)
    triples = [(gg, hh, vv) for gg, hh, vv in g.triples()] + [(2, 0, 2)]
    broken = Groupoid.from_tables(2, g.src, g.tgt, g.unit, g.inv, triples)
    diag = verify_groupoid(broken)
    assert not diag.ok and diag.structural
    assert diag.failure == "composability domain violated"
    assert diag.witness == (2, 0)


def test_missing_comp_entry_is_structural():
    g = pair_groupoid(2)
    triples = g.triples()[:-1]
    broken = Groupoid.from_tables(2, g.src, g.tgt, g.unit, g.inv, triples)
    diag = verify_groupoid(broken)
    assert not diag.ok and diag.structural
    assert diag.failure == "composability domain violated"
    assert diag.notes.get("detail") == "missing entry on a composable pair"


def test_duplicate_comp_pair_is_structural():
    g = pair_groupoid(2)
    triples = g.triples() + [g.triples()[0]]
    broken = Groupoid.from_tables(2, g.src, g.tgt, g.unit, g.inv, triples)
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
        args = (gpd.n_objects, gpd.src, gpd.tgt, gpd.unit, gpd.inv, table)
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
    holed = Groupoid.from_tables(3, gpd.src, gpd.tgt, gpd.unit, gpd.inv,
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
            3, gpd.src, gpd.tgt, gpd.unit, gpd.inv, broken))
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
        bad = GroupoidAction(gpd, a.n_points, a.anchor, a.row_off, val)
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
        holed = Groupoid.from_tables(3, gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                                     [t for i, t in enumerate(comp)
                                      if i not in gone])
        assert holed.flaw.witness == (g, h)
        assert holed.flaw.notes == {
            "detail": "missing entry on a composable pair"}

        # several action entries missing
        gone = rng.sample(range(len(triples)), 4)
        holed = GroupoidAction.from_triples(
            gpd, a.n_points, a.anchor,
            [t for i, t in enumerate(triples) if i not in gone])
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
    with pytest.raises(AssertionError, match=f"not free at point {first[0]}, "
                                             f"arrow {first[1]}$"):
        build_ambit(Groupoid.from_tables(3, gpd.src, gpd.tgt, gpd.unit,
                                         gpd.inv, broken), 1)


def test_broken_associativity_detected_by_both_strategies():
    """Light's test in the engine and the brute-force triple scan of the
    test oracle both reject the table, and the engine's witness breaks the
    law."""
    g = one_object_groupoid(preset_group("Z4"))
    comp = {(a, b): v for a, b, v in g.triples()}
    comp[(1, 1)] = 3  # leaves unit and inverse laws intact
    broken = Groupoid.from_tables(1, g.src, g.tgt, g.unit, g.inv, comp)
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
    g = Groupoid.from_tables(1, [0, 0], [0, 0], [0], [0, 1],
                             [[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="generator 1 is not reached"):
        g.generators
    diag = verify_groupoid(g)
    assert (diag.failure, diag.witness) == ("unit law", (1,))


def test_broken_inverse_detected():
    g = one_object_groupoid(preset_group("Z3"))
    broken = Groupoid(1, g.src, g.tgt, g.unit, np.array([0, 1, 2]),
                      g.row_off, g.val)
    diag = verify_groupoid(broken)
    assert not diag.ok
    assert diag.failure == "inverse law"


Z3_SUMS = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}


@pytest.mark.parametrize("tables, failure, witness, detail", [
    ((-1, [], [], [], [], []), "negative size", (-1, 0), None),
    ((1, [0], [0, 0], [0], [0], []), "array length mismatch", (1, 2, 1), None),
    ((1, [0, 0], [0, 0], [0], [0], []), "array length mismatch", (2, 2, 1),
     None),
    ((2, [0], [0], [0], [0], []), "array length mismatch", (2, 1), None),
    ((1, [0] * 3, [0] * 3, [0], [0, 2, 2], Z3_SUMS), "inverse law", (1,),
     "inverse not involutive"),
], ids=["negative-size", "tgt-length", "inv-length", "unit-length",
        "inverse-not-involutive"])
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
    return Groupoid.from_tables(m, units, units, units, units, comp)


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
    direct = Groupoid(m, units, units, units, units, np.arange(m + 1),
                      comp[:, 2])
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
    g = Groupoid(3, u, u, u, u, np.arange(4), [0, 1, value])
    assert (g.flaw.failure, g.flaw.witness) == (failure, witness)
    assert g.flaw.structural
    assert verify_groupoid(g) == g.flaw
    behind_a_hole = Groupoid(3, u, u, u, u, np.arange(4), [0, -1, value])
    assert (behind_a_hole.flaw.failure, behind_a_hole.flaw.witness) == \
        (failure, witness if value != -1 else (1, 1))


def test_an_action_built_directly_gets_the_fill_verdict_for_its_values():
    """The base action of a pair groupoid, built directly with one value
    past its points: the action's value out of range at that entry."""
    gpd = pair_groupoid(2)
    a = base_action(gpd)
    val = a.val.copy()
    val[3] = 2
    bad = GroupoidAction(gpd, a.n_points, a.anchor, a.row_off, val)
    ys, hs = a.pairs_at(np.array([3]))
    assert (bad.flaw.failure, bad.flaw.witness) == \
        ("action value out of range", (int(ys[0]), int(hs[0]), 2))
    assert verify_action(bad) == bad.flaw


@pytest.mark.parametrize("edit, witness", [
    (lambda off: np.where(np.arange(off.size) == 2, off[-1] + 1, off), (2,)),
    (lambda off: off[::-1], (0,)),
    (lambda off: off[:-1], (9,)),
    (lambda off: np.append(off, off[-1]), (10,)),
])
def test_a_row_offset_off_the_layout_is_a_verdict(edit, witness):
    """``pair_groupoid(3)`` built directly with its ``row_off`` edited: a
    row moved past the end, the offsets reversed, the last cut off or one
    more added.  Each is a structural flaw at the first offset that is not
    where the anchor puts it, for every verifier, never an ``IndexError``
    or a ``ValueError`` from the rows."""
    gpd = pair_groupoid(3)
    bad = Groupoid(gpd.n_objects, gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                   edit(gpd.row_off), gpd.val)
    assert (bad.flaw.failure, bad.flaw.witness, bad.flaw.structural) == \
        ("row offsets off the anchor's layout", witness, True)
    same = (list(range(gpd.n_objects)), list(range(gpd.n_arrows)))
    assert verify_groupoid(bad) == bad.flaw
    assert verify_groupoid_iso(gpd, bad, *same) == bad.flaw
    a = base_action(gpd)
    moved = GroupoidAction(gpd, a.n_points, a.anchor, edit(a.row_off), a.val)
    assert moved.flaw.failure == "row offsets off the anchor's layout"
    assert verify_action(moved) == moved.flaw


def test_a_value_missing_from_the_end_is_a_verdict():
    """Offsets as the anchor lays them out, but ``val`` one short or one
    long: a structural flaw at the table's end, ``n_points``."""
    gpd = pair_groupoid(3)
    for val in (gpd.val[:-1], np.append(gpd.val, 0)):
        bad = Groupoid(gpd.n_objects, gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                       gpd.row_off, val)
        assert (bad.flaw.failure, bad.flaw.witness) == \
            ("row offsets off the anchor's layout", (9,))


def _corrupt(fields: dict, rng: random.Random) -> tuple[dict, str]:
    """One field of a table's constructor arguments changed, and its name:
    a size moved by up to 3, or an array with one entry set to a value from
    -3 to 3 past its greatest, one entry dropped or added, or reversed."""
    key = rng.choice(sorted(k for k in fields if k != "gpd"))
    value = fields[key]
    if isinstance(value, int):
        return {**fields, key: value + rng.choice((-3, -2, -1, 1, 2, 3))}, key
    arr = np.asarray(value, dtype=np.int64).copy()
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


def _corrupted_tables(gpd: Groupoid, act: GroupoidAction):
    """1,000 seeded single-field corruptions, by :func:`_corrupt`, of
    ``gpd`` and of ``act`` in turn, each built directly with no flaw given,
    as ``(kind, field name, table)``."""
    tables = (
        (Groupoid, {"n_objects": gpd.n_objects, "src": gpd.src,
                    "tgt": gpd.tgt, "unit": gpd.unit, "inv": gpd.inv,
                    "row_off": gpd.row_off, "val": gpd.val}),
        (GroupoidAction, {"gpd": gpd, "n_points": act.n_points,
                          "anchor": act.anchor, "row_off": act.row_off,
                          "val": act.val}))
    for case in range(1000):
        rng = random.Random(f"table fuzz {case}")
        kind, clean = tables[case % 2]
        fields, key = _corrupt(clean, rng)
        yield kind, key, kind(**fields)


def test_every_single_field_corruption_of_a_table_gets_a_verdict():
    """1,000 seeded single-field corruptions of ``pair_groupoid(3)`` and of
    its ambit's action, each built directly with no flaw given: every
    verifier that reads the table returns a ``Diagnostics``, none raises.
    A groupoid goes through ``verify_groupoid`` and, both ways against the
    clean one when the sizes agree, ``verify_groupoid_iso``; an action
    through ``verify_action`` and ``verify_equivariant_map`` by the
    identity, from itself, into the clean action and out of it."""
    gpd = pair_groupoid(3)
    act = build_ambit(gpd, 0).action
    edited, failures = set(), set()
    for kind, key, table in _corrupted_tables(gpd, act):
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
                                      list(range(max(table.n_points, 0)))))]
        assert all(isinstance(d, Diagnostics) for d in verdicts), key
        edited.add((kind, key))
        failures.update(d.failure for d in verdicts)
    assert len(edited) == 11  # every field of both
    assert "row offsets off the anchor's layout" in failures


def test_every_construction_refuses_a_flawed_table():
    """The corruptions above, run through the constructions that read a
    table's rows: a groupoid through ``normalize_groupoid``,
    ``disjoint_union`` with the clean one on either side,
    ``restrict_action`` to all its arrows and ``build_ambit`` at 0; an
    action through ``restrict_action`` to all its points and
    ``disjoint_union_actions`` with the clean one on either side.  Every
    table whose verifier gives a structural verdict is refused with ``table
    has a flaw``.  None raises ``IndexError``, and an ``AssertionError``
    comes only from ``build_ambit``'s own retrieval and freeness checks, on
    a groupoid that breaks a law."""
    gpd = pair_groupoid(3)
    act = build_ambit(gpd, 0).action
    outcomes = Counter()
    for kind, key, t in _corrupted_tables(gpd, act):
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
            except AssertionError as error:
                if not str(error).startswith(("the unit does not retrieve",
                                              "action is not free")):
                    raise
                assert name == "ambit" and not verdict.ok, (key, error)
                outcome = "AssertionError"
            else:
                outcome = "built"
            assert outcome == "refused" or not flawed, (key, name, outcome)
            outcomes[flawed, outcome] += 1
    # every outcome the corruptions can have is reached
    assert set(outcomes) == {(True, "refused"), (False, "built"),
                             (False, "ValueError"),
                             (False, "AssertionError")}


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
        2, g.src, g.tgt, g.unit, g.inv,
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
        bad = Groupoid.from_tables(2, src, p.tgt, p.unit, p.inv, p.triples())
    else:  # built directly: its flaw is set as it is built
        bad = Groupoid(2, src, p.tgt, p.unit, p.inv, p.row_off, p.val)
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
