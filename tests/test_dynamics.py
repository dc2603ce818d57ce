"""Tests for groupoid actions, the ambit, and the fiber semigroup.

Uniqueness claims are cross-checked by honest brute force: equivariant
maps by filtering the full product of anchor-compatible assignments, and
minimal subflows by the exhaustive bitmask search built into the package.
"""
from dataclasses import replace
from itertools import accumulate, product

import numpy as np
import pytest

from gpdflow.algebra import preset_group
from gpdflow.bundle import BaseGraph, CocycleBundle
from gpdflow.dynamics import (
    EquivariantMap,
    GroupoidAction,
    base_action,
    build_ambit,
    disjoint_union_actions,
    enumerate_equivariant_maps,
    fiber_semigroup,
    invariant_subsets,
    minimal_flow_uniqueness,
    minimal_left_ideals,
    minimal_subflows,
    orbits,
    restrict_action,
    semigroup_idempotents,
    universal_map,
    verify_action,
    verify_equivariant_map,
)
from gpdflow.ehresmann import fiber_chart_sigma, groupoid_of_bundle
from gpdflow.groupoid import Groupoid, disjoint_union, normalize_groupoid, \
    one_object_groupoid, pair_groupoid, verify_groupoid

from test_groupoid import discrete


def transport(preset, graph, edge_labels):
    bundle = CocycleBundle.from_edge_labels(graph, preset_group(preset),
                                            edge_labels)
    return groupoid_of_bundle(bundle)


def z2_triangle_groupoid():
    return transport("Z2", BaseGraph.cycle(3), [1, 0, 0])


def s3_edge_groupoid():
    return transport("S3", BaseGraph.path(2), [2])


def union_groupoid():
    g = disjoint_union(pair_groupoid(2), pair_groupoid(2))
    normalized, _ = normalize_groupoid(g)
    return normalized


def rebuilt(a, triples):
    """The action ``a`` rebuilt from an edited list of its triples."""
    return GroupoidAction.from_triples(a.gpd, a.anchor, triples)


# --- verify_action -----------------------------------------------------------


def test_base_action_verifies():
    gpd = z2_triangle_groupoid().groupoid
    a = base_action(gpd)
    diag = verify_action(a)
    assert diag.ok, diag
    assert diag.notes["entries"] == gpd.n_arrows
    assert orbits(a) == [[0, 1, 2]]


def test_ambit_action_verifies():
    ambit = build_ambit(s3_edge_groupoid().groupoid, x0=0)
    assert verify_action(ambit.action).ok


def test_verify_action_catches_wrong_anchor_value():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    a = ambit.action
    # repoint one entry at a point over the wrong object
    triples = a.triples()
    i = next(i for i, (y, g, z) in enumerate(triples)
             if a.anchor[y] != a.anchor[z])
    y, g, _ = triples[i]
    triples[i][2] = next(z for z in range(a.n_points)
                         if a.anchor[z] == a.anchor[y])
    diag = verify_action(rebuilt(a, triples))
    assert not diag.ok
    assert diag.failure == "anchor compatibility"
    assert diag.witness == (y, g)


def test_verify_action_catches_unit_violation():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    a = ambit.action
    u = int(a.gpd.unit[a.anchor[0]])
    other = next(z for z in range(a.n_points)
                 if z != 0 and a.anchor[z] == a.anchor[0])
    triples = a.triples()
    triples[triples.index([0, u, 0])][2] = other
    diag = verify_action(rebuilt(a, triples))
    assert not diag.ok
    assert diag.failure == "action unit law"
    assert diag.witness == (0,)


def test_verify_action_catches_broken_associativity():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    a = ambit.action
    # swap where two same-fiber points land along one non-unit arrow
    y1, y2 = [y for y in range(a.n_points) if a.anchor[y] == 1][:2]
    g = next(int(g) for g in a.gpd.arrows_from(1)
             if int(g) != int(a.gpd.unit[1]))
    triples = a.triples()
    i1 = triples.index([y1, g, a.move(y1, g)])
    i2 = triples.index([y2, g, a.move(y2, g)])
    triples[i1][2], triples[i2][2] = triples[i2][2], triples[i1][2]
    diag = verify_action(rebuilt(a, triples))
    assert not diag.ok
    assert diag.failure == "action associativity"


def test_verify_action_domain_errors():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    a = ambit.action
    diag = verify_action(rebuilt(a, a.triples()[1:]))
    assert diag.failure == "composability domain violated"
    assert diag.structural
    assert diag.notes["detail"] == "missing entry on a composable pair"
    assert diag.witness == tuple(a.triples()[0][:2])

    off = next(g for g in range(a.gpd.n_arrows)
               if int(a.gpd.src[g]) != a.anchor[0])
    diag = verify_action(rebuilt(a, a.triples() + [[0, off, 0]]))
    assert diag.failure == "composability domain violated"
    assert diag.structural
    assert diag.witness == (0, off)


def test_verify_action_duplicate_pair_is_structural():
    a = build_ambit(z2_triangle_groupoid().groupoid, x0=0).action
    y, g, z = a.triples()[3]
    # a conflicting duplicate placed first would win a dict fold
    triples = [[y, g, (z + 1) % a.n_points]] + a.triples()
    diag = verify_action(rebuilt(a, triples))
    assert not diag.ok and diag.structural
    assert diag.failure == "duplicate act pair"
    assert diag.witness == (y, g)


def test_verify_action_reports_a_broken_groupoid():
    gpd = z2_triangle_groupoid().groupoid
    comp = gpd.triples()
    i = next(i for i, (g, h, gh) in enumerate(comp)
             if min(g, h) >= gpd.n_objects and h != gpd.inverse(g))
    g, h, gh = comp[i]
    comp[i][2] = next(c for c in gpd.hom(int(gpd.src[g]), int(gpd.tgt[h]))
                      if c != gh)
    broken = Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit, gpd.inv, comp)
    expected = verify_groupoid(broken)
    assert not expected.ok
    for a in (base_action(broken),
              GroupoidAction.from_triples(broken, [0, 1, 2],
                                          base_action(gpd).triples())):
        assert verify_action(a) == expected


def test_verify_action_structural_shapes():
    """A table is not changed once built, so each bad anchor is built
    into a new action, whose flaw is set as it is built."""
    gpd = z2_triangle_groupoid().groupoid
    a = base_action(gpd)
    short = replace(a, anchor=a.anchor[:-1])
    assert (verify_action(short).failure, verify_action(short).witness) == \
        ("row offsets off the anchor's layout", (a.n_points - 1,))
    off = replace(a, anchor=np.where(np.arange(a.n_points) == 0, 99, a.anchor))
    assert verify_action(off).failure == "anchor out of range"


def test_an_action_built_from_a_list_anchor_verifies():
    a = base_action(pair_groupoid(2))
    listed = GroupoidAction(a.gpd, [0, 1], a.val)
    assert listed.anchor.dtype == np.int64
    assert verify_action(listed).ok


# --- orbits and subflows -------------------------------------------------------


def test_disjoint_union_has_two_orbits():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    doubled = disjoint_union_actions(ambit.action, ambit.action)
    assert verify_action(doubled).ok
    assert orbits(doubled) == [list(range(6)), list(range(6, 12))]
    flows = minimal_subflows(doubled)
    assert [f.points for f in flows] == [list(range(6)), list(range(6, 12))]


def test_disjoint_union_requires_shared_groupoid():
    a1 = base_action(z2_triangle_groupoid().groupoid)
    a2 = base_action(z2_triangle_groupoid().groupoid)
    with pytest.raises(ValueError, match="same groupoid"):
        disjoint_union_actions(a1, a2)


def test_base_action_orbits_follow_components():
    gpd = union_groupoid()
    a = base_action(gpd)
    assert orbits(a) == [[0, 1], [2, 3]]


def test_invariant_subsets_exhaustive():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    doubled = disjoint_union_actions(ambit.action, ambit.action)
    subsets = invariant_subsets(doubled)
    assert sorted(map(tuple, subsets)) == sorted([
        tuple(range(6)), tuple(range(6, 12)), tuple(range(12))])


def test_invariant_subsets_cap():
    gpd = s3_edge_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    doubled = disjoint_union_actions(ambit.action, ambit.action)
    with pytest.raises(ValueError, match="cap"):
        invariant_subsets(doubled)


def test_restrict_action_requires_invariance():
    a = base_action(z2_triangle_groupoid().groupoid)
    with pytest.raises(ValueError, match="not invariant"):
        restrict_action(a, [0, 1])


@pytest.mark.parametrize("points, message", [
    ([0, 0, 1], "point 0 given twice"),
    ([-1, 0], "points[0] = -1 outside range(2)"),
    ([1, 2], "points[1] = 2 outside range(2)"),
])
def test_restrict_action_refuses_a_repeated_or_out_of_range_point(
        points, message):
    a = base_action(pair_groupoid(2))
    with pytest.raises(ValueError) as refused:
        restrict_action(a, points)
    assert str(refused.value) == message


def test_every_constructor_gives_values_at_the_width_of_its_size():
    """Every row table has an int64 ``row_off``, the layout its anchor
    implies, and a ``val`` as wide as its points and its groupoid's arrows
    ask, whichever constructor built it, as a reloaded one has: int16 for
    these, and int32 for an action of one point over a groupoid of
    ``2**15`` arrows, and for a union of two actions of 20,000 points each,
    whose values are the parts', the second's shifted by 20,000."""
    gpd = s3_edge_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    base = base_action(gpd)
    tables = [gpd, union_groupoid(), pair_groupoid(3), ambit.action, base,
              restrict_action(gpd, gpd.arrows_from(1)),
              restrict_action(base, [1, 0]),
              disjoint_union_actions(ambit.action, base),
              rebuilt(base, base.triples())]
    tables += [flow.action for flow in minimal_subflows(base)]
    for t in tables:
        assert (t.val.dtype, t.row_off.dtype) == (np.int16, np.int64), t
        # laid out as its anchor implies: a row per point, an entry per arrow
        lens = [t.gpd.arrows_from(int(x)).size for x in t.anchor]
        assert t.row_off.tolist() == [0, *accumulate(lens)], t
    wide = discrete(1 << 15)
    single = [restrict_action(base_action(wide), [7]),
              GroupoidAction.from_triples(wide, [7], [[0, 7, 0]])]
    for t in single:
        assert t.val.dtype == np.int32 and t.triples() == [[0, 7, 0]]
        assert verify_action(t).ok
    half = base_action(discrete(20_000))
    union = disjoint_union_actions(half, half)
    assert half.val.dtype == np.int16 and union.val.dtype == np.int32
    assert union.triples() == half.triples() + [
        [y + 20_000, h, z + 20_000] for y, h, z in half.triples()]
    assert verify_action(union).ok
    for t in tables + single + [half, union]:  # int16 below 2**15 of both
        small = max(t.anchor.shape[0], t.gpd.n_arrows) < 1 << 15
        assert t.val.dtype == (np.int16 if small else np.int32), t


# --- the ambit -----------------------------------------------------------------


def test_ambit_frozen_layout():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    assert ambit.points == [0, 3, 4, 5, 6, 7]
    assert ambit.u0 == 0
    assert ambit.action.anchor.tolist() == [0, 0, 1, 1, 2, 2]
    assert ambit.fiber_points() == [0, 1]


def test_ambit_size_is_vertices_times_group():
    tg = transport("Q8", BaseGraph.complete(4), [g % 8 for g in range(6)])
    ambit = build_ambit(tg.groupoid, x0=2)
    assert ambit.action.n_points == 4 * 8
    assert ambit.basepoint == 2


def test_ambit_matches_total_space_through_sigma():
    # the ambit is the source fiber, which the sigma chart identifies
    # point-for-point with the bundle's total space
    tg = z2_triangle_groupoid()
    ambit = build_ambit(tg.groupoid, x0=0)
    sigma = fiber_chart_sigma(tg, (0, 0))
    assert set(ambit.points) == set(sigma.arrow_to_point)
    assert len(ambit.points) == 3 * 2


def test_ambit_unit_retrieves_and_free():
    ambit = build_ambit(s3_edge_groupoid().groupoid, x0=1)
    a = ambit.action
    for i, w in enumerate(ambit.points):
        assert a.move(ambit.u0, w) == i
    for i, g, z in a.triples():
        if z == i:
            assert g == int(a.gpd.unit[a.anchor[i]])


def test_ambit_single_orbit():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    flows = minimal_subflows(ambit.action)
    assert len(flows) == 1
    assert flows[0].points == list(range(6))


def test_ambit_needs_transitive_groupoid():
    with pytest.raises(ValueError, match="not transitive"):
        build_ambit(union_groupoid(), x0=0)


def test_ambit_object_out_of_range():
    with pytest.raises(ValueError, match=r"^x0 = 7 outside range\(3\)$"):
        build_ambit(z2_triangle_groupoid().groupoid, x0=7)


def test_ambit_refuses_a_unit_that_does_not_start_at_its_object():
    """``pair_groupoid(3)`` with the unit of object 0 set to arrow 2, the
    unit of object 2: a whole table that breaks the unit law, whose unit
    of 0 is not among the arrows out of 0.  The ambit at 0 is refused by
    name, not with an ``IndexError``."""
    p = pair_groupoid(3)
    g = Groupoid(p.src, p.tgt, [2, 1, 2], p.inv, p.val)
    assert g.flaw is None
    diag = verify_groupoid(g)
    assert (diag.failure, diag.witness) == ("unit law", (2,))
    with pytest.raises(ValueError,
                       match="unit of object 0 is not an arrow out of 0"):
        build_ambit(g, 0)


# --- universal maps ------------------------------------------------------------


def test_universal_map_at_unit_is_identity():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    m = universal_map(ambit.action, ambit, ambit.u0)
    assert m.values == list(range(6))


def test_universal_map_to_base_action_is_target():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    a = base_action(gpd)
    m = universal_map(a, ambit, 0)
    assert m.values == [int(gpd.tgt[w]) for w in ambit.points]


def test_universal_map_anchor_mismatch():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    a = base_action(gpd)
    with pytest.raises(ValueError, match="anchored at"):
        universal_map(a, ambit, 1)


def test_universal_map_rejects_foreign_groupoid():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    other = base_action(z2_triangle_groupoid().groupoid)
    with pytest.raises(ValueError, match="different groupoids"):
        universal_map(other, ambit, 0)


def test_distinct_fiber_points_give_distinct_maps():
    ambit = build_ambit(s3_edge_groupoid().groupoid, x0=0)
    a = ambit.action
    maps = {}
    for y in ambit.fiber_points():
        maps[y] = tuple(universal_map(a, ambit, y).values)
    assert len(set(maps.values())) == len(maps)


def brute_force_equivariant_maps(ambit, a):
    """Filter the full product of anchor-compatible assignments."""
    candidates = [
        [z for z in range(a.n_points)
         if a.anchor[z] == ambit.action.anchor[y]]
        for y in range(ambit.action.n_points)
    ]
    found = []
    for values in product(*candidates):
        ok = True
        for y, g, z in ambit.action.triples():
            if a.move(values[y], g) != values[z]:
                ok = False
                break
        if ok:
            found.append(list(values))
    return found


def test_enumeration_matches_brute_force():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    base = base_action(gpd)
    doubled = disjoint_union_actions(base, base)
    for target in (base, doubled, ambit.action):
        listed = [m.values for m in enumerate_equivariant_maps(ambit, target)]
        assert sorted(listed) == sorted(brute_force_equivariant_maps(ambit, target))


def test_enumeration_lists_a_map_once_on_a_target_that_moves_by_the_unit():
    """On a target where the unit moves point 1 to point 2, the candidate
    built from point 1 is the map built from point 2: it is listed once,
    for the point the unit goes to, as the brute force finds it."""
    gpd = one_object_groupoid(preset_group("Z2"))
    ambit = build_ambit(gpd, x0=0)
    target = GroupoidAction.from_triples(
        gpd, [0, 0, 0],
        [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 2], [2, 0, 2], [2, 1, 2]])
    assert verify_action(target).failure == "action unit law"
    maps = [m.values for m in enumerate_equivariant_maps(ambit, target)]
    assert maps == brute_force_equivariant_maps(ambit, target) == [[2, 2]]


def test_enumeration_counts():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    assert len(enumerate_equivariant_maps(ambit, ambit.action)) == 2
    assert len(enumerate_equivariant_maps(ambit, base_action(gpd))) == 1
    for m in enumerate_equivariant_maps(ambit, ambit.action):
        again = universal_map(ambit.action, ambit, m.values[ambit.u0])
        assert m.values == again.values


def edge_s3_ambit():
    return build_ambit(s3_edge_groupoid().groupoid, x0=0)


def test_uniqueness_reports_the_first_self_map_that_is_not_a_bijection(
        monkeypatch):
    """An equivariant self-map of the ambit is a bijection, so a collapsed
    map reaches the report only through a patched enumeration, here one
    that collapses each map onto one point: the report names the first,
    and denies both facts."""
    import gpdflow.dynamics
    enumerate_maps = enumerate_equivariant_maps

    def collapsing(source, target):
        maps = enumerate_maps(source, target)
        return [EquivariantMap(source, target, [v] * target.n_points)
                for v in range(len(maps))]
    monkeypatch.setattr(gpdflow.dynamics, "enumerate_equivariant_maps",
                        collapsing)
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    report = minimal_flow_uniqueness(ambit)
    assert report.self_map_counts == [2]
    assert report.witness == (0, (0,) * ambit.action.n_points)
    assert not report.all_self_maps_bijective
    assert not report.pairwise_isomorphic


def test_enumeration_verifies_each_map_once(monkeypatch):
    import gpdflow.dynamics
    calls = []

    def counting(m):
        calls.append(m)
        return verify_equivariant_map(m)
    monkeypatch.setattr(gpdflow.dynamics, "verify_equivariant_map", counting)
    ambit = edge_s3_ambit()
    maps = enumerate_equivariant_maps(ambit, ambit.action)
    assert len(maps) == len(calls) == len(ambit.fiber_points()) == 6


def test_enumeration_drops_the_maps_into_a_lawless_target():
    """Two same-fiber values swapped in row 1 break the unit law: no
    candidate verifies, so the list is empty, where the universal map of
    any fiber point raises.  A target whose anchor failed before its rows
    were filled gives no candidate either, and does not raise."""
    ambit = edge_s3_ambit()
    a = ambit.action
    triples = a.triples()
    i, j = triples.index([1, 0, 1]), triples.index([1, 2, 0])
    triples[i][2], triples[j][2] = triples[j][2], triples[i][2]
    lawless = rebuilt(a, triples)
    diag = verify_action(lawless)
    assert (diag.failure, diag.witness) == ("action unit law", (1,))
    assert enumerate_equivariant_maps(ambit, lawless) == []
    with pytest.raises(ValueError, match="not equivariant"):
        universal_map(lawless, ambit, ambit.u0)
    unfilled = GroupoidAction.from_triples(
        a.gpd, [*a.anchor[:-1], a.gpd.n_objects], triples)
    assert unfilled.flaw.failure == "anchor out of range"
    assert enumerate_equivariant_maps(ambit, unfilled) == []


def test_universal_map_refuses_a_target_whose_unit_moves_its_point():
    """A target whose unit sends point 0 to point 1, which it fixes, breaks
    only the unit law: the map from the ambit of ``pair_groupoid(1)``
    passes the equivariance check, yet does not send the unit to 0, so
    ``universal_map`` refuses it with ``ValueError``."""
    gpd = pair_groupoid(1)
    ambit = build_ambit(gpd, 0)
    target = GroupoidAction.from_triples(gpd, [0, 0], [[0, 0, 1], [1, 0, 1]])
    assert (verify_action(target).failure,
            verify_action(target).witness) == ("action unit law", (0,))
    with pytest.raises(ValueError,
                       match="^universal map sends the unit to 1, not to 0$"):
        universal_map(target, ambit, 0)
    assert universal_map(target, ambit, 1).values == [1]


def test_verify_equivariant_map_failures():
    gpd = z2_triangle_groupoid().groupoid
    ambit = build_ambit(gpd, x0=0)
    a = ambit.action
    good = universal_map(a, ambit, ambit.u0)

    short = EquivariantMap(source=a, target=a, values=good.values[:-1])
    assert verify_equivariant_map(short).failure == "value count mismatch"

    moved = EquivariantMap(source=a, target=a,
                           values=[2] + good.values[1:])
    assert verify_equivariant_map(moved).failure == "anchor not preserved"

    # swap the two fiber points at the basepoint only: anchors survive,
    # equivariance does not
    swapped = list(good.values)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    broken = EquivariantMap(source=a, target=a, values=swapped)
    diag = verify_equivariant_map(broken)
    assert diag.failure == "equivariance"


@pytest.mark.parametrize("case,failure,witness", [
    ("separate", "different groupoids", ()),
    ("out of range", "value out of range", (3, 12))])
def test_verify_equivariant_map_structural_failures(case, failure, witness):
    """Maps between the ambits of two separately built groupoids, and the
    identity of a 12-point ambit with its value at 3 set to 12."""
    ambit = build_ambit(s3_edge_groupoid().groupoid, x0=0)
    values = list(range(ambit.action.n_points))
    target = ambit.action
    if case == "separate":
        target = build_ambit(s3_edge_groupoid().groupoid, x0=0).action
    else:
        values[3] = 12
    diag = verify_equivariant_map(EquivariantMap(ambit.action, target, values))
    assert diag.structural
    assert (diag.failure, diag.witness) == (failure, witness)


def test_equivariant_map_reports_a_table_flaw_before_the_rows():
    """A missing entry reads -1, which must not pass for the last point."""
    base = base_action(pair_groupoid(2))
    holed = rebuilt(base, [t for t in base.triples() if t != [0, 2, 1]])
    for source, target in ((holed, base), (base, holed)):
        diag = verify_equivariant_map(EquivariantMap(source, target, [0, 1]))
        assert diag is holed.flaw
        assert (diag.failure, diag.witness) == \
            ("composability domain violated", (0, 2))


def test_equivariant_map_reports_a_short_anchor_before_reading_it():
    """A target whose anchor is shorter than the points of its triples:
    its structural flaw is the verdict, before any value's anchor is
    read."""
    g = pair_groupoid(2)
    src = base_action(g)
    bad = GroupoidAction.from_triples(g, [0], src.triples())
    diag = verify_equivariant_map(EquivariantMap(src, bad, [0, 1]))
    assert diag is bad.flaw
    assert (diag.failure, diag.witness) == \
        ("action table index out of range", (1, 1))


@pytest.mark.parametrize("case", ["anchor", "groupoid"])
def test_action_failing_a_scan_keeps_the_failure_as_its_flaw(case):
    """An action whose anchor or groupoid fails its scan, and a groupoid
    that fails its own, has no table to fill: the scan's failure is its
    flaw and its rows are empty, so the readers report the flaw instead
    of raising."""
    g = pair_groupoid(2)
    if case == "anchor":
        a = GroupoidAction.from_triples(g, [0, 5], [[0, 0, 0]])
        expected = ("anchor out of range", (1, 5))
    else:
        bad = Groupoid.from_tables(g.src, g.tgt, g.unit, [0, 1, 9, 2],
                                   g.triples())
        a = GroupoidAction.from_triples(bad, [0, 1], [[0, 0, 0]])
        expected = ("inv index out of range", (2, 9))
        assert bad.flaw == a.flaw
        assert bad.row_off.tolist() == [0] * 5
        assert bad.triples() == []
    assert (a.flaw.failure, a.flaw.witness) == expected
    assert a.flaw.structural
    assert a.row_off.tolist() == [0, 0, 0]
    assert a.triples() == []
    assert verify_equivariant_map(EquivariantMap(a, a, [0, 1])) is a.flaw
    diag = verify_action(a)
    assert (diag.failure, diag.witness) == expected


# --- the fiber semigroup ---------------------------------------------------------


def test_fiber_semigroup_z2():
    ambit = build_ambit(z2_triangle_groupoid().groupoid, x0=0)
    fs = fiber_semigroup(ambit)
    assert fs.fiber == [0, 1]
    assert fs.table == [[0, 1], [1, 0]]
    assert fs.idempotents == [ambit.u0]
    assert fs.left_ideals == [[0, 1]]
    assert fs.group.order == 2


def test_fiber_semigroup_s3_table_is_the_group():
    grp = preset_group("S3")
    ambit = build_ambit(s3_edge_groupoid().groupoid, x0=0)
    fs = fiber_semigroup(ambit)
    assert fs.table == [list(row) for row in grp.mult]
    assert fs.idempotents == [ambit.u0]
    assert fs.left_ideals == [sorted(fs.fiber)]
    assert fs.vertex_iso is not None


def test_semigroup_helpers_on_non_groups():
    right_zero = [[j for j in range(3)] for _ in range(3)]
    assert semigroup_idempotents(right_zero) == [0, 1, 2]
    assert minimal_left_ideals(right_zero) == [[0], [1], [2]]

    meet = [[0, 0], [0, 1]]  # the two-element semilattice
    assert semigroup_idempotents(meet) == [0, 1]
    assert minimal_left_ideals(meet) == [[0]]


# --- uniqueness of the minimal flow ----------------------------------------------


@pytest.mark.parametrize("maker,count", [
    (z2_triangle_groupoid, 2),
    (s3_edge_groupoid, 6),
    (lambda: transport("Z1", BaseGraph.path(3), [0, 0]), 1),
])
def test_minimal_flow_uniqueness(maker, count):
    ambit = build_ambit(maker().groupoid, x0=0)
    report = minimal_flow_uniqueness(ambit)
    assert len(report.subflows) == 1
    assert report.self_map_counts == [count]
    assert report.all_self_maps_bijective
    assert report.pairwise_isomorphic
    assert report.witness is None
