"""Tests for fixed points, invariant sections, and the amenability check."""
from itertools import product

import pytest

from gpdflow.algebra import FiniteGroup, preset_group
from gpdflow.amenability import (
    extreme_amenability_check,
    fiber_action,
    fixed_points,
    invariant_sections,
    section_existence_suite,
    verify_invariant_section,
)
from gpdflow.bundle import BaseGraph, CocycleBundle
from gpdflow.dynamics import base_action, build_ambit, disjoint_union_actions
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.groupoid import disjoint_union, normalize_groupoid


def transport(preset, graph, edge_labels):
    bundle = CocycleBundle.from_edge_labels(graph, preset_group(preset),
                                            edge_labels)
    return groupoid_of_bundle(bundle)


def ambit_action(preset, graph, edge_labels, x0=0):
    return build_ambit(transport(preset, graph, edge_labels).groupoid, x0).action


# --- fixed points --------------------------------------------------------------


def test_trivial_group_fixes_everything():
    grp = preset_group("Z1")
    table = [[y] for y in range(5)]
    assert fixed_points(grp, table) == [0, 1, 2, 3, 4]


def test_translation_action_has_no_fixed_points():
    grp = preset_group("Z2")
    table = [[grp.mul(y, g) for g in grp.elements] for y in grp.elements]
    assert fixed_points(grp, table) == []


def test_swap_action_fixes_the_third_point():
    grp = preset_group("Z2")
    table = [[0, 1], [1, 0], [2, 2]]
    assert fixed_points(grp, table) == [2]


def test_fixed_points_validates_the_table():
    grp = preset_group("Z2")
    with pytest.raises(ValueError, match="row 0 has"):
        fixed_points(grp, [[0], [1, 1]])
    with pytest.raises(ValueError, match="out of range"):
        fixed_points(grp, [[0, 9], [1, 0]])
    with pytest.raises(ValueError, match="identity law"):
        fixed_points(grp, [[1, 0], [0, 1]])
    # identity column fine, but g then g lands wrong
    with pytest.raises(ValueError, match="compatibility"):
        fixed_points(grp, [[0, 1], [1, 2], [2, 0]])


def test_fiber_action_of_ambit_is_translation():
    grp = preset_group("S3")
    a = ambit_action("S3", BaseGraph.path(2), [2])
    table, fiber, group = fiber_action(a, 0)
    assert len(fiber) == 6
    assert group.mult == grp.mult
    assert table == [list(row) for row in grp.mult]


# --- invariant sections ----------------------------------------------------------


def test_trivial_group_ambit_has_one_section():
    a = ambit_action("Z1", BaseGraph.cycle(3), [0, 0, 0])
    secs = invariant_sections(a, 0)
    assert len(secs) == 1
    assert secs[0].values == [0, 1, 2]
    assert secs[0].fixed_point == 0
    assert verify_invariant_section(a, secs[0].values).ok


def test_twisted_ambit_has_no_sections():
    a = ambit_action("Z2", BaseGraph.cycle(3), [1, 0, 0])
    assert invariant_sections(a, 0) == []


def test_trivial_bundle_nontrivial_group_still_has_no_sections():
    # the fiber action is translation whatever the labels are
    a = ambit_action("Z2", BaseGraph.cycle(3), [0, 0, 0])
    assert invariant_sections(a, 0) == []


def test_base_action_has_the_identity_section():
    gpd = transport("S3", BaseGraph.path(2), [2]).groupoid
    a = base_action(gpd)
    secs = invariant_sections(a, 0)
    assert len(secs) == 1
    assert secs[0].values == [0, 1]


def brute_sections(a):
    n_objects = a.gpd.n_objects
    return sorted(
        list(values)
        for values in product(*(a.fiber(x) for x in range(n_objects)))
        if verify_invariant_section(a, list(values)).ok)


@pytest.mark.parametrize("preset,graph,labels", [
    ("Z1", BaseGraph.cycle(3), [0, 0, 0]),
    ("Z2", BaseGraph.cycle(3), [1, 0, 0]),
    ("Z2", BaseGraph.path(2), [0]),
    ("Z3", BaseGraph.wedge_of_loops(2), [1, 0]),
])
def test_sections_match_independent_brute_force(preset, graph, labels):
    a = ambit_action(preset, graph, labels)
    secs = invariant_sections(a, 0)
    assert sorted(s.values for s in secs) == brute_sections(a)


@pytest.mark.parametrize("preset,graph,labels", [
    ("Z1", BaseGraph.cycle(3), [0, 0, 0]),
    ("Z2", BaseGraph.cycle(3), [1, 0, 0]),
    ("S3", BaseGraph.path(2), [2]),
])
def test_section_count_is_basepoint_independent(preset, graph, labels):
    tg = transport(preset, graph, labels)
    counts = set()
    for x0 in range(tg.groupoid.n_objects):
        a = build_ambit(tg.groupoid, x0).action
        secs = invariant_sections(a, x0)
        table, _, grp = fiber_action(a, x0)
        assert len(secs) == len(fixed_points(grp, table))
        counts.add(len(secs))
    assert len(counts) == 1


def test_sections_need_transitive_groupoid():
    gpd = transport("Z1", BaseGraph.cycle(3), [0, 0, 0]).groupoid
    big, _ = normalize_groupoid(disjoint_union(gpd, gpd))
    with pytest.raises(ValueError, match="not transitive"):
        invariant_sections(base_action(big), 0)


def test_doubled_action_has_two_sections():
    # two disjoint copies of the base action: one section lands in each copy
    gpd = transport("Z1", BaseGraph.cycle(3), [0, 0, 0]).groupoid
    doubled = disjoint_union_actions(base_action(gpd), base_action(gpd))
    secs = invariant_sections(doubled, 0)
    assert [s.values for s in secs] == [[0, 1, 2], [3, 4, 5]]
    assert verify_invariant_section(
        doubled, [0, 1, 2, 3][:2]).failure == "section length mismatch"


def test_verify_invariant_section_failures():
    a = ambit_action("Z1", BaseGraph.cycle(3), [0, 0, 0])
    assert verify_invariant_section(a, [0, 1, 9]).failure == \
        "section value out of range"
    assert verify_invariant_section(a, [1, 1, 2]).failure == \
        "section anchor law"
    twisted = ambit_action("Z2", BaseGraph.cycle(3), [1, 0, 0])
    fiber_choice = [twisted.fiber(x)[0] for x in range(3)]
    diag = verify_invariant_section(twisted, fiber_choice)
    assert diag.failure == "section invariance"


# --- extreme amenability ---------------------------------------------------------


def test_trivial_group_is_extremely_amenable():
    report = extreme_amenability_check(preset_group("Z1"))
    assert report.extremely_amenable
    assert report.certificate.fixed == [0]
    assert report.certificate.free


@pytest.mark.parametrize("preset,order", [("Z2", 2), ("S3", 6), ("S4", 24)])
def test_nontrivial_groups_are_not(preset, order):
    grp = preset_group(preset)
    report = extreme_amenability_check(grp)
    assert not report.extremely_amenable
    assert report.certificate.order == order
    assert report.certificate.fixed == []
    assert report.certificate.free
    assert report.certificate.table == [list(row) for row in grp.mult]


def test_a_monoid_built_as_a_group_is_refused():
    """A two-element monoid: ``FiniteGroup`` refuses it, so it is passed
    off as one by writing its table into a verified Z2.  Its translation
    action fixes point 1, which contradicts the order verdict, and the
    check refuses it with ``ValueError``."""
    with pytest.raises(ValueError,
                       match=r"^not a group: row 1 not a permutation \(1,\)$"):
        FiniteGroup(((0, 1), (1, 1)), 0)
    monoid = FiniteGroup(((0, 1), (1, 0)), 0)
    object.__setattr__(monoid, "mult", ((0, 1), (1, 1)))
    with pytest.raises(ValueError, match="contradict the order verdict$"):
        extreme_amenability_check(monoid)


# --- the existence suite ---------------------------------------------------------


def test_section_existence_suite():
    bundles = [
        ("triangle", CocycleBundle.from_edge_labels(
            BaseGraph.cycle(3), preset_group("Z1"), [0, 0, 0])),
        ("wedge", CocycleBundle.from_edge_labels(
            BaseGraph.wedge_of_loops(2), preset_group("Z1"), [0, 0])),
    ]
    results = section_existence_suite(bundles)
    assert [r["fixture"] for r in results] == ["triangle", "wedge"]
    for r in results:
        for action_report in r["actions"]:
            assert all(c == 1 for c in action_report["sections_per_basepoint"])


def test_suite_rejects_nontrivial_groups():
    bundles = [("bad", CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("Z2"), [0, 0, 0]))]
    with pytest.raises(ValueError, match="trivial group"):
        section_existence_suite(bundles)
