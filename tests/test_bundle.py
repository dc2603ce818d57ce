"""Tests for dart cocycles, gauge normalization, holonomy, and triviality."""

import random
from collections import Counter

import pytest

from gpdflow import bundle, serialize
from gpdflow.algebra import FiniteGroup, preset_group
from gpdflow.bundle import (
    BaseGraph,
    CocycleBundle,
    GaugeTransformation,
    TotalSpace,
    apply_gauge,
    bfs_tree,
    bundles_isomorphic,
    bundles_isomorphic_bruteforce,
    gauge_normalize,
    holonomy_along,
    holonomy_group,
    is_trivial,
    total_space,
    verify_cocycle,
)
from gpdflow.fixtures import large_random_bundle, named_bundles, \
    random_connected_graph
from gpdflow.serialize import bundle_to_json, parse_model


def z2_triangle(edge_labels):
    return CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("Z2"), edge_labels)


# --- base graphs ---------------------------------------------------------

def test_graph_shapes():
    assert BaseGraph.point().n_darts == 0
    assert BaseGraph.path(3).edges == ((0, 1), (1, 2))
    assert BaseGraph.cycle(3).edges == ((0, 1), (1, 2), (2, 0))
    assert BaseGraph.wedge_of_loops(2).edges == ((0, 0), (0, 0))
    assert BaseGraph.complete(4).n_edges == 6
    for g in (BaseGraph.point(), BaseGraph.path(3), BaseGraph.cycle(4),
              BaseGraph.wedge_of_loops(2), BaseGraph.complete(4)):
        assert g.is_connected()
    assert not BaseGraph(2, ()).is_connected()


def test_dart_conventions():
    g = BaseGraph.path(3)
    # edge 0 = (0,1): dart 0 runs 0->1, dart 1 runs 1->0
    assert (g.dsrc(0), g.dtgt(0)) == (0, 1)
    assert (g.dsrc(1), g.dtgt(1)) == (1, 0)
    assert g.rev(0) == 1 and g.rev(1) == 0
    loop = BaseGraph.wedge_of_loops(1)
    assert (loop.dsrc(0), loop.dtgt(0)) == (0, 0)
    assert loop.rev(0) == 1  # a loop still has two distinct darts


def test_bfs_tree_is_deterministic_and_lowest_first():
    tree = bfs_tree(BaseGraph.cycle(3), 0)
    assert tree.parent_dart == [-1, 0, 5]
    assert tree.order == [0, 1, 2]
    assert tree.tree_darts == frozenset({0, 5})
    assert tree.non_tree_edges == [1]
    assert tree.path_from_root(2) == [5]
    assert tree.path_from_root(1) == [0]


def test_bfs_tree_rejects_disconnected():
    with pytest.raises(ValueError):
        bfs_tree(BaseGraph(3, ((0, 1),)), 0)


# --- cocycle verification ---------------------------------------------------

def test_verify_cocycle_passes_on_edge_built_labels():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("S3"), [2, 3, 0])
    diag, built = verify_cocycle(b.base, b.group, list(b.labels))
    assert diag.ok and diag.notes == {"vertices": 3, "edges": 3}
    assert built == b
    # dart labels: even darts carry the edge label, odd darts its inverse
    assert b.labels == (2, 2, 3, 4, 0, 0)


def test_verify_cocycle_catches_involution_break():
    grp = preset_group("S3")
    diag, b = verify_cocycle(BaseGraph.path(2), grp, [3, 3])  # inv(3) = 4
    assert not diag.ok and not diag.structural and b is None
    assert diag.failure == "label involution"
    assert diag.witness == (0,)


def test_verify_cocycle_flags_disconnected_base():
    grp = preset_group("Z2")
    diag, b = verify_cocycle(BaseGraph(2, ()), grp, [])
    assert not diag.ok and diag.structural and b is None
    assert diag.failure == "base not connected"


def test_verify_cocycle_flags_bad_label():
    diag, b = verify_cocycle(BaseGraph.path(2), preset_group("Z2"), [5, 1])
    assert diag.structural and b is None and diag.failure == "label out of range"


def test_verify_cocycle_counts_the_labels_first():
    from gpdflow.fixtures import named_bundles
    b = named_bundles()["triangle-z2-twisted"]
    diag, _ = verify_cocycle(b.base, b.group, b.labels[:-1])
    assert diag.structural
    assert (diag.failure, diag.witness) == ("label count mismatch", (5, 6))


def test_verify_cocycle_reads_no_bool_as_a_label():
    """Labels are a list or tuple of integers, refused by name: ``[True,
    True]`` is not read as the involutive labelling ``[1, 1]`` of S3."""
    with pytest.raises(ValueError) as refused:
        verify_cocycle(BaseGraph.path(2), preset_group("S3"), [True, True])
    assert str(refused.value) == "labels[0] = True is not an integer"
    diag, _ = verify_cocycle(BaseGraph.path(2), preset_group("S3"), [1, 1])
    assert diag.ok


# --- total space ---------------------------------------------------------------

def test_total_space_counts_and_projection():
    b = z2_triangle([1, 0, 0])
    ts = total_space(b)
    assert ts.n_points == 6
    for v in range(3):
        fiber = ts.fiber(v)
        assert len(fiber) == 2
        assert all(ts.proj(p) == v for p in fiber)


def test_right_action_is_free_and_transitive_on_fibers():
    b = z2_triangle([1, 0, 0])
    ts = total_space(b)
    grp = b.group
    for p in range(ts.n_points):
        orbit = {ts.raction(p, k) for k in grp.elements}
        assert orbit == set(ts.fiber(ts.proj(p)))
        for k in grp.elements:
            if ts.raction(p, k) == p:
                assert k == grp.identity


def test_transport_inverts_and_commutes_with_action():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("S3"), [2, 3, 4])
    ts = total_space(b)
    for d in range(b.base.n_darts):
        for p in ts.fiber(b.base.dsrc(d)):
            q = ts.transport(d, p)
            assert ts.proj(q) == b.base.dtgt(d)
            assert ts.transport(b.base.rev(d), q) == p
            for k in b.group.elements:
                assert ts.transport(d, ts.raction(p, k)) == ts.raction(q, k)


def test_transport_requires_matching_fiber():
    b = z2_triangle([0, 0, 0])
    ts = total_space(b)
    with pytest.raises(ValueError):
        ts.transport(0, ts.point_index(2, 0))


def test_total_space_refuses_exactly_the_bundles_that_fail_verify_cocycle():
    """600 seeded single-label edits of the fixture bundles with a dart: a
    dart's label set to -1, to the group's order, or to another element,
    which the reverse dart's label follows half the time, so that the
    involution law holds.  Building each edited labelling gives a bundle
    exactly when ``verify_cocycle`` passes it, and gives the same bundle;
    otherwise it is refused with ``not a cocycle bundle: <failure>
    <witness>``, the failure and witness of ``verify_cocycle`` (a label of
    -1 was read as the group's last element).  On each bundle built,
    ``total_space`` and the ``TotalSpace`` constructor carry every point
    over a dart's source into the fiber over its target."""
    bundles = [b for b in named_bundles().values() if b.base.n_darts]
    outcomes = Counter()
    for case in range(600):
        rng = random.Random(f"label edit {case}")
        b = rng.choice(bundles)
        base, labels = b.base, list(b.labels)
        d = rng.randrange(base.n_darts)
        others = [g for g in b.group.elements if g != labels[d]]
        how = rng.choice(["-1", "order"] + ["element"] * bool(others))
        if how == "element":
            labels[d] = rng.choice(others)
            if rng.random() < 0.5:
                labels[base.rev(d)] = b.group.inv[labels[d]]
        else:
            labels[d] = -1 if how == "-1" else b.group.order
        diag, verified = verify_cocycle(base, b.group, labels)
        try:
            edited = CocycleBundle(base, b.group, labels)
        except ValueError as refused:
            assert not diag.ok and verified is None, case
            assert str(refused) == \
                f"not a cocycle bundle: {diag.failure} {diag.witness}", case
        else:
            assert diag.ok and verified == edited, case
            for build in (total_space, TotalSpace):
                ts = build(edited)
                for dart in range(base.n_darts):
                    over = ts.fiber(base.dtgt(dart))
                    assert all(ts.transport(dart, p) in over
                               for p in ts.fiber(base.dsrc(dart))), case
        outcomes[how, diag.ok] += 1
    assert set(outcomes) == {("-1", False), ("order", False),
                             ("element", False), ("element", True)}


def test_the_cocycle_scan_runs_once_per_bundle_built(monkeypatch):
    """``verify_cocycle`` and each of its callers build one bundle, passed
    or refused, and the cocycle scan runs once for it: ``gauge_normalize``
    builds its one gauged bundle, and ``bundles_isomorphic_bruteforce``
    compares gauged labels over its 8 gauges and builds none."""
    grp = preset_group("Z2")
    twisted, flat = z2_triangle([1, 0, 0]), z2_triangle([0, 0, 0])
    data = parse_model(bundle_to_json(
        CocycleBundle.from_edge_labels(BaseGraph.path(4), grp, [1, 0, 1]))).data
    scans = []

    def counted(base, group, labels):
        scans.append(len(labels))
        return cocycle_scan(base, group, labels)

    cocycle_scan = bundle._cocycle_scan
    monkeypatch.setattr(bundle, "_cocycle_scan", counted)
    builds = [
        lambda: verify_cocycle(BaseGraph.path(2), grp, [1, 1]),
        lambda: verify_cocycle(BaseGraph.path(2), grp, [1, 0]),
        lambda: CocycleBundle(BaseGraph.wedge_of_loops(2), grp, [1] * 4),
        lambda: CocycleBundle.from_edge_labels(BaseGraph.point(), grp, []),
        lambda: serialize.build_bundle(data),
        lambda: gauge_normalize(twisted),
        lambda: bundles_isomorphic_bruteforce(twisted, flat)]
    for build in builds:
        build()
    assert scans == [2, 2, 4, 0, 6, 6]


# --- gauge normalization ----------------------------------------------------------

def test_gauge_normalize_twisted_triangle_frozen_values():
    b = z2_triangle([1, 0, 0])
    normalized, gauge, tree = gauge_normalize(b, 0)
    assert gauge.elements == [0, 1, 0]
    assert normalized.edge_labels() == [0, 1, 0]
    assert tree.tree_darts == frozenset({0, 5})
    assert all(normalized.labels[d] == 0 for d in tree.tree_darts)
    assert verify_cocycle(normalized.base, b.group, normalized.labels)[0].ok


def test_gauge_normalize_is_idempotent():
    for labels in ([1, 0, 0], [1, 1, 1], [0, 0, 0]):
        b = z2_triangle(labels)
        n1, _, _ = gauge_normalize(b, 0)
        n2, gauge2, _ = gauge_normalize(n1, 0)
        assert gauge2.elements == [0, 0, 0]
        assert n2.labels == n1.labels


def test_apply_gauge_preserves_cocycle_and_inverts():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("S3"), [2, 3, 4])
    gauge = GaugeTransformation([1, 3, 5])
    c = apply_gauge(b, gauge)
    assert verify_cocycle(c.base, c.group, c.labels)[0].ok
    undo = GaugeTransformation([b.group.inv[g] for g in gauge.elements])
    assert apply_gauge(c, undo).labels == b.labels


# --- holonomy ----------------------------------------------------------------------

def test_holonomy_twisted_triangle():
    hol = holonomy_group(z2_triangle([1, 0, 0]), 0)
    assert hol.subgroup == [0, 1]
    assert len(hol.cycles) == 1
    cyc = hol.cycles[0]
    assert cyc.edge == 1 and cyc.dart == 2
    assert cyc.element == 1
    assert cyc.darts == [0, 2, 4]


def test_holonomy_trivial_triangle():
    hol = holonomy_group(z2_triangle([0, 0, 0]), 0)
    assert hol.subgroup == [0]
    assert hol.cycles[0].element == 0


def test_holonomy_z3_wedge():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.wedge_of_loops(2), preset_group("Z3"), [1, 0])
    hol = holonomy_group(b, 0)
    assert [c.element for c in hol.cycles] == [1, 0]
    assert hol.subgroup == [0, 1, 2]


def test_cycle_holonomy_matches_original_labels():
    # the gauge is the identity at the root, so the label product around
    # each fundamental cycle is unchanged by normalization
    b = CocycleBundle.from_edge_labels(
        BaseGraph.complete(4), preset_group("S3"), [1, 2, 3, 4, 5, 2])
    for v0 in range(4):
        hol = holonomy_group(b, v0)
        for cyc in hol.cycles:
            walked = holonomy_along(b, cyc.darts)
            assert walked == cyc.element


def test_holonomy_conjugates_under_gauge():
    grp = preset_group("S3")
    b = CocycleBundle.from_edge_labels(
        BaseGraph.wedge_of_loops(2), grp, [1, 3])
    for h in grp.elements:
        gauged = apply_gauge(b, GaugeTransformation([h]))
        hol_b = holonomy_group(b, 0)
        hol_g = holonomy_group(gauged, 0)
        conj = {grp.mul(h, grp.mul(x, grp.inv[h])) for x in hol_b.subgroup}
        assert conj == set(hol_g.subgroup)


def test_transport_around_cycle_multiplies_by_holonomy():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("S3"), [2, 0, 3])
    ts = total_space(b)
    hol = holonomy_group(b, 0)
    for cyc in hol.cycles:
        for h in b.group.elements:
            p = ts.point_index(0, h)
            for d in cyc.darts:
                p = ts.transport(d, p)
            assert p == ts.point_index(0, b.group.mul(holonomy_along(b, cyc.darts), h))


# --- triviality -------------------------------------------------------------------

def test_trivial_triangle_is_trivial():
    report = is_trivial(z2_triangle([0, 0, 0]))
    assert report.trivial and report.by_labels and report.by_section
    assert report.section == [0, 0, 0]


def test_twisted_triangle_is_not_trivial():
    report = is_trivial(z2_triangle([1, 0, 0]))
    assert not report.trivial
    assert report.section is None
    assert report.holonomy == [0, 1]


def test_a_lawless_group_is_refused_when_the_criteria_disagree():
    """One loop labelled 2 over a three-element table whose rows are not
    permutations: ``FiniteGroup`` refuses the table, so it is passed off as
    one by writing it, and an inverse table that makes each element its own
    inverse, into a verified Z3.  The bundle is a cocycle, but its holonomy
    is not the identity while a section exists, and ``is_trivial`` refuses
    it with ``ValueError``."""
    mult = ((0, 1, 2), (1, 0, 0), (2, 1, 0))
    with pytest.raises(ValueError,
                       match=r"^not a group: row 1 not a permutation \(1,\)$"):
        FiniteGroup(mult, 0)
    table = FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
    object.__setattr__(table, "mult", mult)
    object.__setattr__(table, "inv", (0, 1, 2))
    b = CocycleBundle.from_edge_labels(BaseGraph.wedge_of_loops(1), table, [2])
    assert verify_cocycle(b.base, table, b.labels)[0].ok
    with pytest.raises(ValueError, match="^triviality criteria disagree$"):
        is_trivial(b)


def test_a_lawless_group_is_refused_when_the_gauge_fails():
    """An edge labelled 1 and one labelled 0, over a two-element monoid
    whose element 1 is its own inverse: ``FiniteGroup`` refuses the monoid,
    so it is passed off as one by writing its table into a verified Z2.
    Both bundles are cocycles, the conjugacy test pairs them, and the
    assembled gauge does not carry the first onto the second, so
    ``bundles_isomorphic`` refuses them with ``ValueError``."""
    with pytest.raises(ValueError,
                       match=r"^not a group: row 1 not a permutation \(1,\)$"):
        FiniteGroup(((0, 1), (1, 1)), 0)
    monoid = FiniteGroup(((0, 1), (1, 0)), 0)
    object.__setattr__(monoid, "mult", ((0, 1), (1, 1)))
    b1, b2 = (CocycleBundle.from_edge_labels(BaseGraph.path(2), monoid, [g])
              for g in (1, 0))
    assert all(verify_cocycle(b.base, monoid, b.labels)[0].ok
               for b in (b1, b2))
    with pytest.raises(ValueError, match="^assembled gauge fails to carry"):
        bundles_isomorphic(b1, b2)


def test_gauged_trivial_bundle_stays_trivial():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.complete(4), preset_group("S3"), [0] * 6)
    gauged = apply_gauge(b, GaugeTransformation([1, 2, 3, 4]))
    report = is_trivial(gauged)
    assert report.trivial
    assert report.section is not None


@pytest.mark.parametrize("labels", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])
def test_triviality_matches_gauge_bruteforce(labels):
    b = z2_triangle(labels)
    flat = CocycleBundle.from_edge_labels(b.base, b.group, [0, 0, 0])
    gauge = bundles_isomorphic_bruteforce(b, flat)
    assert is_trivial(b).trivial == (gauge is not None)


# --- bundle isomorphism --------------------------------------------------------------

def test_twist_position_does_not_matter():
    b1 = z2_triangle([1, 0, 0])
    b2 = z2_triangle([0, 1, 0])
    iso = bundles_isomorphic(b1, b2)
    assert iso is not None
    assert apply_gauge(b1, iso.gauge).labels == b2.labels
    assert bundles_isomorphic_bruteforce(b1, b2) is not None


def test_twisted_and_trivial_are_not_isomorphic():
    b1 = z2_triangle([1, 0, 0])
    b2 = z2_triangle([0, 0, 0])
    assert bundles_isomorphic(b1, b2) is None
    assert bundles_isomorphic_bruteforce(b1, b2) is None


def test_s3_wedge_conjugate_twists_are_isomorphic():
    grp = preset_group("S3")
    base = BaseGraph.wedge_of_loops(2)
    b1 = CocycleBundle.from_edge_labels(base, grp, [1, 0])
    b2 = CocycleBundle.from_edge_labels(base, grp, [2, 0])
    iso = bundles_isomorphic(b1, b2)
    assert iso is not None
    assert iso.conjugator == 3
    assert bundles_isomorphic_bruteforce(b1, b2) is not None


def test_s3_wedge_transposition_vs_three_cycle():
    grp = preset_group("S3")
    base = BaseGraph.wedge_of_loops(2)
    b1 = CocycleBundle.from_edge_labels(base, grp, [1, 0])
    b2 = CocycleBundle.from_edge_labels(base, grp, [3, 0])
    assert bundles_isomorphic(b1, b2) is None
    assert bundles_isomorphic_bruteforce(b1, b2) is None


def test_isomorphism_agrees_with_bruteforce_exhaustively():
    grp = preset_group("Z4")
    base = BaseGraph.cycle(3)
    for l1 in range(4):
        for l2 in range(4):
            b1 = CocycleBundle.from_edge_labels(base, grp, [l1, 0, 0])
            b2 = CocycleBundle.from_edge_labels(base, grp, [0, l2, 0])
            fast = bundles_isomorphic(b1, b2)
            slow = bundles_isomorphic_bruteforce(b1, b2)
            assert (fast is None) == (slow is None)


def test_isomorphism_requires_same_base_and_group():
    grp = preset_group("Z2")
    b1 = CocycleBundle.from_edge_labels(BaseGraph.cycle(3), grp, [0, 0, 0])
    b2 = CocycleBundle.from_edge_labels(BaseGraph.path(3), grp, [0, 0])
    with pytest.raises(ValueError):
        bundles_isomorphic(b1, b2)
    b3 = CocycleBundle.from_edge_labels(BaseGraph.cycle(3), preset_group("Z3"),
                                        [0, 0, 0])
    with pytest.raises(ValueError):
        bundles_isomorphic(b1, b3)


# --- the seeded random instance ------------------------------------------------


def test_a_random_graph_with_every_free_pair_is_complete():
    """Six vertices have 15 pairs, 5 of them in the spanning tree, so 10
    extra edges take every free pair and give the complete graph."""
    g = random_connected_graph(6, 10)
    assert len(g.edges) == 15
    assert {tuple(sorted(e)) for e in g.edges} == \
        {(u, v) for v in range(6) for u in range(v)}


def test_more_extra_edges_than_free_pairs_is_refused():
    """Eleven extra edges on six vertices, where only ten pairs are free:
    an error naming both counts, not a loop that never ends."""
    with pytest.raises(ValueError, match="11 extra edges.* only 10 "):
        large_random_bundle(6, 11, "S4")
