"""Tests for the bundle <-> groupoid dictionary.

The closed coordinate form is checked three ways: against hand-computed
arrow ids, against the package's literal orbit enumeration, and against a
second orbit enumeration written here from scratch (orbits as frozensets,
composition by scanning for a matching representative).  A seeded fuzz
moves connection darts within hom-sets and compares ``verify_connection``
and ``bundleize`` with the test oracle's scan of the JSON lists.
"""
import dataclasses
import random
from itertools import product

import numpy as np
import pytest

from gpdflow.algebra import preset_group, verify_group
from gpdflow.bundle import BaseGraph, CocycleBundle, gauge_normalize
from gpdflow.cli import main
from gpdflow.ehresmann import (
    ArrowCoordinate,
    Connection,
    bundle_of_groupoid,
    closed_form_matches_oracle,
    fiber_chart_sigma,
    fiber_chart_tau,
    groupoid_of_bundle,
    orbit_quotient_groupoid,
    point_base_degenerate,
    roundtrip_bundle,
    verify_connection,
    vertex_chart_phi,
    vertex_chart_psi,
)
from gpdflow.fixtures import matrix_bundle
from gpdflow.groupoid import verify_groupoid
from gpdflow.serialize import build_groupoid, canonical_dumps, load_model, \
    transport_to_json

from law_oracle import brute_connection_violation, connection_law_broken


def z2_triangle(edge_labels):
    return CocycleBundle.from_edge_labels(
        BaseGraph.cycle(3), preset_group("Z2"), edge_labels)


def z3_wedge():
    return CocycleBundle.from_edge_labels(
        BaseGraph.wedge_of_loops(2), preset_group("Z3"), [1, 0])


def s3_edge():
    return CocycleBundle.from_edge_labels(
        BaseGraph.path(2), preset_group("S3"), [2])


FIXTURES = {
    "triangle-trivial": lambda: z2_triangle([0, 0, 0]),
    "triangle-twisted": lambda: z2_triangle([1, 0, 0]),
    "wedge-z3": z3_wedge,
    "edge-s3": s3_edge,
}


def pact(grp, p, g):
    """Right action of a group element on a total-space point."""
    return (p[0], grp.mul(p[1], g))


def class_coord(grp, p, q):
    """Coordinate of the orbit of the pair (p, q): translate q to identity."""
    return (p[0], q[0], grp.mul(p[1], grp.inv[q[1]]))


# --- coordinate layout -------------------------------------------------------


def test_units_come_first():
    tg = groupoid_of_bundle(z2_triangle([0, 0, 0]))
    assert tg.groupoid.n_arrows == 18
    for x in range(3):
        assert tg.coord_of(x) == (x, x, 0)
        assert int(tg.groupoid.unit[x]) == x


def test_frozen_arrow_ids():
    # lexicographic after the units, unit triples skipped
    tg = groupoid_of_bundle(z2_triangle([1, 0, 0]))
    assert tg.arrow_of(0, 0, 1) == 3
    assert tg.arrow_of(0, 1, 0) == 4
    assert tg.arrow_of(0, 1, 1) == 5
    assert tg.arrow_of(1, 1, 1) == 10
    assert tg.arrow_of(2, 2, 1) == 17
    assert tg.coord_of(8) == ArrowCoordinate(1, 0, 0)


def test_arrow_ids_when_the_identity_is_not_zero():
    table = [[1, 0], [0, 1]]  # a two-element group whose identity is 1
    _, grp = verify_group(table, identity=1)
    tg = groupoid_of_bundle(
        CocycleBundle.from_edge_labels(BaseGraph.path(3), grp, [0, 1]))
    units = [(x, x, 1) for x in range(3)]
    cells = units + [c for c in product(range(3), range(3), range(2))
                     if c not in units]
    assert tg.coords == [ArrowCoordinate(*c) for c in cells]
    assert [tg.arrow_of(*c) for c in cells] == list(range(18))
    assert tg.arrow_of(0, 0, 0) == 3
    assert tg.arrow_of(1, 1, 0) == 10
    assert tg.arrow_of(2, 2, 0) == 17
    assert verify_groupoid(tg.groupoid).ok


def test_coordinate_lookup_roundtrip():
    tg = groupoid_of_bundle(s3_edge())
    assert tg.groupoid.n_arrows == 2 * 2 * 6
    for i in range(tg.groupoid.n_arrows):
        v, w, a = tg.coord_of(i)
        assert tg.arrow_of(v, w, a) == i


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_src_tgt_inverse_follow_coords(name):
    b = FIXTURES[name]()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for i in range(tg.groupoid.n_arrows):
        v, w, a = tg.coord_of(i)
        assert int(tg.groupoid.src[i]) == v
        assert int(tg.groupoid.tgt[i]) == w
        assert tg.coord_of(tg.groupoid.inverse(i)) == (w, v, grp.inv[a])


def test_composition_is_componentwise():
    b = z2_triangle([1, 0, 0])
    tg = groupoid_of_bundle(b)
    grp, gpd = b.group, tg.groupoid
    for g in range(gpd.n_arrows):
        v, w, a = tg.coord_of(g)
        for h in range(gpd.n_arrows):
            w2, z, c = tg.coord_of(h)
            if w == w2:
                assert gpd.compose(g, h) == tg.arrow_of(v, z, grp.mul(a, c))
            else:
                assert not gpd.defined(g, h)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_transport_groupoid_verifies(name):
    tg = groupoid_of_bundle(FIXTURES[name]())
    diag = verify_groupoid(tg.groupoid)
    assert diag.ok, diag
    assert tg.groupoid.is_normalized()


@pytest.mark.parametrize("preset,graph", [
    ("Z2", BaseGraph.path(3)),
    ("Z4", BaseGraph.cycle(4)),
    ("S3", BaseGraph.wedge_of_loops(2)),
    ("D4", BaseGraph.complete(4)),
])
def test_arrow_count(preset, graph):
    grp = preset_group(preset)
    labels = [(i + 1) % grp.order for i in range(graph.n_edges)]
    tg = groupoid_of_bundle(CocycleBundle.from_edge_labels(graph, grp, labels))
    assert tg.groupoid.n_arrows == graph.n_vertices ** 2 * grp.order


def test_rejects_broken_cocycle():
    """A broken cocycle is refused when the bundle is built, so no
    groupoid is built from it."""
    with pytest.raises(ValueError,
                       match=r"^not a cocycle bundle: label involution \(0,\)$"):
        groupoid_of_bundle(CocycleBundle(
            base=BaseGraph.path(2), group=preset_group("S3"), labels=[3, 3]))


# --- the two oracles ---------------------------------------------------------


def naive_orbit_list(b):
    """Orbits of point pairs as frozensets, sorted by least member."""
    grp = b.group
    pts = [(v, h) for v in range(b.base.n_vertices) for h in grp.elements]

    def orbit(p, q):
        return frozenset((pact(grp, p, g), pact(grp, q, g))
                         for g in grp.elements)

    return sorted({orbit(p, q) for p in pts for q in pts}, key=min)


@pytest.mark.parametrize("name", ["triangle-twisted", "wedge-z3"])
def test_package_oracle_agrees_with_frozenset_orbits(name):
    b = FIXTURES[name]()
    gpd, reps, rep_index = orbit_quotient_groupoid(b)
    orbits = naive_orbit_list(b)
    assert [min(o) for o in orbits] == reps
    for i, oi in enumerate(orbits):
        p, q = min(oi)
        for j, oj in enumerate(orbits):
            matches = [r for (q2, r) in oj if q2 == q]
            assert len(matches) <= 1  # the diagonal action is free
            if matches:
                expected = rep_index[min(
                    frozenset((pact(b.group, p, g), pact(b.group, matches[0], g))
                              for g in b.group.elements))]
                assert gpd.defined(i, j)
                assert gpd.compose(i, j) == expected
            else:
                assert not gpd.defined(i, j)


def test_oracle_groupoid_verifies():
    gpd, reps, _ = orbit_quotient_groupoid(z2_triangle([1, 0, 0]))
    assert verify_groupoid(gpd).ok
    assert len(reps) == 18


def test_oracle_refuses_large_inputs():
    b = CocycleBundle.from_edge_labels(
        BaseGraph.complete(5), preset_group("S4"), [0] * 10)
    with pytest.raises(ValueError, match="exceed"):
        orbit_quotient_groupoid(b)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_closed_form_matches_oracle(name):
    tg = groupoid_of_bundle(FIXTURES[name]())
    diag = closed_form_matches_oracle(tg)
    assert diag.ok, diag


# --- connections -------------------------------------------------------------


def test_connection_frozen_values():
    b = z2_triangle([1, 0, 0])
    tg = groupoid_of_bundle(b)
    # dart 0 carries label 1, so its connection arrow is (0, 1, inv(1)) = 5
    assert tg.connection.arrows[0] == 5
    assert tg.connection.arrows[1] == 9
    assert tg.connection.arrows[2] == tg.arrow_of(1, 2, 0)
    assert verify_connection(tg.groupoid, tg.connection).ok


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_connection_transport_matches_bundle_transport(name):
    b = FIXTURES[name]()
    tg = groupoid_of_bundle(b)
    gpd, grp = tg.groupoid, b.group
    for d in range(b.base.n_darts):
        a_rev = tg.connection.arrows[b.base.rev(d)]
        assert a_rev == gpd.inverse(tg.connection.arrows[d])
        v, w = b.base.dsrc(d), b.base.dtgt(d)
        for c in grp.elements:
            y = tg.arrow_of(v, 0, c) if name != "edge-s3" else tg.arrow_of(v, 1, c)
            carried = gpd.compose(a_rev, y)
            _, x0, _ = tg.coord_of(y)
            assert tg.coord_of(carried) == (w, x0, grp.mul(b.labels[d], c))


def test_verify_connection_failures():
    tg = groupoid_of_bundle(z2_triangle([1, 0, 0]))
    good = tg.connection.arrows
    short = Connection(tg.connection.base, good[:-1])
    diag = verify_connection(tg.groupoid, short)
    assert not diag.ok and diag.structural

    bad_range = Connection(tg.connection.base, [99] + good[1:])
    diag = verify_connection(tg.groupoid, bad_range)
    assert diag.failure == "connection arrow out of range" and diag.structural

    wrong_end = Connection(tg.connection.base, [tg.arrow_of(1, 2, 0)] + good[1:])
    diag = verify_connection(tg.groupoid, wrong_end)
    assert diag.failure == "connection endpoints" and not diag.structural

    # endpoints fine but rev(0) no longer carries the inverse arrow
    broken_rev = Connection(tg.connection.base,
                            [good[0], tg.arrow_of(1, 0, 0)] + good[2:])
    diag = verify_connection(tg.groupoid, broken_rev)
    assert diag.failure == "connection reversal"
    assert diag.witness == (0,)


def test_verify_connection_compares_the_base_with_the_objects():
    from gpdflow.fixtures import named_bundles
    tg = groupoid_of_bundle(named_bundles()["edge-s3"])
    wide = Connection(BaseGraph(3, tg.connection.base.edges),
                      tg.connection.arrows)
    diag = verify_connection(tg.groupoid, wide)
    assert diag.structural
    assert (diag.failure, diag.witness) == \
        ("connection base size mismatch", (3, 2))


# --- charts ------------------------------------------------------------------


def all_points(b):
    return [(v, h) for v in range(b.base.n_vertices)
            for h in b.group.elements]


def test_phi_frozen_at_origin():
    b = z2_triangle([1, 0, 0])
    tg = groupoid_of_bundle(b)
    phi = vertex_chart_phi(tg)
    psi = vertex_chart_psi(tg)
    assert phi.u0 == (0, 0)
    for a in b.group.elements:
        assert phi.of(tg.arrow_of(0, 0, a)) == a
        assert psi.of(tg.arrow_of(0, 0, a)) == b.group.inv[a]


@pytest.mark.parametrize("name", ["edge-s3", "wedge-z3"])
def test_phi_defining_law_everywhere(name):
    b = FIXTURES[name]()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for u0 in all_points(b):
        phi = vertex_chart_phi(tg, u0)
        for g in grp.elements:
            arrow = tg.arrow_of(*class_coord(grp, pact(grp, u0, g), u0))
            assert phi.of(arrow) == g


@pytest.mark.parametrize("name", ["edge-s3", "wedge-z3"])
def test_psi_defining_law_everywhere(name):
    b = FIXTURES[name]()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for u0 in all_points(b):
        psi = vertex_chart_psi(tg, u0)
        for g in grp.elements:
            arrow = tg.arrow_of(*class_coord(grp, u0, pact(grp, u0, g)))
            assert psi.of(arrow) == grp.inv[g]


def test_psi_is_phi_of_inverse():
    tg = groupoid_of_bundle(s3_edge())
    grp = tg.bundle.group
    for u0 in all_points(tg.bundle):
        phi = vertex_chart_phi(tg, u0)
        psi = vertex_chart_psi(tg, u0)
        for loop in phi.arrow_to_group:
            assert psi.of(loop) == grp.inv[phi.of(tg.groupoid.inverse(loop))]


def test_charts_preserve_products():
    tg = groupoid_of_bundle(s3_edge())
    grp = tg.bundle.group
    for chart in (vertex_chart_phi(tg, (1, 3)), vertex_chart_psi(tg, (1, 3))):
        loops = sorted(chart.arrow_to_group)
        for a in loops:
            for c in loops:
                assert chart.of(tg.groupoid.compose(a, c)) == \
                    grp.mul(chart.of(a), chart.of(c))


def test_phi_rebasing_conjugates():
    b = z3_wedge()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for h0 in grp.elements:
        base_chart = vertex_chart_phi(tg, (0, 0))
        moved = vertex_chart_phi(tg, (0, grp.mul(0, h0)))
        for loop in base_chart.arrow_to_group:
            expected = grp.mul(grp.inv[h0], grp.mul(base_chart.of(loop), h0))
            assert moved.of(loop) == expected


def test_tau_defining_law_and_projection():
    b = s3_edge()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for u0 in all_points(b):
        tau = fiber_chart_tau(tg, u0)
        for w in all_points(b):
            assert tau.of(tg.arrow_of(*class_coord(grp, w, u0))) == w
        for arrow, point in tau.arrow_to_point.items():
            assert point[0] == int(tg.groupoid.src[arrow])
        assert sorted(tau.point_to_arrow) == sorted(all_points(b))


def test_tau_equivariance():
    b = z2_triangle([1, 0, 0])
    tg = groupoid_of_bundle(b)
    grp = b.group
    u0 = (1, 1)
    tau = fiber_chart_tau(tg, u0)
    psi = vertex_chart_psi(tg, u0)
    for y in list(tau.arrow_to_point):
        for loop in psi.arrow_to_group:
            moved = tg.groupoid.compose(y, loop)
            assert tau.of(moved) == pact(grp, tau.of(y), psi.of(loop))


def test_tau_rebasing():
    b = z3_wedge()
    tg = groupoid_of_bundle(b)
    grp = b.group
    u0 = (0, 1)
    tau = fiber_chart_tau(tg, u0)
    for h in grp.elements:
        moved = fiber_chart_tau(tg, pact(grp, u0, h))
        for y in tau.arrow_to_point:
            assert moved.of(y) == pact(grp, tau.of(y), h)


def test_sigma_laws():
    b = s3_edge()
    tg = groupoid_of_bundle(b)
    grp = b.group
    for u0 in all_points(b):
        sigma = fiber_chart_sigma(tg, u0)
        phi = vertex_chart_phi(tg, u0)
        for w in all_points(b):
            assert sigma.of(tg.arrow_of(*class_coord(grp, u0, w))) == w
        for arrow, point in sigma.arrow_to_point.items():
            assert point[0] == int(tg.groupoid.tgt[arrow])
        for y in sigma.arrow_to_point:
            for loop in phi.arrow_to_group:
                moved = tg.groupoid.compose(loop, y)
                expected = pact(grp, sigma.of(y), grp.inv[phi.of(loop)])
                assert sigma.of(moved) == expected


def test_sigma_rebasing():
    b = z3_wedge()
    tg = groupoid_of_bundle(b)
    grp = b.group
    u0 = (0, 2)
    sigma = fiber_chart_sigma(tg, u0)
    for h in grp.elements:
        moved = fiber_chart_sigma(tg, pact(grp, u0, h))
        for y in sigma.arrow_to_point:
            assert moved.of(y) == pact(grp, sigma.of(y), h)


def index_edited(tg, cell, source, swap):
    """``tg`` with ``index[cell]`` read from ``source``: swapped with it, or
    a repeat of it, as ``dataclasses.replace`` builds it."""
    index = tg.index.copy()
    index[cell], index[source] = tg.index[source], \
        tg.index[cell if swap else source]
    return dataclasses.replace(tg, index=index)


@pytest.mark.parametrize("chart,cell,source,swap,refusal", [
    # phi over (0, 0) reads the loop of twist g for each g
    (vertex_chart_phi, (0, 0, 2), (0, 0, 1), False, "is not well defined"),
    (vertex_chart_psi, (0, 0, 1), (0, 1, 1), True, "is not a bijection"),
    (vertex_chart_phi, (0, 0, 1), (0, 0, 2), True,
     "does not preserve products"),
    # tau reads the arrows (v, 0, h), sigma the arrows (0, v, h)
    (fiber_chart_tau, (1, 0, 2), (1, 0, 1), False, "is not injective"),
    (fiber_chart_sigma, (0, 1, 1), (1, 1, 1), True,
     "misses part of the fiber"),
])
def test_a_chart_read_through_an_edited_index_is_refused(chart, cell, source,
                                                         swap, refusal):
    """On edge-S3 at u0 = (0, 0), where phi's twist is g: two twists on
    one loop, a loop swapped for an arrow to 1, two loops swapped (S3's
    transpositions 1 and 2, which no automorphism swaps alone), one arrow
    into 0 read twice, and an arrow out of 0 swapped for one out of 1."""
    tg = groupoid_of_bundle(s3_edge())
    kind = chart.__name__.rsplit("_", 1)[1]
    edited = index_edited(tg, cell, source, swap)
    assert np.array_equal(np.sort(edited.index, None), np.sort(tg.index, None)) \
        == swap
    with pytest.raises(ValueError,
                       match=rf"^{kind} chart at \(0, 0\) {refusal}$"):
        chart(edited)
    chart(tg)


def test_closed_form_against_the_oracle_refuses_an_edited_transport():
    """Another bundle's groupoid has another orbit count, and a repeated
    coordinate maps two arrows onto one orbit."""
    tg = groupoid_of_bundle(s3_edge())
    other = dataclasses.replace(tg, groupoid=groupoid_of_bundle(
        z3_wedge()).groupoid)
    diag = closed_form_matches_oracle(other)
    assert (diag.ok, diag.failure, diag.witness) == (
        False, "orbit count mismatch", (24, 3))
    coords = list(tg.coords)
    coords[5] = coords[4]
    diag = closed_form_matches_oracle(dataclasses.replace(tg, coords=coords))
    assert (diag.ok, diag.failure, diag.witness) == (
        False, "coordinate map not injective", ())


def test_chart_basepoint_out_of_range():
    tg = groupoid_of_bundle(z3_wedge())
    with pytest.raises(ValueError, match=r"^u0\[1\] = 3 outside range\(3\)$"):
        vertex_chart_phi(tg, (0, 3))
    with pytest.raises(ValueError, match=r"^u0\[0\] = 1 outside range\(1\)$"):
        fiber_chart_tau(tg, (1, 0))


# --- rebuilding the bundle ---------------------------------------------------


def test_reference_arrows_frozen():
    b = z2_triangle([1, 0, 0])
    tg = groupoid_of_bundle(b)
    rec = bundle_of_groupoid(tg.groupoid, tg.connection, x0=0)
    # r_0 is the unit; r_1 and r_2 come in along the tree darts 0 and 5
    assert rec.references == [0, 9, 13]
    assert tg.coord_of(9) == (1, 0, 1)
    assert tg.coord_of(13) == (2, 0, 0)


def test_local_relabel_is_the_twist():
    tg = groupoid_of_bundle(s3_edge())
    rec = bundle_of_groupoid(tg.groupoid, tg.connection, x0=1)
    for a in tg.bundle.group.elements:
        assert rec.vgroup.local_index(tg.arrow_of(1, 1, a)) == a


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_reconstruction_equals_normalized_labels(name):
    b = FIXTURES[name]()
    tg = groupoid_of_bundle(b)
    rec = bundle_of_groupoid(tg.groupoid, tg.connection, x0=0)
    normalized, _, _ = gauge_normalize(b, root=0)
    assert rec.bundle.labels == normalized.labels
    assert rec.bundle.group.mult == b.group.mult


@pytest.mark.parametrize("x0", [0, 1, 2])
def test_roundtrip_any_basepoint(x0):
    b = z2_triangle([1, 0, 0])
    trip = roundtrip_bundle(b, x0=x0)
    normalized, _, _ = gauge_normalize(b, root=x0)
    assert trip.reconstructed.bundle.labels == normalized.labels
    assert len(trip.witness_gauge) == 3


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_roundtrip_fixtures(name):
    trip = roundtrip_bundle(FIXTURES[name]())
    assert trip.reconstructed.basepoint == 0
    assert trip.transport.bundle is trip.original


def test_roundtrip_needs_identity_zero():
    table = [[1, 0], [0, 1]]  # a two-element group whose identity is 1
    _, grp = verify_group(table, identity=1)
    b = CocycleBundle.from_edge_labels(BaseGraph.path(2), grp, [0])
    with pytest.raises(ValueError, match="identity at index 0"):
        roundtrip_bundle(b)


def test_bundle_of_groupoid_rejects_bad_connection():
    tg = groupoid_of_bundle(z2_triangle([1, 0, 0]))
    bad = Connection(tg.connection.base, [0] * len(tg.connection.arrows))
    with pytest.raises(ValueError, match="invalid connection"):
        bundle_of_groupoid(tg.groupoid, bad)


# --- the one-point base ------------------------------------------------------


@pytest.mark.parametrize("preset", ["Z1", "Z2", "S3", "S4"])
def test_point_base_collapses_to_group(preset):
    report = point_base_degenerate(preset_group(preset))
    assert report.iso.ok, report.iso
    assert report.arrow_map == list(range(preset_group(preset).order))


def test_point_base_composition_is_group_multiplication():
    grp = preset_group("S3")
    report = point_base_degenerate(grp)
    gpd = report.transport.groupoid
    for g in grp.elements:
        assert report.transport.coord_of(g) == (0, 0, g)
        for h in grp.elements:
            assert gpd.compose(g, h) == grp.mul(g, h)


def test_connection_verdicts_agree_with_the_oracle_on_seeded_dart_moves(
        tmp_path, capsys):
    """Transport reports of matrix bundles with one or two darts moved to
    another arrow of the same hom-set, in about half the moves with the
    reverse dart moved to the new arrow's inverse: ``verify_connection``
    fails exactly when the oracle finds a broken law, the oracle confirms
    the witness dart, and ``bundleize`` exits 1 exactly then."""
    rng = random.Random("connection fuzz")
    path = tmp_path / "groupoid.json"
    verdicts = set()
    for name in ("Z2/triangle", "Z3/path3", "S3/wedge2", "D4/square"):
        tg = groupoid_of_bundle(matrix_bundle(*name.split("/")))
        gpd = tg.groupoid
        report = transport_to_json(tg)
        for case in range(12):
            arrows = list(tg.connection.arrows)
            for d in rng.sample(range(len(arrows)), rng.randint(1, 2)):
                a = arrows[d]
                arrows[d] = rng.choice([b for b in gpd.hom(
                    int(gpd.src[a]), int(gpd.tgt[a])) if b != a])
                if rng.random() < 0.5:
                    arrows[d ^ 1] = int(gpd.inv[arrows[d]])
            model = dict(report, connection=[list(p) for p in enumerate(arrows)])
            path.write_text(canonical_dumps(model))
            diag = verify_connection(*build_groupoid(load_model(str(path)).data))
            where = (name, case, arrows)
            assert diag.ok == (brute_connection_violation(model) is None), where
            if not diag.ok:
                assert connection_law_broken(model, diag.failure,
                                             diag.witness), (where, diag)
            assert main(["bundleize", str(path)]) == (0 if diag.ok else 1), \
                where
            capsys.readouterr()
            verdicts.add(diag.ok)
    assert verdicts == {True, False}
