"""Groupoid actions, the universal pointed flow, and its fiber semigroup.

A groupoid acts on a finite set through an anchor map: the point ``y`` may
move along exactly the arrows that start at ``anchor(y)``, and lands on a
point anchored at the arrow's target.  The arrows out of a fixed object
``x0``, acted on by composition, form the universal pointed flow (here the
"ambit"): every equivariant map from it to any other action is pinned down
by where the unit goes, and the fiber over ``x0`` composes to a group that
is isomorphic to the vertex group.

Minimal subflows are computed as orbits.  Since arrows are invertible,
every invariant subset is a union of orbits; rather than trusting that
argument the computation re-derives it by exhaustive subset search on
small spaces.  The idempotent and left-ideal machinery likewise accepts an
arbitrary associative table, so the collapse to the group case is observed
rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteGroup, find_group_isomorphism, verify_group
from .diagnostics import Diagnostics
from .groupoid import Groupoid, RowTable, _require_whole, _structural_scan, \
    is_transitive, verify_groupoid, vertex_group

__all__ = [
    "GroupoidAction",
    "Ambit",
    "EquivariantMap",
    "Subflow",
    "FiberSemigroup",
    "MinimalFlowReport",
    "verify_action",
    "base_action",
    "disjoint_union_actions",
    "restrict_action",
    "orbits",
    "invariant_subsets",
    "minimal_subflows",
    "build_ambit",
    "verify_equivariant_map",
    "universal_map",
    "enumerate_equivariant_maps",
    "compose_equivariant_maps",
    "semigroup_idempotents",
    "minimal_left_ideals",
    "fiber_semigroup",
    "minimal_flow_uniqueness",
]


@dataclass(eq=False)
class GroupoidAction(RowTable):
    """A right action of a groupoid on points ``0..n_points-1``.

    Stored like the groupoid's own composition: row ``y`` of ``val`` starts
    at ``row_off[y]`` and holds ``y . h`` for each ``h`` in
    ``gpd.arrows_from(anchor[y])`` in ascending order.  Use
    :func:`GroupoidAction.from_triples` to build from ``[y, g, y . g]``
    triples.
    """

    gpd: Groupoid
    n_points: int
    anchor: np.ndarray
    row_off: np.ndarray
    val: np.ndarray
    flaw: Optional[Diagnostics] = None

    @staticmethod
    def from_triples(gpd: Groupoid, n_points: int, anchor: Sequence[int],
                     triples) -> "GroupoidAction":
        anchor = np.asarray(anchor, dtype=np.int64)
        # until the scans pass: one empty row per anchor entry
        a = GroupoidAction(gpd, n_points, anchor,
                           np.zeros(anchor.shape[0] + 1, np.int64),
                           np.empty(0, np.int64))
        a.flaw = _structural_scan(gpd)
        if a.flaw is None:
            a.flaw = _anchor_scan(a)
        if a.flaw is None:
            a.flaw = _act_flaw(a, *a._fill(triples))
        return a

    def fiber(self, x: int) -> list[int]:
        return np.flatnonzero(self.anchor == x).tolist()


def _anchor_scan(a: GroupoidAction) -> Optional[Diagnostics]:
    if a.anchor.shape[0] != a.n_points:
        return Diagnostics.failed("anchor length mismatch",
                                  (a.anchor.shape[0], a.n_points),
                                  structural=True)
    bad = (a.anchor < 0) | (a.anchor >= a.gpd.n_objects)
    if bool(bad.any()):
        y = int(np.argmax(bad))
        return Diagnostics.failed("anchor out of range", (y, int(a.anchor[y])),
                                  structural=True)
    return None


def _act_flaw(a: GroupoidAction, ys, hs, zs, index, value, off, dup, seen
              ) -> Optional[Diagnostics]:
    """The first flaw of an action table: in the order of the triples, a
    point or arrow out of range or an entry off the domain, then a repeated
    pair; then, in row order, a composable pair without an entry; then, in
    the order of the triples, a value out of range."""
    if bool((index | off).any()):
        i = int(np.argmax(index | off))
        label = "action table index out of range" if index[i] \
            else "composability domain violated"
        return Diagnostics.failed(label, (int(ys[i]), int(hs[i])),
                                  structural=True)
    if bool(dup.any()):
        i = int(np.argmax(dup))
        return Diagnostics.failed("duplicate act pair", (int(ys[i]), int(hs[i])),
                                  structural=True)
    if not bool(seen.all()):
        y, g = (int(c[0]) for c in a.pairs_at(np.argmin(seen)[None]))
        return Diagnostics.failed("composability domain violated", (y, g),
                                  detail="missing entry on a composable pair")
    if bool(value.any()):
        i = int(np.argmax(value))
        return Diagnostics.failed("action value out of range",
                                  (int(ys[i]), int(hs[i]), int(zs[i])),
                                  structural=True)
    return None


def verify_action(a: GroupoidAction, groupoid_ok: bool = False
                  ) -> Diagnostics:
    """Scan the action laws in a fixed order.

    The groupoid first: a failed :func:`verify_groupoid` verdict is
    returned as it is (``groupoid_ok``: the caller has seen it pass, so it
    is not run again).  Structure next: anchor shape and range, then the
    flaw the table was built with.  Then the pointwise laws: the anchor
    moves with the arrow, units act trivially, and acting along a
    composition equals acting twice, by Light's test
    (:meth:`RowTable.light_test`), which rests on the groupoid's
    associativity.
    """
    gpd, n = a.gpd, a.n_points
    if not groupoid_ok:
        diag = verify_groupoid(gpd)
        if not diag.ok:
            return diag
    for diag in (_anchor_scan(a), a.flaw):
        if diag is not None:
            return diag
    hit = a.first_entry(lambda ys, gs, val: a.anchor[val] != gpd.tgt[gs])
    if hit is not None:
        return Diagnostics.failed("anchor compatibility", hit[:2])
    points = np.arange(n)
    moved, _ = a.move_many(points, gpd.unit[a.anchor])
    if bool((moved != points).any()):
        return Diagnostics.failed("action unit law",
                                  (int(np.argmax(moved != points)),))
    witness, _ = a.light_test()
    if witness is not None:
        return Diagnostics.failed("action associativity", witness)
    return Diagnostics.passed(points=n, entries=int(a.row_off[-1]),
                              triples=a.composable_triples())


def base_action(gpd: Groupoid) -> GroupoidAction:
    """The groupoid acting on its own objects: ``x . g = tgt(g)``."""
    order, start, _ = gpd.out_index
    return GroupoidAction(gpd, gpd.n_objects, np.arange(gpd.n_objects), start,
                          gpd.tgt[order])


def disjoint_union_actions(a1: GroupoidAction,
                           a2: GroupoidAction) -> GroupoidAction:
    if a1.gpd is not a2.gpd:
        raise ValueError("disjoint union needs actions of the same groupoid")
    _require_whole(a1, a2)
    shift = a1.n_points
    return GroupoidAction(
        a1.gpd, shift + a2.n_points, np.concatenate([a1.anchor, a2.anchor]),
        np.concatenate([a1.row_off[:-1], a2.row_off + a1.row_off[-1]]),
        np.concatenate([a1.val, a2.val + shift]))


def restrict_action(a: RowTable, points: list[int]) -> GroupoidAction:
    """Restrict an action, or a groupoid's regular action, to an invariant
    subset: each kept row is read and renamed, and points keep their
    relative order."""
    _require_whole(a)
    pts = np.asarray(points, dtype=np.int64)
    index = np.full(a.anchor.shape[0], -1, dtype=np.int64)
    index[pts] = np.arange(pts.shape[0])
    lens = np.diff(a.row_off)[pts]
    row_off = np.concatenate(([0], np.cumsum(lens)))
    at = np.repeat(a.row_off[pts] - row_off[:-1], lens) + np.arange(row_off[-1])
    val = index[a.val[at]]
    if bool((val < 0).any()):
        i = int(np.argmax(val < 0))
        raise ValueError(f"subset is not invariant: {np.repeat(pts, lens)[i]} "
                         f"moves to {a.val[at[i]]}")
    return GroupoidAction(a.gpd, pts.shape[0], a.anchor[pts], row_off, val)


# --- orbits and minimal subflows ---------------------------------------------

def orbits(a: GroupoidAction) -> list[list[int]]:
    """Partition of the points into orbits, sorted by least element.

    Forward moves suffice: each move is undone by the inverse arrow, so
    forward reachability is already symmetric.
    """
    seen = [False] * a.n_points
    out = []
    for start in range(a.n_points):
        if seen[start]:
            continue
        seen[start] = True
        orbit, work = [start], [start]
        while work:
            y = work.pop()
            for z in a.row(y).tolist():
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
                    work.append(z)
        out.append(sorted(orbit))
    return out


def invariant_subsets(a: GroupoidAction, limit: int = 20) -> list[list[int]]:
    """All nonempty invariant subsets by exhaustive scan over bitmasks."""
    n = a.n_points
    if n > limit:
        raise ValueError(f"{n} points exceed the exhaustive-search cap {limit}")
    moves = [a.row(y).tolist() for y in range(n)]
    found = []
    for mask in range(1, 1 << n):
        closed = True
        for y in range(n):
            if mask >> y & 1 and any(not mask >> z & 1 for z in moves[y]):
                closed = False
                break
        if closed:
            found.append([y for y in range(n) if mask >> y & 1])
    return found


@dataclass
class Subflow:
    points: list[int]
    action: GroupoidAction


def minimal_subflows(a: GroupoidAction, crosscheck_limit: int = 12
                     ) -> list[Subflow]:
    """The minimal nonempty invariant subsets with their restricted actions.

    These are exactly the orbits: moves are invertible, so any invariant
    set containing a point contains its whole orbit.  On spaces of at most
    ``crosscheck_limit`` points the identification is re-proved against the
    exhaustive invariant-subset search instead of trusted.
    """
    orbs = orbits(a)
    if a.n_points <= crosscheck_limit:
        closed = invariant_subsets(a)
        minimal = [s for s in closed
                   if not any(set(t) < set(s) for t in closed)]
        if sorted(map(tuple, minimal)) != sorted(map(tuple, orbs)):
            raise AssertionError(
                "orbit partition disagrees with exhaustive minimal subsets")
    return [Subflow(points=o, action=restrict_action(a, o)) for o in orbs]


# --- the universal pointed flow ------------------------------------------------

@dataclass
class Ambit:
    """The arrows out of ``basepoint`` under right composition, with the
    unit as distinguished point.  ``points[i]`` is the arrow behind point
    ``i``; the action's anchor is the target map."""

    action: GroupoidAction
    basepoint: int
    points: list[int]
    u0: int

    def fiber_points(self) -> list[int]:
        return self.action.fiber(self.basepoint)


def build_ambit(gpd: Groupoid, x0: int = 0) -> Ambit:
    """Assemble the ambit at ``x0``, the groupoid's regular action
    restricted to the arrows out of ``x0``, and check its defining properties:
    the unit acts as a retrieval map (``u0 . w == w`` for every point),
    the action is free, and the anchor is onto (needs transitivity)."""
    if not (0 <= x0 < gpd.n_objects):
        raise ValueError(f"object {x0} out of range")
    ok, witness = is_transitive(gpd)
    if not ok:
        raise ValueError(
            f"groupoid is not transitive (no arrow {witness[0]} -> {witness[1]}); "
            "the ambit anchor would not be surjective")
    points = gpd.arrows_from(x0)
    # arrows out of x0 are closed under composition on the right
    action = restrict_action(gpd, points)
    ambit = Ambit(action=action, basepoint=x0, points=points.tolist(),
                  u0=int(np.flatnonzero(points == gpd.unit[x0])[0]))
    # row u0 holds u0 . w for every point w, in point order
    if not np.array_equal(action.row(ambit.u0), np.arange(points.shape[0])):
        raise AssertionError("the unit does not retrieve every point")
    fixed = action.first_entry(lambda ys, gs, val: (val == ys)
                               & (gs != gpd.unit[action.anchor[ys]]))
    if fixed is not None:
        raise AssertionError(f"action is not free at point {fixed[0]}, "
                             f"arrow {fixed[1]}")
    return ambit


# --- equivariant maps ----------------------------------------------------------

@dataclass
class EquivariantMap:
    source: GroupoidAction
    target: GroupoidAction
    values: list[int]

    def __call__(self, y: int) -> int:
        return self.values[y]


def verify_equivariant_map(m: EquivariantMap) -> Diagnostics:
    """Anchor preservation plus ``f(y . g) == f(y) . g`` on every pair."""
    if m.source.gpd is not m.target.gpd:
        return Diagnostics.failed("different groupoids", (), structural=True)
    if len(m.values) != m.source.n_points:
        return Diagnostics.failed("value count mismatch",
                                  (len(m.values), m.source.n_points),
                                  structural=True)
    for y, z in enumerate(m.values):
        if not (0 <= z < m.target.n_points):
            return Diagnostics.failed("value out of range", (y, z),
                                      structural=True)
        if m.target.anchor[z] != m.source.anchor[y]:
            return Diagnostics.failed("anchor not preserved", (y,))
    # a missing entry reads -1, which would index the last point
    for a in (m.source, m.target):
        if a.flaw is not None:
            return a.flaw
    values = np.asarray(m.values, dtype=np.int64)
    hit = m.source.first_entry(lambda ys, gs, val: m.target.move_many(
        values[ys], gs)[0] != values[val])
    if hit is not None:
        return Diagnostics.failed("equivariance", hit[:2])
    return Diagnostics.passed(pairs=int(m.source.row_off[-1]))


def universal_map(a: GroupoidAction, ambit: Ambit, y: int) -> EquivariantMap:
    """The unique equivariant map from the ambit sending the unit to ``y``:
    point ``w`` goes to ``y . w``.  Verified before being returned."""
    if a.gpd is not ambit.action.gpd:
        raise ValueError("action and ambit use different groupoids")
    if not (0 <= y < a.n_points):
        raise ValueError(f"point {y} out of range")
    if a.anchor[y] != ambit.basepoint:
        raise ValueError(
            f"point {y} is anchored at {a.anchor[y]}, not at the "
            f"basepoint {ambit.basepoint}")
    values, _ = a.move_many(np.full(len(ambit.points), y), ambit.points)
    m = EquivariantMap(source=ambit.action, target=a, values=values.tolist())
    diag = verify_equivariant_map(m)
    if not diag.ok:  # pragma: no cover - the action laws force this
        raise AssertionError(f"universal map is not equivariant: {diag.failure}")
    if m.values[ambit.u0] != y:  # pragma: no cover - unit law forces this
        raise AssertionError("universal map misses its defining value")
    return m


def enumerate_equivariant_maps(ambit: Ambit,
                               a: GroupoidAction) -> list[EquivariantMap]:
    """All equivariant maps out of the ambit, ordered by the image of the
    unit.

    A candidate exists per point of the target fiber over the basepoint:
    anchors force ``f(u0)`` into that fiber, and since the unit retrieves
    every point (``w == u0 . w``, checked at construction), equivariance
    forces ``f(w) == f(u0) . w``.  Each candidate is then verified against
    every action pair rather than accepted on that argument, and the list
    is checked to be exactly the universal maps of the fiber.
    """
    found = []
    for y in a.fiber(ambit.basepoint):
        values, _ = a.move_many(np.full(len(ambit.points), y), ambit.points)
        m = EquivariantMap(source=ambit.action, target=a, values=values.tolist())
        if verify_equivariant_map(m).ok:
            found.append(m)
    for m in found:
        expected = universal_map(a, ambit, m.values[ambit.u0])
        if m.values != expected.values:  # pragma: no cover
            raise AssertionError("an enumerated map is not a universal map")
    return found


def compose_equivariant_maps(outer: EquivariantMap,
                             inner: EquivariantMap) -> EquivariantMap:
    """The map ``y -> outer(inner(y))``; targets must chain."""
    if inner.target is not outer.source:
        raise ValueError("maps do not chain")
    return EquivariantMap(source=inner.source, target=outer.target,
                          values=[outer.values[z] for z in inner.values])


# --- the fiber semigroup --------------------------------------------------------

def semigroup_idempotents(table: list[list[int]]) -> list[int]:
    """Elements with ``y * y == y`` in an arbitrary multiplication table."""
    return [y for y in range(len(table)) if table[y][y] == y]


def minimal_left_ideals(table: list[list[int]]) -> list[list[int]]:
    """Inclusion-minimal principal left ideals ``S^1 * y`` of a finite
    semigroup table; every minimal left ideal is of this shape.  Sorted by
    (size, elements) with duplicates removed."""
    n = len(table)
    ideals = {tuple(sorted({y} | {table[s][y] for s in range(n)}))
              for y in range(n)}
    minimal = [set(i) for i in ideals
               if not any(set(j) < set(i) for j in ideals)]
    return sorted((sorted(i) for i in minimal), key=lambda i: (len(i), i))


@dataclass
class FiberSemigroup:
    """The basepoint fiber of an ambit under ``y * z = l_y(z)``, which for
    a groupoid ambit is a group isomorphic to the vertex group."""

    fiber: list[int]
    u0_position: int
    table: list[list[int]]
    group: FiniteGroup
    idempotents: list[int]
    left_ideals: list[list[int]]
    vertex_iso: list[int]


def fiber_semigroup(ambit: Ambit) -> FiberSemigroup:
    """Multiply fiber points by applying one universal map after another.

    The product table is computed as ``y * z = l_y(z)``, the semigroup law
    ``l_y . l_z == l_{y*z}`` is asserted as equality of whole maps, and the
    table must verify as a group (the unit is placed first, so it sits at
    index 0).  The isomorphism onto the vertex group is found by exhaustive
    backtracking search rather than read off the construction.
    """
    a = ambit.action
    fiber = [ambit.u0] + [y for y in ambit.fiber_points() if y != ambit.u0]
    pos = {y: i for i, y in enumerate(fiber)}
    lmaps = {y: universal_map(a, ambit, y) for y in fiber}
    table = [[pos[lmaps[y].values[z]] for z in fiber] for y in fiber]
    for y in fiber:
        for z in fiber:
            composed = compose_equivariant_maps(lmaps[y], lmaps[z])
            if composed.values != lmaps[lmaps[y].values[z]].values:
                raise AssertionError(
                    f"universal maps do not compose at fiber pair ({y}, {z})")
    diag, group = verify_group(table, identity=0)
    if group is None:
        raise AssertionError(f"fiber table is not a group: {diag.failure}")
    vgroup = vertex_group(ambit.action.gpd, ambit.basepoint).group
    iso = find_group_isomorphism(group, vgroup)
    if iso is None:
        raise AssertionError("fiber semigroup is not the vertex group")
    idem = [fiber[i] for i in semigroup_idempotents(table)]
    ideals = [[fiber[i] for i in ideal] for ideal in minimal_left_ideals(table)]
    return FiberSemigroup(fiber=fiber, u0_position=0, table=table,
                          group=group, idempotents=idem, left_ideals=ideals,
                          vertex_iso=iso)


# --- uniqueness of the minimal flow ----------------------------------------------

@dataclass
class MinimalFlowReport:
    subflows: list[Subflow]
    self_map_counts: list[int]
    all_self_maps_bijective: bool
    pairwise_isomorphic: bool
    witness: Optional[tuple] = None
    notes: dict = field(default_factory=dict)


def minimal_flow_uniqueness(ambit: Ambit) -> MinimalFlowReport:
    """For the ambit the minimal subflow is the whole space, so the report
    enumerates its equivariant self-maps, checks each is bijective, and
    records that all pairs of minimal subflows (here: the one pair) are
    isomorphic."""
    subflows = minimal_subflows(ambit.action)
    if len(subflows) != 1 or subflows[0].points != list(
            range(ambit.action.n_points)):
        raise AssertionError("ambit must have exactly one minimal subflow")
    self_maps = enumerate_equivariant_maps(ambit, ambit.action)
    bad = None
    for i, m in enumerate(self_maps):
        if sorted(m.values) != list(range(ambit.action.n_points)):
            bad = (i, tuple(m.values))
            break
    return MinimalFlowReport(
        subflows=subflows,
        self_map_counts=[len(self_maps)],
        all_self_maps_bijective=bad is None,
        pairwise_isomorphic=bad is None,
        witness=bad,
        notes={"finite specialization":
               "the universal pointed flow is the arrow fiber itself"},
    )
