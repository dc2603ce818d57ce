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
from .groupoid import Groupoid, RowTable, _require_whole, is_transitive, \
    val_width, verify_groupoid, vertex_group

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

_CROSSCHECK_POINTS = 12  # the largest space re-checked by exhaustive search
_SUBSET_SEARCH_POINTS = 20  # the most points invariant_subsets scans


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
    _FLAW_LABELS = ("action table index out of range",
                    "action value out of range", "duplicate act pair")

    @staticmethod
    def from_triples(gpd: Groupoid, n_points: int, anchor: Sequence[int],
                     triples) -> "GroupoidAction":
        anchor = np.asarray(anchor, dtype=np.int64)
        return GroupoidAction(gpd, n_points, anchor,
                              [0] * (anchor.shape[0] + 1), [])._filled(triples)

    def _index_flaw(self) -> Optional[Diagnostics]:
        """The groupoid's flaw, else the anchor's shape and range."""
        if self.gpd.flaw is not None:
            return self.gpd.flaw
        if self.anchor.shape[0] != self.n_points:
            return Diagnostics.failed("anchor length mismatch",
                                      (self.anchor.shape[0], self.n_points),
                                      structural=True)
        bad = (self.anchor < 0) | (self.anchor >= self.gpd.n_objects)
        if bool(bad.any()):
            y = int(np.argmax(bad))
            return Diagnostics.failed("anchor out of range",
                                      (y, int(self.anchor[y])),
                                      structural=True)
        return None

    def fiber(self, x: int) -> list[int]:
        return np.flatnonzero(self.anchor == x).tolist()


def verify_action(a: GroupoidAction) -> Diagnostics:
    """Scan the action laws in a fixed order.

    The groupoid first: a failed :func:`verify_groupoid` verdict is
    returned as it is (the groupoid keeps its verdict, so one that was
    verified before is not scanned again).  Structure next: the action's
    ``flaw``, set once when it was built: anchor shape and range, then the
    flaw of its rows, picked in the groupoid's order.  Then the pointwise
    laws: the anchor moves with the arrow, units act trivially, and acting
    along a composition equals acting twice, by Light's test
    (:meth:`RowTable.light_test`), which rests on the groupoid's
    associativity.
    """
    gpd, n = a.gpd, a.n_points
    diag = verify_groupoid(gpd)
    if not diag.ok:
        return diag
    if a.flaw is not None:
        return a.flaw
    hit = a.first_entry(lambda ys, gs, val: a.anchor[val] != gpd.tgt[gs])
    if hit is not None:
        return Diagnostics.failed("anchor compatibility", hit[:2])
    points = np.arange(n)
    moved = a._at(points, gpd.unit[a.anchor])
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
        # widened first: an int16 value plus shift would wrap
        np.concatenate([a1.val, a2.val.astype(np.int32) + shift]))


def restrict_action(a: RowTable, points: list[int]) -> GroupoidAction:
    """Restrict an action, or a groupoid's regular action, to an invariant
    subset of distinct points: each kept row is read and renamed, and points
    keep their relative order."""
    _require_whole(a)
    pts = np.asarray(points, dtype=np.int64)
    n = a.anchor.shape[0]
    outside = (pts < 0) | (pts >= n)
    if bool(outside.any()):
        raise ValueError(f"point {pts[np.argmax(outside)]} out of range")
    twice = np.bincount(pts, minlength=n)[pts] > 1
    if bool(twice.any()):
        raise ValueError(f"point {pts[np.argmax(twice)]} given twice")
    index = np.full(n, -1, dtype=val_width(pts.shape[0], a.gpd.n_arrows))
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


def invariant_subsets(a: GroupoidAction) -> list[list[int]]:
    """All nonempty invariant subsets by exhaustive scan over bitmasks."""
    n = a.n_points
    if n > _SUBSET_SEARCH_POINTS:
        raise ValueError(f"{n} points exceed the exhaustive-search cap "
                         f"{_SUBSET_SEARCH_POINTS}")
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


def minimal_subflows(a: GroupoidAction) -> list[Subflow]:
    """The minimal nonempty invariant subsets with their restricted actions.

    These are exactly the orbits: moves are invertible, so any invariant
    set containing a point contains its whole orbit.  On spaces of at most
    ``_CROSSCHECK_POINTS`` points the identification is re-proved against the
    exhaustive invariant-subset search instead of trusted.
    """
    orbs = orbits(a)
    if a.n_points <= _CROSSCHECK_POINTS:
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
    the action is free, and the anchor is onto (needs transitivity).  The
    table must have no flaw and the unit of ``x0`` must start at ``x0``."""
    _require_whole(gpd)  # is_transitive indexes with src and tgt
    if not (0 <= x0 < gpd.n_objects):
        raise ValueError(f"object {x0} out of range")
    ok, witness = is_transitive(gpd)
    if not ok:
        raise ValueError(
            f"groupoid is not transitive (no arrow {witness[0]} -> {witness[1]}); "
            "the ambit anchor would not be surjective")
    points = gpd.arrows_from(x0)
    u0 = np.flatnonzero(points == gpd.unit[x0])
    if not u0.size:
        raise ValueError(f"unit of object {x0} is not an arrow out of {x0}")
    # arrows out of x0 are closed under composition on the right
    action = restrict_action(gpd, points)
    ambit = Ambit(action=action, basepoint=x0, points=points.tolist(),
                  u0=int(u0[0]))
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
    """Anchor preservation plus ``f(y . g) == f(y) . g`` on every pair,
    after either action's ``flaw``, set once when it was built."""
    if m.source.gpd is not m.target.gpd:
        return Diagnostics.failed("different groupoids", (), structural=True)
    if len(m.values) != m.source.n_points:
        return Diagnostics.failed("value count mismatch",
                                  (len(m.values), m.source.n_points),
                                  structural=True)
    for t in (m.source, m.target):  # the loop below reads their anchors
        if t.flaw is not None:
            return t.flaw
    for y, z in enumerate(m.values):
        if not (0 <= z < m.target.n_points):
            return Diagnostics.failed("value out of range", (y, z),
                                      structural=True)
        if m.target.anchor[z] != m.source.anchor[y]:
            return Diagnostics.failed("anchor not preserved", (y,))
    diag = m.source.map_flaw(m.target, np.asarray(m.values, dtype=np.int64),
                             np.arange(m.source.gpd.n_arrows), "equivariance")
    return Diagnostics.passed(pairs=int(m.source.row_off[-1])) \
        if diag is None else diag


def _map_from_unit(a: GroupoidAction, ambit: Ambit, y: int) -> EquivariantMap:
    """The map from the ambit sending point ``w`` to ``y . w``, unverified."""
    values, _ = a.move_many(np.full(len(ambit.points), y), ambit.points)
    return EquivariantMap(source=ambit.action, target=a, values=values.tolist())


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
    m = _map_from_unit(a, ambit, y)
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
    forces ``f(w) == f(u0) . w``.  Each candidate is built as
    :func:`universal_map` builds it and verified once against every action
    pair rather than accepted on that argument; one that fails, or that
    does not send the unit to its point, as on a target that breaks the
    action laws, is dropped rather than raised, so no map is listed twice.
    """
    candidates = ((y, _map_from_unit(a, ambit, y))
                  for y in a.fiber(ambit.basepoint))
    return [m for y, m in candidates
            if m.values[ambit.u0] == y and verify_equivariant_map(m).ok]


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
    a groupoid ambit is a group isomorphic to the vertex group; ``verdict``
    is the group check of ``table``."""

    fiber: list[int]
    u0_position: int
    table: list[list[int]]
    verdict: Diagnostics
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
    search rather than read off the construction.
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
                          verdict=diag, group=group, idempotents=idem,
                          left_ideals=ideals, vertex_iso=iso)


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
