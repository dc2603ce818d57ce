"""The dictionary between bundles and transitive groupoids.

Quotienting the square of a bundle's total space by the diagonal right
action yields a groupoid over the base vertices: the class of a point pair
``(u, v)`` is an arrow from the vertex under ``u`` to the vertex under
``v``, units are the classes ``[v, v]``, and classes compose by matching
middle entries after a diagonal translation.  Every class has a unique
representative whose second entry carries the identity, which gives the
closed coordinate form used throughout: the arrow ``(v, w, a)`` stands for
the class of ``((v, a), (w, identity))``, and

    (v, w, a) . (w, z, b) = (v, z, a * b)      inverse: (w, v, a^-1)

The construction is implemented twice: in closed form (fast, array-backed)
and as a literal orbit enumeration oracle; tests and the acceptance suite
require them to agree arrow for arrow.  The reverse direction rebuilds a
bundle from a transitive groupoid with a connection by transporting
reference arrows along a spanning tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .algebra import FiniteGroup, _index
from .bundle import (
    BaseGraph,
    CocycleBundle,
    bfs_tree,
    bundles_isomorphic,
    total_space,
)
from .diagnostics import Diagnostics
from .groupoid import (
    Groupoid,
    HomSet,
    one_object_groupoid,
    val_width,
    verify_groupoid,
    verify_groupoid_iso,
    vertex_group,
)

__all__ = [
    "ArrowCoordinate",
    "Connection",
    "TransportGroupoid",
    "VertexChart",
    "FiberChart",
    "ReconstructedBundle",
    "RoundTrip",
    "PointBaseReport",
    "groupoid_of_bundle",
    "orbit_quotient_groupoid",
    "closed_form_matches_oracle",
    "verify_connection",
    "vertex_chart_phi",
    "vertex_chart_psi",
    "fiber_chart_tau",
    "fiber_chart_sigma",
    "bundle_of_groupoid",
    "roundtrip_bundle",
    "point_base_degenerate",
]

_ORACLE_PAIRS = 10_000  # the most point pairs the orbit oracle enumerates


class ArrowCoordinate(NamedTuple):
    src_vertex: int
    tgt_vertex: int
    twist: int


@dataclass
class Connection:
    """One groupoid arrow per dart, realizing dart transport."""

    base: BaseGraph
    arrows: list[int]


@dataclass
class TransportGroupoid:
    """The quotient groupoid of a bundle in arrow coordinates: a vertex,
    twist or arrow outside its range is refused by its name."""

    bundle: CocycleBundle
    groupoid: Groupoid
    connection: Connection
    coords: list[ArrowCoordinate]
    index: np.ndarray

    def arrow_of(self, v: int, w: int, a: int) -> int:
        m, _, n = self.index.shape
        return int(self.index[_index("v", v, m), _index("w", w, m),
                              _index("a", a, n)])

    def coord_of(self, arrow: int) -> ArrowCoordinate:
        return self.coords[_index("arrow", arrow, len(self.coords))]


def groupoid_of_bundle(b: CocycleBundle) -> TransportGroupoid:
    """Build the quotient groupoid in closed coordinate form.

    Arrows are indexed with the units first (the unit of object ``x`` is
    arrow ``x``), then all remaining triples ``(v, w, a)`` in lexicographic
    order, so the result is normalized and deterministic.  The connection
    assigns to each dart the class of ``(point, transported point)``, which
    in coordinates is ``(dsrc(d), dtgt(d), label(d)^-1)``.
    """
    grp, base = b.group, b.base
    m, n = base.n_vertices, grp.order
    e_id = grp.identity
    k = m * m * n

    # arrow i is the lexicographic cell cell_of[i]: a stable partition that
    # puts the unit cells (x, x, e) first
    cells = np.indices((m, m, n), dtype=np.int64).reshape(3, -1)
    cell_of = np.argsort((cells[0] != cells[1]) | (cells[2] != e_id),
                         kind="stable")
    v_of, w_of, a_of = cells[:, cell_of]
    index = np.empty(k, dtype=np.int64)
    index[cell_of] = np.arange(k)
    index = index.reshape(m, m, n)

    mult = np.asarray(grp.mult, dtype=np.int64)
    ginv = np.asarray(grp.inv, dtype=np.int64)
    inv_arr = index[w_of, v_of, ginv[a_of]]

    # row g holds g . h for the m * n arrows h out of tgt(g)
    val = np.empty(k * m * n, dtype=val_width(k, k))
    for w in range(m):
        ins = np.flatnonzero(w_of == w)
        outs = np.flatnonzero(v_of == w)  # ascending, as rows are laid out
        val[ins[:, None] * (m * n) + np.arange(outs.size)] = index[
            v_of[ins][:, None], w_of[outs], mult[a_of[ins][:, None], a_of[outs]]]
    gpd = Groupoid(v_of, w_of, np.arange(m, dtype=np.int64), inv_arr, val)
    conn = Connection(base=base, arrows=[
        int(index[base.dsrc(d), base.dtgt(d), grp.inv[b.labels[d]]])
        for d in range(base.n_darts)
    ])
    coords = [ArrowCoordinate(int(v_of[i]), int(w_of[i]), int(a_of[i]))
              for i in range(k)]
    return TransportGroupoid(bundle=b, groupoid=gpd, connection=conn,
                             coords=coords, index=index)


# --- the literal orbit oracle ----------------------------------------------

def _orbit_rep(grp: FiniteGroup, p: tuple[int, int], q: tuple[int, int]
               ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The least member of the diagonal orbit of the point pair ``(p, q)``."""
    return min((((p[0], grp.mul(p[1], g)), (q[0], grp.mul(q[1], g)))
                for g in grp.elements))


def orbit_quotient_groupoid(b: CocycleBundle) -> tuple[Groupoid, list, dict]:
    """Enumerate the diagonal orbits of point pairs directly.

    Each orbit is named by its lexicographically least member.  Composition
    translates the second class until its first entry matches the middle
    point, exactly as the quotient construction prescribes.  Deliberately
    independent of the closed form; quadratic in the total space.
    """
    ts = total_space(b)
    grp = b.group
    if ts.n_points ** 2 > _ORACLE_PAIRS:
        raise ValueError(f"{ts.n_points ** 2} point pairs exceed cap {_ORACLE_PAIRS}")
    points = [ts.point(p) for p in range(ts.n_points)]
    reps = sorted({_orbit_rep(grp, p, q) for p in points for q in points})
    rep_index = {r: i for i, r in enumerate(reps)}

    src = [r[0][0] for r in reps]
    tgt = [r[1][0] for r in reps]
    unit = [rep_index[_orbit_rep(grp, (x, grp.identity), (x, grp.identity))]
            for x in range(b.base.n_vertices)]
    inv = [rep_index[_orbit_rep(grp, r[1], r[0])] for r in reps]
    comp = {}
    for i, (u, v) in enumerate(reps):
        for j, (p2, q2) in enumerate(reps):
            if v[0] != p2[0]:
                continue
            g = grp.mul(grp.inv[v[1]], p2[1])  # translate: p2 = v . g
            comp[(i, j)] = rep_index[_orbit_rep(grp, (u[0], grp.mul(u[1], g)), q2)]
    gpd = Groupoid.from_tables(src, tgt, unit, inv, comp)
    return gpd, reps, rep_index


def closed_form_matches_oracle(tg: TransportGroupoid) -> Diagnostics:
    """Check that every coordinate arrow is exactly its predicted orbit and
    that all structure transfers: the map arrow -> orbit of
    ``((v, a), (w, identity))`` must be a groupoid isomorphism."""
    grp = tg.bundle.group
    oracle, reps, rep_index = orbit_quotient_groupoid(tg.bundle)
    if oracle.n_arrows != tg.groupoid.n_arrows:
        return Diagnostics.failed(
            "orbit count mismatch", (oracle.n_arrows, tg.groupoid.n_arrows))
    arr_map = [rep_index[_orbit_rep(grp, (c.src_vertex, c.twist),
                                    (c.tgt_vertex, grp.identity))]
               for c in tg.coords]
    if len(set(arr_map)) != len(arr_map):
        return Diagnostics.failed("coordinate map not injective", ())
    return verify_groupoid_iso(tg.groupoid, oracle,
                               list(range(tg.groupoid.n_objects)), arr_map)


# --- connection checking -----------------------------------------------------

def verify_connection(gpd: Groupoid, conn: Connection) -> Diagnostics:
    """A connection must join each dart's endpoints and respect reversal,
    and its base graph must be connected (which makes the groupoid
    transitive); the witness of a disconnected base is its lowest vertex
    out of reach of vertex 0.  The groupoid's ``flaw`` comes before any
    scan that reads its arrays."""
    base = conn.base
    if len(conn.arrows) != base.n_darts:
        return Diagnostics.failed(
            "connection length mismatch", (len(conn.arrows), base.n_darts),
            structural=True)
    if base.n_vertices != gpd.n_objects:
        return Diagnostics.failed(
            "connection base size mismatch", (base.n_vertices, gpd.n_objects),
            structural=True)
    if gpd.flaw is not None:  # the scans below read its src, tgt and inv
        return gpd.flaw
    for d, a in enumerate(conn.arrows):
        if not (0 <= a < gpd.n_arrows):
            return Diagnostics.failed("connection arrow out of range", (d, a),
                                      structural=True)
        if int(gpd.src[a]) != base.dsrc(d) or int(gpd.tgt[a]) != base.dtgt(d):
            return Diagnostics.failed("connection endpoints", (d, a))
    for d, a in enumerate(conn.arrows):
        if conn.arrows[base.rev(d)] != gpd.inverse(a):
            return Diagnostics.failed("connection reversal", (d,))
    missing = base.first_unreachable()
    if missing is not None:
        return Diagnostics.failed("connection base connectivity", (missing,))
    return Diagnostics.passed(darts=base.n_darts)


# --- charts -------------------------------------------------------------------

def _resolve_u0(tg: TransportGroupoid,
                u0: Optional[tuple[int, int]]) -> tuple[int, int]:
    if u0 is None:
        return 0, tg.bundle.group.identity
    return (_index("u0[0]", u0[0], tg.bundle.base.n_vertices),
            _index("u0[1]", u0[1], tg.bundle.group.order))


@dataclass
class VertexChart:
    """Isomorphism from the loops at the basepoint's vertex onto the group,
    written as a pair of mutually inverse dictionaries.  ``of`` reads the
    first, keyed by the loops, which are not a ``range``: it refuses an
    arrow off them as ``arrow = <a> not among the loops at <x0>``."""

    kind: str
    u0: tuple[int, int]
    arrow_to_group: dict[int, int]
    group_to_arrow: dict[int, int]

    def of(self, arrow: int) -> int:
        if arrow not in self.arrow_to_group:
            raise ValueError(f"arrow = {arrow} not among the loops at "
                             f"{self.u0[0]}")
        return self.arrow_to_group[arrow]


def _build_vertex_chart(tg: TransportGroupoid, u0, kind: str) -> VertexChart:
    x0, h0 = _resolve_u0(tg, u0)
    grp = tg.bundle.group
    a2g: dict[int, int] = {}
    g2a: dict[int, int] = {}
    for g in grp.elements:
        if kind == "phi":
            # the class of (u0 . g, u0) maps to g
            twist = grp.mul(grp.mul(h0, g), grp.inv[h0])
            value = g
        else:
            # the class of (u0, u0 . g) maps to g^-1
            twist = grp.mul(h0, grp.mul(grp.inv[g], grp.inv[h0]))
            value = grp.inv[g]
        arrow = tg.arrow_of(x0, x0, twist)
        if arrow in a2g and a2g[arrow] != value:
            raise ValueError(f"{kind} chart at {(x0, h0)} is not well defined")
        a2g[arrow] = value
        g2a[value] = arrow
    loops = vertex_group(tg.groupoid, x0)
    if sorted(a2g) != sorted(loops.arrows) or len(g2a) != grp.order:
        raise ValueError(f"{kind} chart at {(x0, h0)} is not a bijection")
    for a in loops.arrows:
        for c in loops.arrows:
            if a2g[tg.groupoid.compose(a, c)] != grp.mul(a2g[a], a2g[c]):
                raise ValueError(
                    f"{kind} chart at {(x0, h0)} does not preserve products")
    return VertexChart(kind=kind, u0=(x0, h0), arrow_to_group=a2g,
                       group_to_arrow=g2a)


def vertex_chart_phi(tg: TransportGroupoid,
                     u0: Optional[tuple[int, int]] = None) -> VertexChart:
    """Loop chart determined by ``phi([u0 . g, u0]) = g``; verified to be a
    group isomorphism.  Rebasing to ``u0 . h`` conjugates the chart by ``h``."""
    return _build_vertex_chart(tg, u0, "phi")


def vertex_chart_psi(tg: TransportGroupoid,
                     u0: Optional[tuple[int, int]] = None) -> VertexChart:
    """Loop chart determined by ``psi([u0, u0 . g]) = g^-1``; agrees with
    ``phi`` composed with the loop inverse."""
    return _build_vertex_chart(tg, u0, "psi")


@dataclass
class FiberChart:
    """Bijection between an arrow fiber at the basepoint and the total
    space: ``tau`` trivializes the target fiber (projection = src), ``sigma``
    the source fiber (projection = tgt).  ``of`` reads ``arrow_to_point``,
    keyed by the fiber, not a ``range``, and refuses an arrow off it as
    ``arrow = <a> not among the arrows into <x0>`` (``out of`` for sigma)."""

    kind: str
    u0: tuple[int, int]
    arrow_to_point: dict[int, tuple[int, int]]
    point_to_arrow: dict[tuple[int, int], int]

    def of(self, arrow: int) -> tuple[int, int]:
        if arrow not in self.arrow_to_point:
            way = "into" if self.kind == "tau" else "out of"
            raise ValueError(f"arrow = {arrow} not among the arrows {way} "
                             f"{self.u0[0]}")
        return self.arrow_to_point[arrow]


def _build_fiber_chart(tg: TransportGroupoid, u0, kind: str) -> FiberChart:
    x0, h0 = _resolve_u0(tg, u0)
    grp, base = tg.bundle.group, tg.bundle.base
    a2p: dict[int, tuple[int, int]] = {}
    p2a: dict[tuple[int, int], int] = {}
    for v in range(base.n_vertices):
        for hw in grp.elements:
            if kind == "tau":
                # tau sends the class of (w, u0) back to w
                arrow = tg.arrow_of(v, x0, grp.mul(hw, grp.inv[h0]))
            else:
                # sigma sends the class of (u0, w) back to w
                arrow = tg.arrow_of(x0, v, grp.mul(h0, grp.inv[hw]))
            point = (v, hw)
            if arrow in a2p:
                raise ValueError(f"{kind} chart at {(x0, h0)} is not injective")
            a2p[arrow] = point
            p2a[point] = arrow
    expected = tg.groupoid.arrows_into(x0) if kind == "tau" \
        else tg.groupoid.arrows_from(x0)
    if sorted(a2p) != sorted(int(a) for a in expected):
        raise ValueError(f"{kind} chart at {(x0, h0)} misses part of the fiber")
    return FiberChart(kind=kind, u0=(x0, h0), arrow_to_point=a2p,
                      point_to_arrow=p2a)


def fiber_chart_tau(tg: TransportGroupoid,
                    u0: Optional[tuple[int, int]] = None) -> FiberChart:
    """Trivialize the arrows into the basepoint's vertex: the class of
    ``(w, u0)`` maps to ``w``, and projection after the chart equals src."""
    return _build_fiber_chart(tg, u0, "tau")


def fiber_chart_sigma(tg: TransportGroupoid,
                      u0: Optional[tuple[int, int]] = None) -> FiberChart:
    """Trivialize the arrows out of the basepoint's vertex: the class of
    ``(u0, w)`` maps to ``w``, and projection after the chart equals tgt."""
    return _build_fiber_chart(tg, u0, "sigma")


# --- groupoid -> bundle --------------------------------------------------------

@dataclass
class ReconstructedBundle:
    bundle: CocycleBundle
    vgroup: HomSet
    references: list[int]
    basepoint: int


def bundle_of_groupoid(gpd: Groupoid, conn: Connection,
                       x0: int = 0) -> ReconstructedBundle:
    """Rebuild a bundle from a transitive groupoid with a connection.

    The total space is the arrow fiber into ``x0`` and dart transport is
    pre-composition with the reversed dart's connection arrow.  Reference
    arrows are transported along the BFS spanning tree rooted at ``x0``,
    and the label of dart ``d`` is the unique vertex-group element carrying
    the transported source reference to the target reference.  An arrow
    read as a label that is not a loop at ``x0``, which only a groupoid
    that breaks a law gives, is refused with the dart, the arrow and the
    first law :func:`verify_groupoid` finds broken.
    """
    _index("x0", x0, gpd.n_objects)
    verify_connection(gpd, conn).require("invalid connection")
    base = conn.base
    vg = vertex_group(gpd, x0)
    grp = vg.group

    def transport(d: int, y: int) -> int:
        return gpd.compose(conn.arrows[base.rev(d)], y)

    tree = bfs_tree(base, x0)
    refs = [-1] * base.n_vertices
    refs[x0] = int(gpd.unit[x0])
    for v in tree.order:
        d = tree.parent_dart[v]
        if d >= 0:
            refs[v] = transport(d, refs[base.dsrc(d)])

    labels = [0] * base.n_darts
    for d in range(base.n_darts):
        carried = transport(d, refs[base.dsrc(d)])
        loop = gpd.compose(gpd.inverse(refs[base.dtgt(d)]), carried)
        if gpd.compose(refs[base.dtgt(d)], loop) != carried:
            raise ValueError(f"reference transport is not free at dart {d}")
        if loop not in vg.arrows:  # only a groupoid that breaks a law
            verify_groupoid(gpd).require(
                f"label of dart {d}: arrow {loop} is not a loop at {x0}")
        labels[d] = vg.local_index(loop)
    return ReconstructedBundle(bundle=CocycleBundle(base, grp, labels),
                               vgroup=vg, references=refs, basepoint=x0)


@dataclass
class RoundTrip:
    original: CocycleBundle
    transport: TransportGroupoid
    reconstructed: ReconstructedBundle
    witness_gauge: list[int]
    conjugator: int


def roundtrip_bundle(b: CocycleBundle, x0: int = 0) -> RoundTrip:
    """Bundle -> groupoid -> bundle, with an isomorphism witness back to the
    original.  Requires the structural group to carry identity 0 so the
    reconstructed vertex group has the identical table."""
    if b.group.identity != 0:
        raise ValueError("round trip needs the group identity at index 0")
    tg = groupoid_of_bundle(b)
    rec = bundle_of_groupoid(tg.groupoid, tg.connection, x0)
    iso = bundles_isomorphic(b, rec.bundle, root=x0)
    if iso is None:  # pragma: no cover - the round trip always closes
        raise AssertionError("reconstructed bundle is not isomorphic to input")
    return RoundTrip(original=b, transport=tg, reconstructed=rec,
                     witness_gauge=iso.gauge.elements, conjugator=iso.conjugator)


# --- the one-point base ----------------------------------------------------------

@dataclass
class PointBaseReport:
    bundle: CocycleBundle
    transport: TransportGroupoid
    one_object: Groupoid
    arrow_map: list[int]
    iso: Diagnostics


def point_base_degenerate(grp: FiniteGroup) -> PointBaseReport:
    """Over a single vertex the quotient groupoid collapses to the group:
    the class of ``(g, identity)`` maps to ``g`` and composition matches the
    group product.  Verified as a groupoid isomorphism onto the one-object
    groupoid of ``grp``."""
    bundle = CocycleBundle(base=BaseGraph.point(), group=grp, labels=())
    tg = groupoid_of_bundle(bundle)
    target = one_object_groupoid(grp)
    ordering = [grp.identity] + [a for a in range(grp.order) if a != grp.identity]
    local = {a: i for i, a in enumerate(ordering)}
    arrow_map = [local[tg.coord_of(i).twist] for i in range(tg.groupoid.n_arrows)]
    iso = verify_groupoid_iso(tg.groupoid, target, [0], arrow_map)
    return PointBaseReport(bundle=bundle, transport=tg, one_object=target,
                           arrow_map=arrow_map, iso=iso)
