"""Principal bundles over finite connected graphs, given as dart cocycles.

The base is an undirected multigraph: edge ``i`` contributes dart ``2i``
running ``u -> v`` and dart ``2i + 1`` running ``v -> u``, with ``rev(d) =
d ^ 1``.  A bundle labels every dart with a group element subject to
``label(rev(d)) == label(d)^-1`` over a connected base, checked when it
is built; the total space is the set of pairs ``(vertex, group element)``
and dart ``d`` transports ``(dsrc(d), h)`` to ``(dtgt(d), label(d) * h)``.

A gauge is a vertex-indexed family of group elements acting by
``label'(d) = h[dtgt(d)] * label(d) * h[dsrc(d)]^-1``; normalization picks
the gauge that trivializes a breadth-first spanning tree rooted at a chosen
vertex, after which the surviving non-tree labels generate the holonomy.
All traversals are deterministic: BFS expands the lowest-index neighbour
first and ties break on the lowest dart index.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional, Sequence

from .algebra import FiniteGroup, _index, _integers, \
    are_conjugate_subgroup_maps, generated_subgroup
from .diagnostics import Diagnostics, Refused

__all__ = [
    "BaseGraph",
    "SpanningTree",
    "CocycleBundle",
    "TotalSpace",
    "GaugeTransformation",
    "BundleIso",
    "CycleHolonomy",
    "HolonomyData",
    "TrivialityReport",
    "dart_labels",
    "verify_cocycle",
    "total_space",
    "apply_gauge",
    "gauge_normalize",
    "holonomy_group",
    "holonomy_along",
    "is_trivial",
    "bundles_isomorphic",
    "bundles_isomorphic_bruteforce",
    "bfs_tree",
]

_BRUTEFORCE_GAUGES = 10 ** 6  # the most gauges the brute-force oracle scans


@dataclass(frozen=True)
class BaseGraph:
    """Undirected multigraph on vertices ``0..n-1``; loops and parallel
    edges are allowed.  A dart or vertex outside its range, an edge's
    endpoint included, is refused by its name."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        n, edges = self.n_vertices, self.edges
        if not isinstance(edges, (list, tuple)):
            raise ValueError(f"edges = {edges!r} is not a list or tuple")
        object.__setattr__(self, "edges", tuple(
            tuple(_integers(f"edges[{i}]", e, (n, n)))
            for i, e in enumerate(edges)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_darts(self) -> int:
        return 2 * len(self.edges)

    def dsrc(self, d: int) -> int:
        return self.edges[_index("d", d, self.n_darts) // 2][d % 2]

    def dtgt(self, d: int) -> int:
        return self.edges[_index("d", d, self.n_darts) // 2][1 - d % 2]

    def rev(self, d: int) -> int:
        """The other dart of ``d``'s edge, ``d ^ 1``, run the other way."""
        return _index("d", d, self.n_darts) ^ 1

    def out_darts(self, v: int) -> list[int]:
        _index("v", v, self.n_vertices)
        return [d for d in range(self.n_darts) if self.dsrc(d) == v]

    def is_connected(self) -> bool:
        return self.first_unreachable() is None

    def first_unreachable(self) -> Optional[int]:
        """The lowest vertex with no path from vertex 0, or None."""
        seen = _bfs(self, 0)[0]
        return None if all(seen) else seen.index(False)

    # --- stock shapes ----------------------------------------------------

    @staticmethod
    def point() -> "BaseGraph":
        return BaseGraph(1, ())

    @staticmethod
    def path(n: int) -> "BaseGraph":
        return BaseGraph(n, tuple((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "BaseGraph":
        return BaseGraph(n, tuple((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def wedge_of_loops(k: int) -> "BaseGraph":
        return BaseGraph(1, tuple((0, 0) for _ in range(k)))

    @staticmethod
    def complete(n: int) -> "BaseGraph":
        return BaseGraph(n, tuple((a, b) for a in range(n)
                                  for b in range(a + 1, n)))


@dataclass
class SpanningTree:
    """BFS spanning tree: ``parent_dart[v]`` is the dart that first reached
    ``v`` (-1 at the root), ``order`` the visit order."""

    root: int
    parent_dart: list[int]
    order: list[int]
    tree_darts: frozenset[int]
    non_tree_edges: list[int]
    dart_src: list[int]

    def path_from_root(self, v: int) -> list[int]:
        """Darts along the unique tree path root -> v."""
        _index("v", v, len(self.parent_dart))
        path = []
        while (d := self.parent_dart[v]) >= 0:
            path.append(d)
            v = self.dart_src[d]
        return path[::-1]


def _bfs(graph: BaseGraph, root: int
         ) -> tuple[list[bool], list[int], list[int]]:
    """Breadth-first search from ``root``, lowest-index neighbour first, ties
    on the lowest dart index: (reached, parent dart, visit order)."""
    parent = [-1] * graph.n_vertices
    seen = [False] * graph.n_vertices
    seen[root] = True
    order = [root]
    for v in order:  # the queue: read as it grows
        for w, d in sorted((graph.dtgt(d), d) for d in graph.out_darts(v)):
            if not seen[w]:
                seen[w] = True
                parent[w] = d
                order.append(w)
    return seen, parent, order


def bfs_tree(graph: BaseGraph, root: int = 0) -> SpanningTree:
    """Deterministic BFS spanning tree: lowest-index neighbour first, ties on
    the lowest dart index."""
    _index("root", root, graph.n_vertices)
    seen, parent, order = _bfs(graph, root)
    if not all(seen):
        missing = seen.index(False)
        raise ValueError(f"graph is not connected: vertex {missing} unreachable")
    tree = {d for d in parent if d >= 0}
    non_tree = [e for e in range(graph.n_edges)
                if 2 * e not in tree and 2 * e + 1 not in tree]
    return SpanningTree(root=root, parent_dart=parent, order=order,
                        tree_darts=frozenset(tree), non_tree_edges=non_tree,
                        dart_src=[graph.dsrc(d) for d in range(graph.n_darts)])


@dataclass(frozen=True)
class CocycleBundle:
    """A dart cocycle: ``labels[d]``, kept as a tuple, lives in ``group``.
    A labelling that fails the cocycle scan is refused when it is built."""

    base: BaseGraph
    group: FiniteGroup
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels",
                           tuple(_integers("labels", self.labels)))
        _cocycle_scan(self.base, self.group, self.labels).require(
            "not a cocycle bundle")

    @staticmethod
    def from_edge_labels(base: BaseGraph, group: FiniteGroup,
                         edge_labels: Sequence[int]) -> "CocycleBundle":
        return CocycleBundle(base, group, dart_labels(group, edge_labels))

    def edge_labels(self) -> list[int]:
        return list(self.labels[::2])


def dart_labels(group: FiniteGroup, edge_labels: Sequence[int]) -> list[int]:
    """Edge ``e``'s label on dart ``2e``, its inverse on ``2e + 1``; an edge
    label outside the group is refused by its name."""
    return [x for g in _integers("edge_labels", edge_labels, group.order)
            for x in (g, group.inv[g])]


def verify_cocycle(base: BaseGraph, group: FiniteGroup, labels: Sequence[int]
                   ) -> tuple[Diagnostics, Optional[CocycleBundle]]:
    """The verdict of building the bundle, and the bundle when it is built."""
    try:
        bundle = CocycleBundle(base, group, labels)
    except Refused as refused:
        return refused.verdict, None
    return Diagnostics.passed(vertices=base.n_vertices, edges=base.n_edges), bundle


def _cocycle_scan(base: BaseGraph, group: FiniteGroup,
                  labels: tuple[int, ...]) -> Diagnostics:
    """Structure first (label count and range, connectivity), then the
    involution law ``label(rev(d)) == label(d)^-1``."""
    if len(labels) != base.n_darts:
        return Diagnostics.failed(
            "label count mismatch", (len(labels), base.n_darts), structural=True)
    for d, g in enumerate(labels):
        if not (0 <= g < group.order):
            return Diagnostics.failed("label out of range", (d, g), structural=True)
    if not base.is_connected():
        return Diagnostics.failed("base not connected", (), structural=True)
    for d in range(base.n_darts):
        if labels[base.rev(d)] != group.inv[labels[d]]:
            return Diagnostics.failed("label involution", (d,))
    return Diagnostics.passed()


# --- total space ------------------------------------------------------------

@dataclass
class TotalSpace:
    """Points ``(v, h)`` indexed ``v * |G| + h`` with projection, fiberwise
    right translation, and dart transport by left multiplication; a point,
    vertex, element or dart outside its range is refused."""

    bundle: CocycleBundle

    @property
    def n_points(self) -> int:
        return self.bundle.base.n_vertices * self.bundle.group.order

    def point_index(self, v: int, h: int) -> int:
        order = self.bundle.group.order
        return (_index("v", v, self.bundle.base.n_vertices) * order
                + _index("h", h, order))

    def point(self, p: int) -> tuple[int, int]:
        return divmod(_index("p", p, self.n_points), self.bundle.group.order)

    def proj(self, p: int) -> int:
        return self.point(p)[0]

    def raction(self, p: int, k: int) -> int:
        v, h = self.point(p)
        _index("k", k, self.bundle.group.order)
        return self.point_index(v, self.bundle.group.mul(h, k))

    def transport(self, d: int, p: int) -> int:
        v, h = self.point(p)
        if v != self.bundle.base.dsrc(d):
            raise ValueError(
                f"point over vertex {v} cannot ride dart {d} from "
                f"{self.bundle.base.dsrc(d)}")
        return self.point_index(self.bundle.base.dtgt(d),
                                self.bundle.group.mul(self.bundle.labels[d], h))

    def fiber(self, v: int) -> list[int]:
        start = self.point_index(v, 0)
        return list(range(start, start + self.bundle.group.order))


total_space = TotalSpace


# --- gauge action -------------------------------------------------------------

@dataclass
class GaugeTransformation:
    """One group element per vertex."""

    elements: list[int]


def apply_gauge(b: CocycleBundle, gauge: GaugeTransformation) -> CocycleBundle:
    """The gauged bundle."""
    return CocycleBundle(b.base, b.group, _gauge_labels(b, gauge))


def _gauge_labels(b: CocycleBundle, gauge: GaugeTransformation) -> tuple[int, ...]:
    """The labels ``h[dtgt(d)] * label(d) * h[dsrc(d)]^-1``, read off the
    tables; a gauge element outside the group is refused by its name."""
    mult, inv = b.group.mult, b.group.inv
    h = _integers("gauge.elements", gauge.elements, b.group.order)
    if len(h) != b.base.n_vertices:
        raise ValueError("gauge must assign one element per vertex")
    ends = [e for u, v in b.base.edges for e in ((u, v), (v, u))]
    return tuple(mult[h[w]][mult[g][inv[h[v]]]]
                 for (v, w), g in zip(ends, b.labels))


def gauge_normalize(b: CocycleBundle, root: int = 0
                    ) -> tuple[CocycleBundle, GaugeTransformation, SpanningTree]:
    """Trivialize a BFS spanning tree rooted at ``root``.

    The returned gauge is the identity at the root and satisfies
    ``h[tgt] = h[src] * label(d)^-1`` along every tree dart, so every tree
    dart of the result carries the identity.  Renormalizing a normalized
    bundle yields the identity gauge.
    """
    grp = b.group
    tree = bfs_tree(b.base, root)
    h = [grp.identity] * b.base.n_vertices
    for v in tree.order:
        d = tree.parent_dart[v]
        if d >= 0:
            h[v] = grp.mul(h[b.base.dsrc(d)], grp.inv[b.labels[d]])
    gauge = GaugeTransformation(h)
    return apply_gauge(b, gauge), gauge, tree


def holonomy_along(b: CocycleBundle, darts: Sequence[int]) -> int:
    """Compose labels along a dart walk; later darts multiply on the left,
    matching transport order.  A dart outside its range is refused."""
    acc = b.group.identity
    at = None
    for d in _integers("darts", darts, b.base.n_darts):
        if at is not None and b.base.dsrc(d) != at:
            raise ValueError(f"dart {d} does not continue the walk at {at}")
        acc = b.group.mul(b.labels[d], acc)
        at = b.base.dtgt(d)
    return acc


@dataclass
class CycleHolonomy:
    edge: int
    dart: int
    element: int
    darts: list[int]


@dataclass
class HolonomyData:
    basepoint: int
    subgroup: list[int]
    cycles: list[CycleHolonomy]
    tree: SpanningTree
    normalized: CocycleBundle
    gauge: GaugeTransformation


def holonomy_group(b: CocycleBundle, v0: int = 0) -> HolonomyData:
    """Holonomy at ``v0``: normalize there, read one element per non-tree
    edge (canonically oriented along its even dart), and close under the
    group operations.  Each element is also the label product around the
    fundamental cycle of its edge, based at ``v0``."""
    _index("v0", v0, b.base.n_vertices)
    normalized, gauge, tree = gauge_normalize(b, v0)
    cycles = []
    for e in tree.non_tree_edges:
        d = 2 * e
        up = tree.path_from_root(b.base.dsrc(d))
        down = [b.base.rev(x) for x in reversed(tree.path_from_root(b.base.dtgt(d)))]
        cycles.append(CycleHolonomy(
            edge=e, dart=d, element=normalized.labels[d],
            darts=up + [d] + down))
    subgroup = generated_subgroup(b.group, [c.element for c in cycles])
    return HolonomyData(basepoint=v0, subgroup=subgroup, cycles=cycles,
                        tree=tree, normalized=normalized, gauge=gauge)


# --- triviality ----------------------------------------------------------------

@dataclass
class TrivialityReport:
    trivial: bool
    by_labels: bool
    by_section: bool
    section: Optional[list[int]]
    holonomy: list[int]
    cycles: list[CycleHolonomy]


def is_trivial(b: CocycleBundle, v0: int = 0) -> TrivialityReport:
    """Two independent criteria, both computed and required to agree: all
    normalized non-tree labels are the identity, and a transport-invariant
    global section exists (searched by seeding each group element at the
    root of the tree and propagating)."""
    grp = b.group
    hol = holonomy_group(b, v0)
    by_labels = all(c.element == grp.identity for c in hol.cycles)

    tree = hol.tree
    section: Optional[list[int]] = None
    for seed in grp.elements:
        s = [-1] * b.base.n_vertices
        s[v0] = seed
        for v in tree.order:
            d = tree.parent_dart[v]
            if d >= 0:
                s[v] = grp.mul(b.labels[d], s[b.base.dsrc(d)])
        if all(grp.mul(b.labels[d], s[b.base.dsrc(d)]) == s[b.base.dtgt(d)]
               for d in range(b.base.n_darts)):
            section = s
            break
    by_section = section is not None
    if by_labels != by_section:  # they agree when the group obeys its laws
        raise ValueError("triviality criteria disagree")
    return TrivialityReport(trivial=by_labels, by_labels=by_labels,
                            by_section=by_section, section=section,
                            holonomy=hol.subgroup, cycles=hol.cycles)


# --- isomorphism ----------------------------------------------------------------

@dataclass
class BundleIso:
    gauge: GaugeTransformation
    conjugator: int


def _require_comparable(b1: CocycleBundle, b2: CocycleBundle) -> None:
    if b1.base != b2.base:
        raise ValueError("bundles live over different base graphs")
    if (b1.group.order, b1.group.identity, b1.group.mult) != \
            (b2.group.order, b2.group.identity, b2.group.mult):
        raise ValueError("bundles carry different structural groups")


def bundles_isomorphic(b1: CocycleBundle, b2: CocycleBundle,
                       root: int = 0) -> Optional[BundleIso]:
    """Gauge equivalence test via aligned holonomy data.

    Both bundles are normalized at ``root``; since a gauge fixing a spanning
    tree pointwise must be constant, the bundles are equivalent exactly when
    the per-edge holonomy lists are simultaneously conjugate.  On success the
    full witness gauge is assembled and checked label by label.
    """
    _require_comparable(b1, b2)
    grp = b1.group
    n1, g1, tree = gauge_normalize(b1, root)
    n2, g2, _ = gauge_normalize(b2, root)
    f1 = [n1.labels[2 * e] for e in tree.non_tree_edges]
    f2 = [n2.labels[2 * e] for e in tree.non_tree_edges]
    h = are_conjugate_subgroup_maps(grp, f1, f2)
    if h is None:
        return None
    h_inv = grp.inv[h]
    gauge = GaugeTransformation([
        grp.mul(grp.inv[g2.elements[v]], grp.mul(h_inv, g1.elements[v]))
        for v in range(b1.base.n_vertices)
    ])
    if _gauge_labels(b1, gauge) != b2.labels:  # only over a lawless group
        raise ValueError("assembled gauge fails to carry b1 to b2")
    return BundleIso(gauge=gauge, conjugator=h)


def bundles_isomorphic_bruteforce(b1: CocycleBundle, b2: CocycleBundle
                                  ) -> Optional[GaugeTransformation]:
    """Oracle: scan all ``|G|^|V|`` gauges in lexicographic order,
    comparing gauged labels, with no bundle built per gauge."""
    _require_comparable(b1, b2)
    grp, n = b1.group, b1.base.n_vertices
    if grp.order ** n > _BRUTEFORCE_GAUGES:
        raise ValueError(f"search space {grp.order}^{n} exceeds limit "
                         f"{_BRUTEFORCE_GAUGES}")
    for assignment in iter_product(range(grp.order), repeat=n):
        gauge = GaugeTransformation(list(assignment))
        if _gauge_labels(b1, gauge) == b2.labels:
            return gauge
    return None
