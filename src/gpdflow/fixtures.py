"""A small shared corpus of bundles used by the tests and the CLI.

Everything here is deterministic: the named bundles are hand-picked small
cases, the matrix pairs six stock groups with five stock graphs and labels
edge ``i`` with ``(i + 1) % order``, and the large random instance is
seeded.  Keeping the corpus in one place lets the acceptance checks and
the command-line fixture runs exercise the exact same inputs.
"""
from __future__ import annotations

import random

from .algebra import FiniteGroup, preset_group
from .bundle import BaseGraph, CocycleBundle

__all__ = [
    "GRAPHS",
    "MATRIX_GROUPS",
    "MATRIX_GRAPHS",
    "named_bundles",
    "matrix_bundles",
    "matrix_bundle",
    "random_connected_graph",
    "large_random_bundle",
]

GRAPHS: dict[str, BaseGraph] = {
    "point": BaseGraph.point(),
    "edge": BaseGraph.path(2),
    "path3": BaseGraph.path(3),
    "triangle": BaseGraph.cycle(3),
    "square": BaseGraph.cycle(4),
    "wedge2": BaseGraph.wedge_of_loops(2),
    "K4": BaseGraph.complete(4),
}

MATRIX_GROUPS: tuple[str, ...] = ("Z2", "Z3", "Z4", "S3", "D4", "Q8")
MATRIX_GRAPHS: tuple[str, ...] = ("path3", "triangle", "square", "wedge2", "K4")


def _labelled(graph_name: str, group: FiniteGroup,
              labels: list[int]) -> CocycleBundle:
    return CocycleBundle.from_edge_labels(GRAPHS[graph_name], group, labels)


def named_bundles() -> dict[str, CocycleBundle]:
    """Hand-picked small bundles, keyed by a descriptive name."""
    z1 = preset_group("Z1")
    z2 = preset_group("Z2")
    z3 = preset_group("Z3")
    s3 = preset_group("S3")
    s4 = preset_group("S4")
    return {
        "triangle-z1": _labelled("triangle", z1, [0, 0, 0]),
        "wedge2-z1": _labelled("wedge2", z1, [0, 0]),
        "triangle-z2-trivial": _labelled("triangle", z2, [0, 0, 0]),
        "triangle-z2-twisted": _labelled("triangle", z2, [1, 0, 0]),
        "wedge2-z3": _labelled("wedge2", z3, [1, 0]),
        "edge-s3": _labelled("edge", s3, [2]),
        "point-z1": _labelled("point", z1, []),
        "point-z2": _labelled("point", z2, []),
        "point-s3": _labelled("point", s3, []),
        "point-s4": _labelled("point", s4, []),
    }


def matrix_bundle(group_name: str, graph_name: str) -> CocycleBundle:
    """One matrix entry: edge ``i`` carries label ``(i + 1) % order``."""
    group = preset_group(group_name)
    graph = GRAPHS[graph_name]
    labels = [(i + 1) % group.order for i in range(graph.n_edges)]
    return CocycleBundle.from_edge_labels(graph, group, labels)


def matrix_bundles() -> dict[str, CocycleBundle]:
    """The full group-by-graph matrix, keyed ``"<group>/<graph>"``."""
    return {f"{group_name}/{graph_name}": matrix_bundle(group_name, graph_name)
            for group_name in MATRIX_GROUPS
            for graph_name in MATRIX_GRAPHS}


def random_connected_graph(n_vertices: int, n_extra: int,
                           seed: int = 0) -> BaseGraph:
    """A connected graph: a random spanning tree plus ``n_extra`` more edges.

    Tree edge k attaches vertex k+1 to a uniformly random earlier vertex,
    then extra edges join distinct random pairs not already joined.  Raises
    ``ValueError`` when there are fewer such pairs than ``n_extra``.
    """
    free = n_vertices * (n_vertices - 1) // 2 - (n_vertices - 1)
    if n_extra > free:
        raise ValueError(f"{n_extra} extra edges asked for, but only {free} "
                         f"vertex pairs are free in a tree on {n_vertices} "
                         "vertices")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    seen = {tuple(sorted(e)) for e in edges}
    while len(edges) < n_vertices - 1 + n_extra:
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v or tuple(sorted((u, v))) in seen:
            continue
        seen.add(tuple(sorted((u, v))))
        edges.append((u, v))
    return BaseGraph(n_vertices, tuple(edges))


def large_random_bundle(n_vertices: int = 20, n_extra: int = 11,
                        group_name: str = "S4", seed: int = 0
                        ) -> CocycleBundle:
    """The big deterministic instance used for timing-sensitive checks."""
    graph = random_connected_graph(n_vertices, n_extra, seed)
    group = preset_group(group_name)
    labels = [(i + 1) % group.order for i in range(graph.n_edges)]
    return CocycleBundle.from_edge_labels(graph, group, labels)
