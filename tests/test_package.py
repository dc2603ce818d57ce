"""The package namespace: each module's ``__all__`` alone decides what is
public, and ``gpdflow`` republishes all of it; importing it loads numpy
with a one-thread OpenBLAS pool and leaves the environment as it was.
Across that public surface, every index argument is refused by its name
with one message, and the plain refusals say what is wrong."""
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpdflow
from gpdflow import (BaseGraph, CocycleBundle, EquivariantMap,
                     GaugeTransformation, apply_gauge,
                     are_conjugate_subgroup_maps, base_action, bfs_tree,
                     build_ambit, bundle_of_groupoid, bundles_isomorphic,
                     bundles_isomorphic_bruteforce, compose_equivariant_maps,
                     dart_labels, element_order, fiber_action,
                     fiber_chart_sigma, fiber_chart_tau, gauge_normalize,
                     generated_subgroup, groupoid_of_bundle, holonomy_along,
                     holonomy_group, hom_set, invariant_sections, is_trivial,
                     named_bundles, pair_groupoid, preset_group,
                     restrict_action, roundtrip_bundle, total_space,
                     universal_map, vertex_chart_phi, vertex_chart_psi,
                     vertex_group, vertex_groups_isomorphic)

# dependency order: a module comes after every module it imports
MODULES = ("diagnostics", "algebra", "groupoid", "bundle", "ehresmann",
           "dynamics", "amenability", "fixtures", "serialize")


def test_package_all_is_the_modules_all_joined_in_dependency_order():
    modules = [importlib.import_module(f"gpdflow.{m}") for m in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert gpdflow.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(gpdflow, name) is getattr(module, name), \
                (module.__name__, name)


def test_the_cli_stays_out_of_the_package_namespace():
    assert "cli" not in gpdflow.__all__
    assert not hasattr(gpdflow, "main")


# imports gpdflow, after numpy if asked, and prints whether the environment
# came back as it was, each time the import set or removed
# OPENBLAS_NUM_THREADS on the way (numpy's own import sets and removes
# OPENBLAS_MAIN_FREE), the variable after, and the process's thread count
PROBE = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
before, written = dict(os.environ), []
for name in ("putenv", "unsetenv"):
    def spy(key, *value, name=name, real=getattr(os, name)):
        if os.fsdecode(key) == "OPENBLAS_NUM_THREADS":
            written.append(name)
        real(key, *value)
    setattr(os, name, spy)
import gpdflow
print(json.dumps({
    "unchanged": dict(os.environ) == before,
    "written": written,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task"))
               if os.path.isdir("/proc/self/task") else None}))
"""


def _import_gpdflow(blas=None, numpy_first=False):
    """Import gpdflow in a fresh interpreter on this checkout's ``src``,
    with ``OPENBLAS_NUM_THREADS`` set to ``blas`` or removed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    out = subprocess.run(
        [sys.executable, "-c", PROBE,
         "numpy first" if numpy_first else "gpdflow first"],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_importing_gpdflow_loads_numpy_on_one_thread_and_restores_the_env():
    probe = _import_gpdflow()
    assert probe["unchanged"] and probe["blas"] is None, probe
    assert probe["written"] == ["putenv", "unsetenv"], probe
    if probe["threads"] is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("no /proc/self/task, or one CPU: one thread either way")
    # OpenBLAS would start a worker per CPU
    assert probe["threads"] == 1, probe


def test_a_callers_openblas_num_threads_wins():
    probe = _import_gpdflow(blas="2")
    assert probe["unchanged"] and probe["blas"] == "2", probe
    assert probe["written"] == [], probe


def test_numpy_imported_first_is_left_as_it_is():
    probe = _import_gpdflow(numpy_first=True)
    assert probe["unchanged"] and probe["blas"] is None, probe
    assert probe["written"] == [], probe


# an annotation that marks a parameter as an index, or a pair of them
INDEX_ANNOTATIONS = {"int", "tuple[int, int]", "Optional[tuple[int, int]]"}

# the index parameters that are not refused by _index: (function, parameter)
EXEMPT = {
    ("verify_group", "identity"): "a verdict: identity out of range",
    ("Groupoid.compose", "g"): "the refusal names the pair: not composable",
    ("Groupoid.compose", "h"): "the refusal names the pair: not composable",
    ("RowTable.move", "y"): "the refusal names the pair: not defined",
    ("RowTable.move", "h"): "the refusal names the pair: not defined",
    ("RowTable.defined", "y"): "answers False",
    ("RowTable.defined", "h"): "answers False",
    ("HomSet.local_index", "arrow"): "the hom-set, not a range: not among it",
    ("VertexChart.of", "arrow"): "the loops, not a range: not among them",
    ("FiberChart.of", "arrow"): "the fiber, not a range: not among its arrows",
    ("pair_groupoid", "n"): "a size",
    ("BaseGraph.path", "n"): "a size",
    ("BaseGraph.cycle", "n"): "a size",
    ("BaseGraph.complete", "n"): "a size",
    ("BaseGraph.wedge_of_loops", "k"): "a size",
    ("random_connected_graph", "n_vertices"): "a size",
    ("random_connected_graph", "n_extra"): "a size",
    ("random_connected_graph", "seed"): "a seed",
    ("large_random_bundle", "n_vertices"): "a size",
    ("large_random_bundle", "n_extra"): "a size",
    ("large_random_bundle", "seed"): "a seed",
}


def index_parameters() -> set[tuple[str, str]]:
    """``(function, parameter)`` for each parameter annotated as an index
    of each function in ``gpdflow.__all__``, and of each public method and
    ``__call__`` of each class there (a class under two names once)."""
    found, classes = set(), set()
    for name in gpdflow.__all__:
        obj = getattr(gpdflow, name)
        if inspect.isfunction(obj):
            functions = [(name, obj)]
        elif inspect.isclass(obj) and obj not in classes:
            classes.add(obj)
            functions = [(f"{name}.{attr}", getattr(obj, attr))
                         for attr in vars(obj)
                         if attr == "__call__" or not attr.startswith("_")]
        else:
            continue
        for qualified, function in functions:
            if inspect.isfunction(function) or inspect.ismethod(function):
                found |= {(qualified, p.name) for p in
                          inspect.signature(function).parameters.values()
                          if p.annotation in INDEX_ANNOTATIONS}
    return found


def test_every_index_argument_is_refused_by_its_name():
    """On the edge-s3 fixture, each index parameter of the package's public
    functions and methods, found from their signatures, at -1 and at the
    first value past its range, is refused with ``<argument> = <value>
    outside range(<n>)``, by its own name and by the function called: not
    an ``IndexError``, not an empty list, not ``seq[-1]``.  The entries of
    list arguments, which no signature shows, are refused as ``name[k]``.
    Each parameter found is exercised here or exempt, never both, so a new
    index parameter fails this test until it is given a row."""
    b = named_bundles()["edge-s3"]
    ts, grp, base = total_space(b), b.group, b.base
    tg = groupoid_of_bundle(b)
    gpd = tg.groupoid
    act = base_action(gpd)
    ambit = build_ambit(gpd, 0)
    tree = bfs_tree(base)
    vertices, order, darts, arrows = 2, 6, 2, 24
    assert (base.n_vertices, grp.order, base.n_darts, gpd.n_arrows) == \
        (vertices, order, darts, arrows)
    rows = [  # (function, argument, its range, the call with it set to i)
        ("FiniteGroup.mul", "a", order, lambda i: grp.mul(i, 0)),
        ("FiniteGroup.mul", "b", order, lambda i: grp.mul(0, i)),
        ("FiniteGroup.inverse", "a", order, grp.inverse),
        ("FiniteGroup.conjugate", "g", order, lambda i: grp.conjugate(i, 0)),
        ("FiniteGroup.conjugate", "h", order, lambda i: grp.conjugate(0, i)),
        ("element_order", "g", order, lambda i: element_order(grp, i)),
        ("Groupoid.inverse", "g", arrows, gpd.inverse),
        ("Groupoid.arrows_from", "x", vertices, gpd.arrows_from),
        ("Groupoid.arrows_into", "x", vertices, gpd.arrows_into),
        ("Groupoid.hom", "x", vertices, lambda i: gpd.hom(i, 0)),
        ("Groupoid.hom", "y", vertices, lambda i: gpd.hom(0, i)),
        ("Groupoid.loops", "x", vertices, gpd.loops),
        ("RowTable.row", "y", arrows, gpd.row),
        ("hom_set", "x", vertices, lambda i: hom_set(gpd, i, 0)),
        ("hom_set", "y", vertices, lambda i: hom_set(gpd, 0, i)),
        ("vertex_group", "x", vertices, lambda i: vertex_group(gpd, i)),
        ("vertex_groups_isomorphic", "x", vertices,
         lambda i: vertex_groups_isomorphic(gpd, i, 0)),
        ("vertex_groups_isomorphic", "y", vertices,
         lambda i: vertex_groups_isomorphic(gpd, 0, i)),
        ("BaseGraph.dsrc", "d", darts, base.dsrc),
        ("BaseGraph.dtgt", "d", darts, base.dtgt),
        ("BaseGraph.rev", "d", darts, base.rev),
        ("BaseGraph.out_darts", "v", vertices, base.out_darts),
        ("SpanningTree.path_from_root", "v", vertices, tree.path_from_root),
        ("TotalSpace.point_index", "v", vertices,
         lambda i: ts.point_index(i, 0)),
        ("TotalSpace.point_index", "h", order, lambda i: ts.point_index(0, i)),
        ("TotalSpace.point", "p", ts.n_points, ts.point),
        ("TotalSpace.proj", "p", ts.n_points, ts.proj),
        ("TotalSpace.raction", "p", ts.n_points, lambda i: ts.raction(i, 0)),
        ("TotalSpace.raction", "k", order, lambda i: ts.raction(0, i)),
        ("TotalSpace.transport", "d", darts, lambda i: ts.transport(i, 0)),
        ("TotalSpace.transport", "p", ts.n_points,
         lambda i: ts.transport(0, i)),
        ("TotalSpace.fiber", "v", vertices, ts.fiber),
        ("gauge_normalize", "root", vertices,
         lambda i: gauge_normalize(b, i)),
        ("holonomy_group", "v0", vertices, lambda i: holonomy_group(b, i)),
        ("is_trivial", "v0", vertices, lambda i: is_trivial(b, i)),
        ("bundles_isomorphic", "root", vertices,
         lambda i: bundles_isomorphic(b, b, i)),
        ("bfs_tree", "root", vertices, lambda i: bfs_tree(base, i)),
        ("TransportGroupoid.arrow_of", "v", vertices,
         lambda i: tg.arrow_of(i, 0, 0)),
        ("TransportGroupoid.arrow_of", "w", vertices,
         lambda i: tg.arrow_of(0, i, 0)),
        ("TransportGroupoid.arrow_of", "a", order,
         lambda i: tg.arrow_of(0, 0, i)),
        ("TransportGroupoid.coord_of", "arrow", arrows, tg.coord_of),
        *[(chart.__name__, f"u0[{k}]", n,
           lambda i, chart=chart, k=k: chart(tg, (i, 0) if k == 0 else (0, i)))
          for chart in (vertex_chart_phi, vertex_chart_psi, fiber_chart_tau,
                        fiber_chart_sigma)
          for k, n in enumerate((vertices, order))],
        ("bundle_of_groupoid", "x0", vertices,
         lambda i: bundle_of_groupoid(gpd, tg.connection, i)),
        ("roundtrip_bundle", "x0", vertices, lambda i: roundtrip_bundle(b, i)),
        ("GroupoidAction.fiber", "x", vertices, act.fiber),
        ("build_ambit", "x0", vertices, lambda i: build_ambit(gpd, i)),
        ("universal_map", "y", act.n_points,
         lambda i: universal_map(act, ambit, i)),
        ("fiber_action", "x0", vertices, lambda i: fiber_action(act, i)),
        ("invariant_sections", "x0", vertices,
         lambda i: invariant_sections(act, i)),
    ]
    entries = [  # entries of list arguments, and a constructor's
        ("holonomy_along", "darts[0]", darts,
         lambda i: holonomy_along(b, [i])),
        ("holonomy_along", "darts[1]", darts,
         lambda i: holonomy_along(b, [0, i])),
        ("apply_gauge", "gauge.elements[0]", order,
         lambda i: apply_gauge(b, GaugeTransformation([i, 0]))),
        ("apply_gauge", "gauge.elements[1]", order,
         lambda i: apply_gauge(b, GaugeTransformation([0, i]))),
        ("dart_labels", "edge_labels[0]", order,
         lambda i: dart_labels(grp, [i])),
        ("generated_subgroup", "generators[1]", order,
         lambda i: generated_subgroup(grp, [0, i])),
        ("are_conjugate_subgroup_maps", "f1[0]", order,
         lambda i: are_conjugate_subgroup_maps(grp, [i], [0])),
        ("are_conjugate_subgroup_maps", "f2[0]", order,
         lambda i: are_conjugate_subgroup_maps(grp, [0], [i])),
        ("restrict_action", "points[1]", act.n_points,
         lambda i: restrict_action(act, [0, i])),
        ("BaseGraph", "edges[0][0]", vertices,
         lambda i: BaseGraph(2, ((i, 0),))),
        ("BaseGraph", "edges[1][1]", vertices,
         lambda i: BaseGraph(2, ((0, 1), (0, i)))),
    ]
    exercised = {(function, name.split("[")[0])
                 for function, name, _, _ in rows}
    assert not exercised & EXEMPT.keys()
    assert index_parameters() == exercised | EXEMPT.keys()
    wrong = []
    for function, name, n, call in rows + entries:
        for i in (-1, n):
            try:
                out = call(i)
            except ValueError as error:
                if str(error) == f"{name} = {i} outside range({n})":
                    continue
                out = error
            except Exception as error:  # the gate: listed, then failed
                out = error
            wrong.append((function, name, i, repr(out)[:60]))
    assert not wrong, wrong


def test_an_arrow_off_a_chart_is_refused_by_name():
    """The readers keyed by a set of arrows that is not a ``range``, the
    charts' ``of`` and ``HomSet.local_index``, refuse an arrow off that
    set, whether -1, an arrow of the groupoid elsewhere or the first past
    them all, as ``arrow = <a> not among <the set>``."""
    tg = groupoid_of_bundle(named_bundles()["edge-s3"])
    gpd = tg.groupoid
    cases = [  # (the reader, an arrow elsewhere, its domain)
        (vertex_chart_phi(tg).of, tg.arrow_of(1, 1, 0), "the loops at 0"),
        (vertex_chart_psi(tg, (1, 2)).of, tg.arrow_of(0, 0, 0),
         "the loops at 1"),
        (fiber_chart_tau(tg).of, tg.arrow_of(0, 1, 0), "the arrows into 0"),
        (fiber_chart_sigma(tg).of, tg.arrow_of(1, 0, 0),
         "the arrows out of 0"),
        (hom_set(gpd, 0, 1).local_index, tg.arrow_of(1, 0, 0),
         "the arrows from 0 to 1"),
        (vertex_group(gpd, 1).local_index, tg.arrow_of(0, 0, 0),
         "the arrows from 1 to 1"),
    ]
    for read, elsewhere, domain in cases:
        for arrow in (-1, elsewhere, gpd.n_arrows):
            with pytest.raises(ValueError) as refused:
                read(arrow)
            assert str(refused.value) == f"arrow = {arrow} not among {domain}"


@pytest.mark.parametrize("call, message", [
    (lambda: BaseGraph(0, ()), "graph needs at least one vertex"),
    (lambda: apply_gauge(named_bundles()["edge-s3"], GaugeTransformation([0])),
     "gauge must assign one element per vertex"),
    (lambda: holonomy_along(named_bundles()["edge-s3"], [0, 0]),
     "dart 0 does not continue the walk at 1"),
    (lambda: bundles_isomorphic_bruteforce(*[CocycleBundle.from_edge_labels(
        BaseGraph.path(5), preset_group("S4"), [0] * 4)] * 2),
     "search space 24^5 exceeds limit 1000000"),
    (lambda: compose_equivariant_maps(*[EquivariantMap(
        base_action(pair_groupoid(2)), base_action(pair_groupoid(2)),
        [0, 1])] * 2), "maps do not chain"),
    (lambda: pair_groupoid(2).move(0, 1), "move (0, 1) is not defined"),
    (lambda: pair_groupoid(0), "pair groupoid needs at least one object"),
], ids=["empty graph", "gauge length", "broken walk", "brute-force limit",
        "maps that do not chain", "move off the domain", "no object"])
def test_a_plain_refusal_says_what_is_wrong(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
