"""The package namespace: each module's ``__all__`` alone decides what is
public, and ``gpdflow`` republishes all of it; importing it loads numpy
with a one-thread OpenBLAS pool and leaves the environment as it was.
Across that public surface, every index argument is refused by its name
with one message, and the plain refusals say what is wrong."""
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import gpdflow
from gpdflow import (BaseGraph, CocycleBundle, Connection, Diagnostics,
                     EquivariantMap, GaugeTransformation, Groupoid,
                     GroupoidAction, apply_gauge, are_conjugate_subgroup_maps,
                     base_action, bfs_tree, build_ambit, bundle_of_groupoid,
                     bundles_isomorphic, bundles_isomorphic_bruteforce,
                     compose_equivariant_maps, dart_labels, element_order,
                     fiber_action, fiber_chart_sigma, fiber_chart_tau,
                     gauge_normalize, generated_subgroup, groupoid_of_bundle,
                     holonomy_along, holonomy_group, hom_set,
                     invariant_sections, is_trivial, named_bundles,
                     pair_groupoid, preset_group, restrict_action,
                     roundtrip_bundle, total_space, universal_map,
                     verify_cocycle, verify_groupoid_iso,
                     verify_invariant_section, vertex_chart_phi,
                     vertex_chart_psi, vertex_group,
                     vertex_groups_isomorphic)

from test_refusal import CALLS

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


def test_an_empty_openblas_num_threads_counts_as_unset():
    """OpenBLAS reads an empty value as unset and starts a worker per CPU,
    so the package sets one thread, then puts the empty value back."""
    probe = _import_gpdflow(blas="")
    assert probe["unchanged"] and probe["blas"] == "", probe
    assert probe["written"] == ["putenv", "putenv"], probe
    if probe["threads"] is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("no /proc/self/task, or one CPU: one thread either way")
    assert probe["threads"] == 1, probe


def test_numpy_imported_first_is_left_as_it_is():
    probe = _import_gpdflow(numpy_first=True)
    assert probe["unchanged"] and probe["blas"] is None, probe
    assert probe["written"] == [], probe


# an annotation that marks a parameter as an index
INDEX_ANNOTATIONS = {"int"}

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


def public_parameters():
    """``(function, parameter, annotation)`` for each parameter of each
    function in ``gpdflow.__all__``, and of each public method and
    ``__call__`` of each class there (a class under two names once)."""
    classes = set()
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
                for p in inspect.signature(function).parameters.values():
                    yield qualified, p.name, p.annotation


def index_parameters() -> set[tuple[str, str]]:
    """``(function, parameter)`` for each public parameter annotated as an
    index."""
    return {(function, name) for function, name, annotation
            in public_parameters() if annotation in INDEX_ANNOTATIONS}


def test_every_index_argument_is_refused_by_its_name():
    """On the edge-s3 fixture, each index parameter of the package's public
    functions and methods, found from their signatures, at -1 and at the
    first value past its range, is refused with ``<argument> = <value>
    outside range(<n>)``, and at None, 1.0 and True with ``<argument> =
    <value> is not an integer``, by its own name and by the function
    called: not an ``IndexError`` or a ``TypeError``, not an empty list,
    not ``seq[-1]``, not 1 for True.  The entries of sequence arguments,
    refused as ``name[k]``, are derived by
    :func:`test_every_integer_sequence_is_refused_by_its_name`.
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
    exercised = {(function, name) for function, name, _, _ in rows}
    assert not exercised & EXEMPT.keys()
    assert index_parameters() == exercised | EXEMPT.keys()
    wrong = []
    for function, name, n, call in rows:
        for i in (-1, n, None, 1.0, True):
            try:
                out = call(i)
            except ValueError as error:
                if str(error) == (f"{name} = {i} outside range({n})"
                                  if type(i) is int else
                                  f"{name} = {i!r} is not an integer"):
                    continue
                out = error
            except Exception as error:  # the gate: listed, then failed
                out = error
            wrong.append((function, name, i, repr(out)[:60]))
    assert not wrong, wrong


# the annotations of a sequence of integers, and of pairs of them
SEQUENCE_ANNOTATIONS = {"Sequence[int]", "list[int]", "tuple[int, ...]"}
PAIR_ANNOTATIONS = {"tuple[int, int]", "Optional[tuple[int, int]]",
                    "tuple[tuple[int, int], ...]"}

# the types whose sequence fields are not read by the gate: results the
# package builds and fills, each a plain record, not checked when built
RESULT_RECORDS = {
    "HomSet", "VertexGroupIso", "LocalTriviality", "SpanningTree",
    "CycleHolonomy", "HolonomyData", "TrivialityReport", "VertexChart",
    "FiberChart", "ReconstructedBundle", "RoundTrip", "PointBaseReport",
    "Subflow", "FiberSemigroup", "MinimalFlowReport", "InvariantSection",
    "TranslationCertificate"}

# a whole argument that is no sequence of integers; and, for a pair, one
# of the wrong length, and for an array field, an array of another dtype
ODD_SEQUENCES = (None, 5, 1.0, "01", [None], [1.0], [True])
ODD_PAIRS = ((0,), (0, 1, 1))
ODD_ARRAYS = (np.array([0.5]), np.array([True]))


def sequence_parameters() -> dict[tuple[str, str], str]:
    """``(function, parameter)`` -> annotation for each public parameter
    annotated as a sequence of integers or a pair of them, and ``(class,
    field)`` -> annotation for each such init field of a dataclass in
    ``gpdflow.__all__``, and for each array field of a row table."""
    found = {(function, name): annotation
             for function, name, annotation in public_parameters()
             if annotation in SEQUENCE_ANNOTATIONS | PAIR_ANNOTATIONS}
    for name in gpdflow.__all__:
        cls = getattr(gpdflow, name)
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls):
            for f in dataclasses.fields(cls):
                if f.init and (f.type in SEQUENCE_ANNOTATIONS | PAIR_ANNOTATIONS
                               or f.type == "np.ndarray"
                               and issubclass(cls, gpdflow.RowTable)):
                    found[cls.__name__, f.name] = f.type
    return found


def leaf_paths(value, path=()):
    """The index path of each integer in a nested list or tuple."""
    if not isinstance(value, (list, tuple)):
        yield path
    for k, v in enumerate(value if isinstance(value, (list, tuple)) else ()):
        yield from leaf_paths(v, path + (k,))


def replaced(value, path, new):
    """``value`` with the entry at ``path`` set to ``new``."""
    if not path:
        return new
    seq = list(value)
    seq[path[0]] = replaced(seq[path[0]], path[1:], new)
    return type(value)(seq)


def verdict_of(out):
    """The verdict a verifier gave, alone or first in a pair, or None."""
    if isinstance(out, tuple) and out and isinstance(out[0], Diagnostics):
        out = out[0]
    return out if isinstance(out, Diagnostics) else None


def test_every_integer_sequence_is_refused_by_its_name():
    """Each sequence of integers the package takes, found from the
    signatures of ``gpdflow.__all__`` and the init fields of its
    dataclasses and row tables, is read by one rule.  Given None, 5, 1.0,
    ``"01"``, ``[None]``, ``[1.0]`` and ``[True]`` (a pair also ``(0,)``
    and ``(0, 1, 1)``, in each pair's place; an array field also a float
    and a bool array), each call gives a ``ValueError`` whose message
    starts with the argument's name, or a failed structural verdict; only
    None for an optional pair gives a result.  So nothing is met with a
    ``TypeError`` or an ``IndexError``, truncated or read as 1 for True.
    Each entry of a valid argument, set to None, 1.0 and True (and, where
    the entries have a range, to -1 and the first value past it), is
    refused with ``<name>[k] = <value> is not an integer`` or
    ``<name>[k] = <value> outside range(<n>)``.  Each parameter found is
    in the call table or exempt, never both, so a new one fails this test
    until it is given a row."""
    b = named_bundles()["edge-s3"]
    grp, base = b.group, b.base
    tg = groupoid_of_bundle(b)
    act = base_action(tg.groupoid)
    p2 = pair_groupoid(2)
    p2_act = base_action(p2)
    arrays = {f: getattr(p2, f).tolist()
              for f in ("src", "tgt", "unit", "inv", "val")}
    index, comp = {f: arrays[f] for f in ("src", "tgt", "unit", "inv")}, \
        p2.triples()
    order, vertices = grp.order, base.n_vertices
    assert (order, vertices, base.n_darts, act.n_points) == (6, 2, 2, 2)
    calls = {  # key -> (a valid value, the entries' range, the call)
        ("generated_subgroup", "generators"): (
            [0, 1], order, lambda v: generated_subgroup(grp, v)),
        ("are_conjugate_subgroup_maps", "f1"): (
            [0], order, lambda v: are_conjugate_subgroup_maps(grp, v, [0])),
        ("are_conjugate_subgroup_maps", "f2"): (
            [0], order, lambda v: are_conjugate_subgroup_maps(grp, [0], v)),
        **{("Groupoid.from_tables", f): (
            arrays[f], None, lambda v, f=f: Groupoid.from_tables(
                **{**index, f: v}, comp=comp)) for f in index},
        **{("Groupoid", f): (
            arrays[f], None, lambda v, f=f: Groupoid(**{**arrays, f: v}))
            for f in arrays},
        ("GroupoidAction.from_triples", "anchor"): (
            p2_act.anchor.tolist(), None, lambda v:
            GroupoidAction.from_triples(p2, v, p2_act.triples())),
        **{("GroupoidAction", f): (
            getattr(p2_act, f).tolist(), None, lambda v, f=f: GroupoidAction(
                **{"gpd": p2, "anchor": p2_act.anchor, "val": p2_act.val,
                   f: v})) for f in ("anchor", "val")},
        ("verify_groupoid_iso", "obj_map"): (
            [0, 1], None, lambda v: verify_groupoid_iso(p2, p2, v,
                                                        [0, 1, 2, 3])),
        ("verify_groupoid_iso", "arr_map"): (
            [0, 1, 2, 3], None, lambda v: verify_groupoid_iso(p2, p2, [0, 1],
                                                              v)),
        ("BaseGraph", "edges"): (
            ((0, 1), (0, 1)), vertices, lambda v: BaseGraph(2, v)),
        ("CocycleBundle", "labels"): (
            [0, 0], None, lambda v: CocycleBundle(base, grp, v)),
        ("verify_cocycle", "labels"): (
            [0, 0], None, lambda v: verify_cocycle(base, grp, v)),
        ("CocycleBundle.from_edge_labels", "edge_labels"): (
            [0], order, lambda v: CocycleBundle.from_edge_labels(base, grp,
                                                                 v)),
        ("dart_labels", "edge_labels"): (
            [0], order, lambda v: dart_labels(grp, v)),
        ("GaugeTransformation", "elements"): (
            [0, 0], order, lambda v: apply_gauge(b, GaugeTransformation(v))),
        ("holonomy_along", "darts"): (
            [0, 1], base.n_darts, lambda v: holonomy_along(b, v)),
        ("Connection", "arrows"): (
            list(tg.connection.arrows), None,
            lambda v: Connection(base, v)),
        ("restrict_action", "points"): (
            [0, 1], act.n_points, lambda v: restrict_action(act, v)),
        ("EquivariantMap", "values"): (
            [0, 1], None, lambda v: EquivariantMap(act, act, v)),
        ("verify_invariant_section", "values"): (
            invariant_sections(act, 0)[0].values, None,
            lambda v: verify_invariant_section(act, v)),
        **{(chart.__name__, "u0"): (
            (0, 0), (vertices, order), lambda v, chart=chart: chart(tg, v))
            for chart in (vertex_chart_phi, vertex_chart_psi,
                          fiber_chart_tau, fiber_chart_sigma)},
    }
    # the name a refusal gives where it is not the parameter's own
    names = {("GaugeTransformation", "elements"): "gauge.elements"}
    found = sequence_parameters()
    exempt = {key for key in found if key[0] in RESULT_RECORDS}
    for kind in {kind for kind, _ in exempt}:
        assert not hasattr(getattr(gpdflow, kind), "__post_init__"), kind
    assert not exempt & calls.keys()
    assert found.keys() == calls.keys() | exempt, \
        sorted(found.keys() ^ (calls.keys() | exempt))
    wrong, cases = [], 0
    for key, (valid, bound, call) in calls.items():
        name, annotation = names.get(key, key[1]), found[key]
        verdict = verdict_of(call(valid))
        assert verdict is None or verdict.ok, (key, verdict)
        odd = [((), v) for v in ODD_SEQUENCES]
        if annotation in PAIR_ANNOTATIONS:
            odd += [(path[:-1], v) for path in leaf_paths(valid)
                    if path[-1] == 0 for v in ODD_PAIRS]
        if annotation == "np.ndarray":
            odd += [((), v) for v in ODD_ARRAYS]
        for path, v in odd:
            cases += 1
            try:
                out = call(replaced(valid, path, v))
            except ValueError as error:
                if re.match(rf"{re.escape(name)}(\[\d+\])* = ", str(error)):
                    continue
                out = error
            except Exception as error:  # the gate: listed, then failed
                out = error
            else:
                verdict = verdict_of(out)
                if verdict is not None and not verdict.ok \
                        and verdict.structural or v is None \
                        and annotation.startswith("Optional"):
                    continue
            wrong.append((key, path, v, repr(out)[:60]))
        for path in leaf_paths(valid):
            n = bound[path[-1]] if isinstance(bound, tuple) else bound
            entry = name + "".join(f"[{k}]" for k in path)
            for i in (None, 1.0, True) if n is None else (-1, n, None, 1.0,
                                                          True):
                cases += 1
                try:
                    out = call(replaced(valid, path, i))
                except ValueError as error:
                    if str(error) == (f"{entry} = {i} outside range({n})"
                                      if type(i) is int else
                                      f"{entry} = {i!r} is not an integer"):
                        continue
                    out = error
                except Exception as error:  # the gate: listed, then failed
                    out = error
                wrong.append((key, entry, i, repr(out)[:60]))
    print(f"{len(calls)} parameters, {cases} cases")
    assert not wrong, wrong


# the annotations of a table of ints
TABLE_ANNOTATIONS = {"Sequence[Sequence[int]]", "list[list[int]]"}
PACKAGE_TYPES = {name for name in gpdflow.__all__
                 if inspect.isclass(getattr(gpdflow, name))}

# the structured parameters no call table names: (function, parameter)
STRUCTURED_EXEMPT = {
    ("RowTable.map_flaw", "target"):
        "a helper of the verifiers, which read both tables' flaws first",
    ("apply_gauge", "gauge"):
        "a list of elements, each refused by its name (the index gate)",
}

# the structured types that are not checked when built
PLAIN_RECORDS = {
    "TransportGroupoid": "tests build tampered ones by dataclasses.replace "
                         "to reach closed_form_matches_oracle's failures",
    "GaugeTransformation": "read only by apply_gauge, which refuses each "
                           "entry by its name",
}


def structured_parameters() -> dict[tuple[str, str], str]:
    """``(function, parameter)`` -> ``"table"`` for each public parameter
    annotated as a table of ints, else the package type its annotation
    names, if any."""
    found = {}
    for function, name, annotation in public_parameters():
        types = set(re.findall(r"\w+", str(annotation))) & PACKAGE_TYPES
        if annotation in TABLE_ANNOTATIONS or types:
            assert len(types) <= 1, (function, name, annotation)
            found[function, name] = types.pop() if types else "table"
    return found


def test_every_structured_argument_is_gated():
    """Each parameter of the package's public functions and methods, found
    from their signatures, that is annotated with a package type or as a
    table of ints, is named in exactly one call table of the refusal gate
    (``test_refusal``), that of its type, or exempt with its reason, never
    both; so a new one fails this test until it is given a call.  Each key
    of a call table names a parameter of its function.  Each type the gate
    runs is checked once, when built (a ``__post_init__``), or is a plain
    record listed with its reason."""
    found = structured_parameters()
    tables = {}
    for kind, calls in CALLS.items():
        for key in calls:
            tables.setdefault(key, set()).add(kind)
    for function, parameter in tables:
        obj = gpdflow
        for part in function.split("."):
            obj = getattr(obj, part)
        names = {"self"} if isinstance(obj, (property, cached_property)) else \
            set(inspect.signature(obj).parameters)
        assert parameter in names, (function, parameter)
    gated = {key: kinds for key, kinds in tables.items() if key in found}
    assert not gated.keys() & STRUCTURED_EXEMPT.keys()
    assert found.keys() == gated.keys() | STRUCTURED_EXEMPT.keys(), \
        sorted(found.keys() - gated.keys() - STRUCTURED_EXEMPT.keys())
    wrong = {key: kinds for key, kinds in gated.items()
             if kinds != {found[key]}}
    assert not wrong, wrong
    for kind in set(found.values()) - {"table"}:
        assert hasattr(getattr(gpdflow, kind), "__post_init__") != (
            kind in PLAIN_RECORDS), kind


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
