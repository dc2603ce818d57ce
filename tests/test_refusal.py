"""One refusal gate: each structured type a public function takes, and
the tables of ints (``"table"``), has one corpus from ``table_corpus`` and
one call table keyed by ``(function, parameter)``, which ``test_package``
reads; :func:`run` builds each case and gives every call the result."""
import re
from collections import Counter
from functools import cache, partial

import pytest

from gpdflow import *  # noqa: F403 - the gate calls the public surface

from table_corpus import (corrupted_tables, edited_bundles, edited_connections,
                          edited_graphs, edited_group_tables, edited_maps,
                          edited_transports, odd_tables, path_connection,
                          time_limit)

GPD = pair_groupoid(3)
AMBIT = build_ambit(GPD, 0)
ACT = AMBIT.action
SECTION = invariant_sections(ACT, 0)[0].values
CONN = path_connection(GPD)
ID = list(range(GPD.n_objects)), list(range(GPD.n_arrows))  # its own maps
Z2 = preset_group("Z2")
# a fixture bundle of each base and group, the other side of an iso test
FIXTURES = {(b.base, b.group): b for b in named_bundles().values()}
PRESETS = [("clean", (name, preset_group(name).mult))
           for name in ("S3", "Z4", "D4", "Q8", "Z6")]


@cache
def tables(kind=RowTable):
    """The row tables of ``kind`` as ``(clean, flawed or lawless, table)``."""
    verdicts = [(verify_groupoid(t) if k is Groupoid else verify_action(t), t)
                for k, _, t in corrupted_tables(GPD, ACT)
                if issubclass(k, kind)]
    return [("clean" if v.ok else "flawed" if v.structural else "lawless", t)
            for v, t in verdicts]


def state_of(verdict):
    """``clean``, or a failed verdict's failure and witness."""
    return "clean" if verdict.ok else f"{verdict.failure} {verdict.witness}"


def list_tables():
    """Edited and odd group tables as ``(state, (preset, table))``."""
    for name, _, table in (*edited_group_tables(), *odd_tables()):
        yield state_of(verify_group(table, 0)[0]), (name, table)


def identity_map(a):
    return EquivariantMap(a, a, list(range(a.n_points)))


def total_space_reads(b):
    ts = TotalSpace(b)
    return (ts.n_points, ts.point(0), ts.point_index(0, 0), ts.proj(0),
            ts.raction(0, b.group.identity), ts.fiber(0),
            [ts.transport(d, 0) for d in b.base.out_darts(0)])


# kind -> (its cases as (state, case), the argument a case builds, calls)
GATES = {
    "Groupoid": (partial(tables, Groupoid), None, {
        ("verify_groupoid", "g"): verify_groupoid,
        ("verify_groupoid_iso", "g1"): lambda t: verify_groupoid_iso(
            t, GPD, *ID),
        ("verify_groupoid_iso", "g2"): lambda t: verify_groupoid_iso(
            GPD, t, *ID),
        ("verify_connection", "gpd"): lambda t: verify_connection(t, CONN),
        ("is_transitive", "g"): is_transitive,
        ("check_local_triviality", "g"): check_local_triviality,
        ("Groupoid.generators", "self"): lambda t: t.generators,
        ("hom_set", "g"): lambda t: hom_set(t, 0, 1),
        ("vertex_group", "g"): lambda t: vertex_group(t, 0),
        ("vertex_groups_isomorphic", "g"): lambda t: vertex_groups_isomorphic(
            t, 0, 1),
        ("normalize_groupoid", "g"): normalize_groupoid,
        ("disjoint_union", "g1"): lambda t: disjoint_union(t, GPD),
        ("disjoint_union", "g2"): lambda t: disjoint_union(GPD, t),
        ("base_action", "gpd"): base_action,
        ("build_ambit", "gpd"): lambda t: build_ambit(t, 0),
        ("bundle_of_groupoid", "gpd"): lambda t: bundle_of_groupoid(t, CONN),
        ("GroupoidAction.from_triples", "gpd"): lambda t:
            GroupoidAction.from_triples(t, [0], []),
        ("groupoid_to_json", "gpd"): lambda t: canonical_dumps(
            groupoid_to_json(t))}),
    "GroupoidAction": (partial(tables, GroupoidAction), None, {
        ("verify_action", "a"): verify_action,
        ("verify_invariant_section", "a"): lambda t: verify_invariant_section(
            t, SECTION),
        ("orbits", "a"): orbits,
        ("invariant_subsets", "a"): invariant_subsets,
        ("minimal_subflows", "a"): minimal_subflows,
        ("disjoint_union_actions", "a1"): partial(disjoint_union_actions,
                                                  a2=ACT),
        ("disjoint_union_actions", "a2"): partial(disjoint_union_actions,
                                                  ACT),
        ("fiber_action", "a"): lambda t: fiber_action(t, 0),
        ("invariant_sections", "a"): lambda t: invariant_sections(t, 0),
        ("universal_map", "a"): lambda t: universal_map(t, AMBIT, 0),
        ("enumerate_equivariant_maps", "a"): lambda t:
            enumerate_equivariant_maps(AMBIT, t),
        ("action_to_json", "a"): lambda t: canonical_dumps(
            action_to_json(t))}),
    "RowTable": (tables, None, {
        ("restrict_action", "a"): lambda t: restrict_action(
            t, list(range(t.anchor.shape[0])))}),
    "Ambit": (
        lambda: [(state, (t, 0)) for state, t in tables(Groupoid)]
        + [("refused", (GPD, x)) for x in (None, True, 1.0, -1, 3)],
        lambda case: Ambit(*case), {
        ("universal_map", "ambit"): lambda am: universal_map(
            am.action, am, am.u0),
        ("enumerate_equivariant_maps", "ambit"): lambda am:
            enumerate_equivariant_maps(am, am.action),
        ("fiber_semigroup", "ambit"): fiber_semigroup,
        ("minimal_flow_uniqueness", "ambit"): minimal_flow_uniqueness,
        ("ambit_to_json", "ambit"): lambda am: canonical_dumps(
            ambit_to_json(am))}),
    "EquivariantMap": (
        lambda: [("edited", case) for case in edited_maps(GPD, ACT)],
        lambda case: EquivariantMap(*case), {
        ("verify_equivariant_map", "m"): verify_equivariant_map,
        ("compose_equivariant_maps", "outer"): lambda m:
            compose_equivariant_maps(m, identity_map(m.source)),
        ("compose_equivariant_maps", "inner"): lambda m:
            compose_equivariant_maps(identity_map(m.target), m)}),
    "Connection": (
        lambda: [("edited", case) for case in edited_connections()],
        lambda case: Connection(*case), {
        ("verify_connection", "conn"): lambda c: verify_connection(GPD, c),
        ("bundle_of_groupoid", "conn"): lambda c: bundle_of_groupoid(GPD, c)}),
    "TransportGroupoid": (edited_transports, None, {
        ("closed_form_matches_oracle", "tg"): closed_form_matches_oracle,
        ("vertex_chart_phi", "tg"): vertex_chart_phi,
        ("vertex_chart_psi", "tg"): vertex_chart_psi,
        ("fiber_chart_tau", "tg"): fiber_chart_tau,
        ("fiber_chart_sigma", "tg"): fiber_chart_sigma,
        ("transport_to_json", "tg"): lambda tg: canonical_dumps(
            transport_to_json(tg))}),
    "BaseGraph": (
        lambda: [("edited", case) for case in edited_graphs()],
        lambda case: BaseGraph(*case), {
        ("bfs_tree", "graph"): bfs_tree,
        ("verify_cocycle", "base"): lambda g: verify_cocycle(
            g, Z2, [0] * g.n_darts)[0],
        ("CocycleBundle.from_edge_labels", "base"): lambda g:
            CocycleBundle.from_edge_labels(g, Z2, [0] * g.n_edges)}),
    "table": (list_tables, None, {
        ("verify_group", "table"): lambda c: verify_group(c[1], 0)[0],
        ("fixed_points", "table"): lambda c: fixed_points(
            preset_group(c[0]), c[1]),
        ("semigroup_idempotents", "table"): lambda c: semigroup_idempotents(
            c[1]),
        ("minimal_left_ideals", "table"): lambda c: minimal_left_ideals(c[1]),
        ("build_group", "model_data"): lambda c: build_group(
            {"mult": c[1], "identity": 0})}),
    "FiniteGroup": (
        lambda: [*list_tables(), *PRESETS],
        lambda case: FiniteGroup(case[1], 0, case[0]), {
        ("FiniteGroup.mul", "self"): lambda g: [
            g.mul(a, b) for a in g.elements for b in g.elements],
        ("FiniteGroup.inverse", "self"): lambda g: list(map(g.inverse,
                                                            g.elements)),
        ("FiniteGroup.conjugate", "self"): lambda g: [
            g.conjugate(a, b) for a in g.elements for b in g.elements],
        ("generated_subgroup", "group"): partial(generated_subgroup,
                                                 generators=[1, 2]),
        ("are_conjugate_subgroup_maps", "group"): lambda g:
            are_conjugate_subgroup_maps(g, [1, 2], [2, 1]),
        ("element_order", "group"): lambda g: [element_order(g, a)
                                               for a in g.elements],
        ("find_group_isomorphism", "g1"): lambda g: find_group_isomorphism(
            g, preset_group(g.name)),
        ("find_group_isomorphism", "g2"): lambda g: find_group_isomorphism(
            preset_group(g.name), g),
        ("fixed_points", "grp"): lambda g: fixed_points(g, g.mult),
        ("extreme_amenability_check", "grp"): extreme_amenability_check,
        ("CocycleBundle.from_edge_labels", "group"): lambda g: is_trivial(
            CocycleBundle.from_edge_labels(BaseGraph.wedge_of_loops(2), g,
                                           [1, 2])),
        ("dart_labels", "group"): lambda g: dart_labels(g, [1, 2]),
        ("verify_cocycle", "group"): lambda g: verify_cocycle(
            BaseGraph.wedge_of_loops(1), g, [1, g.inverse(1)])[0],
        ("point_base_degenerate", "grp"): point_base_degenerate,
        ("one_object_groupoid", "group"): one_object_groupoid,
        ("group_to_json", "grp"): group_to_json}),
    "CocycleBundle": (
        lambda: [(state_of(verify_cocycle(b.base, b.group, labels)[0]),
                  (b, labels)) for b, labels in edited_bundles()],
        lambda case: CocycleBundle(case[0].base, case[0].group, case[1]), {
        ("verify_cocycle", "labels"): lambda b: verify_cocycle(
            b.base, b.group, b.labels)[0],
        ("TotalSpace", "bundle"): total_space_reads,
        ("CocycleBundle.edge_labels", "self"): lambda b: b.edge_labels(),
        ("apply_gauge", "b"): lambda b: apply_gauge(b, GaugeTransformation(
            [b.group.identity] * b.base.n_vertices)),
        ("gauge_normalize", "b"): gauge_normalize,
        ("holonomy_along", "b"): lambda b: holonomy_along(
            b, list(range(min(2, b.base.n_darts)))),
        ("holonomy_group", "b"): holonomy_group,
        ("is_trivial", "b"): is_trivial,
        ("bundles_isomorphic", "b1"): lambda b: bundles_isomorphic(
            b, FIXTURES[b.base, b.group]),
        ("bundles_isomorphic", "b2"): lambda b: bundles_isomorphic(
            FIXTURES[b.base, b.group], b),
        ("bundles_isomorphic_bruteforce", "b1"): lambda b:
            bundles_isomorphic_bruteforce(b, FIXTURES[b.base, b.group]),
        ("bundles_isomorphic_bruteforce", "b2"): lambda b:
            bundles_isomorphic_bruteforce(FIXTURES[b.base, b.group], b),
        ("groupoid_of_bundle", "b"): groupoid_of_bundle,
        ("orbit_quotient_groupoid", "b"): orbit_quotient_groupoid,
        ("roundtrip_bundle", "b"): roundtrip_bundle,
        ("section_existence_suite", "named_bundles"): lambda b:
            section_existence_suite([("edited", b)]),
        ("bundle_to_json", "b"): lambda b: canonical_dumps(
            bundle_to_json(b))}),
}
CALLS = {kind: calls for kind, (_, _, calls) in GATES.items()}
# kind -> the pattern, given its case's state, of a refusal when built
REFUSALS = {
    "Ambit": ".+",
    "EquivariantMap": r"(source|target) is a (Groupoid|NoneType), not a "
                      r"GroupoidAction|values(\[\d\])? = .+ is not (an "
                      r"integer|a list or tuple)",
    "Connection": r"base is a (NoneType|tuple), not a BaseGraph|arrows("
                  r"\[\d\])? = .+ is not (an integer|a list or tuple)",
    "BaseGraph": r"edges\[\d\]\[[01]\] = .+ (is not an integer|outside "
                 r"range\(\d\))",
    "FiniteGroup": "not a group: {state}",
    "CocycleBundle": "not a cocycle bundle: {state}"}
# the cases of each state that build, where that is pinned
BUILT = {"Groupoid": {"flawed": 295, "lawless": 189, "clean": 16},
         "GroupoidAction": {"flawed": 339, "lawless": 141, "clean": 20},
         "FiniteGroup": {"clean": 6}, "CocycleBundle": {"clean": 11}}
# what refuses some lawless case: the calls reading the laws, or the kind
LAWS_READ = {"Groupoid": {"vertex_group", "vertex_groups_isomorphic",
                          "build_ambit", "bundle_of_groupoid"},
             "GroupoidAction": {"universal_map", "invariant_sections"},
             "Ambit": {"Ambit"}}
# the calls that refuse a clean argument by their own size limits
OWN_LIMITS = ("section_existence_suite", "orbit_quotient_groupoid",
              "bundles_isomorphic_bruteforce")


def run(kind):
    """Build each case of ``kind`` and give every call the argument built:
    Counters of the outcomes as ``(state, key, outcome)``, the refusals in
    building as ``(state, message)``, and the cases built by state."""
    cases, build, calls = GATES[kind]
    outcomes, refusals, built = Counter(), Counter(), Counter()
    for state, case in cases():
        try:
            arg = case if build is None else build(case)
        except ValueError as refused:
            refusals[state, str(refused)] += 1
            continue
        built[state] += 1
        for key, call in calls.items():
            try:
                with time_limit(2.0):
                    verdict = isinstance(call(arg), Diagnostics)
                outcome = "verdict" if verdict else "result"
            except ValueError:
                outcome = "ValueError"
            except Exception as error:  # the gate: counted, then failed
                outcome = type(error).__name__
            outcomes[state, key, outcome] += 1
    print(kind, dict(refused=sum(refusals.values()), built=built.total()))
    return outcomes, refusals, built


@pytest.mark.parametrize("kind", GATES)
def test_every_public_function_refuses_a_broken_argument(kind):
    """Every call on every case gives a result, a verdict or a
    ``ValueError``; a verifier gives a verdict, and nothing else but the
    oracle match does.  A case refused when built is refused by name, or
    with its verdict.  No call refuses a clean case but by its own limits,
    each gives a result on some case, and LAWS_READ refuse a lawless one."""
    outcomes, refusals, built = run(kind)
    for state, message in refusals:
        assert re.fullmatch(REFUSALS[kind].format(state=re.escape(state)),
                            message), message
    assert bool(refusals) == (GATES[kind][1] is not None)
    for (state, key, outcome), n in outcomes.items():
        assert outcome in ("result", "verdict", "ValueError"), (key, n)
        assert (outcome == "verdict") == key[0].startswith("verify") \
            or key[0] == "closed_form_matches_oracle", key
        assert state != "clean" or outcome != "ValueError" \
            or key[0] in OWN_LIMITS, key
    assert {key for _, key, outcome in outcomes
            if outcome != "ValueError"} == set(CALLS[kind])
    assert built == BUILT.get(kind, built)
    lawless = {key[0] for state, key, outcome in outcomes
               if (state, outcome) == ("lawless", "ValueError")}
    lawless |= {kind for state, _ in refusals if state == "lawless"}
    assert lawless >= LAWS_READ.get(kind, set())
    if kind == "table":  # build_group agrees, and each law breaks somewhere
        for _, (_, table) in list_tables():
            assert build_group({"mult": table, "identity": 0}) == \
                verify_group(table, 0)
        assert {verify_group(table, 0)[0].failure.split()[0]
                for _, _, table in edited_group_tables()} == {
            "entry", "table", "identity", "row"}
