"""The one associativity engine (Light's test on row tables) against the
brute-force triple scan of the test oracle.

On the group-by-graph matrix both must pass every groupoid, ambit and base
action.  Seeded single-entry corruptions of ``comp`` and of ``act`` (a value
swapped for another with the same endpoints, so every structural check
still passes) must each come back as a law violation whose witness the
oracle confirms, and the oracle must agree that the table is broken.  A
seeded fuzz of one to three such edits, on matrix groupoids, relabelled
copies and a disjoint union, asks for the same verdict as the oracle, and
so does an anchor moved within an orbit.  On small edited actions the
equivariant maps out of the ambit and the invariant sections are those of
the brute enumerations.
"""
import random

import numpy as np
import pytest

from gpdflow.amenability import invariant_sections
from gpdflow.dynamics import GroupoidAction, base_action, build_ambit, \
    disjoint_union_actions, enumerate_equivariant_maps, verify_action
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import matrix_bundle, matrix_bundles, named_bundles
from gpdflow.groupoid import Groupoid, disjoint_union, is_transitive, \
    verify_groupoid
from gpdflow.serialize import action_to_json, groupoid_to_json

from test_amenability import brute_sections
from test_dynamics import brute_force_equivariant_maps

from law_oracle import action_law_broken, brute_action_violation, \
    brute_groupoid_violation, groupoid_law_broken, relabelled, \
    whole_table_fill

GROUPOID_LAWS = ("unit law", "inverse law", "associativity")
ACTION_LAWS = ("action unit law", "action associativity")
CORRUPTED = ("edge-s3", "triangle-z2-twisted", "wedge2-z3")


def test_engine_agrees_with_brute_force_on_matrix():
    for name, bundle in sorted(matrix_bundles().items()):
        gpd = groupoid_of_bundle(bundle).groupoid
        diag = verify_groupoid(gpd)
        assert diag.ok, name
        assert diag.notes["assoc_strategy"] == "generated"
        assert brute_groupoid_violation(groupoid_to_json(gpd)) is None, name
        for a in (build_ambit(gpd, 0).action, base_action(gpd)):
            assert verify_action(a).ok, name
            assert brute_action_violation(action_to_json(a)) is None, name


@pytest.mark.parametrize("name", CORRUPTED)
def test_seeded_comp_corruptions_are_law_violations(name):
    gpd = groupoid_of_bundle(named_bundles()[name]).groupoid
    rng = random.Random(name)
    for _ in range(25):
        comp = gpd.triples()
        i = rng.randrange(len(comp))
        g, h, gh = comp[i]
        others = [c for c in gpd.hom(int(gpd.src[g]), int(gpd.tgt[h]))
                  if c != gh]
        comp[i][2] = rng.choice(others)
        broken = Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit, gpd.inv,
                                      comp)
        diag = verify_groupoid(broken)
        model = groupoid_to_json(broken)
        assert not diag.ok and not diag.structural, (name, comp[i])
        assert diag.failure in GROUPOID_LAWS
        assert groupoid_law_broken(model, diag.failure, diag.witness), \
            (name, comp[i], diag.failure, diag.witness)
        assert brute_groupoid_violation(model) is not None


@pytest.mark.parametrize("name", CORRUPTED)
def test_seeded_act_corruptions_are_law_violations(name):
    gpd = groupoid_of_bundle(named_bundles()[name]).groupoid
    a = build_ambit(gpd, 0).action
    rng = random.Random(name)
    for _ in range(25):
        triples = a.triples()
        i = rng.randrange(len(triples))
        y, g, z = triples[i]
        others = [p for p in a.fiber(int(a.anchor[z])) if p != z]
        if not others:  # a one-point fiber leaves nothing to swap in
            continue
        triples[i][2] = rng.choice(others)
        broken = GroupoidAction.from_triples(gpd, a.anchor, triples)
        diag = verify_action(broken)
        model = action_to_json(broken)
        assert not diag.ok and not diag.structural, (name, triples[i])
        assert diag.failure in ACTION_LAWS
        assert action_law_broken(model, diag.failure, diag.witness), \
            (name, triples[i], diag.failure, diag.witness)
        assert brute_action_violation(model) is not None


def _fuzz_groupoids(rng):
    """Small matrix groupoids, a seeded relabelling of each (its least
    arrows, so its cycle and completion, are others), and a disjoint union
    of two (not transitive)."""
    small = {name: groupoid_of_bundle(matrix_bundle(*name.split("/"))).groupoid
             for name in ("Z2/triangle", "Z3/path3", "S3/path3", "Z4/wedge2")}
    for name, gpd in small.items():
        yield name, gpd
        yield f"{name} relabelled", relabelled(gpd, rng)
    yield "Z3/path3 + Z4/wedge2", disjoint_union(small["Z3/path3"],
                                                  small["Z4/wedge2"])


def _edit(triples, choices, rng):
    """One to three seeded rows of ``triples`` given a value drawn from
    ``choices(row)``, which may be the value it had."""
    for i in rng.sample(range(len(triples)), rng.randint(1, 3)):
        triples[i][2] = rng.choice(choices(triples[i]))
    return triples


def _same_verdict(diag, model, brute, confirms, where):
    """The engine fails exactly when the brute scan finds a violation, and
    a failure is a law the model really breaks at the witness."""
    assert diag.ok == (brute(model) is None), where
    if not diag.ok:
        assert not diag.structural, where
        assert confirms(model, diag.failure, diag.witness), \
            (where, diag.failure, diag.witness)


def test_verdicts_agree_with_brute_force_on_seeded_edits():
    """Each groupoid's ``comp`` and an action's ``act`` (the ambit, or the
    regular action where the groupoid is not transitive), edited within
    hom-sets and fibers: 16 cases each, about one in eight still lawful."""
    rng = random.Random("verdict fuzz")
    verdicts = set()
    for name, gpd in _fuzz_groupoids(rng):
        a = build_ambit(gpd, 0).action if is_transitive(gpd)[0] else \
            GroupoidAction.from_triples(gpd, gpd.tgt, gpd.triples())
        for case in range(16):
            comp = _edit(gpd.triples(), lambda t: gpd.hom(
                int(gpd.src[t[0]]), int(gpd.tgt[t[1]])), rng)
            broken = Groupoid.from_tables(gpd.src, gpd.tgt, gpd.unit,
                                          gpd.inv, comp)
            diag = verify_groupoid(broken)
            _same_verdict(diag, groupoid_to_json(broken),
                          brute_groupoid_violation, groupoid_law_broken,
                          (name, "comp", case))
            verdicts.add(diag.ok)
            act = _edit(a.triples(), lambda t: a.fiber(int(a.anchor[t[2]])),
                        rng)
            broken = GroupoidAction.from_triples(gpd, a.anchor, act)
            diag = verify_action(broken)
            _same_verdict(diag, action_to_json(broken), brute_action_violation,
                          action_law_broken, (name, "act", case))
            verdicts.add(diag.ok)
    assert verdicts == {True, False}


def _anchor_moved(a, rng):
    """``a`` with one seeded point's anchor moved to another object of its
    orbit, and the triples laid out again for the new anchor: an entry
    whose value still lies over its arrow's target is kept, any other is
    drawn from that fiber.  None when the point's orbit has one object, or
    when a fiber it leaves has no other point."""
    gpd = a.gpd
    y = rng.randrange(a.n_points)
    near = sorted(set(gpd.tgt[gpd.arrows_from(int(a.anchor[y]))].tolist())
                  - {int(a.anchor[y])})
    if not near:
        return None
    anchor = a.anchor.copy()
    anchor[y] = rng.choice(near)
    old = {(w, g): z for w, g, z in a.triples()}
    triples = []
    for w in range(a.n_points):
        for g in gpd.arrows_from(int(anchor[w])).tolist():
            fiber = np.flatnonzero(anchor == gpd.tgt[g]).tolist()
            if not fiber:
                return None
            z = old.get((w, g))
            if z is None or anchor[z] != gpd.tgt[g]:
                z = rng.choice(fiber)
            triples.append([w, g, z])
    return GroupoidAction.from_triples(gpd, anchor, triples)


def test_verdicts_agree_when_an_anchor_moves_within_an_orbit():
    """An action's anchor edited at one point, to another object of the
    point's orbit: kept with the old triples, the table's flaw is the one
    the whole-table fill picks; laid out again, the verdict is the brute
    scan's.  The ambit, and the regular action where the groupoid is not
    transitive, 12 cases each."""
    rng = random.Random("anchor moves")
    failures, moved = set(), 0
    for name, gpd in _fuzz_groupoids(rng):
        a = build_ambit(gpd, 0).action if is_transitive(gpd)[0] else \
            GroupoidAction.from_triples(gpd, gpd.tgt, gpd.triples())
        for case in range(12):
            edited = _anchor_moved(a, rng)
            if edited is None:  # a one-object orbit, as on a wedge
                continue
            moved += 1
            stale = GroupoidAction.from_triples(gpd, edited.anchor,
                                                a.triples())
            _, _, flaw = whole_table_fill(stale, a.triples())
            diag = verify_action(stale)
            assert (diag.failure, diag.witness, diag.structural) == \
                flaw[:3], (name, case)
            diag = verify_action(edited)
            _same_verdict(diag, action_to_json(edited), brute_action_violation,
                          action_law_broken, (name, "anchor", case))
            failures.add(diag.failure)
    assert failures == set(ACTION_LAWS), failures


def test_maps_and_sections_agree_with_brute_force_on_edited_actions():
    """The equivariant maps out of the ambit into an edited action, and the
    edited action's invariant sections, against the brute enumerations of
    ``test_dynamics`` and ``test_amenability``.  The action is the ambit,
    or the ambit beside the base action (which has a section), of a small
    transitive groupoid, edited at one to three entries within fibers or
    at one point's anchor: 8 cases each.  An action that breaks its laws
    may make the sections raise; one that keeps them may not."""
    rng = random.Random("maps and sections")
    seen = set()
    for name in ("Z2/triangle", "Z2/path3", "Z2/wedge2", "Z4/wedge2"):
        gpd = groupoid_of_bundle(matrix_bundle(*name.split("/"))).groupoid
        ambit = build_ambit(gpd, 0)
        for a in (ambit.action,
                  disjoint_union_actions(ambit.action, base_action(gpd))):
            for case in range(8):
                if case % 2:
                    edited = _anchor_moved(a, rng)
                    if edited is None:  # a wedge has one object
                        continue
                else:
                    act = _edit(a.triples(),
                                lambda t: a.fiber(int(a.anchor[t[2]])), rng)
                    edited = GroupoidAction.from_triples(gpd, a.anchor, act)
                where = (name, a.n_points, case)
                maps = [m.values for m in
                        enumerate_equivariant_maps(ambit, edited)]
                assert sorted(maps) == \
                    sorted(brute_force_equivariant_maps(ambit, edited)), where
                lawful = verify_action(edited).ok
                assert lawful == \
                    (brute_action_violation(action_to_json(edited)) is None)
                try:
                    sections = [s.values for s in
                                invariant_sections(edited, 0)]
                except ValueError:
                    assert not lawful, where
                    sections = "raised"
                else:
                    assert sorted(sections) == brute_sections(edited), where
                    sections = bool(sections)
                seen.add((lawful, bool(maps), sections))
    assert {(True, True, True), (True, True, False), (False, True, True),
            (False, False, False), (False, True, "raised")} <= seen, seen
