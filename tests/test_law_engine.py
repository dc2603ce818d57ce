"""The one associativity engine (Light's test on row tables) against the
brute-force triple scan of the test oracle.

On the group-by-graph matrix both must pass every groupoid, ambit and base
action.  Seeded single-entry corruptions of ``comp`` and of ``act`` (a value
swapped for another with the same endpoints, so every structural check
still passes) must each come back as a law violation whose witness the
oracle confirms, and the oracle must agree that the table is broken.  A
seeded fuzz of one to three such edits, on matrix groupoids, relabelled
copies and a disjoint union, asks for the same verdict as the oracle.
"""
import random

import pytest

from gpdflow.dynamics import GroupoidAction, base_action, build_ambit, \
    verify_action
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import matrix_bundle, matrix_bundles, named_bundles
from gpdflow.groupoid import Groupoid, disjoint_union, is_transitive, \
    verify_groupoid
from gpdflow.serialize import action_to_json, groupoid_to_json

from law_oracle import action_law_broken, brute_action_violation, \
    brute_groupoid_violation, groupoid_law_broken, relabelled

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
        comp = gpd.comp_triples()
        i = rng.randrange(len(comp))
        g, h, gh = comp[i]
        others = [c for c in gpd.hom(int(gpd.src[g]), int(gpd.tgt[h]))
                  if c != gh]
        comp[i][2] = rng.choice(others)
        broken = Groupoid.from_tables(gpd.n_objects, gpd.src, gpd.tgt,
                                      gpd.unit, gpd.inv, comp)
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
        broken = GroupoidAction.from_triples(gpd, a.n_points, a.anchor, triples)
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
            GroupoidAction.from_triples(gpd, gpd.n_arrows, gpd.tgt,
                                        gpd.comp_triples())
        for case in range(16):
            comp = _edit(gpd.comp_triples(), lambda t: gpd.hom(
                int(gpd.src[t[0]]), int(gpd.tgt[t[1]])), rng)
            broken = Groupoid.from_tables(gpd.n_objects, gpd.src, gpd.tgt,
                                          gpd.unit, gpd.inv, comp)
            diag = verify_groupoid(broken)
            _same_verdict(diag, groupoid_to_json(broken),
                          brute_groupoid_violation, groupoid_law_broken,
                          (name, "comp", case))
            verdicts.add(diag.ok)
            act = _edit(a.triples(), lambda t: a.fiber(int(a.anchor[t[2]])),
                        rng)
            broken = GroupoidAction.from_triples(gpd, a.n_points, a.anchor, act)
            diag = verify_action(broken)
            _same_verdict(diag, action_to_json(broken), brute_action_violation,
                          action_law_broken, (name, "act", case))
            verdicts.add(diag.ok)
    assert verdicts == {True, False}
