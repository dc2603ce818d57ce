"""Test-side oracle for the groupoid and action laws.

Plain python over the JSON model tables, independent of the package's
engines: a brute-force scan of every composable triple (the old full
associativity scan, kept here as the slow reference), and a check that a
reported witness really breaks the law it names.
"""
from collections import defaultdict


def _tables(model):
    comp = {(g, h): gh for g, h, gh in model["comp"]}
    out = defaultdict(list)
    for a, x in enumerate(model["src"]):
        out[x].append(a)
    return comp, out


def brute_groupoid_violation(model):
    """The first broken unit, inverse or associativity law of a groupoid
    model as ``(label, witness)``, or None when all hold."""
    comp, out = _tables(model)
    src, tgt, unit, inv = model["src"], model["tgt"], model["unit"], model["inv"]
    for a in range(model["arrows"]):
        if comp.get((unit[src[a]], a)) != a or comp.get((a, unit[tgt[a]])) != a:
            return "unit law", (a,)
    for a in range(model["arrows"]):
        if comp.get((a, inv[a])) != unit[src[a]] \
                or comp.get((inv[a], a)) != unit[tgt[a]]:
            return "inverse law", (a,)
    for (x, y), xy in sorted(comp.items()):
        for z in out[tgt[y]]:
            if comp[(xy, z)] != comp[(x, comp[(y, z)])]:
                return "associativity", (x, y, z)
    return None


def brute_action_violation(model):
    """The first broken unit or compatibility law of an action model as
    ``(label, witness)``, or None when both hold."""
    gpd = model["groupoid"]
    comp, out = _tables(gpd)
    act = {(y, g): z for y, g, z in model["act"]}
    anchor = model["anchor"]
    for y in range(model["space"]):
        if act[(y, gpd["unit"][anchor[y]])] != y:
            return "action unit law", (y,)
    for y in range(model["space"]):
        for g in out[anchor[y]]:
            for h in out[gpd["tgt"][g]]:
                if act[(act[(y, g)], h)] != act[(y, comp[(g, h)])]:
                    return "action associativity", (y, g, h)
    return None


def groupoid_law_broken(model, failure, witness):
    """Whether ``witness`` really breaks the groupoid law named
    ``failure`` in the model's own tables."""
    comp, _ = _tables(model)
    src, tgt, unit, inv = model["src"], model["tgt"], model["unit"], model["inv"]
    if failure == "associativity":
        x, y, z = witness
        return comp[(comp[(x, y)], z)] != comp[(x, comp[(y, z)])]
    if failure == "unit law":
        (a,) = witness
        return comp.get((unit[src[a]], a)) != a \
            or comp.get((a, unit[tgt[a]])) != a
    if failure == "inverse law":
        (a,) = witness
        return comp.get((a, inv[a])) != unit[src[a]] \
            or comp.get((inv[a], a)) != unit[tgt[a]]
    return False


def action_law_broken(model, failure, witness):
    """Whether ``witness`` really breaks the action law named ``failure``."""
    gpd = model["groupoid"]
    comp, _ = _tables(gpd)
    act = {(y, g): z for y, g, z in model["act"]}
    if failure == "action associativity":
        y, g, h = witness
        return act[(act[(y, g)], h)] != act[(y, comp[(g, h)])]
    if failure == "action unit law":
        (y,) = witness
        return act[(y, gpd["unit"][model["anchor"][y]])] != y
    return False
