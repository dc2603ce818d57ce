"""Test-side oracle for the groupoid and action laws.

Plain python over the JSON model tables, independent of the package's
engines: a brute-force scan of every composable triple (the old full
associativity scan, kept here as the slow reference), and a check that a
reported witness really breaks the law it names.  The whole-table fill of
a row table (the old one, kept here as the reference for the blockwise
fill) and the flaw it picks.
"""
from collections import defaultdict

import numpy as np


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


def whole_table_fill(table, triples):
    """``(row_off, val, flaw)`` of ``table`` built from ``triples`` by the
    whole-table fill: every triple's position at once, a ``bincount`` for
    the repeated pairs and the gaps, and the first flaw picked from masks
    over the whole table, as ``(failure, witness, structural, notes)`` or
    None.  ``table`` is a groupoid (its own regular action) or an action
    whose groupoid and anchor pass their scans; only its ``gpd`` and
    ``anchor`` are read."""
    gpd, anchor = table.gpd, table.anchor
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ys, hs, zs = t[:, 0], t[:, 1], t[:, 2]
    row_off = np.concatenate(
        ([0], np.cumsum(np.diff(gpd.out_index[1])[anchor])))
    index = (ys < 0) | (ys >= anchor.shape[0]) | (hs < 0) \
        | (hs >= gpd.n_arrows)
    on = ~index
    on[on] = anchor[ys[on]] == gpd.src[hs[on]]
    off = ~index & ~on
    pos = row_off[ys[on]] + gpd.out_pos[hs[on]]
    counts = np.bincount(pos, minlength=int(row_off[-1]))
    dup = np.zeros_like(on)
    dup[on] = counts[pos] > 1
    val = np.full(int(row_off[-1]), -1, dtype=np.int64)
    val[pos] = zs[on]
    missing = np.flatnonzero(counts == 0)
    order, start, _ = gpd.out_index
    miss_y = np.searchsorted(row_off, missing, "right") - 1
    miss_h = order[start[anchor[miss_y]] + missing - row_off[miss_y]]
    flaw = (_comp_flaw if table is gpd else _act_flaw)(
        anchor.shape[0], ys, hs, zs, index, off, dup, miss_y, miss_h, gpd.tgt)
    return row_off, val, flaw


def _comp_flaw(k, ys, hs, zs, index, off, dup, miss_g, miss_h, tgt):
    """In ``(g, h)`` order: a pair out of range, a value out of range, a
    duplicate pair, a pair off the domain; then the first missing pair by
    middle object, then ``g``, then ``h``."""
    if index.any():
        return ("comp pair out of range",
                (int((ys[index] * k + hs[index]).min()),), True, {})
    for mask, label, width in (((zs < 0) | (zs >= k), "comp value out of range", 3),
                               (dup, "duplicate comp pair", 2),
                               (off, "composability domain violated", 2)):
        if mask.any():
            at = np.flatnonzero(mask)
            i = int(at[np.argmin(ys[at] * k + hs[at])])
            return (label, tuple(int(c[i]) for c in (ys, hs, zs)[:width]),
                    True, {})
    if miss_g.size:
        i = int(np.argmin(tgt[miss_g] * k + miss_g))
        return ("composability domain violated",
                (int(miss_g[i]), int(miss_h[i])), True,
                {"detail": "missing entry on a composable pair"})
    return None


def _act_flaw(n, ys, hs, zs, index, off, dup, miss_y, miss_h, _):
    """In the order of the triples: an index out of range or a pair off the
    domain, then a repeated pair; the first missing pair in row order; in
    the order of the triples, a value out of range."""
    if (index | off).any():
        i = int(np.argmax(index | off))
        label = "action table index out of range" if index[i] \
            else "composability domain violated"
        return label, (int(ys[i]), int(hs[i])), True, {}
    if dup.any():
        i = int(np.argmax(dup))
        return "duplicate act pair", (int(ys[i]), int(hs[i])), True, {}
    if miss_y.size:
        return ("composability domain violated",
                (int(miss_y[0]), int(miss_h[0])), False,
                {"detail": "missing entry on a composable pair"})
    bad = (zs < 0) | (zs >= n)
    if bad.any():
        i = int(np.argmax(bad))
        return ("action value out of range",
                (int(ys[i]), int(hs[i]), int(zs[i])), True, {})
    return None
