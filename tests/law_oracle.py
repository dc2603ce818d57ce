"""Test-side oracle for the groupoid and action laws.

Plain python over the JSON model tables, independent of the package's
engines: a brute-force scan of every composable triple (the old full
associativity scan, kept here as the slow reference), and a check that a
reported witness really breaks the law it names.  The whole-table fill of
a row table (the old one, kept here as the reference for the blockwise
fill) and the flaw it picks.  The triple loop of local triviality (the
old ``check_local_triviality``, kept here as the reference for the
one-pass version).  The backtracking group isomorphism search (the old
``find_group_isomorphism``, kept here as the reference for the search one
generator at a time).  The closure of the units under right multiplication
by a set of arrows, in python sets, to check that a generating set
generates; and a seeded renumbering of a groupoid's objects and arrows.
The endpoint and reversal laws of a connection, read from the JSON lists.
"""
from collections import defaultdict

import numpy as np

from gpdflow.algebra import element_order
from gpdflow.groupoid import Groupoid


def _triples(table):
    """A table's ``[y, h, y . h]`` rows: an emitted model holds its ``comp``
    or ``act`` as a row table, read through ``triples()``; a decoded one, a
    list or an array."""
    return table.triples() if hasattr(table, "triples") else table


def _tables(model):
    comp = {(g, h): gh for g, h, gh in _triples(model["comp"])}
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
    act = {(y, g): z for y, g, z in _triples(model["act"])}
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


def _connection_arrows(model):
    arrows = [0] * len(model["connection"])
    for dart, arrow in model["connection"]:
        arrows[dart] = arrow
    return arrows


def brute_connection_violation(model):
    """The first dart of a groupoid model's connection whose arrow misses
    the dart's endpoints, or whose reverse dart is not on the inverse
    arrow, as ``(label, witness)``; None when both laws hold.  Edge ``i``
    spans the sources of the arrows on darts ``2i`` and ``2i + 1``, so a
    dart's arrow must end where its reverse dart's arrow starts."""
    arrows = _connection_arrows(model)
    for d, a in enumerate(arrows):
        if model["tgt"][a] != model["src"][arrows[d ^ 1]]:
            return "connection endpoints", (d, a)
    for d, a in enumerate(arrows):
        if arrows[d ^ 1] != model["inv"][a]:
            return "connection reversal", (d,)
    return None


def connection_law_broken(model, failure, witness):
    """Whether the dart ``witness[0]`` really breaks the connection law
    named ``failure``."""
    arrows = _connection_arrows(model)
    d = witness[0]
    if failure == "connection endpoints":
        return model["tgt"][arrows[d]] != model["src"][arrows[d ^ 1]]
    if failure == "connection reversal":
        return arrows[d ^ 1] != model["inv"][arrows[d]]
    return False


def brute_closure(model, gens):
    """The arrows of a groupoid model reached from its units by right
    multiplication by the arrows ``gens``, one arrow at a time."""
    comp, _ = _tables(model)
    reached = set(model["unit"])
    todo = list(reached)
    while todo:
        a = todo.pop()
        for b in gens:
            ab = comp.get((a, b))
            if ab is not None and ab not in reached:
                reached.add(ab)
                todo.append(ab)
    return reached


def relabelled(g, rng):
    """``g`` with its objects and its arrows renumbered at random."""
    om = np.array(rng.sample(range(g.n_objects), g.n_objects))
    am = np.array(rng.sample(range(g.n_arrows), g.n_arrows))
    old = np.argsort(am)  # the old index of each new arrow
    return Groupoid.from_tables(
        om[g.src[old]], om[g.tgt[old]],
        am[g.unit[np.argsort(om)]], am[g.inv[old]], am[g.triple_array()])


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
    act = {(y, g): z for y, g, z in _triples(model["act"])}
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
    the repeated pairs and the gaps, and one ``lexsort`` of every triple by
    ``(y, h)``, from which the first flaw is read as ``(failure, witness,
    structural, notes)`` or None.  The kinds come in the order: a point or
    arrow out of range, a value out of range, a repeated pair, a pair off
    the domain, each at its least ``(y, h)`` (the earlier triple on a tie);
    then the first pair in row order with no entry.  ``table`` is a
    groupoid (its own regular action) or an action whose groupoid and
    anchor pass their scans; only its ``gpd`` and ``anchor`` are read."""
    gpd, anchor = table.gpd, table.anchor
    n = anchor.shape[0]
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ys, hs, zs = t[:, 0], t[:, 1], t[:, 2]
    row_off = np.concatenate(
        ([0], np.cumsum(np.diff(gpd.out_index[1])[anchor])))
    index = (ys < 0) | (ys >= n) | (hs < 0) | (hs >= gpd.n_arrows)
    on = ~index
    on[on] = anchor[ys[on]] == gpd.src[hs[on]]
    off = ~index & ~on
    pos = row_off[ys[on]] + gpd.out_pos[hs[on]]
    counts = np.bincount(pos, minlength=int(row_off[-1]))
    dup = np.zeros_like(on)
    dup[on] = counts[pos] > 1
    val = np.full(int(row_off[-1]), -1, dtype=np.int64)
    val[pos] = zs[on]
    labels = (("comp pair out of range", "comp value out of range",
               "duplicate comp pair") if table is gpd else
              ("action table index out of range", "action value out of range",
               "duplicate act pair")) + ("composability domain violated",)
    by_pair = np.lexsort((hs, ys))  # stable: the earlier triple on a tie
    for kind, mask in enumerate((index, (zs < 0) | (zs >= n), dup, off)):
        hit = by_pair[mask[by_pair]]
        if hit.size:
            witness = (ys, hs, zs)[:3 if kind == 1 else 2]
            return row_off, val, (
                labels[kind], tuple(int(c[hit[0]]) for c in witness), True, {})
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        order, start, _ = gpd.out_index
        y = int(np.searchsorted(row_off, missing[0], "right") - 1)
        h = int(order[start[anchor[y]] + missing[0] - row_off[y]])
        return row_off, val, (labels[3], (y, h), True,
                              {"detail": "missing entry on a composable pair"})
    return row_off, val, None


def brute_local_triviality(g):
    """``(trivial, witness)`` of ``check_local_triviality`` by the old
    triple loop: for each object ``x`` and then each ``y``, an arrow
    ``x -> y``; the first pair without one is the witness."""
    ends = list(zip(g.src.tolist(), g.tgt.tolist()))
    for x in range(g.n_objects):
        for y in range(g.n_objects):
            if (x, y) not in ends:
                return False, (x, y)
    return True, None


def backtrack_group_isomorphism(g1, g2):
    """The old ``find_group_isomorphism``: the least unmapped element tries
    each unused image of its element order in ascending order, and the
    partial map is closed under products, undoing the closure on a clash."""
    n = g1.order
    if n != g2.order:
        return None
    ord1 = [element_order(g1, g) for g in g1.elements]
    ord2 = [element_order(g2, g) for g in g2.elements]
    if sorted(ord1) != sorted(ord2):
        return None

    image = [-1] * n
    used = [False] * n
    image[g1.identity] = g2.identity
    used[g2.identity] = True

    def close(pairs):
        """Force products of known values; return newly set pairs or None."""
        added = []
        queue = list(pairs)
        while queue:
            a, _ = queue.pop()
            for b in g1.elements:
                if image[b] < 0:
                    continue
                for x, y in ((a, b), (b, a)):
                    prod = g1.mul(x, y)
                    want = g2.mul(image[x], image[y])
                    if image[prod] < 0:
                        if used[want]:
                            return _undo(added)
                        image[prod] = want
                        used[want] = True
                        added.append((prod, want))
                        queue.append((prod, want))
                    elif image[prod] != want:
                        return _undo(added)
        return added

    def _undo(added):
        for a, b in added:
            image[a] = -1
            used[b] = False
        return None

    def search():
        try:
            a = image.index(-1)
        except ValueError:
            return True
        for b in g2.elements:
            if used[b] or ord2[b] != ord1[a]:
                continue
            image[a] = b
            used[b] = True
            added = close([(a, b)])
            if added is not None:
                if search():
                    return True
                _undo(added)
            image[a] = -1
            used[b] = False
        return False

    return list(image) if search() else None
