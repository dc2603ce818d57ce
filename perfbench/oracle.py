"""The benchmark's own model of the mathematics, written apart from gpdflow.

Inputs are generated here and outputs are checked here, from the
benchmark's own group tables, graphs and closed forms.  Nothing in this
module imports gpdflow: a fault in the program cannot hide by also
appearing in the oracle that checks it.

Conventions match the model file format: a bundle lists one label per
edge; edge ``e`` has darts ``2e`` (u -> v, label g) and ``2e + 1``
(v -> u, label g^-1).  Groupoid arrows of a transitive groupoid over a
group are coordinates ``(v, w, a)`` with ``(v, w, a)(w, z, b) = (v, z, ab)``.
"""
from __future__ import annotations

import json
import random
from itertools import permutations


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- groups -------------------------------------------------------------------


class Group:
    """A group as an explicit table with identity 0."""

    def __init__(self, name: str, mult: list[list[int]]):
        self.name = name
        self.mult = mult
        self.order = len(mult)
        self.inv = [row.index(0) for row in mult]

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def json(self) -> dict:
        return {"order": self.order, "identity": 0, "mult": self.mult,
                "name": self.name}

    def element_order(self, g: int) -> int:
        power, k = g, 1
        while power != 0:
            power, k = self.mult[power][g], k + 1
        return k

    def order_profile(self) -> list[int]:
        return sorted(self.element_order(g) for g in range(self.order))

    def closure(self, gens) -> set[int]:
        members, work = {0}, [0]
        while work:
            a = work.pop()
            for g in gens:
                b = self.mult[a][g]
                if b not in members:
                    members.add(b)
                    work.append(b)
        return members


def _from_elements(name: str, elems: list, op) -> Group:
    """Table of a closed set of elements; ``elems[0]`` must be the identity."""
    index = {e: i for i, e in enumerate(elems)}
    return Group(name, [[index[op(a, b)] for b in elems] for a in elems])


def _perm_mul(p, q):
    # apply q, then p
    return tuple(p[i] for i in q)


def _perm_group(name: str, gens: list[tuple]) -> Group:
    ident = tuple(range(len(gens[0])))
    elems, work = {ident}, [ident]
    while work:
        a = work.pop()
        for g in gens:
            b = _perm_mul(a, g)
            if b not in elems:
                elems.add(b)
                work.append(b)
    return _from_elements(name, sorted(elems), _perm_mul)


def _quaternion() -> Group:
    # units +-1, +-i, +-j, +-k as (sign, letter); letter 0 is 1
    prod = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def op(a, b):
        s, l = prod[(a[1], b[1])]
        return (a[0] * b[0] * s, l)
    elems = [(1, 0)] + [(s, l) for s in (1, -1) for l in range(4)
                        if (s, l) != (1, 0)]
    return _from_elements("Q8", elems, op)


def group(name: str) -> Group:
    if name.startswith("Z"):
        n = int(name[1:])
        return Group(name, [[(a + b) % n for b in range(n)] for a in range(n)])
    if name in ("S3", "S4"):
        n = int(name[1])
        return _from_elements(name, sorted(permutations(range(n))), _perm_mul)
    if name == "D4":
        return _perm_group("D4", [(1, 2, 3, 0), (0, 3, 2, 1)])
    if name == "Q8":
        return _quaternion()
    raise ValueError(f"no table for group {name}")


# --- graphs and bundles ----------------------------------------------------------


GRAPHS = {
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (2, 0)]),
    "square": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "wedge2": (1, [(0, 0), (0, 0)]),
    "K4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
}


def random_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random spanning tree plus ``extra`` distinct non-tree edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    seen = {tuple(sorted(e)) for e in edges}
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and tuple(sorted((u, v))) not in seen:
            seen.add(tuple(sorted((u, v))))
            edges.append((u, v))
    return edges


class Bundle:
    """A dart-labelled graph with the benchmark's own group table."""

    def __init__(self, n: int, edges, grp: Group, labels):
        self.n, self.edges, self.grp = n, [tuple(e) for e in edges], grp
        self.labels = list(labels)

    @staticmethod
    def random(rng: random.Random, n: int, extra: int, grp: Group) -> "Bundle":
        edges = random_graph(rng, n, extra)
        return Bundle(n, edges, grp, [rng.randrange(grp.order) for _ in edges])

    def json(self) -> dict:
        return {"kind": "bundle",
                "graph": {"vertices": self.n,
                          "edges": [list(e) for e in self.edges]},
                "group": self.grp.json(), "labels": self.labels}

    def darts(self):
        """Yield ``(dart, src, tgt, label)``."""
        for e, (u, v) in enumerate(self.edges):
            g = self.labels[e]
            yield 2 * e, u, v, g
            yield 2 * e + 1, v, u, self.grp.inv[g]

    def normalized_cycle_labels(self) -> list[int]:
        """Labels of the non-tree edges after gauging a BFS tree at vertex 0
        to the identity (lowest-index neighbour first).  Two bundles over the
        same graph and group are gauge equivalent exactly when these lists are
        simultaneously conjugate."""
        grp, out = self.grp, {}
        for d, s, t, g in self.darts():
            out.setdefault(s, []).append((t, d, g))
        gauge = [None] * self.n
        gauge[0] = 0
        tree, queue = set(), [0]
        while queue:
            s = queue.pop(0)
            for t, d, g in sorted(out.get(s, [])):
                if gauge[t] is None:
                    gauge[t] = grp.mul(gauge[s], grp.inv[g])
                    tree.add(d // 2)
                    queue.append(t)
        if any(h is None for h in gauge):
            raise ValueError("graph is not connected")
        return [grp.mul(gauge[v], grp.mul(self.labels[e], grp.inv[gauge[u]]))
                for e, (u, v) in enumerate(self.edges) if e not in tree]

    def holonomy_order(self) -> int:
        return len(self.grp.closure(self.normalized_cycle_labels()))


def gauge_conjugation_equivalent(b1: Bundle, b2: Bundle) -> bool:
    if b1.n != b2.n or b1.edges != b2.edges or b1.grp.mult != b2.grp.mult:
        return False
    grp = b1.grp
    f1, f2 = b1.normalized_cycle_labels(), b2.normalized_cycle_labels()
    return any(all(grp.mul(grp.mul(grp.inv[h], x), h) == y
                   for x, y in zip(f1, f2))
               for h in range(grp.order))


def bundle_of_json(model: dict) -> Bundle:
    g = model["group"]
    if g.get("identity", 0) != 0:
        raise ValueError("bundle group identity is not 0")
    return Bundle(model["graph"]["vertices"], model["graph"]["edges"],
                  Group(g.get("name", ""), g["mult"]), model["labels"])


# --- the transitive groupoid in coordinates -----------------------------------------


class Transport:
    """Arrows ``(v, w, a)`` of the transitive groupoid on ``m`` objects over
    ``grp``, indexed units first (object ``x`` is arrow ``x``), then every
    other coordinate in lexicographic order.  This is the indexing that
    gpdflow documents for ``groupoid_of_bundle``."""

    def __init__(self, m: int, grp: Group):
        self.m, self.grp = m, grp
        n = grp.order
        self.coords = [(x, x, 0) for x in range(m)]
        self.coords += [(v, w, a) for v in range(m) for w in range(m)
                        for a in range(n) if not (v == w and a == 0)]
        self.index = {c: i for i, c in enumerate(self.coords)}
        self.out = [[] for _ in range(m)]
        for i, (v, _, _) in enumerate(self.coords):
            self.out[v].append(i)

    @property
    def n_arrows(self) -> int:
        return len(self.coords)

    def compose(self, g: int, h: int) -> int:
        v, w, a = self.coords[g]
        w2, z, b = self.coords[h]
        if w != w2:
            raise ValueError(f"arrows {g}, {h} not composable")
        return self.index[(v, z, self.grp.mul(a, b))]

    def inverse(self, g: int) -> int:
        v, w, a = self.coords[g]
        return self.index[(w, v, self.grp.inv[a])]

    def comp_count(self) -> int:
        """Composable pairs: the sum over objects of in-degree times out-degree."""
        into = [0] * self.m
        for _, w, _ in self.coords:
            into[w] += 1
        return sum(into[x] * len(self.out[x]) for x in range(self.m))

    def groupoid_json(self, connection=None) -> dict:
        comp = [[g, h, self.compose(g, h)]
                for g in range(self.n_arrows)
                for h in self.out[self.coords[g][1]]]
        out = {"kind": "groupoid", "objects": self.m, "arrows": self.n_arrows,
               "src": [c[0] for c in self.coords],
               "tgt": [c[1] for c in self.coords],
               "unit": list(range(self.m)),
               "inv": [self.inverse(g) for g in range(self.n_arrows)],
               "comp": comp}
        if connection is not None:
            out["connection"] = [[d, a] for d, a in enumerate(connection)]
        return out

    def ambit_json(self, x0: int = 0) -> dict:
        """The arrows out of ``x0`` acted on by right composition."""
        points = self.out[x0]
        pos = {p: i for i, p in enumerate(points)}
        act = [[i, g, pos[self.compose(p, g)]]
               for i, p in enumerate(points)
               for g in self.out[self.coords[p][1]]]
        return {"kind": "action", "groupoid": self.groupoid_json(),
                "space": len(points),
                "anchor": [self.coords[p][1] for p in points], "act": act}


def transport_connection(t: Transport, b: Bundle) -> list[int]:
    """The dart-transport connection: dart ``d`` is ``(dsrc, dtgt, label^-1)``."""
    return [t.index[(s, d_t, b.grp.inv[g])] for _, s, d_t, g in b.darts()]


# --- recomputing a broken law from a mutated table ----------------------------------


def groupoid_law_broken(model: dict, failure: str, witness) -> bool:
    """Whether ``witness`` really breaks the law named ``failure`` in the
    (mutated) groupoid model, recomputed from its own tables."""
    comp = {(g, h): gh for g, h, gh in model["comp"]}
    src, tgt, unit, inv = model["src"], model["tgt"], model["unit"], model["inv"]
    if failure == "associativity":
        x, y, z = witness
        return comp[(comp[(x, y)], z)] != comp[(x, comp[(y, z)])]
    if failure == "unit law":
        (a,) = witness
        return (comp.get((unit[src[a]], a)) != a
                or comp.get((a, unit[tgt[a]])) != a)
    if failure == "inverse law":
        (a,) = witness
        return (inv[inv[a]] != a
                or (src[inv[a]], tgt[inv[a]]) != (tgt[a], src[a])
                or comp.get((a, inv[a])) != unit[src[a]]
                or comp.get((inv[a], a)) != unit[tgt[a]])
    return False


def action_law_broken(model: dict, failure: str, witness) -> bool:
    gpd = model["groupoid"]
    comp = {(g, h): gh for g, h, gh in gpd["comp"]}
    act = {(y, g): z for y, g, z in model["act"]}
    if failure == "action associativity":
        y, g, h = witness
        return act[(act[(y, g)], h)] != act[(y, comp[(g, h)])]
    if failure == "action unit law":
        (y,) = witness
        return act[(y, gpd["unit"][model["anchor"][y]])] != y
    return False


def group_law_broken(model: dict, failure: str, witness) -> bool:
    table = model["mult"]
    full = list(range(len(table)))
    if failure.startswith("row ") and failure.endswith(" not a permutation"):
        return sorted(table[witness[0]]) != full
    if failure.startswith("column ") and failure.endswith(" not a permutation"):
        return sorted(row[witness[0]] for row in table) != full
    if failure == "associativity":
        a, b, c = witness
        return table[table[a][b]][c] != table[a][table[b][c]]
    return False


def group_axioms_hold(table: list[list[int]]) -> bool:
    """Identity 0, closure, associativity and inverses, by exhaustive scan."""
    n = len(table)
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
        return False
    if any(table[0][a] != a or table[a][0] != a for a in range(n)):
        return False
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return False
    return all(0 in row for row in table)
