"""Finite group arithmetic on explicit multiplication tables.

Groups are extensional: elements are the indices ``0..n-1``, the product is
an ``n x n`` table, and every axiom is decided by exhaustive scan.  Searches
return the lowest-index solution so that results are reproducible run to run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .diagnostics import Diagnostics, Refused

__all__ = [
    "FiniteGroup",
    "PRESET_NAMES",
    "verify_group",
    "preset_group",
    "generated_subgroup",
    "are_conjugate_subgroup_maps",
    "element_order",
    "find_group_isomorphism",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A group on ``0..order-1``: its table ``mult``, kept as a tuple of
    tuples, and ``identity``, from which ``order`` and the inverses ``inv``
    are read.  A table that fails :func:`verify_group` is refused when it
    is built, and an element outside ``range(order)`` given to a method."""

    mult: tuple[tuple[int, ...], ...]
    identity: int
    name: str = ""
    order: int = field(init=False)
    inv: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        mult = tuple(tuple(row) for row in self.mult)
        _law_scan(mult, self.identity).require("not a group")
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "order", len(mult))
        object.__setattr__(self, "inv",
                           tuple(row.index(self.identity) for row in mult))

    def mul(self, a: int, b: int) -> int:
        return self.mult[_index("a", a, self.order)][_index("b", b, self.order)]

    def inverse(self, a: int) -> int:
        return self.inv[_index("a", a, self.order)]

    @property
    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, h: int) -> int:
        """Return ``h^-1 * g * h``."""
        g, h = _index("g", g, self.order), _index("h", h, self.order)
        return self.mult[self.mult[self.inv[h]][g]][h]


def _index(name: str, i: int, n: int) -> int:
    """``i``, refused unless it lies in ``range(n)`` with the package's one
    index refusal, ``ValueError("<name> = <i> outside range(<n>)")``.  Every
    public index argument is checked here, under its own name (an entry of
    a list argument as ``name[k]``), by the function its caller called."""
    if not 0 <= i < n:
        raise ValueError(f"{name} = {i} outside range({n})")
    return i


def verify_group(table: Sequence[Sequence[int]], identity: int,
                 name: str = "") -> tuple[Diagnostics, Optional[FiniteGroup]]:
    """The verdict of building ``FiniteGroup(table, identity, name)``, and
    the group when it is built: the one law scan runs once."""
    try:
        group = FiniteGroup(table, identity, name)
    except Refused as refused:
        return refused.verdict, None
    return Diagnostics.passed(order=group.order), group


def _law_scan(table: tuple[tuple[int, ...], ...], e: int) -> Diagnostics:
    """Check the group axioms on ``table`` by exhaustive scan.

    Checks run in a fixed order and stop at the first violation: shape and
    index range (structural), identity laws, each row and column being a
    permutation, and associativity over all triples.  A table that passes
    is a monoid whose rows are permutations, where the right inverse of
    ``a``, read off row ``a``, is two-sided, so no inverse check is left.
    """
    n = len(table)
    if n == 0:
        return Diagnostics.failed("empty table", (), structural=True)
    for i, row in enumerate(table):
        if len(row) != n:
            return Diagnostics.failed(
                "table not square", (i, len(row), n), structural=True)
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                return Diagnostics.failed(
                    "entry out of range", (i, j, v), structural=True)
    if not (0 <= e < n):
        return Diagnostics.failed(
            "identity out of range", (e,), structural=True)

    for a in range(n):
        if table[e][a] != a:
            return Diagnostics.failed("identity law", (e, a, table[e][a]))
        if table[a][e] != a:
            return Diagnostics.failed("identity law", (a, e, table[a][e]))

    full = list(range(n))
    for i in range(n):
        if sorted(table[i]) != full:
            return Diagnostics.failed("row %d not a permutation" % i, (i,))
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != full:
            return Diagnostics.failed("column %d not a permutation" % j, (j,))

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return Diagnostics.failed("associativity", (a, b, c))
    return Diagnostics.passed(order=n)


# --- preset tables ------------------------------------------------------

def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # product p*q acts by "apply q first, then p"
    return tuple(p[q[i]] for i in range(len(p)))


def _table_from_perms(perms: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[_perm_compose(p, q)] for q in perms] for p in perms]


def _symmetric_table(n: int) -> list[list[int]]:
    # permutations in lexicographic order; the identity comes first
    return _table_from_perms(sorted(permutations(range(n))))


def _dihedral4_table() -> list[list[int]]:
    # symmetries of the square as vertex permutations; elements are
    # r^0..r^3 then r^0 s..r^3 s with r the rotation i -> i+1, s the
    # reflection i -> -i
    s = tuple((-i) % 4 for i in range(4))
    rotations = [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
    return _table_from_perms(rotations
                             + [_perm_compose(r, s) for r in rotations])


def _quaternion_table() -> list[list[int]]:
    # elements 1, i, j, k, -1, -i, -j, -k indexed as 4*sign + letter
    letter = [
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(1, 0), (0, 1), (3, 0), (2, 1)],
        [(2, 0), (3, 1), (0, 1), (1, 0)],
        [(3, 0), (2, 0), (1, 1), (0, 1)],
    ]
    def product(a: int, b: int) -> int:
        (sa, la), (sb, lb) = divmod(a, 4), divmod(b, 4)
        lc, flip = letter[la][lb]
        return 4 * (sa ^ sb ^ flip) + lc
    return [[product(a, b) for b in range(8)] for a in range(8)]


_PRESET_BUILDERS = {
    "Z1": lambda: _cyclic_table(1),
    "Z2": lambda: _cyclic_table(2),
    "Z3": lambda: _cyclic_table(3),
    "Z4": lambda: _cyclic_table(4),
    "Z6": lambda: _cyclic_table(6),
    "S3": lambda: _symmetric_table(3),
    "D4": _dihedral4_table,
    "Q8": _quaternion_table,
    "S4": lambda: _symmetric_table(4),
}

PRESET_NAMES: tuple[str, ...] = tuple(_PRESET_BUILDERS)


@lru_cache(maxsize=None)
def preset_group(name: str) -> FiniteGroup:
    """Return one of the named stock groups, verified, with identity 0."""
    if name not in _PRESET_BUILDERS:
        raise ValueError(f"unknown preset group {name!r}; choices: {', '.join(PRESET_NAMES)}")
    diag, group = verify_group(_PRESET_BUILDERS[name](), identity=0, name=name)
    diag.require(f"preset {name} failed verification")
    return group


# --- derived constructions ----------------------------------------------

def generated_subgroup(group: FiniteGroup, generators: Sequence[int]) -> list[int]:
    """Return the sorted closure of ``generators`` under product and inverse.

    The empty generating set yields the trivial subgroup.
    """
    for i, g in enumerate(generators):
        _index(f"generators[{i}]", g, group.order)
    members = {group.identity}
    work = [group.identity]
    gens = sorted(set(generators) | {group.inv[g] for g in generators})
    while work:
        a = work.pop()
        for g in gens:
            for b in (group.mul(a, g), group.mul(g, a)):
                if b not in members:
                    members.add(b)
                    work.append(b)
    return sorted(members)


def are_conjugate_subgroup_maps(group: FiniteGroup, f1: Sequence[int],
                                f2: Sequence[int]) -> Optional[int]:
    """Find ``h`` with ``h^-1 * f1[i] * h == f2[i]`` for every position ``i``.

    The search is exhaustive over the whole group and returns the lowest such
    ``h``, or ``None`` when the tuples are not simultaneously conjugate.
    """
    if len(f1) != len(f2):
        raise ValueError(f"length mismatch: {len(f1)} vs {len(f2)}")
    for name, seq in (("f1", f1), ("f2", f2)):
        for i, g in enumerate(seq):
            _index(f"{name}[{i}]", g, group.order)
    for h in group.elements:
        if all(group.conjugate(g1, h) == g2 for g1, g2 in zip(f1, f2)):
            return h
    return None


def element_order(group: FiniteGroup, g: int) -> int:
    """Smallest k >= 1 with g^k = identity, sought up to k = ``order``."""
    power = _index("g", g, group.order)
    for k in group.elements:
        if power == group.identity:
            return k + 1
        power = group.mul(power, g)
    raise ValueError(f"element {g} has no order up to {group.order}")


def find_group_isomorphism(g1: FiniteGroup,
                           g2: FiniteGroup) -> Optional[list[int]]:
    """Search for an isomorphism ``g1 -> g2`` one generator at a time.

    The generators are ``s1 < s2 < ...``, each the least element outside
    the subgroup the earlier ones generate.  Each ``si`` tries the unused
    images of its element order in ascending order, and each choice is
    carried along every product of the subgroup generated so far.  Every
    element below ``s(i+1)`` lies in the subgroup of ``s1 ... si``, so two
    maps first differ at a generator and the result is the lexicographically
    least isomorphism; ``None`` means no isomorphism exists.
    """
    n = g1.order
    if n != g2.order:
        return None
    ord1 = [element_order(g1, g) for g in g1.elements]
    ord2 = [element_order(g2, g) for g in g2.elements]
    if sorted(ord1) != sorted(ord2):
        return None
    gens: list[int] = []
    span = [g1.identity]
    while len(span) < n:
        gens.append(next(g for g in g1.elements if g not in span))
        span = generated_subgroup(g1, gens)

    def search(image: list[int], s: int, t: int,
               i: int) -> Optional[list[int]]:
        """A fresh copy of ``image`` with ``s -> t``, carried along every
        product of a mapped element and one of the first ``i`` generators,
        then extended over the rest: the first isomorphism found, or None."""
        image = list(image)
        image[s] = t
        mapped = [x for x in g1.elements if image[x] >= 0]
        for x in mapped:
            for g in gens[:i]:
                y, want = g1.mul(x, g), g2.mul(image[x], image[g])
                if image[y] < 0 and want not in image:
                    image[y] = want
                    mapped.append(y)
                elif image[y] != want:  # a different or a used image
                    return None
        if i == len(gens):
            return image
        for t in g2.elements:
            if ord2[t] == ord1[gens[i]] and t not in image:
                found = search(image, gens[i], t, i + 1)
                if found is not None:
                    return found
        return None

    return search([-1] * n, g1.identity, g2.identity, 0)
