"""Finite groupoids with explicit partial composition tables.

Objects and arrows are indices.  Composition follows the left-to-right
convention: ``comp(g, h)`` is defined exactly when ``tgt(g) == src(h)``, and
then ``src(gh) == src(g)`` and ``tgt(gh) == tgt(h)``.  Units absorb on both
sides (``comp(unit(src(g)), g) == g == comp(g, unit(tgt(g)))``) and inverses
satisfy ``comp(g, inv(g)) == unit(src(g))`` and ``comp(inv(g), g) ==
unit(tgt(g))``.

The composition table is stored explicitly, never recomputed on demand, as
the groupoid's right action on its own arrows (the regular action: an arrow
is anchored at its target).  Every action in this package is a table of
rows: row ``y`` holds ``y . h`` for each ``h`` in ``arrows_from(anchor[y])``
in ascending order, so ``y . h`` is ``val[row_off[y] + out_pos[h]]``.  A
table built from triples carries its first flaw (an entry out of range, off
the composable domain, duplicated, or missing) for verification to report.
A groupoid is *normalized* when ``unit(x) == x`` for every object;
constructors in this package produce normalized groupoids and
``normalize_groupoid`` reindexes arbitrary input.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import FiniteGroup, verify_group
from .diagnostics import Diagnostics

__all__ = [
    "Groupoid",
    "RowTable",
    "HomSet",
    "VertexGroupIso",
    "LocalTriviality",
    "verify_groupoid",
    "is_transitive",
    "hom_set",
    "vertex_group",
    "vertex_groups_isomorphic",
    "check_local_triviality",
    "verify_groupoid_iso",
    "normalize_groupoid",
    "one_object_groupoid",
    "pair_groupoid",
    "disjoint_union",
]

CompTable = Union[Mapping[tuple[int, int], int], Iterable[Sequence[int]]]
_BLOCK = 1 << 16  # table entries read at a time by RowTable.row_blocks


class RowTable:
    """A right action of a groupoid on points, stored as rows: row ``y``
    starts at ``row_off[y]`` in ``val`` and holds ``y . h`` for each ``h``
    in ``gpd.arrows_from(anchor[y])`` in ascending order (-1 where a table
    built from triples had no entry).  Subclasses provide ``gpd``,
    ``anchor``, ``row_off``, ``val`` and ``flaw``: :class:`Groupoid` is its
    own regular action, ``GroupoidAction`` the general case.
    """

    def move_many(self, ys, hs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``y . h``; returns ``(values, defined_mask)`` with -1
        where a pair is not defined."""
        gpd = self.gpd
        ys = np.asarray(ys, dtype=np.int64)
        hs = np.asarray(hs, dtype=np.int64)
        ok = self.anchor[ys] == gpd.src[hs]
        at = np.where(ok, self.row_off[ys] + gpd.out_pos[hs], 0)
        out = np.where(ok, self.val[at], -1) if self.val.size \
            else np.full(at.shape, -1, dtype=np.int64)
        return out, out >= 0

    def _lookup(self, y: int, h: int) -> int:
        gpd = self.gpd
        if not (0 <= y < self.anchor.shape[0] and 0 <= h < gpd.n_arrows) \
                or self.anchor[y] != gpd.src[h]:
            return -1
        return int(self.val[self.row_off[y] + gpd.out_pos[h]])

    def move(self, y: int, h: int) -> int:
        z = self._lookup(y, h)
        if z < 0:
            raise ValueError(f"move ({y}, {h}) is not defined")
        return z

    def defined(self, y: int, h: int) -> bool:
        return self._lookup(y, h) >= 0

    def row(self, y: int) -> np.ndarray:
        """``y . h`` for each ``h`` out of ``anchor[y]``, ascending in ``h``."""
        return self.val[self.row_off[y]:self.row_off[y + 1]]

    def triple_array(self) -> np.ndarray:
        """Every defined entry as a row ``[y, h, y . h]`` of an ``(n, 3)``
        int64 array, in row order (for a groupoid: every composition
        ``[g, h, gh]``, lexicographically), filled a block at a time."""
        out = np.empty((int(np.count_nonzero(self.val >= 0)), 3), np.int64)
        at = 0
        for block in self.row_blocks():
            rows = np.column_stack(block)[block[2] >= 0]
            out[at:at + len(rows)] = rows
            at += len(rows)
        return out

    def triples(self) -> list[list[int]]:
        """:meth:`triple_array` as python lists."""
        return self.triple_array().tolist()

    def row_blocks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """``(ys, hs, values)`` for a block of rows, block after block in row
        order: the pair ``(y, h)`` behind each entry of ``val`` and the
        entry.  A block holds about ``_BLOCK`` entries (a longer row is one
        alone), so no index array spans the whole table."""
        order, start, _ = self.gpd.out_index
        lo, off = 0, self.row_off
        while lo < self.anchor.shape[0]:
            hi = max(lo + 1, int(np.searchsorted(off, off[lo] + _BLOCK,
                                                 "right")) - 1)
            ys = np.repeat(np.arange(lo, hi), np.diff(off[lo:hi + 1]))
            hs = order[start[self.anchor[ys]] + np.arange(off[lo], off[hi])
                       - off[ys]]
            yield ys, hs, self.val[off[lo]:off[hi]]
            lo = hi

    def first_entry(self, bad) -> Optional[tuple[int, int, int]]:
        """The first ``(y, h, y . h)`` in row order for which ``bad(ys, hs,
        values)`` holds on a block from :meth:`row_blocks`, or None."""
        for block in self.row_blocks():
            hit = bad(*block)
            if bool(hit.any()):
                i = int(np.argmax(hit))
                return tuple(int(c[i]) for c in block)
        return None

    def pairs_at(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair ``(y, h)`` behind each of the positions ``pos`` of
        ``val``; each row is found by a binary search of ``row_off``."""
        order, start, _ = self.gpd.out_index
        ys = np.searchsorted(self.row_off, pos, "right") - 1
        return ys, order[start[self.anchor[ys]] + pos - self.row_off[ys]]

    def composable_triples(self) -> int:
        """The number of ``(y, g, h)`` with ``g`` out of ``anchor[y]`` and
        ``h`` out of ``tgt(g)``."""
        gpd = self.gpd
        out_deg = np.diff(gpd.out_index[1])
        per_object = np.bincount(gpd.src, weights=out_deg[gpd.tgt],
                                 minlength=gpd.n_objects).astype(np.int64)
        return int(per_object[self.anchor].sum())

    def _fill(self, triples) -> tuple[np.ndarray, ...]:
        """Lay out the rows for the anchor and place ``(y, h, y . h)``
        triples in them, ``_BLOCK`` triples at a time.  Returns the columns
        ``ys, hs, zs`` of the triples; masks of the triples whose point or
        arrow is out of range, whose value is out of range, that lie off the
        domain (``src(h) != anchor[y]``) and whose pair occurs more than
        once (every occurrence: when the first pass sees a repeat, two more
        passes mark the first occurrences too); and the mask of the table
        positions given an entry.  Besides ``val``, only these one-byte
        masks span the table: the range and domain checks, the positions
        and the writes are made a block at a time.
        """
        gpd, anchor = self.gpd, self.anchor
        t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        ys, hs, zs = t[:, 0], t[:, 1], t[:, 2]
        # row y has one entry per arrow out of anchor[y]
        self.row_off = np.concatenate(
            ([0], np.cumsum(np.diff(gpd.out_index[1])[anchor])))
        self.val = np.full(int(self.row_off[-1]), -1, dtype=np.int64)
        index, value, off, dup = (np.zeros(len(t), dtype=bool)
                                  for _ in range(4))
        seen = np.zeros(self.val.shape, dtype=bool)

        def blocks():
            """Per block: its slice, its triples on the domain and their
            positions in ``val``."""
            for lo in range(0, len(t), _BLOCK):
                at = slice(lo, lo + _BLOCK)
                y, h, z = ys[at], hs[at], zs[at]
                bad = index[at] = (y < 0) | (y >= anchor.shape[0]) \
                    | (h < 0) | (h >= gpd.n_arrows)
                value[at] = (z < 0) | (z >= anchor.shape[0])
                on = ~bad
                on[on] = anchor[y[on]] == gpd.src[h[on]]
                off[at] = ~(bad | on)
                yield at, on, self.row_off[y[on]] + gpd.out_pos[h[on]]

        for at, on, pos in blocks():
            # a pair placed before, in an earlier block or earlier in this one
            order = np.argsort(pos, kind="stable")
            ordered = pos[order]
            again = np.zeros(pos.shape, dtype=bool)
            again[order[1:]] = ordered[1:] == ordered[:-1]
            dup[at][on] = again | seen[pos]
            seen[pos] = True
            self.val[pos] = zs[at][on]
        if bool(dup.any()):  # mark the first occurrence of each repeat too
            twice = np.zeros_like(seen)
            for at, on, pos in blocks():
                twice[pos[dup[at][on]]] = True
            for at, on, pos in blocks():
                dup[at][on] = twice[pos]
        return ys, hs, zs, index, value, off, dup, seen

    def light_test(self) -> tuple[Optional[tuple[int, int, int]], int]:
        """Light's associativity test (Clifford & Preston, *The Algebraic
        Theory of Semigroups* I, 1961, §1.2): ``(y . b) . h == y . (b . h)``
        for every generator ``b``, point ``y`` over ``src(b)`` and arrow
        ``h`` out of ``tgt(b)``.  Returns the first failing ``(y, b, h)`` or
        None, and the number of generators.

        Passing proves the law for every middle arrow: the arrows that pass
        include the units (unit laws of the table and of the groupoid) and
        the generators, and are closed under composition, since for passing
        ``g1, g2``: ``(y . g1g2) . h == ((y . g1) . g2) . h
        == (y . g1) . (g2 . h) == y . (g1 . (g2 . h)) == y . (g1g2 . h)``,
        the last step being groupoid associativity with middle ``g2``; and
        every arrow is a product of generators.  On the regular action that
        step is the law itself for ``g2``; any other action needs the
        groupoid verified first.  Unit, domain, endpoint and anchor laws
        must hold already.
        """
        gpd = self.gpd
        gens = gpd.generators
        for b in gens:
            ys = np.flatnonzero(self.anchor == gpd.src[b])
            hs = gpd.arrows_from(int(gpd.tgt[b]))
            yb, _ = self.move_many(ys, np.full(ys.shape, b))
            bh, _ = gpd.try_compose_many(np.full(hs.shape, b), hs)
            left, _ = self.move_many(np.repeat(yb, hs.size),
                                     np.tile(hs, ys.size))
            right, _ = self.move_many(np.repeat(ys, hs.size),
                                      np.tile(bh, ys.size))
            miss = left != right
            if bool(miss.any()):
                i = int(np.argmax(miss))
                return (int(ys[i // hs.size]), b, int(hs[i % hs.size])), \
                    len(gens)
        return None, len(gens)


@dataclass(eq=False)
class Groupoid(RowTable):
    """A finite groupoid given by index arrays and its composition rows.

    The composition is the regular action: row ``g`` of ``val`` starts at
    ``row_off[g]`` and holds ``g . h`` for each ``h`` in
    ``arrows_from(tgt[g])`` in ascending order.  Use
    :func:`Groupoid.from_tables` to build from python dicts or triple lists.
    """

    n_objects: int
    src: np.ndarray
    tgt: np.ndarray
    unit: np.ndarray
    inv: np.ndarray
    row_off: np.ndarray
    val: np.ndarray
    flaw: Optional[Diagnostics] = None

    def __post_init__(self) -> None:
        for name in ("src", "tgt", "unit", "inv", "row_off", "val"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    @staticmethod
    def from_tables(n_objects: int, src: Sequence[int], tgt: Sequence[int],
                    unit: Sequence[int], inv: Sequence[int],
                    comp: CompTable) -> "Groupoid":
        if isinstance(comp, Mapping):
            comp = [(g, h, gh) for (g, h), gh in comp.items()]
        # until the scan passes: one empty row per arrow
        g = Groupoid(n_objects, src, tgt, unit, inv, [0] * (len(tgt) + 1), [])
        g.flaw = _structural_scan(g)
        if g.flaw is None:  # the arrays can index rows
            g.flaw = _comp_flaw(g, *g._fill(comp))
        return g

    # the regular action: arrows anchored at their targets
    @property
    def gpd(self) -> "Groupoid":
        return self

    @property
    def anchor(self) -> np.ndarray:
        return self.tgt

    @property
    def n_arrows(self) -> int:
        return int(self.src.shape[0])

    @property
    def n_comp_pairs(self) -> int:
        return int(self.row_off[-1])

    # --- composition lookups ---------------------------------------------

    try_compose_many = RowTable.move_many

    def compose(self, g: int, h: int) -> int:
        gh = self._lookup(g, h)
        if gh < 0:
            raise ValueError(f"arrows not composable: {g} then {h}")
        return gh

    def inverse(self, g: int) -> int:
        return int(self.inv[g])

    comp_triples = RowTable.triples

    @cached_property
    def generators(self) -> list[int]:
        """Greedy generating set: lowest missing arrow is adjoined until the
        right-multiplication closure of the units covers every arrow.  Read
        it only once the table is whole."""
        k = self.n_arrows
        in_span = np.zeros(k, dtype=bool)
        in_span[self.unit] = True
        gens: list[int] = []
        frontier = np.where(in_span)[0]
        while True:
            while frontier.size and gens:
                new_mask = np.zeros(k, dtype=bool)
                for s in gens:
                    vals, ok = self.try_compose_many(frontier,
                                                     np.full(frontier.shape, s))
                    new_mask[vals[ok]] = True
                new_mask &= ~in_span
                in_span |= new_mask
                frontier = np.where(new_mask)[0]
            rest = np.where(~in_span)[0]
            if not rest.size:
                return gens
            gens.append(int(rest[0]))
            in_span[rest[0]] = True
            frontier = np.where(in_span)[0]

    # --- index helpers -----------------------------------------------------

    @cached_property
    def out_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrows grouped by source, ``(order, start, pos)``:
        ``order[start[x]:start[x + 1]]`` is ``arrows_from(x)`` in ascending
        order, and ``pos`` is :attr:`out_pos`."""
        order = np.argsort(self.src, kind="stable")
        start = np.concatenate(
            ([0], np.cumsum(np.bincount(self.src, minlength=self.n_objects))))
        pos = np.empty(self.n_arrows, dtype=np.int64)
        pos[order] = np.arange(self.n_arrows) - start[self.src[order]]
        return order, start, pos

    @property
    def out_pos(self) -> np.ndarray:
        """``out_pos[h]`` is the place of ``h`` in ``arrows_from(src[h])``."""
        return self.out_index[2]

    def arrows_from(self, x: int) -> np.ndarray:
        order, start, _ = self.out_index
        return order[start[x]:start[x + 1]]

    def arrows_into(self, x: int) -> np.ndarray:
        return np.flatnonzero(self.tgt == x)

    def hom(self, x: int, y: int) -> list[int]:
        """Arrows from ``x`` to ``y`` in ascending index order."""
        return np.where((self.src == x) & (self.tgt == y))[0].tolist()

    def loops(self, x: int) -> list[int]:
        return self.hom(x, x)

    def is_normalized(self) -> bool:
        m = self.n_objects
        return bool(np.array_equal(self.unit, np.arange(m)))


def _comp_flaw(g: Groupoid, ys, hs, zs, index, value, off, dup, seen
               ) -> Optional[Diagnostics]:
    """The first flaw of a composition table, in ``(g, h)`` order: a pair
    out of range, a value out of range, a duplicate pair, a pair off the
    composable domain; then the first composable pair without an entry,
    by middle object, then ``g``, then ``h``."""
    k = g.n_arrows
    if bool(index.any()):
        return Diagnostics.failed("comp pair out of range",
                                  (int((ys[index] * k + hs[index]).min()),),
                                  structural=True)
    for mask, label, width in ((value, "comp value out of range", 3),
                               (dup, "duplicate comp pair", 2),
                               (off, "composability domain violated", 2)):
        if bool(mask.any()):
            at = np.flatnonzero(mask)
            i = int(at[np.argmin(ys[at] * k + hs[at])])
            return Diagnostics.failed(
                label, tuple(int(c[i]) for c in (ys, hs, zs)[:width]),
                structural=True)
    if not bool(seen.all()):
        gs, hs = g.pairs_at(np.flatnonzero(~seen))
        i = int(np.argmin(g.tgt[gs] * k + gs))
        return Diagnostics.failed(
            "composability domain violated", (int(gs[i]), int(hs[i])),
            structural=True, detail="missing entry on a composable pair")
    return None


# --- verification ---------------------------------------------------------

def _require_whole(*tables: RowTable) -> None:
    """Constructions read every row, so a table with a flaw is refused."""
    for t in tables:
        if t.flaw is not None:
            raise ValueError(f"table has a flaw: {t.flaw.failure} {t.flaw.witness}")


def _structural_scan(g: Groupoid) -> Optional[Diagnostics]:
    """Array shapes and index ranges, then the flaw the composition table
    was built with."""
    m, k = g.n_objects, g.n_arrows
    if m < 0 or k < 0:
        return Diagnostics.failed("negative size", (m, k), structural=True)
    if g.tgt.shape[0] != k or g.inv.shape[0] != k:
        return Diagnostics.failed(
            "array length mismatch", (k, int(g.tgt.shape[0]), int(g.inv.shape[0])),
            structural=True)
    if g.unit.shape[0] != m:
        return Diagnostics.failed(
            "array length mismatch", (m, int(g.unit.shape[0])), structural=True)
    for name, arr, bound in (("src", g.src, m), ("tgt", g.tgt, m),
                             ("unit", g.unit, k), ("inv", g.inv, k)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
            bad = int(np.argmax((arr < 0) | (arr >= bound)))
            return Diagnostics.failed(
                f"{name} index out of range", (bad, int(arr[bad])), structural=True)
    return g.flaw


def _endpoint_scan(g: Groupoid) -> Optional[Diagnostics]:
    """The first product ``gh``, in row order, that does not run from
    ``src(g)`` to ``tgt(h)``, read a block of rows at a time."""
    hit = g.first_entry(lambda gs, hs, val: (g.src[val] != g.src[gs])
                        | (g.tgt[val] != g.tgt[hs]))
    return None if hit is None else \
        Diagnostics.failed("composition endpoints", hit)


def _all_distinct(arr: np.ndarray) -> bool:
    """No value repeats; a sort and one comparison of neighbours, since
    ``np.unique`` imports ``numpy.ma`` on first use."""
    s = np.sort(arr)
    return not bool((s[1:] == s[:-1]).any())


def _unit_scan(g: Groupoid) -> Optional[Diagnostics]:
    m = g.n_objects
    xs = np.arange(m)
    u = g.unit
    misplaced = (g.src[u] != xs) | (g.tgt[u] != xs)
    if bool(misplaced.any()):
        x = int(np.argmax(misplaced))
        return Diagnostics.failed("unit law", (int(u[x]),),
                                  detail=f"unit of object {x} has wrong endpoints")
    if not _all_distinct(u):
        return Diagnostics.failed("unit law", tuple(np.sort(u).tolist()),
                                  detail="unit arrows not distinct")
    # every pair looked up from here on is composable, and the table is whole
    arrows = np.arange(g.n_arrows)
    for side, (gs, hs) in (("left", (u[g.src], arrows)),
                           ("right", (arrows, u[g.tgt]))):
        bad = g.try_compose_many(gs, hs)[0] != arrows
        if bool(bad.any()):
            return Diagnostics.failed("unit law", (int(np.argmax(bad)),),
                                      detail=f"{side} unit absorption")
    return None


def _inverse_scan(g: Groupoid) -> Optional[Diagnostics]:
    arrows = np.arange(g.n_arrows)
    flipped = (g.src[g.inv] != g.tgt) | (g.tgt[g.inv] != g.src)
    if bool(flipped.any()):
        return Diagnostics.failed("inverse law", (int(np.argmax(flipped)),),
                                  detail="inverse endpoints")
    if bool((g.inv[g.inv] != arrows).any()):
        return Diagnostics.failed(
            "inverse law", (int(np.argmax(g.inv[g.inv] != arrows)),),
            detail="inverse not involutive")
    for gs, hs, want, detail in (
            (arrows, g.inv, g.unit[g.src], "g . inv(g) != unit(src(g))"),
            (g.inv, arrows, g.unit[g.tgt], "inv(g) . g != unit(tgt(g))")):
        bad = g.try_compose_many(gs, hs)[0] != want
        if bool(bad.any()):
            return Diagnostics.failed("inverse law", (int(np.argmax(bad)),),
                                      detail=detail)
    return None


def verify_groupoid(g: Groupoid) -> Diagnostics:
    """Check every groupoid axiom, reporting the first violation in a fixed
    scan order: structure (array shapes and index ranges, then the flaw the
    composition table was built with), endpoints of products, unit laws,
    inverse laws, associativity.

    Associativity is Light's test on the regular action
    (:meth:`RowTable.light_test`): every arrow is checked as the middle of a
    triple through a generating set.
    """
    for scan in (_structural_scan, _endpoint_scan, _unit_scan, _inverse_scan):
        diag = scan(g)
        if diag is not None:
            return diag
    witness, n_gens = g.light_test()
    notes = {"assoc_strategy": "generated", "triples": g.composable_triples(),
             "generators": n_gens}
    if witness is not None:
        return Diagnostics.failed("associativity", witness, **notes)
    return Diagnostics.passed(objects=g.n_objects, arrows=g.n_arrows, **notes)


# --- transitivity and local structure --------------------------------------

def is_transitive(g: Groupoid) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether every ordered pair of objects is joined by an arrow; when not,
    the lexicographically first unjoined pair is the witness."""
    m = g.n_objects
    seen = np.zeros((m, m), dtype=bool)
    seen[g.src, g.tgt] = True
    if bool(seen.all()):
        return True, None
    flat = int(np.argmax(~seen))
    return False, (flat // m, flat % m)


@dataclass
class HomSet:
    """The arrows from ``source`` to ``target``; for a vertex group the
    induced multiplication table with the unit relabelled to 0."""

    source: int
    target: int
    arrows: list[int]
    group: Optional[FiniteGroup] = None

    def local_index(self, arrow: int) -> int:
        return self.arrows.index(arrow)


def hom_set(g: Groupoid, x: int, y: int) -> HomSet:
    return HomSet(source=x, target=y, arrows=g.hom(x, y))


def vertex_group(g: Groupoid, x: int) -> HomSet:
    """The loops at ``x`` as a verified group; the unit becomes element 0 and
    the remaining loops keep their ascending arrow order."""
    loops = g.loops(x)
    u = int(g.unit[x])
    if u not in loops:
        raise ValueError(f"unit of object {x} is not a loop at {x}")
    ordering = [u] + [a for a in loops if a != u]
    local = {a: i for i, a in enumerate(ordering)}
    table = [[local[g.compose(a, b)] for b in ordering] for a in ordering]
    diag, group = verify_group(table, identity=0)
    if group is None:
        raise ValueError(f"loops at object {x} do not form a group: {diag.failure}")
    return HomSet(source=x, target=x, arrows=ordering, group=group)


@dataclass
class VertexGroupIso:
    """Conjugation isomorphism between two vertex groups, induced by the
    lowest-index arrow joining the base objects."""

    source: int
    target: int
    via: int
    arrow_map: dict[int, int]
    local_map: list[int]


def vertex_groups_isomorphic(g: Groupoid, x: int, y: int) -> VertexGroupIso:
    """Conjugate ``G[x]`` onto ``G[y]`` by the lowest-index arrow ``a: x->y``
    (loop ``l`` maps to ``inv(a) . l . a``), verifying the result is a group
    isomorphism on the relabelled tables."""
    joining = g.hom(x, y)
    if not joining:
        raise ValueError(f"no arrow from {x} to {y}")
    a = joining[0]
    a_inv = g.inverse(a)
    gx, gy = vertex_group(g, x), vertex_group(g, y)
    arrow_map = {l: g.compose(g.compose(a_inv, l), a) for l in gx.arrows}
    if sorted(arrow_map.values()) != sorted(gy.arrows):
        raise ValueError(f"conjugation by {a} is not a bijection G[{x}] -> G[{y}]")
    local_map = [gy.local_index(arrow_map[gx.arrows[i]])
                 for i in range(len(gx.arrows))]
    for i in range(gx.group.order):
        for j in range(gx.group.order):
            if local_map[gx.group.mul(i, j)] != gy.group.mul(local_map[i], local_map[j]):
                raise ValueError(
                    f"conjugation by {a} does not preserve products at ({i}, {j})")
    return VertexGroupIso(source=x, target=y, via=a, arrow_map=arrow_map,
                          local_map=local_map)


@dataclass
class LocalTriviality:
    trivial: bool
    sections: Optional[dict[int, list[int]]]
    witness: Optional[tuple[int, int]]


def check_local_triviality(g: Groupoid) -> LocalTriviality:
    """For each basepoint ``x`` build the target section ``y -> lowest arrow
    x->y`` when it exists.  At finite discrete size this succeeds exactly
    when the groupoid is transitive; the traversal here is deliberately
    independent of :func:`is_transitive` so the two can be cross-checked.
    """
    sections: dict[int, list[int]] = {}
    src, tgt = g.src.tolist(), g.tgt.tolist()
    for x in range(g.n_objects):
        tau: list[int] = []
        for y in range(g.n_objects):
            pick = -1
            for arrow in range(g.n_arrows):
                if src[arrow] == x and tgt[arrow] == y:
                    pick = arrow
                    break
            if pick < 0:
                return LocalTriviality(trivial=False, sections=None, witness=(x, y))
            tau.append(pick)
        sections[x] = tau
    return LocalTriviality(trivial=True, sections=sections, witness=None)


def verify_groupoid_iso(g1: Groupoid, g2: Groupoid, obj_map: Sequence[int],
                        arr_map: Sequence[int]) -> Diagnostics:
    """Check that the pair of maps is a groupoid isomorphism: bijections that
    preserve src, tgt, unit, inverse, and every defined composition."""
    m, k = g1.n_objects, g1.n_arrows
    if len(obj_map) != m or len(arr_map) != k:
        return Diagnostics.failed(
            "map length mismatch", (len(obj_map), m, len(arr_map), k),
            structural=True)
    if g2.n_objects != m or g2.n_arrows != k:
        return Diagnostics.failed(
            "size mismatch", (m, g2.n_objects, k, g2.n_arrows), structural=True)
    om = np.asarray(obj_map, dtype=np.int64)
    am = np.asarray(arr_map, dtype=np.int64)
    for name, arr, bound in (("object", om, m), ("arrow", am, k)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
            return Diagnostics.failed(f"{name} map out of range",
                                      (int(arr.min()), int(arr.max())),
                                      structural=True)
        if not _all_distinct(arr):
            return Diagnostics.failed(f"{name} map not a bijection", (),
                                      structural=True)
    if bool((om[g1.src] != g2.src[am]).any()):
        bad = int(np.argmax(om[g1.src] != g2.src[am]))
        return Diagnostics.failed("src not preserved", (bad,))
    if bool((om[g1.tgt] != g2.tgt[am]).any()):
        bad = int(np.argmax(om[g1.tgt] != g2.tgt[am]))
        return Diagnostics.failed("tgt not preserved", (bad,))
    if bool((am[g1.unit] != g2.unit[om]).any()):
        bad = int(np.argmax(am[g1.unit] != g2.unit[om]))
        return Diagnostics.failed("unit not preserved", (bad,))
    if bool((am[g1.inv] != g2.inv[am]).any()):
        bad = int(np.argmax(am[g1.inv] != g2.inv[am]))
        return Diagnostics.failed("inverse not preserved", (bad,))
    # a missing entry reads -1, which would index the last arrow
    for g in (g1, g2):
        if g.flaw is not None:
            return g.flaw
    # with src and tgt preserved, both tables have the same rows
    hit = g1.first_entry(lambda gs, hs, val:
                         g2.try_compose_many(am[gs], am[hs])[0] != am[val])
    if hit is not None:
        return Diagnostics.failed("composition not preserved", hit[:2])
    return Diagnostics.passed()


# --- normalization and constructions ---------------------------------------

def normalize_groupoid(g: Groupoid) -> tuple[Groupoid, list[int]]:
    """Reindex arrows so that ``unit(x) == x``; non-unit arrows keep their
    relative order.  Returns the normalized groupoid and the map from old to
    new arrow indices.  The table must have no flaw."""
    _require_whole(g)
    m, k = g.n_objects, g.n_arrows
    if not _all_distinct(g.unit):
        raise ValueError("unit arrows are not distinct; cannot normalize")
    is_unit = np.zeros(k, dtype=bool)
    is_unit[g.unit] = True
    pm = np.empty(k, dtype=np.int64)
    pm[g.unit] = np.arange(m)
    pm[~is_unit] = np.arange(m, k)
    inv_pm = np.argsort(pm)
    out = Groupoid.from_tables(
        m, g.src[inv_pm], g.tgt[inv_pm], np.arange(m), pm[g.inv[inv_pm]],
        pm[g.triple_array()])
    return out, pm.tolist()


def one_object_groupoid(group: FiniteGroup) -> Groupoid:
    """The group as a groupoid with a single object; the identity element
    becomes the unit arrow 0."""
    n = group.order
    ordering = [group.identity] + [a for a in range(n) if a != group.identity]
    local = {a: i for i, a in enumerate(ordering)}
    comp = {(local[a], local[b]): local[group.mul(a, b)]
            for a in range(n) for b in range(n)}
    return Groupoid.from_tables(
        n_objects=1,
        src=[0] * n, tgt=[0] * n, unit=[0],
        inv=[local[group.inv[ordering[i]]] for i in range(n)],
        comp=comp)


def pair_groupoid(n: int) -> Groupoid:
    """Objects ``0..n-1`` with exactly one arrow between each ordered pair."""
    if n <= 0:
        raise ValueError("pair groupoid needs at least one object")
    pairs = [(x, x) for x in range(n)]
    pairs += [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {p: i for i, p in enumerate(pairs)}
    comp = {}
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c:
                comp[(index[(a, b)], index[(c, d)])] = index[(a, d)]
    return Groupoid.from_tables(
        n_objects=n,
        src=[p[0] for p in pairs], tgt=[p[1] for p in pairs],
        unit=list(range(n)),
        inv=[index[(b, a)] for (a, b) in pairs],
        comp=comp)


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Place two groupoids side by side (object and arrow indices of the
    second are shifted), row tables and all.  The result is not transitive
    when both parts are nonempty, and not normalized in general."""
    _require_whole(g1, g2)
    m1, k1 = g1.n_objects, g1.n_arrows
    return Groupoid(
        n_objects=m1 + g2.n_objects,
        src=np.concatenate([g1.src, g2.src + m1]),
        tgt=np.concatenate([g1.tgt, g2.tgt + m1]),
        unit=np.concatenate([g1.unit, g2.unit + k1]),
        inv=np.concatenate([g1.inv, g2.inv + k1]),
        row_off=np.concatenate([g1.row_off[:-1], g2.row_off + g1.row_off[-1]]),
        val=np.concatenate([g1.val, g2.val + k1]))
