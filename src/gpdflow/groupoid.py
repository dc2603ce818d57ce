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
table takes only its arrays: its sizes are their lengths, and ``row_off``
is the layout its anchor implies.  Its first structural flaw is found from
its arrays alone, once, as ``flaw``, when it is built (a table is not
changed once built).  A verifier reports it, and a reader of the rows or
the index arrays refuses the table.  A flaw of the index arrays, which
keeps them from indexing rows, comes first (for an action: its groupoid's
flaw, else its anchor's).  Then a table filled from triples carries the
fill's flaw, by one policy for both kinds of table: a point or arrow out
of range, a value out of range, a pair given twice, a pair off the
composable domain, each at its least ``(y, h)``; then the first pair in
row order with no entry.  A table built directly from its rows carries a
``val`` whose length is not the layout's end, else the first value out of
range, else the first hole.
A groupoid is *normalized* when ``unit(x) == x`` for every object;
constructors in this package produce normalized groupoids and
``normalize_groupoid`` reindexes arbitrary input.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, \
    Union

import numpy as np

from .algebra import FiniteGroup, _index, verify_group
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

# a dict, triples whole, or a block source (see RowTable._fill)
CompTable = Union[Mapping[tuple[int, int], int], Iterable[Sequence[int]],
                  Callable[[], Iterator[np.ndarray]]]
# table entries, or rows of an array, read at a time: about the rows of
# canonical text one serialize._CHUNK (64 KB) load window holds, so that
# reading, checking and writing a table hold the temporaries the fill does
_BLOCK = 1 << 12


def blocks_of(rows) -> Iterator:
    """Slices of ``rows`` (an array or a list), ``_BLOCK`` rows at a time."""
    return (rows[lo:lo + _BLOCK] for lo in range(0, len(rows), _BLOCK))


def _bounds(val: np.ndarray) -> tuple[int, int]:
    """The least and greatest of the values, ``(0, 0)`` for none."""
    return (int(val.min()), int(val.max())) if val.size else (0, 0)


def val_width(n_points: int, n_arrows: int) -> type:
    """The dtype of a row table's values: int16 when its points and its
    groupoid's arrows are both fewer than ``2**15``, so that every value,
    the hole marker -1 and every row's length fit, else int32."""
    return np.int16 if max(n_points, n_arrows) < 1 << 15 else np.int32


class RowTable:
    """A right action of a groupoid on points, stored as rows: row ``y``
    starts at ``row_off[y]`` in ``val`` and holds ``y . h`` for each ``h``
    in ``gpd.arrows_from(anchor[y])`` in ascending order (-1 where a table
    built from triples had no entry).  Subclasses provide ``gpd``,
    ``anchor`` and ``val``; ``_index_flaw``, the structural flaw that keeps
    their arrays from indexing rows, or None; and ``_FLAW_LABELS``, their
    names for an index, a value out of range and a repeated pair.
    ``row_off``, the anchor's layout (all zeros under an index flaw, when
    no row is read), and ``flaw`` are set once, when the table is built, in
    the order the module docstring gives.  :class:`Groupoid` is its own
    regular action, ``GroupoidAction`` the general case.
    """

    def __post_init__(self) -> None:
        # every value is below 2**30; readers widen before key arithmetic.
        # Values are narrowed to val_width only when they fit, so that one
        # out of range keeps int32 and reads as itself
        val = np.asarray(self.val)
        lo, hi = _bounds(val)
        width = val_width(len(self.anchor), self.gpd.n_arrows)
        if not np.iinfo(width).min <= lo <= hi <= np.iinfo(width).max:
            width = np.int32
        self.val = val.astype(width, copy=False)
        self.flaw = self._index_flaw()
        # the anchor's layout: row y has one entry per arrow out of anchor[y]
        self.row_off = np.zeros(len(self.anchor) + 1, dtype=np.int64)
        if self.flaw is None:
            self.row_off[1:] = np.cumsum(
                np.diff(self.gpd.out_index[1])[self.anchor])
            if len(val) != self.row_off[-1]:
                self.flaw = Diagnostics.failed(
                    "row offsets off the anchor's layout", (len(self.anchor),),
                    structural=True)
        if self.flaw is None:
            self.flaw = self._value_flaw(val, lo, hi)

    def _value_flaw(self, val: np.ndarray, lo: int, hi: int
                    ) -> Optional[Diagnostics]:
        """The fill's flaw for the values ``val``, laid out in rows, whose
        least and greatest are ``lo`` and ``hi``: a value out of range at
        the first ``(y, h, value)`` in row order with a value outside ``[-1,
        n_points)``, else a missing entry at the first ``-1``, else None."""
        n = len(self.anchor)
        if not val.size or lo >= 0 and hi < n:
            return None
        out = lo < -1 or hi >= n
        pos = np.argmax((val < -1) | (val >= n)) if out else np.argmin(val)
        ys, hs = self.pairs_at(pos[None])
        hit = (int(ys[0]), int(hs[0]), int(val[pos]))
        if out:
            return Diagnostics.failed(self._FLAW_LABELS[1], hit,
                                      structural=True)
        return Diagnostics.failed(
            "composability domain violated", hit[:2], structural=True,
            detail="missing entry on a composable pair")

    def move_many(self, ys, hs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``y . h``; returns ``(values, defined_mask)`` with -1
        where a pair is not defined."""
        gpd = self.gpd
        ys = np.asarray(ys, dtype=np.int64)
        hs = np.asarray(hs, dtype=np.int64)
        n, k = self.anchor.shape[0], gpd.n_arrows
        # out of range is undefined, as in _lookup; read as unsigned, a
        # negative index is past every bound, so one max per array decides
        if ys.size and hs.size and (ys.view(np.uint64).max() >= n
                                    or hs.view(np.uint64).max() >= k):
            ys, hs = np.broadcast_arrays(ys, hs)
            inside = (ys >= 0) & (ys < n) & (hs >= 0) & (hs < k)
            out = np.full(ys.shape, -1, dtype=np.int64)
            out[inside] = self.move_many(ys[inside], hs[inside])[0]
            return out, out >= 0
        ok = self.anchor[ys] == gpd.src[hs]
        at = np.where(ok, self.row_off[ys] + gpd.out_pos[hs], 0)
        # int64, as the arguments are, whatever the dtype of val
        out = np.where(ok, self.val[at], np.int64(-1)) if self.val.size \
            else np.full(at.shape, -1, dtype=np.int64)
        return out, out >= 0

    def _at(self, ys, hs) -> np.ndarray:
        """``y . h`` read from the rows, unchecked: each pair is defined."""
        return self.val[self.row_off[ys] + self.gpd.out_pos[hs]]

    def _lookup(self, y: int, h: int) -> int:
        gpd = self.gpd
        if not (0 <= y < self.anchor.shape[0] and 0 <= h < gpd.n_arrows) \
                or self.anchor[y] != gpd.src[h]:
            return -1
        return int(self._at(y, h))

    def move(self, y: int, h: int) -> int:
        z = self._lookup(y, h)
        if z < 0:
            raise ValueError(f"move ({y}, {h}) is not defined")
        return z

    def defined(self, y: int, h: int) -> bool:
        return self._lookup(y, h) >= 0

    def row(self, y: int) -> np.ndarray:
        """``y . h`` for each ``h`` out of ``anchor[y]``, ascending in ``h``."""
        y = _index("y", y, self.anchor.shape[0])
        return self.val[self.row_off[y]:self.row_off[y + 1]]

    def triple_array(self) -> np.ndarray:
        """Every defined entry as a row ``[y, h, y . h]`` of an ``(n, 3)``
        int64 array, in row order (for a groupoid: every composition
        ``[g, h, gh]``, lexicographically), copied from :meth:`row_blocks`
        a block at a time."""
        out = np.empty((int(np.count_nonzero(self.val >= 0)), 3), np.int64)
        at = 0
        for rows in self.row_blocks():
            out[at:at + len(rows)] = rows
            at += len(rows)
        return out

    def triples(self) -> list[list[int]]:
        """:meth:`triple_array` as python lists."""
        return self.triple_array().tolist()

    def row_blocks(self) -> Iterator[np.ndarray]:
        """The defined entries of a block of rows as the ``[y, h, y . h]``
        rows of a ``(k, 3)`` int64 array, block after block in row order: a
        block source for :meth:`_fill`.  A block covers about ``_BLOCK``
        entries of ``val`` (a longer row is one alone), so no index array
        spans the whole table; it is built as three rows and transposed,
        and a hole is dropped only in a block that has one."""
        order, start, _ = self.gpd.out_index
        lo, off = 0, self.row_off
        while lo < self.anchor.shape[0]:
            hi = max(lo + 1, int(np.searchsorted(off, off[lo] + _BLOCK,
                                                 "right")) - 1)
            ys = np.repeat(np.arange(lo, hi), np.diff(off[lo:hi + 1]))
            hs = order[start[self.anchor[ys]] + np.arange(off[lo], off[hi])
                       - off[ys]]
            block = np.array((ys, hs, self.val[off[lo]:off[hi]]), np.int64)
            if not bool((block[2] >= 0).all()):
                block = block[:, block[2] >= 0]
            yield block.T
            lo = hi

    def first_entry(self, bad) -> Optional[tuple[int, int, int]]:
        """The first ``(y, h, y . h)`` in row order for which ``bad(ys, hs,
        values)`` holds, read as ``bad(*block.T)`` on each block of
        :meth:`row_blocks`, or None."""
        for block in self.row_blocks():
            hit = bad(*block.T)
            if bool(hit.any()):
                return tuple(map(int, block[int(np.argmax(hit))]))
        return None

    def map_flaw(self, target: "RowTable", point_map: np.ndarray,
                 arrow_map: np.ndarray, failure: str) -> Optional[Diagnostics]:
        """A ``failure`` verdict at the first ``(y, h)``, in row order, where
        ``point_map[y . h]`` is not ``point_map[y] . arrow_map[h]`` in
        ``target``, else None.  The callers have read each table's ``flaw``,
        set when it was built (a hole reads -1, which would index the last
        entry); the maps must already carry anchors and sources along."""
        hit = self.first_entry(lambda ys, hs, val: target._at(
            point_map[ys], arrow_map[hs]) != point_map[val])
        return None if hit is None else Diagnostics.failed(failure, hit[:2])

    def _filled(self, triples) -> "RowTable":
        """This table, built with empty rows, filled by :meth:`_fill`
        unless its index arrays have a flaw; its flaw is theirs, else the
        fill's."""
        self.flaw = self._index_flaw()
        if self.flaw is None:
            self.flaw = self._fill(triples)
        return self

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

    def _fill(self, triples) -> Optional[Diagnostics]:
        """Lay out the rows for the anchor and place ``(y, h, y . h)``
        triples in them, a block at a time, in one pass.  ``triples`` is a
        block source, a function that gives them as ``(k, 3)`` integer
        arrays one block after another each time it is called, or the
        triples whole, read :func:`blocks_of` them.  Each block is widened
        to int64 before any arithmetic.

        Returns the table's first flaw, or None.  The kinds are checked in
        this order: a point or arrow out of range, a value out of range, a
        pair given twice, a pair off the domain (``src(h) != anchor[y]``);
        within a kind the witness is the least ``(y, h)``, the earlier
        triple on a tie, kept as a running least per kind over the blocks.
        Then the first pair in row order that has no entry.  Every flaw is
        structural, labelled by the class's ``_FLAW_LABELS``.  The fill
        allocates only ``val``, at :func:`val_width`, where -1 marks a pair
        not placed (a value written out of range, which the width may wrap,
        is a flaw read from the int64 block that outranks the others), and
        per-block temporaries.  A block longer than ``_BLOCK`` is read in
        slices of ``_BLOCK``, so a triple's index in its slice fits the
        width.
        """
        gpd, anchor, n = self.gpd, self.anchor, self.anchor.shape[0]
        if not callable(triples):
            t = np.asarray(triples)
            t = t if t.dtype.kind in "iu" else t.astype(np.int64)
            triples = partial(blocks_of, t.reshape(-1, 3))
        self.val = np.full(int(self.row_off[-1]), -1,
                           dtype=val_width(n, gpd.n_arrows))
        least: list[Optional[tuple[int, int, int]]] = [None] * 4
        for block in itertools.chain.from_iterable(map(blocks_of, triples())):
            y, h, z = block.astype(np.int64, copy=False).T
            index = (y < 0) | (y >= n) | (h < 0) | (h >= gpd.n_arrows)
            on = ~index
            on[on] = anchor[y[on]] == gpd.src[h[on]]
            pos = self.row_off[y[on]] + gpd.out_pos[h[on]]
            # a pair placed in an earlier block, or twice in this one: each
            # copy writes its index, and all but one read another's back
            dup = np.zeros(len(block), dtype=bool)
            dup[on] = self.val[pos] >= 0
            copies = np.arange(pos.size, dtype=self.val.dtype)
            self.val[pos] = copies
            dup[on] |= self.val[pos] != copies
            self.val[pos] = z[on]
            for kind, mask in enumerate((index, (z < 0) | (z >= n), dup,
                                         ~(index | on))):
                if bool(mask.any()):
                    at = np.flatnonzero(mask)
                    at = at[y[at] == y[at].min()]
                    i = int(at[np.argmin(h[at])])  # the first on a tie
                    hit = (int(y[i]), int(h[i]), int(z[i]))
                    if least[kind] is None or hit[:2] < least[kind][:2]:
                        least[kind] = hit
        labels = self._FLAW_LABELS + ("composability domain violated",)
        for kind, hit in enumerate(least):
            if hit is not None:
                return Diagnostics.failed(labels[kind],
                                          hit[:3 if kind == 1 else 2],
                                          structural=True)
        # every value placed is in range: the first hole, if any
        return self._value_flaw(self.val, *_bounds(self.val))

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
        must hold already, and the table must have no hole: both sides are
        read from the rows, ``y . (b . h)`` through row ``b``, for about
        ``_BLOCK`` pairs ``(y, h)`` at a time.
        """
        gpd = self.gpd
        gens = gpd.generators
        for b in gens:
            ys = np.flatnonzero(self.anchor == gpd.src[b])[:, None]
            hs, bh = gpd.arrows_from(int(gpd.tgt[b])), gpd.row(b)
            step = max(1, _BLOCK // max(1, hs.size))
            for lo in range(0, len(ys), step):
                y = ys[lo:lo + step]
                miss = self._at(self._at(y, b), hs) != self._at(y, bh)
                if bool(miss.any()):
                    i, j = divmod(int(np.argmax(miss)), hs.size)
                    return (int(y[i, 0]), b, int(hs[j])), len(gens)
        return None, len(gens)


@dataclass(eq=False)
class Groupoid(RowTable):
    """A finite groupoid given by index arrays and its composition rows.

    The composition is the regular action: row ``g`` of ``val`` starts at
    ``row_off[g]`` and holds ``g . h`` for each ``h`` in
    ``arrows_from(tgt[g])`` in ascending order.  Use
    :func:`Groupoid.from_tables` to build from python dicts or triple lists.
    """

    src: np.ndarray
    tgt: np.ndarray
    unit: np.ndarray
    inv: np.ndarray
    val: np.ndarray
    flaw: Optional[Diagnostics] = field(default=None, init=False)
    _FLAW_LABELS = ("comp pair out of range", "comp value out of range",
                    "duplicate comp pair")

    def __post_init__(self) -> None:
        for name in ("src", "tgt", "unit", "inv"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        super().__post_init__()

    @staticmethod
    def from_tables(src: Sequence[int], tgt: Sequence[int],
                    unit: Sequence[int], inv: Sequence[int],
                    comp: CompTable) -> "Groupoid":
        if isinstance(comp, Mapping):
            comp = [(g, h, gh) for (g, h), gh in comp.items()]
        return Groupoid(src, tgt, unit, inv, [])._filled(comp)

    def _index_flaw(self) -> Optional[Diagnostics]:
        """Array shapes and index ranges: None when the arrays can index
        rows."""
        m, k = self.n_objects, self.n_arrows
        if self.tgt.shape[0] != k or self.inv.shape[0] != k:
            return Diagnostics.failed(
                "array length mismatch",
                (k, int(self.tgt.shape[0]), int(self.inv.shape[0])),
                structural=True)
        for name, arr, bound in (("src", self.src, m), ("tgt", self.tgt, m),
                                 ("unit", self.unit, k), ("inv", self.inv, k)):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
                bad = int(np.argmax((arr < 0) | (arr >= bound)))
                return Diagnostics.failed(f"{name} index out of range",
                                          (bad, int(arr[bad])),
                                          structural=True)
        return None

    # the regular action: arrows anchored at their targets
    @property
    def gpd(self) -> "Groupoid":
        return self

    @property
    def anchor(self) -> np.ndarray:
        return self.tgt

    @property
    def n_objects(self) -> int:
        return int(self.unit.shape[0])

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
        return int(self.inv[_index("g", g, self.n_arrows)])

    _verdict = cached_property(lambda self: _axiom_verdict(self))

    @cached_property
    def generators(self) -> list[int]:
        """The least arrow ``x -> x + 1 (mod m)`` out of each object that has
        one, then, while the closure of the units under right multiplication
        misses an arrow, the least it misses.  The closure only grows: an
        arrow it gains is multiplied by every generator, the arrows it holds
        by each generator adjoined.  A table with a flaw is refused.  An
        arrow adjoined and still missed means the units do not absorb it,
        and raises ``ValueError``."""
        _require_whole(self)
        k, m = self.n_arrows, self.n_objects
        cycle = self.tgt == (self.src + 1) % max(m, 2)  # one object: no loop
        least = np.full(m, k)
        np.minimum.at(least, self.src[cycle], np.flatnonzero(cycle))
        gens = least[least < k].tolist()
        reached = np.zeros(k, dtype=bool)
        reached[self.unit] = True
        new, by = np.flatnonzero(reached), gens
        while True:
            vals, ok = self.try_compose_many(new[:, None], by)
            was = reached.copy()
            reached[vals[ok]] = True
            new, by = np.flatnonzero(reached & ~was), gens
            if not new.size:
                if reached.all():
                    return gens
                g = int(np.argmin(reached))
                if g in gens:
                    raise ValueError(f"generator {g} is not reached: the "
                                     "units do not absorb it")
                gens.append(g)
                new, by = np.flatnonzero(reached), gens[-1:]

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
        x = _index("x", x, self.n_objects)
        return order[start[x]:start[x + 1]]

    def arrows_into(self, x: int) -> np.ndarray:
        return np.flatnonzero(self.tgt == _index("x", x, self.n_objects))

    def hom(self, x: int, y: int) -> list[int]:
        """Arrows from ``x`` to ``y`` in ascending index order."""
        x, y = _index("x", x, self.n_objects), _index("y", y, self.n_objects)
        return np.where((self.src == x) & (self.tgt == y))[0].tolist()

    def loops(self, x: int) -> list[int]:
        return self.hom(x, x)

    def is_normalized(self) -> bool:
        m = self.n_objects
        return bool(np.array_equal(self.unit, np.arange(m)))


# --- verification ---------------------------------------------------------

def _require_whole(*tables: RowTable) -> None:
    """Constructions read every row, so a table with a flaw is refused."""
    for t in tables:
        if t.flaw is not None:
            t.flaw.require("table has a flaw")


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
    """Each unit's endpoints, then left and right absorption, read from
    the rows unchecked once the endpoints make every pair composable."""
    m = g.n_objects
    xs = np.arange(m)
    u = g.unit
    misplaced = (g.src[u] != xs) | (g.tgt[u] != xs)
    if bool(misplaced.any()):
        x = int(np.argmax(misplaced))
        return Diagnostics.failed("unit law", (int(u[x]),),
                                  detail=f"unit of object {x} has wrong endpoints")
    # so src[unit[x]] == x: the units are distinct, and the table is whole
    arrows = np.arange(g.n_arrows)
    for side, (gs, hs) in (("left", (u[g.src], arrows)),
                           ("right", (arrows, u[g.tgt]))):
        bad = g._at(gs, hs) != arrows
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
        bad = g._at(gs, hs) != want
        if bool(bad.any()):
            return Diagnostics.failed("inverse law", (int(np.argmax(bad)),),
                                      detail=detail)
    return None


def verify_groupoid(g: Groupoid) -> Diagnostics:
    """Check every groupoid axiom, reporting the first violation in a fixed
    scan order: structure (the groupoid's ``flaw``, set once when it was
    built: array shapes and index ranges, then the flaw of its composition
    rows), endpoints of products, unit laws, inverse laws, associativity.

    Associativity is Light's test on the regular action
    (:meth:`RowTable.light_test`): every arrow is checked as the middle of a
    triple through a generating set.

    Later calls return the first verdict, kept on the groupoid as
    :attr:`Groupoid.generators` is; a groupoid is not changed once built.
    """
    return g._verdict


def _axiom_verdict(g: Groupoid) -> Diagnostics:
    if g.flaw is not None:
        return g.flaw
    for scan in (_endpoint_scan, _unit_scan, _inverse_scan):
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
    _require_whole(g)
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
    induced multiplication table with the unit relabelled to 0.
    ``local_index`` refuses an arrow off them as ``arrow = <a> not among
    the arrows from <source> to <target>``."""

    source: int
    target: int
    arrows: list[int]
    group: Optional[FiniteGroup] = None

    def local_index(self, arrow: int) -> int:
        if arrow not in self.arrows:
            raise ValueError(f"arrow = {arrow} not among the arrows from "
                             f"{self.source} to {self.target}")
        return self.arrows.index(arrow)


def hom_set(g: Groupoid, x: int, y: int) -> HomSet:
    return HomSet(source=x, target=y, arrows=g.hom(x, y))


def vertex_group(g: Groupoid, x: int) -> HomSet:
    """The loops at ``x`` as a verified group; the unit becomes element 0 and
    the remaining loops keep their ascending arrow order."""
    _require_whole(g)
    loops = g.loops(x)
    u = int(g.unit[x])
    if u not in loops:
        raise ValueError(f"unit of object {x} is not a loop at {x}")
    ordering = [u] + [a for a in loops if a != u]
    local = {a: i for i, a in enumerate(ordering)}  # -1: not a loop at x
    table = [[local.get(g.compose(a, b), -1) for b in ordering] for a in ordering]
    diag, group = verify_group(table, identity=0)
    diag.require(f"loops at object {x} do not form a group")
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
    _require_whole(g)
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
    witness: Optional[tuple[int, int]]


def check_local_triviality(g: Groupoid) -> LocalTriviality:
    """Whether there is an arrow ``x -> y`` for every pair of objects; when
    there is not, the first pair ``(x, y)`` without one, in row order, is
    the witness.  At finite discrete size local triviality is transitivity,
    so this is :func:`is_transitive`'s scan; the independent reference is
    ``brute_local_triviality`` in ``tests/law_oracle.py``.
    """
    return LocalTriviality(*is_transitive(g))


def verify_groupoid_iso(g1: Groupoid, g2: Groupoid, obj_map: Sequence[int],
                        arr_map: Sequence[int]) -> Diagnostics:
    """Check that the pair of maps is a groupoid isomorphism: bijections that
    preserve src, tgt, unit, inverse, and every defined composition.  A
    structural flaw of either groupoid, its ``flaw`` set once when it was
    built, is reported before the maps meet it."""
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
    for g in (g1, g2):  # the structure maps must index the maps below
        if g.flaw is not None:
            return g.flaw
    # src, tgt, unit and inv commute with the maps
    for name, attr, outer, inner in (("src", "src", om, am),
                                     ("tgt", "tgt", om, am),
                                     ("unit", "unit", am, om),
                                     ("inverse", "inv", am, am)):
        bad = outer[getattr(g1, attr)] != getattr(g2, attr)[inner]
        if bool(bad.any()):
            return Diagnostics.failed(f"{name} not preserved",
                                      (int(np.argmax(bad)),))
    diag = g1.map_flaw(g2, am, am, "composition not preserved")
    return Diagnostics.passed() if diag is None else diag


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
        g.src[inv_pm], g.tgt[inv_pm], np.arange(m), pm[g.inv[inv_pm]],
        lambda: (pm[rows] for rows in g.row_blocks()))
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
        src=np.concatenate([g1.src, g2.src + m1]),
        tgt=np.concatenate([g1.tgt, g2.tgt + m1]),
        unit=np.concatenate([g1.unit, g2.unit + k1]),
        inv=np.concatenate([g1.inv, g2.inv + k1]),
        # widened first: an int16 value plus k1 would wrap
        val=np.concatenate([g1.val, g2.val.astype(np.int32) + k1]))
