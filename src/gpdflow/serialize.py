"""JSON model files: loading with precise errors, and canonical emission.

Every model is a JSON object with a ``"kind"`` tag.  Loading validates
shapes and index ranges only; whether the data satisfies its axioms is the
verify operations' business, so a malformed table loads fine and then
fails verification with a witness.  Emission is canonical: sorted keys and
no whitespace, so equal models produce equal bytes.  A groupoid's ``comp``
and an action's ``act`` are emitted as the row table itself, whose defined
entries are the ``[y, h, y . h]`` triples in row order.  The one encoder,
:func:`canonical_pieces`, picks a route by type alone and yields the text
piece by piece: a row table a block of
:meth:`~gpdflow.groupoid.RowTable.row_blocks` at a time through one
vectorized kernel (:func:`_table_bytes`), byte-identical to the ``json``
encoding of the same lists, so no ``(n, 3)`` array of its triples is
built; a span of the input as its bytes; a long list, such as a transport
report's ``coords``, one slice of ``_SLICE`` items at a time, since
``json`` holds a token string for each number, key and bracket until it
joins them, about 15 times the text; and the rest of a value, numpy
arrays and scalars as lists and numbers, through ``json`` in as few calls
as there are containers on the way to a table.  The command line writes
a report's pieces as they come and :func:`model_digest` hashes them, so
neither holds a whole copy of a large table's text, nor more than one
block's or one slice's temporaries; :func:`canonical_dumps` joins them.

Loading reads every input from a file (:class:`_File`): a regular file
as it is (a path, or stdin that ``os.fstat`` shows is one), anything else
(a pipe, a FIFO, a stream) copied to an unlinked temporary file first.  It
scans the input a chunk at a time.  Each ``"comp":[[`` or ``"act":[[``
table, up to its first ``]]``, is replaced by a number token found nowhere
else in the input, ``json`` reads the small remainder, and every token must
land as the value of a ``comp`` or ``act`` key, where its :class:`_Span`,
the table's byte range, goes in (:func:`_span_json`).  A span keeps none of
the table's text: it reads it back from the file with ``os.pread`` each
time it is used.  Validation fills each table the model uses straight
from its span into its row table, ``_CHUNK`` bytes of text at a time:
``np.fromstring`` reads the numbers, and a block is taken only when
:func:`_table_bytes` of them gives back its bytes exactly.  So neither the
input nor an ``(n, 3)`` array is held, whatever the input is: only the row
table's values span the table, 2 bytes an entry below ``2**15`` points and
arrows and 4 above (:func:`~gpdflow.groupoid.val_width`), while it loads
as once it is loaded.
Every span, those of runs the model does not use included, is read
before the model is returned or an error raised.  Anything else -- a
table written another way, a token that lands elsewhere or is dropped by a
duplicate key, a span the model holds other than as a table, bad JSON,
bytes that are not UTF-8 -- falls back to ``json`` on the whole text, so a
model, or an error's code and message, is the same either way.

The input digest is the sha256 of the canonical text of the payload as it
was given, envelope unwrapped (see :class:`Model`): :func:`model_digest`
of it, taken while loading.  A span in it is hashed as its bytes, read
back a chunk at a time, which are its table's canonical text, in the
input's order and with its repeats, so the digest does not depend on how
the input was read.  The hash is picked once, from the input's length,
before its first byte is hashed, so no input is hashed twice: up to
``_LEAN_DIGEST`` bytes (4 MiB), every 7-vertex S4 model among them, by the
interpreter's own sha256 (``_sha2`` from Python 3.12, ``_sha256`` before),
a longer one by ``hashlib``'s, imported only then.  That import loads
OpenSSL: about 5 ms, and 3.4 MB of peak memory, a tenth of a call's peak
(CPython's ``random.py`` tries ``_sha512`` first: "hashlib is pretty heavy
to load").  OpenSSL's sha256 runs at about 1,190 MB/s, the interpreter's
at 200, so at the bound the lean hash costs at most about 12 ms more, and
a large table is hashed as fast as before.  The value is the same either way.

Load failures carry one of three codes: 10 for unreadable JSON (bytes that
are not UTF-8, or lists and objects nested more than 100 deep, included),
11 for a missing or unknown kind, 12 for a shape or index-range problem.

Every integer table (``src``, ``tgt``, ``unit``, ``inv``, ``anchor``,
``edges``, ``mult``, ``connection``) goes through one checker,
:func:`_table`: a few whole-table passes (the rows' types and lengths,
entries of type exactly ``int`` so ``true`` is refused, one int64
conversion, a min/max range check) and, only when they fail, its scanner,
which names the first bad row or entry.  ``comp`` and ``act``
(``_ARRAY_TABLES``) may be lists, integer arrays, row tables or spans;
:func:`_triples` checks every block of them, whatever its source, with the
same checker, so the first bad entry gives the same error, and passes the
blocks, int64, to :meth:`RowTable._fill <gpdflow.groupoid.RowTable._fill>`.
The model holds the groupoid or action itself (see :class:`Model`): it is
built once, and the builds return it.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import gc
import itertools
import json
import operator
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from .algebra import FiniteGroup, PRESET_NAMES, preset_group, verify_group
from .bundle import BaseGraph, CocycleBundle, dart_labels, verify_cocycle
from .diagnostics import Diagnostics
from .dynamics import Ambit, GroupoidAction
from .ehresmann import Connection, TransportGroupoid
from .groupoid import _BLOCK, Groupoid, RowTable, _frozen, blocks_of

__all__ = [
    "ModelError",
    "Model",
    "PARSE_ERROR",
    "UNKNOWN_KIND",
    "BAD_INDEX",
    "KNOWN_KINDS",
    "canonical_dumps",
    "canonical_pieces",
    "model_digest",
    "load_model",
    "parse_model",
    "group_to_json",
    "bundle_to_json",
    "groupoid_to_json",
    "transport_to_json",
    "action_to_json",
    "ambit_to_json",
    "build_group",
    "build_graph",
    "build_bundle",
    "build_groupoid",
    "build_action",
]

PARSE_ERROR = 10
UNKNOWN_KIND = 11
BAD_INDEX = 12

KNOWN_KINDS = ("group", "graph", "bundle", "groupoid", "action")

# Tables of [y, h, y . h] rows, loaded into row tables: given as lists,
# integer arrays or row tables, or read from the input's bytes.
_ARRAY_TABLES = ("comp", "act")
_MAX_DEPTH = 100  # lists and objects nested in a model read from a file
_MAX_DIGITS = 4300  # of an integer literal: the interpreter's default
# bytes of an input that model_digest hashes with the interpreter's sha256
_LEAN_DIGEST = 1 << 22
try:  # the interpreter's own sha256, which loads no OpenSSL
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without it
        from hashlib import sha256 as _sha256


class _Read(dict):
    """A payload as it was given in an input of ``size`` bytes."""

    def __init__(self, payload: dict, size: int):
        super().__init__(payload)
        self.size = size


class ModelError(Exception):
    """A model file that cannot be used, with a machine-readable code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Model:
    """A validated model file: the kind tag and the payload.

    The payload is the decoded object, except that a groupoid's ``comp``
    is the :class:`~gpdflow.groupoid.Groupoid` itself and an action's
    ``act`` the ``GroupoidAction`` (its groupoid's ``comp`` the groupoid),
    each filled from its table a block at a time, its flaw included, with
    its ``val`` at :func:`~gpdflow.groupoid.val_width`: 2 bytes an entry
    below ``2**15`` points and arrows, else 4.  They are put in a shallow
    copy, so the caller's object is never changed; the builds return them
    and the report writes their rows.

    ``given`` is the payload as it was given, a table read from the input
    still its :class:`_Span`.  :attr:`digest` is :func:`model_digest` of
    it, so the triples count in the input's order and with its repeats;
    ``given`` is dropped once the digest is taken.  :func:`load_model`
    takes it while its spans can still read the input, with the hash the
    input's length picks; otherwise it is taken when first read.
    """

    kind: str
    data: dict
    given: Any = field(repr=False, compare=False)

    @functools.cached_property
    def digest(self) -> str:
        digest, self.given = model_digest(self.given), None
        return digest


def _coerce(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


# list items json writes in one call: it holds a token string of some 50
# bytes for each number, key and bracket until it joins them, so a slice of
# a transport report's coords holds about 120 KB, less than a block of rows
_SLICE = _BLOCK // 16


def _json(obj: Any, default: Callable[[Any], Any] = _coerce) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=default)


@functools.cache
def _digit_groups() -> np.ndarray:
    """Four ASCII bytes per number ``n`` below 10**4, read as one uint32:
    at ``[n]`` its digits without leading zeros (NUL-padded on the left),
    at ``[10**4 + n]`` all four digits, at ``[2 * 10**4]`` four NULs."""
    table = np.zeros((2 * 10 ** 4 + 1, 4), np.uint8)
    # row 10**4 + n, n = 1000a + 100b + 10c + d, is [a, b, c, d] of full
    full = table[10 ** 4:-1].reshape(10, 10, 10, 10, 4)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        full[..., j] = digits.reshape((10,) + (1,) * (3 - j))  # on axis j
        shown = place if place > 1 else 0  # n from here on shows digit j
        table[shown:10 ** 4, j] = table[10 ** 4 + shown:-1, j]
    return _frozen(table.view(np.uint32).ravel())


def _table_bytes(arr: np.ndarray) -> bytes:
    """The JSON text of a 2-D integer array with entries, all in
    ``[0, 10**12)``, as ASCII bytes, in whole-array passes.

    Each value gets a fixed-width slot of uint32 words: one per group of
    four decimal digits, gathered from :func:`_digit_groups` (the leading
    group without its leading zeros, an all-zero group as NULs), then one
    for the separator after it (``,``, ``],[`` at a row's end, ``]]`` at
    the table's end).  Dropping the NUL padding from the buffer's bytes
    leaves the text.
    """
    top = int(arr.max())
    k = 1 + (top >= 10 ** 4) + (top >= 10 ** 8)  # digit groups per slot
    v = arr.astype(np.int64, copy=False)
    groups = _digit_groups()
    buf = np.empty(arr.shape + (k + 1,), np.uint32)
    for j in range(k):  # most significant group first
        # this group and those above
        part = v // 10 ** (4 * (k - 1 - j)) if j < k - 1 else v
        if j:  # with a group above shown, all four digits
            part = np.where(part < 10 ** 4, part, part % 10 ** 4 + 10 ** 4)
        if j < k - 1:  # nothing shown yet: NULs
            part[part == 0] = 2 * 10 ** 4
        np.take(groups, part, out=buf[..., j], mode="clip")
    comma, next_row, end = np.frombuffer(b",\0\0\0],[\0]]\0\0", np.uint32)
    buf[..., k] = comma
    buf[:, -1, k] = next_row
    buf[-1, -1, k] = end
    return b"[[" + buf.tobytes().translate(None, b"\0")


def _table_pieces(blocks: Iterable[np.ndarray]) -> Iterator[str]:
    """The ``json`` text of the blocks' rows joined into one list, in one
    piece per block with rows: each block's :func:`_table_bytes` with its
    outer brackets dropped, joined on ``,``; ``[]`` for no rows."""
    text = None
    for block in blocks:
        if len(block):
            if text is not None:
                yield text
            inner = _table_bytes(block).decode("ascii")[1:-1]
            text = ("[" if text is None else ",") + inner
    yield "[]" if text is None else text + "]"


class _ArrayInside(Exception):
    """The ``json`` encoder met a row table or a span."""


def _stop_at_array(value: Any) -> Any:
    if isinstance(value, (RowTable, _Span)):
        raise _ArrayInside
    return _coerce(value)


def _unbracketed(pieces: Iterator[Any]) -> Iterator[Any]:
    """The pieces of a list's text, its outer brackets dropped."""
    last = next(pieces)[1:]
    for piece in pieces:
        yield last
        last = piece
    yield last[:-1]


def canonical_pieces(obj: Any) -> Iterator[Any]:
    """The text of :func:`canonical_dumps` in pieces, as it is encoded: a
    row table (its entries as ``[y, h, y . h]`` rows) a block of rows at a
    time, through :func:`_table_pieces`; a :class:`_Span`, a table's
    canonical text in the input, as those bytes; a list or tuple of more
    than ``_SLICE`` items a slice at a time, each slice as a list of its
    own with its brackets dropped; anything else without a table or a
    span, numpy arrays and scalars included, in one ``json`` call; and a
    list, tuple or ``str``-keyed dict that holds one piece by piece.  A
    dict with other keys keeps ``json``'s key rules.  (A container that
    gets here holds one, so it has an item.)"""
    if isinstance(obj, _Span):
        yield from obj.text()
        return
    if isinstance(obj, RowTable):  # its entries: the holes dropped
        yield from _table_pieces(obj.row_blocks())
        return
    if isinstance(obj, (list, tuple)) and len(obj) > _SLICE:
        for lo in range(0, len(obj), _SLICE):
            yield "," if lo else "["
            yield from _unbracketed(canonical_pieces(obj[lo:lo + _SLICE]))
        yield "]"
        return
    try:
        yield _json(obj, _stop_at_array)
        return
    except _ArrayInside:
        pass
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from canonical_pieces(obj[key])
        yield "}"
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield "," if i else "["
            yield from canonical_pieces(item)
        yield "]"
    else:
        yield _json(obj)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no stray whitespace; numpy integers
    are written as numbers, arrays as nested lists and row tables as their
    ``[y, h, y . h]`` rows.  The bytes are those of ``json.dumps(obj,
    sort_keys=True, separators=(",", ":"))`` with every array and row table
    turned into a list; they are the pieces of :func:`canonical_pieces`,
    joined."""
    return "".join(canonical_pieces(obj))


def model_digest(model: dict) -> str:
    """sha256 of the canonical encoding, for input fingerprints, fed piece
    by piece: a :class:`_Span` is hashed as the input's bytes give it.

    The interpreter's own sha256 hashes up to ``_LEAN_DIGEST`` bytes, so a
    small model never loads OpenSSL, and ``hashlib``'s more (see the module
    docstring).  A :class:`_Read` payload, as :func:`load_model` reads it,
    picks one from its input's length.  With no length to go by, once the
    bytes fed pass the bound, ``hashlib`` is imported and the pieces are
    hashed again from the start, a span read back again, so no piece is
    held past its hashing."""
    lean = model.size <= _LEAN_DIGEST if isinstance(model, _Read) else None
    sha256, limit = _sha256, float("inf") if lean else _LEAN_DIGEST
    while True:
        if lean is False:
            import hashlib  # here, so only a large payload loads OpenSSL
            sha256, limit = hashlib.sha256, float("inf")
        digest, fed = sha256(), 0
        for piece in canonical_pieces(model):
            piece = piece.encode() if isinstance(piece, str) else piece
            fed += len(piece)
            if fed > limit:
                break
            digest.update(piece)
        else:
            return digest.hexdigest()
        lean = False


# --- validation helpers -------------------------------------------------------


def _need(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ModelError(BAD_INDEX, f"{where}: missing field {key!r}")
    return data[key]


def _object(data: dict, key: str, where: str) -> dict:
    """A nested object field.  A string or a list reads as an object with
    no fields, so the field's validator names the first field it misses;
    a scalar is refused."""
    value = _need(data, key, where)
    if isinstance(value, (str, list)):
        return {}
    if not isinstance(value, dict):
        raise ModelError(BAD_INDEX, f"{where}.{key}: expected an object")
    return value


def _int_in(value: Any, low: int, high: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(BAD_INDEX, f"{where}: expected an integer, got {value!r}")
    if not (low <= value < high):
        raise ModelError(
            BAD_INDEX, f"{where}: {value} outside range [{low}, {high})")
    return value


def _in_range(arr: np.ndarray, high: Any) -> bool:
    return not arr.size or (arr.min() >= 0 and bool((arr < high).all()))


def _int_table(rows: Any, width: int, high: Any,
               scan: Callable[[list], Any]) -> np.ndarray:
    """The rows, each a list of ``width`` integers in ``[0, high)``
    (``high`` may give one bound per column), as one int64 array.  An
    ``(n, width)`` integer array in range is returned as it is.

    The fast check reads the types and lengths of the rows and the types
    of their entries (exactly ``int``: numpy would read ``True`` as 1),
    converts once and compares min and max with the bounds.  Only when it
    fails does ``scan``, the per-element check, run on the rows to raise
    the error of the first bad entry; an array that fails is read as its
    lists, so a bool or float array gets the message of those lists.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim == 2 and rows.shape[1] == width \
                and rows.dtype.kind in "iu":
            if _in_range(rows, high):
                return rows
        rows = rows.tolist()
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        scan(rows)  # raises, unless the entries are int subclasses
    try:
        arr = np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                          len(rows) * width).reshape(len(rows), width)
    except OverflowError:  # beyond int64, so out of range
        arr = None
    if arr is None or not _in_range(arr, high):
        scan(rows)
    return arr


def _scanner(where: str, width: int, high: Any, flat: bool = False,
             row: str = "", column: bool = True) -> Callable[..., None]:
    """The per-element check of a table at ``where``: it raises for the
    first row that is not a list of ``width`` (``row`` is the message,
    when given), else the first bad entry, at ``where[i][j]`` for the row
    ``i`` counted from ``lo``, ``where[j]`` in a ``flat`` row, ``where[i]``
    with no ``column``."""
    bounds = high if isinstance(high, tuple) else (high,) * width

    def scan(rows: list, lo: int = 0) -> None:
        for i, entries in enumerate(rows, lo):
            at = where if flat else f"{where}[{i}]"
            if not isinstance(entries, list) or len(entries) != width:
                raise ModelError(BAD_INDEX, f"{at}: " + (
                    row or f"expected a list of {width} integers"))
            for j, v in enumerate(entries):
                _int_in(v, 0, bounds[j], f"{at}[{j}]" if column else at)
    return scan


def _table(data: dict, key: str, where: str, width: int, high: Any,
           flat: bool = False, row: str = "", column: bool = True
           ) -> np.ndarray:
    """:func:`_int_table` of field ``key``: a list of rows, or one ``flat``
    row, checked by :func:`_scanner`."""
    value, where = _need(data, key, where), f"{where}.{key}"
    if not flat and not isinstance(value, list):
        raise ModelError(BAD_INDEX, f"{where}: expected a list")
    return _int_table([value] if flat else value, width, high,
                      _scanner(where, width, high, flat, row, column))


def _triples(data: dict, key: str, where: str, high: Any, row: str = ""
             ) -> Callable[[], Iterator[np.ndarray]]:
    """Field ``key``, a table of ``[y, h, y . h]`` rows, as a block source
    for :meth:`RowTable._fill <gpdflow.groupoid.RowTable._fill>`: each
    call reads it a block at a time, and :func:`_int_table` checks every
    block, whatever its source, so the first bad entry raises the error
    :func:`_table` gives for the whole table.  The table is a list of rows,
    an integer array, a row table (as a ``*_to_json`` dict holds it, read
    by its :meth:`~gpdflow.groupoid.RowTable.row_blocks`) or a
    :class:`_Span` of the input (read by its :meth:`~_Span.rows`)."""
    value, where = _need(data, key, where), f"{where}.{key}"
    if isinstance(value, _Span):
        source = value.rows
    elif isinstance(value, RowTable):
        source = value.row_blocks
    elif isinstance(value, (list, np.ndarray)):
        source = functools.partial(blocks_of, value)
    else:
        raise ModelError(BAD_INDEX, f"{where}: expected a list")
    scan = _scanner(where, 3, high, row=row)

    def blocks() -> Iterator[np.ndarray]:
        lo = 0
        for block in source():
            yield _int_table(block, 3, high, functools.partial(scan, lo=lo))
            lo += len(block)
    return blocks


def _validate_group(data: dict, where: str = "group") -> int:
    """Check a group's fields; returns its order."""
    if "preset" in data:
        if data["preset"] not in PRESET_NAMES:
            raise ModelError(BAD_INDEX,
                             f"{where}: unknown preset {data['preset']!r}")
        return preset_group(data["preset"]).order
    order = _int_in(_need(data, "order", where), 1, 1 << 30, f"{where}.order")
    _int_in(_need(data, "identity", where), 0, order, f"{where}.identity")
    mult = _need(data, "mult", where)
    if not isinstance(mult, list) or len(mult) != order:
        raise ModelError(BAD_INDEX, f"{where}.mult: expected {order} rows")
    _table(data, "mult", where, order, order)
    return order


def _validate_graph(data: dict, where: str = "graph") -> int:
    """Check a graph's fields; returns its number of edges."""
    vertices = _int_in(_need(data, "vertices", where), 1, 1 << 30,
                       f"{where}.vertices")
    return len(_table(data, "edges", where, 2, vertices))


def _validate_bundle(data: dict) -> None:
    n_edges = _validate_graph(_object(data, "graph", "bundle"), "bundle.graph")
    order = _validate_group(_object(data, "group", "bundle"), "bundle.group")
    labels = _need(data, "labels", "bundle")
    if not isinstance(labels, list) or len(labels) != n_edges:
        got = len(labels) if isinstance(labels, (list, dict, str)) \
            else repr(labels)
        raise ModelError(BAD_INDEX, f"bundle.labels: expected one label per "
                         f"edge ({n_edges}), got {got}")
    for e, g in enumerate(labels):
        if isinstance(g, bool) or not isinstance(g, int) or not 0 <= g < order:
            raise ModelError(BAD_INDEX, f"bundle.labels[{e}]: label {g!r} out "
                             f"of range for group order {order} (edge {e})")


def _validate_groupoid(data: dict, where: str = "groupoid") -> dict:
    """Check a groupoid's fields; returns a shallow copy of ``data`` with
    the groupoid under ``comp``."""
    objects = _int_in(_need(data, "objects", where), 0, 1 << 30,
                      f"{where}.objects")
    arrows = _int_in(_need(data, "arrows", where), 0, 1 << 30,
                     f"{where}.arrows")
    src, tgt, unit, inv = (  # fresh: the groupoid takes them uncopied
        _frozen(_table(data, key, where, length, high, True)[0])
        for key, length, high in (
            ("src", arrows, objects), ("tgt", arrows, objects),
            ("unit", objects, arrows), ("inv", arrows, arrows)))
    gpd = Groupoid.from_tables(src, tgt, unit, inv,
                               _triples(data, "comp", where, arrows))
    if "connection" in data:
        pairs = data["connection"]
        if not isinstance(pairs, list) or len(pairs) % 2 != 0:
            raise ModelError(
                BAD_INDEX, f"{where}.connection: expected an even-length list")
        darts = _table(data, "connection", where, 2, (len(pairs), arrows),
                       row="expected [dart, arrow]", column=False)[:, 0]
        if bool((np.bincount(darts, minlength=len(pairs)) != 1).any()):
            raise ModelError(
                BAD_INDEX, f"{where}.connection: darts must cover "
                f"0..{len(pairs) - 1} exactly once")
        if objects == 0:
            raise ModelError(
                BAD_INDEX, f"{where}.connection: a connection needs at least "
                "one object")
    return {**data, "comp": gpd}


def _validate_action(data: dict) -> dict:
    """Check an action's fields; returns a shallow copy of ``data`` with
    the action under ``act`` and its groupoid's copy (see
    :func:`_validate_groupoid`) under ``groupoid``."""
    groupoid = _validate_groupoid(_object(data, "groupoid", "action"),
                                  "action.groupoid")
    gpd = groupoid["comp"]
    space = _int_in(_need(data, "space", "action"), 0, 1 << 30, "action.space")
    anchor = _frozen(_table(data, "anchor", "action", space, gpd.n_objects,
                            True)[0])
    blocks = _triples(data, "act", "action", (space, gpd.n_arrows, space),
                      row="expected [y, g, yg]")
    if gpd.flaw is not None:  # no entry is placed over a flawed groupoid
        collections.deque(blocks(), 0)
    act = GroupoidAction.from_triples(gpd, anchor, blocks)
    for key, high in (("basepoint", gpd.n_objects), ("u0", gpd.n_arrows)):
        if key in data:
            _int_in(data[key], 0, high, f"action.{key}")
    return {**data, "groupoid": groupoid, "act": act}


_VALIDATORS = {
    "group": _validate_group,
    "graph": _validate_graph,
    "bundle": _validate_bundle,
}


def parse_model(data: Any) -> Model:
    """Validate a decoded JSON object as a model.

    Report envelopes are unwrapped so command output can be piped straight
    back in: a ``{"model": ...}`` wrapper, or a full report whose first
    run carries a constructed model under ``runs[i].model``.  A groupoid
    or action payload is returned as a shallow copy holding its row
    tables; the model keeps the payload as given for its digest (see
    :class:`Model`).
    """
    if isinstance(data, dict) and "kind" not in data:
        if "model" in data:
            data = data["model"]
        elif isinstance(data.get("runs"), list):
            for run in data["runs"]:
                if isinstance(run, dict) and "model" in run:
                    data = run["model"]
                    break
    if not isinstance(data, dict):
        raise ModelError(UNKNOWN_KIND, "model must be a JSON object")
    kind = data.get("kind")
    if kind not in KNOWN_KINDS:
        raise ModelError(UNKNOWN_KIND, f"unknown kind {kind!r}")
    given = data
    if kind == "groupoid":
        data = _validate_groupoid(data)
    elif kind == "action":
        data = _validate_action(data)
    else:
        _VALIDATORS[kind](data)
    return Model(kind, data, given)


_TABLE_KEY = re.compile(rb'"(?:%s)":\[\[' % "|".join(_ARRAY_TABLES).encode())
# a table's end: a search, unlike bytes.find, does not stop at each row's "]"
_TABLE_END = re.compile(rb"\]\]")
_CHUNK = 1 << 16  # bytes read at a time by the scan, the fill and the digest
# A table's span becomes the number token ``<i>e-0000000``: numbers cannot
# be written with escapes, so no other token has that text when the text
# around the tables has no ``e-0000000`` in it.  (Inside a table it makes
# the table's text not canonical.)
_SPAN_TOKEN, _SPAN_MARK = b"%de-0000000", b"e-0000000"
_CARRY = 8  # bytes a chunk hands on to the next: a table key is 9 bytes


class _NotCanonical(Exception):
    """A table span is not the canonical text of its rows."""


def _rows(buf: bytes, first: int, last: int) -> Optional[np.ndarray]:
    """The ``(k, 3)`` int64 rows whose canonical text, its outer brackets
    dropped, is exactly ``buf[first:last]``; or None.

    numpy reads the numbers with the brackets dropped, and
    :func:`_table_bytes` of what it read must give back the text byte for
    byte: only then are the separators the ``,`` ``,`` ``],[`` cycle of
    rows of three, and every number is 1 to 10 digits without a leading
    zero, read as ``json`` reads it.  A value of ``2**31`` or more, which
    no valid model has, gives None, so the ``json`` path reads the input
    and raises its error.  Whether the rows are in range is not checked
    here: :func:`_triples` checks them as it checks any other block.
    """
    with warnings.catch_warnings():
        # numpy before 2.3 warns on text it cannot read; later ones raise
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(buf[first:last].translate(None, b"[]"),
                                   np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if not values.size or values.size % 3 or values.min() < 0 \
            or values.max() >= 1 << 31:
        return None
    rows = values.reshape(-1, 3)
    text = _table_bytes(rows)
    return rows if len(text) == last - first + 4 \
        and buf.startswith(text[2:-2], first) else None


_stamp = operator.attrgetter("st_size", "st_mtime_ns", "st_ino")


class _File:
    """A regular file from byte ``base`` on, read like bytes:
    ``file[a:b]`` is one ``os.pread`` of its bytes ``base + a`` to ``base +
    b``, and ``bytes(file)`` all of them.  A read that comes back short, or
    a :meth:`check` that finds the file's size, modification time or inode
    changed since ``st``, raises code 10, so a model never mixes two
    versions of the file."""

    def __init__(self, fd: int, base: int, st: os.stat_result, path: str):
        self.fd, self.base, self.path = fd, base, path
        self.stamp, self.size = _stamp(st), max(0, st.st_size - base)

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        # a read returns at most about 2 GiB; one piece is joined uncopied
        return b"".join(self[at:at + (1 << 30)]
                        for at in range(0, self.size, 1 << 30))

    def __getitem__(self, at: slice) -> bytes:
        start, stop, _ = at.indices(self.size)
        size = max(0, stop - start)
        try:
            data = os.pread(self.fd, size, self.base + start)
        except OSError as exc:
            raise ModelError(PARSE_ERROR, f"{self.path}: {exc}") from exc
        if len(data) != size:
            raise self.changed()
        return data

    def changed(self) -> ModelError:
        return ModelError(PARSE_ERROR,
                          f"{self.path}: changed while it was read")

    def check(self) -> None:
        if _stamp(os.fstat(self.fd)) != self.stamp:
            raise self.changed()


class _Span:
    """A ``comp`` or ``act`` table as the input's bytes ``reader[start:end]``
    give it, from ``[[`` to the first ``]]``, the reader the
    :class:`_File` of the input.  A span keeps only its range, and reads
    the table again, ``_CHUNK`` bytes at a time, each time it is used: as
    canonical text (see :func:`_rows`) until a window of it is not, or as
    its bytes for the input digest."""

    def __init__(self, reader: _File, start: int, end: int):
        self.reader, self.start, self.end = reader, start, end
        self.checked = False  # every block read, and canonical

    def text(self) -> Iterator[bytes]:
        for at in range(self.start, self.end, _CHUNK):
            yield self.reader[at:min(at + _CHUNK, self.end)]

    def rows(self) -> Iterator[np.ndarray]:
        """The rows as ``(k, 3)`` int64 arrays, a window of ``_CHUNK``
        bytes at a time: each window is cut after its last full row and the
        rest carried into the next, so each byte is read once.  Raises
        :class:`_NotCanonical` at the first block that is not the canonical
        text of its rows, and for ``[[]]``, whose row is empty."""
        first, end = self.start + 2, self.end - 2
        if first >= end:
            raise _NotCanonical
        carry = b""
        for at in range(first, end, _CHUNK):
            window = carry + self.reader[at:min(at + _CHUNK, end)]
            last = window.rfind(b"],[") if at + _CHUNK < end else len(window)
            if last >= 0:
                found = _rows(window, 0, last)
                if found is None:
                    raise _NotCanonical
                yield found
                window = window[last + 3:]
            elif len(window) > 34:  # a row of 3 values below 2**31, and "],"
                raise _NotCanonical
            carry = window
        self.checked = True

    def check(self) -> None:
        """Read every block, unless that was done; see :meth:`rows`."""
        if not self.checked:
            collections.deque(self.rows(), 0)

    def __repr__(self) -> str:  # as an error message shows the lists
        return repr(np.concatenate(list(self.rows())).tolist())


def _scan(reader: _File) -> Optional[tuple[bytes, list[tuple[int, int]]]]:
    """The input, read ``_CHUNK`` bytes at a time, with each ``"comp":[[``
    or ``"act":[[`` table, from ``[[`` to the first ``]]``, replaced by its
    number token, and each table's range; or None when the input has no
    such table, a table without its ``]]``, or ``e-0000000`` around its
    tables.  A table's bytes are not kept."""
    out, ranges, carry, start = [], [], b"", None
    for at in range(0, len(reader), _CHUNK):
        buf = carry + reader[at:at + _CHUNK]
        base = at - len(carry)  # the input offset of buf[0]
        i = 0
        while True:
            if start is None:
                key = _TABLE_KEY.search(buf, i)
                if key is None:
                    break
                out += (buf[i:key.end() - 2], _SPAN_TOKEN % len(ranges))
                start, i = base + key.end() - 2, key.end()
            else:
                close = _TABLE_END.search(buf, i)
                if close is None:
                    break
                ranges.append((start, base + close.end()))
                start, i = None, close.end()
        cut = max(i, len(buf) - _CARRY)
        if start is None:
            out.append(buf[i:cut])
        carry = buf[cut:]
    out.append(carry)
    rest = b"".join(out)
    # each token holds the mark once, and no other mark can form
    if start is not None or not ranges \
            or rest.count(_SPAN_MARK) != len(ranges):
        return None
    return rest, ranges


def _span_json(reader: _File) -> Optional[tuple[Any, list]]:
    """``json.loads`` of the input, read from its :class:`_File`, with each
    ``comp`` and ``act`` table that may be written canonically, from ``[[``
    to the first ``]]``, in place as a :class:`_Span`, and the spans; or
    None when the input has no such table or cannot be read this way
    cleanly.

    :func:`_scan` puts a number token that occurs nowhere else in place of
    each span; ``json`` reads the rest, and each token must land as the
    value of a ``comp`` or ``act`` key, where its span goes in.  A span's
    bytes are read here only to find its end.
    """
    scanned = _scan(reader)
    if scanned is None:
        return None
    rest, ranges = scanned
    spans = {(_SPAN_TOKEN % i).decode(): _Span(reader, start, end)
             for i, (start, end) in enumerate(ranges)}
    try:
        text = rest.decode("utf-8")
    except UnicodeDecodeError:
        return None
    del rest
    placed = 0

    def number(literal: str) -> Any:
        span = spans.get(literal)
        return float(literal) if span is None else span

    def place(obj: dict) -> dict:
        nonlocal placed
        placed += sum(isinstance(obj.get(key), _Span) for key in _ARRAY_TABLES)
        return obj
    try:
        data = json.loads(text, object_hook=place, parse_float=number)
    except (ValueError, RecursionError):  # not JSON, or a long integer
        return None
    return (data, list(spans.values())) if placed == len(spans) else None


def _span_model(data: Any, spans: list, too_deep: ModelError
                ) -> Optional[Model]:
    """:func:`parse_model` of the input read by :func:`_span_json`, each
    row table filled from its span, or the error it raises; None when the
    input must be read by ``json`` whole instead: a span is not canonical,
    or stands in the payload other than as a table.  Every span is read
    before a model is returned or an error raised, those of runs the model
    does not use included, so either is the one ``json`` would give."""
    try:
        try:
            model = parse_model(data)
        except ModelError:
            for span in spans:
                span.check()
            raise
        depth, stray = _nesting(model.data)
        if stray:
            return None
        for span in spans:
            span.check()
    except _NotCanonical:
        return None
    if depth > _MAX_DEPTH:
        raise too_deep
    return model


def _reader(stream: Any, path: str, held: contextlib.ExitStack) -> _File:
    """The input from ``stream`` on, as a :class:`_File`: a regular file
    from the stream's position, the stream then moved to the file's end as
    reading it to the end would leave it; anything else (a pipe, a FIFO, a
    stream without a file descriptor) copied ``_CHUNK`` bytes at a time to
    an unlinked temporary file, which ``held`` closes, a text stream's
    pieces encoded as UTF-8 with surrogates passed through.  An ``OSError``,
    a full disk under the copy included, raises code 10."""
    stream = getattr(stream, "buffer", stream)
    try:
        try:
            st = os.fstat(stream.fileno())
        except (AttributeError, ValueError):  # io.UnsupportedOperation too
            st = None  # no file descriptor, or a closed one
        if st is not None and stat.S_ISREG(st.st_mode):
            file = _File(stream.fileno(), stream.tell(), st, path)
            stream.seek(file.base + len(file))
            return file
        import tempfile  # here, so that only a load that copies pays for it
        spool = held.enter_context(tempfile.TemporaryFile())
        while piece := stream.read(_CHUNK):
            spool.write(piece if isinstance(piece, bytes)
                        else piece.encode("utf-8", "surrogatepass"))
        spool.flush()
        return _File(spool.fileno(), 0, os.fstat(spool.fileno()), path)
    except OSError as exc:
        raise ModelError(PARSE_ERROR, f"{path}: {exc}") from exc


def load_model(path: str) -> Model:
    """Read a model from a file path, or from stdin when path is '-'.

    ``json`` reads the input around its ``comp`` and ``act`` tables
    (:func:`_span_json`), and each table the model uses is filled into its
    row table from its span, a block at a time (:func:`_span_model`).  The
    input is read from a file in passes of ``os.pread`` calls: one over
    the whole input that keeps only the text around the tables, then one
    over each table to fill it and one to hash it, so the input is never
    held.  The file is the input itself when it is a regular file (a path,
    or stdin that ``os.fstat`` shows is one); any other input (a pipe, a
    FIFO, a stream without a file descriptor) is copied first, ``_CHUNK``
    bytes at a time, to an unlinked temporary file under ``TMPDIR``, which
    takes as much space as the input (see :func:`_reader`).  An input
    without such a table, or one that cannot be read that way cleanly, is
    read by ``json`` whole, as text: strict UTF-8 (code 10 when it is not),
    a file's line ends as a text-mode read gives them.  The model, and any
    error's code and message, are the same either way.  A model nested
    more than ``_MAX_DEPTH`` deep is refused with code 10: ``json`` may
    fail to read it, or to write it back for the input digest.  So is an
    integer literal of more than ``_MAX_DIGITS`` digits, whatever limit
    the interpreter sets, a file that changes while it is read (see
    :class:`_File`), and ``-`` when the process has no stdin.

    The model's :attr:`~Model.digest` is taken here, each span hashed as
    the input's bytes give it.  On every exit, a path's file and the
    temporary copy are closed, and the interpreter's int-digit limit and
    the cyclic garbage collector are put back as the caller set them;
    stdin is left at its end, as reading it whole leaves it.  The collector
    is paused for the load: its tables are acyclic, so reference counting
    frees them, and left on, the collector re-scans every list
    ``json.loads`` has made so far each time a batch of new ones arrives,
    which on a large model costs more than the decoding itself.
    """
    with contextlib.ExitStack() as held:
        held.callback(sys.set_int_max_str_digits, sys.get_int_max_str_digits())
        sys.set_int_max_str_digits(_MAX_DIGITS)
        if gc.isenabled():
            gc.disable()
            held.callback(gc.enable)
        try:
            stream = sys.stdin if path == "-" else open(path, "rb")
        except OSError as exc:
            raise ModelError(PARSE_ERROR, f"{path}: {exc}") from exc
        if stream is None:  # started with its stdin closed
            raise ModelError(PARSE_ERROR, f"{path}: stdin is closed")
        if stream is not sys.stdin:
            held.enter_context(stream)
        reader = _reader(stream, path, held)
        too_deep = ModelError(PARSE_ERROR, f"{path}: nested too deeply (more "
                              f"than {_MAX_DEPTH} levels)")
        found = _span_json(reader)
        model = None if found is None else _span_model(*found, too_deep)
        if model is None:
            del found
            try:
                text = bytes(reader).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ModelError(PARSE_ERROR,
                                 f"{path}: not UTF-8: {exc}") from exc
            if path != "-" and "\r" in text:  # universal newlines, as for text
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ModelError(PARSE_ERROR,
                                 f"{path}: invalid JSON: {exc}") from exc
            except ValueError as exc:  # the only other: an integer too long
                raise ModelError(PARSE_ERROR, f"{path}: invalid JSON: "
                                 f"integer of more than {_MAX_DIGITS} "
                                 "digits") from exc
            except RecursionError as exc:
                raise too_deep from exc
            del text  # not held while the tables are validated
            model = parse_model(data)
            del data  # nor when the collector is back on, to scan its lists
            if _nesting(model.data)[0] > _MAX_DEPTH:
                raise too_deep
        model.given = _Read(model.given, len(reader))  # size picks the hash
        model.digest  # taken while the input can be read
        reader.check()
        return model


def _nesting(value: Any) -> tuple[int, bool]:
    """How deep lists and objects nest in a value, an array or a row table
    being a leaf, and whether a :class:`_Span` is among the leaves."""
    level, depth, stray = [value], 0, False
    while level := [c for c in level if isinstance(c, (list, dict))]:
        level = [item for c in level
                 for item in (c.values() if isinstance(c, dict) else c)]
        stray = stray or any(isinstance(item, _Span) for item in level)
        depth += 1
    return depth, stray


# --- emission -----------------------------------------------------------------


def group_to_json(grp: FiniteGroup) -> dict:
    out = {"kind": "group", "order": grp.order, "identity": grp.identity,
           "mult": [list(row) for row in grp.mult]}
    if grp.name:
        out["name"] = grp.name
    return out


def bundle_to_json(b: CocycleBundle) -> dict:
    return {"kind": "bundle",
            "graph": {"vertices": b.base.n_vertices,
                      "edges": [list(e) for e in b.base.edges]},
            "group": {key: val for key, val in group_to_json(b.group).items()
                      if key != "kind"},
            "labels": b.edge_labels()}


def groupoid_to_json(gpd: Groupoid) -> dict:
    return {"kind": "groupoid",
            "objects": gpd.n_objects,
            "arrows": gpd.n_arrows,
            "src": gpd.src.tolist(),
            "tgt": gpd.tgt.tolist(),
            "unit": gpd.unit.tolist(),
            "inv": gpd.inv.tolist(),
            "comp": gpd}


def transport_to_json(tg: TransportGroupoid) -> dict:
    out = groupoid_to_json(tg.groupoid)
    out["connection"] = [[d, int(a)] for d, a in enumerate(tg.connection.arrows)]
    out["coords"] = [{"arrow": i, "coord": list(c)}
                     for i, c in enumerate(tg.coords)]
    return out


def action_to_json(a: GroupoidAction) -> dict:
    return {"kind": "action",
            "groupoid": groupoid_to_json(a.gpd),
            "space": a.n_points,
            "anchor": a.anchor.tolist(),
            "act": a}


def ambit_to_json(ambit: Ambit) -> dict:
    out = action_to_json(ambit.action)
    out["basepoint"] = ambit.basepoint
    out["u0"] = ambit.points[ambit.u0]
    out["points"] = list(ambit.points)
    return out


# --- building domain objects ----------------------------------------------------


def build_group(model_data: dict) -> tuple[Diagnostics, Optional[FiniteGroup]]:
    """Turn validated group data into a FiniteGroup, or a failed diagnosis
    when the table breaks the axioms."""
    if "preset" in model_data:
        grp = preset_group(model_data["preset"])
        return Diagnostics.passed(order=grp.order, preset=model_data["preset"]), grp
    return verify_group(model_data["mult"], model_data["identity"],
                        name=model_data.get("name", ""))


def build_graph(model_data: dict) -> BaseGraph:
    return BaseGraph(model_data["vertices"],
                     tuple((e[0], e[1]) for e in model_data["edges"]))


def build_bundle(model_data: dict
                 ) -> tuple[Diagnostics, Optional[CocycleBundle]]:
    diag, grp = build_group(model_data["group"])
    if grp is None:
        return diag, None
    return verify_cocycle(build_graph(model_data["graph"]), grp,
                          dart_labels(grp, model_data["labels"]))


def build_groupoid(model_data: dict
                   ) -> tuple[Groupoid, Optional[Connection]]:
    """The groupoid a validated payload holds; when a connection is
    present, recover the base graph from it (edge i spans the sources of
    darts 2i and 2i+1)."""
    gpd, conn = model_data["comp"], None
    if "connection" in model_data:
        arrows = [0] * len(model_data["connection"])
        for dart, arrow in model_data["connection"]:
            arrows[dart] = arrow
        edges = tuple((int(gpd.src[arrows[2 * e]]), int(gpd.src[arrows[2 * e + 1]]))
                      for e in range(len(arrows) // 2))
        conn = Connection(base=BaseGraph(gpd.n_objects, edges), arrows=arrows)
    return gpd, conn


def build_action(model_data: dict) -> GroupoidAction:
    """The action a validated payload holds; an ambit's basepoint and u0
    are not read."""
    return model_data["act"]
