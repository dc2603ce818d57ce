"""JSON model files: loading with precise errors, and canonical emission.

Every model is a JSON object with a ``"kind"`` tag.  Loading validates
shapes and index ranges only; whether the data satisfies its axioms is the
verify operations' business, so a malformed table loads fine and then
fails verification with a witness.  Emission is canonical: sorted keys and
no whitespace, so equal models produce equal bytes.  A groupoid's ``comp``
and an action's ``act`` are emitted as ``(n, 3)`` int64 arrays.  The one
encoder, :func:`canonical_pieces`, yields the text piece by piece: every
integer array a block of ``_ROWS`` rows at a time through one vectorized
kernel (:func:`_table_bytes`), byte-identical to the ``json`` encoding of
the same lists, and the rest of a value through ``json`` in as few calls
as there are containers on the way to an array.  The command line writes
a report's pieces as they come and :func:`model_digest` hashes them, so
neither holds a whole copy of a large table's text; :func:`canonical_dumps`
joins them.

Loading reads the input as bytes.  Each ``"comp":[[`` or ``"act":[[``
table written canonically is decoded from them by numpy, a block of rows
at a time (:func:`_span_table`): ``np.fromstring`` reads the numbers and
the span is taken only when :func:`_table_bytes` of them gives back its
bytes exactly.  Each decoded span is replaced by a number token found
nowhere else in the input, ``json`` reads the small remainder, and every
token must land as the value of a ``comp`` or ``act`` key, where its array
goes in.  Anything else -- a table written another way, a token that lands
elsewhere or is dropped by a duplicate key, bad JSON, bytes that are not
UTF-8 -- falls back to ``json`` on the whole text, so a model, or an
error's code and message, is the same either way.  A decoded table's span
is its canonical text, so the input digest, taken while loading, hashes
the span as it was read instead of encoding the table again.

Load failures carry one of three codes: 10 for unreadable JSON (bytes that
are not UTF-8, or lists and objects nested more than 100 deep, included),
11 for a missing or unknown kind, 12 for a shape or index-range problem.

Every integer table (``comp``, ``act``, ``src``, ``tgt``, ``unit``,
``inv``, ``anchor``, ``edges``, ``mult``, ``connection``) goes through one
checker, :func:`_table`: a few whole-table passes (the rows' types and
lengths, entries of type exactly ``int`` so ``true`` is refused, one int64
conversion, a min/max range check) and, only when they fail, its scanner,
which names the first bad row or entry.  ``comp`` and ``act`` may also be
integer arrays (``_ARRAY_TABLES``); their validated arrays replace them in
:attr:`Model.data`, so each is converted once and stays an array through
the build, the input digest and the report.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .algebra import FiniteGroup, PRESET_NAMES, preset_group, verify_group
from .bundle import BaseGraph, CocycleBundle, verify_cocycle
from .diagnostics import Diagnostics
from .dynamics import Ambit, GroupoidAction
from .ehresmann import Connection, TransportGroupoid
from .groupoid import Groupoid

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

# Tables that may be (n, 3) integer arrays, as emitted and as decoded.
_ARRAY_TABLES = ("comp", "act")
_MAX_DEPTH = 100  # lists and objects nested in a model read from a file
_ROWS = 1 << 16  # rows of an integer array encoded at a time


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
    and an action's ``act`` (and its groupoid's ``comp``) are the validated
    ``(n, 3)`` int64 arrays.  They are put in a shallow copy, so the
    caller's object is never changed and the decoded lists can be freed
    once validated; the builds and the report read the arrays.

    :attr:`digest` is :func:`model_digest` of the payload.  :func:`load_model`
    sets it while it still holds the input, so a table decoded from the
    input's bytes is hashed from them; otherwise it is computed when first
    read.
    """

    kind: str
    data: dict

    @functools.cached_property
    def digest(self) -> str:
        return model_digest(self.data)


def _coerce(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _json(obj: Any, default: Callable[[Any], Any] = _coerce) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=default)


@functools.cache
def _digit_groups() -> np.ndarray:
    """Four ASCII bytes per number ``n`` below 10**4, read as one uint32:
    at ``[n]`` its digits without leading zeros (NUL-padded on the left),
    at ``[10**4 + n]`` all four digits, at ``[2 * 10**4]`` four NULs."""
    n = np.arange(10 ** 4)
    digits = n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    shown = n[:, None] >= np.array([1000, 100, 10, 0])
    table = np.concatenate((np.where(shown, digits, 0), digits,
                            np.zeros((1, 4), np.int64)))
    table = table.astype(np.uint8).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _table_bytes(arr: np.ndarray) -> bytes:
    """The JSON text of a 1-D or 2-D integer array with entries, all in
    ``[0, 10**12)``, as ASCII bytes, in whole-array passes.

    Each value gets a fixed-width slot of uint32 words: one per group of
    four decimal digits, gathered from :func:`_digit_groups` (the leading
    group without its leading zeros, an all-zero group as NULs), then one
    for the separator after it (``,``, ``],[`` at a row's end, ``]`` or
    ``]]`` at the table's end).  Dropping the NUL padding from the buffer's
    bytes leaves the text.
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
    comma, next_row, end_1d, end_2d = np.frombuffer(
        b",\0\0\0],[\0]\0\0\0]]\0\0", np.uint32)
    buf[..., k] = comma
    if arr.ndim == 2:
        buf[:, -1, k] = next_row
    buf[(-1,) * arr.ndim + (k,)] = end_2d if arr.ndim == 2 else end_1d
    return b"[" * arr.ndim + buf.tobytes().translate(None, b"\0")


def _table_pieces(arr: np.ndarray) -> Iterator[str]:
    """``json.dumps(arr.tolist(), separators=(",", ":"))`` in pieces: a 1-D
    or 2-D array of integers in ``[0, 10**12)`` with entries through
    :func:`_table_bytes`, ``_ROWS`` rows at a time; any other array (another
    dtype or shape, a negative or larger value, no entries) in one piece on
    the ``json`` path.

    The texts of consecutive blocks join on ``,`` once the closing bracket
    of the one and the opening bracket of the next are dropped."""
    if (arr.ndim not in (1, 2) or arr.size == 0 or arr.dtype.kind not in "iu"
            or arr.min() < 0 or arr.max() >= 10 ** 12):
        yield _json(arr.tolist())
        return
    for lo in range(0, len(arr), _ROWS):
        text = _table_bytes(arr[lo:lo + _ROWS]).decode("ascii")
        if lo:
            text = "," + text[1:]
        yield text if lo + _ROWS >= len(arr) else text[:-1]


class _ArrayInside(Exception):
    """The ``json`` encoder met an array."""


def _stop_at_array(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        raise _ArrayInside
    return _coerce(value)


def canonical_pieces(obj: Any, spans: Optional[dict] = None
                     ) -> Iterator[Any]:
    """The text of :func:`canonical_dumps` in pieces, as it is encoded: an
    array through :func:`_table_pieces`, anything without one in one
    ``json`` call, and a list, tuple or ``str``-keyed dict that holds an
    array piece by piece.  A dict with other keys keeps ``json``'s key
    rules, with its arrays as lists.  (A container that gets here holds an
    array, so it has an item.)

    ``spans`` maps the ``id`` of an array to bytes that are its canonical
    text; such an array is yielded as those bytes (see
    :func:`model_digest`)."""
    if isinstance(obj, np.ndarray):
        if spans and id(obj) in spans:
            yield spans[id(obj)]
        else:
            yield from _table_pieces(obj)
        return
    try:
        yield _json(obj, _stop_at_array)
        return
    except _ArrayInside:
        pass
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from canonical_pieces(obj[key], spans)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield "," if i else "["
            yield from canonical_pieces(item, spans)
        yield "]"
    else:
        yield _json(obj)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no stray whitespace; numpy integers
    are written as numbers and arrays as nested lists.  The bytes are those
    of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` with every
    array turned into a list; they are the pieces of
    :func:`canonical_pieces`, joined."""
    return "".join(canonical_pieces(obj))


def model_digest(model: dict, spans: Optional[dict] = None) -> str:
    """sha256 of the canonical encoding, for input fingerprints, fed piece
    by piece.  A table in ``spans`` (see :func:`canonical_pieces`) is hashed
    from those bytes, not encoded again."""
    digest = hashlib.sha256()
    for piece in canonical_pieces(model, spans):
        digest.update(piece.encode() if isinstance(piece, str) else piece)
    return digest.hexdigest()


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
    return not arr.size or (
        arr.min() >= 0 and bool((arr.max(axis=0) < high).all()))


def _int_table(rows: Any, width: int, high: Any,
               scan: Callable[[list], Any]) -> np.ndarray:
    """The rows, each a list of ``width`` integers in ``[0, high)``
    (``high`` may give one bound per column), as one int64 array; an
    ``(n, width)`` integer array is taken as it is.

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
            arr = rows.astype(np.int64, copy=False)
            if _in_range(arr, high):
                return arr
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


def _table(data: dict, key: str, where: str, width: int, high: Any,
           flat: bool = False, row: str = "", column: bool = True
           ) -> np.ndarray:
    """:func:`_int_table` of field ``key``: a list of rows (an array too,
    for a key in ``_ARRAY_TABLES``), or one ``flat`` row.  Its scanner
    names the first row that is not a list of ``width`` (``row`` is the
    message, when given), else the first bad entry, at ``where.key[i][j]``,
    ``where.key[j]`` in a flat row, ``where.key[i]`` with no ``column``."""
    value, where = _need(data, key, where), f"{where}.{key}"
    arrays = np.ndarray if key in _ARRAY_TABLES else ()
    if not flat and not isinstance(value, (list, arrays)):
        raise ModelError(BAD_INDEX, f"{where}: expected a list")

    def scan(rows: list) -> None:
        bounds = high if isinstance(high, tuple) else (high,) * width
        for i, entries in enumerate(rows):
            at = where if flat else f"{where}[{i}]"
            if not isinstance(entries, list) or len(entries) != width:
                raise ModelError(BAD_INDEX, f"{at}: " + (
                    row or f"expected a list of {width} integers"))
            for j, v in enumerate(entries):
                _int_in(v, 0, bounds[j], f"{at}[{j}]" if column else at)
    return _int_table([value] if flat else value, width, high, scan)


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
    ``comp`` as its validated array."""
    objects = _int_in(_need(data, "objects", where), 0, 1 << 30,
                      f"{where}.objects")
    arrows = _int_in(_need(data, "arrows", where), 0, 1 << 30,
                     f"{where}.arrows")
    for key, length, high in (
            ("src", arrows, objects), ("tgt", arrows, objects),
            ("unit", objects, arrows), ("inv", arrows, arrows)):
        _table(data, key, where, length, high, True)
    comp = _table(data, "comp", where, 3, arrows)
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
    return {**data, "comp": comp}


def _validate_action(data: dict) -> dict:
    """Check an action's fields; returns a shallow copy of ``data`` with
    ``act`` and the groupoid's ``comp`` as their validated arrays."""
    groupoid = _validate_groupoid(_object(data, "groupoid", "action"),
                                  "action.groupoid")
    arrows = groupoid["arrows"]
    space = _int_in(_need(data, "space", "action"), 0, 1 << 30, "action.space")
    _table(data, "anchor", "action", space, groupoid["objects"], True)
    act = _table(data, "act", "action", 3, (space, arrows, space),
                 row="expected [y, g, yg]")
    for key, high in (("basepoint", groupoid["objects"]), ("u0", arrows)):
        if key in data:
            _int_in(data[key], 0, high, f"action.{key}")
    return {**data, "groupoid": groupoid, "act": act}


_VALIDATORS = {
    "group": _validate_group,
    "graph": _validate_graph,
    "bundle": _validate_bundle,
    "groupoid": _validate_groupoid,
    "action": _validate_action,
}


def parse_model(data: Any) -> Model:
    """Validate a decoded JSON object as a model.

    Report envelopes are unwrapped so command output can be piped straight
    back in: a ``{"model": ...}`` wrapper, or a full report whose first
    run carries a constructed model under ``runs[i].model``.  A groupoid
    or action payload is returned as a shallow copy holding its validated
    arrays (see :class:`Model`).
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
    checked = _VALIDATORS[kind](data)  # groupoid, action: a payload dict
    return Model(kind, checked if isinstance(checked, dict) else data)


_TABLE_KEY = re.compile(rb'"(?:%s)":\[\[' % "|".join(_ARRAY_TABLES).encode())
_BLOCK = 1 << 18  # bytes of table text read at a time
# A decoded table's span becomes the number token ``<i>e-0000000``: numbers
# cannot be written with escapes, so no other token has that text when
# the input has no ``e-0000000`` in it.
_SPAN_TOKEN, _SPAN_MARK = b"%de-0000000", b"e-0000000"


def _rows(buf: bytes, first: int, last: int) -> Optional[np.ndarray]:
    """The ``(k, 3)`` int64 rows whose canonical text, its outer brackets
    dropped, is exactly ``buf[first:last]``, or None.

    numpy reads the numbers with the brackets dropped, and
    :func:`_table_bytes` of what it read must give back the text byte for
    byte: only then are the separators the ``,`` ``,`` ``],[`` cycle of
    rows of three, and every number is 1 to 12 digits without a leading
    zero, read as ``json`` reads it.
    """
    with warnings.catch_warnings():
        # numpy before 2.3 warns on text it cannot read; later ones raise
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(buf[first:last].translate(None, b"[]"),
                                   np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if (not values.size or values.size % 3 or values.min() < 0
            or values.max() >= 10 ** 12):
        return None
    rows = values.reshape(-1, 3)
    text = _table_bytes(rows)
    return rows if len(text) == last - first + 4 \
        and buf.startswith(text[2:-2], first) else None


def _span_table(buf: bytes, start: int, end: int) -> Optional[np.ndarray]:
    """The ``(n, 3)`` int64 table whose canonical text is exactly
    ``buf[start:end]``, or None.

    The rows are read a block of about ``_BLOCK`` bytes at a time by
    :func:`_rows`, each block ending at a row's end, into an array sized by
    the count of ``],[`` in the span, so the temporaries stay small.
    """
    table = np.empty((buf.count(b"],[", start, end) + 1, 3), np.int64)
    row, first = 0, start + 2
    while first < end - 2:
        last = buf.find(b"],[", first + _BLOCK, end)
        last = end - 2 if last < 0 else last
        rows = _rows(buf, first, last)
        if rows is None:
            return None
        table[row:row + len(rows)] = rows
        row, first = row + len(rows), last + 3
    return table if row == len(table) else None  # not "[[]]"


def _decode_tables(raw: bytes) -> Optional[tuple[Any, dict]]:
    """``json.loads`` of the input with every ``comp`` and ``act`` table
    that is written canonically decoded by numpy, and the span of each
    such table by the ``id`` of its array; or None when the input has no
    such table or cannot be read this way cleanly.

    Each table's span becomes a number token that occurs nowhere else;
    ``json`` reads the rest, and each token must land as the value of a
    ``comp`` or ``act`` key, where its array replaces it.  A span is
    :func:`_table_bytes` of its array (:func:`_rows` checked it), so it is
    the array's canonical text.
    """
    starts = [match.end() - 2 for match in _TABLE_KEY.finditer(raw)]
    if not starts or _SPAN_MARK in raw:
        return None
    tables, spans, pieces, pos = {}, {}, [], 0
    for start in starts:
        end = raw.find(b"]]", start) + 2  # 1 when there is none
        table = _span_table(raw, start, end) if end > start else None
        if table is None:
            return None
        token = _SPAN_TOKEN % len(tables)
        tables[token.decode()] = table
        spans[id(table)] = memoryview(raw)[start:end]
        pieces += (raw[pos:start], token)
        pos = end
    pieces.append(raw[pos:])
    try:
        text = b"".join(pieces).decode("utf-8")
    except UnicodeDecodeError:
        return None
    placed = 0

    def number(literal: str) -> Any:
        table = tables.get(literal)
        return float(literal) if table is None else table

    def place(obj: dict) -> dict:
        nonlocal placed
        placed += sum(isinstance(obj.get(key), np.ndarray)
                      for key in _ARRAY_TABLES)
        return obj
    try:
        data = json.loads(text, object_hook=place, parse_float=number)
    except (json.JSONDecodeError, RecursionError):
        return None
    return (data, spans) if placed == len(tables) else None


def _read(path: str) -> bytes:
    """The bytes of a file, or of stdin when path is '-'."""
    if path != "-":
        with open(path, "rb") as fh:
            return fh.read()
    stream = getattr(sys.stdin, "buffer", None)
    if stream is None:  # a text stream put in place of stdin
        return sys.stdin.read().encode("utf-8", "surrogatepass")
    return stream.read()


def load_model(path: str) -> Model:
    """Read a model from a file path, or from stdin when path is '-'.

    The input is read as bytes.  Its canonical ``comp`` and ``act``
    tables are decoded from them by numpy and ``json`` reads the rest
    (:func:`_decode_tables`).  An input without such a table, or one that
    cannot be read that way cleanly, is read by ``json`` whole, as text:
    strict UTF-8 (code 10 when it is not), a file's line ends as a
    text-mode read gives them.  The model, and any error's code and
    message, are the same either way.  A model nested more than
    ``_MAX_DEPTH`` deep is refused with code 10: ``json`` may fail to read
    it, or to write it back for the input digest.

    The model's :attr:`~Model.digest` is taken here, each decoded table
    hashed from its span of the input, so the input is not held after the
    load.
    """
    try:
        raw = _read(path)
    except OSError as exc:
        raise ModelError(PARSE_ERROR, f"{path}: {exc}") from exc
    too_deep = ModelError(PARSE_ERROR, f"{path}: nested too deeply (more "
                          f"than {_MAX_DEPTH} levels)")
    data, spans = _decode_tables(raw) or (None, {})
    if data is None:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(PARSE_ERROR, f"{path}: not UTF-8: {exc}") from exc
        del raw  # not held while json decodes the text
        if path != "-" and "\r" in text:  # universal newlines, as for text
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(PARSE_ERROR,
                             f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise too_deep from exc
        del text  # not held while the tables are validated
    model = parse_model(data)
    if _depth(model.data) > _MAX_DEPTH:
        raise too_deep
    model.digest = model_digest(model.data, spans)
    return model


def _depth(value: Any) -> int:
    """How deep lists and objects nest in a value; an array is a leaf."""
    level, depth = [value], 0
    while level := [c for c in level if isinstance(c, (list, dict))]:
        level = [item for c in level
                 for item in (c.values() if isinstance(c, dict) else c)]
        depth += 1
    return depth


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
            "src": [int(x) for x in gpd.src],
            "tgt": [int(x) for x in gpd.tgt],
            "unit": [int(x) for x in gpd.unit],
            "inv": [int(x) for x in gpd.inv],
            "comp": gpd.triple_array()}


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
            "act": a.triple_array()}


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
    bundle = CocycleBundle.from_edge_labels(build_graph(model_data["graph"]),
                                            grp, model_data["labels"])
    return verify_cocycle(bundle), bundle


def build_groupoid(model_data: dict
                   ) -> tuple[Groupoid, Optional[Connection]]:
    """Assemble the groupoid; when a connection is present, recover the
    base graph from it (edge i spans the sources of darts 2i and 2i+1)."""
    gpd = Groupoid.from_tables(
        model_data["objects"], model_data["src"], model_data["tgt"],
        model_data["unit"], model_data["inv"], model_data["comp"])
    conn = None
    if "connection" in model_data:
        arrows = [0] * len(model_data["connection"])
        for dart, arrow in model_data["connection"]:
            arrows[dart] = arrow
        edges = tuple((int(gpd.src[arrows[2 * e]]), int(gpd.src[arrows[2 * e + 1]]))
                      for e in range(len(arrows) // 2))
        conn = Connection(base=BaseGraph(gpd.n_objects, edges), arrows=arrows)
    return gpd, conn


def build_action(model_data: dict) -> GroupoidAction:
    """Assemble the action; an ambit's basepoint and u0 are not read."""
    gpd, _ = build_groupoid(model_data["groupoid"])
    return GroupoidAction.from_triples(gpd, model_data["space"],
                                       model_data["anchor"], model_data["act"])
