"""A seeded corpus of corrupted row tables, shared by the fuzz tests.

Each case is a groupoid or an action built directly from its constructor's
fields, with one field changed: an array with one entry set to a value
from -3 to 3 past its greatest, one entry dropped or added, or reversed.
Case ``case`` is seeded by ``"table fuzz {case}"``, so the corpus is the
same from run to run and from test to test.  Beside it, a seeded corpus of
edited group tables, :func:`edited_group_tables`.
"""
import random

import numpy as np

from gpdflow.algebra import preset_group
from gpdflow.dynamics import GroupoidAction
from gpdflow.groupoid import Groupoid

CASES = 1000
GROUP_CASES = 150


def corrupt(fields: dict, rng: random.Random) -> tuple[dict, str]:
    """One array of a table's constructor fields changed, and its name."""
    key = rng.choice(sorted(k for k in fields if k != "gpd"))
    arr = np.asarray(fields[key], dtype=np.int64).copy()
    top = int(arr.max(initial=0))
    how = rng.choice(("set", "set", "drop", "add", "reverse"))
    if how == "set" and arr.size:
        arr[rng.randrange(arr.size)] = rng.randrange(-3, top + 4)
    elif how == "drop" and arr.size:
        arr = np.delete(arr, rng.randrange(arr.size))
    elif how == "add":
        arr = np.insert(arr, rng.randrange(arr.size + 1),
                        rng.randrange(-1, top + 2))
    else:
        arr = arr[::-1].copy()
    return {**fields, key: arr}, key


def corrupted_tables(gpd: Groupoid, act: GroupoidAction):
    """``CASES`` seeded single-field corruptions, by :func:`corrupt`, of
    ``gpd`` and of ``act`` in turn, each built directly, as ``(kind, field
    name, table)``."""
    tables = (
        (Groupoid, {"src": gpd.src, "tgt": gpd.tgt, "unit": gpd.unit,
                    "inv": gpd.inv, "val": gpd.val}),
        (GroupoidAction, {"gpd": gpd, "anchor": act.anchor, "val": act.val}))
    for case in range(CASES):
        rng = random.Random(f"table fuzz {case}")
        kind, clean = tables[case % 2]
        fields, key = corrupt(clean, rng)
        yield kind, key, kind(**fields)


def edited_group_tables():
    """``GROUP_CASES`` seeded single-entry edits of the S3, Z4, D4, Q8 and
    Z6 tables, as ``(preset, edit, table)``: one entry set out of range
    (from -3 to -1, or from the order to the order + 2), or set to another
    element, or one row cut short at an entry.  Case ``case`` is seeded by
    ``"group fuzz {case}"``."""
    for case in range(GROUP_CASES):
        rng = random.Random(f"group fuzz {case}")
        name = rng.choice(("S3", "Z4", "D4", "Q8", "Z6"))
        table = [list(row) for row in preset_group(name).mult]
        n = len(table)
        i, j = rng.randrange(n), rng.randrange(n)
        edit = rng.choice(("out of range", "another element", "cut short"))
        if edit == "out of range":
            table[i][j] = rng.choice((-3, -2, -1, n, n + 1, n + 2))
        elif edit == "another element":
            table[i][j] = rng.choice([g for g in range(n) if g != table[i][j]])
        else:
            del table[i][j:]
        yield name, edit, table
