"""A seeded corpus of corrupted row tables, shared by the fuzz tests.

Each case is a groupoid or an action built directly from its constructor's
fields, with one field changed: an array with one entry set to a value
from -3 to 3 past its greatest, one entry dropped or added, or reversed.
Case ``case`` is seeded by ``"table fuzz {case}"``, so the corpus is the
same from run to run and from test to test.
"""
import random

import numpy as np

from gpdflow.dynamics import GroupoidAction
from gpdflow.groupoid import Groupoid

CASES = 1000


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
