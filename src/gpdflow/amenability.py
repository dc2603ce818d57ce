"""Fixed points of group actions and invariant sections of anchor maps.

An invariant section picks one point over every object so that the choice
rides along with every arrow.  Over a transitive groupoid such a section
exists exactly when the basepoint fiber has a point fixed by every loop:
the section is then forced (transport the fixed point along any connecting
arrow, the result being independent of which arrow), and each fixed point
yields exactly one section.

At finite scale only the trivial group fixes a point in every action: any
nontrivial group already moves every point of its own translation action.
The check therefore answers by order but always attaches the translation
action, with its freeness and empty fixed-point set verified, as evidence
rather than assertion.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .algebra import FiniteGroup, _index
from .bundle import CocycleBundle
from .diagnostics import Diagnostics
from .dynamics import _CROSSCHECK_POINTS, GroupoidAction, base_action, \
    build_ambit
from .ehresmann import groupoid_of_bundle
from .groupoid import _require_whole, is_transitive, vertex_group

__all__ = [
    "InvariantSection",
    "TranslationCertificate",
    "AmenabilityReport",
    "fixed_points",
    "fiber_action",
    "verify_invariant_section",
    "invariant_sections",
    "extreme_amenability_check",
    "section_existence_suite",
]


@dataclass
class InvariantSection:
    """A choice of one point per object that every arrow respects."""

    basepoint: int
    fixed_point: int
    values: list[int]


def fixed_points(grp: FiniteGroup, table: Sequence[Sequence[int]]) -> list[int]:
    """Points fixed by every element of a right action given as a table.

    ``table[y][g]`` is ``y . g``.  The identity and compatibility laws are
    checked before anything is reported; a bad table raises ``ValueError``.
    """
    n = len(table)
    for y, row in enumerate(table):
        if len(row) != grp.order:
            raise ValueError(
                f"row {y} has {len(row)} entries, expected {grp.order}")
        for g, z in enumerate(row):
            if not (0 <= z < n):
                raise ValueError(f"entry ({y}, {g}) = {z} out of range")
    for y in range(n):
        if table[y][grp.identity] != y:
            raise ValueError(f"identity law fails at point {y}")
    for y in range(n):
        for g in grp.elements:
            for h in grp.elements:
                if table[table[y][g]][h] != table[y][grp.mul(g, h)]:
                    raise ValueError(
                        f"compatibility fails at ({y}, {g}, {h})")
    return sorted(y for y in range(n)
                  if all(table[y][g] == y for g in grp.elements))


def fiber_action(a: GroupoidAction, x0: int) -> tuple[list[list[int]],
                                                      list[int], FiniteGroup]:
    """Restrict the action to the fiber over ``x0`` acted on by the vertex
    group.  Returns (table, fiber points, group); the group's element ``i``
    is the i-th loop in the vertex-group ordering (unit first).  An action
    with a flaw is refused."""
    _require_whole(a)
    vg = vertex_group(a.gpd, _index("x0", x0, a.gpd.n_objects))
    fiber = a.fiber(x0)
    pos = {y: i for i, y in enumerate(fiber)}  # -1: off the fiber
    table = [[pos.get(a.move(y, l), -1) for l in vg.arrows] for y in fiber]
    return table, fiber, vg.group


def verify_invariant_section(a: GroupoidAction, values: Sequence[int]
                             ) -> Diagnostics:
    """Check the section laws: one point per object, over that object, and
    stable under transport along every arrow, after the action's ``flaw``,
    set once when it was built."""
    if a.flaw is not None:  # the scans below read its anchor and rows
        return a.flaw
    gpd = a.gpd
    if len(values) != gpd.n_objects:
        return Diagnostics.failed("section length mismatch",
                                  (len(values), gpd.n_objects),
                                  structural=True)
    for x, y in enumerate(values):
        if not (0 <= y < a.n_points):
            return Diagnostics.failed("section value out of range", (x, y),
                                      structural=True)
        if a.anchor[y] != x:
            return Diagnostics.failed("section anchor law", (x,))
    for g in range(gpd.n_arrows):
        if a.move(values[int(gpd.src[g])], g) != values[int(gpd.tgt[g])]:
            return Diagnostics.failed("section invariance", (g,))
    return Diagnostics.passed(objects=gpd.n_objects)


def invariant_sections(a: GroupoidAction, x0: int = 0
                       ) -> list[InvariantSection]:
    """All invariant sections of the anchor, one per loop-fixed fiber point.

    For each point ``z`` over ``x0`` fixed by every loop, the section sends
    ``x'`` to ``z . g`` for the least-index arrow ``g: x0 -> x'``, and the
    finished section is verified against every arrow of the groupoid, which
    covers every other connecting arrow.  So the list holds exactly one
    section per fixed point, in fiber order, or this raises ``ValueError``,
    as on an action that breaks its laws.  On spaces of at most
    ``_CROSSCHECK_POINTS`` points the list is additionally compared with a
    brute-force enumeration of all anchor-respecting assignments.  An
    action with a flaw is refused.
    """
    gpd = a.gpd
    ok, witness = is_transitive(gpd)
    if not ok:
        raise ValueError(
            f"groupoid is not transitive (no arrow {witness[0]} -> {witness[1]}); "
            "sections would not be determined by one fiber")
    table, fiber, grp = fiber_action(a, x0)
    fixed = [fiber[i] for i in fixed_points(grp, table)]

    sections = []
    for z in fixed:
        values = [a.move(z, gpd.hom(x0, x)[0]) for x in range(gpd.n_objects)]
        # the action may break its laws off the fiber
        verify_invariant_section(a, values).require("constructed section fails")
        sections.append(InvariantSection(basepoint=x0, fixed_point=z,
                                         values=values))

    if a.n_points <= _CROSSCHECK_POINTS:
        brute = [list(values) for values in
                 product(*(a.fiber(x) for x in range(gpd.n_objects)))
                 if verify_invariant_section(a, list(values)).ok]
        if sorted(brute) != sorted(s.values for s in sections):
            raise AssertionError(
                "section construction disagrees with brute-force enumeration")
    return sections


@dataclass
class TranslationCertificate:
    """The group acting on itself by right translation, with the freeness
    scan and the fixed-point list that witness the verdict."""

    order: int
    table: list[list[int]]
    fixed: list[int]
    free: bool


@dataclass
class AmenabilityReport:
    extremely_amenable: bool
    certificate: TranslationCertificate


def extreme_amenability_check(grp: FiniteGroup) -> AmenabilityReport:
    """A finite group fixes a point in each of its actions exactly when it
    is trivial.  The verdict is evidenced by the translation action: free,
    and with no fixed point as soon as the order exceeds one."""
    table = [[grp.mul(y, g) for g in grp.elements] for y in grp.elements]
    fixed = fixed_points(grp, table)
    free = all(table[y][g] != y
               for y in grp.elements for g in grp.elements
               if g != grp.identity)
    cert = TranslationCertificate(order=grp.order, table=table,
                                  fixed=fixed, free=free)
    verdict = grp.order == 1
    if verdict != bool(fixed):  # on a group, translation is free
        raise ValueError("fixed points of the translation action "
                         "contradict the order verdict")
    return AmenabilityReport(extremely_amenable=verdict, certificate=cert)


def section_existence_suite(named_bundles: Sequence[tuple[str, CocycleBundle]]
                            ) -> list[dict]:
    """For bundles with trivial structural group, confirm that the ambit
    and the base action each carry invariant sections, each meeting every
    fiber exactly once, at every basepoint.  The count per basepoint is the
    number of fixed fiber points, since :func:`invariant_sections` makes
    exactly one section per fixed point."""
    results = []
    for name, bundle in named_bundles:
        if bundle.group.order != 1:
            raise ValueError(
                f"fixture {name!r} has structural group of order "
                f"{bundle.group.order}; the suite covers the trivial group")
        tg = groupoid_of_bundle(bundle)
        entry = {"fixture": name, "actions": []}
        for kind, action in (("ambit", build_ambit(tg.groupoid, 0).action),
                             ("base", base_action(tg.groupoid))):
            per_basepoint = [len(invariant_sections(action, x0))
                             for x0 in range(tg.groupoid.n_objects)]
            # a trivial vertex group fixes every point of each fiber
            if not all(c >= 1 for c in per_basepoint):  # pragma: no cover
                raise AssertionError("trivial group admits no section")
            entry["actions"].append({
                "kind": kind,
                "sections_per_basepoint": per_basepoint,
                "note": "continuity is automatic at finite scale",
            })
        results.append(entry)
    return results
