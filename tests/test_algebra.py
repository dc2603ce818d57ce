"""Tests for finite group tables, presets, and conjugacy search."""
import random
import signal
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from gpdflow import algebra
from gpdflow.algebra import (
    PRESET_NAMES,
    FiniteGroup,
    are_conjugate_subgroup_maps,
    element_order,
    find_group_isomorphism,
    generated_subgroup,
    preset_group,
    verify_group,
)
from gpdflow.amenability import extreme_amenability_check, fixed_points
from gpdflow.bundle import BaseGraph, CocycleBundle, is_trivial
from gpdflow.ehresmann import point_base_degenerate
from gpdflow.groupoid import one_object_groupoid, pair_groupoid, vertex_group
from gpdflow.serialize import build_group, group_to_json

from law_oracle import backtrack_group_isomorphism, brute_group_violation
from table_corpus import edited_group_tables


# --- independent oracles -------------------------------------------------

def naive_group_check(table, e):
    """Direct transcription of the axioms, kept separate from the library."""
    n = len(table)
    if any(len(row) != n for row in table):
        return False
    if any(not (0 <= v < n) for row in table for v in row):
        return False
    if any(table[e][a] != a or table[a][e] != a for a in range(n)):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            return False
    return True


def reduced_latin_squares(n):
    """Every reduced Latin square of order ``n`` (its first row and first
    column are ``0..n-1`` in order), filled cell by cell in row order, so
    the squares come in lexicographic order."""
    square = [[max(i, j) if 0 in (i, j) else -1 for j in range(n)]
              for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []

    def fill(k):
        if k == len(cells):
            out.append([list(row) for row in square])
            return
        i, j = cells[k]
        for v in range(n):
            if v not in square[i] and all(square[r][j] != v for r in range(i)):
                square[i][j] = v
                fill(k + 1)
                square[i][j] = -1

    fill(0)
    return out


def naive_closure(table, e, gens):
    members = {e} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for a in snapshot:
            for b in snapshot:
                if table[a][b] not in members:
                    members.add(table[a][b])
                    changed = True
    return sorted(members)


# --- verify_group --------------------------------------------------------

def test_verify_group_accepts_cyclic_table():
    diag, group = verify_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], identity=0)
    assert diag.ok
    assert group.order == 3
    assert group.inv == (0, 2, 1)
    assert naive_group_check(group.mult, 0)


def test_verify_group_rejects_non_latin_row():
    diag, group = verify_group([[0, 1], [1, 1]], identity=0)
    assert not diag.ok
    assert group is None
    assert diag.failure == "row 1 not a permutation"
    assert diag.witness == (1,)
    assert not diag.structural
    assert not naive_group_check([[0, 1], [1, 1]], 0)


def test_verify_group_rejects_bad_identity():
    diag, _ = verify_group([[1, 0], [0, 1]], identity=0)
    assert not diag.ok
    assert diag.failure == "identity law"


def test_verify_group_structural_errors_are_flagged():
    diag, _ = verify_group([[0, 1], [1]], identity=0)
    assert not diag.ok and diag.structural
    assert diag.failure == "table not square"

    diag, _ = verify_group([[0, 5], [1, 0]], identity=0)
    assert not diag.ok and diag.structural
    assert diag.failure == "entry out of range"
    assert diag.witness == (0, 1, 5)

    diag, _ = verify_group([[0, 1], [1, 0]], identity=7)
    assert not diag.ok and diag.structural


def test_verify_group_catches_broken_associativity():
    # a Latin square of order 5 with identity 0: a loop that is not a group
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    diag, group = verify_group(table, identity=0)
    first = next((a, b, c) for a, b, c in product(range(5), repeat=3)
                 if table[table[a][b]][c] != table[a][table[b][c]])
    assert group is None
    assert (diag.failure, diag.witness) == ("associativity", first)
    assert first == (1, 1, 2)
    assert not naive_group_check(table, 0)


def test_verify_group_agrees_with_the_triple_loop():
    """Light's test on the one-object groupoid against the old law scan,
    ``brute_group_violation``: every reduced Latin square of order at most
    5 with each identity, a seeded sample of 600 of the 9,408 of order 6,
    and the edited group tables.  The verdict and the failure label agree;
    every other law's witness is the old one, and every associativity
    witness breaks the law."""
    six = reduced_latin_squares(6)
    assert [len(reduced_latin_squares(n)) for n in range(1, 6)] + [
        len(six)] == [1, 1, 1, 4, 56, 9408]
    squares = [(square, e) for n in range(1, 6)
               for square in reduced_latin_squares(n) for e in range(n)]
    squares += [(square, 0) for square in random.Random("latin 6").sample(
        six, 600)]
    edited = [(table, 0) for _, _, table in edited_group_tables()]
    failures = []
    for table, e in squares + edited:
        diag, group = verify_group(table, e)
        want = brute_group_violation(table, e)
        assert diag.ok == (want is None) == (group is not None), (table, e)
        failures.append(diag.failure)
        if diag.ok:
            continue
        assert diag.failure == want[0], (table, e, diag)
        if diag.failure == "associativity":
            a, b, c = diag.witness
            assert table[table[a][b]][c] != table[a][table[b][c]], (table, e)
        else:
            assert diag.witness == want[1], (table, e, diag)
    # a reduced square's identity can only be 0; of order at most 5, all
    # but 50 of order 5 are groups, and 4 of the 80 groups of order 6 fall
    # in the sample
    verdicts = Counter(failures[:len(squares)])
    assert verdicts == {None: 1 + 1 + 1 + 4 + 6 + 4, "identity law": 239,
                        "associativity": 50 + 596}, verdicts


def test_verify_group_refuses_an_empty_table():
    diag, group = verify_group([], identity=0)
    assert group is None and diag.structural
    assert (diag.failure, diag.witness) == ("empty table", ())


class OverTime(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Raise :class:`OverTime` in the block once ``seconds`` have passed."""
    def over(signum, frame):
        raise OverTime

    previous = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_public_function_refuses_a_broken_group():
    """The group twin of the table and bundle gates, on each table of
    :func:`edited_group_tables`.  ``FiniteGroup`` builds a group that
    ``verify_group`` passes, or refuses the table with a ``ValueError``
    that carries ``verify_group``'s failure and witness.  Every public
    function that takes a group, given the group built from the table,
    gives a result or a ``ValueError`` within 2 s a call: any other
    exception fails the test, with its count per function.  On the clean
    tables, every function gives a result."""
    def elementwise(method):
        return lambda g: [method(g, a, b) for a in g.elements
                          for b in g.elements]

    calls = {
        "mul": elementwise(FiniteGroup.mul),
        "inverse": lambda g: [g.inverse(a) for a in g.elements],
        "conjugate": elementwise(FiniteGroup.conjugate),
        "generated_subgroup": lambda g: generated_subgroup(g, [1, 2]),
        "are_conjugate_subgroup_maps": lambda g: are_conjugate_subgroup_maps(
            g, [1, 2], [2, 1]),
        "element_order": lambda g: [element_order(g, a) for a in g.elements],
        "find_group_isomorphism": lambda g: find_group_isomorphism(g, clean),
        "find_group_isomorphism from": lambda g: find_group_isomorphism(
            clean, g),
        "fixed_points": lambda g: fixed_points(g, [list(row) for row in
                                                   g.mult]),
        "extreme_amenability_check": extreme_amenability_check,
        "is_trivial": lambda g: is_trivial(CocycleBundle.from_edge_labels(
            BaseGraph.wedge_of_loops(2), g, [1, 2])),
        "point_base_degenerate": point_base_degenerate,
        "one_object_groupoid": one_object_groupoid,
        "group_to_json": group_to_json}
    outcomes, verdicts = Counter(), Counter()
    for name, edit, table in edited_group_tables():
        clean = preset_group(name)
        diag, group = verify_group(table, 0)
        assert build_group({"mult": table, "identity": 0}) == (diag, group)
        verdicts[diag.ok, diag.failure and diag.failure.split()[0]] += 1
        try:
            built = FiniteGroup(table, 0)
        except ValueError as refused:
            assert not diag.ok, (name, edit, table)
            assert str(refused) == (
                f"not a group: {diag.failure} {diag.witness}")
        else:
            assert diag.ok and built == group, (name, edit, table)
        for fname, call in calls.items():
            try:
                with time_limit(2.0):
                    call(FiniteGroup(table, 0))
            except ValueError:
                outcome = "ValueError"
            except Exception as error:  # the gate: counted, then failed
                outcome = type(error).__name__
            else:
                outcome = "result"
            outcomes[fname, diag.ok, outcome] += 1
    others = {key: n for key, n in outcomes.items()
              if key[2] not in ("result", "ValueError")}
    assert others == {}, others
    for name in ("S3", "Z4", "D4", "Q8", "Z6"):  # a clean group: a result
        clean = preset_group(name)
        for call in calls.values():
            call(clean)
    # every edit breaks a group table, each kind of law somewhere
    assert {key[1] for key in verdicts} == {
        "entry", "table", "identity", "row"}, verdicts
    assert sum(verdicts.values()) == 150 and not any(
        ok for ok, _ in verdicts), verdicts


def test_the_law_scan_runs_once_per_group_built(monkeypatch):
    """``verify_group`` and each of its callers build one group, passed or
    refused, and the law scan runs once for it."""
    scans = []

    def counted(table, identity):
        scans.append(len(table))
        return law_scan(table, identity)

    law_scan = algebra._law_scan
    monkeypatch.setattr(algebra, "_law_scan", counted)
    builds = [
        lambda: verify_group([[0, 1], [1, 0]], 0),
        lambda: verify_group([[0, 1], [1, 1]], 0),
        lambda: FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0),
        lambda: preset_group.__wrapped__("S3"),
        lambda: build_group({"mult": [[0, 1], [1, 0]], "identity": 0}),
        lambda: vertex_group(pair_groupoid(3), 0)]
    for build in builds:
        build()
    assert scans == [2, 2, 3, 6, 2, 1]


def test_a_constructed_group_derives_its_order_and_inverses():
    """The table is kept as a tuple of tuples, and ``order`` and ``inv``
    are read off it, never given."""
    group = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, "Z3")
    assert group.mult == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert (group.order, group.inv, group.name) == (3, (0, 2, 1), "Z3")
    with pytest.raises(TypeError):
        FiniteGroup(((0,),), 0, order=1)
    with pytest.raises(ValueError, match=r"^not a group: entry out of range"
                                         r" \(0, 1, True\)$"):
        FiniteGroup([[0, True], [1, 0]], 0)


# --- presets -------------------------------------------------------------

EXPECTED_ORDERS = {"Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6,
                   "S3": 6, "D4": 8, "Q8": 8, "S4": 24}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_are_verified_groups_with_identity_zero(name):
    group = preset_group(name)
    assert group.order == EXPECTED_ORDERS[name]
    assert group.identity == 0
    assert group.name == name
    assert naive_group_check(group.mult, 0)


def test_preset_cyclic_arithmetic():
    z3 = preset_group("Z3")
    assert z3.mul(1, 1) == 2
    assert z3.mul(2, 2) == 1
    assert z3.inv == (0, 2, 1)


def test_preset_s3_is_nonabelian_with_lex_order():
    s3 = preset_group("S3")
    # permutations in lexicographic order: index 1 is the swap of 1,2 and
    # index 2 the swap of 0,1; they do not commute
    assert s3.mul(1, 2) == 4
    assert s3.mul(2, 1) == 3
    witness = [(a, b) for a in s3.elements for b in s3.elements
               if s3.mul(a, b) != s3.mul(b, a)]
    assert witness, "S3 must be nonabelian"


def test_preset_q8_quaternion_relations():
    q8 = preset_group("Q8")
    one, i, j, k, minus_one = 0, 1, 2, 3, 4
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == 4 + k
    assert q8.mul(i, i) == minus_one
    assert q8.mul(j, j) == minus_one
    assert q8.mul(k, k) == minus_one
    assert q8.mul(minus_one, minus_one) == one


def test_preset_d4_relations():
    d4 = preset_group("D4")
    r, s = 1, 4
    assert d4.mul(r, s) != d4.mul(s, r)
    # r has order 4, s has order 2, and s r s = r^-1
    assert d4.mul(d4.mul(r, r), d4.mul(r, r)) == 0
    assert d4.mul(s, s) == 0
    assert d4.mul(d4.mul(s, r), s) == d4.inv[r]


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        preset_group("Z5")


# --- generated subgroups -------------------------------------------------

def test_generated_subgroup_examples():
    z4 = preset_group("Z4")
    assert generated_subgroup(z4, [2]) == [0, 2]
    assert generated_subgroup(z4, []) == [0]
    s3 = preset_group("S3")
    assert generated_subgroup(s3, [3, 1]) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_generated_subgroup_matches_naive_closure(name):
    group = preset_group(name)
    singles = [[g] for g in group.elements]
    pairs = [[a, b] for a in group.elements for b in group.elements if a < b]
    for gens in [[]] + singles + pairs:
        got = generated_subgroup(group, gens)
        assert got == naive_closure(group.mult, group.identity, gens)
        # closure property: the result is itself closed
        assert all(group.mul(a, b) in got for a in got for b in got)
        assert all(group.inv[a] in got for a in got)


def test_generated_subgroup_rejects_bad_generator():
    with pytest.raises(ValueError):
        generated_subgroup(preset_group("Z2"), [5])


# --- conjugacy of element tuples ----------------------------------------

def test_conjugate_maps_identity_case():
    s3 = preset_group("S3")
    assert are_conjugate_subgroup_maps(s3, [0, 1, 2], [0, 1, 2]) == 0


def test_conjugate_maps_transpositions_in_s3():
    s3 = preset_group("S3")
    h = are_conjugate_subgroup_maps(s3, [1], [2])
    assert h == 3
    assert s3.conjugate(1, h) == 2
    # lowest-index tie break: no smaller h works
    assert all(s3.conjugate(1, hh) != 2 for hh in range(h))


def test_conjugate_maps_fails_in_abelian_group():
    z4 = preset_group("Z4")
    assert are_conjugate_subgroup_maps(z4, [1], [3]) is None


def test_conjugate_maps_length_mismatch():
    with pytest.raises(ValueError):
        are_conjugate_subgroup_maps(preset_group("Z2"), [0], [0, 1])


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_conjugacy_is_symmetric(name):
    group = preset_group(name)
    for a in group.elements:
        for b in group.elements:
            fwd = are_conjugate_subgroup_maps(group, [a], [b])
            bwd = are_conjugate_subgroup_maps(group, [b], [a])
            assert (fwd is None) == (bwd is None)
            if fwd is not None:
                assert group.conjugate(b, group.inv[fwd]) == a


# --- element orders and isomorphism search ---------------------------------


@pytest.mark.parametrize("preset,orders", [
    ("Z4", [1, 4, 2, 4]),
    ("S3", [1, 2, 2, 3, 3, 2]),
    ("Q8", [1, 4, 4, 4, 2, 4, 4, 4]),
])
def test_element_orders(preset, orders):
    grp = preset_group(preset)
    assert [element_order(grp, g) for g in grp.elements] == orders


def test_element_order_range():
    with pytest.raises(ValueError, match=r"^g = 5 outside range\(2\)$"):
        element_order(preset_group("Z2"), 5)


def test_element_order_stops_at_the_order():
    """A monoid written into a verified Z2: the powers of 1 never reach
    the identity, and the search stops after ``order`` steps."""
    monoid = FiniteGroup(((0, 1), (1, 0)), 0)
    object.__setattr__(monoid, "mult", ((0, 1), (1, 1)))
    with time_limit(2.0), pytest.raises(
            ValueError, match="^element 1 has no order up to 2$"):
        element_order(monoid, 1)


def test_isomorphism_to_itself_is_found():
    for preset in ("Z4", "S3", "D4", "Q8"):
        grp = preset_group(preset)
        image = find_group_isomorphism(grp, grp)
        assert image is not None
        for a in grp.elements:
            for b in grp.elements:
                assert image[grp.mul(a, b)] == grp.mul(image[a], image[b])


def test_isomorphism_between_relabelled_copies():
    # Z4 written with its generator moved to index 3
    base = preset_group("Z4")
    perm = [0, 3, 2, 1]
    table = [[perm[base.mul(a, b)] for b in perm] for a in perm]
    _, other = verify_group(table, identity=0)
    image = find_group_isomorphism(base, other)
    assert image is not None
    assert image[0] == 0
    for a in base.elements:
        for b in base.elements:
            assert image[base.mul(a, b)] == other.mul(image[a], image[b])


def test_no_isomorphism_between_z4_and_klein():
    klein = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    _, v4 = verify_group(klein, identity=0)
    assert find_group_isomorphism(preset_group("Z4"), v4) is None
    assert find_group_isomorphism(v4, preset_group("Z4")) is None


def test_no_isomorphism_between_d4_and_q8():
    # same order, different counts of order-2 elements
    assert find_group_isomorphism(preset_group("D4"), preset_group("Q8")) is None


def test_isomorphism_order_mismatch():
    assert find_group_isomorphism(preset_group("Z2"), preset_group("Z4")) is None


def relabelled(grp, seed):
    """``grp`` with its elements renamed by a seeded shuffle, identity too."""
    perm = list(grp.elements)
    random.Random(seed).shuffle(perm)
    table = [[0] * grp.order for _ in grp.elements]
    for a in grp.elements:
        for b in grp.elements:
            table[perm[a]][perm[b]] = perm[grp.mul(a, b)]
    _, group = verify_group(table, identity=perm[grp.identity])
    return group


def direct_product(g1, g2):
    n = g2.order
    table = [[g1.mul(a // n, b // n) * n + g2.mul(a % n, b % n)
              for b in range(g1.order * n)] for a in range(g1.order * n)]
    _, group = verify_group(table, identity=g1.identity * n + g2.identity)
    return group


def test_isomorphism_search_matches_backtracking():
    """The search one generator at a time against the old backtracking
    search, on every equal-order pair (775) of: the presets, Z2^k for k up
    to 5, Z4 x Z4 and Q8 x Z2, and four seeded relabellings of each."""
    z2 = preset_group("Z2")
    base = [preset_group(name) for name in PRESET_NAMES]
    power = z2
    for _ in range(2, 6):  # Z2^2 ... Z2^5
        power = direct_product(power, z2)
        base.append(power)
    base += [direct_product(preset_group("Z4"), preset_group("Z4")),
             direct_product(preset_group("Q8"), z2)]
    groups = base + [relabelled(g, seed) for g in base for seed in range(4)]
    found = []
    for g1 in groups:
        for g2 in groups:
            if g1.order == g2.order:
                image = find_group_isomorphism(g1, g2)
                assert image == backtrack_group_isomorphism(g1, g2)
                found.append(image is not None)
    assert len(found) == 775 and not all(found)
    # Z4 x Z4 and Q8 x Z2 have the same element-order counts, so only the
    # search tells them apart
    z4z4, q8z2 = base[-2:]
    assert sorted(element_order(z4z4, g) for g in z4z4.elements) == \
        sorted(element_order(q8z2, g) for g in q8z2.elements)
    assert find_group_isomorphism(z4z4, q8z2) is None

