"""The three workloads: seeded inputs, the CLI calls of one round, and the
independent check of every call's output.

A workload is a list of steps.  One round runs every step once, in order,
as a ``gpdflow`` subprocess; a step may read an earlier step's stdout as its
stdin, which is how the ``groupoidify | bundleize | holonomy`` pipe is
chained.  Each step names the end-to-end stage metric its CPU time counts
toward, if any, and carries a check that raises ``CheckFailed``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from oracle import (GRAPHS, Bundle, Group, Transport, action_law_broken,
                    bundle_of_json, canonical, gauge_conjugation_equivalent,
                    group, group_axioms_hold, group_law_broken,
                    groupoid_law_broken, transport_connection)

WORKLOADS = ("transport-pipe", "ambit-flow", "corpus")

# transport-pipe: 12 vertices with S4 gives 3,456 arrows, 995,328 composable
# pairs, 2.9e8 composable triples (far above gpdflow's FULL_ASSOC_LIMIT of
# 3e6) and a 16 MB groupoid report
PIPE_VERTICES = 12
# ambit-flow: 7 vertices with S4 gives 168 ambit points, 28,224 act entries;
# at 8 vertices a round takes up to 25 s on a slow host, and two rounds of
# it would not fit the run budget
FLOW_VERTICES = 7
# the small companion instance that gives each large workload every stage
COMPANION_VERTICES = 3
# a stage call that is mostly process start-up is made this many times per
# round: its time is the fastest call, and start-up time on a shared
# machine swings by a factor of two from call to call
SHORT_STAGE_REPEAT = 5
FIXTURE_COMMANDS = ("verify", "groupoidify", "bundleize", "roundtrip",
                    "holonomy", "trivial", "orbits", "ambit", "universal",
                    "sections", "semigroup", "ea")
MATRIX_GROUPS = ("Z2", "Z3", "Z4", "S3", "D4", "Q8")
FIXTURE_EA_GROUPS = ("Z1", "Z2", "Z3", "S3", "S4")


class CheckFailed(Exception):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """One finished CLI call."""

    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float
    _report: Optional[dict] = None

    @property
    def report(self) -> dict:
        if self._report is None:
            self._report = json.loads(self.out)
        return self._report


@dataclass
class Step:
    name: str
    argv: list[str]
    check: Callable[[Outcome], None]
    stdin: Optional[str] = None      # name of the step whose stdout is fed in
    stage: Optional[str] = None      # end-to-end stage metric it counts toward
    defect: Optional[str] = None     # known defect this call reproduces
    repeat: int = 1                  # calls per round


@dataclass
class Workload:
    name: str
    steps: list[Step]
    lookup_input: str                # bundle file whose groupoid the lookup probe uses
    notes: dict = field(default_factory=dict)


# --- checks shared by every call ------------------------------------------------


def check_contract(o: Outcome) -> None:
    """Exit 0, 1 or 2; exactly one canonical JSON report on stdout; empty
    stderr; exit 2 exactly when the report carries an ``error``."""
    need(o.rc in (0, 1, 2), f"exit code {o.rc}")
    need(not o.err, f"stderr not empty: {o.err[-200:]!r}")
    text = o.out.decode("utf-8", "replace")
    need(text.endswith("\n") and "\n" not in text[:-1],
         "stdout is not exactly one line")
    try:
        report = o.report
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    need(isinstance(report, dict), "report is not an object")
    need(canonical(report) == text[:-1], "report is not canonical JSON")
    need((o.rc == 2) == ("error" in report),
         f"exit {o.rc} disagrees with the error key")


def passes(o: Outcome) -> list[dict]:
    need(o.rc == 0 and o.report["ok"] is True,
         f"expected a passing report, got exit {o.rc}")
    runs = o.report["runs"]
    for run in runs:
        for v in run["verdicts"]:
            need(v["ok"], f"verdict {v['property']!r} failed")
    return runs


def single(o: Outcome) -> dict:
    runs = passes(o)
    need(len(runs) == 1, f"expected one run, got {len(runs)}")
    return runs[0]


# --- the transport pipe ------------------------------------------------------------


def check_transport_run(run: dict, b: Bundle, rng: random.Random,
                        sample: int) -> None:
    """The groupoid of ``b`` against the closed form, from the report's own
    ``coords``: arrow and pair counts, every coordinate once, endpoints,
    units, a sample of products, inverses, and the connection."""
    t = Transport(b.n, b.grp)
    model = run["model"]
    k = b.n ** 2 * b.grp.order
    need(model["arrows"] == k == len(model["src"]),
         f"arrow count {model['arrows']} != |V|^2 |G| = {k}")
    need(run["facts"]["arrows"] == k, "facts.arrows disagrees")
    coords = [None] * k
    for entry in model["coords"]:
        coords[entry["arrow"]] = tuple(entry["coord"])
    need(set(coords) == set(t.coords),
         "coords are not a bijection onto V x V x G")
    src, tgt = model["src"], model["tgt"]
    need(all(src[i] == c[0] and tgt[i] == c[1] for i, c in enumerate(coords)),
         "src/tgt disagree with coords")
    need(all(coords[model["unit"][x]] == (x, x, 0) for x in range(b.n)),
         "unit arrows are not (x, x, e)")
    comp = model["comp"]
    need(len(comp) == t.comp_count(),
         f"{len(comp)} comp entries, expected sum in*out = {t.comp_count()}")
    mul = b.grp.mult
    picks = range(len(comp)) if len(comp) <= sample else \
        rng.sample(range(len(comp)), sample)
    for i in picks:
        g, h, gh = comp[i]
        (v, w, a), (w2, z, c) = coords[g], coords[h]
        need(w == w2 and coords[gh] == (v, z, mul[a][c]),
             f"comp entry {comp[i]} breaks (v,w,a)(w,z,b) = (v,z,ab)")
    inv = model["inv"]
    for i, (v, w, a) in enumerate(coords):
        need(coords[inv[i]] == (w, v, b.grp.inv[a]),
             f"inverse of arrow {i} is not (w, v, a^-1)")
    want = [t.coords[a] for a in transport_connection(t, b)]
    got = [None] * len(want)
    for d, arrow in model["connection"]:
        got[d] = coords[arrow]
    need(got == want, "connection arrows are not (dsrc, dtgt, label^-1)")


def pipe_steps(prefix: str, path: str, b: Bundle, seed: int,
               repeat: int) -> list[Step]:
    rng = random.Random(f"{prefix}:{seed}:sample")

    def groupoid(o: Outcome) -> None:
        check_transport_run(single(o), b, rng, sample=20_000)

    def bundleize(o: Outcome) -> None:
        back = bundle_of_json(single(o)["model"])
        need(gauge_conjugation_equivalent(b, back),
             "bundleize output is not gauge-and-conjugation equivalent "
             "to the input bundle")

    def holonomy(o: Outcome) -> None:
        facts = single(o)["facts"]
        need(facts["order"] == len(facts["subgroup"]) == b.holonomy_order(),
             f"holonomy order {facts['order']} != {b.holonomy_order()}")

    return [
        Step(f"{prefix}.groupoidify", ["groupoidify", path], groupoid,
             stage="groupoidify_s", repeat=repeat),
        Step(f"{prefix}.bundleize", ["bundleize", "-"], bundleize,
             stdin=f"{prefix}.groupoidify", stage="bundleize_s", repeat=repeat),
        Step(f"{prefix}.holonomy", ["holonomy", "-"], holonomy,
             stdin=f"{prefix}.bundleize"),
    ]


# --- the ambit flow -------------------------------------------------------------------


def check_ambit_run(run: dict, b: Bundle) -> None:
    """Every act entry against the closed form: ``points[z] = points[y] g``."""
    t = Transport(b.n, b.grp)
    model = run["model"]
    gpd = model["groupoid"]
    need(gpd["src"] == [c[0] for c in t.coords]
         and gpd["tgt"] == [c[1] for c in t.coords],
         "groupoid arrows are not indexed units first, then (v, w, a) "
         "in lexicographic order")
    points = model["points"]
    need(points == t.out[0], "ambit points are not the arrows out of 0")
    need(model["space"] == len(points) == run["facts"]["space"],
         "space disagrees with the point count")
    need(model["u0"] == 0 and model["basepoint"] == 0, "wrong basepoint")
    need(model["anchor"] == [t.coords[p][1] for p in points],
         "anchor is not the target map")
    act = model["act"]
    need(len(act) == len(points) * b.n * b.grp.order,
         f"{len(act)} act entries, expected points x out-degree")
    mul = b.grp.mult
    for y, g, z in act:
        v, w, a = t.coords[points[y]]
        w2, x, c = t.coords[g]
        need(w == w2 and t.coords[points[z]] == (v, x, mul[a][c]),
             f"act entry {[y, g, z]} breaks points[z] = points[y] g")


def flow_steps(prefix: str, path: str, b: Bundle, repeat: int) -> list[Step]:
    n = b.grp.order

    def ambit(o: Outcome) -> None:
        check_ambit_run(single(o), b)

    def semigroup(o: Outcome) -> None:
        facts = single(o)["facts"]
        table = facts["table"]
        need(len(table) == n and group_axioms_hold(table),
             "fiber table is not a group of order |G|")
        need(Group("", table).order_profile() == b.grp.order_profile(),
             "fiber group has the wrong element-order profile")
        need(len(facts["idempotents"]) == 1, "more than one idempotent")

    def universal(o: Outcome) -> None:
        count = single(o)["facts"]["count"]
        need(count == n, f"{count} equivariant maps, expected |G| = {n}")

    def sections(o: Outcome) -> None:
        count = single(o)["facts"]["count"]
        need(count == (1 if n == 1 else 0), f"{count} invariant sections")

    def orbits(o: Outcome) -> None:
        facts = single(o)["facts"]
        need(facts["count"] == 1
             and facts["orbits"] == [list(range(b.n * n))],
             "the ambit is not one orbit")

    return [
        Step(f"{prefix}.ambit", ["ambit", path], ambit, stage="ambit_s",
             repeat=repeat),
        Step(f"{prefix}.semigroup", ["semigroup", path], semigroup),
        Step(f"{prefix}.universal", ["universal", path], universal),
        Step(f"{prefix}.sections", ["sections", path], sections),
        Step(f"{prefix}.orbits", ["orbits", "-"], orbits,
             stdin=f"{prefix}.ambit", stage="action_reload_s", repeat=repeat),
    ]


# --- the corpus ------------------------------------------------------------------------


def _fixture_step(command: str) -> Step:
    def check(o: Outcome) -> None:
        runs = passes(o)
        if command == "ea":
            names = [entry["name"] for entry in o.report["inputs"]]
            need(names == list(FIXTURE_EA_GROUPS), f"ea inputs {names}")
            for name, run in zip(names, runs):
                need(run["facts"]["extremely_amenable"]
                     == (group(name).order == 1),
                     f"ea answers wrongly for {name}")
    stage = {"groupoidify": "groupoidify_s", "bundleize": "bundleize_s",
             "ambit": "ambit_s", "orbits": "action_reload_s"}.get(command)
    return Step(f"fixtures.{command}", [command, "--fixtures"], check,
                stage=stage, repeat=SHORT_STAGE_REPEAT if stage else 1)


def _matrix_steps(paths: list[str], bundles: list[Bundle]) -> list[Step]:
    rng = random.Random(0)

    def each(o: Outcome) -> list[tuple[dict, Bundle]]:
        runs = passes(o)
        need(len(runs) == len(bundles), "one run per input expected")
        return list(zip(runs, bundles))

    def groupoidify(o: Outcome) -> None:
        for run, b in each(o):
            check_transport_run(run, b, rng, sample=10 ** 9)

    def roundtrip(o: Outcome) -> None:
        for run, b in each(o):
            need(gauge_conjugation_equivalent(b, bundle_of_json(run["model"])),
                 f"roundtrip of {run['input']} is not equivalent")

    def trivial(o: Outcome) -> None:
        for run, b in each(o):
            need(run["facts"]["trivial"] == (b.holonomy_order() == 1),
                 f"trivial answers wrongly for {run['input']}")

    def holonomy(o: Outcome) -> None:
        for run, b in each(o):
            need(run["facts"]["order"] == b.holonomy_order(),
                 f"holonomy order wrong for {run['input']}")

    return [Step("matrix.groupoidify", ["groupoidify", *paths], groupoidify,
                 stage="groupoidify_s", repeat=SHORT_STAGE_REPEAT),
            Step("matrix.roundtrip", ["roundtrip", *paths], roundtrip),
            Step("matrix.trivial", ["trivial", *paths], trivial),
            Step("matrix.holonomy", ["holonomy", *paths], holonomy)]


def _mutant_step(name: str, path: str, model: dict, kind: str) -> Step:
    law = {"groupoid": groupoid_law_broken, "action": action_law_broken,
           "group": group_law_broken}[kind]

    def check(o: Outcome) -> None:
        need(o.rc == 1, f"mutated model exits {o.rc}, expected 1")
        failed = [v for v in o.report["runs"][0]["verdicts"] if not v["ok"]]
        need(len(failed) == 1, "expected one failed verdict")
        v = failed[0]
        need(v["witness"] is not None
             and law(model, v["failure"], tuple(v["witness"])),
             f"witness {v['witness']} does not break {v['failure']!r} "
             "in the mutated table")
    return Step(name, ["verify", path], check)


def _malformed_step(name: str, path: str, code: int) -> Step:
    def check(o: Outcome) -> None:
        need(o.rc == 2 and o.report["error"]["code"] == code,
             f"expected exit 2 with error code {code}")
    return Step(name, ["verify", path], check)


def _mutations(rng: random.Random, write) -> list[Step]:
    """Seeded single-entry corruptions of small models, each of which breaks
    exactly one law that the program must report with a true witness."""
    small = Transport(2, group("S3"))
    units = set(range(small.m))
    steps = []

    def swap_comp(t: Transport, name: str) -> None:
        model = t.groupoid_json()
        while True:  # a pair the unit and inverse scans do not look at
            i = rng.randrange(len(model["comp"]))
            g, h, gh = model["comp"][i]
            if min(g, h) >= t.m and h != t.inverse(g):
                break
        v, _, _ = t.coords[g]
        _, z, _ = t.coords[h]
        other = [a for a, c in enumerate(t.coords)
                 if c[0] == v and c[1] == z and a != gh]
        model["comp"][i][2] = rng.choice(other)
        steps.append(_mutant_step(name, write(name, model), model, "groupoid"))

    swap_comp(small, "mutant.groupoid-comp")
    # 4 objects with S4: 3,538,944 composable triples, just above
    # FULL_ASSOC_LIMIT, so the generator-based engine finds the violation
    swap_comp(Transport(4, group("S4")), "mutant.groupoid-comp-generated")

    model = small.groupoid_json()
    x = rng.randrange(small.m)
    model["unit"][x] = rng.choice([a for a, c in enumerate(small.coords)
                                   if c[:2] == (x, x) and a not in units])
    steps.append(_mutant_step("mutant.groupoid-unit",
                              write("mutant.groupoid-unit", model), model,
                              "groupoid"))

    model = small.groupoid_json()
    a = rng.randrange(small.m, small.n_arrows)
    true_inv = small.inverse(a)
    v, w, _ = small.coords[true_inv]
    model["inv"][a] = rng.choice([c for c, xy in enumerate(small.coords)
                                  if xy[:2] == (v, w) and c != true_inv])
    steps.append(_mutant_step("mutant.groupoid-inverse",
                              write("mutant.groupoid-inverse", model), model,
                              "groupoid"))

    for flavour in ("act", "unit"):
        model = small.ambit_json()
        anchor = model["anchor"]
        entries = [i for i, (y, g, z) in enumerate(model["act"])
                   if (g in units) == (flavour == "unit")]
        i = rng.choice(entries)
        y, g, z = model["act"][i]
        model["act"][i][2] = rng.choice(
            [p for p in range(model["space"]) if anchor[p] == anchor[z]
             and p != z])
        name = f"mutant.action-{flavour}"
        steps.append(_mutant_step(name, write(name, model), model, "action"))

    d4 = group("D4")
    n = d4.order
    i, j1, j2 = rng.randrange(1, n), *rng.sample(range(1, n), 2)
    mult = [list(row) for row in d4.mult]
    mult[i][j1], mult[i][j2] = mult[i][j2], mult[i][j1]
    model = {"kind": "group", "order": n, "identity": 0, "mult": mult}
    steps.append(_mutant_step("mutant.group-swap",
                              write("mutant.group-swap", model), model, "group"))
    mult = [list(row) for row in d4.mult]
    mult[i][j1] = rng.choice([c for c in range(n) if c != mult[i][j1]])
    model = {"kind": "group", "order": n, "identity": 0, "mult": mult}
    steps.append(_mutant_step("mutant.group-entry",
                              write("mutant.group-entry", model), model,
                              "group"))
    return steps


def _malformed(write) -> list[Step]:
    bad_bool = Transport(2, group("Z2")).groupoid_json()
    bad_bool["src"][1] = True
    b = Bundle(*GRAPHS["triangle"], group("Z3"), [0, 1, 2])
    bad_index = b.json()
    bad_index["labels"][1] = 3
    return [
        _malformed_step("malformed.bool", write("malformed.bool", bad_bool), 12),
        _malformed_step("malformed.index", write("malformed.index", bad_index),
                        12),
        _malformed_step("malformed.kind",
                        write("malformed.kind", {"kind": "hypergroupoid"}), 11),
    ]


def _defects(write) -> list[Step]:
    """The two known defects, on fixed inputs: each call fails every time
    until the program is fixed."""
    # (a) the groupoid of triangle-z2-twisted with every dart's connection
    # arrow set to 0: the recovered base graph is disconnected
    z2 = group("Z2")
    twisted = Transport(3, z2).groupoid_json(connection=[0] * 6)

    def bundleize(o: Outcome) -> None:
        need((o.rc == 1 and not all(v["ok"] for v in o.report["runs"][0]["verdicts"]))
             or (o.rc == 2 and "error" in o.report),
             "expected a failed verdict or an error report")

    # (b) the point-s3 ambit with a conflicting duplicate act entry first
    ambit = Transport(1, group("S3")).ambit_json()
    y, g, z = ambit["act"][8]
    ambit["act"].insert(0, [y, g, (z + 1) % ambit["space"]])

    def verify(o: Outcome) -> None:
        need(o.rc == 1 and not o.report["runs"][0]["verdicts"][0]["ok"],
             f"duplicate act entry accepted (exit {o.rc})")

    return [
        Step("defect.bundleize-disconnected",
             ["bundleize", write("defect.bundleize-disconnected", twisted)],
             bundleize, defect="bundleize-traceback"),
        Step("defect.duplicate-act",
             ["verify", write("defect.duplicate-act", ambit)], verify,
             defect="duplicate-act-dropped"),
    ]


# --- assembling a workload --------------------------------------------------------------


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the seeded inputs of one workload into ``workdir`` and return
    its steps.  Paths in the steps are relative to ``workdir``."""

    def write(stem: str, model: dict) -> str:
        path = f"{stem}.json"
        (workdir / path).write_text(canonical(model))
        return path

    rng = random.Random(f"{name}:{seed}")
    s4, s3 = group("S4"), group("S3")
    if name in ("transport-pipe", "ambit-flow"):
        big_n = PIPE_VERTICES if name == "transport-pipe" else FLOW_VERTICES
        big = Bundle.random(rng, big_n, big_n // 2, s4)
        small = Bundle.random(rng, COMPANION_VERTICES, 1, s3)
        big_path, small_path = write("big", big.json()), write("small", small.json())
        if name == "transport-pipe":
            steps = pipe_steps("pipe", big_path, big, seed, 1) \
                + flow_steps("companion", small_path, small, SHORT_STAGE_REPEAT)
        else:
            steps = flow_steps("flow", big_path, big, 1) \
                + pipe_steps("companion", small_path, small, seed,
                             SHORT_STAGE_REPEAT)
        return Workload(name, steps, lookup_input=big_path,
                        notes={"vertices": big_n, "edges": len(big.edges)})
    if name == "corpus":
        steps = [_fixture_step(c) for c in FIXTURE_COMMANDS]
        bundles, paths = [], []
        for gname in MATRIX_GROUPS:
            grp = group(gname)
            for graph_name, (n, edges) in GRAPHS.items():
                b = Bundle(n, edges, grp,
                           [rng.randrange(grp.order) for _ in edges])
                bundles.append(b)
                paths.append(write(f"matrix-{gname}-{graph_name}", b.json()))
        steps += _matrix_steps(paths, bundles)
        steps += _mutations(rng, write)
        steps += _malformed(write)
        steps += _defects(write)
        lookup = write("lookup", Bundle.random(rng, 4, 2, s4).json())
        return Workload(name, steps, lookup_input=lookup)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
