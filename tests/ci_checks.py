"""Every check that CI runs on the command line, against this checkout.

Run it from the repository, with no install and no argument:

    PYTHONPATH=src python tests/ci_checks.py

Each check is one function, named after the check and run in order by
:func:`main`, which stops at the first failure with its traceback.  Every
``gpdflow`` call goes through :func:`run`, which starts ``python -m
gpdflow.cli`` with this checkout's ``src`` on ``PYTHONPATH``: a console
script found on ``PATH`` may belong to another tree.  The report contract
(exit code, empty stderr, one canonical JSON line) is :func:`report`.
Every file is written in one temporary directory, so the checkout stays
clean.  The first line printed names the Python and numpy versions, since
the sha256 pins below were made under one of each.
"""
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from contextlib import ExitStack, suppress
from pathlib import Path

import numpy as np

from gpdflow.cli import COMMANDS, run_command
from gpdflow.ehresmann import groupoid_of_bundle
from gpdflow.fixtures import large_random_bundle, named_bundles
from gpdflow.serialize import bundle_to_json, canonical_dumps, \
    groupoid_to_json, load_model, transport_to_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

# the 12-vertex S4 bundle b12.json, its groupoidify and ambit reports, and
# bundleize on the groupoidify report
PINNED = {
    "b12.json":
        "bd1d205b7001ec0ca90a76fb6b6728cadc6c73f6c90631cac11fe00f9be7afff",
    "g12.json":
        "fa04a493f4a64be8383c6f424dbbc797881a2ef065902fde80442bef16505748",
    "a12.json":
        "a931419c7bd39b806568f507a75597c167cd4efb8fdc85408a08e37adcea3d00",
    "z12.json":
        "a6f6a3552a27b8d02a836a7d6ec59313c92722abe62f11b0faf2b671106771ad",
}
# verify on the edited tables: associativity [12, 35, 301]; action
# associativity [0, 35, 300]; duplicate comp pair [12, 13]; missing entry
# [12, 13]
EDITED = {
    "g12bad":
        "8d0c70c2f2424f393e32f5dd9b05a1a2c4be7e4c684e77d4651b03d0ceef7d89",
    "a12bad":
        "d092d186ca6459cf76ad46665c1743ced074268a6de4324e309f1982bb4694b0",
    "g12dup":
        "3eafe09acc63bdc0b0e0b706195b6bb8977a804116849362a332a5da904ccc66",
    "g12hole":
        "2577315c22a10383a44eca6cdbe0f7337f820db30268f7cab7f850740083911c",
}
# pair_groupoid(2) without the comp entries [1,3,3] and [3,0,3]: the first
# missing pair in row order is [1,3].  Its ambit at 0 with [0,1,0] (off the
# domain) first and [1,1,1] given twice: a repeated pair comes before a pair
# off the domain.  The lawless twins have no flaw and break a law:
# pair_groupoid(2) with [2,3,0] made [2,3,2], and its ambit at 0 with
# [1,3,0] made [1,3,1]
FLAW_INPUTS = {
    "comp": '{"arrows":4,"comp":[[0,0,0],[0,2,2],[1,1,1],[2,1,2],[2,3,0],'
            '[3,2,1]],"inv":[0,1,3,2],"kind":"groupoid","objects":2,'
            '"src":[0,1,0,1],"tgt":[0,1,1,0],"unit":[0,1]}',
    "act": '{"act":[[0,1,0],[0,0,0],[0,2,1],[1,1,1],[1,3,0],[1,1,1]],'
           '"anchor":[0,1],"basepoint":0,"groupoid":{"arrows":4,"comp":'
           '[[0,0,0],[0,2,2],[1,1,1],[1,3,3],[2,1,2],[2,3,0],[3,0,3],'
           '[3,2,1]],"inv":[0,1,3,2],"kind":"groupoid","objects":2,'
           '"src":[0,1,0,1],"tgt":[0,1,1,0],"unit":[0,1]},"kind":"action",'
           '"points":[0,2],"space":2,"u0":0}',
    "comp-lawless": '{"arrows":4,"comp":[[0,0,0],[0,2,2],[1,1,1],[1,3,3],'
                    '[2,1,2],[2,3,2],[3,0,3],[3,2,1]],"inv":[0,1,3,2],'
                    '"kind":"groupoid","objects":2,"src":[0,1,0,1],'
                    '"tgt":[0,1,1,0],"unit":[0,1]}',
    "act-lawless": '{"act":[[0,0,0],[0,2,1],[1,1,1],[1,3,1]],"anchor":[0,1],'
                   '"basepoint":0,"groupoid":{"arrows":4,"comp":[[0,0,0],'
                   '[0,2,2],[1,1,1],[1,3,3],[2,1,2],[2,3,0],[3,0,3],'
                   '[3,2,1]],"inv":[0,1,3,2],"kind":"groupoid","objects":2,'
                   '"src":[0,1,0,1],"tgt":[0,1,1,0],"unit":[0,1]},'
                   '"kind":"action","points":[0,2],"space":2,"u0":0}',
}
FLAW_VERDICTS = {
    "comp": ("composability domain violated", [1, 3]),
    "act": ("duplicate act pair", [1, 1]),
    "comp-lawless": ("composition endpoints", [2, 3, 2]),
    "act-lawless": ("anchor compatibility", [1, 3]),
}
# every command that takes each model's kind
FLAW_COMMANDS = {
    "comp": ("verify", "ambit", "universal", "sections", "semigroup"),
    "act": ("verify", "orbits", "universal", "sections"),
}
FLAW_COMMANDS.update({f"{name}-lawless": commands
                      for name, commands in FLAW_COMMANDS.items()})
ERROR_CODES = {"missing": 10, "dart": 12, "identity": 2}
WIDTH_ERROR = {"code": 12, "message": "groupoid.comp[12345][2]: 77881 "
                                      "outside range [0, 32767)"}

# A child's ru_maxrss starts from the peak RSS of the process that spawned
# it (Linux carries the old address space's peak across exec), and this
# script grows with the models it builds.  So each run is started by a
# small interpreter, which ignores the PYTHON* variables (-E), spawns
# gpdflow, reaps it with wait4, writes its peak RSS in KiB, its CPU time
# (user and system) and its wall time from spawn to reaping, in seconds, to
# the file named first, and exits with its code.
WAIT4 = ("import os, sys, time; "
         "t = time.monotonic(); "
         "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ); "
         "_, status, usage = os.wait4(pid, 0); "
         "wall = time.monotonic() - t; "
         "open(sys.argv[1], 'w').write(f'{usage.ru_maxrss} "
         "{usage.ru_utime + usage.ru_stime} {wall}'); "
         "sys.exit(os.waitstatus_to_exitcode(status))")

Run = namedtuple("Run", "code out err peak_mb cpu_s wall_s")


def start(argv, usage, env=None, **popen):
    """Start ``python -m gpdflow.cli argv`` on this checkout's ``src``, its
    peak RSS, CPU and wall time to be written to the file ``usage``.  The
    child never sees ``PYTHONINTMAXSTRDIGITS`` or ``OPENBLAS_NUM_THREADS``
    unless ``env`` sets it."""
    return subprocess.Popen(
        [sys.executable, "-E", "-S", "-c", WAIT4, usage,
         sys.executable, "-m", "gpdflow.cli", *argv],
        env=child_env(env), **popen)


def child_env(env=None):
    """This environment without ``PYTHONINTMAXSTRDIGITS`` and
    ``OPENBLAS_NUM_THREADS``, with this checkout's ``src`` on
    ``PYTHONPATH`` and ``env`` on top."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONINTMAXSTRDIGITS", "OPENBLAS_NUM_THREADS")}
    return {**base, "PYTHONPATH": str(SRC), **(env or {})}


def run(argv, stdin=None, env=None, cwd=None):
    """Run ``gpdflow argv`` to its end.  ``stdin`` is None (empty), bytes
    (written through a pipe), a file name (opened as ``< name``) or an open
    file, such as a pipe's read end."""
    with ExitStack() as stack:
        out, err, usage = (stack.enter_context(tempfile.NamedTemporaryFile())
                           for _ in range(3))
        if isinstance(stdin, str):
            stdin = stack.enter_context(open(stdin, "rb"))
        proc = start(argv, usage.name, env, cwd=cwd, stdout=out, stderr=err,
                     stdin=subprocess.PIPE if isinstance(stdin, bytes)
                     else stdin or subprocess.DEVNULL)
        if isinstance(stdin, bytes):
            with suppress(BrokenPipeError), proc.stdin:
                proc.stdin.write(stdin)
        code = proc.wait()
        out.seek(0)
        err.seek(0)
        peak, cpu, wall = usage.read().split()
        return Run(code, out.read(), err.read(), int(peak) / 1024,
                   float(cpu), float(wall))


def output(argv, stdin=None):
    """The stdout of a run that must exit 0."""
    r = run(argv, stdin)
    assert r.code == 0, (argv, r.code, r.err[-2000:])
    return r.out


def report(outcome, code, error=None):
    """The report contract: exit ``code``, empty stderr, and stdout one
    canonical JSON line, with error code ``error`` if given.  Returns the
    report."""
    assert outcome.code == code, (outcome.code, code, outcome.err[-2000:])
    assert outcome.err == b"", outcome.err[-2000:]
    text = outcome.out.decode()
    parsed = json.loads(text)
    canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    assert text == canonical + "\n", "not one canonical JSON line"
    if error is not None:
        assert parsed["error"]["code"] == error, parsed
    return parsed


def write(name, data):
    Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())


def indented(name):
    """The file as ``python -m json.tool`` prints it."""
    return (json.dumps(json.loads(Path(name).read_text()), indent=4)
            + "\n").encode()


def sha256(name):
    return hashlib.sha256(Path(name).read_bytes()).hexdigest()


def fixture_goldens():
    """Fixture goldens: each command on the fixtures writes its golden."""
    for command in COMMANDS:
        golden = (GOLDEN / f"{command}.json").read_bytes()
        assert output([command, "--fixtures"]) == golden, command


def fixture_text_reports():
    """Fixture text reports: exit 0, empty stderr, last line a pass."""
    for command in COMMANDS:
        r = run([command, "--fixtures", "--format", "text"])
        assert r.code == 0, (command, r.code)
        assert r.err == b"", (command, r.err)
        last = r.out.decode().splitlines()[-1]
        assert last == "result: pass", (command, last)


def readme_pipe():
    """README pipe: groupoidify | bundleize - | holonomy -."""
    bundleized = output(["bundleize", "-"], output(["groupoidify",
                                                    "--fixtures"]))
    parsed = report(run(["holonomy", "-"], bundleized), 0)
    assert parsed["command"] == "holonomy" and parsed["ok"] is True


def indented_input_reads_like_compact_input():
    """Indented input reads like compact input: json.tool indents the
    tables, so bundleize and orbits read the whole input with json instead
    of decoding its tables as bytes.  So does the canonical groupoid of the
    5-vertex S4 bundle written with ", " separators, its comp table many
    read windows long, through verify."""
    for make, command in (("groupoidify", "bundleize"), ("ambit", "orbits")):
        write(f"{make}.json", output([make, "--fixtures"]))
        compact = output([command, "-"], f"{make}.json")
        assert output([command, "-"], indented(f"{make}.json")) == compact, \
            command
    write("m5.json", canonical_dumps(groupoid_to_json(groupoid_of_bundle(
        large_random_bundle(5, 3, "S4")).groupoid)))
    spaced = json.dumps(json.loads(Path("m5.json").read_text()),
                        sort_keys=True, separators=(", ", ":")).encode()
    assert output(["verify", "-"], spaced) == \
        output(["verify", "-"], "m5.json"), "verify"


def input_digest_is_the_payload_sha256():
    """The input digest is the sha256 of the payload as given: compact (its
    tables read as bytes), indented by json.tool (read by json whole), and
    compact with two comp rows swapped."""
    write("compact.json", output(["groupoidify", "--fixtures"]))
    write("indented.json", indented("compact.json"))
    swapped = json.loads(Path("compact.json").read_text())
    comp = next(entry["model"] for entry in swapped["runs"]
                if "model" in entry)["comp"]
    comp[0], comp[1] = comp[1], comp[0]
    write("swapped.json", json.dumps(swapped, sort_keys=True,
                                     separators=(",", ":")))
    digests = {}
    for name in ("compact", "indented", "swapped"):
        given = json.loads(Path(f"{name}.json").read_text())
        payload = next(entry["model"] for entry in given["runs"]
                       if "model" in entry)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        out = output(["verify", "-"], f"{name}.json")
        digest = json.loads(out)["inputs"][0]["digest"]
        assert digest == hashlib.sha256(text.encode()).hexdigest(), name
        digests[name] = digest
    assert digests["compact"] == digests["indented"], digests
    assert digests["swapped"] != digests["compact"], digests


def input_nested_too_deeply():
    """Input nested too deeply is unreadable JSON, not a traceback."""
    write("deep.json", "[" * 100000 + "]" * 100000 + "\n")
    for r in (run(["verify", "deep.json"]), run(["verify", "-"], "deep.json")):
        report(r, 2, 10)


def integer_literal_too_long():
    """An integer literal too long to read, whatever the interpreter's
    limit on integer digits: unset, 0 and 640."""
    write("long.json", '{"kind":"group","order":1,"identity":0,"mult":[[0]],'
          '"x":' + "9" * 5000 + "}")
    for env in (None, {"PYTHONINTMAXSTRDIGITS": "0"},
                {"PYTHONINTMAXSTRDIGITS": "640"}):
        report(run(["verify", "-"], "long.json", env), 2, 10)


def command_line_that_does_not_parse():
    """A command line that does not parse is a canonical report with error
    code 2 and a message of at most 200 characters; a 5,000-digit
    basepoint gets the same report whatever the limit on integer digits."""
    word = "x" * 5000
    runs = [run(argv) for argv in (
        ["ambit", "--fixtures", "--basepoint", "abc"],
        ["frobnicate", "x.json"],
        ["ambit", "--fixtures", "--format", "xml"],
        ["ambit", "--fixtures", "--bogus"],
        [],
        [word, "x.json"],
        ["ambit", "--fixtures", "--" + word[2:]],
        ["ambit", "--fixtures", "--format", word])]
    longs = [run(["ambit", "--fixtures", "--basepoint", "9" * 5000],
                 env=env)
             for env in (None, {"PYTHONINTMAXSTRDIGITS": "0"},
                         {"PYTHONINTMAXSTRDIGITS": "640"})]
    for r in runs + longs:
        parsed = report(r, 2, 2)
        assert len(parsed["error"]["message"]) <= 200, parsed
    assert len({r.out for r in longs}) == 1, [r.out for r in longs]
    assert output(["--help"]).startswith(b"usage: gpdflow")


def missing_file_dart_named_twice_identity_off_0():
    """A missing file, a dart named twice, a round trip off identity 0."""
    model = transport_to_json(groupoid_of_bundle(named_bundles()["edge-s3"]))
    model["connection"] = [[0, a] for _, a in model["connection"]]
    write("dart.json", canonical_dumps(model))
    write("identity.json", canonical_dumps({
        "kind": "bundle",
        "graph": {"vertices": 2, "edges": [[0, 1]]},
        "group": {"order": 2, "identity": 1, "mult": [[1, 0], [0, 1]]},
        "labels": [0]}))
    for name, argv in (("missing", ["verify", "missing.json"]),
                       ("dart", ["verify", "dart.json"]),
                       ("identity", ["roundtrip", "identity.json"])):
        report(run(argv), 2, ERROR_CODES[name])


def one_flaw_order():
    """One flaw order for a comp table and an act table, as the first
    verdict of every command that reads the table; and for their lawless
    twins, the broken law, with no refusal from any command on the way."""
    for name, text in FLAW_INPUTS.items():
        write(f"flaw-{name}.json", text + "\n")
        for command in FLAW_COMMANDS[name]:
            verdict = report(run([command, "-"], f"flaw-{name}.json"),
                             1)["runs"][0]["verdicts"][0]
            assert (verdict["failure"], verdict["witness"]) == \
                FLAW_VERDICTS[name], (name, command, verdict)


def streamed_report_early_reader_and_pipe():
    """A streamed report, a reader that stops early, and the pipe."""
    write("big.json", canonical_dumps(bundle_to_json(
        large_random_bundle(6, 3, "S4"))))
    # the report is about 1.7 MB: the reader closes the pipe after 4 KiB
    with tempfile.TemporaryFile() as err:
        proc = start(["groupoidify", "big.json"], os.devnull,
                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                     stderr=err)
        with proc.stdout:
            proc.stdout.read(4096)
        code = proc.wait()
        err.seek(0)
        assert code == 0 and err.read() == b"", code
    source, stdin = "big.json", None
    for command in ("groupoidify", "bundleize", "holonomy"):
        out = output([command, source if stdin is None else "-"], stdin)
        write(f"{command}.json", out)
        name = source if source == "big.json" else "stdin"
        expected = run_command(command, [(name, load_model(source))])
        assert out == (canonical_dumps(expected) + "\n").encode(), command
        source, stdin = f"{command}.json", out
    # json.tool indents the 124,416-triple comp table, so bundleize reads it
    # through json whole: the same bytes as the decode
    assert output(["bundleize", "-"], indented("groupoidify.json")) == \
        Path("bundleize.json").read_bytes()
    # a comp row repeated at the end, many blocks after its first
    # occurrence: the blockwise table fill names the repeated pair
    duplicate = json.loads(Path("groupoidify.json").read_text())
    comp = duplicate["runs"][0]["model"]["comp"]
    assert len(comp) == 124416
    comp.append(comp[1000])
    write("duplicate.json", canonical_dumps(duplicate))
    verdict = report(run(["verify", "-"], "duplicate.json"),
                     1)["runs"][0]["verdicts"][0]
    assert verdict["failure"] == "duplicate comp pair", verdict
    assert verdict["witness"] == comp[1000][:2], verdict


def tables_over_many_row_blocks():
    """Tables written over many row blocks, pinned by their sha256: every
    fixture golden holds a table of one row block; the groupoid of a
    12-vertex S4 bundle (995,328 comp entries) and its ambit are written
    over many, and bundleize reads the groupoid back."""
    write("b12.json", canonical_dumps(bundle_to_json(
        large_random_bundle(12, 6, "S4"))))
    write("g12.json", output(["groupoidify", "b12.json"]))
    write("a12.json", output(["ambit", "b12.json"]))
    write("z12.json", output(["bundleize", "g12.json"]))
    for name, pin in PINNED.items():
        assert sha256(name) == pin, name


def edited_tables_over_many_row_blocks():
    """Edited tables over many row blocks, their verdicts pinned: the first
    comp entry [g, h, gh] of g12.json, in row order, with g and h not units
    and h not inv[g], given twice, dropped, or sent to the least other
    non-unit arrow from src(gh) to tgt(gh); and the first act entry of
    a12.json on an arrow that is not a unit, sent to the least other point
    of the same anchor.  It reads the files the check before wrote."""

    def model(name):
        return json.loads(Path(name).read_text())["runs"][0]["model"]

    def edit(name, m, key, table):
        write(name, canonical_dumps({**m, key: table}))

    g = model("g12.json")
    units, comp = set(g["unit"]), g["comp"]
    i = next(i for i, (a, b, _) in enumerate(comp) if a not in units
             and b not in units and b != g["inv"][a])
    a, b, ab = comp[i]
    other = min(c for c in range(g["arrows"]) if c not in units
                and c != ab and g["src"][c] == g["src"][ab]
                and g["tgt"][c] == g["tgt"][ab])
    edit("g12dup.json", g, "comp", comp + [comp[i]])
    edit("g12hole.json", g, "comp", comp[:i] + comp[i + 1:])
    edit("g12bad.json", g, "comp", comp[:i] + [[a, b, other]] + comp[i + 1:])
    del g, comp
    m = model("a12.json")
    act, anchor = m["act"], m["anchor"]
    units = set(m["groupoid"]["unit"])
    j = next(j for j, (_, h, _) in enumerate(act) if h not in units)
    y, h, z = act[j]
    p = min(q for q in range(m["space"])
            if q != z and anchor[q] == anchor[z])
    edit("a12bad.json", m, "act", act[:j] + [[y, h, p]] + act[j + 1:])
    del m, act
    for name, pin in EDITED.items():
        r = run(["verify", f"{name}.json"])
        assert r.code == 1, (name, r.code, r.err[-2000:])
        write(f"v-{name}.json", r.out)
        assert sha256(f"v-{name}.json") == pin, name


def file_and_pipe_loaded_without_holding_them():
    """A file and a pipe are loaded without holding them: bundleize on the
    16 MB groupoidify report of a 12-vertex S4 bundle as a path, as
    ``- < file`` and through ``cat file |``, each run's own peak RSS taken
    by ``wait4``.  A file is read back table by table, and a pipe is copied
    to a temporary file and read back from it: the pipe peaks with the
    path.  The report is saved as a file named stdin, so that a run given
    its path names its input as a run reading - does.  The peaks of
    ``--help`` and of the groupoidify run that writes the report are
    printed too: the writer holds the table and one block of temporaries,
    so it peaks no higher than the path's bundleize."""
    write("bundle12.json", canonical_dumps(bundle_to_json(
        large_random_bundle(12, 11, "S4"))))
    Path("load12").mkdir()
    writer = run(["groupoidify", "bundle12.json"])
    assert writer.code == 0, (writer.code, writer.err[-2000:])
    write("load12/stdin", writer.out)
    runs = {"--help": run(["--help"]), "groupoidify": writer,
            "path": run(["bundleize", "stdin"], cwd="load12"),
            "redirect": run(["bundleize", "-"], "load12/stdin")}
    cat = subprocess.Popen(["cat", "load12/stdin"], stdout=subprocess.PIPE)
    with cat.stdout:
        runs["pipe"] = run(["bundleize", "-"], cat.stdout)
    assert cat.wait() == 0
    for name, r in runs.items():
        assert r.code == 0 and r.err == b"", (name, r.code, r.err[-2000:])
    peaks = {name: r.peak_mb for name, r in runs.items()}
    print({name: round(mb, 1) for name, mb in peaks.items()})
    assert len({runs[name].out for name in ("path", "redirect", "pipe")}) \
        == 1, "the three reports differ"
    assert peaks["pipe"] <= peaks["path"] + 2, peaks
    assert peaks["groupoidify"] <= peaks["path"], peaks


def tables_at_the_int16_boundary():
    """Tables at the int16 boundary, and a value int16 would wrap: discrete
    groupoids (units only) of 32,767 arrows hold their values as int16, of
    32,768 as int32; the 32,767-arrow one with the value of the pair
    [12345, 12345] written 2**16 + 12345, which int16 would read as 12345,
    is refused where it is read."""
    for name, m, bad in (("d32767", 32767, False), ("d32768", 32768, False),
                         ("d32767bad", 32767, True)):
        comp = [[x, x, x] for x in range(m)]
        if bad:
            comp[12345][2] += 1 << 16
        units = list(range(m))
        write(f"{name}.json", json.dumps(
            {"arrows": m, "comp": comp, "inv": units, "kind": "groupoid",
             "objects": m, "src": units, "tgt": units, "unit": units},
            separators=(",", ":")))
        parsed = report(run(["verify", f"{name}.json"]), 2 if bad else 0)
        if bad:
            assert parsed["error"] == WIDTH_ERROR, parsed
        else:
            verdict = parsed["runs"][0]["verdicts"][0]
            assert verdict["ok"] and verdict["notes"]["arrows"] == m, \
                (name, verdict)


def small_input_hashed_without_openssl():
    """A small input is hashed without OpenSSL, a large one with it: the
    canonical groupoids of the 7- and 8-vertex S4 bundles, 2,808,791 and
    4,386,961 bytes, lie either side of the 4 MiB that the interpreter's
    own sha256 hashes; the larger is hashed by hashlib's, whose import
    loads OpenSSL through _hashlib.  The input digest, by path and through
    a pipe, is the file's."""
    for n in (7, 8):
        name = f"m{n}.json"
        write(name, canonical_dumps(groupoid_to_json(groupoid_of_bundle(
            large_random_bundle(n, 3, "S4")).groupoid)))
        for route in (["verify", name], ["verify", "-"]):
            stdin = Path(name).read_bytes() if route[1] == "-" else None
            got = json.loads(output(route, stdin))["inputs"][0]["digest"]
            assert got == sha256(name), (name, route, got)
        # PYTHONPROFILEIMPORTTIME is the environment form of -X importtime
        r = run(["verify", name], env={"PYTHONPROFILEIMPORTTIME": "1"})
        assert r.code == 0, (name, r.code)
        loaded = re.search(r"\| *_hashlib$", r.err.decode(), re.M) is not None
        assert loaded == (n == 8), \
            f"{name} {'did not load' if n == 8 else 'loaded'} _hashlib"


def cli_runs_on_one_thread():
    """The CLI runs on one thread: gpdflow never calls BLAS, and loads
    numpy with a one-thread OpenBLAS pool.  So a process that has imported
    ``gpdflow.cli`` lists one thread in ``/proc/self/task``, where there is
    one, however busy the host, with ``OPENBLAS_NUM_THREADS`` unset or
    empty, which OpenBLAS reads as unset; and ``--help`` and ``verify
    --fixtures`` each take no more CPU time than wall time, give or take 10
    ms.  An idle
    OpenBLAS worker, spinning on another core before it sleeps, puts the
    CPU time above the wall time: by about 0.13 s on an idle 2-core host,
    less when the other cores are busy, so only the thread count sees it
    on a busy host."""
    if os.path.isdir("/proc/self/task"):
        for blas in ({}, {"OPENBLAS_NUM_THREADS": ""}):
            threads = subprocess.run(
                [sys.executable, "-c", "import os, gpdflow.cli; "
                 "print(len(os.listdir('/proc/self/task')))"],
                env=child_env(blas), capture_output=True, check=True).stdout
            print(f"threads after import gpdflow.cli, {blas or 'unset'}: "
                  f"{threads.decode().strip()}")
            assert threads == b"1\n", (blas, threads)
    for argv in (["--help"], ["verify", "--fixtures"]):
        r = run(argv)
        assert r.code == 0 and r.err == b"", (argv, r.code, r.err[-2000:])
        print(f"{' '.join(argv)}: CPU {r.cpu_s:.3f} s, wall {r.wall_s:.3f} s")
        assert r.cpu_s <= r.wall_s + 0.01, (argv, r.cpu_s, r.wall_s)


CHECKS = (
    fixture_goldens,
    fixture_text_reports,
    readme_pipe,
    indented_input_reads_like_compact_input,
    input_digest_is_the_payload_sha256,
    input_nested_too_deeply,
    integer_literal_too_long,
    command_line_that_does_not_parse,
    missing_file_dart_named_twice_identity_off_0,
    one_flaw_order,
    streamed_report_early_reader_and_pipe,
    tables_over_many_row_blocks,
    edited_tables_over_many_row_blocks,
    file_and_pipe_loaded_without_holding_them,
    tables_at_the_int16_boundary,
    small_input_hashed_without_openssl,
    cli_runs_on_one_thread,
)


def main():
    if not __debug__:
        sys.exit("the checks are asserts: run this without -O")
    print(f"Python {platform.python_version()}, numpy {np.__version__}",
          flush=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for check in CHECKS:
            t0 = time.perf_counter()
            check()
            print(f"{check.__name__}: ok in "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
