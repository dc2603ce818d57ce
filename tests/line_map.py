"""Print each executable line of ``src/gpdflow`` that the test suite never
runs, as ``file:line: text``, and then how many there are; and hold them
to the list of lines that may stay unrun, ``MAY_STAY_UNRUN``.

Run it from anywhere, with the suite's arguments if any::

    PYTHONPATH=src python tests/line_map.py [pytest arguments]

It needs only the standard library and pytest.  ``sys.settrace`` (and
``threading.settrace``) traces every frame whose code lies under
``src/gpdflow``, then pytest runs the suite in this process.  A module's
executable lines are read from ``co_lines()`` of its compiled source and
of every code object nested in it.  Lines that only a subprocess runs,
such as the CLI's ``__main__`` block, are listed too.  pytest does not
collect this file.

The list is a ratchet: it only shrinks.  Each entry is a line's file and
its text, stripped, not its number, with the reason it may stay unrun; a
text listed twice stands for two such lines.  The script exits with the
suite's status when the suite fails, else 1 when a line never runs that
the list does not hold or a listed line now runs, which is then to be
taken off the list.  A line
that no test runs is tested, deleted, or listed with its reason.  The
list is read on Python 3.11 (the interpreter picks which ``_sha256``
import runs), and against the whole suite: pytest arguments that run part
of it leave unlisted lines unrun.
"""
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpdflow"

CROSS_CHECK = ("a cross-check that a construction is what it claims: "
               "nothing the package builds fails it, and the promise that "
               "a result is verified before it is returned keeps it")
BROKEN_PIPE = ("runs only in a subprocess whose reader closes the pipe: "
               "tests/ci_checks.py streamed_report_early_reader_and_pipe")
MAIN = ("runs only in a subprocess, python -m gpdflow.cli: "
        "tests/test_cli.py::test_stdin_not_utf8_is_unreadable_json")
NO_SHA256 = ("runs only on an interpreter built without _sha256; "
             "tests/test_serialize.py checks both digest routes")
COMP_PAIRS = ("Groupoid.n_comp_pairs, read only by perfbench/ladder.py, "
              "which the suite does not run")

# (file under src/gpdflow, line text stripped, why it may stay unrun)
MAY_STAY_UNRUN = (
    ("amenability.py", "raise AssertionError(", CROSS_CHECK),
    ("amenability.py", '"section construction disagrees with brute-force '
     'enumeration")', CROSS_CHECK),
    ("amenability.py", 'raise AssertionError("trivial group admits no '
     'section")', CROSS_CHECK),
    ("cli.py", "except BrokenPipeError:", BROKEN_PIPE),
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)", BROKEN_PIPE),
    ("cli.py", "os.dup2(devnull, sys.stdout.fileno())", BROKEN_PIPE),
    ("cli.py", "os.close(devnull)", BROKEN_PIPE),
    ("cli.py", "sys.exit(main())", MAIN),
    ("dynamics.py", "raise AssertionError(", CROSS_CHECK),
    ("dynamics.py", '"orbit partition disagrees with exhaustive minimal '
     'subsets")', CROSS_CHECK),
    ("dynamics.py", "raise AssertionError(", CROSS_CHECK),
    ("dynamics.py", 'f"universal maps do not compose at fiber pair ({y}, '
     '{z})")', CROSS_CHECK),
    ("dynamics.py", 'raise AssertionError("fiber semigroup is not the '
     'vertex group")', CROSS_CHECK),
    ("dynamics.py", 'raise AssertionError("ambit must have exactly one '
     'minimal subflow")', CROSS_CHECK),
    ("ehresmann.py", 'raise AssertionError("reconstructed bundle is not '
     'isomorphic to input")', CROSS_CHECK),
    ("groupoid.py", "return int(self.row_off[-1])", COMP_PAIRS),
    ("serialize.py", "except ImportError:  # a build without it", NO_SHA256),
    ("serialize.py", "from hashlib import sha256 as _sha256", NO_SHA256),
)


def executable_lines(path: Path) -> set[int]:
    """The line of every instruction of the module at ``path``."""
    lines, work = set(), [compile(path.read_text(), str(path), "exec")]
    while work:
        code = work.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        work.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    run: dict[Path, set[int]] = {path: set()
                                 for path in sorted(PACKAGE.glob("*.py"))}
    tracers = {}  # co_filename -> the local tracer of its module, or None

    def tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = run.get(Path(name).resolve())
            tracers[name] = None if lines is None else tracer(lines)
        local = tracers[name]
        if local is not None:  # the call's own line, as a def's or a resume's
            local(frame, "line", arg)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun, total = Counter(), 0
    for path, lines in run.items():
        text = path.read_text().splitlines()
        wanted = executable_lines(path)
        total += len(wanted)
        for line in sorted(wanted - lines):
            unrun[path.name, text[line - 1].strip()] += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{sum(unrun.values())} of {total} executable lines never ran")
    listed = Counter((name, text) for name, text, _ in MAY_STAY_UNRUN)
    for verdict, lines in (("never ran and is not listed", unrun - listed),
                           ("is listed and now runs", listed - unrun)):
        for (name, text), n in sorted(lines.items()):
            times = f" ({n} lines)" if n > 1 else ""
            print(f"src/gpdflow/{name}: {text}: {verdict}{times}")
    return int(status) or int(unrun != listed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
