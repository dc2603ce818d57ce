"""Print each executable line of ``src/gpdflow`` that the test suite never
runs, as ``file:line: text``, and then how many there are.

Run it from anywhere, with the suite's arguments if any::

    PYTHONPATH=src python tests/line_map.py [pytest arguments]

It needs only the standard library and pytest.  ``sys.settrace`` (and
``threading.settrace``) traces every frame whose code lies under
``src/gpdflow``, then pytest runs the suite in this process.  A module's
executable lines are read from ``co_lines()`` of its compiled source and
of every code object nested in it.  Lines that only a subprocess runs,
such as the CLI's ``__main__`` block, are listed too.  pytest does not
collect this file, and its exit status is the suite's.
"""
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpdflow"


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
    missed = total = 0
    for path, lines in run.items():
        text = path.read_text().splitlines()
        wanted = executable_lines(path)
        total += len(wanted)
        for line in sorted(wanted - lines):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
