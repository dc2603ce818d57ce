"""The package namespace: each module's ``__all__`` alone decides what is
public, and ``gpdflow`` republishes all of it; importing it loads numpy
with a one-thread OpenBLAS pool and leaves the environment as it was."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpdflow

# dependency order: a module comes after every module it imports
MODULES = ("diagnostics", "algebra", "groupoid", "bundle", "ehresmann",
           "dynamics", "amenability", "fixtures", "serialize")


def test_package_all_is_the_modules_all_joined_in_dependency_order():
    modules = [importlib.import_module(f"gpdflow.{m}") for m in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert gpdflow.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(gpdflow, name) is getattr(module, name), \
                (module.__name__, name)


def test_the_cli_stays_out_of_the_package_namespace():
    assert "cli" not in gpdflow.__all__
    assert not hasattr(gpdflow, "main")


# imports gpdflow, after numpy if asked, and prints whether the environment
# came back as it was, each time the import set or removed
# OPENBLAS_NUM_THREADS on the way (numpy's own import sets and removes
# OPENBLAS_MAIN_FREE), the variable after, and the process's thread count
PROBE = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
before, written = dict(os.environ), []
for name in ("putenv", "unsetenv"):
    def spy(key, *value, name=name, real=getattr(os, name)):
        if os.fsdecode(key) == "OPENBLAS_NUM_THREADS":
            written.append(name)
        real(key, *value)
    setattr(os, name, spy)
import gpdflow
print(json.dumps({
    "unchanged": dict(os.environ) == before,
    "written": written,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task"))
               if os.path.isdir("/proc/self/task") else None}))
"""


def _import_gpdflow(blas=None, numpy_first=False):
    """Import gpdflow in a fresh interpreter on this checkout's ``src``,
    with ``OPENBLAS_NUM_THREADS`` set to ``blas`` or removed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    out = subprocess.run(
        [sys.executable, "-c", PROBE,
         "numpy first" if numpy_first else "gpdflow first"],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_importing_gpdflow_loads_numpy_on_one_thread_and_restores_the_env():
    probe = _import_gpdflow()
    assert probe["unchanged"] and probe["blas"] is None, probe
    assert probe["written"] == ["putenv", "unsetenv"], probe
    if probe["threads"] is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("no /proc/self/task, or one CPU: one thread either way")
    # OpenBLAS would start a worker per CPU
    assert probe["threads"] == 1, probe


def test_a_callers_openblas_num_threads_wins():
    probe = _import_gpdflow(blas="2")
    assert probe["unchanged"] and probe["blas"] == "2", probe
    assert probe["written"] == [], probe


def test_numpy_imported_first_is_left_as_it_is():
    probe = _import_gpdflow(numpy_first=True)
    assert probe["unchanged"] and probe["blas"] is None, probe
    assert probe["written"] == [], probe
