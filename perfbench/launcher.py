"""Starts the processes the benchmark measures, one at a time.

A child's ``ru_maxrss`` starts from the peak RSS of the process that spawned
it (Python spawns with vfork, and Linux carries the old address space's
peak across exec).  The benchmark's own process grows while it checks large
reports, so it does not spawn measured processes itself: it starts this
small process first and sends it one JSON request per line on stdin,

    {"args": [...], "cwd": DIR, "stdin": PATH or null, "stdout": PATH, "stderr": PATH}

and reads back one line per request: ``{"rc", "wall", "cpu", "rss_mb"}``,
with the wall time, the child's own CPU time (user + system) and its own
peak RSS.  It exits at end of input; on
SIGTERM it ends the running child first.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

CALL_TIMEOUT_S = 150


def run(req: dict) -> dict:
    with open(req["stdin"] or os.devnull, "rb") as fin, \
            open(req["stdout"], "wb") as fout, open(req["stderr"], "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["args"], stdin=fin, stdout=fout,
                                stderr=ferr, cwd=req["cwd"])
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # terminated: end the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
