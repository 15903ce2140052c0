"""Runs benchmark child processes on request and reports their own usage.

Usage: ``python spawner.py``, then one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "stdout": ..., "stderr": ..., "timeout": s}``;
each gets one JSON reply line ``{"wall", "rss_mb", "rc"}``. End of input
ends the process.

Why a separate process: on Linux a child's max RSS includes the memory of
the process it was started from, up to its ``exec``. The benchmark harness
holds NumPy and generated inputs; this process imports no more than it
needs, so its children's max RSS is their own.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
