"""Start the benchmark's operations one at a time and report their cost.

Reads one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
runs it to completion with this process's environment and working
directory, and answers with one JSON line: wall time, user plus system CPU
time, ru_maxrss in KiB, exit status and whether it timed out.  Exits at end
of input.

run.py starts this as a separate, small process because on Linux a child's
ru_maxrss includes the memory of the process it was forked from, and run.py
grows while it checks outputs and reads traces.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from time import perf_counter


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        timed_out = False
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": timed_out,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
