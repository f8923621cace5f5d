"""Run one command and write its exit code, wall seconds and peak RSS as JSON.

Usage: python3 -S perfbench/launch.py RESULT.json COMMAND [ARGS...]

Linux starts a new program's peak RSS at the peak of the process that
launched it, so a command started straight from the benchmark would report
at least the benchmark's own peak. Started from this small interpreter, the
command's ru_maxrss is its own.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150.0


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out, "w") as f:
        json.dump({"code": proc.returncode, "seconds": seconds,
                   "rss_mb": usage.ru_maxrss / 1024.0}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
