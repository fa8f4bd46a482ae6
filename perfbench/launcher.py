"""Starts the benchmark's child processes and reports each one's wall time,
exit code and peak resident set.

On Linux a child's ru_maxrss includes the high-water mark of the process it
was spawned from, carried over at exec. The benchmark process grows to
hundreds of MB on the dense grid, so children are spawned from this small
process instead, and their peak is their own.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr"}
(the two paths receive the child's streams); one JSON reply per line.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _stop(signum, frame):
    raise SystemExit(1)


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t_spawn = time.monotonic()
            t = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"t_spawn": t_spawn, "wall": wall, "rc": proc.returncode, "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
