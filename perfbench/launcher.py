"""Spawn requests one at a time; report each one's wall time and rusage.

The benchmark starts this helper once, while its own memory is still small,
and sends it one request per line.  The peak RSS that wait4 reports for a
child also counts the memory of the process that spawned it (the kernel keeps
the high-water mark across exec), so requests are spawned from here and not
from the benchmark, which holds outputs and reference tables of many MB.

Protocol: each stdin line is a JSON object
{"argv": [...], "stdout": path, "stderr": path, "ceiling": seconds}; each
reply line is {"wall_s": float, "exit": int, "maxrss_kb": int,
"timed_out": bool}.  A request still running at its ceiling is killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout: str, stderr: str, ceiling: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(ceiling, kill)
    timer.start()
    # Wait for exit without reaping, so the pid cannot be reused before the
    # timer is disarmed.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": state["timed_out"],
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
