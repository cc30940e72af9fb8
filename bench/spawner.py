"""Starts the ``cli-cold`` children from a small process.

Run as ``python3 bench/spawner.py <checkout>``.  Each stdin line is a JSON
argument list; the spawner runs it with ``PYTHONPATH=<checkout>/src`` and
answers with one JSON line: exit code, stdout, stderr, wall seconds and the
child's peak resident memory in KiB, or ``{"timeout": true}`` after killing
a child that ran too long.

A child's ``ru_maxrss`` also counts the resident size its parent had when
it started the child, so the children are started from this process, which
imports nothing beyond what it needs, rather than from ``run.py``, which
holds the generator and its results.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from time import monotonic, perf_counter

#: Seconds a child may run before it is killed.
CHILD_TIMEOUT = 60.0


def run_child(argv: list[str], env: dict, cwd: str) -> dict:
    started = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=cwd, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    pending = set(chunks)
    deadline = monotonic() + CHILD_TIMEOUT
    while pending:
        remaining = deadline - monotonic()
        ready = select.select(list(pending), [], [], remaining)[0] if remaining > 0 else []
        if not ready:
            proc.kill()
            break
        for fd in ready:
            data = os.read(fd, 1 << 20)
            if data:
                chunks[fd].append(data)
            else:
                pending.discard(fd)
    # wait4 reaps the child and reports its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - started
    proc.stdout.close()
    proc.stderr.close()
    if pending:
        return {"timeout": True}
    return {
        "code": proc.returncode,
        "out": b"".join(chunks[out_fd]).decode("utf-8", "replace"),
        "err": b"".join(chunks[err_fd]).decode("utf-8", "replace"),
        "wall": wall,
        "rss_kib": usage.ru_maxrss,
    }


def main() -> int:
    checkout = sys.argv[1]
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        print(json.dumps(run_child(json.loads(line), env, checkout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
