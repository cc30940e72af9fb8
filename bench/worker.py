"""In-process benchmark worker: one interpreter serving CLI requests in a closed loop.

Run as ``python3 bench/worker.py <checkout>``.  The worker imports
``thurston_obstruct.cli`` from ``<checkout>/src``, builds the argument
parser, and prints one ``ready`` line; the time from process start to that
line is the benchmark's set-up time.  It then reads one JSON command per
line on stdin and answers each with one JSON line on stdout:

- ``{"argv": [...]}`` runs ``cli.main(argv)`` with stdout and stderr
  captured and answers with the exit code, both streams and any
  traceback, plus the spans recorded while tracing is on;
- ``{"trace": true|false}`` installs or removes the span wrappers;
- ``{"rss": true}`` answers with the process's peak resident memory (KiB).

The worker exits at end of input.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def load_cli(checkout: Path):
    """Import ``thurston_obstruct.cli`` from the checkout's ``src`` and nowhere else."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    from thurston_obstruct import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"thurston_obstruct was imported from {cli.__file__}, not {src}")
    return cli


def call_main(cli, argv: list[str]) -> dict:
    """Run one CLI invocation the way the console script would, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on unusable arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed request, reported with its traceback
        code, tb = 1, traceback.format_exc()
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "tb": tb}


def peak_rss_kib() -> int:
    """This process's own peak resident memory.

    ``ru_maxrss`` would also count the resident size ``run.py`` had when
    it started this process, so the kernel's per-process
    high-water mark is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    start = time.perf_counter()
    checkout = Path(sys.argv[1])
    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench))
    cli = load_cli(checkout)
    imported = time.perf_counter()
    cli._build_parser()
    ready = time.perf_counter()
    tracer = None
    print(json.dumps({"ready": True, "import_s": imported - start, "parser_s": ready - imported}),
          flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if "argv" in cmd:
            if tracer is not None:
                tracer.reset()
            reply = call_main(cli, cmd["argv"])
            reply["spans"] = tracer.spans if tracer is not None else None
        elif "trace" in cmd:
            if cmd["trace"] and tracer is None:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            elif not cmd["trace"] and tracer is not None:
                tracer.remove()
                tracer = None
            reply = {"trace": tracer is not None}
        else:
            reply = {"rss_kib": peak_rss_kib()}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
