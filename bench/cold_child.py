"""Traced child entry of the ``cli-cold`` workload.

Run as ``python3 bench/cold_child.py <checkout> <cli arguments...>``.  It
times the import of ``thurston_obstruct.cli``, installs the span wrappers,
calls ``cli.main`` with the given arguments, and prints one JSON line: the
exit code, the captured stdout and stderr, any traceback, the spans,
``import_s`` and ``script_s`` (time from script start to just before the
line is written).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    checkout = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer
    from worker import call_main, load_cli

    before = time.perf_counter()
    cli = load_cli(checkout)
    import_s = time.perf_counter() - before
    tracer = Tracer()
    tracer.install()
    reply = call_main(cli, sys.argv[2:])
    reply.update(spans=tracer.spans, import_s=import_s, script_s=time.perf_counter() - start)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
