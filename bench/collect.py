"""Run the benchmark once per seed and summarize each metric across the runs.

    python3 bench/collect.py --workload cli-cold --seeds 1-10 --seconds 25 --trace 0 --out runs.json

For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread: the distance between the quartiles as a share of
the median.  ``--out`` also keeps every run's result and detail lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        *_, detail, result = proc.stdout.strip().splitlines()
        runs.append({"seed": seed, "detail": json.loads(detail), "result": json.loads(result)})
        print(f"seed {seed}: {result}", file=sys.stderr, flush=True)
    names = list(runs[0]["result"]["metrics"])
    summary = {name: spread([r["result"]["metrics"][name]["value"] for r in runs]) for name in names}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "summary": summary, "runs": runs},
                                       indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
