"""Benchmark of the thurston-obstruct CLI: one command, three seeded workloads.

    python3 bench/run.py --workload matrix-spectral --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src``.  Workloads (see ``gen.py``):

- ``matrix-spectral``: in-process ``matrix --check-simple`` on nonnegative
  rational matrices, n = 6..16 (charpoly, Sturm, bisection, certificates);
- ``table-search``: in-process ``table`` and ``canonical`` requests whose
  exponential subset searches make thousands of tiny spectral calls;
- ``cli-cold``: one fresh ``python -m thurston_obstruct.cli`` per request on
  small documents, a quarter of them malformed (start-up and validation).

Load is a closed loop: one client, one request in flight.  In-process
workloads use one worker process (``worker.py``); ``cli-cold`` runs one
child at a time.  A run sends a fixed number of whole cycles of the
workload's schedule: ``--seconds`` divided by the workload's cycle time at
the seed commit (``CYCLE_S``), so the same seed and ``--seconds`` always
send the same requests, ``attempted`` and ``failed`` repeat exactly, and
every run has the same size mix.  Outputs are checked after the timed
region (``check.py``).

All processes run pinned to one CPU, and every timed interval is scaled to
a reference machine speed measured on that CPU around it (``speed.py``):
the host's speed changes by up to 1.6 times in phases of seconds, which
would otherwise set the spread of every time.  The detail line (the line
before the result) also gives the raw wall-clock figures.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans (``spans.py``),
measured on one fixed cycle of requests: untraced passes for half the
cycles, then traced passes for the other half.  Counts are per pass and
repeat exactly for a seed; times are the median pass; ``trace.overhead_ratio``
is the untraced throughput over the traced one.  Spans of the first traced
pass are written to ``.bench_out/`` in the checkout.

``correct`` is false when a report's mathematics contradicts an oracle, the
input or its own certificate; ``failed`` counts every request that failed
any check, including wrong exit codes, tracebacks, reports that fail the
shipped schema and capped reports not marked truncated.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: A request that takes longer than this aborts the run.
REQUEST_TIMEOUT = 60.0
#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10
#: Normalized seconds per cycle of each workload's schedule at the seed
#: commit (medians of seeds 1-5, one cycle each, over several calibrations,
#: rounded); ``--seconds`` divided by it, rounded, is the number of cycles a
#: run sends: 5, 3 and 12 at 25 seconds, the counts the schedules' tiers in
#: ``gen.py`` are laid out for.
CYCLE_S = {"matrix-spectral": 4.7, "table-search": 7.8, "cli-cold": 2.1}

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pass_ratio": "fraction",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class LineProcess:
    """A helper script of this directory that answers one JSON line per JSON line."""

    def __init__(self, script: str):
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), str(CHECKOUT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=CHECKOUT,
        )
        self._buffer = b""
        try:
            self.info = self._reply()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = perf_counter() - started

    def _reply(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = monotonic() + REQUEST_TIMEOUT + 5
        while b"\n" not in self._buffer:
            remaining = deadline - monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(f"{self.proc.args[1]} did not answer in time")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise EOFError(f"{self.proc.args[1]} exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def call(self, message) -> dict:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Worker(LineProcess):
    """The in-process worker: spawned fresh, ready once the CLI is imported."""

    def __init__(self):
        super().__init__("worker.py")

    def run(self, request: gen.Request) -> dict:
        started = perf_counter()
        outcome = self.call({"argv": list(request.argv)})
        outcome["latency"] = perf_counter() - started
        return outcome


class Cold:
    """One fresh interpreter per request, started by ``spawner.py``.

    Traced requests go through ``cold_child.py``.
    """

    def __init__(self):
        self.spawner = LineProcess("spawner.py")
        self.peak_kib = 0
        self.traced = False

    def run(self, request: gen.Request) -> dict:
        if self.traced:
            argv = [sys.executable, str(BENCH / "cold_child.py"), str(CHECKOUT), *request.argv]
        else:
            argv = [sys.executable, "-m", "thurston_obstruct.cli", *request.argv]
        child = self.spawner.call(argv)
        if child.get("timeout"):
            raise TimeoutError(f"a {request.kind} request ran longer than {REQUEST_TIMEOUT} s")
        self.peak_kib = max(self.peak_kib, child["rss_kib"])
        if not self.traced:
            return {"code": child["code"], "out": child["out"], "err": child["err"], "tb": None,
                    "latency": child["wall"]}
        if child["code"] != 0:
            raise RuntimeError(f"traced child failed: {child['err'][-2000:]}")
        outcome = json.loads(child["out"])
        outcome["latency"] = child["wall"]
        outcome["interpreter_s"] = child["wall"] - outcome["script_s"]
        return outcome

    def close(self) -> None:
        self.spawner.close()


def measure_setup(keep: bool) -> tuple[float, Worker | None]:
    """Median normalized time from spawn to ready over fresh interpreters.

    Optionally keeps the last worker running.
    """
    times, worker = [], None
    for probe in range(SETUP_PROBES):
        before = speed.sample()
        worker = Worker()
        times.append(speed.scale(worker.ready_s, before, speed.sample()))
        if probe < SETUP_PROBES - 1 or not keep:
            worker.close()
    return statistics.median(times), worker if keep else None


def warm_up(worker: Worker) -> None:
    """Serve two small untimed requests first, so lazy set-up in the program is done."""
    far = 10**6 * gen.cycle_length("matrix-spectral")  # an index no measured request uses
    for position in (0, 2):  # n = 6
        worker.run(gen.request("matrix-spectral", 0, far + position))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based nearest rank
    return 100.0 * rank / n, ordered[rank - 1]


def cycles_for(workload: str, seconds: float, share: float = 1.0) -> int:
    """Whole cycles a run sends: about ``seconds * share`` at the seed commit's speed."""
    return max(1, round(seconds * share / CYCLE_S[workload]))


def closed_loop(runner, workload: str, seed: int, cycles: int, replay: bool = False):
    """Send ``cycles`` whole cycles of requests, one at a time.

    With ``replay`` every pass sends the first cycle again.  Each outcome's
    ``latency`` is normalized (``speed.scale``) and ``wall`` is the raw
    time.  Returns the records and the sums of both.
    """
    length = gen.cycle_length(workload)
    records = []
    before = speed.sample()
    for i in range(cycles * length):
        request = gen.request(workload, seed, i % length if replay else i)
        outcome = runner.run(request)
        after = speed.sample()
        outcome["wall"] = outcome["latency"]
        outcome["latency"] = speed.scale(outcome["wall"], before, after)
        before = after
        records.append((request, outcome))
    return (records, sum(o["latency"] for _, o in records), sum(o["wall"] for _, o in records))


def shares(records) -> dict:
    """Measured share of requests on each path, for claims about one kind of input."""
    out: dict[str, dict[str, float]] = {
        "kind": {}, "exit": {}, "tag": {}, "verdict": {}, "truncated": {}}

    def bump(table: str, key) -> None:
        out[table][str(key)] = out[table].get(str(key), 0) + 1

    for request, outcome in records:
        bump("kind", request.kind)
        bump("exit", outcome["code"])
        if outcome["code"] in (0, 4) and outcome["out"].startswith("{"):
            result = json.loads(outcome["out"])["result"]
            if "spectral" in result:
                bump("tag", result["spectral"]["class"])
            if "accepted" in result:
                bump("verdict", "Accept" if result["accepted"] else "Reject")
            if result.get("truncated") or result.get("minimal_obstructions", {}).get("truncated"):
                bump("truncated", True)
    total = max(len(records), 1)
    return {table: {k: round(v / total, 4) for k, v in sorted(counts.items())}
            for table, counts in out.items()}


def check_all(records) -> dict:
    """``correct``, ``attempted`` and ``failed`` of the result line, plus failures by kind."""
    from check import Checker  # sympy and jsonschema load only when a run is over

    checker = Checker(CHECKOUT)
    kinds: dict[str, list] = {}
    for request, outcome in records:
        failure = checker.check(request, outcome)
        if failure is not None:
            kinds.setdefault(failure[0], []).append(failure[1])
    return {
        "correct": "wrong" not in kinds,
        "attempted": len(records),
        "failed": sum(len(v) for v in kinds.values()),
        "failures": {k: {"count": len(v), "first": v[0]} for k, v in sorted(kinds.items())},
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    in_process = workload != "cli-cold"
    setup_s, worker = measure_setup(keep=in_process)
    runner = worker if in_process else Cold()
    cycles = cycles_for(workload, seconds)
    try:
        if in_process:
            warm_up(worker)
        records, busy, wall = closed_loop(runner, workload, seed, cycles)
        peak_kib = worker.call({"rss": True})["rss_kib"] if in_process else runner.peak_kib
    finally:
        runner.close()
    outcome = check_all(records)
    passed = outcome["attempted"] - outcome["failed"]
    latencies = [o["latency"] for _, o in records]
    walls = [o["wall"] for _, o in records]
    percentile, tail_s = tail(latencies)
    metrics = {
        "throughput_rps": passed / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "pass_ratio": passed / outcome["attempted"],
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": setup_s,
    }
    detail = {
        "workload": workload, "seed": seed, "cycles": cycles, "busy_s": round(busy, 4),
        "wall_s": round(wall, 4), "speed": round(wall / busy, 4),
        "wall_throughput_rps": round(passed / wall, 4),
        "wall_latency_p50_ms": round(statistics.median(walls) * 1000, 3),
        "wall_latency_tail_ms": round(tail(walls)[1] * 1000, 3),
        "latency_tail_percentile": round(percentile, 3), "latency_samples": len(latencies),
        "failed_ratio": round(outcome["failed"] / outcome["attempted"], 6),
        "failures": outcome["failures"], "shares": shares(records),
    }
    return metrics, detail, outcome


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    in_process = workload != "cli-cold"
    runner = Worker() if in_process else Cold()
    worker = runner if in_process else None
    passes = cycles_for(workload, seconds, share=0.5)
    try:
        if in_process:
            warm_up(worker)
        plain, plain_busy, _ = closed_loop(runner, workload, seed, passes, replay=True)
        if in_process:
            worker.call({"trace": True})
        else:
            runner.traced = True
        spanned, spanned_busy, _ = closed_loop(runner, workload, seed, passes, replay=True)
    finally:
        runner.close()
    cycle = gen.cycle_length(workload)
    per_pass = []
    for p in range(passes):
        chunk = [o for _, o in spanned[p * cycle:(p + 1) * cycle]]
        if in_process:
            info = worker.info
            processes = {"import_s": info["import_s"],
                         "interpreter_s": worker.ready_s - info["import_s"] - info["parser_s"]}
        else:
            processes = {"import_s": sum(o["import_s"] for o in chunk),
                         "interpreter_s": sum(o["interpreter_s"] for o in chunk)}
        per_pass.append(spans.summarize([o["spans"] for o in chunk], processes))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = spanned_busy / plain_busy
    out_dir = CHECKOUT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    first = [{"kind": r.kind, "spans": o["spans"]} for r, o in spanned[:cycle]]
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "requests": first}), encoding="utf-8")
    outcome = check_all(plain + spanned)
    detail = {"workload": workload, "seed": seed, "untraced_passes": passes,
              "traced_passes": passes, "failures": outcome["failures"]}
    return metrics, detail, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "thurston_obstruct" / "cli.py").is_file():
        print(f"error: no program sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    cpu = speed.pin()
    measure = traced if args.trace else end_to_end
    metrics, detail, outcome = measure(args.workload, args.seed, args.seconds)
    detail["pinned_cpu"] = cpu
    units = spans.PER_LAYER if args.trace else END_TO_END
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
