"""Tests of the benchmark's own code: generator, checker, tracer and manifest.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from worker import call_main, load_cli  # noqa: E402

cli = load_cli(CHECKOUT)
SCHEMAS = CHECKOUT / "src" / "thurston_obstruct" / "schemas"
INPUT_SCHEMAS = {"matrix": "matrix", "table": "table", "canonical": "canonical",
                 "orbifold": "portrait"}


def _validator(name: str) -> jsonschema.Draft202012Validator:
    resources = [(p.name, Resource.from_contents(json.loads(p.read_text(encoding="utf-8"))))
                 for p in SCHEMAS.glob("*.schema.json")]
    contents = json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(contents, registry=Registry().with_resources(resources))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload):
    count = 2 * gen.cycle_length(workload)
    first = gen.requests(workload, 11, count)
    assert first == gen.requests(workload, 11, count)
    assert [r.argv for r in first] != [r.argv for r in gen.requests(workload, 12, count)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_valid_documents_satisfy_the_input_schemas(workload):
    validators = {cmd: _validator(name) for cmd, name in INPUT_SCHEMAS.items()}
    for request in gen.requests(workload, 3, gen.cycle_length(workload)):
        if request.expect != "ok" or request.argv[0] == "slopes":
            continue
        _, _, doc = check.parse_argv(request.argv)
        validators[request.argv[0]].validate(doc)


def test_schema_rejected_forms_fail_the_matrix_schema():
    validator = _validator("matrix")
    for form in ("0.5", "1e3", " 1/2 ", "1_000", "float"):
        _, _, doc = check.parse_argv(gen._malformed(gen._rng(1, 0), form))
        assert not validator.is_valid(doc), form


def _outcome(request: gen.Request) -> dict:
    return call_main(cli, list(request.argv))


def _matrix_request_with_certificate() -> tuple[gen.Request, dict]:
    for index in range(gen.cycle_length("matrix-spectral")):
        request = gen.request("matrix-spectral", 5, index)
        outcome = _outcome(request)
        if json.loads(outcome["out"])["result"]["simple"]["exists"]:
            return request, outcome
    raise AssertionError("no request with a certificate")


def _with_result(outcome: dict, edit) -> dict:
    report = json.loads(outcome["out"])
    edit(report["result"])
    return {**outcome, "out": json.dumps(report)}


CHECKER = check.Checker(CHECKOUT)


def test_checker_passes_a_correct_report():
    request, outcome = _matrix_request_with_certificate()
    assert CHECKER.check(request, outcome) is None


def test_checker_flags_a_flipped_tag():
    request, outcome = _matrix_request_with_certificate()
    flip = {"above_one": "below_one", "below_one": "above_one", "exactly_one": "above_one"}

    def edit(result):
        result["spectral"]["class"] = flip[result["spectral"]["class"]]

    kind, _ = CHECKER.check(request, _with_result(outcome, edit))
    assert kind == "wrong"


def test_checker_flags_a_perturbed_certificate():
    request, outcome = _matrix_request_with_certificate()
    rows = check.matrix_rows(check.parse_argv(request.argv)[2]["matrix"])

    def edit(result):
        cert = [Fraction(x) for x in result["simple"]["certificate"]]
        # raise one entry until its row inequality (M v)_i >= v_i breaks
        while check.is_subinvariant_certificate(rows, cert):
            cert[0] *= 2
        result["simple"]["certificate"] = [str(x) for x in cert]

    kind, _ = CHECKER.check(request, _with_result(outcome, edit))
    assert kind == "wrong"


def test_checker_flags_a_wrong_exit_code_and_a_traceback():
    request = gen.cold_request(1, 3)  # the first malformed position: "0.5"
    assert request.expect == "reject"
    assert CHECKER.check(request, {"code": 0, "out": "{}", "err": "", "tb": None})[0] == "exit"
    assert CHECKER.check(request, {"code": 1, "out": "", "err": "", "tb": "Traceback"})[0] == "crash"
    assert CHECKER.check(request, {"code": 2, "out": "", "err": "error: x", "tb": None}) is None


def _namespaces() -> dict:
    return {(name, attr): id(value)
            for name, module in sorted(sys.modules.items())
            if name == spans.PACKAGE or name.startswith(spans.PACKAGE + ".")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_namespace():
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = _namespaces()
        # names bound with ``from ... import`` are patched where they were bound
        assert patched[("thurston_obstruct.cli", "spectral_radius_class")] != \
            before[("thurston_obstruct.cli", "spectral_radius_class")]
        assert patched[("thurston_obstruct.tables", "spectral_radius_class")] != \
            before[("thurston_obstruct.tables", "spectral_radius_class")]
        assert patched[("thurston_obstruct", "charpoly")] != before[("thurston_obstruct", "charpoly")]
    finally:
        tracer.remove()
    assert _namespaces() == before


def test_spans_nest_under_the_cli_call():
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = _outcome(gen.request("matrix-spectral", 1, 0))
    finally:
        tracer.remove()
    assert outcome["code"] == 0
    recorded = tracer.spans
    assert recorded[0][0] == "cli.main" and recorded[0][3] == -1
    charpolys = [s for s in recorded if s[0] == "spectral.charpoly"]
    assert charpolys and all(s[3] >= 0 for s in charpolys)
    assert all(s[4]["dim"] == 6 for s in charpolys if s[3] >= 0 and
               recorded[s[3]][0] == "spectral.spectral_radius_class")


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["tables.find_minimal_obstructions", 0.0, 10.0, -1, {"found": 1}],
        ["spectral.is_irreducible", 1.0, 2.0, 0, None],
        ["spectral.spectral_radius_class", 2.0, 6.0, 0, None],
        ["spectral.charpoly", 2.5, 5.0, 2, {"dim": 3, "bits": 4}],
    ]
    assert spans.self_times(recorded) == [5.0, 1.0, 1.5, 2.5]
    metrics = spans.summarize([recorded], {})
    assert metrics["tables.minimal.subsets_tested"] == 1
    assert metrics["tables.minimal.spectral_tests"] == 1
    assert metrics["tables.minimal.hit_ratio"] == 1.0
    assert metrics["spectral.self_s"] == 1.0 + 1.5 + 2.5
    assert metrics["spectral.charpoly.dim_sum"] == 3
    assert set(metrics) | {"trace.overhead_ratio"} == set(spans.PER_LAYER)


def test_scale_maps_times_to_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(3.0, ref, ref) == 3.0
    assert speed.scale(3.0, 2 * ref, 2 * ref) == 1.5  # measured at half the reference speed


def test_runs_send_whole_cycles_fixed_by_the_seconds():
    assert run.cycles_for("cli-cold", 0.01) == 1
    assert run.cycles_for("table-search", 10 * run.CYCLE_S["table-search"]) == 10


@pytest.mark.parametrize("seed", range(1, 6))
def test_only_the_free_orbifold_position_has_weight_one_points(seed):
    for index in range(gen.cycle_length("cli-cold")):
        request = gen.cold_request(seed, index)
        if request.argv[0] == "orbifold" and request.expect == "ok":
            points = json.loads(request.argv[-1])["points"]
            free = len(gen.postcritical(points)) < len(points)
            assert free == request.kind.startswith("cold:orbifold-free"), request.kind


def test_runs_at_the_manifest_seconds_send_the_cycles_the_tiers_assume():
    seconds = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    counts = {w: run.cycles_for(w, seconds) for w in gen.WORKLOADS}
    assert counts == {"matrix-spectral": 5, "table-search": 3, "cli-cold": 12}


@pytest.mark.parametrize("seed", range(1, 4))
def test_table_search_fixes_tracked_classes_and_degree_per_position(seed):
    for index in range(gen.cycle_length("table-search")):
        command, n, cap = gen.TABLE_SCHEDULE[index]
        doc = json.loads(gen.table_request(seed, index).argv[-1])
        if command == "table":
            untracked = [c for c in doc["classes"]
                         if any(p["target"] == "untracked" for p in c["pullback"])]
            assert len(untracked) == (0 if cap else 1)
            assert doc["map_degree"] == (2, 3, 4)[n % 3]
        else:
            inner = doc["decomposition"][0]["first_return"]["table"]
            assert inner["map_degree"] == (2, 3, 4)[n % 3]


def test_tail_leaves_ten_samples_beyond():
    percentile, value = run.tail([float(x) for x in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)


def test_manifest_names_what_the_benchmark_prints():
    manifest = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == spans.PER_LAYER
