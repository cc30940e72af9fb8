import errno
import gc
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry, Resource

import thurston_obstruct
from thurston_obstruct import NonnegMatrix, charpoly, polynomials, spectral
from thurston_obstruct.cli import (
    DEFAULT_SUBSET_CAP,
    DEFAULT_WIDTH,
    _SUBCOMMANDS,
    _build_parser,
    _load_inline_matrix,
    _plain_args,
    main,
    run_request,
    script,
)
from thurston_obstruct.documents import InputFormatError, dumps
from thurston_obstruct.polynomials import LargestRootIsolator

SCHEMA_DIR = Path(thurston_obstruct.__file__).parent / "schemas"


def _registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        contents = json.loads(path.read_text(encoding="utf-8"))
        resources.append((path.name, Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def _report_validator() -> jsonschema.Draft202012Validator:
    contents = json.loads((SCHEMA_DIR / "report.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(contents, registry=_registry())


VALIDATOR = _report_validator()


def run_json(capsys, args) -> tuple[dict, int]:
    code = main(args + ["--format", "json"])
    out = capsys.readouterr().out
    return json.loads(out), code


PORTRAIT_DOC = {
    "schema": "thurston-obstruct/portrait/1",
    "degree": 2,
    "points": [
        {"id": "0", "marked": True, "image": "0", "local_degree": 2},
        {"id": "inf", "marked": True, "image": "inf", "local_degree": 2},
    ],
}

LEVY_TABLE_DOC = {
    "schema": "thurston-obstruct/table/1",
    "map_degree": 2,
    "classes": [
        {"id": "g1", "pullback": [{"degree": 1, "target": "g2"}]},
        {"id": "g2", "pullback": [{"degree": 1, "target": "g1"}]},
    ],
}

CANONICAL_DOC = {
    "schema": "thurston-obstruct/canonical/1",
    "table": {
        "map_degree": 2,
        "classes": [
            {"id": "g1", "pullback": [{"degree": 1, "target": "g2"}]},
            {"id": "g2", "pullback": [{"degree": 1, "target": "g1"}]},
        ],
    },
    "multicurve": ["g1", "g2"],
    "decomposition": [
        {"marked_points": 4, "first_return": {"kind": "2222", "matrix": [[2, 2], [0, 2]]}}
    ],
}

CANONICAL_DOC_FULL = {
    "schema": "thurston-obstruct/canonical/1",
    "table": {
        "map_degree": 2,
        "classes": [
            {"id": "g1", "pullback": [{"degree": 1, "target": "g2"}]},
            {"id": "g2", "pullback": [{"degree": 1, "target": "g1"}]},
        ],
    },
    "multicurve": ["g1", "g2"],
    "decomposition": [
        {"marked_points": 3, "first_return": {"kind": "homeomorphism"}},
        {
            "marked_points": 4,
            "first_return": {
                "kind": "2222",
                "matrix": [[2, 2], [0, 2]],
                "table": {
                    "map_degree": 2,
                    "marked_points": ["p1", "p2", "p3", "p4"],
                    "classes": [
                        {
                            "id": "h",
                            "pullback": [{"degree": 1, "target": "h"}],
                            "partition": [["p1", "p2"], ["p3", "p4"]],
                        }
                    ],
                },
            },
        },
        {
            "marked_points": 5,
            "first_return": {
                "kind": "general",
                "table": {
                    "map_degree": 2,
                    "classes": [
                        {"id": "q", "pullback": [{"degree": 2, "target": "q"}]}
                    ],
                },
            },
        },
    ],
}


def test_slopes_command(capsys):
    report, code = run_json(capsys, ["slopes", "--matrix", "[[2,0],[0,3]]"])
    assert code == 0
    result = report["result"]
    assert result["canonical_obstruction"] == {
        "empty": False,
        "slope": [1, 0],
        "multiplier": "3/2",
    }
    VALIDATOR.validate(report)


def test_slopes_text_mentions_verdict(capsys):
    code = main(["slopes", "--matrix", "[[2,0],[0,3]]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "canonical obstruction: nonempty, slope 1/0, multiplier 3/2" in out


def test_slopes_bound_is_decided_in_closed_form(capsys):
    # no scan: a bound of 10^9 costs what a bound of 1 costs
    start = time.perf_counter()
    args = ["slopes", "--matrix", "[[1,-1],[1,1]]", "--bound", "1000000000"]
    report, code = run_json(capsys, args)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert report["result"]["search"] == {"bound": 1000000000, "found": {"empty": True}}
    # the canonical slope 3/1 lies outside the box at bound 2 and inside it at bound 3
    args = ["slopes", "--matrix", "[[0,6],[-1,5]]", "--bound"]
    report, code = run_json(capsys, args + ["2"])
    assert code == 0
    assert report["result"]["canonical_obstruction"]["slope"] == [3, 1]
    assert report["result"]["search"]["found"] == {"empty": True}
    report, code = run_json(capsys, args + ["3"])
    assert code == 0
    assert report["result"]["search"]["found"] == {
        "empty": False,
        "slope": [3, 1],
        "multiplier": "3/2",
    }
    VALIDATOR.validate(report)


def test_slopes_bound_at_the_cap_still_searches(capsys):
    report, code = run_json(capsys, ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", "1000"])
    assert code == 0
    assert report["result"]["search"]["bound"] == 1000
    assert report["result"]["search"]["found"]["empty"] is False
    VALIDATOR.validate(report)


def test_matrix_check_simple(capsys):
    report, code = run_json(
        capsys, ["matrix", "--check-simple", "--matrix", '[["1/2",0],[1,1]]']
    )
    assert code == 0
    assert report["result"]["simple"] == {"exists": False, "certificate": None}
    VALIDATOR.validate(report)


def test_orbifold_command(tmp_path, capsys):
    doc = tmp_path / "portrait.json"
    doc.write_text(json.dumps(PORTRAIT_DOC), encoding="utf-8")
    report, code = run_json(capsys, ["orbifold", str(doc)])
    assert code == 0
    result = report["result"]
    assert result["weights"] == ["inf", "inf"]
    assert result["chi"] == "0"
    assert result["class"] == "parabolic"
    VALIDATOR.validate(report)


def test_table_command(tmp_path, capsys):
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(LEVY_TABLE_DOC), encoding="utf-8")
    report, code = run_json(capsys, ["table", str(doc)])
    assert code == 0
    result = report["result"]
    assert result["spectral"]["class"] == "exactly_one"
    assert result["is_obstruction"] is True
    assert result["simple"]["certificate"] == ["1", "1"]
    assert result["levy_cycles"] == [["g1", "g2"]]
    VALIDATOR.validate(report)


def test_canonical_command(tmp_path, capsys):
    doc = tmp_path / "canonical.json"
    doc.write_text(json.dumps(CANONICAL_DOC), encoding="utf-8")
    report, code = run_json(capsys, ["canonical", str(doc)])
    assert code == 0
    assert report["result"]["accepted"] is True
    VALIDATOR.validate(report)


def test_exit_code_malformed_json(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{not json", encoding="utf-8")
    code = main(["orbifold", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


def test_exit_code_bad_field(capsys):
    code = main(["slopes", "--matrix", '[[2,0],[0,"x"]]'])
    assert code == 2
    assert "matrix" in capsys.readouterr().err


def test_exit_code_float_rejected(capsys):
    code = main(["matrix", "--matrix", "[[0.5]]"])
    assert code == 2
    assert "p/q" in capsys.readouterr().err


def test_exit_code_precondition(capsys):
    code = main(["slopes", "--matrix", "[[1,0],[0,1]]"])
    assert code == 3
    assert "determinant" in capsys.readouterr().err


def test_exit_code_precondition_in_component(capsys):
    doc = json.loads(json.dumps(CANONICAL_DOC))
    doc["decomposition"][0]["first_return"]["matrix"] = [[1, 0], [0, 1]]
    code = main(["canonical", json.dumps(doc)])
    assert code == 3
    assert "determinant" in capsys.readouterr().err


def test_exit_code_resource_cap(tmp_path, capsys):
    doc = dict(LEVY_TABLE_DOC)
    code = main(["table", json.dumps(doc), "--subset-cap", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 4
    report = json.loads(out)
    assert report["result"]["minimal_obstructions"]["truncated"] is True
    VALIDATOR.validate(report)


def test_exit_code_resource_cap_canonical(capsys):
    doc = json.loads(json.dumps(CANONICAL_DOC_FULL))
    inner = doc["decomposition"][1]["first_return"]["table"]
    inner["classes"].append(
        {
            "id": "k",
            "pullback": [{"degree": 2, "target": "k"}],
            "partition": [["p1", "p3"], ["p2", "p4"]],
        }
    )
    args = ["canonical", json.dumps(doc), "--subset-cap", "1"]
    report, code = run_json(capsys, args)
    assert code == 4
    assert report["result"]["truncated"] is True
    VALIDATOR.validate(report)
    assert main(args) == 4
    assert "truncated at subset cap 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["matrix", "[[2,1],[1,1]]", "--width", "0"], "width must be positive"),
        (["matrix", "[[2,1],[1,1]]", "--width=-1/2"], "width must be positive"),
        (["slopes", "[[2,0],[0,3]]", "--bound", "0"], "search bound must be at least 1"),
        (["slopes", "[[2,0],[0,3]]", "--bound", "-3"], "search bound must be at least 1"),
        (
            ["table", json.dumps(LEVY_TABLE_DOC), "--subset-cap", "0"],
            "subset cap must be at least 1",
        ),
        (
            ["canonical", json.dumps(CANONICAL_DOC), "--subset-cap", "0"],
            "subset cap must be at least 1",
        ),
    ],
)
def test_option_out_of_range_exits_3(capsys, args, message):
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_canonical_rejects_subset_cap_below_one(capsys, cap):
    for command, doc in (("canonical", CANONICAL_DOC_FULL), ("table", LEVY_TABLE_DOC)):
        assert main([command, json.dumps(doc), "--subset-cap", cap]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: subset cap must be at least 1\n"


def test_capped_canonical_ignores_curve_beyond_the_cap(capsys):
    # 'k' lies in a simple obstruction but has no partition: an error only
    # when the cap lets the check read it
    doc = json.loads(json.dumps(CANONICAL_DOC_FULL))
    inner = doc["decomposition"][1]["first_return"]["table"]
    inner["classes"].append({"id": "k", "pullback": [{"degree": 1, "target": "k"}]})
    assert main(["canonical", json.dumps(doc)]) == 3
    assert "'k'" in capsys.readouterr().err
    report, code = run_json(capsys, ["canonical", json.dumps(doc), "--subset-cap", "1"])
    assert code == 4
    assert report["result"]["truncated"] is True
    assert report["result"]["accepted"] is True


def test_matrix_brackets_near_one_match_fresh_isolators(capsys):
    # rho = sqrt(1 + 2^-31): the separated bracket needs more bisection
    # steps than the width bracket, and neither may inherit the other's
    eps = Fraction(1, 2**31)
    m = NonnegMatrix([[0, 1], [1 + eps, 0]])
    args = ["matrix", "--matrix", f'[[0,1],["{1 + eps}",0]]', "--width", "1/1000"]
    report, code = run_json(capsys, args)
    assert code == 0

    def fresh():
        return LargestRootIsolator([charpoly(m)], -2 - eps, 1 + eps)

    separated = fresh().refine_until_separated_from(Fraction(1))
    assert report["result"]["spectral"]["interval"] == [str(x) for x in separated]
    assert report["result"]["leading_interval"] == [
        str(x) for x in fresh().refine_to_width(Fraction(1, 1000))
    ]


def test_golden_ratio_bracket_at_width_ten_to_minus_1000():
    # the final bracket shares over 1000 continued-fraction terms with the
    # golden ratio; a fresh process, since a traceback would print to stderr
    width = "1/1" + "0" * 1000
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", "matrix", "--format", "json",
         "--width", width, "[[1,1],[1,0]]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lo, hi = map(Fraction, json.loads(proc.stdout)["result"]["leading_interval"])
    assert 0 < hi - lo <= Fraction(width)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1  # x^2 - x - 1 changes sign


@pytest.mark.parametrize(
    "width, matrix",
    [(f"1/{2**4097}", "[[1,1],[1,0]]"), ("1/1" + "0" * 4000, "[[1,2,0,1],[0,1,3,0],[2,0,1,1],[1,1,0,1]]")],
    ids=["two_to_the_minus_4097", "ten_to_the_minus_4000"],
)
def test_width_below_the_floor_exits_3_at_once(width, matrix):
    # before the floor, a width of 1/10^4000 took 3.8 s on this 4x4 matrix
    # (fresh process, 2-core x86_64, CPython 3.11)
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", "matrix", "--width", width, matrix],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: width must be at least 2^-4096\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_integer_past_the_digit_limit_exits_3(fmt):
    # the imprimitive block holds the square of a 4300-digit entry: 8600
    # digits, past the interpreter's int-string limit, so no report is written
    big = "9" * 4300
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", "matrix", "--format", fmt,
         json.dumps([[0, big], [big, 0]])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: the report needs an integer of more than 4300 digits\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_slopes_report_integer_past_the_digit_limit_exits_3(fmt):
    # diag(10^4000, 10^4000 + 1) has a degree of 8001 digits, which neither format can write
    big = 10**4000
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", "slopes", "--format", fmt,
         "--matrix", f"[[{big},0],[0,{big + 1}]]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: the report needs an integer of more than 4300 digits\n"


def test_inline_shorthand_leaves_json_strings_alone(capsys):
    # only bare fractions are quoted: one inside a string is not quoted a
    # second time, also after a string that ends in an escaped backslash
    report, code = run_json(capsys, ["matrix", '[["1/2",1/3],[0,1]]'])
    assert code == 0
    assert report["request"]["input"]["matrix"] == [["1/2", "1/3"], ["0", "1"]]
    assert main(["matrix", "--matrix", '[[1/2,"-1/4"],["2/4", 3 / 6]]']) == 3
    assert capsys.readouterr().err == "error: matrix entries must be nonnegative\n"
    assert main(["matrix", r'[["\\", "1/2"], [1/3, 0]]']) == 2
    assert capsys.readouterr().err.startswith("error: matrix[0][0]: Exact rational")


_SPACES = st.sampled_from(["", " ", "  "])
#: (shorthand text, the same entry in JSON): an integer, a bare p/q with or without
#: spaces around the slash, and a JSON string, which may hold a slash, quotes or backslashes
_SHORTHAND_ENTRIES = st.one_of(
    st.integers(-99, 99).map(lambda x: (str(x), str(x))),
    st.builds(
        lambda p, q, before, after: (f"{p}{before}/{after}{q}", json.dumps(f"{p}/{q}")),
        st.integers(-99, 99), st.integers(0, 99), _SPACES, _SPACES,
    ),
    st.text("0123456789/- \\\"", max_size=6).map(lambda text: (json.dumps(text),) * 2),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_SHORTHAND_ENTRIES, max_size=4), max_size=4), _SPACES)
def test_inline_shorthand_reads_as_json_with_every_fraction_quoted(rows, space):
    def matrix(which):
        return "[" + f",{space}".join("[" + f",{space}".join(e[which] for e in row) + "]" for row in rows) + "]"

    assert _load_inline_matrix(matrix(0), "argument") == json.loads(matrix(1))


def test_reports_write_matrices_from_integers(capsys, monkeypatch):
    # the echoed input, the imprimitive blocks and the table matrix are
    # written from (scale, ints): no report builds Fraction rows
    def refuse(m):
        raise AssertionError("Fraction rows built")

    monkeypatch.setattr(NonnegMatrix, "rows", property(refuse))
    report, code = run_json(capsys, ["matrix", "--check-simple", '[["0","4/6"],["3/2",0]]'])
    assert code == 0
    assert report["request"]["input"]["matrix"] == [["0", "2/3"], ["3/2", "0"]]
    assert report["result"]["imprimitive_decomposition"]["blocks"] == [[["1"]], [["1"]]]
    report, code = run_json(capsys, ["table", json.dumps(LEVY_TABLE_DOC)])
    assert code == 0
    assert report["result"]["matrix"] == [["0", "1"], ["1", "0"]]


def test_matrix_reports_build_no_sturm_chain(capsys, monkeypatch):
    # the brackets come from the Fourier sequence of p: no request builds a
    # Sturm chain, a squarefree part or a Sturm root count
    def refuse(*args):
        raise AssertionError("Sturm route taken")

    for name in ("sturm_chain", "squarefree_part", "count_roots_between"):
        monkeypatch.setattr(polynomials, name, refuse)
    # a double root, complex eigenvalues of modulus rho (index 3), and rho = 1
    cases = [
        ("[[2,0],[0,2]]", "above_one"),
        ("[[0,1,0],[0,0,2],[3,0,0]]", "above_one"),
        ('[["1/2","1/2"],["1/3","2/3"]]', "exactly_one"),
    ]
    for rows, tag in cases:
        report, code = run_json(capsys, ["matrix", "--check-simple", rows])
        assert code == 0
        assert report["result"]["spectral"]["class"] == tag
    report, code = run_json(capsys, ["table", json.dumps(LEVY_TABLE_DOC)])
    assert code == 0


def test_exact_one_matrix_reports_build_no_characteristic_polynomial(capsys, monkeypatch):
    # at rho = 1 both brackets are [1, 1] below width 1 without bisection: no
    # request builds charpoly or a block's polynomial; at a width of 1 equal
    # row sums still give [1, 1] at once, and the reducible matrix, whose row
    # sums differ, bisects on the polynomial of its stochastic block
    def refuse(*args):
        raise AssertionError("characteristic polynomial built")

    monkeypatch.setattr(spectral, "charpoly", refuse)
    monkeypatch.setattr(spectral, "_block_charpoly", refuse)
    cases = [
        '[["1/2","1/2"],["1/3","2/3"]]',
        "[[0,1],[1,0]]",
        # reducible: the stochastic block on 0, 1 feeds nothing, the block on 2 is below 1
        '[["1/2","1/2",0],["1/3","2/3",0],["1/4",0,"1/2"]]',
    ]
    for rows in cases:
        for width in ([], ["--width", "1/2"]):
            report, code = run_json(capsys, ["matrix", "--check-simple", *width, rows])
            assert code == 0
            result = report["result"]
            assert result["spectral"] == {"class": "exactly_one", "interval": ["1", "1"]}
            assert result["leading_interval"] == ["1", "1"]
            assert result["simple"]["exists"]
        if rows == cases[-1]:
            with pytest.raises(AssertionError, match="characteristic polynomial built"):
                main(["matrix", "--width", "1", rows])
        else:
            report, code = run_json(capsys, ["matrix", "--width", "1", rows])
            assert code == 0 and report["result"]["leading_interval"] == ["1", "1"]


def test_check_simple_just_above_one_reports_a_verified_certificate():
    # rho - 1 is about 1e-4: the certificate takes no power series in rho
    rows = [["1/2", "2501/10000"], [1, "1/2"]]
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", "matrix", "--format", "json",
         "--check-simple", json.dumps(rows)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    simple = json.loads(proc.stdout)["result"]["simple"]
    assert simple["exists"] is True
    v = [Fraction(x) for x in simple["certificate"]]
    m = [[Fraction(x) for x in row] for row in rows]
    assert all(x > 0 for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) >= y for row, y in zip(m, v))


@pytest.mark.parametrize(
    "args, message",
    [
        (["--width", "1/1" + "0" * 5000], "options.width: invalid rational '1/1" + "0" * 36
         + "... (5005 characters)"),
        (["--width", "1/0"], "options.width: invalid rational '1/0'"),
        (["--width", "0.5"], "options.width: Exact rational: an integer or a canonical "
         "'p/q' string; floats are forbidden."),
        (['{"schema": "' + "x" * 3000 + '", "matrix": [[1]]}'],
         "schema: expected 'thurston-obstruct/matrix/1', got '" + "x" * 39 + "... (3002 characters)"),
    ],
    ids=["5000_digit_width", "zero_denominator", "decimal_width", "long_schema"],
)
def test_rejected_values_are_echoed_up_to_forty_characters(capsys, args, message):
    if args[0] == "--width":
        args = ["matrix", "[[1,1],[1,0]]", *args]
    else:
        args = ["matrix", *args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound"],
        ["table", json.dumps(LEVY_TABLE_DOC), "--subset-cap"],
        ["canonical", json.dumps(CANONICAL_DOC), "--subset-cap"],
    ],
    ids=["bound", "table_subset_cap", "canonical_subset_cap"],
)
def test_huge_int_options_are_echoed_cut(args):
    # past the interpreter's int-string limit: argparse's own message would echo every digit
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", *args, "1" + "0" * 5000],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    # argparse's usage lines come first: canonical's alone take about 170 characters
    assert len(proc.stderr) < 400
    message = proc.stderr.splitlines()[-1]
    assert len(message) < 200
    assert f"error: argument {args[-1]}: invalid int value: '1000" in message
    assert message.endswith("... (5003 characters)")


def test_short_invalid_int_options_keep_the_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", json.dumps(LEVY_TABLE_DOC), "--subset-cap", "x1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "thurston-obstruct table: error: argument --subset-cap: invalid int value: 'x1'\n"
    )


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    slopes = ["slopes", "--matrix", "[[2,0],[0,3]]", "--format", "json"]
    assert main([*slopes[:1], "--bound", "3", *slopes[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["search"]["bound"] == 3
    assert main(slopes) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["result"]["search"] is None
    # the defaults come back after calls that set the options
    for command, doc in (("table", LEVY_TABLE_DOC), ("canonical", CANONICAL_DOC)):
        run_json(capsys, [command, json.dumps(doc), "--subset-cap", "1"])
        report, _ = run_json(capsys, [command, json.dumps(doc)])
        assert report["request"]["options"]["subset_cap"] == DEFAULT_SUBSET_CAP
    run_json(capsys, ["matrix", "[[1,1],[1,0]]", "--width", "1/10"])
    report, _ = run_json(capsys, ["matrix", "[[1,1],[1,0]]"])
    assert report["request"]["options"]["width"] == DEFAULT_WIDTH
    # a call that argparse ends with exit 2 leaves the next report unchanged
    for rejected in (["slopes", "--bound", "x"], ["slopes", "--no-such-option"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(slopes) == 0
        assert capsys.readouterr().out == first


# argv that the plain-argv parse must leave to argparse, or read as argparse
# does: help, missing and leftover arguments, options before the command,
# abbreviations, "--", repeated options, values that start with "-", empty
# values and bad values
ONE_PASS_ARGV = [
    [], ["-h"], ["nope"], ["matrix"], ["matrix", "-h"], ["matrix", "[[1]]", "--help"],
    ["matrix", "--bogus"], ["matrix", "x", "y"], ["matrix", "[[1]]", "extra"],
    ["--format", "json", "matrix", "[[1]]"], ["matrix", "--form", "json", "[[1]]"],
    ["matrix", "--width"], ["matrix", "--", "[[1]]"], ["matrix", "-x"], ["matrix", "--check"],
    ["table", "--subset-cap", "abc", "{}"], ["canonical", "--subset-cap=3", "{}"],
    ["slopes", "--bound", "x", "[[2,0],[0,2]]"], ["orbifold", "--matrix", "[[1]]"],
    ["matrix", "--format", "xml", "[[1]]"],
    ["matrix", "--format", "json", "--format", "text", "[[1]]"],
    ["matrix", "--check-simple", "--check-simple", "[[1]]"],
    ["slopes", "--bound", "2", "--bound", "3", "[[2,0],[0,3]]"],
    ["slopes", "--bound", "-3", "[[2,0],[0,3]]"], ["matrix", "--matrix", ""],
    ["matrix", "--format", "", "[[1]]"], ["matrix", "--width", "1/2", ""],
    ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", " 4 "],
]


def _main_outcome(capsys, argv) -> tuple[str, str, object]:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("argv", ONE_PASS_ARGV, ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_parser_pass_matches_the_full_parser(capsys, monkeypatch, argv):
    # stdout, stderr and exit code as with argparse alone
    one_pass = _main_outcome(capsys, argv)
    monkeypatch.setattr("thurston_obstruct.cli._parse_args", lambda argv: _build_parser().parse_args(argv))
    assert one_pass == _main_outcome(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--check-simple", "--format", "json", "--width", "1/1000000", "[[1,1],[1,0]]"],
        ["matrix", "--matrix", "[[1]]"],
        ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", "8"],
        ["table", "{}", "--subset-cap", "3", "--format", "text"],
        ["canonical", "--subset-cap", "0", "{}"],
        ["orbifold", "a b=c"],
        ["orbifold"],
    ],
)
def test_plain_argv_skip_argparse(argv):
    args = _plain_args(argv)
    assert args is not None
    assert vars(args) == vars(_build_parser().parse_args(argv))


OPTION_TOKENS = [
    "--format", "--matrix", "--width", "--check-simple", "--bound", "--subset-cap",
    "--form", "--mat", "--check", "--sub", "--bo", "--w",
    "--format=json", "--bound=3", "--subset-cap=2", "--matrix=[[1]]",
    "--", "-", "-h", "--help", "-x",
]
VALUE_TOKENS = [
    "-3", "-1.5", "-1/2", "", " ", "a b", "json", "text", "xml", "JSON",
    "3", " 7 ", "+2", "1_0", "x", "[[1]]", "1/2", "{}",
]


def _own_option(option):
    """One option of a subcommand, with a value that its kind is more likely to accept than not."""
    flag, _, kind, _, _ = option
    if kind is bool:
        return st.just((flag,))
    good = {int: ["3", " 7 ", "+2", "1_0"], str: ["[[1]]", "1/2", "a b"]}.get(kind, kind)
    return st.tuples(st.just(flag), st.sampled_from([*good, *good, *VALUE_TOKENS]))


def _argv(command):
    """The command, its own options with values and inputs, and up to two stray tokens put anywhere."""
    own = [_own_option(option) for option in _SUBCOMMANDS.get(command, ("", ()))[1]]
    pieces = st.one_of(*own, st.tuples(st.sampled_from(["[[1]]", "{}", "", "a b", "x=1"])))
    stray = st.tuples(st.integers(0, 9), st.sampled_from([*_SUBCOMMANDS, "nope", *OPTION_TOKENS, *VALUE_TOKENS]))

    def assemble(drawn):
        chosen, strays = drawn
        tokens = [token for piece in chosen for token in piece]
        for at, token in strays:
            tokens.insert(at % (len(tokens) + 1), token)
        return [command, *tokens]

    # each option at most once and one input, so that repeats come from the strays only
    once = st.lists(pieces, max_size=4, unique_by=lambda piece: piece[0] if piece[0][:1] == "-" else "")
    return st.tuples(once, st.lists(stray, max_size=2)).map(assemble)


@given(st.sampled_from([*_SUBCOMMANDS, "nope", "-h", "--format"]).flatmap(_argv))
@settings(max_examples=2000, deadline=None)
def test_plain_argv_parse_equals_argparse(argv):
    args = _plain_args(argv)
    if args is not None:
        assert vars(args) == vars(_build_parser().parse_args(argv))


def test_uncapped_canonical_report_is_not_truncated(capsys):
    report, code = run_json(capsys, ["canonical", json.dumps(CANONICAL_DOC_FULL)])
    assert code == 0
    assert report["result"]["truncated"] is False


@pytest.mark.parametrize(
    "document",
    [
        '[["0.5"]]',
        '[["1e3"]]',
        '[[" 1/2 "]]',
        '[["1_000"]]',
        "[[" + "7" * 5000 + "]]",
        "[" * 3000 + "]" * 3000,
    ],
    ids=["decimal", "exponent", "spaces", "digit_separator", "5000_digits", "deep_nesting"],
)
def test_schema_rejected_documents_exit_2(capsys, document):
    for args in (["matrix", document], ["matrix", "--matrix", document]):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_orbifold_report_with_unramified_marked_point(capsys):
    # the marked fixed point 1 of z^2 lies off the postcritical set {0, inf}
    doc = json.loads(json.dumps(PORTRAIT_DOC))
    doc["points"].append({"id": "1", "marked": True, "image": "1", "local_degree": 1})
    report, code = run_json(capsys, ["orbifold", json.dumps(doc)])
    assert code == 0
    assert report["result"]["ramification"]["1"] == 1
    VALIDATOR.validate(report)


def test_missing_input(capsys):
    code = main(["orbifold"])
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", "8"],
        ["matrix", "--check-simple", "--matrix", '[["1/2",0],[1,1]]'],
        ["matrix", "--matrix", "[[0,2],[1,0]]", "--width", "1/1000"],
        ["orbifold", json.dumps(PORTRAIT_DOC)],
        ["table", json.dumps(LEVY_TABLE_DOC)],
        ["canonical", json.dumps(CANONICAL_DOC)],
        ["canonical", json.dumps(CANONICAL_DOC_FULL)],
    ],
)
def test_reports_roundtrip_bit_for_bit(capsys, args):
    report, code = run_json(capsys, args)
    rerun, rerun_code = run_request(report["request"])
    assert dumps(rerun) == dumps(report)
    assert rerun_code == code
    VALIDATOR.validate(report)


def test_canonical_full_decomposition_accepts(capsys):
    report, code = run_json(capsys, ["canonical", json.dumps(CANONICAL_DOC_FULL)])
    assert code == 0
    assert report["result"]["accepted"] is True
    kinds = [c["kind"] for c in report["result"]["components"]]
    assert kinds == ["homeomorphism", "2222", "general"]


def test_text_rendering_all_commands(capsys):
    cases = [
        (["orbifold", json.dumps(PORTRAIT_DOC)], "orbifold class: parabolic"),
        (["matrix", "--matrix", "[[0,2],[1,0]]"], "imprimitivity index: 2"),
        (["table", json.dumps(LEVY_TABLE_DOC)], "levy cycles: [['g1', 'g2']]"),
        (["canonical", json.dumps(CANONICAL_DOC)], "verdict: Accept"),
        (
            ["canonical", json.dumps({**CANONICAL_DOC, "multicurve": ["g1"]})],
            "verdict: Reject",
        ),
        (["slopes", "--matrix", "[[2,0],[0,2]]"], "eigenvalues: equal integers 2, 2"),
        (["slopes", "--matrix", "[[1,-1],[1,1]]"], "eigenvalues: non-integer or complex"),
        (["slopes", "--matrix", "[[1,-1],[1,1]]"], "canonical obstruction: empty"),
        (
            ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", "8"],
            "search (bound 8): nonempty, slope 1/0, multiplier 3/2",
        ),
        (
            ["matrix", "--check-simple", "--matrix", '[["1/2",0],[1,1]]'],
            "simple obstruction: no (no positive subinvariant vector exists)",
        ),
    ]
    for args, expected in cases:
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0, args
        assert expected in out, f"{expected!r} not found in output of {args}"


def test_empty_matrix_degenerate(capsys):
    report, code = run_json(capsys, ["matrix", "--matrix", "[]"])
    assert code == 0
    assert report["result"]["n"] == 0
    assert report["result"]["spectral"]["class"] == "below_one"
    VALIDATOR.validate(report)


def test_no_floats_anywhere_in_reports(capsys):
    report, _ = run_json(capsys, ["matrix", "--matrix", "[[0,2],[1,0]]"])

    def walk(value):
        assert not isinstance(value, float), f"float leaked into report: {value}"
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    walk(report)


@pytest.mark.parametrize("case", ["empty", "directory", "undecodable"])
def test_unreadable_inputs_exit_2(tmp_path, capsys, case):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe{")
    # "" names the current directory, as a directory path does
    argument = {"empty": "", "directory": str(tmp_path), "undecodable": str(undecodable)}[case]
    assert main(["matrix", argument]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: input file {argument!r} cannot be read: ")
    assert "Traceback" not in captured.err


MISSING_INPUT = str(Path(__file__).parent / "no-such-input.json")


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["matrix", "[[1]]", "--matrix", "[[1]]"], 2, "give either an input file or --matrix, not both"),
        (["matrix", MISSING_INPUT], 2, f"input file {MISSING_INPUT!r} does not exist"),
        # the rewrite '[["1/2",]]' fails too, at column 9; the first diagnostics are kept
        (
            ["matrix", "--matrix", "[[1/2,]]"],
            2,
            "--matrix: invalid JSON at line 1, column 4: Expecting ',' delimiter",
        ),
        (
            ["table", json.dumps({**LEVY_TABLE_DOC, "multicurve": ["g1", "g1"]})],
            3,
            "multicurve repeats a class id",
        ),
    ],
    ids=["file and --matrix", "missing file", "shorthand still fails", "repeated class"],
)
def test_input_errors_exit_with_their_exact_message(capsys, args, code, message):
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


def test_run_request_refuses_an_unknown_command():
    with pytest.raises(InputFormatError, match="^unknown command 'nope'$"):
        run_request({"command": "nope", "input": {}, "options": {}})


def _edited(doc: dict, edit) -> str:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    """An edit that sets the field at ``path`` (keys and indices) to ``value``."""

    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "command, document, field",
    [
        ("orbifold", _edited(PORTRAIT_DOC, lambda d: d["points"][1].update(local_deg=2)),
         "points[1].local_deg"),
        ("table", _edited(LEVY_TABLE_DOC, _set(["multicurv"], ["g1"])), "multicurv"),
        ("table", _edited(LEVY_TABLE_DOC, lambda d: d["classes"][1].pop("pullback")),
         "classes[1].pullback"),
        ("canonical", _edited(CANONICAL_DOC, _set(["decomposition", 0, "marked_points"], -1)),
         "decomposition[0].marked_points"),
        ("table", _edited(LEVY_TABLE_DOC, _set(["map_degree"], 1)), "map_degree"),
        ("table", _edited(LEVY_TABLE_DOC, _set(["classes", 0, "pullback", 0, "degree"], 0)),
         "classes[0].pullback[0].degree"),
        ("orbifold", _edited(PORTRAIT_DOC, _set(["degree"], 1)), "degree"),
        ("orbifold", _edited(PORTRAIT_DOC, _set(["points", 0, "local_degree"], 0)),
         "points[0].local_degree"),
        ("orbifold", _edited(PORTRAIT_DOC, _set(["points", 1, "image"], "")), "points[1].image"),
        ("canonical", _edited(CANONICAL_DOC, _set(["multicurve"], [])), "multicurve"),
        ("table", _edited(LEVY_TABLE_DOC, _set(["marked_points"], None)), "marked_points"),
        ("table", _edited(LEVY_TABLE_DOC, _set(["multicurve"], None)), "multicurve"),
        ("canonical",
         _edited(CANONICAL_DOC, _set(["decomposition", 0, "first_return", "table"], None)),
         "decomposition[0].first_return.table"),
    ],
    ids=[
        "unknown_point_field", "unknown_table_field", "missing_pullback",
        "negative_marked_points", "map_degree_1", "pullback_degree_0", "portrait_degree_1",
        "local_degree_0", "empty_image", "empty_multicurve", "null_marked_points",
        "null_multicurve", "null_inner_table",
    ],
)
def test_schema_violations_exit_2_with_field_path(capsys, command, document, field):
    assert main([command, document]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
    assert "Traceback" not in captured.err


def test_slopes_documents_are_checked_against_the_slopes_schema(capsys):
    # a float entry is reported as a non-integer, not as a non-rational
    doc = json.dumps({"schema": "thurston-obstruct/matrix/1", "matrix": [[0.5, 0], [0, 3]]})
    assert main(["slopes", doc]) == 2
    assert capsys.readouterr().err == "error: matrix[0][0]: expected an integer\n"


def test_first_return_errors_name_the_failing_field(capsys):
    # every branch of the first-return oneOf rejects the kind: the schema's description
    doc = _edited(CANONICAL_DOC, _set(["decomposition", 0, "first_return", "kind"], "torus"))
    assert main(["canonical", doc]) == 2
    assert capsys.readouterr().err.startswith(
        "error: decomposition[0].first_return.kind: First-return map"
    )
    # the kind matches one branch: that branch's error
    doc = _edited(CANONICAL_DOC, _set(["decomposition", 0, "first_return", "matrix", 1, 0], "0"))
    assert main(["canonical", doc]) == 2
    assert capsys.readouterr().err == (
        "error: decomposition[0].first_return.matrix[1][0]: expected an integer\n"
    )
    doc = _edited(CANONICAL_DOC, lambda d: d["decomposition"][0]["first_return"].pop("matrix"))
    assert main(["canonical", doc]) == 2
    assert capsys.readouterr().err == (
        "error: decomposition[0].first_return.matrix: missing field\n"
    )


# ---------------------------------------------------------------------------
# the process entry: it freezes start-up objects, main never does


# one request per subcommand
ENTRY_REQUESTS = [
    ["orbifold", json.dumps(PORTRAIT_DOC)],
    ["matrix", "--check-simple", "[[0,2],[1,0]]"],
    ["slopes", "--matrix", "[[2,0],[0,3]]", "--bound", "8"],
    ["table", json.dumps(LEVY_TABLE_DOC)],
    ["canonical", json.dumps(CANONICAL_DOC)],
]


def _cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "thurston_obstruct.cli", *argv], env=env, timeout=60, **kwargs
    )


def test_main_never_freezes(capsys):
    frozen = gc.get_freeze_count()
    for argv in ENTRY_REQUESTS:
        assert main(argv) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_script_freezes_before_main_and_returns_its_code(monkeypatch, code):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr("thurston_obstruct.cli.main", lambda: calls.append("main") or code)
    assert script() == code
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize(
    "argv",
    [
        *([*argv, "--format", fmt] for argv in ENTRY_REQUESTS for fmt in ("json", "text")),
        ["matrix", '[["0.5"]]'],
        ["slopes", "--matrix", "[[1,0],[0,1]]"],
        ["table", json.dumps(LEVY_TABLE_DOC), "--subset-cap", "1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:])[:60],
)
def test_process_entry_matches_main_in_process(capsys, argv):
    # a fresh `python -m thurston_obstruct.cli` writes what main writes, and exits with its code
    code = main(argv)
    captured = capsys.readouterr()
    proc = _cli_process(argv, capture_output=True, text=True)
    assert (proc.stdout, proc.stderr, proc.returncode) == (captured.out, captured.err, code)


def test_the_process_entry_freezes_before_the_request():
    # the __main__ block runs script, which freezes everything imported so far
    probe = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
        "sys.argv[1:] = ['slopes', '--matrix', '[[2,0],[0,3]]']; "
        "runpy.run_module('thurston_obstruct.cli', run_name='__main__')"
    )
    env = dict(os.environ, PYTHONPATH=str(SCHEMA_DIR.parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == "True\n"


class _FailingStdout:
    """A stdout whose ``write`` or ``flush`` raises, over a real file descriptor."""

    def __init__(self, fd: int, failing: str, exc: OSError):
        self.fd, self.failing, self.exc = fd, failing, exc

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise self.exc
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise self.exc

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "exc",
    [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
    ids=["no_space", "broken_pipe"],
)
def test_a_failed_report_write_exits_1_with_one_line(capsys, monkeypatch, tmp_path, failing, exc):
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(sys, "argv", ["thurston-obstruct", *ENTRY_REQUESTS[2]])
    with open(tmp_path / "stdout", "wb") as out:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(out.fileno(), failing, exc))
        assert script() == 1
        # the interpreter's last flush of stdout goes to os.devnull
        assert os.fstat(out.fileno()).st_rdev == os.stat(os.devnull).st_rdev
    assert capsys.readouterr().err == f"error: cannot write the report: {exc.strerror}\n"


def test_main_lets_a_failed_write_reach_library_callers(monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "wb") as out:
        exc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(sys, "stdout", _FailingStdout(out.fileno(), "write", exc))
        with pytest.raises(OSError) as raised:
            main(ENTRY_REQUESTS[2])
    assert raised.value is exc


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_full_device_exits_1_with_one_line(unbuffered, monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = _cli_process(ENTRY_REQUESTS[2], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the report: No space left on device\n"


def test_a_closed_pipe_exits_1_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes, so its first write fails
    try:
        proc = _cli_process(ENTRY_REQUESTS[2], stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the report: Broken pipe\n"


def test_the_console_script_names_the_process_entry():
    # read as text: tomllib is not in Python 3.10
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'thurston-obstruct = "thurston_obstruct.cli:script"'


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["-h"], ["matrix", "-h"]], ids=["help", "matrix_help"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_help_text_that_cannot_be_written_exits_1_with_one_line(argv, unbuffered, monkeypatch):
    # argparse's own print_help swallows the write's OSError, and its SystemExit
    # used to skip the entry's flush: both exited 0 with nothing on stderr
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the report: No space left on device\n"


def _spectral_calls(monkeypatch, rows) -> dict:
    """Calls of ``charpoly`` and ``_block_charpoly`` made by one ``matrix --check-simple`` request."""
    calls = {"charpoly": 0, "_block_charpoly": 0}

    def counted(name):
        real = getattr(spectral, name)
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    for name in calls:
        monkeypatch.setattr(spectral, name, counted(name))
    doc = json.dumps([[str(x) for x in row] for row in rows])
    assert main(["matrix", "--check-simple", "--format", "json", doc]) == 0
    return calls


def test_collatz_wielandt_bounds_start_at_seven_rows(capsys, monkeypatch):
    # the benchmark's nesting test needs the charpoly span of a primitive 6 x 6 request
    rng = random.Random(6)
    dense = [[Fraction(rng.randint(1, 4), rng.randint(1, 5)) for _ in range(10)] for _ in range(10)]
    assert _spectral_calls(monkeypatch, [row[:6] for row in dense[:6]])["charpoly"] >= 1
    # a primitive 10 x 10 whose bounds settle both brackets: no polynomial at all
    assert _spectral_calls(monkeypatch, dense) == {"charpoly": 0, "_block_charpoly": 0}
    capsys.readouterr()
