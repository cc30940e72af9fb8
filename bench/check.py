"""Output checker for benchmark requests; runs after the timed region.

It never calls the code under test.  Reports are validated against the
shipped ``report.schema.json``; spectral tags and eigenvalue brackets are
compared with an independent oracle (sympy's characteristic polynomial and
real-root counting over QQ); certificates are re-verified exactly over
``Fraction``; matrices, invariance and canonical verdicts are recomputed
from the input document.

``check`` returns ``None`` for a passing request, else ``(kind, reason)``:

- ``crash``: a traceback, or an exception escaped ``main``;
- ``exit``: an exit code other than the one the input was built for;
- ``truncation``: a capped request whose report is not marked truncated;
- ``schema``: a report that fails the shipped report schema or does not
  echo its request;
- ``wrong``: a report whose mathematics contradicts an oracle, the input
  document or its own certificate.

Only ``wrong`` makes a run incorrect; every kind counts as a failed request.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Optional

import jsonschema
from jsonschema.exceptions import best_match
from referencing import Registry, Resource
from sympy import QQ, Poly, Symbol
from sympy.polys.matrices import DomainMatrix

TRACEBACK = "Traceback (most recent call last)"


# ---------------------------------------------------------------------------
# exact and oracle mathematics


def as_fraction(value: Any) -> Fraction:
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def matrix_rows(value: Any) -> list[list[Fraction]]:
    return [[as_fraction(x) for x in row] for row in value]


def is_subinvariant_certificate(rows: list[list[Fraction]], vector: list[Fraction]) -> bool:
    """v > 0 and M v >= v componentwise, exactly."""
    n = len(rows)
    if len(vector) != n or not all(x > 0 for x in vector):
        return False
    return all(sum(rows[i][j] * vector[j] for j in range(n)) >= vector[i] for i in range(n))


def _sympy_poly(rows: list[list[Fraction]]) -> Poly:
    return _charpoly(tuple(map(tuple, rows)))


@functools.lru_cache(maxsize=1024)
def _charpoly(rows: tuple[tuple[Fraction, ...], ...]) -> Poly:
    """Characteristic polynomial, computed once per matrix (the checks ask several times)."""
    n = len(rows)
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows], (n, n), QQ)
    return Poly(dm.charpoly(), Symbol("x"), domain=QQ)


@functools.lru_cache(maxsize=4096)
def _count_roots(poly: Poly, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    """Real roots of ``poly`` in [lo, hi]; ``None`` leaves that side unbounded."""
    def bound(x):
        return None if x is None else QQ(x.numerator, x.denominator)

    return poly.count_roots(bound(lo), bound(hi))


def _roots_above(poly: Poly, point: Fraction) -> int:
    at = QQ(point.numerator, point.denominator)
    return _count_roots(poly, point, None) - (1 if poly.eval(at) == 0 else 0)


def oracle_tag(rows: list[list[Fraction]]) -> str:
    """How the leading eigenvalue compares with 1 (it is the largest real root)."""
    if not rows:
        return "below_one"
    poly = _sympy_poly(rows)
    if _roots_above(poly, Fraction(1)):
        return "above_one"
    return "exactly_one" if poly.eval(1) == 0 else "below_one"


def leading_root_within(rows: list[list[Fraction]], lo: Fraction, hi: Fraction) -> bool:
    """The largest real eigenvalue lies in [lo, hi]."""
    poly = _sympy_poly(rows)
    inside = _count_roots(poly, lo, hi)
    return lo <= hi and inside > 0 and _roots_above(poly, hi) == 0


def _submatrix(rows, indices):
    return [[rows[i][j] for j in indices] for i in indices]


def closures(rows: list[list[Fraction]]) -> set[tuple[int, ...]]:
    """Forward closure of every vertex under support edges i -> j (entry > 0)."""
    n = len(rows)
    out = set()
    for start in range(n):
        seen, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if rows[i][j] > 0 and j not in seen:
                    seen.add(j)
                    todo.append(j)
        out.add(tuple(sorted(seen)))
    return out


def simple_exists(rows: list[list[Fraction]]) -> bool:
    """A positive v with M v >= v exists iff no support-closed set has rho < 1.

    Every closed set contains the closure of each of its vertices, and rho
    is monotone on principal submatrices, so testing closures suffices.
    """
    if not rows:
        return False
    return all(oracle_tag(_submatrix(rows, c)) != "below_one"
               for c in sorted(closures(rows), key=len))


def check_simple(rows, exists: bool, certificate) -> Optional[str]:
    if exists:
        vector = [as_fraction(x) for x in certificate or []]
        if not is_subinvariant_certificate(rows, vector):
            return "simple certificate fails v > 0, M v >= v"
    elif certificate is not None or simple_exists(rows):
        return "claims no simple certificate, but the oracle finds no closed set below 1"
    return None


def eigen_kind(action) -> str:
    (a, b), (c, d) = action
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return "non_integer_or_complex"
    return "two_distinct_integers" if disc else "equal_integers"


# ---------------------------------------------------------------------------
# tables recomputed from the input document


def table_matrix(fields: dict, curves: Optional[list[str]]) -> tuple[list[str], list[list[Fraction]]]:
    """Curves in declaration order and entry (i, j) = sum of 1/degree, row j -> curve i."""
    ids = [c["id"] for c in fields["classes"]]
    order = ids if curves is None else [c for c in ids if c in set(curves)]
    index = {cid: k for k, cid in enumerate(order)}
    rows = [[Fraction(0)] * len(order) for _ in order]
    pullbacks = {c["id"]: c.get("pullback", []) for c in fields["classes"]}
    for j, cid in enumerate(order):
        for comp in pullbacks[cid]:
            if comp["target"] in index:
                rows[index[comp["target"]]][j] += Fraction(1, comp["degree"])
    return order, rows


def complete_invariance(fields: dict, curves: list[str]) -> Optional[bool]:
    members = set(curves)
    pullbacks = {c["id"]: c.get("pullback", []) for c in fields["classes"]}
    hit, unknown = set(), False
    for cid in curves:
        for comp in pullbacks[cid]:
            if comp["target"] == "untracked":
                unknown = True
            elif comp["target"] in members:
                hit.add(comp["target"])
            elif comp["target"] != "inessential":
                return False
    if unknown:
        return None
    return hit == members


def tracked_count(fields: dict) -> int:
    return sum(all(c["target"] != "untracked" for c in cls.get("pullback", []))
               for cls in fields["classes"])


# ---------------------------------------------------------------------------
# per-command checks of a parsed report


def parse_argv(argv) -> tuple[str, dict, Any]:
    """Command, option values and the input document of a generated request."""
    command, options, document = argv[0], {}, None
    rest = list(argv[1:])
    while rest:
        token = rest.pop(0)
        if token == "--check-simple":
            options["check_simple"] = True
        elif token.startswith("--"):
            options[token[2:].replace("-", "_")] = rest.pop(0)
        else:
            document = token
    if "matrix" in options:
        document = options.pop("matrix")
    return command, options, json.loads(document)


def _tag_and_interval(rows, spectral: dict) -> Optional[str]:
    tag = oracle_tag(rows)
    if spectral["class"] != tag:
        return f"spectral class {spectral['class']}, oracle says {tag}"
    lo, hi = (as_fraction(x) for x in spectral["interval"])
    side_ok = {"above_one": lo > 1, "below_one": hi < 1, "exactly_one": lo == hi == 1}[tag]
    if not side_ok or not leading_root_within(rows, lo, hi):
        return f"spectral interval [{lo}, {hi}] inconsistent with tag {tag} or the leading eigenvalue"
    return None


def check_matrix(doc, options, result) -> Optional[str]:
    rows = matrix_rows(doc["matrix"])
    if result["n"] != len(rows):
        return "wrong size"
    problem = _tag_and_interval(rows, result["spectral"])
    if problem:
        return problem
    lo, hi = (as_fraction(x) for x in result["leading_interval"])
    if hi - lo > Fraction(options["width"]) or not leading_root_within(rows, lo, hi):
        return f"leading interval [{lo}, {hi}] misses the eigenvalue or is too wide"
    if options.get("check_simple"):
        simple = result["simple"]
        return check_simple(rows, simple["exists"], simple["certificate"])
    return None


def check_table(doc, options, result) -> Optional[str]:
    order, rows = table_matrix(doc, doc.get("multicurve"))
    if result["curves"] != order or matrix_rows(result["matrix"]) != rows:
        return "matrix differs from the one the table declares"
    problem = _tag_and_interval(rows, result["spectral"])
    if problem:
        return problem
    if result["is_obstruction"] != (result["spectral"]["class"] != "below_one"):
        return "obstruction verdict contradicts the spectral class"
    if result["completely_invariant"] != (complete_invariance(doc, order) if order else True):
        return "complete invariance verdict is wrong"
    problem = check_simple(rows, result["simple"]["exists"], result["simple"]["certificate"])
    if problem:
        return problem
    _, full = table_matrix(doc, None)
    ids = [c["id"] for c in doc["classes"]]
    for curves in result["minimal_obstructions"]["multicurves"]:
        if oracle_tag(_submatrix(full, [ids.index(c) for c in curves])) == "below_one":
            return f"listed minimal obstruction {curves} is below 1"
    return None


def expected_canonical(doc, cap: int) -> tuple[Optional[bool], bool]:
    """Independent verdict (None when it cannot be decided here) and whether the cap bites."""
    order, rows = table_matrix(doc["table"], doc["multicurve"])
    if not simple_exists(rows) or complete_invariance(doc["table"], order) is not True:
        return False, False
    verdict, capped = True, False
    for comp in doc["decomposition"]:
        ret = comp["first_return"]
        if ret["kind"] == "2222":
            verdict &= eigen_kind(ret["matrix"]) != "two_distinct_integers"
            inner = ret.get("table")
            if inner is not None:
                capped |= len(inner["classes"]) > cap
                if any(sorted(map(len, c.get("partition", [[], []]))) != [2, 2]
                       for c in inner["classes"]):
                    return None, capped  # needs the simple-obstruction search itself
        elif ret["kind"] == "general":
            verdict &= oracle_tag(table_matrix(ret["table"], None)[1]) == "below_one"
    return verdict, capped


def check_canonical(doc, options, result) -> Optional[str]:
    verdict, _ = expected_canonical(doc, int(options["subset_cap"]))
    if verdict is not None and result["accepted"] != verdict:
        return f"verdict {'Accept' if result['accepted'] else 'Reject'}, expected the opposite"
    order, rows = table_matrix(doc["table"], doc["multicurve"])
    cert = result["candidate"]["simple_certificate"]
    if cert is not None and not is_subinvariant_certificate(rows, [as_fraction(x) for x in cert]):
        return "candidate simple certificate fails v > 0, M v >= v"
    return None


def check_slopes(doc, options, result) -> Optional[str]:
    kind = eigen_kind(doc)
    if result["eigenvalues"]["kind"] != kind:
        return f"eigenvalue class {result['eigenvalues']['kind']}, expected {kind}"
    if result["canonical_obstruction"]["empty"] != (kind != "two_distinct_integers"):
        return "canonical obstruction contradicts the eigenvalue class"
    return None


def check_orbifold(doc, options, result) -> Optional[str]:
    weights = result["weights"]
    chi = 2 - sum(1 - (Fraction(0) if w == "inf" else Fraction(1, w)) for w in weights)
    if as_fraction(result["chi"]) != chi:
        return "Euler characteristic does not match the weights"
    if result["is_2222"] != (result["class"] == "parabolic" and weights == [2, 2, 2, 2]):
        return "(2,2,2,2) flag contradicts the signature"
    return None


CHECKS = {"matrix": check_matrix, "table": check_table, "canonical": check_canonical,
          "slopes": check_slopes, "orbifold": check_orbifold}


def _text_line(out: str, prefix: str) -> Optional[str]:
    return next((line[len(prefix):] for line in out.splitlines() if line.startswith(prefix)), None)


class Checker:
    """Checks one request's outcome; holds the report schema of the checkout."""

    def __init__(self, checkout: Path):
        schemas = checkout / "src" / "thurston_obstruct" / "schemas"
        resources = [(p.name, Resource.from_contents(json.loads(p.read_text(encoding="utf-8"))))
                     for p in sorted(schemas.glob("*.schema.json"))]
        report = json.loads((schemas / "report.schema.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(
            report, registry=Registry().with_resources(resources))

    def check(self, request, outcome: dict) -> Optional[tuple[str, str]]:
        code, out, err = outcome["code"], outcome["out"], outcome["err"]
        if outcome.get("tb") or TRACEBACK in err:
            return "crash", f"traceback, exit {code}"
        if request.expect == "reject":
            if code not in (2, 3) or out:
                return "exit", f"malformed input exited {code}, expected 2 or 3"
            return None
        command, options, doc = parse_argv(request.argv)
        capped = _capped(command, doc, options)
        expected_code = 4 if capped else 0
        if code != expected_code:
            return "exit", f"exit {code}, expected {expected_code}"
        if options.get("format") == "text":
            return self._check_text(command, doc, options, out)
        report = json.loads(out)
        error = best_match(self.validator.iter_errors(report))
        if error is not None:
            return "schema", f"report fails the schema at {error.json_path}: {error.message[:200]}"
        echoed = report["request"]
        if echoed["command"] != command or _options_echo(command, options) != echoed["options"]:
            return "schema", "report does not echo the request's command and options"
        result = report["result"]
        if capped:
            marked = (result["minimal_obstructions"]["truncated"] if command == "table"
                      else result.get("truncated"))
            if marked is not True:
                return "truncation", "capped request exited 4 but the report is not marked truncated"
        problem = CHECKS[command](doc, options, result)
        return ("wrong", problem) if problem else None

    def _check_text(self, command, doc, options, out) -> Optional[tuple[str, str]]:
        if not out.startswith(f"command: {command}\n"):
            return "wrong", "text report does not start with its command"
        if command in ("matrix", "table"):
            if command == "matrix":
                rows = matrix_rows(doc["matrix"])
            else:
                rows = table_matrix(doc, doc.get("multicurve"))[1]
            line = _text_line(out, "spectral class: ")
            if line is None or line.split()[0] != oracle_tag(rows):
                return "wrong", f"text spectral class {line!r} disagrees with the oracle"
        if command == "canonical":
            verdict, _ = expected_canonical(doc, int(options["subset_cap"]))
            line = _text_line(out, "verdict: ")
            if verdict is not None and line != ("Accept" if verdict else "Reject"):
                return "wrong", f"text verdict {line!r} disagrees with the expected verdict"
        return None


def _capped(command: str, doc, options: dict) -> bool:
    """Whether ``--subset-cap`` is below the classes the search must visit (exit 4)."""
    if command == "table":
        return tracked_count(doc) > int(options["subset_cap"])
    if command == "canonical":
        return expected_canonical(doc, int(options["subset_cap"]))[1]
    return False


def _options_echo(command: str, options: dict) -> dict:
    if command == "matrix":
        return {"width": options["width"], "check_simple": bool(options.get("check_simple"))}
    if command == "slopes":
        return {"bound": int(options["bound"])}
    if command in ("table", "canonical"):
        return {"subset_cap": int(options["subset_cap"])}
    return {}
