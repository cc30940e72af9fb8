"""JSON document formats shared by the library and the CLI.

Inputs and reports are UTF-8 JSON with a versioned top-level ``schema``
field.  Exactness forbids floats everywhere: rationals travel as
canonical "p/q" strings (or bare integers on input), infinite weights as
the string "inf", slopes as two-element integer arrays.

The input schemas shipped in ``schemas/`` are the one definition of a
valid input: every decoder first runs ``validate`` on its document, then
checks only what no schema states (a zero denominator, a square matrix)
and leaves the mathematics to the domain constructors.
"""

from __future__ import annotations

import functools
import json
import os
import re
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Any, Callable, Optional, Sequence

from .orbifold import INFINITE_WEIGHT, CriticalPortrait, OrbifoldSignature, PortraitPoint
from .slopes import (
    EqualIntegers,
    NonIntegerOrComplex,
    ObstructionSlope,
    Slope,
    TorusQuotientMap,
    TwoDistinctIntegers,
)
from .spectral import (
    BlockStructure,
    ImprimitiveDecomposition,
    SpectralClass,
)
from .tables import (
    CanonicalCandidateReport,
    CurveClass,
    CurveTable,
    DecompositionComponent,
    ObstructionReport,
    PullbackComponent,
    Return2222,
    ReturnGeneral,
    ReturnHomeomorphism,
)

MATRIX_SCHEMA = "thurston-obstruct/matrix/1"
PORTRAIT_SCHEMA = "thurston-obstruct/portrait/1"
TABLE_SCHEMA = "thurston-obstruct/table/1"
CANONICAL_SCHEMA = "thurston-obstruct/canonical/1"
REPORT_SCHEMA = "thurston-obstruct/report/1"


class InputFormatError(ValueError):
    """Malformed input document; the message carries a field path."""


def _fail(where: str, message: str) -> "InputFormatError":
    return InputFormatError(f"{where}: {message}")


#: Rejected values are echoed in messages up to this many characters.
_ECHO_LIMIT = 40


def _echo(value: Any) -> str:
    """``repr(value)`` for an error message, cut after ``_ECHO_LIMIT`` characters."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


# ---------------------------------------------------------------------------
# validation against the shipped schemas

_SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schemas")

_TYPES = {  # schema type -> (Python type, the message of a value of another type)
    "object": (dict, "expected an object"), "array": (list, "expected an array"),
    "string": (str, "expected a string"), "integer": (int, "expected an integer"),
    "boolean": (bool, "expected a boolean"), "null": (type(None), "expected null"),
}


@functools.cache
def _compiled(ref: str) -> Callable[[Any], Optional[tuple[list, str]]]:
    """The checker of the schema that ``ref`` (a file name and an optional JSON pointer) names.

    The node is read straight from its file and compiled once per ``ref``:
    every ``$ref`` to the same target, such as each matrix entry's
    ``rational``, shares this one checker.
    """
    name, _, pointer = ref.partition("#")
    with open(os.path.join(_SCHEMA_DIR, name), encoding="utf-8") as f:
        node = json.load(f)
    for part in pointer.split("/")[1:]:
        node = node[part]
    return _checker(node, name)


#: the keywords that the closure of each node type tests (None: an untyped node)
_KEYWORDS = {
    "string": "type minLength pattern const", "array": "type minItems maxItems items",
    "object": "type properties additionalProperties required", "integer": "type minimum",
    "boolean": "type const", "null": "type const", None: "const",
}
#: the keywords any node may state besides its type's
_ANY_NODE = "oneOf description title $schema $id $defs"


def _checker(schema: dict, name: str) -> Callable[[Any], Optional[tuple[list, str]]]:
    """``schema``, a node of the schema file ``name``, compiled into a function of a value.

    The function returns the value's first failure or None.  A failure is
    ``(path, message)``, ``path`` holding the keys and indices down to the
    failing value, innermost first, each appended on the way back up.
    Failures are returned, not raised: ``oneOf`` tries every branch, and an
    exception per failed branch would cost more than the validation.  A
    ``$ref`` node, which has no other keyword and is part of no cycle, is
    the checker ``_compiled`` makes of its target.  Any other node becomes
    a closure of its type that tests only the keywords the node states (an
    absent keyword's default, such as a ``minLength`` of 0, fails no
    value), wrapped in its ``oneOf`` if it has one: ``_KEYWORDS`` lists the
    keywords of each type's closure, and any other keyword raises
    ``ValueError`` here rather than pass unchecked.
    """
    ref = schema.get("$ref")
    if ref is not None and len(schema) == 1:
        return _compiled(name + ref if ref.startswith("#") else ref)
    kind = schema.get("type")
    # a list of types, like an unknown one, leaves "type" itself untested
    stated = _KEYWORDS.get(kind if isinstance(kind, str) else None, "")
    untested = set(schema).difference(_ANY_NODE.split(), stated.split())
    if untested:
        raise ValueError(f"{name}: no test of {sorted(untested)} on a node of type {kind!r}")
    cls, expected = _TYPES.get(kind, (object, ""))
    has_const, const = "const" in schema, schema.get("const")
    if kind == "string":
        # the whole string, as ECMA-262's `$` requires: Python's `$` also
        # matches before a final newline, so re.search would take "1/2\n"
        pattern = schema.get("pattern")
        fullmatch = re.compile(pattern).fullmatch if pattern is not None else None
        min_length = schema.get("minLength", 0)

        def own(value):
            if not isinstance(value, str):
                return [], expected
            if has_const and (value != const or type(value) is not type(const)):
                return [], f"expected {const!r}, got {_echo(value)}"
            if len(value) < min_length:
                return [], f"expected at least {min_length} character(s)"
            if fullmatch and not fullmatch(value):
                return [], f"expected a string matching {pattern}"
    elif kind == "array":
        min_items, max_items = schema.get("minItems", 0), schema.get("maxItems", inf)
        items = _checker(schema["items"], name) if "items" in schema else None

        def own(value):
            if not isinstance(value, list):
                return [], expected
            if len(value) < min_items:
                return [], f"expected at least {min_items} entries"
            if len(value) > max_items:
                return [], f"expected at most {max_items} entries"
            for i, error in enumerate(map(items, value) if items else ()):
                if error is not None:
                    error[0].append(i)
                    return error
    elif kind == "object":
        properties = {key: _checker(sub, name) for key, sub in schema.get("properties", {}).items()}
        closed = schema.get("additionalProperties", True) is False
        required = schema.get("required", ())

        def own(value):
            if not isinstance(value, dict):
                return [], expected
            for key, sub in properties.items():
                if key in value:
                    error = sub(value[key])
                    if error is not None:
                        error[0].append(key)
                        return error
            if closed:
                for key in value:
                    if key not in properties:
                        return [str(key)], "unknown field"  # an int in a path is a list index
            for key in required:
                if key not in value:
                    return [key], "missing field"
    elif kind == "integer":
        minimum = schema.get("minimum", -inf)

        def own(value):
            # stricter than jsonschema, which takes 1.0: floats never enter
            # the program; and a boolean is not a number
            if not isinstance(value, int) or isinstance(value, bool):
                return [], expected
            if value < minimum:
                return [], f"expected at least {minimum}"
    else:  # boolean, null or untyped

        def own(value):
            if not isinstance(value, cls):
                return [], expected
            if has_const and (value != const or type(value) is not type(const)):
                return [], f"expected {const!r}, got {_echo(value)}"
    if "oneOf" not in schema:
        return own
    if kind is None and not has_const:
        own = None  # nothing to check past the branch
    branches = [_checker(branch, name) for branch in schema["oneOf"]]
    # branches of pairwise different types: a value of one of the JSON classes
    # can pass only the branch of its class, and every other branch fails on
    # its type, so only that one runs (-1 where no branch takes the class)
    kinds = [branch.get("type") for branch in schema["oneOf"]]
    by_class = None
    if branches and len(set(kinds)) == len(kinds) and all(
        branch_type in _TYPES and "oneOf" not in branch
        for branch_type, branch in zip(kinds, schema["oneOf"])
    ):
        by_class = dict.fromkeys((dict, list, str, int, bool, float, type(None)), -1)
        by_class.update({_TYPES[branch_type][0]: i for i, branch_type in enumerate(kinds)})
        first_expected = _TYPES[kinds[0]][1]

    def check(value):
        i = by_class.get(type(value)) if by_class else None
        if i is not None:
            error = branches[i](value) if i >= 0 else ([], first_expected)
            if error is not None:
                # as below: the branches fail at the value itself unless this one got deeper
                path, message = error
                if path and len(branches) > 1:
                    return error
                return path, schema.get("description", message if i <= 0 else first_expected)
        elif branches:
            errors = [branch(value) for branch in branches]
            passed = errors.count(None)
            if passed > 1:
                return [], "matches more than one allowed form"
            if not passed:
                paths = [path for path, _ in errors]
                if paths.count(paths[0]) == len(paths):
                    return paths[0], schema.get("description", errors[0][1])
                # the branch that got furthest into the value; of equally deep
                # failures, the one fewest branches share (the others failed on
                # a discriminating field such as "kind")
                return max(errors, key=lambda e: (len(e[0]), -paths.count(e[0])))
        return own(value) if own else None

    return check


def validate(value: Any, ref: str, where: str = "") -> None:
    """Raise ``InputFormatError`` unless ``value`` satisfies the schema ``ref``.

    ``ref`` is a schema file name, optionally with a JSON pointer
    (``table.schema.json#/$defs/tableFields``), compiled on its first
    use; ``where`` is the field path of ``value``, the prefix of every path
    in the message.
    """
    error = _compiled(ref)(value)
    if error is not None:
        path, message = error
        for key in reversed(path):
            where = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
        raise _fail(where or "input", message)


# ---------------------------------------------------------------------------
# scalars


def _ratio(value: Any, where: str, *index: int) -> tuple[int, int]:
    """The schema-valid rational at ``where[i][j]...`` as a reduced ``(p, q)``, q > 0."""
    num, _, den = value.partition("/") if isinstance(value, str) else (value, "", "")
    try:
        p, q = int(num), int(den or 1)
        g = gcd(p, q) if q else 0
        return p // g, q // g
    except (ValueError, ZeroDivisionError) as exc:  # the pattern takes p/0 and too many digits
        where += "".join(f"[{i}]" for i in index)
        raise _fail(where, f"invalid rational {_echo(value)}") from exc


def parse_rational(value: Any, where: str) -> Fraction:
    validate(value, "common.schema.json#/$defs/rational", where)
    return Fraction(*_ratio(value, where))


def format_rational(value: Fraction) -> str:
    return str(value)  # an int prints as Fraction(value) does


def format_weight(w) -> Any:
    return "inf" if w == INFINITE_WEIGHT else int(w)


# ---------------------------------------------------------------------------
# matrices


def _square_ints(value: list, where: str) -> tuple[int, list[list[int]]]:
    """``(L, L*M)`` of the schema-valid matrix M, L the lcm of its reduced denominators."""
    rows = [[_ratio(x, where, i, j) for j, x in enumerate(row)] for i, row in enumerate(value)]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise _fail(f"{where}[{i}]", f"expected {len(rows)} entries for a square matrix")
    scale = lcm(*(q for row in rows for _, q in row))
    return scale, [[p * (scale // q) for p, q in row] for row in rows]


def rational_rows_from_doc(value: Any, where: str) -> tuple[int, list[list[int]]]:
    validate(value, "common.schema.json#/$defs/rationalMatrix", where)
    return _square_ints(value, where)


def int_matrix2_from_doc(value: Any, where: str) -> tuple[tuple[int, int], tuple[int, int]]:
    validate(value, "common.schema.json#/$defs/intMatrix2", where)
    return tuple(map(tuple, value))


def matrix_from_doc(value: Any) -> tuple[int, list[list[int]]]:
    """``(L, L*M)`` of a ``matrix`` input M, a matrix document or a bare array; M may be negative."""
    if not isinstance(value, dict):
        return rational_rows_from_doc(value, "matrix")
    validate(value, "matrix.schema.json")  # covers the entries: no second pass over them
    return _square_ints(value["matrix"], "matrix")


def action_from_doc(value: Any) -> tuple[tuple[int, int], tuple[int, int]]:
    """Homology action of a ``slopes`` input: a matrix document or a bare 2x2 array."""
    if not isinstance(value, dict):
        return int_matrix2_from_doc(value, "matrix")
    validate(value, "slopes.schema.json")
    return tuple(map(tuple, value["matrix"]))


def matrix_to_doc(scale: int, ints: Sequence[Sequence[int]]) -> list[list[str]]:
    """The entries x/L of ``ints`` over L = ``scale`` as ``format_rational`` writes them."""
    return [[f"{x // g}/{scale // g}" if (g := gcd(x, scale)) != scale else str(x // g) for x in row]
            for row in ints]


def matrix_input_to_doc(matrix: tuple[int, Sequence[Sequence[int]]]) -> dict:
    return {"schema": MATRIX_SCHEMA, "matrix": matrix_to_doc(*matrix)}


def action_input_to_doc(action: tuple[tuple[int, int], tuple[int, int]]) -> dict:
    return {"schema": MATRIX_SCHEMA, "matrix": [list(row) for row in action]}


def matrix_doc_from_value(value: Any) -> dict:
    """Normalize a bare matrix array or a schema'd document to a document."""
    return matrix_input_to_doc(matrix_from_doc(value))


# ---------------------------------------------------------------------------
# portraits


def portrait_from_doc(doc: Any) -> CriticalPortrait:
    validate(doc, "portrait.schema.json")
    points = tuple(
        PortraitPoint(p["id"], p["marked"], p["image"], p.get("local_degree", 1))
        for p in doc["points"]
    )
    return CriticalPortrait(degree=doc["degree"], points=points)


def portrait_to_doc(portrait: CriticalPortrait) -> dict:
    return {
        "schema": PORTRAIT_SCHEMA,
        "degree": portrait.degree,
        "points": [
            {
                "id": p.label,
                "marked": p.marked,
                "image": p.image,
                "local_degree": p.local_degree,
            }
            for p in portrait.points
        ],
    }


# ---------------------------------------------------------------------------
# curve tables and decompositions


def _table(doc: dict) -> CurveTable:
    """The table of schema-valid ``tableFields``."""
    marked = doc.get("marked_points")
    return CurveTable(
        map_degree=doc["map_degree"],
        classes=tuple(
            CurveClass(
                c["id"],
                tuple(PullbackComponent(p["degree"], p["target"]) for p in c["pullback"]),
                tuple(map(frozenset, c["partition"])) if "partition" in c else None,
            )
            for c in doc["classes"]
        ),
        marked_points=tuple(marked) if marked is not None else None,
    )


def table_from_doc(doc: Any) -> tuple[CurveTable, Optional[list[str]]]:
    validate(doc, "table.schema.json")
    return _table(doc), doc.get("multicurve")


def _table_fields_to_doc(table: CurveTable) -> dict:
    doc: dict[str, Any] = {
        "map_degree": table.map_degree,
        "classes": [
            {
                "id": cls.id,
                "pullback": [
                    {"degree": comp.degree, "target": comp.target} for comp in cls.pullback
                ],
                **(
                    {"partition": [sorted(cls.partition[0]), sorted(cls.partition[1])]}
                    if cls.partition is not None
                    else {}
                ),
            }
            for cls in table.classes
        ],
    }
    if table.marked_points is not None:
        doc["marked_points"] = list(table.marked_points)
    return doc


def table_to_doc(table: CurveTable, multicurve: Optional[Sequence[str]] = None) -> dict:
    doc = {"schema": TABLE_SCHEMA, **_table_fields_to_doc(table)}
    if multicurve is not None:
        doc["multicurve"] = list(multicurve)
    return doc


def _decomposition(value: list) -> tuple[DecompositionComponent, ...]:
    """The components of a schema-valid ``decomposition`` array."""
    out = []
    for entry in value:
        ret = entry["first_return"]
        if ret["kind"] == "homeomorphism":
            first = ReturnHomeomorphism()
        elif ret["kind"] == "2222":
            inner = _table(ret["table"]) if "table" in ret else None
            first = Return2222(matrix=tuple(map(tuple, ret["matrix"])), table=inner)
        else:
            first = ReturnGeneral(table=_table(ret["table"]))
        out.append(DecompositionComponent(marked_points=entry["marked_points"], first_return=first))
    return tuple(out)


def decomposition_from_doc(value: Any) -> tuple[DecompositionComponent, ...]:
    validate(value, "canonical.schema.json#/properties/decomposition", "decomposition")
    return _decomposition(value)


def decomposition_to_doc(decomposition: Sequence[DecompositionComponent]) -> list[dict]:
    out = []
    for comp in decomposition:
        ret = comp.first_return
        if isinstance(ret, ReturnHomeomorphism):
            payload: dict[str, Any] = {"kind": "homeomorphism"}
        elif isinstance(ret, Return2222):
            payload = {"kind": "2222", "matrix": [list(ret.matrix[0]), list(ret.matrix[1])]}
            if ret.table is not None:
                payload["table"] = _table_fields_to_doc(ret.table)
        else:
            payload = {"kind": "general", "table": _table_fields_to_doc(ret.table)}
        out.append({"marked_points": comp.marked_points, "first_return": payload})
    return out


def canonical_from_doc(doc: Any) -> tuple[CurveTable, list[str], tuple[DecompositionComponent, ...]]:
    validate(doc, "canonical.schema.json")
    return _table(doc["table"]), doc["multicurve"], _decomposition(doc["decomposition"])


def canonical_to_doc(
    table: CurveTable,
    multicurve: Sequence[str],
    decomposition: Sequence[DecompositionComponent],
) -> dict:
    return {
        "schema": CANONICAL_SCHEMA,
        "table": _table_fields_to_doc(table),
        "multicurve": list(multicurve),
        "decomposition": decomposition_to_doc(decomposition),
    }


# ---------------------------------------------------------------------------
# report fragments


def spectral_to_doc(sc: SpectralClass) -> dict:
    return {"class": sc.tag.value, "interval": interval_to_doc((sc.lo, sc.hi))}


def interval_to_doc(interval: tuple[Fraction, Fraction]) -> list[str]:
    return [format_rational(interval[0]), format_rational(interval[1])]


def block_structure_to_doc(bs: BlockStructure) -> dict:
    return {
        "permutation": list(bs.permutation),
        "block_sizes": list(bs.block_sizes),
        "blocks_irreducible": list(bs.blocks_irreducible),
    }


def imprimitive_to_doc(dec: ImprimitiveDecomposition) -> dict:
    return {
        "exponent": dec.exponent,
        "permutation": list(dec.permutation),
        "block_sizes": list(dec.block_sizes),
        "blocks": [matrix_to_doc(b.scale, b.ints) for b in dec.blocks],
    }


def slope_to_doc(slope: Slope) -> list[int]:
    return [slope.p, slope.q]


def obstruction_slope_to_doc(found: Optional[ObstructionSlope]) -> dict:
    if found is None:
        return {"empty": True}
    return {
        "empty": False,
        "slope": slope_to_doc(found.slope),
        "multiplier": format_rational(found.multiplier),
    }


def eigenvalue_class_to_doc(cls) -> dict:
    if isinstance(cls, TwoDistinctIntegers):
        return {"kind": "two_distinct_integers", "d1": cls.d1, "d2": cls.d2}
    if isinstance(cls, EqualIntegers):
        return {"kind": "equal_integers", "d": cls.d}
    if isinstance(cls, NonIntegerOrComplex):
        return {"kind": "non_integer_or_complex"}
    raise TypeError(f"unknown eigenvalue classification {cls!r}")


def torus_map_to_doc(tmap: TorusQuotientMap) -> list[list[int]]:
    return [[tmap.a, tmap.b], [tmap.c, tmap.d]]


def signature_to_doc(sig: OrbifoldSignature) -> dict:
    return {
        "ramification": {lbl: format_weight(w) for lbl, w in sorted(sig.ramification.items())},
        "weights": [format_weight(w) for w in sig.weights],
        "chi": format_rational(sig.chi),
        "class": sig.kind,
        "signature": [format_weight(w) for w in sig.weights]
        if sig.parabolic_signature is not None
        else None,
        "is_2222": sig.is_2222,
    }


def certificate_to_doc(cert: Optional[Sequence[Fraction]]) -> Optional[list[str]]:
    return [format_rational(x) for x in cert] if cert is not None else None


def table_report_to_doc(report: ObstructionReport) -> dict:
    cert = report.simple_certificate
    return {
        "curves": list(report.curve_order),
        "matrix": matrix_to_doc(report.matrix.scale, report.matrix.ints),
        "spectral": spectral_to_doc(report.spectral),
        "is_obstruction": report.is_obstruction,
        "invariant": report.invariant,  # true / false / null (unknown)
        "completely_invariant": report.completely_invariant,
        "simple": {"exists": cert is not None, "certificate": certificate_to_doc(cert)},
        "simple_core": list(report.simple_core) if report.simple_core is not None else None,
        "levy_cycles": [list(c) for c in report.levy_cycles],
        "minimal_obstructions": {
            "multicurves": [list(c) for c in report.minimal.multicurves],
            "truncated": report.minimal.truncated,
            "subset_cap": report.minimal.subset_cap,
        },
    }


def canonical_report_to_doc(report: CanonicalCandidateReport) -> dict:
    return {
        "accepted": report.accepted,
        "preconditions": list(report.preconditions),
        "components": [
            {
                "index": v.index,
                "kind": v.kind,
                "passed": v.passed,
                "reasons": list(v.reasons),
            }
            for v in report.components
        ],
        "note": report.note,
        "truncated": report.truncated,
    }


_encode = json.encoder.encode_basestring  # json's C string encoder; raises TypeError on a non-str


def _write(value: Any, newline: str, write: Callable[[str], None]) -> None:
    """``write`` each piece of ``value``, ``newline`` starting each of its lines past the first.

    A container writes its ``str`` and ``int`` members (by exact type)
    itself and recurses only for the others, so a subclass such as an
    ``IntEnum`` member takes the ``isinstance`` route as ``json`` does.  A
    module function, not a closure of ``dumps``: a closure that calls
    itself is a reference cycle, which would hold the buffer until the
    garbage collector runs.
    """
    if isinstance(value, str):
        return write(_encode(value))
    if value is None:
        return write("null")
    if value is True or value is False:
        return write("true" if value else "false")
    if isinstance(value, int):
        return write(int.__repr__(value))
    inner = newline + "  "
    comma = "," + inner
    if isinstance(value, dict):
        if not value:
            return write("{}")
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                write(f"{sep}{_encode(key)}: {_encode(item)}")
            elif kind is int:
                write(f"{sep}{_encode(key)}: {item!r}")
            else:
                write(f"{sep}{_encode(key)}: ")
                _write(item, inner, write)
            sep = comma
        return write(newline + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return write("[]")
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                write(f"{sep}{_encode(item)}")
            elif kind is int:
                write(f"{sep}{item!r}")
            else:
                write(sep)
                _write(item, inner, write)
            sep = comma
        return write(newline + "]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(doc: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline.

    The same bytes as ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline, without ``json``'s pure-Python
    indenting encoder: a report holds only dicts with ``str`` keys, lists
    (tuples are written as lists), strings, ints, booleans and ``None``, and
    anything else raises ``TypeError``.  Strings go through ``json``'s C
    string encoder.  Every piece is appended to one buffer (``_write``),
    joined once at the end.
    """
    out = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)
