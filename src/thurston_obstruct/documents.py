"""JSON document formats shared by the library and the CLI.

Inputs and reports are UTF-8 JSON with a versioned top-level ``schema``
field.  Exactness forbids floats everywhere: rationals travel as
canonical "p/q" strings (or bare integers on input), infinite weights as
the string "inf", slopes as two-element integer arrays.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Optional, Sequence

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
    NonnegMatrix,
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


# ---------------------------------------------------------------------------
# scalars


#: ``rational`` strings of ``common.schema.json``: ``Fraction(str)`` alone
#: would also take decimals, exponents, spaces and digit separators.
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise _fail(where, "expected an integer or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise _fail(where, "floating-point numbers are not accepted; use 'p/q' strings")
    if isinstance(value, str):
        if _RATIONAL_STRING.fullmatch(value) is None:
            raise _fail(where, f"invalid rational {value!r}; expected an integer or 'p/q' string")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(where, f"invalid rational {value!r}") from exc
    raise _fail(where, f"expected an integer or 'p/q' string, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, "expected an integer")
    return value


def format_weight(w) -> Any:
    return "inf" if w == INFINITE_WEIGHT else int(w)


# ---------------------------------------------------------------------------
# matrices


def rational_rows_from_doc(value: Any, where: str) -> list[list[Fraction]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise _fail(where, "expected an array of arrays")
    rows = [
        [parse_rational(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise _fail(f"{where}[{i}]", f"expected {n} entries for a square matrix")
    return rows


def int_matrix2_from_doc(value: Any, where: str) -> tuple[tuple[int, int], tuple[int, int]]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in value)
    ):
        raise _fail(where, "expected a 2x2 array of integers")
    (a, b), (c, d) = value
    return (
        (parse_int(a, f"{where}[0][0]"), parse_int(b, f"{where}[0][1]")),
        (parse_int(c, f"{where}[1][0]"), parse_int(d, f"{where}[1][1]")),
    )


def matrix_to_doc(m: NonnegMatrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.rows]


def matrix_doc_from_value(value: Any) -> dict:
    """Normalize a bare matrix array or a schema'd document to a document."""
    if isinstance(value, dict):
        schema = value.get("schema")
        if schema != MATRIX_SCHEMA:
            raise _fail("schema", f"expected {MATRIX_SCHEMA!r}, got {schema!r}")
        if "matrix" not in value:
            raise _fail("matrix", "missing field")
        rows = rational_rows_from_doc(value["matrix"], "matrix")
    else:
        rows = rational_rows_from_doc(value, "matrix")
    return {
        "schema": MATRIX_SCHEMA,
        "matrix": [[format_rational(x) for x in row] for row in rows],
    }


# ---------------------------------------------------------------------------
# portraits


def portrait_from_doc(doc: Any) -> CriticalPortrait:
    if not isinstance(doc, dict):
        raise _fail("portrait", "expected an object")
    schema = doc.get("schema")
    if schema != PORTRAIT_SCHEMA:
        raise _fail("schema", f"expected {PORTRAIT_SCHEMA!r}, got {schema!r}")
    degree = parse_int(doc.get("degree"), "degree")
    raw_points = doc.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise _fail("points", "expected a nonempty array")
    points = []
    for i, entry in enumerate(raw_points):
        where = f"points[{i}]"
        if not isinstance(entry, dict):
            raise _fail(where, "expected an object")
        label = entry.get("id")
        if not isinstance(label, str) or not label:
            raise _fail(f"{where}.id", "expected a nonempty string")
        marked = entry.get("marked")
        if not isinstance(marked, bool):
            raise _fail(f"{where}.marked", "expected a boolean")
        image = entry.get("image")
        if not isinstance(image, str):
            raise _fail(f"{where}.image", "expected a string")
        local_degree = parse_int(entry.get("local_degree", 1), f"{where}.local_degree")
        points.append(PortraitPoint(label, marked, image, local_degree))
    return CriticalPortrait(degree=degree, points=tuple(points))


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


def _table_from_fields(doc: dict, where: str) -> CurveTable:
    map_degree = parse_int(doc.get("map_degree"), f"{where}.map_degree")
    marked = doc.get("marked_points")
    marked_points: Optional[tuple[str, ...]] = None
    if marked is not None:
        if not isinstance(marked, list) or not all(isinstance(x, str) for x in marked):
            raise _fail(f"{where}.marked_points", "expected an array of strings")
        marked_points = tuple(marked)
    raw_classes = doc.get("classes")
    if not isinstance(raw_classes, list) or not raw_classes:
        raise _fail(f"{where}.classes", "expected a nonempty array")
    classes = []
    for i, entry in enumerate(raw_classes):
        cw = f"{where}.classes[{i}]"
        if not isinstance(entry, dict):
            raise _fail(cw, "expected an object")
        cid = entry.get("id")
        if not isinstance(cid, str) or not cid:
            raise _fail(f"{cw}.id", "expected a nonempty string")
        raw_pullback = entry.get("pullback", [])
        if not isinstance(raw_pullback, list):
            raise _fail(f"{cw}.pullback", "expected an array")
        comps = []
        for j, comp in enumerate(raw_pullback):
            pw = f"{cw}.pullback[{j}]"
            if not isinstance(comp, dict):
                raise _fail(pw, "expected an object")
            deg = parse_int(comp.get("degree"), f"{pw}.degree")
            target = comp.get("target")
            if not isinstance(target, str):
                raise _fail(f"{pw}.target", "expected a class id, 'inessential' or 'untracked'")
            comps.append(PullbackComponent(degree=deg, target=target))
        partition = None
        raw_partition = entry.get("partition")
        if raw_partition is not None:
            if (
                not isinstance(raw_partition, list)
                or len(raw_partition) != 2
                or any(
                    not isinstance(side, list) or not all(isinstance(x, str) for x in side)
                    for side in raw_partition
                )
            ):
                raise _fail(f"{cw}.partition", "expected two arrays of marked-point ids")
            partition = (frozenset(raw_partition[0]), frozenset(raw_partition[1]))
        classes.append(CurveClass(id=cid, pullback=tuple(comps), partition=partition))
    return CurveTable(map_degree=map_degree, classes=tuple(classes), marked_points=marked_points)


def table_from_doc(doc: Any) -> tuple[CurveTable, Optional[list[str]]]:
    if not isinstance(doc, dict):
        raise _fail("table", "expected an object")
    schema = doc.get("schema")
    if schema != TABLE_SCHEMA:
        raise _fail("schema", f"expected {TABLE_SCHEMA!r}, got {schema!r}")
    table = _table_from_fields(doc, "table")
    multicurve = doc.get("multicurve")
    if multicurve is not None:
        if not isinstance(multicurve, list) or not all(isinstance(x, str) for x in multicurve):
            raise _fail("multicurve", "expected an array of class ids")
    return table, multicurve


def table_to_doc(table: CurveTable, multicurve: Optional[Sequence[str]] = None) -> dict:
    doc: dict[str, Any] = {
        "schema": TABLE_SCHEMA,
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
    if multicurve is not None:
        doc["multicurve"] = list(multicurve)
    return doc


def decomposition_from_doc(value: Any) -> tuple[DecompositionComponent, ...]:
    if not isinstance(value, list) or not value:
        raise _fail("decomposition", "expected a nonempty array")
    out = []
    for i, entry in enumerate(value):
        where = f"decomposition[{i}]"
        if not isinstance(entry, dict):
            raise _fail(where, "expected an object")
        marked = parse_int(entry.get("marked_points"), f"{where}.marked_points")
        ret = entry.get("first_return")
        if not isinstance(ret, dict):
            raise _fail(f"{where}.first_return", "expected an object")
        kind = ret.get("kind")
        if kind == "homeomorphism":
            first = ReturnHomeomorphism()
        elif kind == "2222":
            matrix = int_matrix2_from_doc(ret.get("matrix"), f"{where}.first_return.matrix")
            inner = None
            if ret.get("table") is not None:
                inner = _table_from_fields(ret["table"], f"{where}.first_return.table")
            first = Return2222(matrix=matrix, table=inner)
        elif kind == "general":
            if not isinstance(ret.get("table"), dict):
                raise _fail(f"{where}.first_return.table", "expected an object")
            first = ReturnGeneral(table=_table_from_fields(ret["table"], f"{where}.first_return.table"))
        else:
            raise _fail(
                f"{where}.first_return.kind",
                "expected 'homeomorphism', '2222' or 'general'",
            )
        out.append(DecompositionComponent(marked_points=marked, first_return=first))
    return tuple(out)


def decomposition_to_doc(decomposition: Sequence[DecompositionComponent]) -> list[dict]:
    out = []
    for comp in decomposition:
        ret = comp.first_return
        if isinstance(ret, ReturnHomeomorphism):
            payload: dict[str, Any] = {"kind": "homeomorphism"}
        elif isinstance(ret, Return2222):
            payload = {"kind": "2222", "matrix": [list(ret.matrix[0]), list(ret.matrix[1])]}
            if ret.table is not None:
                inner = table_to_doc(ret.table)
                inner.pop("schema")
                payload["table"] = inner
        else:
            inner = table_to_doc(ret.table)
            inner.pop("schema")
            payload = {"kind": "general", "table": inner}
        out.append({"marked_points": comp.marked_points, "first_return": payload})
    return out


def canonical_from_doc(doc: Any) -> tuple[CurveTable, list[str], tuple[DecompositionComponent, ...]]:
    if not isinstance(doc, dict):
        raise _fail("canonical", "expected an object")
    schema = doc.get("schema")
    if schema != CANONICAL_SCHEMA:
        raise _fail("schema", f"expected {CANONICAL_SCHEMA!r}, got {schema!r}")
    if not isinstance(doc.get("table"), dict):
        raise _fail("table", "expected an object")
    table = _table_from_fields(doc["table"], "table")
    multicurve = doc.get("multicurve")
    if not isinstance(multicurve, list) or not all(isinstance(x, str) for x in multicurve):
        raise _fail("multicurve", "expected an array of class ids")
    decomposition = decomposition_from_doc(doc.get("decomposition"))
    return table, multicurve, decomposition


# ---------------------------------------------------------------------------
# report fragments


def spectral_to_doc(sc: SpectralClass) -> dict:
    return {
        "class": sc.tag.value,
        "interval": [format_rational(sc.lo), format_rational(sc.hi)],
    }


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
        "blocks": [matrix_to_doc(b) for b in dec.blocks],
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
    }


def _tristate(value: Optional[bool]) -> Any:
    return value  # JSON true / false / null (null = unknown)


def table_report_to_doc(report: ObstructionReport) -> dict:
    cert = report.simple_certificate
    return {
        "curves": list(report.curve_order),
        "matrix": matrix_to_doc(report.matrix),
        "spectral": spectral_to_doc(report.spectral),
        "is_obstruction": report.is_obstruction,
        "invariant": _tristate(report.invariant),
        "completely_invariant": _tristate(report.completely_invariant),
        "simple": {
            "exists": cert is not None,
            "certificate": [format_rational(x) for x in cert] if cert is not None else None,
        },
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


def dumps(doc: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
