import contextlib
import copy
import enum
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
import oracles
from oracles import dumps_by_json, matrix_input_by_fractions, validation_error_by_interpreter
from referencing import Registry, Resource

import thurston_obstruct
from thurston_obstruct import documents
from thurston_obstruct import (
    CurveClass,
    CurveTable,
    DecompositionComponent,
    NonnegMatrix,
    PreconditionError,
    PullbackComponent,
    Return2222,
    ReturnGeneral,
    ReturnHomeomorphism,
)
from thurston_obstruct.cli import main
from thurston_obstruct.documents import (
    InputFormatError,
    action_from_doc,
    canonical_from_doc,
    decomposition_from_doc,
    decomposition_to_doc,
    dumps,
    format_rational,
    int_matrix2_from_doc,
    matrix_doc_from_value,
    matrix_from_doc,
    parse_rational,
    portrait_from_doc,
    portrait_to_doc,
    rational_rows_from_doc,
    table_from_doc,
    table_to_doc,
    validate,
)

F = Fraction


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3, "x") == 3
    assert parse_rational("-7/2", "x") == F(-7, 2)
    assert parse_rational("4", "x") == 4


@pytest.mark.parametrize("bad", [0.5, True, "1/0", "a/b", None, []])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputFormatError):
        parse_rational(bad, "x")


def test_format_rational_is_canonical():
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-3, 9)) == "-1/3"


def test_rational_rows_require_square():
    with pytest.raises(InputFormatError):
        rational_rows_from_doc([[1, 2]], "matrix")
    with pytest.raises(InputFormatError):
        rational_rows_from_doc("nope", "matrix")


def test_matrix_doc_normalizes_bare_arrays():
    doc = matrix_doc_from_value([[1, "2/4"], [0, 1]])
    assert doc == {
        "schema": "thurston-obstruct/matrix/1",
        "matrix": [["1", "1/2"], ["0", "1"]],
    }


def test_matrix_doc_rejects_wrong_schema():
    with pytest.raises(InputFormatError):
        matrix_doc_from_value({"schema": "thurston-obstruct/portrait/1", "matrix": [[1]]})


def test_int_matrix_rejects_non_integers():
    with pytest.raises(InputFormatError):
        int_matrix2_from_doc([[1, 2], [3, "4"]], "matrix")
    with pytest.raises(InputFormatError):
        int_matrix2_from_doc([[1, 2, 3], [4, 5, 6]], "matrix")


def test_portrait_round_trip():
    doc = {
        "schema": "thurston-obstruct/portrait/1",
        "degree": 2,
        "points": [
            {"id": "0", "marked": True, "image": "0", "local_degree": 2},
            {"id": "inf", "marked": True, "image": "inf", "local_degree": 2},
        ],
    }
    portrait = portrait_from_doc(doc)
    assert portrait_to_doc(portrait) == doc


def test_portrait_missing_local_degree_defaults_to_one():
    doc = {
        "schema": "thurston-obstruct/portrait/1",
        "degree": 3,
        "points": [
            {"id": "a", "marked": True, "image": "a"},
            {"id": "c", "marked": False, "image": "a", "local_degree": 2},
        ],
    }
    portrait = portrait_from_doc(doc)
    assert portrait.point("a").local_degree == 1
    with pytest.raises(KeyError):
        portrait.point("nope")


def test_portrait_field_errors_carry_paths():
    with pytest.raises(InputFormatError, match=r"points\[0\]\.marked"):
        portrait_from_doc(
            {
                "schema": "thurston-obstruct/portrait/1",
                "degree": 2,
                "points": [{"id": "a", "marked": "yes", "image": "a"}],
            }
        )


def test_table_round_trip_with_partition_and_multicurve():
    table = CurveTable(
        map_degree=2,
        marked_points=("p1", "p2", "p3", "p4"),
        classes=(
            CurveClass(
                "g",
                (PullbackComponent(1, "g"), PullbackComponent(1, "inessential")),
                partition=(frozenset({"p1", "p2"}), frozenset({"p3", "p4"})),
            ),
        ),
    )
    doc = table_to_doc(table, multicurve=["g"])
    parsed, multicurve = table_from_doc(doc)
    assert parsed == table
    assert multicurve == ["g"]
    assert table_to_doc(parsed, multicurve) == doc


def test_decomposition_round_trip_all_kinds():
    inner = CurveTable(
        map_degree=2,
        classes=(CurveClass("h", (PullbackComponent(2, "h"),)),),
    )
    decomposition = (
        DecompositionComponent(3, ReturnHomeomorphism()),
        DecompositionComponent(4, Return2222(((2, 2), (0, 2)), table=inner)),
        DecompositionComponent(5, ReturnGeneral(inner)),
    )
    doc = decomposition_to_doc(decomposition)
    assert decomposition_from_doc(doc) == decomposition


def test_decomposition_rejects_unknown_kind():
    with pytest.raises(InputFormatError, match="first_return.kind"):
        decomposition_from_doc(
            [{"marked_points": 4, "first_return": {"kind": "torus"}}]
        )


def test_canonical_doc_requires_fields():
    with pytest.raises(InputFormatError, match="multicurve"):
        canonical_from_doc(
            {
                "schema": "thurston-obstruct/canonical/1",
                "table": {
                    "map_degree": 2,
                    "classes": [{"id": "g", "pullback": [{"degree": 1, "target": "g"}]}],
                },
                "decomposition": [
                    {"marked_points": 3, "first_return": {"kind": "homeomorphism"}}
                ],
            }
        )


def test_validator_is_stricter_than_jsonschema_on_floats_and_newlines():
    # jsonschema takes 1.0 as an integer and lets "\n" follow the pattern's `$`
    with pytest.raises(InputFormatError, match=r"^matrix\[0\]\[1\]: "):
        rational_rows_from_doc([[1, 1.0], [0, 1]], "matrix")
    with pytest.raises(InputFormatError, match=r"^matrix\[1\]\[0\]: "):
        rational_rows_from_doc([[1, 0], ["1/2\n", 1]], "matrix")
    with pytest.raises(InputFormatError, match=r"^m\[0\]\[0\]: expected an integer"):
        int_matrix2_from_doc([[2.0, 0], [0, 3]], "m")


# ---------------------------------------------------------------------------
# the shipped input schemas against jsonschema

SCHEMA_DIR = Path(thurston_obstruct.__file__).parent / "schemas"
SCHEMAS = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in SCHEMA_DIR.glob("*.schema.json")}
REGISTRY = Registry().with_resources(
    (name, Resource.from_contents(contents)) for name, contents in SCHEMAS.items()
)
INPUT_SCHEMAS = sorted(name for name in SCHEMAS if name != "report.schema.json")

IMPLEMENTED = {
    "$ref", "type", "const", "minimum", "minItems", "maxItems", "minLength", "pattern",
    "required", "properties", "additionalProperties", "items", "oneOf",
}
ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description"}
TYPES = {"object", "array", "string", "integer", "boolean", "null"}


def _subschemas(schema: dict):
    yield schema
    for key, sub in schema.items():
        if key in ("properties", "$defs"):
            for child in sub.values():
                yield from _subschemas(child)
        elif key == "items":
            yield from _subschemas(sub)
        elif key == "oneOf":
            for child in sub:
                yield from _subschemas(child)


@pytest.mark.parametrize("name", INPUT_SCHEMAS)
def test_input_schemas_use_only_implemented_keywords(name):
    for schema in _subschemas(SCHEMAS[name]):
        assert set(schema) <= IMPLEMENTED | ANNOTATIONS, schema
        assert schema.get("additionalProperties", False) is False  # the one form enforced
        kinds = schema.get("type", [])
        assert set([kinds] if isinstance(kinds, str) else kinds) <= TYPES
        if "$ref" in schema:
            file, _, pointer = schema["$ref"].partition("#")
            target = SCHEMAS[file or name]
            for part in pointer.split("/")[1:]:
                target = target[part]
            assert isinstance(target, dict)


#: every schema reference the decoders validate against
VALIDATED_REFS = sorted(set(re.findall(r'validate\(\w+, "([^"]+)"', Path(documents.__file__).read_text())))


def _target(ref: str, file: str) -> tuple[str, str]:
    name, _, pointer = ref.partition("#")
    return name or file, pointer


def _node(file: str, pointer: str):
    node = SCHEMAS[file]
    for part in pointer.split("/")[1:]:
        node = node[part]
    return node


def _reached(schema: dict, file: str, open_refs: tuple = ()):
    """Each ``(subschema, file)`` a validation from ``schema`` visits, through its ``$ref``s."""
    yield schema, file
    if "$ref" in schema:
        target = _target(schema["$ref"], file)
        assert target not in open_refs, f"$ref cycle: {open_refs + (target,)}"
        yield from _reached(_node(*target), target[0], open_refs + (target,))
    for key, sub in schema.items():
        if key == "properties":
            for child in sub.values():
                yield from _reached(child, file, open_refs)
        elif key == "items":
            yield from _reached(sub, file, open_refs)
        elif key == "oneOf":
            for child in sub:
                yield from _reached(child, file, open_refs)


def test_input_schemas_have_the_shapes_the_validator_relies_on():
    # each $ref node stands alone, so the validator compiles it as its target
    for name in INPUT_SCHEMAS:
        for schema in _subschemas(SCHEMAS[name]):
            assert "$ref" not in schema or set(schema) == {"$ref"}, schema
            list(_reached(schema, name))  # no $ref cycle from any node
    # the validator knows a `type` only as one string, and its oneOf dispatch by
    # type reads each branch's `type` off the branch itself, not off a $ref target
    assert {ref.partition("#")[0] for ref in VALIDATED_REFS} == set(INPUT_SCHEMAS)
    for ref in VALIDATED_REFS:
        name, _, pointer = ref.partition("#")
        for schema, _ in _reached(_node(name, pointer), name):
            assert isinstance(schema.get("type", ""), str), (ref, schema)
            assert not any("$ref" in branch for branch in schema.get("oneOf", ())), (ref, schema)
    # the one list-valued type, reached only from the report schema
    assert SCHEMAS["common.schema.json"]["$defs"]["tristate"]["type"] == ["boolean", "null"]


def test_each_schema_ref_is_compiled_once():
    documents._compiled.cache_clear()
    # a valid matrix, document or bare array, is decoded by the walk alone: no checker
    matrix_from_doc({"schema": "thurston-obstruct/matrix/1", "matrix": [[1, "1/2"], ["0", "-3/4"]]})
    matrix_from_doc([[1, "1/2"], [0, 1]])
    assert documents._compiled.cache_info()[:2] == (0, 0)
    # a rejected document: its schema, its rationalMatrix and the one rational of every entry
    with pytest.raises(InputFormatError):
        matrix_from_doc({"schema": "thurston-obstruct/matrix/1", "matrix": [[1, "1/2"], ["0", 1.5]]})
    assert documents._compiled.cache_info()[:2] == (0, 3)
    with pytest.raises(InputFormatError):  # a bare matrix: rationalMatrix again, nothing compiled
        matrix_from_doc([[1, "1/2"], [0, True]])
    assert documents._compiled.cache_info()[:2] == (1, 3)
    # the document's schema, tableFields, its classes and intMatrix2; the
    # inner tables of a first return reuse tableFields
    canonical_from_doc(CANONICAL)
    assert documents._compiled.cache_info()[:2] == (3, 7)


PORTRAIT = {
    "schema": "thurston-obstruct/portrait/1",
    "degree": 2,
    "points": [
        {"id": "0", "marked": True, "image": "0", "local_degree": 2},
        {"id": "inf", "marked": True, "image": "inf"},
    ],
}
INNER_TABLE = {
    "map_degree": 2,
    "marked_points": ["p1", "p2", "p3", "p4"],
    "classes": [
        {
            "id": "g",
            "pullback": [{"degree": 1, "target": "g"}, {"degree": 1, "target": "inessential"}],
            "partition": [["p1", "p2"], ["p3", "p4"]],
        },
        {"id": "h", "pullback": [{"degree": 2, "target": "untracked"}]},
    ],
}
CANONICAL = {
    "schema": "thurston-obstruct/canonical/1",
    "table": {"map_degree": 2, "classes": [{"id": "g", "pullback": [{"degree": 1, "target": "g"}]}]},
    "multicurve": ["g"],
    "decomposition": [
        {"marked_points": 3, "first_return": {"kind": "homeomorphism"}},
        {
            "marked_points": 4,
            "first_return": {"kind": "2222", "matrix": [[2, 2], [0, 2]], "table": INNER_TABLE},
        },
        {"marked_points": 5, "first_return": {"kind": "general", "table": INNER_TABLE}},
    ],
}

#: kind -> (valid document, its schema, its decoder, the CLI command reading it)
VALID = {
    "portrait": (PORTRAIT, "portrait.schema.json", portrait_from_doc, "orbifold"),
    "matrix": (
        {"schema": "thurston-obstruct/matrix/1", "matrix": [[1, "1/2"], ["0", "-3/4"]]},
        "matrix.schema.json",
        matrix_from_doc,
        "matrix",
    ),
    "table": (
        {"schema": "thurston-obstruct/table/1", **INNER_TABLE, "multicurve": ["g"]},
        "table.schema.json",
        table_from_doc,
        "table",
    ),
    "canonical": (CANONICAL, "canonical.schema.json", canonical_from_doc, "canonical"),
    "slopes": (
        {"schema": "thurston-obstruct/matrix/1", "matrix": [[2, 1], [0, 3]]},
        "slopes.schema.json",
        action_from_doc,
        "slopes",
    ),
}
JSON_VALIDATORS = {
    name: jsonschema.Draft202012Validator(SCHEMAS[name], registry=REGISTRY) for name in INPUT_SCHEMAS
}
#: a matrix or slopes input may also be the bare matrix array
BARE_MATRIX = {
    kind: jsonschema.Draft202012Validator({"$ref": f"common.schema.json#/$defs/{ref}"}, registry=REGISTRY)
    for kind, ref in (("matrix", "rationalMatrix"), ("slopes", "intMatrix2"))
}
REPLACEMENTS = st.sampled_from(
    [None, True, 0, 1, -1, 10**30, 1.0, 2.0, 0.5, "", "x", "1/2", "3/0", "1/2\n", "untracked",
     "inessential", "9" * 5000, [], ["x"], {}, {"x": 1}]
).map(copy.deepcopy)


def test_every_input_schema_is_a_mutation_target():
    # common.schema.json only holds the definitions the others refer to
    assert {schema for _, schema, _, _ in VALID.values()} == set(INPUT_SCHEMAS) - {"common.schema.json"}


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated_documents(draw):
    """A valid document with one or two schema-relevant edits."""
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[kind][0])
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "add", "swap", "below", "empty"]))
        applies = {
            "drop": lambda v: isinstance(v, dict) and v,
            "add": lambda v: isinstance(v, dict),
            "below": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "empty": lambda v: isinstance(v, list) and v,
        }.get(how, lambda v: True)
        nodes = [(path, v) for path, v in _nodes(doc) if applies(v)]
        if not nodes:
            how, nodes = "swap", list(_nodes(doc))
        path, node = draw(st.sampled_from(nodes))
        if how == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif how == "add":
            key = draw(st.sampled_from(["extra", "local_deg", "multicurv", "a.b.c", "x.y"]))
            node[key] = draw(REPLACEMENTS)
        elif how == "below":
            doc = _replaced(doc, path, node - draw(st.integers(1, 3)))
        elif how == "empty":
            doc = _replaced(doc, path, [])
        else:
            doc = _replaced(doc, path, draw(REPLACEMENTS))
    return kind, doc


def _allowed_semantic_rejection(kind, doc) -> bool:
    """The document holds a form the schemas allow and the decoders refuse."""
    for _, value in _nodes(doc):
        if isinstance(value, float):  # jsonschema's integer takes 1.0
            return True
        if isinstance(value, str) and (value.endswith("\n") or re.fullmatch(r"-?[0-9]+/0+", value)):
            return True  # jsonschema's pattern lets "\n" follow `$`; a zero denominator
        digits = max(map(len, re.findall("[0-9]+", value)), default=0) if isinstance(value, str) else 0
        if digits > sys.get_int_max_str_digits():
            return True  # more digits than the interpreter converts to an int
    rows = (doc.get("matrix") if isinstance(doc, dict) else doc) if kind == "matrix" else None
    return isinstance(rows, list) and any(len(row) != len(rows) for row in rows)  # not square


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_decoders_accept_what_jsonschema_accepts(case):
    kind, doc = case
    _, schema, decode, command = VALID[kind]
    bare = kind in BARE_MATRIX and not isinstance(doc, dict)
    accepted = (BARE_MATRIX[kind] if bare else JSON_VALIDATORS[schema]).is_valid(doc)
    try:
        decode(doc)
    except InputFormatError as exc:
        assert not accepted or _allowed_semantic_rejection(kind, doc), (doc, exc)
        if not accepted and isinstance(doc, dict):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main([command, json.dumps(doc)]) == 2
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
        return
    except PreconditionError:
        assert accepted, doc
    else:
        assert accepted, doc
    # the analyses answer every accepted document: a report, or a refusal on stderr (exit 3)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--format", "json", json.dumps(doc)])
    assert code in (0, 3, 4), (doc, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error: ") == (code == 3), (doc, code, err.getvalue())


def _validation_error(value, ref, where=""):
    try:
        validate(value, ref, where)
    except InputFormatError as exc:
        return str(exc)
    return None


def test_validator_matches_the_interpreter_on_valid_documents():
    for doc, schema, _, _ in VALID.values():
        assert _validation_error(doc, schema) is None
        assert validation_error_by_interpreter(doc, schema) is None


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_validator_matches_the_interpreter_on_mutated_documents(case):
    kind, doc = case
    schema = VALID[kind][1]
    assert _validation_error(doc, schema) == validation_error_by_interpreter(doc, schema)


_ENTRIES = st.one_of(REPLACEMENTS, st.integers(-3, 3), st.sampled_from(["-3/4", "10/3", "2/0", "1/-2"]))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["rationalMatrix", "intMatrix2", "rational"]),
    st.one_of(_ENTRIES, st.lists(st.one_of(_ENTRIES, st.lists(_ENTRIES, max_size=3)), max_size=3)),
    st.sampled_from(["", "matrix", "--width"]),
)
# values of no branch's type, and values that fail inside the string branch
@example("rational", True, "--width")
@example("rational", 1.5, "")
@example("rational", None, "matrix")
@example("rational", [1], "")
@example("rational", "1/2\n", "--width")
@example("rational", "0.5", "")
@example("rationalMatrix", [[True, "0.5"], [None, 1.5]], "matrix")
def test_validator_matches_the_interpreter_on_bare_matrices_and_rationals(name, value, where):
    ref = f"common.schema.json#/$defs/{name}"
    assert _validation_error(value, ref, where) == validation_error_by_interpreter(value, ref, where)


#: oneOf nodes with typed branches: ``rational`` without its description, a branch that
#: fails deeper than the value, and one branch alone with and without a description
_TYPED_ONE_OF = (
    {"oneOf": [{"type": "integer"}, {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}]},
    {"oneOf": [{"type": "string", "minLength": 2}, {"type": "array", "items": {"type": "integer"}}]},
    {"type": "array", "items": {"oneOf": [{"type": "integer", "minimum": 2}]}},
    {"description": "a list of integers", "oneOf": [{"type": "array", "items": {"type": "integer"}}]},
)


def _node_error(schema, value):
    """``_checker(schema, "")`` on ``value``, its path written as ``validate`` writes it."""
    error = documents._checker(schema, "")(value)
    if error is not None:
        where = ""
        for key in reversed(error[0]):
            where = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
        error = (where, error[1])
    return error


@pytest.mark.parametrize("schema", _TYPED_ONE_OF)
@pytest.mark.parametrize("value", [True, 1.5, None, 1, 0, "1/2", "1/2\n", "0.5", "", [], [1, "x"], [[1]], {}])
def test_typed_one_of_matches_the_interpreter_with_or_without_a_description(schema, value):
    assert _node_error(schema, value) == oracles._check(value, schema, "", "")


_RATIONAL_PATTERN = "^-?[0-9]+(/[0-9]+)?$"
#: leaf nodes for the items, properties and oneOf branches of a drawn node
_LEAF_NODES = st.sampled_from([
    {"type": "integer"}, {"type": "integer", "minimum": 2}, {"type": "string"},
    {"type": "string", "minLength": 2}, {"type": "string", "pattern": _RATIONAL_PATTERN},
    {"type": "boolean"}, {"type": "null"}, {"const": "inf"},
    {"type": "array", "items": {"type": "integer"}}, {"type": "object", "required": ["a"]},
    {"description": "anything"},
])
#: each keyword a node of each type may state, with its values
_NODE_KEYWORDS = {
    None: {"const": st.sampled_from(["inf", 1, True, None, [1], {}])},
    "string": {
        "minLength": st.integers(0, 3), "pattern": st.sampled_from([_RATIONAL_PATTERN, "^x*$", "inf"]),
        "const": st.sampled_from(["inf", "1/2", "", 1]),
    },
    "array": {"minItems": st.integers(0, 3), "maxItems": st.integers(0, 3), "items": _LEAF_NODES},
    "object": {
        "properties": st.dictionaries(st.sampled_from("abc"), _LEAF_NODES, max_size=3),
        "additionalProperties": st.just(False),
        "required": st.lists(st.sampled_from("abcd"), max_size=3, unique=True),
    },
    "integer": {"minimum": st.integers(-2, 3)},
    "boolean": {"const": st.booleans()},
    "null": {"const": st.none()},
}


#: values of the seven JSON classes, nested two deep, and the near misses of the stricter checks
_NODE_VALUES = st.one_of(
    st.sampled_from([True, False, 1.0, 0.5, "1/2\n", "1/2", "inf", "", None, 0, 1, 2, -3, 10**30]),
    st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text("ab1/", max_size=3)
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(st.sampled_from("abcd"), inner, max_size=4)
        ),
        max_leaves=6,
    ),
)
_SHORT_STRINGS = st.one_of(
    st.sampled_from(["", "x", "xx", "inf", "1/2", "1/2\n", "-3"]), st.text("x1/", max_size=4)
)
#: values of a node type's own class, so that most get past the type test to the keywords
_VALUES_OF = {
    "string": _SHORT_STRINGS,
    "integer": st.one_of(st.integers(-3, 5), st.just(True)),
    "array": st.lists(st.one_of(st.integers(-1, 3), _SHORT_STRINGS, st.just(True)), max_size=4),
    "object": st.dictionaries(
        st.sampled_from("abcd"),
        st.one_of(st.integers(-1, 3), _SHORT_STRINGS, st.just([1]), st.just({})),
        max_size=4,
    ),
}


@st.composite
def single_nodes(draw):
    """A schema node of any type, with any of its keywords, a ``oneOf`` and a ``description``; and a value."""
    kind = draw(st.sampled_from(sorted(_NODE_KEYWORDS, key=str)))
    node = {} if kind is None else {"type": kind}
    for keyword, values in _NODE_KEYWORDS[kind].items():
        if draw(st.booleans()):
            node[keyword] = draw(values)
    if draw(st.booleans()):
        # typed branches, of pairwise different types (dispatched by class) or not
        node["oneOf"] = draw(st.lists(_LEAF_NODES, min_size=1, max_size=3))
    if draw(st.booleans()):
        node["description"] = "the node's description"
    return node, draw(_VALUES_OF.get(kind, _NODE_VALUES) if draw(st.integers(0, 3)) else _NODE_VALUES)


@settings(max_examples=600, deadline=None)
@given(single_nodes())
@example(({"type": "string", "const": "inf", "minLength": 3}, "in"))
@example(({"type": "array", "maxItems": 1, "items": {"type": "integer"}}, [1, True]))
@example(({"type": "integer", "minimum": 2, "oneOf": [{"type": "integer"}, {"type": "string"}]}, 1))
@example(({"type": "integer", "minimum": 2, "oneOf": [{"type": "integer"}, {"type": "string"}],
           "description": "an integer"}, True))
@example(({"type": "integer", "minimum": 2, "oneOf": [{"type": "integer", "minimum": 3}]}, 2))
@example(({"type": "string", "pattern": _RATIONAL_PATTERN}, "1/2\n"))
# a branch that fails one key into the value, under an empty path prefix
@example(({"oneOf": [{"type": "integer"}, {"type": "object", "required": ["a"]}]}, {}))
def test_single_nodes_match_the_interpreter(case):
    schema, value = case
    assert _node_error(schema, value) == oracles._check(value, schema, "", "")


@pytest.mark.parametrize(
    "schema",
    [
        {"minLength": 1},  # untyped: only const is tested
        {"description": "an untyped closure", "additionalProperties": False},
        {"type": "string", "minimum": 1},
        {"type": "integer", "const": 1},
        {"type": "object", "items": {"type": "integer"}},
        {"type": "number"},
        {"type": ["boolean", "null"]},
        {"enum": ["a", "b"]},
        {"$ref": "#/$defs/rational", "description": "a $ref with another keyword"},
        {"type": "array", "items": {"type": "string", "maxItems": 1}},
        {"oneOf": [{"type": "integer"}, {"type": "object", "pattern": "x"}]},
    ],
)
def test_checker_refuses_keywords_its_closure_would_not_test(schema):
    with pytest.raises(ValueError, match="^: no test of "):
        documents._checker(schema, "")


def test_one_of_takes_the_failure_with_the_most_path_keys_not_characters():
    # the dots of the key "a.b.c" once counted as three levels of depth, in validate and in the
    # interpreter oracle
    doc = copy.deepcopy(CANONICAL)
    doc["decomposition"][0]["first_return"] = {"a.b.c": 1, "matrix": [[1, 2], [3]]}
    message = "decomposition[0].first_return.matrix[1]: expected at least 2 entries"
    with pytest.raises(InputFormatError) as exc:
        canonical_from_doc(doc)
    assert str(exc.value) == message
    assert validation_error_by_interpreter(doc, "canonical.schema.json") == message
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["canonical", json.dumps(doc)]) == 2
    assert err.getvalue() == f"error: {message}\n"


#: accepted spellings of nonnegative rationals, with leading zeros, signed zeros and common factors
_MATRIX_ENTRIES = st.one_of(
    st.sampled_from(["007/014", "-0", "0/5", "-00/7", "12/8", "3", "0"]),
    st.integers(0, 6),
    st.builds(lambda zeros, p, q: f"{'0' * zeros}{p}/{q}", st.integers(0, 2), st.integers(0, 30), st.integers(1, 12)),
)
#: negative entries (exit 3), zero denominators and forms the schema rejects (exit 2)
_REJECTED_ENTRIES = st.sampled_from(["-3/4", -1, "-7", "1/0", "0/0", "-00/0", 1.5, "1/-2", "+1", "1/2 "])


@st.composite
def matrix_inputs(draw):
    """A matrix input, bare or in a document, with up to two rejected entries or one entry short."""
    n = draw(st.integers(0, 4))
    rows = [draw(st.lists(_MATRIX_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_REJECTED_ENTRIES)
    if n and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    return {"schema": "thurston-obstruct/matrix/1", "matrix": rows} if draw(st.booleans()) else rows


def _matrix_outcome(value) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["matrix", "--format", "json", json.dumps(value)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(matrix_inputs())
@example([["007/014", "-0"], ["0/5", 1]])
@example([["-3/4", 0], [0, 1]])
@example([[1, "9" * 4300], [0, 1]])  # accepted: the int-string limit is 4300 digits
@example({"schema": "thurston-obstruct/matrix/1", "matrix": [[1, "9" * 4301], [0, 1]]})
@example([[1, "1/" + "7" * 4301], [0, 1]])
@example([[1, "1/0"], [0, 1]])
@example([[1, "-3/4"], [0]])  # not square and negative: exit 2 before the sign check's 3
@example([[1], [2, "1/0"]])  # a later row's bad entry is named before an earlier row's length
# misses of the one walk over the entries, each worded by validate and _ratio: p/0 after entries
# the walk reduced, other types, a final newline, a digit int() takes but the pattern does not,
# the digit limit, a ragged row, an unknown or missing field, another schema, and an entry's
# failure beside an unknown field, which comes first in property order
@example({"schema": "thurston-obstruct/matrix/1", "matrix": [["1/0"] + ["007/014"] * 3] + [["007/014"] * 4] * 3})
@example([[1, True], [0, 1]])
@example([[1, 1.5], [0, 1]])
@example([[1, "1/2\n"], [0, 1]])
@example([["\u0663", 0], [0, 1]])
@example([["2/4", "9" * 4301], [0, 1]])
@example({"schema": "thurston-obstruct/matrix/1", "matrix": [[1, 0], ["1/2"]]})
@example({"schema": "thurston-obstruct/matrix/1", "matrix": [[1]], "note": 1})
@example({"schema": "thurston-obstruct/matrix/1"})
@example({"schema": "thurston-obstruct/matrix/2", "matrix": [[1]]})
@example({"schema": "thurston-obstruct/matrix/1", "matrix": [[1, 1.5], [0, 1]], "note": 1})
@example({"note": 1, "matrix": [["1/0", 0], [0, 1]], "schema": "thurston-obstruct/matrix/1"})
def test_matrix_decoding_matches_the_fraction_route(value):
    code, expected = matrix_input_by_fractions(value)
    got, out, err = _matrix_outcome(value)
    assert got == code, err
    if code:
        assert (out, err) == ("", f"error: {expected}\n")
        return
    scale, ints, echo = expected
    assert err == ""
    assert json.loads(out)["request"]["input"]["matrix"] == echo
    m = NonnegMatrix._from_ints(*matrix_from_doc(value))
    assert (m.scale, m.ints) == (scale, ints)


def test_matrix_decoding_without_fractions():
    # a decoded matrix is (L, L*M) over the lcm L of the reduced denominators,
    # negative entries included: only the analysis refuses them
    assert matrix_from_doc([["007/014", "-0"], ["0/5", 1]]) == (2, [[1, 0], [0, 2]])
    assert matrix_from_doc([["-3/4", "5/6"], [2, "-0/9"]]) == (12, [[-9, 10], [24, 0]])
    assert documents.matrix_to_doc(12, [[-9, 10], [24, 0]]) == [["-3/4", "5/6"], ["2", "0"]]
    assert parse_rational("-0", "x") == 0 and parse_rational("6/4", "x") == F(3, 2)
    with pytest.raises(InputFormatError, match=r"^x: invalid rational '0/0'$"):
        parse_rational("0/0", "x")


@st.composite
def scaled_ints(draw):
    """``(L, ints)`` for entries x/L: L = 1, p or p * q, up to 2^300; x of either sign or 0,
    mostly coprime to L, a multiple of L, or a multiple of its factor p."""
    p, q = draw(st.integers(1, 2**150)), draw(st.integers(1, 2**150))
    scale = draw(st.sampled_from([1, p, p * q]))
    entry = st.one_of(
        st.integers(-(2**310), 2**310),
        st.integers(-3, 3).map(scale.__mul__),
        st.integers(-(2**20), 2**20).map(p.__mul__),
    )
    return scale, draw(st.lists(st.lists(entry, min_size=1, max_size=4), min_size=1, max_size=4))


_L = 2**150 * (2**150 - 1)


@given(scaled_ints())
@example((1, [[-2, 0, 5]]))
@example((_L, [[-1, 0, 1, _L, -_L], [3 * _L, 2**150, -7 * 2**150, _L + 1, 1 - _L]]))
@settings(max_examples=150, deadline=None)
def test_matrix_to_doc_matches_format_rational(case):
    scale, ints = case
    assert documents.matrix_to_doc(scale, ints) == [[format_rational(F(x, scale)) for x in row] for row in ints]


_REPORT_TEXT = st.text(
    st.one_of(st.sampled_from(' \\"\x00\x01\x1f\x7f\u2028é€😀\n\t'), st.characters()),
    max_size=6,
)


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


class _Label(str):
    """A ``str`` subclass: ``dumps`` writes its characters, as ``json.dumps`` does."""


_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    _REPORT_TEXT,
    # subclasses miss the writer's exact-type path and take the isinstance route
    st.sampled_from(_Level),
    _REPORT_TEXT.map(_Label),
)
_REPORT_DOCS = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_REPORT_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_REPORT_DOCS)
def test_dumps_matches_the_json_encoder(doc):
    assert dumps(doc) == dumps_by_json(doc)


def test_dumps_matches_the_json_encoder_on_edge_documents():
    edge = {
        "text": ["é", "\x01", " ", "\\", '"', "", "\u2028"],
        "empty": [[], {}, (), [[]], {"": {}}],
        "flags": [True, False, None, 0, 1],
        "big": [2**64, -(2**64) - 1, 10**400],
        "tuple": (1, ("a", (None,)), (True, False, None)),
        "members": {"t": True, "f": False, "n": None, "level": _Level.HIGH, _Label("key"): _Label("é")},
        "subclasses": [_Level.LOW, _Label("\x01"), (_Level.HIGH, _Label(""))],
    }
    for doc in (edge, [], {}, (), "", 0, True, None, [edge, edge], _Level.LOW, _Label("x")):
        assert dumps(doc) == dumps_by_json(doc)


@pytest.mark.parametrize("value", [0.5, F(1, 2), {1, 2}], ids=["float", "fraction", "set"])
def test_dumps_rejects_what_json_cannot_write(value):
    for doc in (value, [1, value], {"key": value}):
        with pytest.raises(TypeError):
            dumps(doc)


def test_dumps_rejects_keys_that_are_not_strings():
    # json.dumps would write the key 1 as "1"; no report has such a key
    with pytest.raises(TypeError):
        dumps({"a": {1: "b"}})
