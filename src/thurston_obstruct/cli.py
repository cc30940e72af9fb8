"""Command-line front end.

One subcommand per mathematical domain: ``orbifold`` classifies critical
portraits, ``matrix`` analyzes a nonnegative rational matrix, ``slopes``
decides the torus-quotient obstruction question from a homology action,
``table`` analyzes declared pullback combinatorics, and ``canonical``
checks a candidate multicurve against the component criteria.

Exit codes: 0 completed analysis (whatever the mathematical verdict),
1 the report could not be written, 2 malformed input, 3 precondition
violation, 4 resource cap exceeded.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Optional

from . import documents as docs
from .documents import InputFormatError
from .orbifold import CriticalPortrait, classify_orbifold
from .slopes import (
    canonical_obstruction_2222,
    eigenvalue_classification,
    find_obstruction_by_search,
    normalize,
)
from .spectral import (
    NonnegMatrix,
    PreconditionError,
    imprimitive_block_decomposition,
    imprimitivity_index,
    is_irreducible,
    leading_eigenvalue_interval,
    power_positive_exponent,
    scc_partition,
    spectral_radius_class,
    exists_positive_subinvariant_vector,
)
from .tables import DEFAULT_SUBSET_CAP, analyze_table, check_canonical_candidate

if TYPE_CHECKING:  # a plain command line is parsed without argparse
    import argparse

EXIT_OK = 0
EXIT_WRITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE_CAP = 4

DEFAULT_WIDTH = "1/1000000"


def _load_json(text: str, origin: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than the interpreter's digit limit
        raise InputFormatError(f"{origin}: invalid JSON number: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{origin}: JSON nesting is too deep") from exc


def _load_inline_matrix(text: str, origin: str) -> Any:
    # accept the shorthand [[1/2,0],[1,1]] by quoting bare fractions
    try:
        return _load_json(text, origin)
    except InputFormatError as exc:
        if not isinstance(exc.__cause__, json.JSONDecodeError):
            raise
        # a whole JSON string matches first and stays as it is: '[["1/2",1/3]]'
        unquoted = r'"(?:[^"\\]|\\.)*"|(-?\d+)\s*/\s*(\d+)'
        rewritten = re.sub(unquoted, lambda m: m[0] if m[1] is None else f'"{m[1]}/{m[2]}"', text)
        try:
            return _load_json(rewritten, origin)
        except InputFormatError:
            raise exc  # keep the original diagnostics


def _read_input(inline: Optional[str], path_or_json: Optional[str]) -> Any:
    if inline is not None and path_or_json is not None:
        raise InputFormatError("give either an input file or --matrix, not both")
    if inline is not None:
        return _load_inline_matrix(inline, "--matrix")
    if path_or_json is None:
        raise InputFormatError("missing input document")
    stripped = path_or_json.lstrip()
    if stripped.startswith("["):
        return _load_inline_matrix(path_or_json, "argument")
    if stripped.startswith("{"):
        return _load_json(path_or_json, "argument")
    path = Path(path_or_json)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise InputFormatError(f"input file {path_or_json!r} does not exist") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise InputFormatError(f"input file {path_or_json!r} cannot be read: {exc}") from exc
    return _load_json(text, str(path))


# ---------------------------------------------------------------------------
# per-command analyses; each takes the decoded input and returns (result, code)


def _run_orbifold(portrait: CriticalPortrait, options: dict) -> tuple[dict, int]:
    return docs.signature_to_doc(classify_orbifold(portrait)), EXIT_OK


def _run_matrix(decoded: tuple, options: dict) -> tuple[dict, int]:
    scale, ints = decoded
    if min(map(min, ints), default=0) < 0:
        raise PreconditionError("matrix entries must be nonnegative")
    matrix = NonnegMatrix._from_ints(scale, ints)
    width = docs.parse_rational(options["width"], "options.width")
    # the matrix keeps its spectral profile and root isolator, so the calls
    # below share one SCC pass and one characteristic polynomial
    irreducible = is_irreducible(matrix)
    index = imprimitivity_index(matrix) if irreducible else None
    result: dict[str, Any] = {
        "n": matrix.n,
        "spectral": docs.spectral_to_doc(spectral_radius_class(matrix)),
        "leading_interval": docs.interval_to_doc(leading_eigenvalue_interval(matrix, width)),
        "scc": docs.block_structure_to_doc(scc_partition(matrix)),
        "irreducible": irreducible,
        "imprimitivity_index": index,
        "primitive": index == 1,
        "power_positive_exponent": power_positive_exponent(matrix) if matrix.n else None,
        "imprimitive_decomposition": docs.imprimitive_to_doc(imprimitive_block_decomposition(matrix))
        if irreducible
        else None,
    }
    if options["check_simple"]:
        cert = exists_positive_subinvariant_vector(matrix)
        result["simple"] = {"exists": cert is not None, "certificate": docs.certificate_to_doc(cert)}
    return result, EXIT_OK


def _run_slopes(action: tuple, options: dict) -> tuple[dict, int]:
    tmap = normalize(action)
    canonical = canonical_obstruction_2222(tmap)
    result: dict[str, Any] = {
        "action": docs.torus_map_to_doc(tmap),
        "degree": tmap.degree,
        "eigenvalues": docs.eigenvalue_class_to_doc(eigenvalue_classification(tmap)),
        "canonical_obstruction": docs.obstruction_slope_to_doc(canonical),
        "search": None,
    }
    bound = options["bound"]
    if bound is not None:
        result["search"] = {
            "bound": bound,
            "found": docs.obstruction_slope_to_doc(find_obstruction_by_search(tmap, bound)),
        }
    return result, EXIT_OK


def _run_table(decoded: tuple, options: dict) -> tuple[dict, int]:
    report = analyze_table(*decoded, subset_cap=options["subset_cap"])
    return docs.table_report_to_doc(report), EXIT_RESOURCE_CAP if report.minimal.truncated else EXIT_OK


def _run_canonical(decoded: tuple, options: dict) -> tuple[dict, int]:
    table, multicurve, decomposition = decoded
    report = check_canonical_candidate(
        table, multicurve, decomposition, subset_cap=options["subset_cap"]
    )
    result = docs.canonical_report_to_doc(report)
    result["candidate"] = {
        "curves": multicurve,
        "simple_certificate": docs.certificate_to_doc(report.simple_certificate),
        "completely_invariant": report.completely_invariant,
    }
    return result, EXIT_RESOURCE_CAP if report.truncated else EXIT_OK


#: command -> (decode the input document, echo the decoded input, analysis).
#: The lambdas look the ``docs`` functions up at each call, so a wrapper
#: patched onto the module (a tracer's, say) sees every call.
_COMMANDS = {
    "orbifold": (
        lambda raw: docs.portrait_from_doc(raw), lambda p: docs.portrait_to_doc(p), _run_orbifold
    ),
    "matrix": (
        lambda raw: docs.matrix_from_doc(raw), lambda m: docs.matrix_input_to_doc(m), _run_matrix
    ),
    "slopes": (
        lambda raw: docs.action_from_doc(raw), lambda a: docs.action_input_to_doc(a), _run_slopes
    ),
    "table": (lambda raw: docs.table_from_doc(raw), lambda t: docs.table_to_doc(*t), _run_table),
    "canonical": (
        lambda raw: docs.canonical_from_doc(raw), lambda c: docs.canonical_to_doc(*c), _run_canonical
    ),
}


def run_request(request: dict) -> tuple[dict, int]:
    """Execute an analysis request and assemble its report document.

    The input is decoded once; the report echoes its normal form, and
    normalizing is idempotent, so re-running the report's embedded request
    reproduces the report bit for bit.
    """
    command = request.get("command")
    if command not in _COMMANDS:
        raise InputFormatError(f"unknown command {command!r}")
    decode, echo, analyze = _COMMANDS[command]
    decoded = decode(request["input"])
    echoed = {"command": command, "input": echo(decoded), "options": request["options"]}
    result, code = analyze(decoded, request["options"])
    return {"schema": docs.REPORT_SCHEMA, "request": echoed, "result": result}, code


# ---------------------------------------------------------------------------
# text rendering


def _render_simple(doc: dict) -> str:
    if doc["exists"]:
        return f"yes, certificate vector [{', '.join(doc['certificate'])}]"
    return "no (no positive subinvariant vector exists)"


def _render_obstruction_slope(doc: dict) -> str:
    if doc["empty"]:
        return "empty"
    p, q = doc["slope"]
    return f"nonempty, slope {p}/{q}, multiplier {doc['multiplier']}"


def _render_spectral(doc: dict) -> str:
    lo, hi = doc["interval"]
    return f"spectral class: {doc['class']} (interval [{lo}, {hi}])"


def _tristate_text(value) -> str:
    return {True: "yes", False: "no", None: "unknown"}[value]


def render_text(report: dict) -> str:
    request = report["request"]
    result = report["result"]
    command = request["command"]
    lines = [f"command: {command}"]
    if command == "orbifold":
        ram = ", ".join(f"{k} -> {v}" for k, v in result["ramification"].items())
        lines.append(f"ramification: {ram}")
        lines.append(f"weights: ({', '.join(str(w) for w in result['weights'])})")
        lines.append(f"euler characteristic: {result['chi']}")
        lines.append(f"orbifold class: {result['class']}")
        lines.append(f"(2,2,2,2)-map: {'yes' if result['is_2222'] else 'no'}")
    elif command == "matrix":
        lines.append(f"size: {result['n']}")
        lines.append(_render_spectral(result["spectral"]))
        li = result["leading_interval"]
        lines.append(f"leading eigenvalue interval: [{li[0]}, {li[1]}]")
        lines.append(f"irreducible: {'yes' if result['irreducible'] else 'no'}")
        if result["irreducible"]:
            lines.append(f"imprimitivity index: {result['imprimitivity_index']}")
            lines.append(f"primitive: {'yes' if result['primitive'] else 'no'}")
        scc = result["scc"]
        lines.append(
            f"scc blocks: sizes {scc['block_sizes']}, permutation {scc['permutation']}"
        )
        if "simple" in result:
            lines.append(f"simple obstruction: {_render_simple(result['simple'])}")
    elif command == "slopes":
        lines.append(f"action: {result['action']} (degree {result['degree']})")
        eig = result["eigenvalues"]
        if eig["kind"] == "two_distinct_integers":
            lines.append(f"eigenvalues: two distinct integers {eig['d1']}, {eig['d2']}")
        elif eig["kind"] == "equal_integers":
            lines.append(f"eigenvalues: equal integers {eig['d']}, {eig['d']}")
        else:
            lines.append("eigenvalues: non-integer or complex")
        lines.append(
            f"canonical obstruction: {_render_obstruction_slope(result['canonical_obstruction'])}"
        )
        if result["search"] is not None:
            lines.append(
                f"search (bound {result['search']['bound']}): "
                f"{_render_obstruction_slope(result['search']['found'])}"
            )
    elif command == "table":
        lines.append(f"curves: {result['curves']}")
        for row in result["matrix"]:
            lines.append(f"  [{', '.join(row)}]")
        lines.append(_render_spectral(result["spectral"]))
        lines.append(f"obstruction: {'yes' if result['is_obstruction'] else 'no'}")
        lines.append(f"invariant: {_tristate_text(result['invariant'])}")
        lines.append(f"completely invariant: {_tristate_text(result['completely_invariant'])}")
        lines.append(f"simple obstruction: {_render_simple(result['simple'])}")
        if result["simple_core"] is not None:
            lines.append(f"simple core: {result['simple_core']}")
        lines.append(f"levy cycles: {result['levy_cycles']}")
        minimal = result["minimal_obstructions"]
        lines.append(
            f"minimal obstructions: {minimal['multicurves']}"
            + (" (search truncated)" if minimal["truncated"] else "")
        )
    elif command == "canonical":
        lines.append(f"verdict: {'Accept' if result['accepted'] else 'Reject'}")
        for msg in result["preconditions"]:
            lines.append(f"  precondition failed: {msg}")
        for comp in result["components"]:
            status = "pass" if comp["passed"] else "fail"
            lines.append(f"component {comp['index']} ({comp['kind']}): {status}")
            for reason in comp["reasons"]:
                lines.append(f"    {reason}")
        lines.append(f"note: {result['note']}")
        if result["truncated"]:
            lines.append(
                f"simple-obstruction search truncated at subset cap {request['options']['subset_cap']}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

_FORMAT = ("--format", "format", ("json", "text"), "text", "report format (default: text)")
_MATRIX = ("--matrix", "matrix", str, None, "inline JSON matrix, e.g. '[[2,0],[0,3]]'")

#: subcommand -> (its help, its options in help order).  An option is
#: (flag, dest, kind, default, help), with kind ``bool`` for a flag, ``int``,
#: ``str`` or a tuple of choices.  ``_build_parser`` builds argparse from this
#: table, and ``_plain_args`` reads it.
_SUBCOMMANDS = {
    "orbifold": ("classify a critical portrait", (_FORMAT,)),
    "matrix": ("analyze a nonnegative rational matrix", (
        _MATRIX,
        _FORMAT,
        ("--width", "width", str, DEFAULT_WIDTH,
         f"eigenvalue interval width as p/q (default {DEFAULT_WIDTH})"),
        ("--check-simple", "check_simple", bool, False, "also search for a positive subinvariant vector"),
    )),
    "slopes": ("torus-quotient obstruction decision", (
        _MATRIX,
        _FORMAT,
        ("--bound", "bound", int, None, "also run the bounded slope search"),
    )),
    "table": ("analyze a curve table", (
        _FORMAT,
        ("--subset-cap", "subset_cap", int, DEFAULT_SUBSET_CAP,
         f"largest multicurve size searched (default {DEFAULT_SUBSET_CAP})"),
    )),
    "canonical": ("check a canonical-obstruction candidate", (
        _FORMAT,
        ("--subset-cap", "subset_cap", int, DEFAULT_SUBSET_CAP,
         "declared classes of each torus-quotient inner table that are examined "
         f"(default {DEFAULT_SUBSET_CAP})"),
    )),
}


def _int_argument(text: str) -> int:
    """argparse's ``type=int``, with a rejected value echoed cut, as document fields are."""
    import argparse

    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {docs._echo(text)}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later ``main`` call."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse's own swallows the OSError of a failed write: it reaches ``script`` instead
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="thurston-obstruct",
        description="Exact obstruction-theoretic analyses of branched sphere covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("input", nargs="?", help="input document: a file path or inline JSON")
        for flag, dest, kind, default, option_help in options:
            if kind is bool:
                kinds = {"action": "store_true"}
            elif kind is int:
                kinds = {"type": _int_argument}
            elif kind is str:
                kinds = {}
            else:
                kinds = {"choices": kind}
            p.add_argument(flag, dest=dest, default=default, help=option_help, **kinds)
    return parser


def _plain_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The parse of a plain argv, or None for argparse to decide.

    A plain argv is a subcommand followed by that subcommand's exact option
    strings, each once and with its value, and at most one input; no token
    but an option string starts with ``-``.  On such an argv argparse's
    parse is this one.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = {option[0]: option for option in _SUBCOMMANDS[argv[0]][1]}
    args = {"command": argv[0], "input": None}
    args.update((dest, default) for _, dest, _, default, _ in options.values())
    has_input = False
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if has_input:
                return None
            args["input"], has_input = token, True
            continue
        option = options.pop(token, None)  # popped, so a repeated option is argparse's
        if option is None:
            return None
        _, dest, kind, _, _ = option
        if kind is bool:
            args[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option string
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def _parse_args(argv: list[str]) -> Any:
    """``_plain_args`` on a plain argv; argparse, with its help and errors, on every other."""
    args = _plain_args(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # a request's options: every parsed argument but the input and the report format
    skip = ("command", "input", "matrix", "format")
    options = {k: v for k, v in vars(args).items() if k not in skip}
    try:
        raw = _read_input(getattr(args, "matrix", None), args.input)
        report, code = run_request({"command": args.command, "input": raw, "options": options})
        text = docs.dumps(report) if args.format == "json" else render_text(report)
    except (InputFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, InputFormatError) else EXIT_PRECONDITION
    except ValueError as exc:  # a report integer past the interpreter's int-string limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: the report needs an integer of more than {limit} digits", file=sys.stderr)
        return EXIT_PRECONDITION
    sys.stdout.write(text)
    return code


def script() -> int:
    """The process entry: ``thurston-obstruct`` and ``python -m thurston_obstruct.cli``.

    Everything alive before the request (the package, the standard library
    and ``site``) is frozen into the permanent generation, which the
    interpreter's shutdown collections neither walk nor free; the process
    hands that memory back to the OS at exit.  ``main`` never freezes.  A
    report or help text that cannot be written exits 1 with one error line.
    """
    gc.freeze()
    try:
        try:
            code = main()
        finally:  # also when argparse's help or errors leave main by SystemExit
            sys.stdout.flush()
    except OSError as exc:
        # the unwritten text stays buffered, and the interpreter's last flush
        # would fail on it again: that flush goes to os.devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc.strerror}", file=sys.stderr)
        return EXIT_WRITE_FAILED
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(script())
