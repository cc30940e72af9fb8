"""Span tracing around the program's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function with a wrapper in every
module namespace of the package that bound it (``cli``, ``tables`` and
``spectral`` import names with ``from ... import``, so patching only the
defining module would miss their calls); ``Tracer.remove`` puts the
originals back.  A span is ``[name, start, end, parent, attrs]`` with
``parent`` the index of the enclosing span of the same request, or -1.
Spans stay in memory; the caller collects them per request.

``summarize`` turns the spans of a fixed request set into the per-layer
metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "thurston_obstruct"

#: Traced functions per module.  The arithmetic helpers of ``polynomials``
#: (``evaluate``, ``mul``, ``divmod_poly`` ...) and the per-slope helpers of
#: ``slopes`` run hundreds of thousands of times per request; wrapping them
#: would cost more than the work they do, so their time stays in the span
#: of the traced function that called them.
TRACED = {
    "cli": ("main", "run_request", "render_text"),
    "orbifold": ("classify_orbifold", "ramification_function", "euler_characteristic", "is_2222"),
    "slopes": (
        "normalize", "eigenvalue_classification", "canonical_obstruction_2222",
        "find_obstruction_by_search", "orbit_of_slope",
    ),
    "spectral": (
        "charpoly", "spectral_radius_class", "leading_eigenvalue_interval",
        "exists_positive_subinvariant_vector", "scc_partition", "is_irreducible",
        "below_one_closed_indices", "imprimitivity_index", "is_primitive",
        "power_positive_exponent", "imprimitive_block_decomposition", "cyclic_classes",
    ),
    "polynomials": ("squarefree_part", "sturm_chain", "count_roots_between"),
    "tables": (
        "curve_order", "thurston_matrix", "is_invariant", "is_completely_invariant",
        "classify_multicurve", "is_simple_obstruction", "extract_simple_core",
        "find_levy_cycles", "find_minimal_obstructions", "analyze_table",
        "check_canonical_candidate",
    ),
}


def _documents_names(module) -> tuple[str, ...]:
    """Every document parser and serializer: ``*_from_doc``, ``*_to_doc``, ``dumps``."""
    return tuple(
        sorted(
            name
            for name, value in vars(module).items()
            if callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and (name.endswith("_from_doc") or name.endswith("_to_doc")
                 or name in ("dumps", "matrix_doc_from_value"))
        )
    )


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly), default=0)


def _slopes_visited(args, result) -> int:
    """Slopes the search looked at: all of them, or up to the one it returned."""
    _, bound = args
    visited = 0
    for slope in sys.modules[f"{PACKAGE}.slopes"].enumerate_slopes(bound):
        visited += 1
        if result is not None and slope == result.slope:
            break
    return visited


#: Facts recorded on a span after its end time is taken, so they cost the
#: traced run time but never land inside a span.
ATTRS: dict[str, Callable] = {
    "spectral.charpoly": lambda args, r: {"dim": args[0].n, "bits": _coeff_bits(r)},
    "spectral.exists_positive_subinvariant_vector": lambda args, r: {"hit": r is not None},
    "tables.find_minimal_obstructions": lambda args, r: {"found": len(r.multicurves)},
    "tables.find_levy_cycles": lambda args, r: {"cycles": len(r)},
    "slopes.find_obstruction_by_search": lambda args, r: {"visited": _slopes_visited(args, r)},
    "documents.dumps": lambda args, r: {"bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module of the package
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers: dict[int, Callable] = {}
        for short in ("cli", "documents", "orbifold", "slopes", "spectral", "polynomials", "tables"):
            module = sys.modules[f"{PACKAGE}.{short}"]
            names = _documents_names(module) if short == "documents" else TRACED[short]
            for fname in names:
                original = getattr(module, fname)
                wrappers[id(original)] = self._wrap(f"{short}.{fname}", original)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


# ---------------------------------------------------------------------------
# per-layer metrics


#: Traced function -> the metric group its spans count towards.
GROUP_OF = {
    "spectral.charpoly": "spectral.charpoly",
    "spectral.spectral_radius_class": "spectral.spectral_radius_class",
    "spectral.leading_eigenvalue_interval": "spectral.leading_eigenvalue_interval",
    "spectral.exists_positive_subinvariant_vector": "spectral.subinvariant",
    "spectral.scc_partition": "spectral.structure",
    "spectral.is_irreducible": "spectral.structure",
    "spectral.below_one_closed_indices": "spectral.structure",
    "spectral.imprimitivity_index": "spectral.imprimitive",
    "spectral.is_primitive": "spectral.imprimitive",
    "spectral.cyclic_classes": "spectral.imprimitive",
    "spectral.power_positive_exponent": "spectral.imprimitive",
    "spectral.imprimitive_block_decomposition": "spectral.imprimitive",
    "polynomials.sturm_chain": "polynomials.sturm_chain",
    "polynomials.squarefree_part": "polynomials.squarefree",
    "polynomials.count_roots_between": "polynomials.root_count",
    "tables.find_minimal_obstructions": "tables.minimal",
    "tables.check_canonical_candidate": "tables.canonical",
    "tables.find_levy_cycles": "tables.levy",
    "tables.analyze_table": "tables.analyze",
    "cli.main": "cli.main",
    "cli.run_request": "cli.run_request",
    "slopes.find_obstruction_by_search": "slopes.search",
    "orbifold.classify_orbifold": "orbifold.classify",
}

#: Per-layer metric name -> unit, in output order.  Times (``.s``,
#: ``self_s``) and counts are totals over one pass of the workload's fixed
#: trace set; ratios with no base (nothing tested) read 0.
PER_LAYER = {
    "spectral.charpoly.calls": "count",
    "spectral.charpoly.s": "s",
    "spectral.charpoly.per_request": "calls/req",
    "spectral.charpoly.dim_sum": "count",
    "spectral.charpoly.coeff_bits_max": "bits",
    "spectral.spectral_radius_class.calls": "count",
    "spectral.spectral_radius_class.s": "s",
    "spectral.leading_eigenvalue_interval.s": "s",
    "spectral.subinvariant.calls": "count",
    "spectral.subinvariant.s": "s",
    "spectral.structure.calls": "count",
    "spectral.structure.s": "s",
    "spectral.imprimitive.s": "s",
    "spectral.self_s": "s",
    "polynomials.sturm_chain.calls": "count",
    "polynomials.sturm_chain.s": "s",
    "polynomials.squarefree.calls": "count",
    "polynomials.squarefree.s": "s",
    "polynomials.root_count.calls": "count",
    "polynomials.root_count.s": "s",
    "polynomials.self_s": "s",
    "tables.minimal.s": "s",
    "tables.minimal.subsets_tested": "count",
    "tables.minimal.spectral_tests": "count",
    "tables.minimal.hit_ratio": "ratio",
    "tables.canonical.s": "s",
    "tables.canonical.subsets_tested": "count",
    "tables.canonical.hit_ratio": "ratio",
    "tables.levy.s": "s",
    "tables.levy.cycles": "count",
    "tables.analyze.s": "s",
    "tables.self_s": "s",
    "documents.parse.calls": "count",
    "documents.parse.s": "s",
    "documents.serialize.s": "s",
    "documents.report_bytes": "bytes",
    "cli.import.s": "s",
    "process.interpreter_s": "s",
    "cli.main.self_s": "s",
    "cli.run_request.s": "s",
    "slopes.search.s": "s",
    "slopes.search.slopes_visited": "count",
    "orbifold.classify.calls": "count",
    "orbifold.classify.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _group_of(name: str) -> Optional[str]:
    if name.startswith("documents."):
        serializer = name.endswith("_to_doc") or name == "documents.dumps"
        return "documents.serialize" if serializer else "documents.parse"
    return GROUP_OF.get(name)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(requests: list[list[list]], processes: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the span lists of a request set.

    ``processes`` carries what the spans cannot see: ``import_s`` (time
    importing ``thurston_obstruct.cli``) and ``interpreter_s`` (process
    time outside the import and ``cli.main``), summed over the processes
    that served the set.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    module_self: dict[str, float] = {}
    main_self = 0.0
    charpoly_dims = charpoly_bits = 0
    minimal_subsets = minimal_spectral = minimal_found = 0
    canonical_subsets = canonical_hits = 0
    levy_cycles = visited = 0
    report_bytes = dumps_calls = 0
    for spans in requests:
        own = self_times(spans)
        groups = [_group_of(s[0]) for s in spans]
        for k, span in enumerate(spans):
            name, start, end, parent, attrs = span
            attrs = attrs or {}  # a call that raised recorded no attributes
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + own[k]
            group = groups[k]
            parent_name = spans[parent][0] if parent >= 0 else None
            if group is not None:
                calls[group] = calls.get(group, 0) + 1
                # a group's time counts only its outermost spans
                ancestor = parent
                while ancestor >= 0 and groups[ancestor] != group:
                    ancestor = spans[ancestor][3]
                if ancestor < 0:
                    total[group] = total.get(group, 0.0) + (end - start)
            if name == "cli.main":
                main_self += own[k]
            elif name == "spectral.charpoly":
                charpoly_dims += attrs.get("dim", 0)
                charpoly_bits = max(charpoly_bits, attrs.get("bits", 0))
            elif name == "tables.find_minimal_obstructions":
                minimal_found += attrs.get("found", 0)
            elif name == "tables.find_levy_cycles":
                levy_cycles += attrs.get("cycles", 0)
            elif name == "slopes.find_obstruction_by_search":
                visited += attrs.get("visited", 0)
            elif name == "documents.dumps":
                report_bytes += attrs.get("bytes", 0)
                dumps_calls += 1
            if parent_name == "tables.find_minimal_obstructions":
                minimal_subsets += name == "spectral.is_irreducible"
                minimal_spectral += name == "spectral.spectral_radius_class"
            elif parent_name == "tables.check_canonical_candidate" \
                    and name == "spectral.exists_positive_subinvariant_vector":
                canonical_subsets += 1
                canonical_hits += attrs.get("hit", 0)
    n_requests = max(len(requests), 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "spectral.charpoly.calls": calls.get("spectral.charpoly", 0),
        "spectral.charpoly.s": total.get("spectral.charpoly", 0.0),
        "spectral.charpoly.per_request": calls.get("spectral.charpoly", 0) / n_requests,
        "spectral.charpoly.dim_sum": charpoly_dims,
        "spectral.charpoly.coeff_bits_max": charpoly_bits,
        "spectral.spectral_radius_class.calls": calls.get("spectral.spectral_radius_class", 0),
        "spectral.spectral_radius_class.s": total.get("spectral.spectral_radius_class", 0.0),
        "spectral.leading_eigenvalue_interval.s": total.get("spectral.leading_eigenvalue_interval", 0.0),
        "spectral.subinvariant.calls": calls.get("spectral.subinvariant", 0),
        "spectral.subinvariant.s": total.get("spectral.subinvariant", 0.0),
        "spectral.structure.calls": calls.get("spectral.structure", 0),
        "spectral.structure.s": total.get("spectral.structure", 0.0),
        "spectral.imprimitive.s": total.get("spectral.imprimitive", 0.0),
        "spectral.self_s": module_self.get("spectral", 0.0),
        "polynomials.sturm_chain.calls": calls.get("polynomials.sturm_chain", 0),
        "polynomials.sturm_chain.s": total.get("polynomials.sturm_chain", 0.0),
        "polynomials.squarefree.calls": calls.get("polynomials.squarefree", 0),
        "polynomials.squarefree.s": total.get("polynomials.squarefree", 0.0),
        "polynomials.root_count.calls": calls.get("polynomials.root_count", 0),
        "polynomials.root_count.s": total.get("polynomials.root_count", 0.0),
        "polynomials.self_s": module_self.get("polynomials", 0.0),
        "tables.minimal.s": total.get("tables.minimal", 0.0),
        "tables.minimal.subsets_tested": minimal_subsets,
        "tables.minimal.spectral_tests": minimal_spectral,
        "tables.minimal.hit_ratio": ratio(minimal_found, minimal_spectral),
        "tables.canonical.s": total.get("tables.canonical", 0.0),
        "tables.canonical.subsets_tested": canonical_subsets,
        "tables.canonical.hit_ratio": ratio(canonical_hits, canonical_subsets),
        "tables.levy.s": total.get("tables.levy", 0.0),
        "tables.levy.cycles": levy_cycles,
        "tables.analyze.s": total.get("tables.analyze", 0.0),
        "tables.self_s": module_self.get("tables", 0.0),
        "documents.parse.calls": calls.get("documents.parse", 0),
        "documents.parse.s": total.get("documents.parse", 0.0),
        "documents.serialize.s": total.get("documents.serialize", 0.0),
        "documents.report_bytes": ratio(report_bytes, dumps_calls),
        "cli.import.s": processes.get("import_s", 0.0),
        "process.interpreter_s": processes.get("interpreter_s", 0.0),
        "cli.main.self_s": main_self,
        "cli.run_request.s": total.get("cli.run_request", 0.0),
        "slopes.search.s": total.get("slopes.search", 0.0),
        "slopes.search.slopes_visited": visited,
        "orbifold.classify.calls": calls.get("orbifold.classify", 0),
        "orbifold.classify.s": total.get("orbifold.classify", 0.0),
    }
