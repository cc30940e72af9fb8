"""Curve-table analysis of declared pullback combinatorics.

A curve table is the user's contract about a branched cover: a list of
disjoint, pairwise non-homotopic essential curve classes, and for each
class the components of its preimage with mapping degrees and homotopy
targets.  The analyzer builds the associated nonnegative matrices,
classifies multicurves (obstruction, invariant, simple, minimal, Levy)
and checks decomposition candidates against the component conditions
that characterize the canonical obstruction.

Homotopy is never computed: classes are equal exactly when their ids are.
Components whose homotopy class was not tracked contribute nothing to
matrices (a sound lower bound for eigenvalues) but make invariance
verdicts unknown.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from ._records import record
from .slopes import TwoDistinctIntegers, eigenvalue_classification, normalize
from .spectral import (
    NonnegMatrix,
    PreconditionError,
    SpectralClass,
    SpectralTag,
    _bits,
    _block_tag,
    _reach,
    below_one_closed_indices,
    exists_positive_subinvariant_vector,
    spectral_profile,
    spectral_radius_class,
    spectral_tag,
)

#: Reserved pullback targets: a component that bounds a disk with at most
#: one marked point, and a component whose class the user did not follow.
INESSENTIAL = "inessential"
UNTRACKED = "untracked"
_RESERVED = (INESSENTIAL, UNTRACKED)

#: Default ``subset_cap`` of the minimal search and the canonical check.
DEFAULT_SUBSET_CAP = 12


@record
class PullbackComponent:
    degree: int
    target: str


@record
class CurveClass:
    """One declared curve class: its preimage row and optional marked-point split."""

    id: str
    pullback: tuple[PullbackComponent, ...]
    partition: Optional[tuple[frozenset[str], frozenset[str]]] = None


@record
class CurveTable:
    map_degree: int
    classes: tuple[CurveClass, ...]
    marked_points: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.map_degree < 2:
            raise PreconditionError("map degree must be at least 2")
        ids = [c.id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise PreconditionError("duplicate curve class ids")
        for cid in ids:
            if cid in _RESERVED:
                raise PreconditionError(f"class id {cid!r} is reserved")
        known = set(ids) | set(_RESERVED)
        marked = set(self.marked_points) if self.marked_points is not None else None
        for cls in self.classes:
            total = 0
            for comp in cls.pullback:
                if comp.degree < 1:
                    raise PreconditionError(
                        f"component degree in row {cls.id!r} must be >= 1"
                    )
                if comp.target not in known:
                    raise PreconditionError(
                        f"row {cls.id!r} targets unknown class {comp.target!r}"
                    )
                total += comp.degree
            if total > self.map_degree:
                raise PreconditionError(
                    f"row {cls.id!r} lists components of total degree {total} > {self.map_degree}"
                )
            if cls.partition is not None:
                side_a, side_b = cls.partition
                if marked is None:
                    raise PreconditionError(
                        "partitions require the table to declare marked points"
                    )
                if side_a & side_b:
                    raise PreconditionError(f"partition sides of {cls.id!r} overlap")
                if side_a | side_b != marked:
                    raise PreconditionError(
                        f"partition of {cls.id!r} must cover the marked points"
                    )
                if len(side_a) < 2 or len(side_b) < 2:
                    raise PreconditionError(
                        f"partition of {cls.id!r} needs two marked points per side"
                    )

    def class_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.classes)

    def row(self, cid: str) -> CurveClass:
        for c in self.classes:
            if c.id == cid:
                return c
        raise PreconditionError(f"unknown curve class {cid!r}")


def curve_order(table: CurveTable, curves: Optional[Sequence[str]] = None) -> tuple[str, ...]:
    """Curves in the table's declaration order; defaults to all classes."""
    ids = table.class_ids()
    if curves is None:
        return ids
    wanted = list(curves)
    chosen = set(wanted)
    if len(chosen) != len(wanted):
        raise PreconditionError("multicurve repeats a class id")
    unknown = [c for c in wanted if c not in ids]
    if unknown:
        raise PreconditionError(f"unknown curve classes: {unknown}")
    return tuple(c for c in ids if c in chosen)


def thurston_matrix(table: CurveTable, curves: Optional[Sequence[str]] = None) -> NonnegMatrix:
    """Matrix of reciprocal preimage degrees over the given multicurve.

    Entry (i, j) sums 1/degree over the components of curve j's row whose
    target is curve i; inessential and untracked components contribute 0.
    """
    order = curve_order(table, curves)
    index = {cid: k for k, cid in enumerate(order)}
    pullbacks = [table.row(cid).pullback for cid in order]
    scale = lcm(*(comp.degree for pb in pullbacks for comp in pb if comp.target in index))
    ints = [[0] * len(order) for _ in order]
    for j, pb in enumerate(pullbacks):
        for comp in pb:
            if comp.target in index:
                ints[index[comp.target]][j] += scale // comp.degree
    return NonnegMatrix._from_ints(scale, ints)


def is_invariant(table: CurveTable, curves: Sequence[str]) -> Optional[bool]:
    """Whether every essential preimage of the multicurve lands back in it.

    Returns None when some component of a row was not tracked: its class
    is unknown, so the verdict cannot be decided from the table.
    """
    order = curve_order(table, curves)
    in_curve = set(order)
    unknown = False
    for cid in order:
        for comp in table.row(cid).pullback:
            if comp.target == UNTRACKED:
                unknown = True
            elif comp.target != INESSENTIAL and comp.target not in in_curve:
                return False
    return None if unknown else True


def is_completely_invariant(table: CurveTable, curves: Sequence[str]) -> Optional[bool]:
    """Invariant, and every member class occurs among the preimages."""
    inv = is_invariant(table, curves)
    if inv is not True:
        return inv
    order = curve_order(table, curves)
    return set(order) <= {comp.target for cid in order for comp in table.row(cid).pullback}


@record
class MulticurveClassification:
    spectral: SpectralClass
    is_obstruction: bool


def classify_multicurve(table: CurveTable, curves: Sequence[str]) -> MulticurveClassification:
    """Spectral trichotomy of the multicurve's matrix; obstruction iff not below 1."""
    spectral = spectral_radius_class(thurston_matrix(table, curves))
    return MulticurveClassification(
        spectral=spectral,
        is_obstruction=spectral.tag is not SpectralTag.BELOW_ONE,
    )


def is_simple_obstruction(
    table: CurveTable, curves: Sequence[str]
) -> Optional[tuple[Fraction, ...]]:
    """Positive vector certificate that the multicurve is a simple obstruction.

    Components follow the order of ``curve_order(table, curves)``.
    """
    return exists_positive_subinvariant_vector(thurston_matrix(table, curves))


def _outside_below_one_closure(order: Sequence[str], matrix: NonnegMatrix) -> tuple[str, ...]:
    """The curves of ``order`` (the matrix's index order) outside its below-one closure."""
    dropped = set(below_one_closed_indices(matrix))
    return tuple(cid for k, cid in enumerate(order) if k not in dropped)


def extract_simple_core(table: CurveTable, curves: Sequence[str]) -> tuple[str, ...]:
    """Largest sub-multicurve left after shedding sub-1 leading blocks.

    Discarding the blocks whose whole forward closure has eigenvalue
    below 1 preserves the leading eigenvalue and leaves a simple
    obstruction.
    """
    order = curve_order(table, curves)
    matrix = thurston_matrix(table, order)
    if spectral_tag(matrix) is SpectralTag.BELOW_ONE:
        raise PreconditionError("the multicurve is not an obstruction")
    return _outside_below_one_closure(order, matrix)


def find_levy_cycles(table: CurveTable) -> tuple[tuple[str, ...], ...]:
    """All cyclic chains of classes linked by degree-1 preimage components.

    An edge goes from class j to class i when j's row contains a degree-1
    component homotopic to i; every elementary cycle of that digraph is a
    Levy cycle and hence an obstruction.  Every elementary cycle lies in
    one strongly connected component, so an edge j -> i is kept only when
    i reaches j back, read off the transitive closure, and an acyclic table
    costs no search.
    """
    ids = table.class_ids()
    pos = {cid: k for k, cid in enumerate(ids)}
    adj = [0] * len(ids)
    for k, cls in enumerate(table.classes):
        for comp in cls.pullback:
            if comp.degree == 1 and comp.target in pos:
                adj[k] |= 1 << pos[comp.target]
    reach = _reach(adj)
    succ: dict[str, list[str]] = {
        cid: [ids[w] for w in _bits(adj[k]) if reach[w] >> k & 1] for k, cid in enumerate(ids)
    }
    cycles: list[tuple[str, ...]] = []
    for s, root in enumerate(ids):
        # enumerate elementary cycles whose minimal vertex is the root
        stack: list[tuple[str, tuple[str, ...]]] = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for w in succ[v]:
                if pos[w] < s:
                    continue
                if w == root:
                    cycles.append(path)
                elif w not in path:
                    stack.append((w, path + (w,)))
    cycles.sort(key=lambda cyc: (len(cyc), tuple(pos[c] for c in cyc)))
    return tuple(cycles)


@record
class MinimalObstructionSearch:
    multicurves: tuple[tuple[str, ...], ...]
    truncated: bool
    subset_cap: int


def find_minimal_obstructions(
    table: CurveTable, subset_cap: int = DEFAULT_SUBSET_CAP
) -> MinimalObstructionSearch:
    """All multicurves that are obstructions with no smaller obstruction inside.

    Only subsets of fully tracked classes are searched, up to ``subset_cap``
    classes; a larger tracked set marks the result truncated.  A minimal
    obstruction is irreducible (the eigenvalue of a reducible matrix is
    attained on a proper strongly connected block), so it lies inside one
    strongly connected component of the support on the tracked classes and
    is connected there.  The components and their tags come from the
    spectral profile of the tracked classes' matrix.  Since rho only grows
    from a principal submatrix to the whole, a component below 1 holds no
    obstruction and is skipped unvisited.  Inside each other component, the
    connected subsets grow one size at a time, each by one undirected
    neighbour, so all smaller hits are known when a subset is reached: a hit
    is not extended, and a subset containing one is not visited.

    A visited subset whose members each have a successor and a predecessor
    inside it (necessary for irreducibility) is a hit when ``_block_tag``
    says it is not ``BELOW_ONE``, a verdict exact for any nonnegative block
    (the leading principal minors of the Z-matrix I - B are all positive iff
    it is a nonsingular M-matrix, i.e. rho(B) < 1; Berman & Plemmons, ch. 6).
    Every hit is irreducible: were a reached S reducible with rho(S) >= 1,
    the strongly connected block of S carrying rho(S) would be a smaller
    connected subset of the same component within the cap, so it, or a hit
    inside it, was found first and S was never reached.  Hits are listed by
    size, then in ``itertools.combinations`` order of the tracked classes.
    """
    if subset_cap < 1:
        raise PreconditionError("subset cap must be at least 1")
    tracked = [c.id for c in table.classes if all(x.target != UNTRACKED for x in c.pullback)]
    matrix = thurston_matrix(table, tracked)
    profile = spectral_profile(matrix)
    succ = profile.support  # support digraph on the tracked classes
    pred = [sum(1 << u for u, row in enumerate(succ) if row >> v & 1) for v in range(len(succ))]
    limit = min(subset_cap, len(tracked))
    hits: list[tuple[int, ...]] = []  # positions in ``tracked``
    for comp, tag in zip(profile.structure.blocks(), profile.block_tags):
        if tag is SpectralTag.BELOW_ONE:
            continue
        members = sum(1 << v for v in comp)
        nbr = {v: (succ[v] | pred[v]) & members & ~(1 << v) for v in comp}
        level = {1 << v: nbr[v] for v in comp}  # subset -> its neighbours' mask
        found: list[int] = []
        for size in range(1, limit + 1):
            grow: dict[int, int] = {}
            for sub, near in level.items():
                if any(f & sub == f for f in found):
                    continue  # holds a smaller hit, all of which are known by now
                idx = list(_bits(sub))
                if all(succ[v] & sub and pred[v] & sub for v in idx) and (
                    _block_tag(matrix, idx) is not SpectralTag.BELOW_ONE
                ):
                    found.append(sub)
                    hits.append(tuple(idx))
                elif size < limit:
                    for v in _bits(near & ~sub):
                        if sub | 1 << v not in grow:
                            grow[sub | 1 << v] = near | nbr[v]
            level = grow
    # no hit contains another, since no superset of a hit is visited
    hits.sort(key=lambda h: (len(h), h))
    return MinimalObstructionSearch(
        multicurves=tuple(tuple(tracked[v] for v in h) for h in hits),
        truncated=len(tracked) > subset_cap,
        subset_cap=subset_cap,
    )


@record
class ObstructionReport:
    """Full analysis of one multicurve plus table-wide searches."""

    curve_order: tuple[str, ...]
    matrix: NonnegMatrix
    spectral: SpectralClass
    is_obstruction: bool
    invariant: Optional[bool]
    completely_invariant: Optional[bool]
    simple_certificate: Optional[tuple[Fraction, ...]]
    simple_core: Optional[tuple[str, ...]]
    levy_cycles: tuple[tuple[str, ...], ...]
    minimal: MinimalObstructionSearch


def analyze_table(
    table: CurveTable,
    curves: Optional[Sequence[str]] = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> ObstructionReport:
    """Assemble every verdict the table supports about one multicurve."""
    order = curve_order(table, curves)
    matrix = thurston_matrix(table, order)
    spectral = spectral_radius_class(matrix)
    obstruction = spectral.tag is not SpectralTag.BELOW_ONE
    return ObstructionReport(
        curve_order=order,
        matrix=matrix,
        spectral=spectral,
        is_obstruction=obstruction,
        invariant=is_invariant(table, order),
        completely_invariant=is_completely_invariant(table, order),
        simple_certificate=exists_positive_subinvariant_vector(matrix),
        simple_core=_outside_below_one_closure(order, matrix) if obstruction else None,
        levy_cycles=find_levy_cycles(table),
        minimal=find_minimal_obstructions(table, subset_cap),
    )


# ---------------------------------------------------------------------------
# canonical-candidate checking


@record
class ReturnHomeomorphism:
    pass


@record
class Return2222:
    """First-return map of torus-quotient type: its homology action, plus an
    optional curve table describing the obstructions visible inside it."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    table: Optional[CurveTable] = None


@record
class ReturnGeneral:
    table: CurveTable


FirstReturn = Union[ReturnHomeomorphism, Return2222, ReturnGeneral]


@record
class DecompositionComponent:
    marked_points: int
    first_return: FirstReturn


@record
class ComponentVerdict:
    index: int
    kind: str
    passed: bool
    reasons: tuple[str, ...]


@record
class CanonicalCandidateReport:
    accepted: bool
    preconditions: tuple[str, ...]
    components: tuple[ComponentVerdict, ...]
    note: str
    truncated: bool = False
    simple_certificate: Optional[tuple[Fraction, ...]] = None
    completely_invariant: Optional[bool] = None


_RELATIVE_NOTE = (
    "certified relative to the supplied component data; obstructions outside "
    "the listed tables are not ruled out"
)


def _check_2222_component(
    comp: DecompositionComponent, ret: Return2222, subset_cap: int
) -> tuple[bool, list[str]]:
    if comp.marked_points != 4:
        raise PreconditionError(
            "torus-quotient components must declare exactly four marked points"
        )
    tmap = normalize(ret.matrix)
    reasons = []
    ok = True
    cls = eigenvalue_classification(tmap)
    if isinstance(cls, TwoDistinctIntegers):
        ok = False
        reasons.append(
            f"homology action {tmap} has distinct integer eigenvalues "
            f"{cls.d1} and {cls.d2}: the return map carries a degenerating curve"
        )
    else:
        reasons.append(
            f"homology action {tmap} has equal or non-integer eigenvalues"
        )
    if ret.table is not None:
        # The union of two simple obstructions is simple (pad each certificate
        # with zeros and add), so the curves lying in some simple obstruction
        # are those outside the below-one closure, and together they form one.
        ids = ret.table.class_ids()[:subset_cap]
        union = list(_outside_below_one_closure(ids, thurston_matrix(ret.table, ids)))
        for cid in union:
            row = ret.table.row(cid)
            if row.partition is None:
                raise PreconditionError(
                    f"curve {cid!r} sits in a simple obstruction of a "
                    "torus-quotient component but carries no marked-point partition"
                )
            side_a, side_b = row.partition
            if len(side_a) != 2 or len(side_b) != 2:
                ok = False
                reasons.append(
                    f"curve {cid!r} of simple obstruction {union} does not "
                    "separate the marked points two and two"
                )
    return ok, reasons


def _check_general_component(ret: ReturnGeneral) -> tuple[bool, list[str]]:
    # the full class list bounds every sub-multicurve's eigenvalue, so one
    # spectral test certifies the absence of obstructions in the table
    if spectral_tag(thurston_matrix(ret.table, None)) is SpectralTag.BELOW_ONE:
        return True, ["no multicurve of the supplied table is an obstruction"]
    reasons = ["the supplied table carries a Thurston obstruction"]
    levy = find_levy_cycles(ret.table)
    if levy:
        reasons.append(f"Levy cycles present: {[list(c) for c in levy]}")
    return False, reasons


def check_canonical_candidate(
    table: CurveTable,
    curves: Sequence[str],
    decomposition: Sequence[DecompositionComponent],
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> CanonicalCandidateReport:
    """Check a candidate multicurve against the canonical-obstruction criteria.

    The candidate must be a simple, completely invariant obstruction; each
    periodic component of the pinched sphere must then have an unobstructed
    first-return map, witnessed per component type: equal-or-non-integer
    eigenvalues (and two-by-two separating obstruction curves) for
    torus-quotient returns, no obstruction in the supplied table for
    general returns, and vacuous acceptance for homeomorphism returns.
    A torus-quotient table is read up to its first ``subset_cap`` declared
    classes; a longer one marks the report truncated.
    """
    if subset_cap < 1:
        raise PreconditionError("subset cap must be at least 1")
    order = curve_order(table, curves)
    if not order:
        raise PreconditionError("the candidate multicurve is empty")
    if not decomposition:
        raise PreconditionError("at least one periodic component descriptor is required")
    preconditions = []
    certificate = is_simple_obstruction(table, order)
    if certificate is None:
        preconditions.append("the candidate is not a simple obstruction")
    invariant = is_completely_invariant(table, order)
    if invariant is None:
        preconditions.append(
            "complete invariance is unknown: rows contain untracked components"
        )
    elif not invariant:
        preconditions.append("the candidate is not completely invariant")
    verdicts: list[ComponentVerdict] = []
    truncated = False
    if not preconditions:
        for idx, comp in enumerate(decomposition):
            ret = comp.first_return
            if isinstance(ret, ReturnHomeomorphism):
                kind, ok, reasons = "homeomorphism", True, [
                    "homeomorphism return maps are accepted vacuously; no finite "
                    "certificate is available from table data"
                ]
            elif isinstance(ret, Return2222):
                if ret.table is not None and len(ret.table.classes) > subset_cap:
                    truncated = True
                kind, (ok, reasons) = "2222", _check_2222_component(comp, ret, subset_cap)
            elif isinstance(ret, ReturnGeneral):
                kind, (ok, reasons) = "general", _check_general_component(ret)
            else:  # pragma: no cover - closed union
                raise TypeError(f"unknown first-return descriptor {ret!r}")
            verdicts.append(
                ComponentVerdict(index=idx, kind=kind, passed=ok, reasons=tuple(reasons))
            )
    return CanonicalCandidateReport(
        accepted=not preconditions and all(v.passed for v in verdicts),
        preconditions=tuple(preconditions),
        components=tuple(verdicts),
        note=_RELATIVE_NOTE,
        truncated=truncated,
        simple_certificate=certificate,
        completely_invariant=invariant,
    )
