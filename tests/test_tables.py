import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    levy_cycles_by_path_search,
    minimal_obstructions_by_exhaustion,
    minimal_obstructions_by_subsets,
    simple_by_exhaustion,
    simple_obstructions_by_subsets,
    thurston_matrix_by_fraction_sums,
)
from thurston_obstruct import (
    INESSENTIAL,
    UNTRACKED,
    CurveClass,
    CurveTable,
    DecompositionComponent,
    MinimalObstructionSearch,
    NonnegMatrix,
    PreconditionError,
    PullbackComponent,
    Return2222,
    ReturnGeneral,
    ReturnHomeomorphism,
    SpectralTag,
    analyze_table,
    below_one_closed_indices,
    check_canonical_candidate,
    classify_multicurve,
    extract_simple_core,
    find_levy_cycles,
    find_minimal_obstructions,
    is_completely_invariant,
    is_invariant,
    is_simple_obstruction,
    spectral_radius_class,
    thurston_matrix,
)
from thurston_obstruct import tables

F = Fraction


def levy_two_cycle():
    return CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g1", (PullbackComponent(1, "g2"),)),
            CurveClass("g2", (PullbackComponent(1, "g1"),)),
        ),
    )


def half_block_table():
    # matrix [[1/2, 0], [1, 1]] over (g1, g2)
    return CurveTable(
        map_degree=3,
        classes=(
            CurveClass("g1", (PullbackComponent(2, "g1"), PullbackComponent(1, "g2"))),
            CurveClass("g2", (PullbackComponent(1, "g2"),)),
        ),
    )


def test_matrix_examples():
    triple = CurveTable(
        map_degree=6,
        classes=(
            CurveClass(
                "g",
                (
                    PullbackComponent(2, "g"),
                    PullbackComponent(2, "g"),
                    PullbackComponent(2, "g"),
                ),
            ),
        ),
    )
    assert thurston_matrix(triple).rows == ((F(3, 2),),)
    lone = CurveTable(
        map_degree=2,
        classes=(CurveClass("g", (PullbackComponent(2, INESSENTIAL),)),),
    )
    assert thurston_matrix(lone).rows == ((F(0),),)
    assert thurston_matrix(levy_two_cycle()).rows == ((F(0), F(1)), (F(1), F(0)))


def test_matrix_unknown_class():
    with pytest.raises(PreconditionError):
        thurston_matrix(levy_two_cycle(), ["g1", "nope"])
    with pytest.raises(PreconditionError, match="^unknown curve class 'nope'$"):
        levy_two_cycle().row("nope")


def test_submatrix_consistency():
    table = half_block_table()
    full = thurston_matrix(table)
    only_g2 = thurston_matrix(table, ["g2"])
    assert only_g2.rows == full.submatrix([1]).rows


def test_invariance_examples():
    table = levy_two_cycle()
    assert is_invariant(table, ["g1", "g2"]) is True
    assert is_completely_invariant(table, ["g1", "g2"]) is True
    assert is_invariant(table, ["g1"]) is False
    selfmap = CurveTable(
        map_degree=3,
        classes=(
            CurveClass(
                "g", (PullbackComponent(2, "g"), PullbackComponent(1, INESSENTIAL))
            ),
        ),
    )
    assert is_invariant(selfmap, ["g"]) is True


def test_invariance_unknown_with_untracked():
    table = CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g", (PullbackComponent(1, "g"), PullbackComponent(1, UNTRACKED))),
        ),
    )
    assert is_invariant(table, ["g"]) is None
    assert is_completely_invariant(table, ["g"]) is None


def test_classification_examples():
    triple = CurveTable(
        map_degree=6,
        classes=(
            CurveClass("g", tuple(PullbackComponent(2, "g") for _ in range(3))),
        ),
    )
    assert classify_multicurve(triple, ["g"]).spectral.tag is SpectralTag.ABOVE_ONE
    assert classify_multicurve(triple, ["g"]).is_obstruction
    two_thirds = CurveTable(
        map_degree=6,
        classes=(
            CurveClass("g", (PullbackComponent(3, "g"), PullbackComponent(3, "g"))),
        ),
    )
    assert classify_multicurve(two_thirds, ["g"]).spectral.tag is SpectralTag.BELOW_ONE
    assert not classify_multicurve(two_thirds, ["g"]).is_obstruction
    levy = classify_multicurve(levy_two_cycle(), ["g1", "g2"])
    assert levy.spectral.tag is SpectralTag.EXACTLY_ONE
    assert levy.is_obstruction


def test_simple_certificates():
    assert is_simple_obstruction(levy_two_cycle(), ["g1", "g2"]) == (F(1), F(1))
    assert is_simple_obstruction(half_block_table(), ["g1", "g2"]) is None


def test_extract_simple_core():
    assert extract_simple_core(half_block_table(), ["g1", "g2"]) == ("g2",)
    assert extract_simple_core(levy_two_cycle(), ["g1", "g2"]) == ("g1", "g2")
    chain = CurveTable(
        map_degree=4,
        classes=(
            CurveClass("a", (PullbackComponent(2, "a"), PullbackComponent(1, "b"))),
            CurveClass("b", (PullbackComponent(2, "b"), PullbackComponent(1, "c"))),
            CurveClass("c", (PullbackComponent(1, "c"), PullbackComponent(1, "c"))),
        ),
    )
    assert extract_simple_core(chain, ["a", "b", "c"]) == ("c",)
    with pytest.raises(PreconditionError):
        extract_simple_core(
            CurveTable(
                map_degree=2,
                classes=(CurveClass("g", (PullbackComponent(2, "g"),)),),
            ),
            ["g"],
        )


def test_core_preserves_spectral_class():
    table = half_block_table()
    full = spectral_radius_class(thurston_matrix(table))
    core = extract_simple_core(table, None)
    core_class = spectral_radius_class(thurston_matrix(table, core))
    assert core_class.tag is full.tag
    assert is_simple_obstruction(table, core) is not None


def test_core_preserves_leading_eigenvalue_on_random_tables():
    from thurston_obstruct import leading_eigenvalue_interval

    rng = random.Random(67)
    width = F(1, 10**9)
    checked = 0
    while checked < 20:
        table = _random_table(rng, allow_untracked=False)
        matrix = thurston_matrix(table)
        if spectral_radius_class(matrix).tag is SpectralTag.BELOW_ONE:
            continue
        checked += 1
        core = extract_simple_core(table, None)
        lo, hi = leading_eigenvalue_interval(matrix, width)
        clo, chi = leading_eigenvalue_interval(thurston_matrix(table, core), width)
        assert max(lo, clo) <= min(hi, chi), "core changed the leading eigenvalue"


def test_levy_cycles():
    assert find_levy_cycles(levy_two_cycle()) == (("g1", "g2"),)
    deg2 = CurveTable(
        map_degree=2,
        classes=(CurveClass("g", (PullbackComponent(2, "g"),)),),
    )
    assert find_levy_cycles(deg2) == ()
    fixed = CurveTable(
        map_degree=2,
        classes=(CurveClass("g", (PullbackComponent(1, "g"),)),),
    )
    assert find_levy_cycles(fixed) == (("g",),)


def test_levy_cycles_are_obstructions():
    rng = random.Random(17)
    for _ in range(40):
        table = _random_table(rng)
        for cycle in find_levy_cycles(table):
            cls = classify_multicurve(table, list(cycle))
            assert cls.is_obstruction


@st.composite
def curve_tables(draw, max_classes=11):
    """Up to ``max_classes`` classes with inessential and untracked targets,
    self-loops, and a planted cycle of degree-1 components."""
    ids = [f"c{i}" for i in range(draw(st.integers(1, max_classes)))]
    degree = draw(st.integers(2, 5))
    rows = {cid: [] for cid in ids}
    cycle = draw(st.lists(st.sampled_from(ids), unique=True))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[a].append(PullbackComponent(1, b))
    for cid in ids:
        budget = degree - len(rows[cid])
        for _ in range(draw(st.integers(0, 3))):
            if budget == 0:
                break
            d = draw(st.integers(1, budget))
            budget -= d
            # the row's own class is listed twice to draw more self-loops
            target = draw(st.sampled_from(ids + [cid, INESSENTIAL, UNTRACKED]))
            rows[cid].append(PullbackComponent(d, target))
    return CurveTable(degree, tuple(CurveClass(cid, tuple(rows[cid])) for cid in ids))


@st.composite
def shared_factor_tables(draw, max_classes=6):
    """Map degree 12, 24 or 36 and component degrees among its divisors, so
    the degrees of one row or one matrix share factors."""
    ids = [f"c{i}" for i in range(draw(st.integers(1, max_classes)))]
    map_degree = draw(st.sampled_from((12, 24, 36)))
    divisors = [d for d in range(1, map_degree + 1) if map_degree % d == 0]
    rows = []
    for cid in ids:
        budget, row = map_degree, []
        for _ in range(draw(st.integers(0, 5))):
            d = draw(st.sampled_from([d for d in divisors if d <= budget] or [0]))
            if not d:
                break
            budget -= d
            row.append(PullbackComponent(d, draw(st.sampled_from(ids + [INESSENTIAL, UNTRACKED]))))
        rows.append(CurveClass(cid, tuple(row)))
    return CurveTable(map_degree, tuple(rows))


@given(shared_factor_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_thurston_matrix_matches_fraction_sums(table, data):
    ids = table.class_ids()
    curves = data.draw(st.none() | st.lists(st.sampled_from(ids), unique=True), label="curves")
    m = thurston_matrix(table, curves)
    expected = NonnegMatrix(thurston_matrix_by_fraction_sums(table, curves))
    assert (m.scale, m.ints) == (expected.scale, expected.ints)
    assert m.rows == expected.rows


@given(curve_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_minimal_obstructions_match_subset_oracle(table, data):
    cap = data.draw(st.integers(1, len(table.classes) + 1))
    assert find_minimal_obstructions(table, cap) == minimal_obstructions_by_subsets(table, cap)


@given(curve_tables(max_classes=8))
@settings(max_examples=150, deadline=None)
def test_levy_cycles_match_path_search(table):
    assert find_levy_cycles(table) == levy_cycles_by_path_search(table)


def _indexed_table(n, rows, map_degree) -> CurveTable:
    """Classes c0..c(n-1); ``rows(i)`` lists the (degree, target index) pairs of ci."""
    return CurveTable(
        map_degree,
        tuple(
            CurveClass(f"c{i}", tuple(PullbackComponent(d, f"c{t % n}") for d, t in rows(i)))
            for i in range(n)
        ),
    )


def _timed_minimal_search(table, cap):
    start = time.perf_counter()
    result = find_minimal_obstructions(table, cap)
    return result, time.perf_counter() - start


def test_minimal_search_on_a_sparse_20_class_ring():
    # a degree-1 ring with a half loop at c0: one strongly connected block
    # above 1 whose only obstruction is the whole ring, among 381 connected
    # subsets and about a million subsets
    ring = _indexed_table(20, lambda i: [(1, i + 1)] + [(2, 0)] * (i == 0), 3)
    result, elapsed = _timed_minimal_search(ring, 20)
    assert result == MinimalObstructionSearch((tuple(f"c{i}" for i in range(20)),), False, 20)
    assert elapsed < 5


def test_minimal_search_on_a_dense_20_class_chain_of_blocks():
    # four blocks of five classes, each joined to all of its block (degree 4),
    # to itself (degree 8) and to all of the next block (degree 8): every block
    # has rho 9/8 and its proper subsets at most 7/8
    def rows(i):
        base = i - i % 5
        inside = [(4, base + k) for k in range(5) if base + k != i] + [(8, i)]
        return inside + ([(8, base + 5 + k) for k in range(5)] if base < 15 else [])

    result, elapsed = _timed_minimal_search(_indexed_table(20, rows, 64), 20)
    blocks = tuple(tuple(f"c{b + k}" for k in range(5)) for b in range(0, 20, 5))
    assert result == MinimalObstructionSearch(blocks, False, 20)
    assert elapsed < 5


def test_minimal_search_skips_a_block_below_one(monkeypatch):
    # complete on 12 classes with every entry 1/16: rho is 3/4
    table = _indexed_table(12, lambda i: [(16, k) for k in range(12)], 192)
    calls = []
    real = tables._block_tag
    monkeypatch.setattr(tables, "_block_tag", lambda rows, idx: calls.append(idx) or real(rows, idx))
    assert find_minimal_obstructions(table, 12) == MinimalObstructionSearch((), False, 12)
    assert calls == []


def test_levy_search_on_a_layered_acyclic_table():
    # 15 layers of 4 classes, each with degree-1 components on three classes
    # of the next layer: 3^14 paths from each class of the first layer, no cycle
    width, layers = 4, 15
    table = CurveTable(
        3,
        tuple(
            CurveClass(
                f"l{layer}_{k}",
                tuple(
                    PullbackComponent(1, f"l{layer + 1}_{(k + j) % width}")
                    for j in range(3 if layer + 1 < layers else 0)
                ),
            )
            for layer in range(layers)
            for k in range(width)
        ),
    )
    start = time.perf_counter()
    assert find_levy_cycles(table) == ()
    assert time.perf_counter() - start < 1


def test_minimal_obstructions_examples():
    assert find_minimal_obstructions(levy_two_cycle()).multicurves == (("g1", "g2"),)
    triple = CurveTable(
        map_degree=6,
        classes=(CurveClass("g", tuple(PullbackComponent(2, "g") for _ in range(3))),),
    )
    assert find_minimal_obstructions(triple).multicurves == (("g",),)
    assert find_minimal_obstructions(half_block_table()).multicurves == (("g2",),)


def test_minimal_obstructions_match_exhaustion():
    rng = random.Random(41)
    for _ in range(30):
        table = _random_table(rng, allow_untracked=False)
        ids = table.class_ids()
        matrix = thurston_matrix(table)
        expected = {
            tuple(ids[i] for i in subset)
            for subset in minimal_obstructions_by_exhaustion(matrix)
        }
        got = set(find_minimal_obstructions(table).multicurves)
        assert got == expected


def test_minimal_obstructions_are_simple():
    rng = random.Random(43)
    for _ in range(30):
        table = _random_table(rng, allow_untracked=False)
        for curves in find_minimal_obstructions(table).multicurves:
            assert is_simple_obstruction(table, list(curves)) is not None


def test_union_of_disjoint_simple_obstructions_is_simple():
    table = CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g1", (PullbackComponent(1, "g1"),)),
            CurveClass("g2", (PullbackComponent(1, "g2"),)),
        ),
    )
    assert is_simple_obstruction(table, ["g1"]) is not None
    assert is_simple_obstruction(table, ["g2"]) is not None
    assert is_simple_obstruction(table, ["g1", "g2"]) is not None


def test_subset_cap_truncates():
    table = levy_two_cycle()
    res = find_minimal_obstructions(table, subset_cap=1)
    assert res.truncated
    assert res.multicurves == ()


def _random_table(rng, max_classes=4, allow_untracked=True) -> CurveTable:
    n = rng.randint(1, max_classes)
    ids = [f"c{i}" for i in range(n)]
    degree = rng.randint(2, 5)
    classes = []
    for cid in ids:
        comps = []
        budget = degree
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(1, max(1, budget))
            if d > budget:
                break
            budget -= d
            roll = rng.random()
            if roll < 0.15:
                target = INESSENTIAL
            elif allow_untracked and roll < 0.2:
                target = UNTRACKED
            else:
                target = rng.choice(ids)
            comps.append(PullbackComponent(d, target))
        classes.append(CurveClass(cid, tuple(comps)))
    return CurveTable(map_degree=degree, classes=tuple(classes))


def test_random_tables_simple_matches_exhaustion():
    rng = random.Random(59)
    for _ in range(40):
        table = _random_table(rng)
        ids = list(table.class_ids())
        curves = [cid for cid in ids if rng.random() < 0.8] or ids
        matrix = thurston_matrix(table, curves)
        assert (is_simple_obstruction(table, curves) is not None) == simple_by_exhaustion(
            matrix
        )


# ---------------------------------------------------------------------------
# canonical candidate checking


def marked_four_table(partition_sizes=(2, 2)):
    a, b = partition_sizes
    marked = ("p1", "p2", "p3", "p4")
    return CurveTable(
        map_degree=2,
        marked_points=marked,
        classes=(
            CurveClass(
                "g",
                (PullbackComponent(1, "g"),),
                partition=(frozenset(marked[:a]), frozenset(marked[a:])),
            ),
        ),
    )


def test_candidate_rejects_distinct_integer_component():
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (DecompositionComponent(4, Return2222(((2, 0), (0, 3)))),),
    )
    assert not report.accepted
    assert not report.components[0].passed


def test_candidate_accepts_all_shear():
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (
            DecompositionComponent(4, Return2222(((2, 2), (0, 2)))),
            DecompositionComponent(4, Return2222(((3, 3), (0, 3)))),
            DecompositionComponent(3, ReturnHomeomorphism()),
        ),
    )
    assert report.accepted
    assert all(v.passed for v in report.components)


def test_candidate_rejects_obstructed_general_component():
    inner = CurveTable(
        map_degree=2,
        classes=(CurveClass("h", (PullbackComponent(1, "h"),)),),
    )
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (DecompositionComponent(5, ReturnGeneral(inner)),),
    )
    assert not report.accepted
    assert "Levy" in " ".join(report.components[0].reasons)


def test_candidate_accepts_unobstructed_general_component():
    inner = CurveTable(
        map_degree=2,
        classes=(CurveClass("h", (PullbackComponent(2, "h"),)),),
    )
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (DecompositionComponent(5, ReturnGeneral(inner)),),
    )
    assert report.accepted


def test_candidate_requires_simple_completely_invariant():
    report = check_canonical_candidate(
        half_block_table(),
        ["g1", "g2"],
        (DecompositionComponent(3, ReturnHomeomorphism()),),
    )
    assert not report.accepted
    assert any("simple" in msg for msg in report.preconditions)
    # non-invariant candidate: a single curve of the Levy two-cycle
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1"],
        (DecompositionComponent(3, ReturnHomeomorphism()),),
    )
    assert not report.accepted
    assert any("invariant" in msg for msg in report.preconditions)
    # an untracked component in a row: simple, but complete invariance is undecided
    untracked = CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g1", (PullbackComponent(1, "g2"), PullbackComponent(1, UNTRACKED))),
            CurveClass("g2", (PullbackComponent(1, "g1"),)),
        ),
    )
    report = check_canonical_candidate(
        untracked,
        ["g1", "g2"],
        (DecompositionComponent(3, ReturnHomeomorphism()),),
    )
    assert not report.accepted and report.components == ()
    assert report.preconditions == (
        "complete invariance is unknown: rows contain untracked components",
    )


def test_candidate_2222_partition_checks():
    good = marked_four_table((2, 2))
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (DecompositionComponent(4, Return2222(((2, 2), (0, 2)), table=good)),),
    )
    assert report.accepted
    # missing partition data raises
    missing = CurveTable(
        map_degree=2,
        classes=(CurveClass("g", (PullbackComponent(1, "g"),)),),
    )
    with pytest.raises(PreconditionError):
        check_canonical_candidate(
            levy_two_cycle(),
            ["g1", "g2"],
            (DecompositionComponent(4, Return2222(((2, 2), (0, 2)), table=missing)),),
        )


def test_candidate_2222_rejects_unbalanced_partition():
    # the component table marks six points; a 2-versus-4 split fails the
    # two-points-per-side requirement on simple obstruction curves
    marked = ("p1", "p2", "p3", "p4", "p5", "p6")
    unbalanced = CurveTable(
        map_degree=2,
        marked_points=marked,
        classes=(
            CurveClass(
                "g",
                (PullbackComponent(1, "g"),),
                partition=(frozenset(marked[:2]), frozenset(marked[2:])),
            ),
        ),
    )
    report = check_canonical_candidate(
        levy_two_cycle(),
        ["g1", "g2"],
        (DecompositionComponent(4, Return2222(((2, 2), (0, 2)), table=unbalanced)),),
    )
    assert not report.accepted
    assert any("two and two" in r for r in report.components[0].reasons)


def _two_and_two_reasons(curves, union):
    return tuple(
        f"curve {cid!r} of simple obstruction {list(union)} does not separate "
        "the marked points two and two"
        for cid in curves
    )


def _check_inner(inner, subset_cap=12):
    component = DecompositionComponent(4, Return2222(((2, 2), (0, 2)), table=inner))
    return check_canonical_candidate(levy_two_cycle(), ["g1", "g2"], (component,), subset_cap)


@st.composite
def inner_2222_tables(draw):
    """Up to 8 classes on 4, 5 or 6 marked points (only 4 allows a 2|2 split),
    with inessential and untracked targets and some partitions missing."""
    marked = ("p1", "p2", "p3", "p4", "p5", "p6")[: draw(st.sampled_from([4, 5, 6]))]
    ids = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    degree = draw(st.integers(2, 4))
    classes = []
    for cid in ids:
        comps, budget = [], degree
        for _ in range(draw(st.integers(0, 3))):
            if budget == 0:
                break
            d = draw(st.integers(1, budget))
            budget -= d
            comps.append(PullbackComponent(d, draw(st.sampled_from(ids + [INESSENTIAL, UNTRACKED]))))
        split = draw(st.integers(2, len(marked) - 2))
        partition = (frozenset(marked[:split]), frozenset(marked[split:]))
        classes.append(CurveClass(cid, tuple(comps), None if draw(st.integers(0, 9)) == 0 else partition))
    return CurveTable(map_degree=degree, classes=tuple(classes), marked_points=marked)


@given(inner_2222_tables())
@settings(max_examples=80, deadline=None)
def test_2222_union_matches_subset_oracle(inner):
    ids = inner.class_ids()
    subsets = simple_obstructions_by_subsets(inner, len(ids))
    union = [cid for cid in ids if any(cid in s for s in subsets)]
    closed = below_one_closed_indices(thurston_matrix(inner, None))
    assert union == [cid for k, cid in enumerate(ids) if k not in closed]
    if union:
        assert union in [list(s) for s in subsets]  # the union is simple itself
    if any(inner.row(cid).partition is None for cid in union):
        with pytest.raises(PreconditionError):
            _check_inner(inner)
        return
    bad = [cid for cid in union if sorted(map(len, inner.row(cid).partition)) != [2, 2]]
    report = _check_inner(inner)
    assert report.accepted == (not bad)
    assert report.components[0].reasons[1:] == _two_and_two_reasons(bad, union)
    assert not report.truncated


def test_2222_one_reason_line_per_bad_curve():
    # {a}, {b} and {a, b} are all simple obstructions; each curve is named once
    marked = ("p1", "p2", "p3", "p4", "p5")
    split = (frozenset(marked[:2]), frozenset(marked[2:]))
    inner = CurveTable(
        map_degree=2,
        marked_points=marked,
        classes=(
            CurveClass("a", (PullbackComponent(1, "a"),), partition=split),
            CurveClass("b", (PullbackComponent(1, "b"),), partition=split),
        ),
    )
    report = _check_inner(inner)
    assert not report.accepted
    assert report.components[0].reasons[1:] == _two_and_two_reasons(["a", "b"], ["a", "b"])


def test_capped_2222_check_ignores_curves_beyond_the_cap():
    # 'a' lies in no simple obstruction; 'k' does and splits 2|4
    marked = ("p1", "p2", "p3", "p4", "p5", "p6")
    split = (frozenset(marked[:2]), frozenset(marked[2:]))
    inner = CurveTable(
        map_degree=2,
        marked_points=marked,
        classes=(
            CurveClass("a", (PullbackComponent(1, INESSENTIAL),), partition=split),
            CurveClass("k", (PullbackComponent(1, "k"),), partition=split),
        ),
    )
    full = _check_inner(inner)
    assert not full.accepted and not full.truncated
    assert full.components[0].reasons[1:] == _two_and_two_reasons(["k"], ["k"])
    capped = _check_inner(inner, subset_cap=1)
    assert capped.accepted and capped.truncated
    assert capped.components[0].reasons[1:] == ()


@pytest.mark.parametrize("cap", [0, -3])
def test_candidate_rejects_subset_cap_below_one(cap):
    with pytest.raises(PreconditionError, match="subset cap must be at least 1"):
        check_canonical_candidate(
            levy_two_cycle(),
            ["g1", "g2"],
            (DecompositionComponent(4, Return2222(((2, 2), (0, 2)))),),
            cap,
        )


def test_candidate_2222_wrong_marked_count():
    with pytest.raises(PreconditionError):
        check_canonical_candidate(
            levy_two_cycle(),
            ["g1", "g2"],
            (DecompositionComponent(5, Return2222(((2, 2), (0, 2)))),),
        )


def test_candidate_requires_decomposition():
    with pytest.raises(PreconditionError, match="^at least one periodic component descriptor is required$"):
        check_canonical_candidate(levy_two_cycle(), ["g1", "g2"], ())
    with pytest.raises(PreconditionError, match="^the candidate multicurve is empty$"):
        check_canonical_candidate(
            levy_two_cycle(), [], (DecompositionComponent(3, ReturnHomeomorphism()),)
        )


def test_nested_candidates_never_both_accepted():
    # two disjoint fixed Levy curves; the smaller candidate leaves the other
    # curve alive inside a component, whose table then carries an obstruction
    table = CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g1", (PullbackComponent(1, "g1"),)),
            CurveClass("g2", (PullbackComponent(1, "g2"),)),
        ),
    )
    leftover = CurveTable(
        map_degree=2,
        classes=(CurveClass("g2", (PullbackComponent(1, "g2"),)),),
    )
    small = check_canonical_candidate(
        table,
        ["g1"],
        (DecompositionComponent(5, ReturnGeneral(leftover)),),
    )
    big = check_canonical_candidate(
        table,
        ["g1", "g2"],
        (
            DecompositionComponent(3, ReturnHomeomorphism()),
            DecompositionComponent(3, ReturnHomeomorphism()),
        ),
    )
    assert big.accepted
    assert not small.accepted


def test_analyze_table_report():
    report = analyze_table(levy_two_cycle())
    assert report.is_obstruction
    assert report.spectral.tag is SpectralTag.EXACTLY_ONE
    assert report.simple_certificate == (F(1), F(1))
    assert report.levy_cycles == (("g1", "g2"),)
    assert report.minimal.multicurves == (("g1", "g2"),)
    assert report.simple_core == ("g1", "g2")


def test_table_validation():
    with pytest.raises(PreconditionError):
        CurveTable(map_degree=1, classes=(CurveClass("g", ()),))
    with pytest.raises(PreconditionError):
        CurveTable(
            map_degree=2,
            classes=(CurveClass("g", (PullbackComponent(1, "zzz"),)),),
        )
    with pytest.raises(PreconditionError):
        CurveTable(
            map_degree=2,
            classes=(
                CurveClass(
                    "g",
                    (PullbackComponent(2, "g"), PullbackComponent(1, "g")),
                ),
            ),
        )
    with pytest.raises(PreconditionError):
        CurveTable(
            map_degree=2,
            marked_points=("a", "b", "c", "d"),
            classes=(
                CurveClass(
                    "g",
                    (PullbackComponent(1, "g"),),
                    partition=(frozenset({"a"}), frozenset({"b", "c", "d"})),
                ),
            ),
        )
