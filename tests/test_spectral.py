import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    DeflatingRootIsolator,
    FractionRootIsolator,
    block_tags_by_elimination,
    charpoly_by_whole_berkowitz,
    charpoly_faddeev_leverrier,
    cleared_by_lcm,
    cyclic_structure_by_single_steps,
    decomposition_exponent_by_rational_powers,
    determinant_by_elimination,
    evaluate,
    eye_minus_cleared,
    imprimitive_decomposition_by_whole_power,
    imprimitivity_by_cycles,
    int_mul_by_entries,
    kernel_vector,
    matrix_powers_by_fraction_products,
    power_positive_exponent_by_rational_powers,
    roots_strictly_above,
    scc_blocks_by_dfs,
    simple_by_exhaustion,
    sturm_tag,
    subinvariant_by_eliminations,
    subinvariant_by_fraction_inflow,
    subinvariant_by_fraction_solves,
)
import thurston_obstruct
from thurston_obstruct import (
    NonnegMatrix,
    PreconditionError,
    SpectralClass,
    SpectralTag,
    below_one_closed_indices,
    charpoly,
    exists_positive_subinvariant_vector,
    imprimitive_block_decomposition,
    imprimitivity_index,
    is_irreducible,
    is_primitive,
    leading_eigenvalue_interval,
    power_positive_exponent,
    scc_partition,
    spectral_radius_class,
    spectral_tag,
    wielandt_bound,
)
from thurston_obstruct import spectral as spectral_module
from thurston_obstruct.polynomials import LargestRootIsolator
from thurston_obstruct.spectral import (
    _back_substitute,
    _bareiss,
    _block_tag,
    _berkowitz,
    _bool_mul,
    _bounds_bracket,
    _cyclic_structure,
    _eliminate,
    _int_mul,
    _leading_root_isolator,
    _row_sum_tag,
    cyclic_classes,
    spectral_profile,
)

F = Fraction

ENTRY_POOL = [F(0), F(0), F(0), F(1), F(2), F(1, 2), F(1, 3), F(3, 2)]

entries = st.sampled_from(ENTRY_POOL)


@st.composite
def matrices(draw, max_n=5, min_n=1, entries=entries):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return NonnegMatrix(rows)


@st.composite
def row_stochastic(draw, n, scale=F(1), high=3):
    """Rows summing to ``scale``: the leading eigenvalue is exactly ``scale``.
    Weights up to ``high`` give each row a denominator of its own."""
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, high), min_size=n, max_size=n).filter(any))
        total = sum(weights)
        rows.append([scale * F(w, total) for w in weights])
    return rows


@st.composite
def spectral_block(draw, n):
    if n == 1 and draw(st.booleans()):
        return [[F(0)]]
    kind = draw(st.sampled_from(["entries", "stochastic", "scaled"]))
    if kind == "entries":
        return [[draw(entries) for _ in range(n)] for _ in range(n)]
    scale = F(1) if kind == "stochastic" else draw(st.sampled_from(ENTRY_POOL[4:] + [F(9, 10)]))
    return draw(row_stochastic(n, scale))


@st.composite
def mixed_block_matrices(draw, max_n=9):
    """Reducible matrices: blocks below, at and above 1 (1x1 zero blocks
    included) on the diagonal, random entries under it, then a random
    simultaneous permutation of rows and columns."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    while sum(sizes) > max_n:
        sizes.pop()
    n = sum(sizes)
    rows = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = draw(spectral_block(size))
        for i in range(size):
            rows[start + i][start : start + size] = block[i]
            rows[start + i][:start] = [draw(entries) for _ in range(start)]
        start += size
    perm = draw(st.permutations(range(n)))
    return NonnegMatrix([[rows[i][j] for j in perm] for i in perm])


@st.composite
def shaped_matrices(draw, min_n=1, max_n=7):
    """General, constant-row-sum (rho rational), triangular (rational
    eigenvalues on the diagonal) and strictly triangular (nilpotent) matrices."""
    n = draw(st.integers(min_n, max_n))
    shape = draw(st.sampled_from(("general", "row_sum", "triangular", "strict")))
    if shape == "row_sum" and n:
        scale = draw(st.sampled_from((F(1, 2), F(1), F(3, 2), F(2), F(5, 3))))
        return NonnegMatrix(draw(row_stochastic(n, scale)))
    cut = {"general": n, "triangular": 1, "strict": 0}.get(shape, n)
    return NonnegMatrix([[draw(entries) if j < i + cut else 0 for j in range(n)] for i in range(n)])


spectral_matrices = st.one_of(
    matrices(max_n=9),
    st.integers(1, 9).flatmap(row_stochastic).map(NonnegMatrix),
    mixed_block_matrices(),
)


# ---------------------------------------------------------------------------
# characteristic polynomial


@given(spectral_matrices)
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_faddeev_leverrier_oracle(m):
    assert charpoly(m) == charpoly_faddeev_leverrier(m)


@given(matrices(max_n=5), st.integers(-7, 7), st.integers(1, 5))
def test_charpoly_matches_determinant(m, num, den):
    t = F(num, den)
    p = charpoly(m)
    shifted = [
        [t * (1 if i == j else 0) - m.rows[i][j] for j in range(m.n)] for i in range(m.n)
    ]
    assert evaluate(p, t) == determinant_by_elimination(shifted)


def test_charpoly_empty_matrix():
    assert charpoly(NonnegMatrix([])) == (F(1),)


# ---------------------------------------------------------------------------
# trichotomy and intervals


@given(spectral_matrices)
@settings(max_examples=150, deadline=None)
def test_spectral_tag_matches_sturm_oracle(m):
    expected = sturm_tag(m)
    assert spectral_tag(m) is expected
    assert spectral_radius_class(m).tag is expected


def test_spectral_tag_examples():
    assert spectral_tag(NonnegMatrix([])) is SpectralTag.BELOW_ONE
    assert spectral_tag(NonnegMatrix([[0]])) is SpectralTag.BELOW_ONE
    assert spectral_tag(NonnegMatrix([[1]])) is SpectralTag.EXACTLY_ONE
    # a leading minor vanishes before the last: the 1x1 block [1] sits
    # inside an irreducible block, so rho > 1
    assert spectral_tag(NonnegMatrix([[1, F(1, 2)], [F(1, 2), 0]])) is SpectralTag.ABOVE_ONE
    # det(I - B) > 0 although rho > 1: two eigenvalues above 1 in separate blocks
    m = NonnegMatrix([[2, 0, 0], [1, 3, 0], [0, 1, F(1, 2)]])
    assert spectral_tag(m) is SpectralTag.ABOVE_ONE
    # row-stochastic plus a sub-1 block fed by it
    m = NonnegMatrix([[F(1, 2), F(1, 2), 0], [1, 0, 0], [1, 0, F(1, 3)]])
    assert spectral_tag(m) is SpectralTag.EXACTLY_ONE


def test_spectral_class_examples():
    assert spectral_radius_class(NonnegMatrix([[F(1, 2)]])).tag is SpectralTag.BELOW_ONE
    assert spectral_radius_class(NonnegMatrix([[0, 1], [1, 0]])).tag is SpectralTag.EXACTLY_ONE
    sc = spectral_radius_class(NonnegMatrix([[0, 2], [1, 0]]))
    assert sc.tag is SpectralTag.ABOVE_ONE
    assert sc.lo > 1
    assert sc.lo * sc.lo <= 2 <= sc.hi * sc.hi


def test_spectral_class_empty():
    sc = spectral_radius_class(NonnegMatrix([]))
    assert sc.tag is SpectralTag.BELOW_ONE


def test_spectral_class_repeated_eigenvalue_one():
    # eigenvalue 1 with algebraic multiplicity two, plus a sub-1 block
    m = NonnegMatrix([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    sc = spectral_radius_class(m)
    assert sc.tag is SpectralTag.EXACTLY_ONE
    assert (sc.lo, sc.hi) == (1, 1)


def test_spectral_class_one_eigenvalue_masked_by_larger():
    # 1 is an eigenvalue but the leading one lies above it
    m = NonnegMatrix([[1, 0], [0, 2]])
    sc = spectral_radius_class(m)
    assert sc.tag is SpectralTag.ABOVE_ONE
    assert sc.lo > 1
    assert sc.lo <= 2 <= sc.hi


def test_interval_examples():
    assert leading_eigenvalue_interval(NonnegMatrix([[2]]), F(1, 100)) == (F(2), F(2))
    lo, hi = leading_eigenvalue_interval(NonnegMatrix([[0, 2], [1, 0]]), F(1, 1000))
    assert hi - lo <= F(1, 1000)
    assert lo * lo <= 2 <= hi * hi
    lo, hi = leading_eigenvalue_interval(NonnegMatrix([[F(3, 2), 0], [0, 1]]), F(1, 10))
    assert lo <= F(3, 2) <= hi


def test_interval_width_floor_is_two_to_the_minus_4096():
    # the bisection's cost grows with the square of the width's digits
    floor = F(1, 2**4096)
    golden = NonnegMatrix([[1, 1], [1, 0]])
    lo, hi = leading_eigenvalue_interval(golden, floor)
    assert 0 < hi - lo <= floor
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1
    for m in (golden, NonnegMatrix([])):
        for width in (F(1, 2**4096 + 1), F(1, 10**4000)):
            with pytest.raises(PreconditionError, match=r"^width must be at least 2\^-4096$"):
                leading_eigenvalue_interval(m, width)


def test_float_widths_are_refused_like_float_entries():
    # before the early answers too: an empty matrix, and rho = 1 decided by the tag
    for m in (NonnegMatrix([[1, 1], [1, 0]]), NonnegMatrix([]), NonnegMatrix([[1]])):
        with pytest.raises(TypeError, match="^floating-point widths are not accepted$"):
            leading_eigenvalue_interval(m, 0.1)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_tag_consistent_with_intervals(m):
    sc = spectral_radius_class(m)
    if sc.tag is SpectralTag.ABOVE_ONE:
        assert sc.lo > 1
    elif sc.tag is SpectralTag.BELOW_ONE:
        assert sc.hi < 1
    else:
        assert (sc.lo, sc.hi) == (1, 1)
    lo, hi = leading_eigenvalue_interval(m, F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    # both brackets contain the same eigenvalue, so they intersect
    assert max(lo, sc.lo) <= min(hi, sc.hi)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_shrinking_widths_never_disjoint(m):
    a = leading_eigenvalue_interval(m, F(1, 10))
    b = leading_eigenvalue_interval(m, F(1, 10**7))
    assert max(a[0], b[0]) <= min(a[1], b[1])


# ---------------------------------------------------------------------------
# block structure


def test_scc_examples():
    bs = scc_partition(NonnegMatrix([[1, 0], [1, 1]]))
    assert bs.permutation == (0, 1)
    assert bs.block_sizes == (1, 1)
    bs = scc_partition(NonnegMatrix([[0, 1], [1, 0]]))
    assert bs.block_sizes == (2,)
    # support edges 1 -> 2 -> 3 with a loop at 3 (0-indexed: 0 -> 1 -> 2, 2 -> 2)
    bs = scc_partition(NonnegMatrix([[0, 2, 0], [0, 0, 1], [0, 0, 3]]))
    assert bs.blocks() == ((2,), (1,), (0,))


def test_scc_empty():
    assert scc_partition(NonnegMatrix([])).block_sizes == ()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_scc_block_lower_triangular(m):
    bs = scc_partition(m)
    perm = bs.permutation
    assert sorted(perm) == list(range(m.n))
    blocks = bs.blocks()
    # entries from an earlier block's rows into a later block's columns vanish
    for bi, rows_blk in enumerate(blocks):
        for bj in range(bi + 1, len(blocks)):
            for i in rows_blk:
                for j in blocks[bj]:
                    assert m.rows[i][j] == 0
    for flag, blk in zip(bs.blocks_irreducible, blocks):
        assert flag == is_irreducible(m.submatrix(list(blk)))


@given(st.one_of(matrices(), shaped_matrices(min_n=0), mixed_block_matrices()))
@settings(max_examples=200, deadline=None)
def test_scc_blocks_match_dfs_oracle(m):
    blocks, irreducible = scc_blocks_by_dfs(m.support())
    bs = scc_partition(m)
    assert bs.blocks() == blocks
    assert bs.blocks_irreducible == irreducible
    assert is_irreducible(m) == (irreducible == (True,))


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_leading_eigenvalue_is_max_over_blocks(m):
    sc = spectral_radius_class(m)
    order = {SpectralTag.BELOW_ONE: 0, SpectralTag.EXACTLY_ONE: 1, SpectralTag.ABOVE_ONE: 2}
    tags = [
        spectral_radius_class(m.submatrix(list(b))).tag for b in scc_partition(m).blocks()
    ]
    assert order[sc.tag] == max(order[t] for t in tags)
    width = F(1, 10**6)
    lo, hi = leading_eigenvalue_interval(m, width)
    block_intervals = [
        leading_eigenvalue_interval(m.submatrix(list(b)), width)
        for b in scc_partition(m).blocks()
    ]
    best_lo = max(a for a, _ in block_intervals)
    best_hi = max(b for _, b in block_intervals)
    assert max(lo, best_lo) <= min(hi, best_hi)


# ---------------------------------------------------------------------------
# irreducibility, primitivity, cyclic structure


def test_irreducibility_examples():
    two_cycle = NonnegMatrix([[0, 1], [1, 0]])
    assert is_irreducible(two_cycle)
    assert imprimitivity_index(two_cycle) == 2
    assert not is_primitive(two_cycle)
    fib = NonnegMatrix([[1, 1], [1, 0]])
    assert is_primitive(fib)
    assert imprimitivity_index(fib) == 1
    assert not is_irreducible(NonnegMatrix([[1, 0], [1, 1]]))
    assert not is_irreducible(NonnegMatrix([[0]]))
    assert is_irreducible(NonnegMatrix([[F(1, 7)]]))


def test_imprimitivity_rejects_reducible():
    with pytest.raises(PreconditionError):
        imprimitivity_index(NonnegMatrix([[1, 0], [1, 1]]))


def _random_irreducible(rng, n, values=(0, 1)):
    while True:
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        m = NonnegMatrix(rows)
        if is_irreducible(m):
            return m


def test_imprimitivity_matches_cycle_gcd():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = _random_irreducible(rng, n)
        assert imprimitivity_index(m) == imprimitivity_by_cycles(m)


CYCLIC_EDGE_CASES = (
    NonnegMatrix([]),
    NonnegMatrix([[0]]),
    NonnegMatrix([[F(1, 3)]]),
    NonnegMatrix([[0, 2], [1, 0]]),
    NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    NonnegMatrix([[1, 1], [0, 1]]),
    NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]]),  # primitive, Wielandt's extremal case
)


def test_power_positive_examples():
    assert power_positive_exponent(NonnegMatrix([[1]])) == 1
    assert power_positive_exponent(NonnegMatrix([[1, 1], [1, 0]])) == 2
    assert power_positive_exponent(NonnegMatrix([[1, 0], [0, 1]])) is None
    for m in CYCLIC_EDGE_CASES:
        k = power_positive_exponent(NonnegMatrix(m.rows))
        for cap in range(1, wielandt_bound(m.n) + 3):
            expected = power_positive_exponent_by_rational_powers(m, cap)
            assert (k if k is not None and k <= cap else None) == expected, (m, cap)


def test_wielandt_bound_on_primitive_samples():
    rng = random.Random(11)
    seen = 0
    while seen < 60:
        n = rng.randint(2, 6)
        m = _random_irreducible(rng, n)
        if not is_primitive(m):
            continue
        seen += 1
        k = power_positive_exponent(m)
        assert k is not None and k <= wielandt_bound(n)


def test_imprimitive_decomposition_examples():
    dec = imprimitive_block_decomposition(NonnegMatrix([[0, 2], [1, 0]]))
    assert dec.exponent == 2
    assert dec.block_sizes == (1, 1)
    assert [b.rows for b in dec.blocks] == [((F(2),),), ((F(2),),)]
    cyc3 = NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    dec3 = imprimitive_block_decomposition(cyc3)
    assert dec3.exponent == 3
    assert dec3.block_sizes == (1, 1, 1)
    fib = imprimitive_block_decomposition(NonnegMatrix([[1, 1], [1, 0]]))
    assert fib.exponent == 2
    assert len(fib.blocks) == 1 and fib.blocks[0].is_positive()


def test_primitive_decomposition_is_the_power_itself():
    # h = 1: the one block is the reduced power, with no submatrix copied out of it
    rng = random.Random(7)
    refuse, seen = AssertionError("submatrix called"), 0
    for _ in range(20):
        m = _random_irreducible(rng, rng.randint(1, 6), values=(0, 1, 2, F(1, 2)))
        if not is_primitive(m):
            continue
        seen += 1
        k = power_positive_exponent(m)
        with mock.patch.object(NonnegMatrix, "submatrix", side_effect=refuse):
            dec = imprimitive_block_decomposition(m)
        assert (dec.exponent, dec.permutation, dec.block_sizes) == (k, tuple(range(m.n)), (m.n,))
        assert dec.blocks == (m.pow(k).submatrix(range(m.n)),)
    assert seen >= 10


def test_imprimitive_decomposition_rejects_reducible():
    with pytest.raises(PreconditionError):
        imprimitive_block_decomposition(NonnegMatrix([[1, 0], [1, 1]]))


def test_imprimitive_decomposition_reassembles():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_irreducible(rng, n, values=(0, 1, 2))
        dec = imprimitive_block_decomposition(m)
        mk = m.pow(dec.exponent)
        perm = dec.permutation
        permuted = [[mk.rows[i][j] for j in perm] for i in perm]
        # reassemble from the blocks: off-diagonal zero, diagonal positive
        pos = 0
        expected = [[F(0)] * m.n for _ in range(m.n)]
        for size, block in zip(dec.block_sizes, dec.blocks):
            assert block.is_positive()
            for i in range(size):
                for j in range(size):
                    expected[pos + i][pos + j] = block.rows[i][j]
            pos += size
        assert permuted == expected


def test_decomposition_exponent_matches_rational_powers():
    rng = random.Random(41)
    for _ in range(60):
        # support edges only from each cyclic class into the next
        h = rng.randint(1, 3)
        cls_of = [c for c in range(h) for _ in range(rng.randint(1, 3))]
        rng.shuffle(cls_of)
        n = len(cls_of)
        while True:
            rows = [
                [rng.choice((0, 1, 2, F(1, 2))) if cls_of[j] == (cls_of[i] + 1) % h else 0
                 for j in range(n)]
                for i in range(n)
            ]
            m = NonnegMatrix(rows)
            if is_irreducible(m):
                break
        assert imprimitive_block_decomposition(m).exponent == (
            decomposition_exponent_by_rational_powers(m)
        )


# ---------------------------------------------------------------------------
# the spectral profile


def _forward_closure(m, block):
    reach, stack = set(block), list(block)
    while stack:
        v = stack.pop()
        for w in range(m.n):
            if m.rows[v][w] > 0 and w not in reach:
                reach.add(w)
                stack.append(w)
    return sorted(reach)


@given(spectral_matrices)
@settings(max_examples=60, deadline=None)
def test_profile_matches_block_oracles(m):
    profile = spectral_profile(m)
    assert spectral_profile(m) is profile
    assert profile.support == m.support()
    assert profile.tag is sturm_tag(m)
    blocks = profile.structure.blocks()
    for b, block in enumerate(blocks):
        assert profile.block_tags[b] is sturm_tag(m.submatrix(list(block)))
        closure = m.submatrix(_forward_closure(m, block))
        assert profile.closed_below[b] == (sturm_tag(closure) is SpectralTag.BELOW_ONE)


def test_brackets_near_one_match_fresh_isolators():
    # rho = sqrt(1 + 2^-31) lies within 2^-30 of 1: separating it from 1
    # takes far more bisection steps than the width 1/1000 does
    rows = [[0, 1], [1 + F(1, 2**31), 0]]
    width = F(1, 1000)
    m = NonnegMatrix(rows)
    spectral = spectral_radius_class(m)
    interval = leading_eigenvalue_interval(m, width)

    def fresh():
        rs = max(m.row_sums())
        return LargestRootIsolator([charpoly(m)], -rs - 1, rs)

    assert spectral.tag is SpectralTag.ABOVE_ONE
    assert (spectral.lo, spectral.hi) == fresh().refine_until_separated_from(F(1))
    assert interval == fresh().refine_to_width(width)
    assert interval[1] - interval[0] > 2**20 * (spectral.hi - spectral.lo)
    # asked in the other order on a new matrix, the brackets are the same
    other = NonnegMatrix(rows)
    assert leading_eigenvalue_interval(other, width) == interval
    assert spectral_radius_class(other) == spectral


def test_separating_rho_from_itself_raises_instead_of_bisecting_forever():
    # rho = 1 lies in the start bracket (-7/3, 4/3] and is never a midpoint, so
    # no bisection step can exclude it; a fresh process, so that a loop fails
    src = Path(thurston_obstruct.__file__).parents[1]
    code = (
        "from fractions import Fraction as F\n"
        "from thurston_obstruct import NonnegMatrix\n"
        "from thurston_obstruct.spectral import _leading_root_isolator\n"
        "iso = _leading_root_isolator(NonnegMatrix([[F(1, 3), 1], [F(2, 3), 0]]))\n"
        "try:\n"
        "    print(iso.refine_until_separated_from(F(1)))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "point is the largest root\n"


QUERY_WIDTHS = (F(2), F(1), F(1, 3), F(1, 10), F(1, 1000), F(1, 10**6))
QUERY_POINTS = (F(-1), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 3))


@given(shaped_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_isolator_matches_deflating_oracle_in_any_order(m, rng):
    cp = charpoly(m)
    rs = max(m.row_sums())
    lo, hi = -rs - 1, rs
    # the isolator's own start-bracket ends are queried too; rho itself is
    # skipped, since no bracket can be separated from it
    points = [
        x for x in QUERY_POINTS + (lo, hi) if evaluate(cp, x) != 0 or roots_strictly_above(cp, x)
    ]
    queries = [("width", w) for w in QUERY_WIDTHS] + [("point", x) for x in points]
    rng.shuffle(queries)

    def ask(iso, query):
        kind, arg = query
        return iso.refine_to_width(arg) if kind == "width" else iso.refine_until_separated_from(arg)

    iso = _leading_root_isolator(m)
    for query in queries:
        assert ask(iso, query) == ask(DeflatingRootIsolator(cp, lo, hi), query), query
    assert (iso.lo, iso.hi) == (lo, hi)
    assert _leading_root_isolator(m) is iso


@st.composite
def repeated_block_matrices(draw, max_n=4):
    """B (+) B (+) ... : every eigenvalue of B repeated, so gcd(p, p') != 1."""
    block = draw(shaped_matrices(max_n=max_n)).rows
    k, n = draw(st.integers(2, 3)), len(block)
    return NonnegMatrix(
        [[block[i % n][j % n] if i // n == j // n else 0 for j in range(k * n)] for i in range(k * n)]
    )


@st.composite
def imprimitive_matrices(draw):
    """Irreducible with imprimitivity index h, 2 <= h <= 6: every entry from
    one cyclic class (of 1 or 2 vertices) into the next is positive, the
    rest 0, so rho * e^(2 pi i k/h) are all eigenvalues, complex but +-rho."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=6))
    cls_of = [c for c, size in enumerate(sizes) for _ in range(size)]
    h, n = len(sizes), len(cls_of)
    return NonnegMatrix(
        [[draw(st.sampled_from(ENTRY_POOL[3:])) if cls_of[j] == (cls_of[i] + 1) % h else 0
          for j in range(n)] for i in range(n)]
    )


#: entries a/b with 1 <= a <= 4 and 1 <= b <= 5: entrywise positive matrices,
#: whose characteristic polynomials have hundreds of bits per coefficient
dense_entries = st.builds(F, st.integers(1, 4), st.integers(1, 5))


@given(
    st.one_of(
        repeated_block_matrices(),
        st.integers(1, 7).flatmap(row_stochastic).map(NonnegMatrix),
        matrices(max_n=7),
        imprimitive_matrices(),
        matrices(min_n=12, max_n=20, entries=dense_entries),
    )
)
@settings(max_examples=120, deadline=None)
def test_integer_chain_brackets_match_fraction_route(m):
    # the Fourier sequence of the integer characteristic polynomial against
    # the Sturm chain of its squarefree part over Fractions, on repeated
    # eigenvalues, rho = 1, general matrices, imprimitive ones (complex
    # eigenvalues of modulus rho) and dense ones up to 20x20
    cp = charpoly(m)
    rs = max(m.row_sums())
    iso, oracle = _leading_root_isolator(m), FractionRootIsolator(cp, -rs - 1, rs)
    for width in QUERY_WIDTHS:
        assert iso.refine_to_width(width) == oracle.refine_to_width(width), width
    for x in QUERY_POINTS:
        if oracle.probe(x) == (True, 0):  # rho itself cannot be separated from
            with pytest.raises(ValueError):
                iso.refine_until_separated_from(x)
        else:
            assert iso.refine_until_separated_from(x) == oracle.refine_until_separated_from(x), x


def test_the_fraction_oracle_raises_when_separating_rho_from_itself():
    # the oracle's own bisection would never exclude rho = 1, which is never a
    # midpoint of (-7/3, 4/3]; a fresh process, so that a loop fails
    src = Path(thurston_obstruct.__file__).parents[1]
    code = (
        "from fractions import Fraction as F\n"
        "from oracles import FractionRootIsolator\n"
        "from thurston_obstruct import NonnegMatrix, charpoly\n"
        "p = charpoly(NonnegMatrix([[F(1, 3), 1], [F(2, 3), 0]]))\n"
        "try:\n"
        "    print(FractionRootIsolator(p, F(-7, 3), F(4, 3)).refine_until_separated_from(F(1)))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "point is the largest root\n"


# ---------------------------------------------------------------------------
# rho = 1, the row-scaled elimination and the shared bisection path


@st.composite
def row_denominator_matrices(draw, scales=(F(1), F(9, 10), F(1, 2), F(3, 2)), top=None):
    """Block lower triangular, then permuted.  Each diagonal block is
    row-stochastic over weights up to 997, times a scale (the first block's
    is ``top`` when given), and each row feeds the blocks before it over a
    denominator of its own, so the lcm of the whole matrix is huge."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    rows, start = [], 0
    for size in sizes:
        scale = top if top is not None and not start else draw(st.sampled_from(scales))
        for row in draw(row_stochastic(size, scale, high=997)):
            den = draw(st.integers(2, 10**4))
            feed = [F(draw(st.integers(0, 3)), den) for _ in range(start)]
            rows.append(feed + row + [F(0)] * (n - start - size))
        start += size
    perm = draw(st.permutations(range(n)))
    return NonnegMatrix([[rows[i][j] for j in perm] for i in perm])


exact_one_matrices = st.one_of(
    st.integers(1, 7).flatmap(row_stochastic).map(NonnegMatrix),
    st.integers(1, 7).flatmap(lambda n: row_stochastic(n, high=997)).map(NonnegMatrix),
    row_denominator_matrices(scales=(F(1), F(9, 10), F(1, 2)), top=F(1)),
)


@given(exact_one_matrices)
@settings(max_examples=80, deadline=None)
def test_interval_at_exactly_one_matches_fresh_isolators_at_every_width(m):
    # below width 1 the bracket is [1, 1] without a characteristic polynomial;
    # widths 2 and 1 still bisect
    assert spectral_tag(m) is SpectralTag.EXACTLY_ONE
    rs = max(m.row_sums())
    for width in QUERY_WIDTHS:
        fresh = LargestRootIsolator([charpoly(m)], -rs - 1, rs)
        assert leading_eigenvalue_interval(m, width) == fresh.refine_to_width(width), width
    other = NonnegMatrix(m.rows)
    assert leading_eigenvalue_interval(other, F(1, 3)) == (F(1), F(1))
    assert other._isolator is None


@given(row_denominator_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_row_scaled_tags_match_the_sturm_oracle_on_row_denominators(m, data):
    profile = spectral_profile(m)
    assert profile.tag is sturm_tag(m)
    for block, tag in zip(profile.structure.blocks(), profile.block_tags):
        assert tag is sturm_tag(m.submatrix(list(block)))
    # the minimal search's test on any subset: below 1 is exact, irreducible or not
    subset = data.draw(st.lists(st.integers(0, m.n - 1), min_size=1, unique=True))
    below = sturm_tag(m.submatrix(subset)) is SpectralTag.BELOW_ONE
    assert (_block_tag(m, subset) is SpectralTag.BELOW_ONE) == below


@given(row_denominator_matrices())
@settings(max_examples=60, deadline=None)
def test_certificates_on_row_denominators_match_both_fraction_routes(m):
    v = exists_positive_subinvariant_vector(m)
    assert v == subinvariant_by_fraction_inflow(m)
    if SpectralTag.ABOVE_ONE in spectral_profile(m).block_tags:
        assert (v is None) == (subinvariant_by_fraction_solves(m) is None)
    else:
        assert v == subinvariant_by_fraction_solves(m)


def _eliminated_blocks(query):
    """The query's answer and the blocks it passed to ``_eliminate``, in call order."""
    with mock.patch.object(spectral_module, "_eliminate", side_effect=_eliminate) as calls:
        answer = query()
    return answer, [tuple(call.args[1]) for call in calls.call_args_list]


@given(st.one_of(spectral_matrices, row_denominator_matrices()))
@settings(max_examples=80, deadline=None)
def test_profile_and_certificate_eliminate_each_block_at_most_once(m):
    fresh = NonnegMatrix(m.rows)
    (_, v), eliminated = _eliminated_blocks(
        lambda: (spectral_profile(fresh), exists_positive_subinvariant_vector(fresh))
    )
    assert len(eliminated) == len(set(eliminated))
    assert set(eliminated) <= set(spectral_profile(fresh).structure.blocks())
    assert v == subinvariant_by_fraction_inflow(m)


def test_the_profile_eliminates_only_blocks_its_row_sums_leave_open():
    # one block of each kind: (0, 1) above 1 and (2, 3) below 1 by elimination (row sums
    # straddle 1), (4, 5) below 1 and (6,) at 1 by their row sums
    m = NonnegMatrix([["1/2", 2, 0, 0, 0, 0, 0], ["1/2", "1/2", 0, 0, 0, 0, 0],
                      [1, 0, "1/4", "1/2", 0, 0, 0], [0, 0, 1, "1/4", 0, 0, 0],
                      [0, 0, 1, 0, "1/4", "1/4", 0], [0, 0, 0, 0, "1/4", "1/4", 0],
                      [0, 0, 0, 0, 0, 0, 1]])
    tag, eliminated = _eliminated_blocks(lambda: spectral_tag(m))
    assert tag is SpectralTag.ABOVE_ONE and eliminated == [(0, 1), (2, 3)]
    profile = spectral_profile(m)
    assert profile.structure.blocks() == ((0, 1), (2, 3), (4, 5), (6,))
    assert [e is None for e in profile.eliminations] == [False, False, True, True]
    # the certificate eliminates the one block tagged by its row sums that is not at 1
    v, eliminated = _eliminated_blocks(lambda: exists_positive_subinvariant_vector(m))
    assert eliminated == [(4, 5)]
    assert v == (4, 1, 48, 64, 72, 24, 1) == subinvariant_by_eliminations(m)


def test_a_dense_block_just_above_1_is_eliminated_only_for_its_certificate():
    r = random.Random(11)
    w = [[F(r.randint(1, 4), r.randint(1, 5)) for _ in range(80)] for _ in range(80)]
    scale = F(10001, 10000) / min(map(sum, w))  # the least row sum becomes 1.0001
    m = NonnegMatrix([[x * scale for x in row] for row in w])
    tag, eliminated = _eliminated_blocks(lambda: spectral_tag(m))
    assert tag is SpectralTag.ABOVE_ONE and eliminated == []
    v, eliminated = _eliminated_blocks(lambda: exists_positive_subinvariant_vector(m))
    assert eliminated == [tuple(range(80))] and all(x > 0 for x in v)


def _fresh_isolator(m):
    rs = max(m.row_sums())
    return LargestRootIsolator([charpoly(m)], -rs - 1, rs)


def _stepped(query):
    """The query's answer and the number of bisection steps it took."""
    step = LargestRootIsolator._step
    with mock.patch.object(LargestRootIsolator, "_step", autospec=True, side_effect=step) as steps:
        answer = query()
    return answer, steps.call_count


def test_separation_after_a_width_query_reuses_the_walked_path():
    one = F(1)
    # rho = sqrt(2): the width query walks past the bracket (11/8, 2] that
    # excludes 1, so the separation asked next takes no step
    m = NonnegMatrix([[0, 1], [2, 0]])
    iso = _leading_root_isolator(m)
    iso.refine_to_width(F(1, 10**6))
    separated, steps = _stepped(lambda: iso.refine_until_separated_from(one))
    assert steps == 0
    assert separated == (F(11, 8), F(2)) == _fresh_isolator(m).refine_until_separated_from(one)
    # rho within 2^-30 of 1: the separation walks on past the width query's
    # depth, and steps only beyond it
    m = NonnegMatrix([[0, 1], [1 + F(1, 2**31), 0]])
    iso = _leading_root_isolator(m)
    iso.refine_to_width(F(1, 1000))
    separated, steps = _stepped(lambda: iso.refine_until_separated_from(one))
    fresh = _fresh_isolator(m)
    expected, fresh_steps = _stepped(lambda: fresh.refine_until_separated_from(one))
    assert separated == expected
    assert 0 < steps < fresh_steps


def _answer(query):
    try:
        return query()
    except ValueError as exc:  # rho itself cannot be separated from
        return str(exc)


def test_racing_queries_on_one_isolator_match_fresh_isolators():
    # two threads share each fresh matrix's isolator, one asking for a width
    # and one for the separation from 1, with thread switches every microsecond
    rng = random.Random(20)
    queries = {
        "width": lambda iso: iso.refine_to_width(F(1, 10**9)),
        "point": lambda iso: iso.refine_until_separated_from(F(1)),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(30):
            n = rng.randint(2, 9)
            rows = [[F(rng.randint(0, 4), rng.randint(1, 5)) * (rng.random() < 0.6)
                     for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:  # rho = 1
                rows = [[x / sum(row) for x in row] if any(row) else row for row in rows]
            iso = _leading_root_isolator(NonnegMatrix(rows))
            barrier, answers = threading.Barrier(2), {}

            def ask(kind):
                barrier.wait()
                answers[kind] = _answer(lambda: queries[kind](iso))

            threads = [threading.Thread(target=ask, args=(kind,)) for kind in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for kind, query in queries.items():
                fresh = _fresh_isolator(NonnegMatrix(rows))
                assert answers[kind] == _answer(lambda: query(fresh)), (rows, kind)
    finally:
        sys.setswitchinterval(interval)


# (p, lo, hi): sqrt 2, the golden ratio, rho within 2^-32 of 1, rho = 3 at
# t = 1/2 and at the upper end, and rho = 1 at t = 1/2
ISOLATOR_CASES = (
    ([charpoly(NonnegMatrix([[0, 1], [2, 0]]))], F(-3), F(2)),
    ([charpoly(NonnegMatrix([[1, 1], [1, 0]]))], F(-3), F(2)),
    ([charpoly(NonnegMatrix([[0, 1], [1 + F(1, 2**31), 0]]))], F(-3), F(2)),
    ([charpoly(NonnegMatrix([[2, 1], [1, 2]]))], F(-5), F(11)),
    ([charpoly(NonnegMatrix([[2, 1], [1, 2]]))], F(-4), F(3)),
    ([charpoly(NonnegMatrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]))], F(-1), F(3)),
)

isolator_queries = st.lists(
    st.one_of(
        st.integers(0, 301).map(lambda e: ("width", F(2, 2**e))),  # 2 down to 2^-300
        st.sampled_from([("point", F(1)), ("point", F(3))]),
        st.fractions(min_value=-6, max_value=12, max_denominator=64).map(lambda x: ("point", x)),
    ),
    min_size=1,
    max_size=8,
)


def _ask(iso, kind, x):
    if kind == "width":
        return iso.refine_to_width(x)
    return _answer(lambda: iso.refine_until_separated_from(x))


@given(st.sampled_from(ISOLATOR_CASES), isolator_queries)
@settings(max_examples=150, deadline=None)
def test_query_sequences_on_one_isolator_match_fresh_isolators(case, queries):
    # any order, repeats included: each answer is a fresh isolator's, and the
    # one state kept is the deepest any of those fresh walks reached
    iso = LargestRootIsolator(*case)
    deepest = iso._deepest
    for kind, x in queries:
        fresh = LargestRootIsolator(*case)
        assert _ask(iso, kind, x) == _ask(fresh, kind, x), (kind, x)
        if fresh._deepest[0] > deepest[0]:
            deepest = fresh._deepest
        assert iso._deepest == deepest, (kind, x)


@given(shaped_matrices(min_n=0), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_pow_matches_fraction_products(m, k_max):
    for k, expected in enumerate(matrix_powers_by_fraction_products(m, k_max)):
        power = m.pow(k)
        assert [list(row) for row in power.rows] == expected
        # the integer route reaches the canonical pair of the Fraction entries
        assert (power.scale, power.ints) == _stored(NonnegMatrix(expected))


def test_pow_edge_cases():
    assert NonnegMatrix([]).pow(0) == NonnegMatrix([]).pow(40) == NonnegMatrix([])
    m = NonnegMatrix([[F(1, 2), 0], [3, 0]])
    assert m.pow(0) == NonnegMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m.pow(-1)


@st.composite
def int_mul_operands(draw):
    """An m x k and a k x n nonnegative integer matrix, sides 1-20, entries up to 2^400.

    The sides fall on both sides of ``_PACK_MIN_DIM`` and the slots reach over 800 bits; some
    rows and columns of each factor are zero.
    """
    m, k, n = (draw(st.integers(1, 20)) for _ in range(3))
    top = 2 ** draw(st.sampled_from([0, 1, 8, 40, 140, 150, 160, 400]))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.3, 0.8, 1.0]))

    def factor(rows, cols):
        out = [[rng.choice((top, rng.randint(0, top))) if rng.random() < density else 0 for _ in range(cols)]
               for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            out[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in out:
                row[j] = 0
        return out

    return factor(m, k), factor(k, n)


_DIM = spectral_module._PACK_MIN_DIM
# 8 x 8 factors whose bound max(a) * max(b) * 8 is 2^298: slots of exactly 300 bits
_SLOTS_300 = [[2 ** 147] * 8] * 8, [[2 ** 148] * 8] * 8


@given(int_mul_operands())
@example(_SLOTS_300)
@example(([[2 * x for x in row] for row in _SLOTS_300[0]], _SLOTS_300[1]))  # one bit wider: 301-bit slots
@example(([[1]] * _DIM, [[1] * _DIM]))  # packed at the least dimension
@example(([[3] * (_DIM - 1)] * (_DIM - 1), [[5] * (_DIM - 1)] * (_DIM - 1)))  # one less: dot products
@example(([[2**400] * 20] * 20, [[2**400] * 20] * 20))
@example(([[0] * 9] * 9, [[2**100] * 9] * 9))
@settings(max_examples=150, deadline=None)
def test_int_mul_matches_the_entrywise_product(operands):
    a, b = operands
    assert _int_mul(a, b) == int_mul_by_entries(a, b)


# ---------------------------------------------------------------------------
# the stored form (L, L*M)


def _stored(m):
    return m.scale, m.ints


shared_factor_entries = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def shared_factor_matrices(draw, max_n=6):
    """Entries over denominators up to 12, so principal submatrices often
    have a smaller lcm of denominators than the whole matrix."""
    n = draw(st.integers(0, max_n))
    return NonnegMatrix([[draw(shared_factor_entries) for _ in range(n)] for _ in range(n)])


@given(shared_factor_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_cleared_matches_the_lcm_route_on_principal_submatrices(m, data):
    scale, ints = cleared_by_lcm(m.rows, range(m.n))
    assert _stored(m) == (scale, tuple(map(tuple, ints)))
    indices = data.draw(st.lists(st.integers(0, max(m.n - 1, 0)), unique=True, max_size=m.n))
    scale, ints = cleared_by_lcm(m.rows, indices)
    sub = m.submatrix(indices)
    assert _stored(sub) == (scale, tuple(map(tuple, ints)))
    assert sub == NonnegMatrix([[m.rows[i][j] for j in indices] for i in indices])


def test_equal_spellings_give_one_stored_form():
    spellings = [
        [["2/4", "3/6"], ["6/4", 0]],
        [[F(1, 2), F(1, 2)], [F(3, 2), 0]],
        [["1/2", "1/2"], ["3/2", "0"]],
    ]
    ms = [NonnegMatrix(rows) for rows in spellings]
    assert ms[0] == ms[1] == ms[2] and len({hash(m) for m in ms}) == 1
    assert all(_stored(m) == (2, ((1, 1), (3, 0))) for m in ms)
    assert ms[0].rows == ((F(1, 2), F(1, 2)), (F(3, 2), F(0)))
    assert repr(ms[0]) == "NonnegMatrix([['1/2', '1/2'], ['3/2', '0']])"
    assert NonnegMatrix([[0, 0], [0, 0]]).scale == NonnegMatrix([]).scale == 1


def test_stored_form_is_immutable():
    m = NonnegMatrix([[F(1, 2), 1], [0, F(1, 3)]])
    for name in (*NonnegMatrix.__slots__, "rows"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    with pytest.raises(TypeError):
        m.ints[0][0] = 5  # tuples all the way down
    assert _stored(m) == (6, ((3, 6), (0, 2)))


mostly_positive = st.sampled_from(ENTRY_POOL[2:])


@st.composite
def cyclic_pattern_matrices(draw, max_n=7):
    """Support edges only from each of h >= 2 classes into the next:
    imprimitive when irreducible, reducible when a class is empty or an
    entry on a needed edge is 0."""
    h = draw(st.integers(2, 3))
    cls_of = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=max_n))
    n = len(cls_of)
    return NonnegMatrix(
        [[draw(mostly_positive) if cls_of[j] == (cls_of[i] + 1) % h else 0 for j in range(n)]
         for i in range(n)]
    )


cyclic_test_matrices = st.one_of(shaped_matrices(min_n=0), cyclic_pattern_matrices())


@given(cyclic_test_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_power_positive_exponent_matches_rational_powers(m, data):
    # the oracle's search up to a drawn cap finds the exponent exactly when it is within the cap
    cap = data.draw(st.integers(1, wielandt_bound(m.n) + 2), label="cap")
    k = power_positive_exponent(m)
    assert (k if k is not None and k <= cap else None) == power_positive_exponent_by_rational_powers(m, cap)
    assert k == power_positive_exponent_by_rational_powers(m, wielandt_bound(m.n))


CYCLIC_QUERIES = (
    imprimitivity_index,
    is_primitive,
    cyclic_classes,
    power_positive_exponent,
    imprimitive_block_decomposition,
)


def _cyclic_answer(query, m):
    try:
        return query(m)
    except PreconditionError:
        return PreconditionError


@given(cyclic_test_matrices, st.permutations(CYCLIC_QUERIES))
@settings(max_examples=80, deadline=None)
def test_cyclic_queries_in_any_order_match_fresh_copies(m, order):
    for query in order:
        assert _cyclic_answer(query, m) == _cyclic_answer(query, NonnegMatrix(m.rows)), query
    # the classes handed out are copies: changing them leaves the kept structure alone
    if is_irreducible(m):
        cyclic_classes(m)[0].append(-1)
        assert cyclic_classes(m) == cyclic_classes(NonnegMatrix(m.rows))


def test_power_positive_exponent_of_a_large_triangular_matrix_is_immediate():
    # reducible, so no power is positive; the Wielandt-bound search would
    # take 6241 boolean products of 80 x 80 supports
    m = NonnegMatrix([[int(j >= i) for j in range(80)] for i in range(80)])
    start = time.perf_counter()
    assert power_positive_exponent(m) is None
    assert time.perf_counter() - start < 0.5


def test_non_primitive_matrices_get_no_positive_power_search(monkeypatch):
    products = []
    monkeypatch.setattr(
        "thurston_obstruct.spectral._bool_mul", lambda a, b: products.append(1) or _bool_mul(a, b)
    )
    assert power_positive_exponent(NonnegMatrix([[1, 1], [0, 1]])) is None
    assert products == []
    # the 3-cycle: two products give the support of M**3, already the class pattern
    cycle = NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert power_positive_exponent(cycle) is None
    assert imprimitive_block_decomposition(cycle).exponent == 3
    assert len(products) == 2


@st.composite
def irreducible_class_matrices(draw, max_n=12):
    """Supports with edges only from each of h classes into the next, every
    vertex on one closed walk through the classes in turn: irreducible, with
    an imprimitivity index that h divides."""
    h = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, min(4, max_n // h))) for _ in range(h)]
    order = draw(st.permutations(range(sum(sizes))))
    cls, start = [], 0
    for size in sizes:
        cls.append(order[start : start + size])
        start += size
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    walk = [cls[c][r % len(cls[c])] for r in range(max(sizes)) for c in range(h)]
    for u, v in zip(walk, walk[1:] + walk[:1]):
        rows[u][v] = 1
    for c in range(h):
        for u in cls[c]:
            for v in cls[(c + 1) % h]:
                rows[u][v] |= draw(st.booleans())
    return NonnegMatrix(rows)


def _wielandt(n):
    """Ones on the superdiagonal and in columns 0 and 1 of the last row: primitive, exponent (n-1)^2 + 1."""
    return NonnegMatrix([[int(j == i + 1 or (i == n - 1 and j < 2)) for j in range(n)] for i in range(n)])


@given(st.one_of(cyclic_pattern_matrices(), irreducible_class_matrices(), st.integers(2, 40).map(_wielandt)))
@settings(max_examples=150, deadline=None)
def test_cyclic_structure_by_doubling_matches_single_steps(m):
    if not is_irreducible(m):
        with pytest.raises(PreconditionError):
            _cyclic_structure(m)
    else:
        assert _cyclic_structure(m) == cyclic_structure_by_single_steps(m)


def test_cyclic_structure_of_the_80x80_wielandt_matrix_is_quick(monkeypatch):
    # the exponent is the Wielandt bound 6242 and 6241 = 2^12 + 2145: 13 squarings reach
    # A^(2^13), then 12 products fix the bits of 6241 below 2^12, instead of 6241 products
    products = []
    monkeypatch.setattr(
        "thurston_obstruct.spectral._bool_mul", lambda a, b: products.append(1) or _bool_mul(a, b)
    )
    m = _wielandt(80)
    start = time.perf_counter()
    assert _cyclic_structure(m) == (1, (tuple(range(80)),), wielandt_bound(80))
    assert time.perf_counter() - start < 1.0
    assert wielandt_bound(80) == 6242 and len(products) == 25


# ---------------------------------------------------------------------------
# characteristic polynomial and decomposition from the block and cyclic structure

positive_entries = st.sampled_from(ENTRY_POOL[3:])


@st.composite
def weighted(draw, supports):
    """A matrix from ``supports`` with every positive entry redrawn from the positive pool."""
    m = draw(supports)
    return NonnegMatrix([[draw(positive_entries) if x else 0 for x in row] for row in m.ints])


imprimitive_matrices = weighted(irreducible_class_matrices())


@st.composite
def reducible_imprimitive_matrices(draw):
    """Block lower triangular: irreducible blocks of any index, spectral blocks and loopless 1x1
    blocks on the diagonal, random entries below it, rows and columns simultaneously permuted."""
    small = weighted(irreducible_class_matrices(max_n=8)).map(lambda m: [list(row) for row in m.rows])
    blocks = draw(st.lists(st.one_of(small, st.integers(1, 3).flatmap(spectral_block)), min_size=1, max_size=3))
    n = sum(map(len, blocks))
    rows = [[F(0)] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[start + i][start : start + len(block)] = row
            rows[start + i][:start] = [draw(entries) for _ in range(start)]
        start += len(block)
    perm = draw(st.permutations(range(n)))
    return NonnegMatrix([[rows[i][j] for j in perm] for i in perm])


@given(st.one_of(mixed_block_matrices(), imprimitive_matrices, reducible_imprimitive_matrices(), shaped_matrices(min_n=0)))
@example(NonnegMatrix([]))
@example(NonnegMatrix([[0]]))
@example(NonnegMatrix([[0, 0, 0], [1, 0, 0], [0, 2, 0]]))
@settings(max_examples=300, deadline=None)
def test_charpoly_matches_whole_matrix_berkowitz(m):
    assert charpoly(m) == charpoly_by_whole_berkowitz(m)


@st.composite
def table_shaped_matrices(draw):
    """Mostly one-vertex blocks, as in a curve table's Thurston matrix: diagonal
    entries (equal ones included) over a random strictly lower part, sometimes an
    entry above the diagonal that closes a 2-cycle, then permuted."""
    n = draw(st.integers(2, 10))
    diagonal = st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2)])
    below = st.sampled_from([F(0), F(0), F(1, 2), F(1)])
    rows = [[draw(diagonal) if i == j else draw(below) if j < i else F(0) for j in range(n)]
            for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        rows[i][i + 1] = draw(st.sampled_from([F(1, 2), F(2)]))
    perm = draw(st.permutations(range(n)))
    return NonnegMatrix([[rows[i][j] for j in perm] for i in perm])


@given(
    st.one_of(
        mixed_block_matrices(),
        imprimitive_matrices,
        reducible_imprimitive_matrices(),
        shaped_matrices(),
        repeated_block_matrices(),
        table_shaped_matrices(),
    )
)
@example(NonnegMatrix([[2 if i == j else int(j > i) for j in range(4)] for i in range(4)]))
@example(NonnegMatrix([[1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 1, 1], [0, 0, 1, 0]]))
@settings(max_examples=100, deadline=None)
def test_candidate_block_walk_matches_the_whole_product(m):
    # rho from the polynomials of the blocks with the matrix's tag, the one-vertex
    # ones as one L x - a, against the whole characteristic polynomial: brackets at
    # every width, and separations from every block's own root or bracket ends
    profile = spectral_profile(m)
    rs = max(m.row_sums())
    iso, whole = _leading_root_isolator(m), LargestRootIsolator([charpoly(m)], -rs - 1, rs)
    candidates = [b for b, tag in zip(profile.structure.blocks(), profile.block_tags) if tag is profile.tag]
    several = sum(len(b) > 1 for b in candidates)
    assert len(iso.qs) == (1 if profile.irreducible else several + any(len(b) == 1 for b in candidates))
    floor = 4096 if m.n <= 4 else 300
    for width in QUERY_WIDTHS + (F(1, 2**64), F(1, 2**floor)):
        assert iso.refine_to_width(width) == whole.refine_to_width(width), width
    points = list(QUERY_POINTS)
    for block in profile.structure.blocks():
        sub = m.submatrix(block)
        sub_rs = max(sub.row_sums())
        points += LargestRootIsolator([charpoly(sub)], -sub_rs - 1, sub_rs).refine_to_width(F(1, 2**40))
    for x in points:
        assert _answer(lambda: iso.refine_until_separated_from(x)) == \
            _answer(lambda: whole.refine_until_separated_from(x)), x


@given(st.one_of(imprimitive_matrices, cyclic_pattern_matrices(), matrices()))
@example(NonnegMatrix([[0]]))
@settings(max_examples=200, deadline=None)
def test_decomposition_matches_the_cut_from_the_whole_power(m):
    if not is_irreducible(m):
        with pytest.raises(PreconditionError):
            imprimitive_block_decomposition(m)
    else:
        assert imprimitive_block_decomposition(m) == imprimitive_decomposition_by_whole_power(m)


def test_berkowitz_runs_on_each_block_and_on_the_smallest_class_only(monkeypatch):
    sizes = []
    monkeypatch.setattr(
        "thurston_obstruct.spectral._berkowitz", lambda a: sizes.append(len(a)) or _berkowitz(a)
    )
    # four dense 5-blocks, permuted: one 5 x 5 run per block
    rng = random.Random(4)
    rows = [[rng.randint(1, 4) if i // 5 == j // 5 else rng.randint(0, 1) * (j // 5 < i // 5)
             for j in range(20)] for i in range(20)]
    perm = list(range(20))
    rng.shuffle(perm)
    m = NonnegMatrix([[rows[i][j] for j in perm] for i in perm])
    assert charpoly(m) == charpoly_by_whole_berkowitz(m) and sizes == [5] * 4
    # index 3 with classes of 3, 2 and 4 vertices: one run on the 2 x 2 class product
    sizes.clear()
    cls = [0, 0, 0, 1, 1, 2, 2, 2, 2]
    m = NonnegMatrix([[int(cls[j] == (cls[i] + 1) % 3) for j in range(9)] for i in range(9)])
    assert imprimitivity_index(m) == 3
    assert charpoly(m) == charpoly_by_whole_berkowitz(m) and sizes == [2]
    # the same block in a reducible matrix, beside a vertex with a loop that feeds it
    sizes.clear()
    m = NonnegMatrix([list(row) + [0] for row in m.ints] + [[1] + [0] * 8 + [3]])
    assert spectral_profile(m).structure.block_sizes == (9, 1)
    assert charpoly(m) == charpoly_by_whole_berkowitz(m) and sizes == [2, 1]
    # the 60 x 60 upper-triangular matrix: sixty 1 x 1 runs
    sizes.clear()
    m = NonnegMatrix([[2 if i == j else int(j > i) for j in range(60)] for i in range(60)])
    assert charpoly(m) == charpoly_by_whole_berkowitz(m) and sizes == [1] * 60


def test_start_bracket_that_excludes_one_is_returned_unsnapped():
    # nilpotent with row sums below 1: the start bracket (-3/2, 1/2] already
    # excludes 1, and its upper end 1/2 is not the root 0
    m = NonnegMatrix([[0, F(1, 2)], [0, 0]])
    assert spectral_radius_class(m) == SpectralClass(SpectralTag.BELOW_ONE, F(-3, 2), F(1, 2))
    assert leading_eigenvalue_interval(m, F(1, 10)) == (F(0), F(0))


# ---------------------------------------------------------------------------
# positive subinvariant vectors


def test_subinvariant_examples():
    assert exists_positive_subinvariant_vector(NonnegMatrix([[0, 1], [1, 0]])) == (F(1), F(1))
    assert exists_positive_subinvariant_vector(NonnegMatrix([[F(1, 2), 0], [1, 1]])) is None
    assert exists_positive_subinvariant_vector(NonnegMatrix([[2]])) == (F(1),)


def test_subinvariant_fed_block():
    # upper block feeds the sub-1 block, so a certificate exists
    m = NonnegMatrix([[F(1, 2), 1], [0, 1]])
    v = exists_positive_subinvariant_vector(m)
    assert v is not None


def test_subinvariant_irrational_eigenvalue():
    v = exists_positive_subinvariant_vector(NonnegMatrix([[0, 8], [F(1, 2), 0]]))
    assert v is not None


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_subinvariant_matches_exhaustion_and_verifies(m):
    v = exists_positive_subinvariant_vector(m)
    assert (v is not None) == simple_by_exhaustion(m)
    if v is not None:
        assert all(x > 0 for x in v)
        mv = [sum(m.rows[i][j] * v[j] for j in range(m.n)) for i in range(m.n)]
        assert all(a >= b for a, b in zip(mv, v))


@st.composite
def nonsingular_m_matrices(draw, max_n=6):
    """``(C, b)``: an integer Z-matrix s*I - N with rho(N) < s (by the Sturm
    oracle), so a nonsingular M-matrix, and an integer right-hand side."""
    n = draw(st.integers(1, max_n))
    big = [[draw(st.integers(0, 4)) for _ in range(n)] for _ in range(n)]
    s = draw(st.integers(1, max(map(sum, big)) + 1))
    scaled = NonnegMatrix([[F(x, s) for x in row] for row in big])
    assume(sturm_tag(scaled) is SpectralTag.BELOW_ONE)
    c = [[(s if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(big)]
    return c, [draw(st.integers(-9, 9)) for _ in range(n)]


@st.composite
def irreducible_at_one(draw, max_n=6):
    """D P^T D^-1 for a row-stochastic P with a Hamiltonian cycle and a
    positive diagonal D: irreducible, rho exactly 1, Perron vector not flat."""
    n = draw(st.integers(1, max_n))
    rows = []
    for i in range(n):
        weights = [draw(st.integers(0, 3)) for _ in range(n)]
        weights[(i + 1) % n] += 1
        rows.append([F(w, sum(weights)) for w in weights])
    d = [draw(st.integers(1, 5)) for _ in range(n)]
    return [[d[i] * rows[j][i] / d[j] for j in range(n)] for i in range(n)]


@given(nonsingular_m_matrices())
@settings(max_examples=150, deadline=None)
def test_back_substitution_matches_fraction_solve_on_m_matrices(case):
    c, rhs = case
    k = len(c)
    expected = kernel_vector([[F(x) for x in row] + [F(-f)] for row, f in zip(c, rhs)])
    work = [row + [-f] for row, f in zip(c, rhs)]
    assert _bareiss(work) == k - 1
    z = _back_substitute(work, k)
    assert z[k] == determinant_by_elimination(c) > 0
    assert [F(v, z[k]) for v in z] == expected


@given(irreducible_at_one())
@settings(max_examples=150, deadline=None)
def test_back_substitution_matches_fraction_kernel_at_one(rows):
    k = len(rows)
    m = NonnegMatrix(rows)
    c = eye_minus_cleared(m.scale, m.ints)
    assert _bareiss(c) == k - 1 and c[-1][-1] == 0
    z = _back_substitute(c, k - 1)
    eye_minus = [[(1 if i == j else 0) - rows[i][j] for j in range(k)] for i in range(k)]
    assert [F(v, z[-1]) for v in z] == kernel_vector(eye_minus)


def _growth_steps(m, block) -> int:
    """Steps x <- B x from the elimination's start vector to a positive one.

    Checks on the way that the start vector is (y, 1, 0, ..., 0) with
    y >= 0 and B x >= x, equal on the rows before the stopping pivot.
    """
    sub = m.submatrix(block)
    c = eye_minus_cleared(sub.scale, sub.ints)
    p = _bareiss(c)
    z = _back_substitute(c, p)
    x = [F(v, z[p]) for v in z] + [F(0)] * (len(block) - 1 - p)
    bx = [sum(m.rows[i][j] * v for j, v in zip(block, x)) for i in block]
    assert x[p] == 1 and all(v >= 0 for v in x)
    assert bx[:p] == x[:p] and all(u >= v for u, v in zip(bx, x))
    steps = 0
    while not all(x) and steps < len(block):
        x = [sum(m.rows[i][j] * w for j, w in zip(block, x)) for i in block]
        steps += 1
    return steps


@given(spectral_matrices)
@settings(max_examples=120, deadline=None)
def test_certificate_exists_exactly_when_the_fraction_route_finds_one(m):
    v = exists_positive_subinvariant_vector(m)
    assert (v is None) == (subinvariant_by_fraction_solves(m) is None)


@given(st.one_of(spectral_matrices, shared_factor_matrices()))
@settings(max_examples=150, deadline=None)
def test_certificate_matches_the_fraction_inflow_route(m):
    # the inflow from the integer rows gives every block the same vector
    assert exists_positive_subinvariant_vector(m) == subinvariant_by_fraction_inflow(m)


@given(spectral_matrices)
@settings(max_examples=120, deadline=None)
def test_certificate_without_a_block_above_one_matches_the_fraction_route(m):
    assume(SpectralTag.ABOVE_ONE not in spectral_profile(m).block_tags)
    assert exists_positive_subinvariant_vector(m) == subinvariant_by_fraction_solves(m)


@given(spectral_matrices)
@settings(max_examples=120, deadline=None)
def test_certificate_with_a_block_above_one_verifies_in_bounded_steps(m):
    profile = spectral_profile(m)
    assume(SpectralTag.ABOVE_ONE in profile.block_tags)
    v = exists_positive_subinvariant_vector(m)
    if v is not None:
        assert all(x > 0 for x in v)
        mv = [sum(m.rows[i][j] * v[j] for j in range(m.n)) for i in range(m.n)]
        assert all(a >= b for a, b in zip(mv, v))
    for block, tag in zip(profile.structure.blocks(), profile.block_tags):
        if tag is not SpectralTag.BELOW_ONE:
            assert _growth_steps(m, block) <= len(block) - 1


def test_certificate_just_above_one_is_immediate():
    # rho = 1/2 + sqrt(1/4 + e) = 1 + e - e^2 + ...: the oracle's geometric
    # power sum would need on the order of 1/e terms
    e = F(1, 10**30)
    m = NonnegMatrix([[F(1, 2), F(1, 4) + e], [1, F(1, 2)]])
    start = time.perf_counter()
    v = exists_positive_subinvariant_vector(m)
    assert time.perf_counter() - start < 1
    assert spectral_tag(m) is SpectralTag.ABOVE_ONE
    # (y, 1) with y = (1/4 + e) / (1/2), scaled to coprime integers
    assert v == (F(25 * 10**28 + 1), F(5 * 10**29))
    assert all(sum(a * x for a, x in zip(row, v)) >= y for row, y in zip(m.rows, v))


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_below_one_closure_drop_preserves_class(m):
    sc = spectral_radius_class(m)
    dropped = below_one_closed_indices(m)
    if sc.tag is SpectralTag.BELOW_ONE:
        assert len(dropped) == m.n
        return
    keep = [i for i in range(m.n) if i not in set(dropped)]
    sub = m.submatrix(keep)
    assert spectral_radius_class(sub).tag is sc.tag
    assert exists_positive_subinvariant_vector(sub) is not None


# ---------------------------------------------------------------------------
# row-sum tags and Collatz-Wielandt brackets


@given(st.one_of(spectral_matrices, row_denominator_matrices()), st.data())
@settings(max_examples=120, deadline=None)
def test_row_sum_tags_match_the_elimination_on_every_block_they_decide(m, data):
    assert spectral_profile(m).block_tags == block_tags_by_elimination(m)
    # any subset, as the minimal search visits them: strongly connected or not
    subset = data.draw(st.lists(st.integers(0, m.n - 1), min_size=1, unique=True))
    for block in (*scc_partition(m).blocks(), subset):
        tag, eliminated = _row_sum_tag(m, block), _eliminate(m, block)[0]
        assert _block_tag(m, block) is (tag or eliminated)
        if tag is SpectralTag.EXACTLY_ONE and eliminated is SpectralTag.ABOVE_ONE:
            # rho = 1 on a reducible subset, where the elimination only shows rho >= 1
            sub = m.submatrix(list(block))
            assert not is_irreducible(sub) and sturm_tag(sub) is SpectralTag.EXACTLY_ONE
        else:
            assert tag in (None, eliminated)


def test_a_reducible_block_at_one_is_not_below_one_by_either_route():
    # the identity: rho = 1, which its row sums show; the elimination stops at
    # the zero pivot, which shows rho >= 1 only
    m = NonnegMatrix([[1, 0], [0, 1]])
    assert _block_tag(m, [0, 1]) is _row_sum_tag(m, [0, 1]) is SpectralTag.EXACTLY_ONE
    assert _eliminate(m, [0, 1])[0] is SpectralTag.ABOVE_ONE


@given(st.one_of(spectral_matrices, row_denominator_matrices(), mixed_block_matrices(max_n=12)))
@settings(max_examples=120, deadline=None)
def test_certificates_match_the_all_elimination_route(m):
    assert exists_positive_subinvariant_vector(m) == subinvariant_by_eliminations(m)


@st.composite
def primitive_rows(draw, min_n=7, max_n=14, entries=dense_entries):
    """A cycle through every vertex and a loop (so primitive), and entries of a drawn density."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.integers(1, 9))
    rows = [[draw(entries) if draw(st.integers(0, 9)) < density else F(0) for _ in range(n)]
            for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] += 1
    rows[0][0] += 1
    return rows


@st.composite
def cyclic_class_matrices(draw):
    """Irreducible of index h = 2..4 and 7-14 rows: entries only from each class into the next."""
    h = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(2, 4), min_size=h, max_size=h).filter(lambda s: 7 <= sum(s) <= 14))
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    return NonnegMatrix([[draw(dense_entries) if cls[j] == (cls[i] + 1) % h else 0 for j in range(len(cls))]
                         for i in range(len(cls))])


@st.composite
def block_triangular_matrices(draw):
    """Two to four primitive blocks of 2-5 rows, 7-14 in all, each feeding the earlier ones."""
    blocks = draw(
        st.lists(primitive_rows(2, 5), min_size=2, max_size=4).filter(lambda b: sum(map(len, b)) >= 7)
    )
    n = sum(map(len, blocks))
    rows, start = [], 0
    for block in blocks:
        for row in block:
            feed = [draw(st.sampled_from(ENTRY_POOL)) for _ in range(start)]
            rows.append(feed + row + [F(0)] * (n - start - len(block)))
        start += len(block)
    perm = draw(st.permutations(range(n)))
    return NonnegMatrix([[rows[i][j] for j in perm] for i in perm])


@st.composite
def rational_rho_matrices(draw):
    """D^-1 A D for A of constant row sums c and a positive diagonal D: rho = c, and the row sums
    differ, so the bounds never meet.  Scaled by lambda so that rho is a grid point of level s of
    the start bracket, or kept with c = 1 or 2, the simplest rational of many cells."""
    rows = draw(primitive_rows())
    c = draw(st.sampled_from((F(1), F(2))))
    d = [draw(st.integers(1, 6)) for _ in rows]
    rows = [[c * x / sum(row) * d[j] / d[i] for j, x in enumerate(row)] for i, row in enumerate(rows)]
    rs = max(map(sum, rows))
    level = draw(st.integers(0, 8))
    if level and rs > c:
        # t(rho) = (rho + rs + 1) / (2 rs + 1) is tau = k / 2^level for lambda rho and lambda rs
        k = int((c + rs) / (2 * rs) * 2**level) + 1
        tau = F(k, 2**level)
        assume(tau < 1)
        scale = (tau - 1) / (c + rs - 2 * tau * rs)
        rows = [[scale * x for x in row] for row in rows]
    return NonnegMatrix(rows)


@st.composite
def constant_row_sum_matrices(draw):
    """Every row sums to c, so rho = c = rs: primitive, or any support at all (reducible,
    imprimitive, a single vertex), a row with no entry getting one at a drawn column."""
    rows = draw(st.one_of(primitive_rows(), matrices(max_n=9).map(lambda m: [list(r) for r in m.rows])))
    for row in rows:
        if not any(row):
            row[draw(st.integers(0, len(row) - 1))] = F(1)
    c = draw(st.sampled_from((F(1, 2), F(1), F(3, 2), F(2), F(7, 3))))
    return NonnegMatrix([[c * x / sum(row) for x in row] for row in rows])


@st.composite
def small_gap_matrices(draw):
    """[[A, eI], [eI, (1 - e) A]]: |lambda_2| / rho is near 1.  With both diagonal blocks A, x = 1
    would have no part along the eigenvector of rho(A) - e, and the power steps would not see it."""
    a = draw(primitive_rows(4, 7))
    e = F(1, draw(st.sampled_from((10**3, 10**6))))
    return NonnegMatrix(_weakly_coupled(a, e))


@st.composite
def near_one_matrices(draw):
    """A primitive matrix over a rational within 10^-50 of its rho, so rho lies that close to 1."""
    m = NonnegMatrix(draw(primitive_rows(7, 9)))
    lo, _ = _fresh_isolator(m).refine_to_width(F(1, 10**50))
    return NonnegMatrix([[x / lo for x in row] for row in m.rows])


BRACKET_WIDTHS = (F(2), F(1), F(1, 3), F(1, 10**6), F(1, 2**40), F(1, 2**64), F(1, 2**65), F(1, 2**300))


@given(
    st.one_of(
        primitive_rows().map(NonnegMatrix),
        cyclic_class_matrices(),
        block_triangular_matrices(),
        rational_rho_matrices(),
        constant_row_sum_matrices(),
        small_gap_matrices(),
        near_one_matrices(),
    )
)
@settings(max_examples=60, deadline=None)
def test_bound_brackets_match_fresh_isolators(m):
    fresh = _fresh_isolator(m)
    if spectral_tag(m) is not SpectralTag.EXACTLY_ONE:
        spectral = spectral_radius_class(m)
        assert (spectral.lo, spectral.hi) == fresh.refine_until_separated_from(F(1))
    for width in BRACKET_WIDTHS:
        expected = fresh.refine_to_width(width)
        # after the queries before it on the same matrix, and alone on a new one
        assert leading_eigenvalue_interval(m, width) == expected, width
        assert leading_eigenvalue_interval(NonnegMatrix(m.rows), width) == expected, width


def _weakly_coupled(a, e):
    k = len(a)
    return [[(1 - e * (i >= k)) * a[i % k][j % k] if i // k == j // k else e * (i % k == j % k)
             for j in range(2 * k)] for i in range(2 * k)]


def _dense(seed, n):
    rng = random.Random(seed)
    return [[F(rng.randint(1, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def test_bounds_settle_primitive_matrices_and_leave_their_fallback_triggers_open():
    # a dense 10 x 10: both brackets from the bounds, with no characteristic polynomial
    m = NonnegMatrix(_dense(1, 10))
    assert _bounds_bracket(m, None) == _fresh_isolator(m).refine_until_separated_from(F(1))
    assert _bounds_bracket(m, F(1, 10**6)) == _fresh_isolator(m).refine_to_width(F(1, 10**6))
    assert m._isolator is None
    # a width whose level lies beyond the bounds' 64, and a 6 x 6 matrix: the isolator's
    assert _bounds_bracket(NonnegMatrix(_dense(1, 10)), F(1, 2**300)) is None
    assert _bounds_bracket(NonnegMatrix(_dense(1, 6)), F(1, 10**6)) is None
    # every row sum 2: rho = 2 = rs, the grid point at level 0, at any width and with no power step
    ring = NonnegMatrix([[int(j in (i, (i + 1) % 7)) for j in range(7)] for i in range(7)])
    assert _bounds_bracket(ring, None) == (F(2), F(2)) == _bounds_bracket(ring, F(1, 2**300))
    assert ring._bounds is None
    # rho = 2 with unequal row sums (D^-1 A D, A dense with row sums 2): 2 is the simplest rational of
    # the cells around it, which the bounds cannot tell from rho, so they stop at the first such cell
    a = [[2 * x / sum(row) for x in row] for row in _dense(3, 8)]
    d = [1, 2, 3, 1, 2, 3, 1, 2]
    similar = NonnegMatrix([[x * F(d[j], d[i]) for j, x in enumerate(row)] for i, row in enumerate(a)])
    assert _bounds_bracket(similar, F(1, 10**6)) is None and similar._bounds[5] < 40
    assert leading_eigenvalue_interval(similar, F(1, 10**6)) == (F(2), F(2))
    assert spectral_radius_class(similar) == SpectralClass(SpectralTag.ABOVE_ONE, F(2), F(2))
    # |lambda_2| / rho near 999/1000: the width stops halving, and the bounds stop well inside the budget
    gap = NonnegMatrix(_weakly_coupled(_dense(2, 5), F(1, 1000)))
    assert _bounds_bracket(gap, F(1, 10**6)) is None
    _, _, lo, hi, _, steps, widths = gap._bounds
    assert 8 < steps < spectral_module._BOUNDS_STEPS and 2 * (hi - lo) > widths[0]
    assert leading_eigenvalue_interval(gap, F(1, 10**6)) == _fresh_isolator(gap).refine_to_width(F(1, 10**6))
    # the 7 x 7 cycle with loops conjugated by diag(1, 2, 3, 1, 2, 3, 1): rho = 2 is the snap candidate of
    # its cells and |lambda_2| / rho = cos(pi / 7), so its bounds close slowly and never settle the snap
    d = [1, 2, 3, 1, 2, 3, 1]
    loops = NonnegMatrix([[F(d[j], d[i]) * int(j in (i, (i + 1) % 7)) for j in range(7)] for i in range(7)])
    assert _bounds_bracket(loops, None) is None and _bounds_bracket(loops, F(1, 10**6)) is None
    assert loops._bounds[5] < 20
    assert spectral_radius_class(loops) == SpectralClass(SpectralTag.ABOVE_ONE, F(2), F(2))
    assert (F(2), F(2)) == _fresh_isolator(loops).refine_until_separated_from(F(1))
    assert leading_eigenvalue_interval(loops, F(1, 10**6)) == _fresh_isolator(loops).refine_to_width(F(1, 10**6))


def test_bounds_stop_once_every_level_holds_one():
    # a dense 8 x 8 over the upper end of its 10^-60 bracket: rho lies just below 1, so every closed
    # cell to level 64 holds 1, and no later step can change those cells; the bounds stop at the first
    # step whose scan finds that (32 steps; the width-stall stop alone would end at step 43)
    rows = _dense(5, 8)
    _, hi = _fresh_isolator(NonnegMatrix(rows)).refine_to_width(F(1, 10**60))
    rows = [[x / hi for x in row] for row in rows]
    m = NonnegMatrix(rows)
    assert _bounds_bracket(m, None) is None and m._bounds[5] == 32
    separated = _fresh_isolator(NonnegMatrix(rows)).refine_until_separated_from(F(1))
    assert separated[1] < 1
    assert spectral_radius_class(m) == SpectralClass(SpectralTag.BELOW_ONE, *separated)


def test_bounds_return_the_start_bracket_when_one_lies_above_it():
    # every row sum below 1, all different: 1 lies above the start bracket (-rs-1, rs], which the isolator
    # returns as it is; the bounds reach it by their one snap rule, after a power step
    below = NonnegMatrix([[x / 30 for x in row] for row in _dense(4, 7)])
    rs = max(below.row_sums())
    assert rs < 1 and len(set(below.row_sums())) == 7
    start = (-rs - 1, rs)
    assert _bounds_bracket(below, None) == _fresh_isolator(below).refine_until_separated_from(F(1)) == start
    assert below._bounds[5] > 0
    assert spectral_radius_class(below) == SpectralClass(SpectralTag.BELOW_ONE, *start)


# ---------------------------------------------------------------------------
# monotonicity of the leading eigenvalue


def test_submatrix_eigenvalue_strictly_smaller():
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 5)
        m = _random_irreducible(rng, n, values=(0, 1, 2))
        checked += 1
        full_iv = leading_eigenvalue_interval(m, F(1, 10**9))
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            sub_iv = leading_eigenvalue_interval(m.submatrix(keep), F(1, 10**9))
            width = F(1, 10**9)
            while not sub_iv[1] < full_iv[0]:
                width /= 2**10
                assert width > F(1, 10**40), "intervals failed to separate"
                full_iv = leading_eigenvalue_interval(m, width)
                sub_iv = leading_eigenvalue_interval(m.submatrix(keep), width)


def test_matrix_validation():
    with pytest.raises(ValueError, match="matrix must be square"):
        NonnegMatrix([[1, 2]])
    with pytest.raises(ValueError, match="matrix entries must be nonnegative"):
        NonnegMatrix([[-1]])
    with pytest.raises(TypeError, match="floating-point matrix entries are not accepted"):
        NonnegMatrix([[0.5]])
