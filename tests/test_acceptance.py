"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact and carries the stated runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import (
    covering_pullback_oracle,
    obstruction_slope_by_scan,
    simple_by_exhaustion,
)
from thurston_obstruct import (
    INFINITE_WEIGHT,
    PARABOLIC_SIGNATURES,
    CriticalPortrait,
    CurveClass,
    CurveTable,
    DecompositionComponent,
    NonnegMatrix,
    OrbifoldClass,
    PortraitPoint,
    PullbackComponent,
    Return2222,
    Slope,
    SpectralTag,
    TwoDistinctIntegers,
    canonical_obstruction_2222,
    check_canonical_candidate,
    classify_multicurve,
    classify_orbifold,
    eigenvalue_classification,
    enumerate_slopes,
    exists_positive_subinvariant_vector,
    extract_simple_core,
    find_minimal_obstructions,
    find_obstruction_by_search,
    imprimitive_block_decomposition,
    imprimitivity_index,
    is_irreducible,
    is_primitive,
    is_simple_obstruction,
    leading_eigenvalue_interval,
    normalize,
    orbit_of_slope,
    power_positive_exponent,
    pullback_slope,
    thurston_matrix,
    wielandt_bound,
)

F = Fraction
INF = INFINITE_WEIGHT


def _verdict(number: int, label: str, elapsed: float, budget: float):
    status = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"ACCEPTANCE {number}: {status} in {elapsed:.2f}s (budget {budget:.0f}s) - {label}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def normalized_action_family(entry_bound=4, det_lo=2, det_hi=12):
    """All sign-normalized integer actions with the given entry and det ranges."""
    out = []
    for a, b, c, d in itertools.product(range(-entry_bound, entry_bound + 1), repeat=4):
        det = a * d - b * c
        if not det_lo <= det <= det_hi:
            continue
        trace = a + d
        if trace < 0:
            continue
        if trace == 0:
            first = next(x for x in (a, b, c, d) if x != 0)
            if first < 0:
                continue
        out.append(((a, b), (c, d)))
    return out


def test_criterion_1_signature_table():
    start = time.perf_counter()
    for sig in PARABOLIC_SIGNATURES:
        chi = F(2)
        for w in sig:
            chi -= 1 if w == INF else 1 - F(1, int(w))
        assert chi == 0
    squaring = CriticalPortrait(
        degree=2,
        points=(
            PortraitPoint("0", True, "0", 2),
            PortraitPoint("inf", True, "inf", 2),
        ),
    )
    sig = classify_orbifold(squaring)
    assert sig.kind == OrbifoldClass.PARABOLIC and sig.weights == (INF, INF)
    basilica = CriticalPortrait(
        degree=2,
        points=(
            PortraitPoint("0", True, "-1", 2),
            PortraitPoint("-1", True, "0", 1),
            PortraitPoint("inf", True, "inf", 2),
        ),
    )
    sig = classify_orbifold(basilica)
    assert sig.kind == OrbifoldClass.HYPERBOLIC and sig.chi == -1
    points = []
    for lbl in ("a", "b", "c", "d"):
        points.append(PortraitPoint(lbl, True, lbl, 1))
        points.append(PortraitPoint(lbl + "_pre", False, lbl, 2))
    lattes = CriticalPortrait(degree=4, points=tuple(points))
    sig = classify_orbifold(lattes)
    assert sig.kind == OrbifoldClass.PARABOLIC and sig.weights == (2, 2, 2, 2)
    _verdict(1, "six flat signatures and curated portraits", time.perf_counter() - start, 1.0)


def test_criterion_2_diagonal_eigenslope():
    start = time.perf_counter()
    for d1 in range(2, 7):
        for d2 in range(d1 + 1, 7):
            tmap = normalize([[d1, 0], [0, d2]])
            found = canonical_obstruction_2222(tmap)
            assert found is not None
            assert found.slope == Slope(1, 0)
            assert found.multiplier == F(d2, d1)
            pb = pullback_slope(tmap, found.slope)
            assert (pb.target, pb.component_count, pb.component_degree) == (
                Slope(1, 0),
                d2,
                d1,
            )
    _verdict(2, "diagonal actions return the d1-eigenslope", time.perf_counter() - start, 1.0)


def test_criterion_3_shear_orbit():
    start = time.perf_counter()
    for d in (2, 3):
        for b in (1, 2):
            tmap = normalize([[d, d * b], [0, d]])
            orbit = orbit_of_slope(tmap, Slope.of(0, 1), 10)
            assert orbit.cycle_start is None
            assert len(orbit.slopes) == 11
            for i, slope in enumerate(orbit.slopes):
                assert slope == Slope.of(-i * b, 1)
            for i in range(10):
                pb = pullback_slope(tmap, orbit.slopes[i])
                assert (pb.component_count, pb.component_degree) == (d, d)
            assert canonical_obstruction_2222(tmap) is None
    _verdict(3, "shear orbits move along (-i*b, 1) and stay unobstructed", time.perf_counter() - start, 1.0)


def test_criterion_4_covering_oracle_equivalence():
    start = time.perf_counter()
    family = normalized_action_family()
    slopes = list(enumerate_slopes(5))
    checked = 0
    for rows in family:
        tmap = normalize([list(rows[0]), list(rows[1])])
        assert tmap.matrix() == rows
        for slope in slopes:
            pb = pullback_slope(tmap, slope)
            target, g, d = covering_pullback_oracle(rows, slope.vector())
            assert (pb.target.vector(), pb.component_count, pb.component_degree) == (
                target,
                g,
                d,
            ), f"mismatch at action {rows}, slope {slope}"
            checked += 1
    assert checked == len(family) * len(slopes)
    _verdict(
        4,
        f"pullback matches the coset oracle on {checked} action/slope pairs",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_5_search_equivalence():
    start = time.perf_counter()
    family = normalized_action_family()
    for rows in family:
        tmap = normalize([list(rows[0]), list(rows[1])])
        found = obstruction_slope_by_scan(tmap, 8)
        assert find_obstruction_by_search(tmap, 8) == found, f"mismatch at action {rows}"
        two_distinct = isinstance(eigenvalue_classification(tmap), TwoDistinctIntegers)
        assert (found is not None) == two_distinct, f"mismatch at action {rows}"
        if found is not None:
            canonical = canonical_obstruction_2222(tmap)
            assert canonical is not None
            assert found.slope == canonical.slope
            assert found.multiplier == canonical.multiplier
    _verdict(
        5,
        f"slope search nonempty iff two distinct integer eigenvalues ({len(family)} actions)",
        time.perf_counter() - start,
        300.0,
    )


def _random_rational_matrix(rng, n):
    pool = [F(0), F(0), F(0), F(1), F(2), F(1, 2), F(1, 3), F(3, 2), F(2, 3)]
    return NonnegMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])


def test_criterion_6_subinvariant_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = _random_rational_matrix(rng, n)
        cert = exists_positive_subinvariant_vector(m)
        assert (cert is not None) == simple_by_exhaustion(m)
        if cert is not None:
            mv = [sum(m.rows[i][j] * cert[j] for j in range(n)) for i in range(n)]
            assert all(x > 0 for x in cert)
            assert all(a >= b for a, b in zip(mv, cert))
    _verdict(
        6,
        "certificate exists iff no reordering exposes a sub-1 leading block (500 matrices)",
        time.perf_counter() - start,
        120.0,
    )


def _random_irreducible(rng, n, values):
    while True:
        m = NonnegMatrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])
        if is_irreducible(m):
            return m


def test_criterion_7_positive_matrix_suite():
    start = time.perf_counter()
    rng = random.Random(777)

    # irreducible 0/1 with a positive diagonal entry: the (2n-2)-th power is positive
    count = 0
    while count < 500:
        n = rng.randint(2, 7)
        m = _random_irreducible(rng, n, (0, 1))
        if all(m.rows[i][i] == 0 for i in range(n)):
            continue
        k = power_positive_exponent(m)
        assert k is not None and k <= 2 * n - 2
        count += 1

    # primitive matrices reach a positive power within the Wielandt bound
    count = 0
    while count < 200:
        n = rng.randint(2, 6)
        m = _random_irreducible(rng, n, (0, 1))
        if not is_primitive(m):
            continue
        k = power_positive_exponent(m)
        assert k is not None and k <= wielandt_bound(n)
        count += 1

    # imprimitive decomposition: positive diagonal blocks, exact zeros outside,
    # and each block's eigenvalue bracket contains the full eigenvalue's power
    width = F(1, 10**6)
    count = 0
    while count < 200:
        n = rng.randint(1, 6)
        m = _random_irreducible(rng, n, (0, 1, 2))
        count += 1
        dec = imprimitive_block_decomposition(m)
        h = imprimitivity_index(m)
        assert dec.exponent % h == 0
        mk = m.pow(dec.exponent)
        perm = dec.permutation
        pos = 0
        for size, block in zip(dec.block_sizes, dec.blocks):
            assert block.is_positive()
            for i in range(size):
                for j in range(size):
                    assert mk.rows[perm[pos + i]][perm[pos + j]] == block.rows[i][j]
            pos += size
        index_block = {}
        pos = 0
        for bi, size in enumerate(dec.block_sizes):
            for i in range(size):
                index_block[perm[pos + i]] = bi
            pos += size
        for i in range(n):
            for j in range(n):
                if index_block[i] != index_block[j]:
                    assert mk.rows[i][j] == 0
        lo, hi = leading_eigenvalue_interval(m, width)
        assert lo > 0
        power_lo, power_hi = lo**dec.exponent, hi**dec.exponent
        for block in dec.blocks:
            blo, bhi = leading_eigenvalue_interval(block, width)
            assert max(blo, power_lo) <= min(bhi, power_hi), "eigenvalue brackets disjoint"
    _verdict(
        7,
        "positive-power, Wielandt, and cyclic-decomposition sweeps",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_8_analyzer_fixtures():
    start = time.perf_counter()
    levy = CurveTable(
        map_degree=2,
        classes=(
            CurveClass("g1", (PullbackComponent(1, "g2"),)),
            CurveClass("g2", (PullbackComponent(1, "g1"),)),
        ),
    )
    cls = classify_multicurve(levy, ["g1", "g2"])
    assert cls.spectral.tag is SpectralTag.EXACTLY_ONE
    assert cls.is_obstruction
    assert is_simple_obstruction(levy, ["g1", "g2"]) is not None
    assert find_minimal_obstructions(levy).multicurves == (("g1", "g2"),)

    half = CurveTable(
        map_degree=3,
        classes=(
            CurveClass("g1", (PullbackComponent(2, "g1"), PullbackComponent(1, "g2"))),
            CurveClass("g2", (PullbackComponent(1, "g2"),)),
        ),
    )
    assert thurston_matrix(half).rows == ((F(1, 2), F(0)), (F(1), F(1)))
    assert extract_simple_core(half, ["g1", "g2"]) == ("g2",)

    reject = check_canonical_candidate(
        levy,
        ["g1", "g2"],
        (DecompositionComponent(4, Return2222(((2, 0), (0, 3)))),),
    )
    assert not reject.accepted
    accept = check_canonical_candidate(
        levy,
        ["g1", "g2"],
        (
            DecompositionComponent(4, Return2222(((2, 2), (0, 2)))),
            DecompositionComponent(4, Return2222(((3, 6), (0, 3)))),
        ),
    )
    assert accept.accepted
    _verdict(8, "analyzer fixtures (Levy cycle, simple core, candidate checks)", time.perf_counter() - start, 1.0)
