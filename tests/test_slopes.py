import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    box_coset_pullback_oracle,
    covering_pullback_oracle,
    obstruction_slope_by_scan,
)
from thurston_obstruct import (
    EqualIntegers,
    NonIntegerOrComplex,
    PreconditionError,
    Slope,
    TwoDistinctIntegers,
    canonical_obstruction_2222,
    eigenvalue_classification,
    enumerate_slopes,
    find_obstruction_by_search,
    normalize,
    orbit_of_slope,
    pullback_slope,
    slope_multiplier,
)

F = Fraction


def test_slope_normalization():
    assert Slope.of(-2, 4) == Slope(-1, 2)
    assert Slope.of(2, -4) == Slope(-1, 2)
    assert Slope.of(-3, 0) == Slope(1, 0)
    with pytest.raises(PreconditionError):
        Slope.of(0, 0)


def test_normalize_examples():
    assert normalize([[-2, 0], [0, -3]]).matrix() == ((2, 0), (0, 3))
    assert normalize([[2, 1], [0, 2]]).matrix() == ((2, 1), (0, 2))
    with pytest.raises(PreconditionError):
        normalize([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        normalize([[0, 1], [1, 0]])  # determinant -1
    # an entry that is not an int is refused, never truncated or converted
    for entry in ("two", "3", Fraction(5, 2), Fraction(2), 2.9, 2.0, True, None):
        with pytest.raises(PreconditionError, match="^action must be a 2x2 integer matrix$"):
            normalize([[2, 0], [0, entry]])
    # nor is any shape but 2x2: too many columns, a ragged row, a bare int
    for rows in ([[2, 0, 1], [0, 3, 1]], [[2, 0], [3]], 2):
        with pytest.raises(PreconditionError, match="^action must be a 2x2 integer matrix$"):
            normalize(rows)


def test_pullback_examples():
    t = normalize([[2, 0], [0, 3]])
    pb = pullback_slope(t, Slope.of(1, 0))
    assert (pb.target, pb.component_count, pb.component_degree) == (Slope(1, 0), 3, 2)
    pb = pullback_slope(t, Slope.of(0, 1))
    assert (pb.target, pb.component_count, pb.component_degree) == (Slope(0, 1), 2, 3)
    sh = normalize([[2, 2], [0, 2]])
    pb = pullback_slope(sh, Slope.of(0, 1))
    assert (pb.target, pb.component_count, pb.component_degree) == (Slope(-1, 1), 2, 2)


def test_multiplier_examples():
    t = normalize([[2, 0], [0, 3]])
    assert slope_multiplier(t, Slope.of(1, 0)) == F(3, 2)
    assert slope_multiplier(t, Slope.of(0, 1)) == F(2, 3)
    assert slope_multiplier(normalize([[2, 2], [0, 2]]), Slope.of(0, 1)) == 0


def test_eigenvalue_classification_examples():
    assert eigenvalue_classification(normalize([[2, 0], [0, 3]])) == TwoDistinctIntegers(2, 3)
    assert eigenvalue_classification(normalize([[2, 2], [0, 2]])) == EqualIntegers(2)
    assert eigenvalue_classification(normalize([[1, -1], [1, 1]])) == NonIntegerOrComplex()


def test_canonical_obstruction_examples():
    found = canonical_obstruction_2222(normalize([[2, 0], [0, 3]]))
    assert found is not None
    assert found.slope == Slope(1, 0)
    assert found.multiplier == F(3, 2)
    assert canonical_obstruction_2222(normalize([[2, 2], [0, 2]])) is None
    assert canonical_obstruction_2222(normalize([[0, -2], [1, 0]])) is None


def test_orbit_examples():
    sh = normalize([[2, 2], [0, 2]])
    orbit = orbit_of_slope(sh, Slope.of(0, 1), 4)
    assert orbit.slopes == (Slope(0, 1), Slope(-1, 1), Slope(-2, 1), Slope(-3, 1), Slope(-4, 1))
    assert orbit.cycle_start is None
    assert set(orbit.multipliers) == {F(1)}
    t = normalize([[2, 0], [0, 3]])
    fixed = orbit_of_slope(t, Slope.of(1, 0), 5)
    assert fixed.cycle_start == 0
    assert fixed.slopes == (Slope(1, 0), Slope(1, 0))
    fixed2 = orbit_of_slope(t, Slope.of(0, 1), 5)
    assert fixed2.cycle_start == 0
    with pytest.raises(PreconditionError, match="^max_steps must be at least 1$"):
        orbit_of_slope(t, Slope.of(1, 0), 0)


def test_orbit_two_cycle():
    # purely rotational spectrum: horizontal and vertical slopes swap
    t = normalize([[0, -2], [1, 0]])
    orbit = orbit_of_slope(t, Slope.of(1, 0), 10)
    assert orbit.slopes == (Slope(1, 0), Slope(0, 1), Slope(1, 0))
    assert orbit.cycle_start == 0
    assert orbit.multipliers == (F(1, 2), F(2))


def test_search_examples():
    found = find_obstruction_by_search(normalize([[2, 0], [0, 3]]), 5)
    assert found is not None and found.slope == Slope(1, 0) and found.multiplier == F(3, 2)
    assert find_obstruction_by_search(normalize([[2, 2], [0, 2]]), 5) is None
    assert find_obstruction_by_search(normalize([[1, -1], [1, 1]]), 5) is None
    # the canonical slope -3/1 lies in the box |p|, |q| <= 3 but not in the one for 2
    mirrored = normalize([[0, -6], [1, 5]])
    assert find_obstruction_by_search(mirrored, 2) is None
    assert find_obstruction_by_search(mirrored, 3) == canonical_obstruction_2222(mirrored)
    assert canonical_obstruction_2222(mirrored).slope == Slope(-3, 1)


def test_search_ignores_multiplier_one_fixed_slopes():
    # scalar actions fix every slope with ratio exactly 1; none degenerates
    assert find_obstruction_by_search(normalize([[2, 0], [0, 2]]), 5) is None


def test_enumerate_slopes_deterministic_and_primitive():
    slopes = list(enumerate_slopes(3))
    assert slopes[0] == Slope(1, 0)
    assert len(set(slopes)) == len(slopes)
    from math import gcd

    for s in slopes:
        assert gcd(abs(s.p), abs(s.q)) == 1
        assert s.q > 0 or (s.q == 0 and s.p > 0)
    with pytest.raises(PreconditionError, match="^bound must be at least 1$"):
        next(enumerate_slopes(0))


raw_actions = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
).filter(lambda t: t[0] * t[3] - t[1] * t[2] >= 2)

slope_vectors = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda t: t != (0, 0)
)


@given(raw_actions, slope_vectors)
@settings(max_examples=200, deadline=None)
def test_pullback_invariants(raw, vec):
    tmap = normalize([[raw[0], raw[1]], [raw[2], raw[3]]])
    v = Slope.of(*vec)
    pb = pullback_slope(tmap, v)
    assert pb.component_count * pb.component_degree == tmap.degree
    image = tmap.apply(pb.target.vector())
    d = pb.component_degree
    assert image in ((d * v.p, d * v.q), (-d * v.p, -d * v.q))


@given(raw_actions, slope_vectors)
@settings(max_examples=100, deadline=None)
def test_pullback_sign_invariance(raw, vec):
    a, b, c, d = raw
    v = Slope.of(*vec)
    plus = pullback_slope(normalize([[a, b], [c, d]]), v)
    minus = pullback_slope(normalize([[-a, -b], [-c, -d]]), v)
    assert plus == minus


_UNIMODULAR = (
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, -1), (1, 0)),
)


def _mat_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _inverse_unimodular(u):
    (a, b), (c, d) = u
    det = a * d - b * c
    assert det in (1, -1)
    return ((d // det, -b // det), (-c // det, a // det))


@given(raw_actions, slope_vectors, st.lists(st.sampled_from(_UNIMODULAR), max_size=3))
@settings(max_examples=150, deadline=None)
def test_pullback_unimodular_equivariance(raw, vec, word):
    u = ((1, 0), (0, 1))
    for gen in word:
        u = _mat_mul(u, gen)
    a_rows = ((raw[0], raw[1]), (raw[2], raw[3]))
    conj = _mat_mul(_mat_mul(u, a_rows), _inverse_unimodular(u))
    tmap = normalize([list(a_rows[0]), list(a_rows[1])])
    tmap_c = normalize([list(conj[0]), list(conj[1])])
    v = Slope.of(*vec)
    uv = Slope.of(u[0][0] * v.p + u[0][1] * v.q, u[1][0] * v.p + u[1][1] * v.q)
    pb = pullback_slope(tmap, v)
    pb_c = pullback_slope(tmap_c, uv)
    uw = Slope.of(
        u[0][0] * pb.target.p + u[0][1] * pb.target.q,
        u[1][0] * pb.target.p + u[1][1] * pb.target.q,
    )
    assert pb_c.target == uw
    assert (pb_c.component_count, pb_c.component_degree) == (
        pb.component_count,
        pb.component_degree,
    )


def test_eigen_slope_fixed_point():
    # conjugates of triangular actions with spectrum {d1, d2}, d1 < d2
    words = [(), (_UNIMODULAR[0],), (_UNIMODULAR[1], _UNIMODULAR[2]), (_UNIMODULAR[2], _UNIMODULAR[0])]
    for d1 in (1, 2, 3):
        for d2 in range(d1 + 1, 5):
            for k in (-2, 0, 1):
                for sign in (1, -1):
                    for word in words:
                        u = ((1, 0), (0, 1))
                        for gen in word:
                            u = _mat_mul(u, gen)
                        tri = ((sign * d1, k), (0, sign * d2))
                        conj = _mat_mul(_mat_mul(u, tri), _inverse_unimodular(u))
                        tmap = normalize([list(conj[0]), list(conj[1])])
                        cls = eigenvalue_classification(tmap)
                        assert cls == TwoDistinctIntegers(d1, d2)
                        found = canonical_obstruction_2222(tmap)
                        assert found is not None
                        pb = pullback_slope(tmap, found.slope)
                        assert pb.target == found.slope
                        assert (pb.component_count, pb.component_degree) == (cls.d2, cls.d1)
                        assert found.multiplier == F(cls.d2, cls.d1) > 1


@given(raw_actions, slope_vectors)
@settings(max_examples=120, deadline=None)
def test_pullback_matches_covering_oracle(raw, vec):
    tmap = normalize([[raw[0], raw[1]], [raw[2], raw[3]]])
    v = Slope.of(*vec)
    pb = pullback_slope(tmap, v)
    target, g, d = covering_pullback_oracle(tmap.matrix(), v.vector())
    assert (pb.target.vector(), pb.component_count, pb.component_degree) == (target, g, d)


def test_pullback_matches_box_coset_oracle():
    # the literal coset-enumeration oracle is slow; spot-check a small family
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if not 2 <= a * d - b * c <= 6:
            continue
        tmap = normalize([[a, b], [c, d]])
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        if (p, q) == (0, 0):
            continue
        v = Slope.of(p, q)
        pb = pullback_slope(tmap, v)
        target, g, dd = box_coset_pullback_oracle(tmap.matrix(), v.vector())
        assert (pb.target.vector(), pb.component_count, pb.component_degree) == (target, g, dd)
        checked += 1


@given(raw_actions, st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_search_closed_form_matches_scan_oracle(raw, bound):
    tmap = normalize([[raw[0], raw[1]], [raw[2], raw[3]]])
    assert find_obstruction_by_search(tmap, bound) == obstruction_slope_by_scan(tmap, bound)
