from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    FractionRootIsolator,
    _homogeneous_value,
    cauchy_root_bound,
    degree,
    divmod_poly,
    evaluate,
    fourier_sign_count,
    gcd_poly,
    mul,
    roots_strictly_above,
    simplest_rational_by_recursion,
)
from thurston_obstruct.polynomials import (
    LargestRootIsolator,
    _dyadic_value,
    _frame,
    _on_unit_interval,
    _value,
    poly,
    simplest_rational_between,
)

F = Fraction


def test_divmod_reconstructs():
    p = poly([F(1), F(-3), F(0), F(2)])
    q = poly([F(-1), F(1)])
    quot, rem = divmod_poly(p, q)
    recon = [a + b for a, b in zip(list(mul(quot, q)) + [F(0)] * 4, list(rem) + [F(0)] * 4)]
    assert poly(recon) == p


def test_gcd_of_shared_factor():
    shared = poly([F(-2), F(1)])  # x - 2
    p = mul(shared, poly([F(1), F(1)]))
    q = mul(shared, poly([F(3), F(0), F(1)]))
    assert gcd_poly(p, q) == shared


def test_isolator_finds_sqrt2():
    p = poly([F(-2), F(0), F(1)])
    iso = LargestRootIsolator([p], F(-3), F(3))
    lo, hi = iso.refine_to_width(F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert lo * lo <= 2 <= hi * hi


def test_isolator_snaps_rational_root():
    p = poly([F(-6), F(1), F(1)])  # (x+3)(x-2)
    iso = LargestRootIsolator([p], F(-10), F(10))
    assert iso.refine_to_width(F(1, 100)) == (F(2), F(2))


def test_isolator_root_at_upper_bound():
    p = poly([F(-2), F(1)])
    iso = LargestRootIsolator([p], F(-3), F(2))
    assert iso.refine_to_width(F(1)) == (F(2), F(2))


def test_isolator_separates_from_point():
    p = poly([F(-2), F(0), F(1)])
    iso = LargestRootIsolator([p], F(-3), F(3))
    lo, hi = iso.refine_until_separated_from(F(1))
    assert lo > 1


def test_isolator_refuses_float_widths_and_points():
    # a float carries no exact rational: 0.1 would be read as 3602879701896397/2^55
    iso = LargestRootIsolator([poly([F(-2), F(0), F(1)])], F(-3), F(3))
    with pytest.raises(TypeError, match="^floating-point widths are not accepted$"):
        iso.refine_to_width(0.1)
    with pytest.raises(TypeError, match="^floating-point points are not accepted$"):
        iso.refine_until_separated_from(0.5)
    assert iso.refine_until_separated_from(1) == iso.refine_until_separated_from(F(1))


def test_isolator_refuses_a_width_of_zero():
    iso = LargestRootIsolator([poly([F(-2), F(0), F(1)])], F(-3), F(3))
    with pytest.raises(ValueError, match="^width must be positive$"):
        iso.refine_to_width(0)


@pytest.mark.parametrize(
    "polys, lo, hi, message",
    [
        ([], F(-3), F(3), "need a nonconstant polynomial"),
        ([poly([F(2)])], F(-3), F(3), "need a nonconstant polynomial"),
        ([poly([F(-2), F(1)]), poly([F(1)])], F(-3), F(3), "need a nonconstant polynomial"),
        ([poly([F(-2), F(1)])], F(3), F(3), "no real root in the given range"),
        ([poly([F(-2), F(1)])], F(3), F(-3), "no real root in the given range"),
        ([poly([F(-6), F(1), F(1)])], F(-3), F(3), "lower bound must not be a root"),  # (x+3)(x-2)
        ([poly([F(-2), F(1)])], F(-3), F(1), "no real root in the given range"),  # x - 2 above (-3, 1]
    ],
)
def test_isolator_refuses_brackets_outside_its_contract(polys, lo, hi, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LargestRootIsolator(polys, lo, hi)


def test_simplest_rational():
    assert simplest_rational_between(F(15, 8), F(33, 16)) == 2
    assert simplest_rational_between(F(3, 2), F(5, 3)) == F(3, 2)
    assert simplest_rational_between(F(-1, 3), F(1, 7)) == 0
    assert simplest_rational_between(F(-7, 2), F(-10, 3)) == F(-7, 2)
    with pytest.raises(ValueError, match="^empty interval$"):
        simplest_rational_between(F(1), F(0))


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
    st.fractions(min_value=0, max_value=5, max_denominator=50).filter(lambda x: x > 0),
)
def test_simplest_rational_lies_inside(lo, width):
    hi = lo + width
    r = simplest_rational_between(lo, hi)
    assert lo <= r <= hi
    # nothing simpler fits: every rational with a smaller denominator misses
    for den in range(1, r.denominator):
        k = (lo * den).__ceil__()
        assert not (lo <= F(k, den) <= hi) or F(k, den) == r


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
    st.fractions(min_value=0, max_value=3, max_denominator=10**12),
)
def test_simplest_rational_matches_recursive_oracle(lo, width):
    assert simplest_rational_between(lo, lo + width) == simplest_rational_by_recursion(lo, lo + width)


def test_simplest_rational_between_consecutive_fibonacci_ratios():
    # consecutive convergents of the golden ratio share about 2100
    # continued-fraction terms, more than one call each would fit on the stack
    fib = [0, 1]
    while len(fib) < 2101:
        fib.append(fib[-1] + fib[-2])
    ratios = F(fib[2100], fib[2099]), F(fib[2099], fib[2098])
    expected = F(fib[2099], fib[2098])  # the smaller denominator of two adjacent convergents
    assert simplest_rational_between(min(ratios), max(ratios)) == expected
    assert simplest_rational_between(-max(ratios), -min(ratios)) == -expected


# ---------------------------------------------------------------------------
# the Fourier-sequence isolator against the Sturm route over Fractions

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def factored_polynomials(draw):
    """c * prod (x - r)^k * prod q^k with q irreducible quadratics, and the
    roots with their multiplicities: ("rational", r), ("sqrt", s, sign) for
    +-sqrt(s), and ("complex", a) for a pair with real part a.

    Repeated factors make gcd(p, p') nontrivial; at least one real root.
    Every complex pair has real part at most the largest rational root, so
    at most the largest real root, equal to it included: the contract of
    ``LargestRootIsolator``, which every characteristic polynomial of a
    nonnegative matrix meets.
    """
    factors, roots = [], Counter()
    for _ in range(draw(st.integers(1, 4))):
        r, k = draw(small_rationals), draw(st.integers(1, 3))
        factors += [poly([-r, 1])] * k
        roots[("rational", r)] += k
    top = max(r[1] for r in roots)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 2))
        if draw(st.booleans()):
            s = draw(st.sampled_from([2, 3, 5, 6, 7]))  # x^2 - s, real and irrational roots
            factors += [poly([-s, 0, 1])] * k
            roots[("sqrt", s, 1)] += k
            roots[("sqrt", s, -1)] += k
        else:
            a = top - draw(st.sampled_from([F(0), F(1, 2), F(1), F(3)]))
            s = draw(st.sampled_from([F(1, 4), F(1), F(3)]))  # (x - a)^2 + s
            factors += [poly([a * a + s, -2 * a, 1])] * k
            roots[("complex", a)] += k
    p = poly([draw(small_rationals.filter(bool))])
    for q in factors:
        p = mul(p, q)
    return p, roots


def _above(root, x: Fraction) -> bool:
    """Whether a real root lies above x; a complex pair never does."""
    if root[0] != "sqrt":
        return root[0] == "rational" and root[1] > x
    _, s, sign = root
    return x < 0 or x * x < s if sign > 0 else x < 0 and x * x > s


@given(
    factored_polynomials(),
    st.lists(small_rationals, max_size=6),
    st.lists(st.tuples(st.integers(0, 2**80), st.integers(0, 80)), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_isolator_probes_match_fraction_sturm_oracle(case, points, dyadic):
    # the sign variations V(x) of one Taylor shift of q against the Sturm
    # count over Fractions, at the rational roots and the complex pairs'
    # real parts too, and against q's derivative chain evaluated member by member
    p, roots = case
    bound = cauchy_root_bound(p)
    iso = LargestRootIsolator([p], -bound, bound)
    (q,) = iso.qs  # one polynomial
    # t = 0 and t = 1 as the constructor reads them: q's own coefficients, and one shift
    at_lo, at_hi = fourier_sign_count(q, F(0)), fourier_sign_count(q, F(1))
    assert iso._deepest == ((0, 1, 0) if at_hi == (True, 0) else (0, 0, at_lo[1]))
    rational_roots = [r[1] for r in roots if r[0] == "rational"]
    real_parts = [r[1] for r in roots if r[0] == "complex"]
    probes = [(x, iso._t(x)) for x in points + rational_roots + real_parts + [-bound, bound]]
    # bisection midpoints t = mid / 2^(s+1), with the integers the multi-sign step passes;
    # there the shifted Horner value of the single-sign step is the general one
    for m, s in dyadic:
        mid = 2 * (m % (1 << s)) + 1
        probes.append((-bound + 2 * bound * F(mid, 2 << s), (mid, 2 << s)))
        assert _dyadic_value(q, mid, s + 1) == _value(q, mid, 2 << s)
    for x, (a, b) in probes:
        # b^deg q(a/b) for the unreduced a/b: g^deg times its value at the reduced one
        g = b // F(a, b).denominator
        assert _value(q, a, b) == g ** (len(q) - 1) * _homogeneous_value(q, F(a, b)), x
        is_root, variations = iso._probe_at(a, b)
        assert (is_root, variations) == fourier_sign_count(q, F(a, b)), x
        above = sum(k for r, k in roots.items() if _above(r, x))  # with multiplicity
        assert is_root == (evaluate(p, x) == 0) == (x in rational_roots), x
        # V(x) > 0 exactly when the largest real root lies above x
        assert (variations > 0) == (roots_strictly_above(p, x) > 0) == (above > 0), x
        # Descartes on p(x + t): V(x) exceeds the roots above x by an even number,
        # so V(x) = 1 only when exactly one root, counted with multiplicity, is above x
        assert variations >= above and (variations - above) % 2 == 0, x
        assert variations != 1 or above == 1, x


BISECTION_WIDTHS = (F(4), F(1), F(1, 7), F(1, 1000), F(1, 10**9), F(1, 10**60), F(1, 2**200))


@given(factored_polynomials(), st.lists(small_rationals, max_size=6))
@settings(max_examples=150, deadline=None)
def test_sign_only_bisection_matches_the_full_chain_route(case, points):
    # several distinct roots and repeated factors: the full-sequence phase runs
    # before the single-sign one, and the Sturm chain over Fractions probes
    # every step of the same midpoints
    p, roots = case
    bound = cauchy_root_bound(p)
    iso, oracle = LargestRootIsolator([p], -bound, bound), FractionRootIsolator(p, -bound, bound)
    for width in BISECTION_WIDTHS:
        assert iso.refine_to_width(width) == oracle.refine_to_width(width), width
    # 10^-50 off a root: about 170 halvings before the bracket excludes the point
    near = [r[1] + d for r in roots if r[0] == "rational" for d in (F(1, 10**50), -F(1, 10**50))]
    for x in points + near + [-bound, F(0), bound]:
        if oracle.probe(x) == (True, 0):  # the root itself cannot be separated from
            with pytest.raises(ValueError):
                iso.refine_until_separated_from(x)
        else:
            assert iso.refine_until_separated_from(x) == oracle.refine_until_separated_from(x), x


@given(
    factored_polynomials(),
    st.fractions(min_value=-8, max_value=8, max_denominator=10**6),
    st.fractions(min_value=0, max_value=20, max_denominator=10**6).filter(lambda x: x > 0),
    st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=10**9), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_unit_interval_polynomial_is_a_positive_multiple_of_p(case, lo, width, ts):
    # q(t) = c * p(lo + width * t) with one c > 0, read off the leading coefficients,
    # and q primitive: the isolator's probes take the signs of p and its derivatives
    p, _ = case
    q = _on_unit_interval(p, _frame(lo, lo + width))
    assert len(q) == len(p) and all(type(c) is int for c in q) and gcd(*q) == 1
    c = q[-1] / (p[-1] * width ** degree(p))
    assert c > 0
    for t in ts + [F(0), F(1)]:
        assert evaluate(poly(q), t) == c * evaluate(p, lo + width * t), t
