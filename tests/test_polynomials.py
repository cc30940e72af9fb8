from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    FractionRootIsolator,
    cauchy_root_bound,
    divmod_poly,
    evaluate,
    gcd_poly,
    mul,
    roots_strictly_above,
    simplest_rational_by_recursion,
)
from thurston_obstruct.polynomials import (
    LargestRootIsolator,
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
    iso = LargestRootIsolator(p, F(-3), F(3))
    lo, hi = iso.refine_to_width(F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert lo * lo <= 2 <= hi * hi


def test_isolator_snaps_rational_root():
    p = poly([F(-6), F(1), F(1)])  # (x+3)(x-2)
    iso = LargestRootIsolator(p, F(-10), F(10))
    assert iso.refine_to_width(F(1, 100)) == (F(2), F(2))


def test_isolator_root_at_upper_bound():
    p = poly([F(-2), F(1)])
    iso = LargestRootIsolator(p, F(-3), F(2))
    assert iso.refine_to_width(F(1)) == (F(2), F(2))


def test_isolator_separates_from_point():
    p = poly([F(-2), F(0), F(1)])
    iso = LargestRootIsolator(p, F(-3), F(3))
    lo, hi = iso.refine_until_separated_from(F(1))
    assert lo > 1


def test_simplest_rational():
    assert simplest_rational_between(F(15, 8), F(33, 16)) == 2
    assert simplest_rational_between(F(3, 2), F(5, 3)) == F(3, 2)
    assert simplest_rational_between(F(-1, 3), F(1, 7)) == 0
    assert simplest_rational_between(F(-7, 2), F(-10, 3)) == F(-7, 2)


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


@given(factored_polynomials(), st.lists(small_rationals, max_size=6))
@settings(max_examples=150, deadline=None)
def test_isolator_probes_match_fraction_sturm_oracle(case, points):
    # the sign variations V(x) of the Fourier sequence against the Sturm
    # count over Fractions, at the rational roots and the complex pairs'
    # real parts too
    p, roots = case
    bound = cauchy_root_bound(p)
    iso = LargestRootIsolator(p, -bound, bound)
    rational_roots = [r[1] for r in roots if r[0] == "rational"]
    real_parts = [r[1] for r in roots if r[0] == "complex"]
    for x in points + rational_roots + real_parts + [-bound, bound]:
        is_root, variations = iso._probe(x)
        above = sum(k for r, k in roots.items() if _above(r, x))  # with multiplicity
        assert is_root == (evaluate(p, x) == 0) == (x in rational_roots), x
        # V(x) > 0 exactly when the largest real root lies above x
        assert (variations > 0) == (roots_strictly_above(p, x) > 0) == (above > 0), x
        # Descartes on p(x + t): V(x) exceeds the roots above x by an even number,
        # so V(x) = 1 only when exactly one root, counted with multiplicity, is above x
        assert variations >= above and (variations - above) % 2 == 0, x
        assert variations != 1 or above == 1, x


BISECTION_WIDTHS = (F(4), F(1), F(1, 7), F(1, 1000), F(1, 10**9))


@given(factored_polynomials(), st.lists(small_rationals, max_size=6))
@settings(max_examples=150, deadline=None)
def test_sign_only_bisection_matches_the_full_chain_route(case, points):
    # several distinct roots and repeated factors: the full-sequence phase runs
    # before the single-sign one, and the Sturm chain over Fractions probes
    # every step of the same midpoints
    p, _ = case
    bound = cauchy_root_bound(p)
    iso, oracle = LargestRootIsolator(p, -bound, bound), FractionRootIsolator(p, -bound, bound)
    for width in BISECTION_WIDTHS:
        assert iso.refine_to_width(width) == oracle.refine_to_width(width), width
    for x in points + [-bound, F(0), bound]:
        if oracle.probe(x) == (True, 0):  # the root itself cannot be separated from
            with pytest.raises(ValueError):
                iso.refine_until_separated_from(x)
        else:
            assert iso.refine_until_separated_from(x) == oracle.refine_until_separated_from(x), x
