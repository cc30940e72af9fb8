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
    squarefree_part_by_gcd,
    sturm_chain_by_division,
)
from thurston_obstruct.polynomials import (
    LargestRootIsolator,
    _pseudo_remainder,
    count_roots_between,
    derivative,
    poly,
    simplest_rational_between,
    squarefree_part,
    sturm_chain,
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


def test_squarefree_strips_multiplicity():
    p = mul(poly([F(-1), F(1)]), mul(poly([F(-1), F(1)]), poly([F(-5), F(1)])))
    sf = squarefree_part(sturm_chain(p))[0]
    assert evaluate(sf, F(1)) == 0
    assert evaluate(sf, F(5)) == 0
    assert evaluate(derivative(sf), F(1)) != 0


def test_sturm_counts_roots_of_quadratic():
    p = poly([F(-2), F(0), F(1)])  # x^2 - 2
    chain = sturm_chain(p)
    assert count_roots_between(chain, F(0), F(2)) == 1
    assert count_roots_between(chain, F(-2), F(2)) == 2
    assert count_roots_between(chain, F(3), F(4)) == 0


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_sturm_agrees_with_synthetic_roots(a, b, c):
    # polynomial with known integer roots a, b, c
    p = mul(mul(poly([F(-a), F(1)]), poly([F(-b), F(1)])), poly([F(-c), F(1)]))
    chain = squarefree_part(sturm_chain(p))
    lo, hi = F(-50), F(50)
    expected = len({r for r in (a, b, c) if lo < r < hi})
    assert count_roots_between(chain, lo, hi) == expected


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


def test_squarefree_part_rejects_a_chain_its_last_element_does_not_divide():
    with pytest.raises(ArithmeticError):
        squarefree_part([(1, 0, 1), (1, 1)])  # x^2 + 1 over x + 1


def test_count_roots_rejects_root_endpoints():
    p = poly([F(-1), F(0), F(1)])
    chain = sturm_chain(p)
    with pytest.raises(ValueError):
        count_roots_between(chain, F(1), F(2))


# ---------------------------------------------------------------------------
# the integer remainder sequence against the Fraction route

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def factored_polynomials(draw, perron=False):
    """c * prod (x - r)^k * prod q^k with q irreducible quadratics, and the
    roots with their multiplicities: ("rational", r), ("sqrt", s, sign) for
    +-sqrt(s), and ("complex", a) for a pair with real part a.

    Repeated factors make gcd(p, p') nontrivial; at least one real root.
    With ``perron``, every complex pair has real part at most the largest
    rational root, so at most the largest real root, equal to it included:
    the contract of ``LargestRootIsolator``, which every characteristic
    polynomial of a nonnegative matrix meets.
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
        elif perron:
            a = top - draw(st.sampled_from([F(0), F(1, 2), F(1), F(3)]))
            s = draw(st.sampled_from([F(1, 4), F(1), F(3)]))  # (x - a)^2 + s
            factors += [poly([a * a + s, -2 * a, 1])] * k
            roots[("complex", a)] += k
        else:
            b = draw(st.integers(-3, 3))
            c = draw(st.integers(b * b // 4 + 1, 6))  # b^2 < 4c: no real roots
            factors += [poly([c, b, 1])] * k
            roots[("complex", F(-b, 2))] += k
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


def _positive_multiple(q, r) -> bool:
    """q = c * r for some rational c > 0."""
    if not r:
        return not q
    return (
        len(q) == len(r)
        and (q[-1] > 0) == (r[-1] > 0)
        and all(a * r[-1] == b * q[-1] for a, b in zip(q, r))
    )


@given(factored_polynomials(perron=True), st.lists(small_rationals, max_size=6))
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


@given(factored_polynomials(perron=True), st.lists(small_rationals, max_size=6))
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
        if not iso._is_largest_root(x):  # the root itself cannot be separated from
            assert iso.refine_until_separated_from(x) == oracle.refine_until_separated_from(x), x


@given(factored_polynomials())
@settings(max_examples=150, deadline=None)
def test_chain_is_a_positive_multiple_of_the_fraction_chain(case):
    p, _ = case
    chain = sturm_chain(p)
    oracle = sturm_chain_by_division(p)
    assert len(chain) == len(oracle)
    assert all(_positive_multiple(q, r) for q, r in zip(chain, oracle))
    # the last element is gcd(p, p') up to a constant of either sign, and
    # dividing by it reaches the squarefree part
    g = gcd_poly(p, poly(derivative(p)))
    assert _positive_multiple(chain[-1], g) or _positive_multiple(tuple(-c for c in chain[-1]), g)
    assert _positive_multiple(squarefree_part(chain)[0], squarefree_part_by_gcd(p))


integer_polys = st.lists(st.integers(-30, 30), max_size=8).map(poly)


@given(integer_polys, integer_polys.filter(bool))
def test_pseudo_remainder_is_a_positive_multiple_of_the_fraction_remainder(a, b):
    prem = _pseudo_remainder(tuple(map(int, a)), tuple(map(int, b)))
    assert _positive_multiple(prem, divmod_poly(a, b)[1])
