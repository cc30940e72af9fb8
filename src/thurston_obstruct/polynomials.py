"""Dense univariate polynomials over exact rationals.

Polynomials are tuples of Fractions, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Everything here is exact:
root counting goes through Sturm chains and all verdicts are sign tests on
rational numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Poly = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def poly(coeffs) -> Poly:
    """Build a polynomial from low-to-high coefficients, trimming zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: p = quot * q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - dq)
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return poly(quot), poly(rem)


def _primitive(p: Poly) -> Poly:
    # Divide by a positive rational to reach coprime integer coefficients;
    # positive scaling keeps every sign test intact.
    if not p:
        return p
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v // g) for v in ints)


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = _primitive(p), _primitive(q)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, _primitive(r)
    if not a:
        return ()
    return scale(a, ONE / a[-1])


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), normalized to the same leading sign."""
    if degree(p) <= 0:
        return p
    g = gcd_poly(p, derivative(p))
    if degree(g) == 0:
        return p
    q, r = divmod_poly(p, g)
    if r:
        raise ArithmeticError("squarefree division left a remainder")
    return q


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of a squarefree polynomial.

    Each element is rescaled by a positive rational to keep coefficients
    small; this leaves sign variation counts unchanged.
    """
    chain = [_primitive(p)]
    d = derivative(p)
    if d:
        chain.append(_primitive(d))
    while chain[-1] and degree(chain[-1]) > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive(neg(r)))
    return chain


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _signs_at(chain: list[Poly], x: Fraction) -> list[int]:
    signs = []
    for q in chain:
        v = evaluate(q, x)
        signs.append(0 if v == 0 else (1 if v > 0 else -1))
    return signs


def variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations(_signs_at(chain, x))


def count_roots_between(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of real roots of the chain's polynomial in (a, b).

    Requires a < b and that neither endpoint is a root, so the open
    interval count is unambiguous.
    """
    p = chain[0]
    if not (a < b):
        raise ValueError("need a < b")
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise ValueError("endpoints must not be roots")
    return variations_at(chain, a) - variations_at(chain, b)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Rational B with every complex root of p inside |z| < B."""
    if degree(p) < 1:
        return ONE
    lead = abs(p[-1])
    return ONE + max(abs(c) / lead for c in p[:-1])


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational in the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    # 0 < lo <= hi: strip continued-fraction terms shared by both endpoints.
    f = lo.numerator // lo.denominator
    if f >= lo:
        return Fraction(f)
    if f + 1 <= hi:
        return Fraction(f + 1)
    inner = simplest_rational_between(1 / (hi - f), 1 / (lo - f))
    return f + 1 / inner


class LargestRootIsolator:
    """Exact bisection for the largest real root of a polynomial.

    An immutable value built once per polynomial: the squarefree part
    ``sf``, its Sturm chain, the sign variations ``v_inf`` of the chain's
    leading coefficients, and the start bracket.  With zeros dropped,
    ``variations_at(chain, x) - v_inf`` is the number of distinct real
    roots in (x, +inf) for every rational x, a root or not (Sturm), so
    each bisection step evaluates the chain once.  Every query bisects
    from the start bracket, so answers never depend on earlier queries.
    The caller must supply rational bounds lo < hi such that the largest
    real root lies in (lo, hi] and p(lo) != 0.
    """

    __slots__ = ("sf", "chain", "v_inf", "lo", "hi")

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        if degree(p) < 1:
            raise ValueError("need a nonconstant polynomial")
        self.sf = squarefree_part(p)
        self.chain = sturm_chain(self.sf)
        self.v_inf = _variations([1 if q[-1] > 0 else -1 for q in self.chain])
        self.lo = lo
        self.hi = hi
        lo_is_root, above_lo = self._probe(lo)
        if lo_is_root:
            raise ValueError("lower bound must not be a root")
        if above_lo <= self._probe(hi)[1]:
            raise ValueError("no real root in the given range")

    def _probe(self, x: Fraction) -> tuple[bool, int]:
        """Whether x is a root, and the number of distinct roots in (x, +inf)."""
        signs = _signs_at(self.chain, x)
        return signs[0] == 0, _variations(signs) - self.v_inf

    def _is_largest_root(self, x: Fraction) -> bool:
        return self._probe(x) == (True, 0)

    def _bisect(self, done) -> tuple[Fraction, Fraction]:
        """Bisect the start bracket until ``done(lo, hi)``; exact roots snap to points."""
        lo, hi = self.lo, self.hi
        if self._is_largest_root(hi):
            return (hi, hi)
        while not done(lo, hi):
            mid = (lo + hi) / 2
            is_root, above = self._probe(mid)
            if above:
                lo = mid
            elif is_root:
                return (mid, mid)
            else:
                hi = mid
        # snap to the simplest rational in the bracket if it is the root itself
        cand = simplest_rational_between(lo, hi)
        if lo < cand and self._is_largest_root(cand):
            return (cand, cand)
        return (lo, hi)

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A bracket of width at most ``width``; exact roots snap to points."""
        if width <= 0:
            raise ValueError("width must be positive")
        return self._bisect(lambda lo, hi: hi - lo <= width)

    def refine_until_separated_from(self, point: Fraction) -> tuple[Fraction, Fraction]:
        """A bracket whose closure excludes ``point``.

        The caller must know the root differs from ``point``; the loop then
        terminates because bisection converges to the root.  A start bracket
        that already excludes ``point`` is returned as it is, unless its upper
        end is the root.
        """
        if not self.lo <= point <= self.hi and not self._is_largest_root(self.hi):
            return (self.lo, self.hi)
        return self._bisect(lambda lo, hi: not lo <= point <= hi)
