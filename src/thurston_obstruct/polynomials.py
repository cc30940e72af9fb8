"""Dense univariate polynomials with exact coefficients, and real root isolation.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  ``charpoly``
hands over rational (``Fraction``) coefficients; ``sturm_chain`` clears
them once, and from there on everything runs over the integers: one
primitive pseudo-remainder sequence per polynomial (Collins 1967; Brown &
Traub 1971) serves both as the Sturm chain and, through its last element
gcd(p, p'), as the squarefree reduction, and each sign test at a rational
a/b is the sign of the integer b^deg q(a/b).  All verdicts are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    """Build a polynomial from low-to-high coefficients, trimming zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def derivative(p):
    return tuple(i * c for i, c in enumerate(p) if i)


def _primitive(p) -> tuple[int, ...]:
    # Divide by a positive rational to reach coprime integer coefficients;
    # positive scaling keeps every sign test intact.
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _pseudo_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A positive multiple of the remainder of a by b, over the integers.

    Each elimination step scales the running remainder by |lc(b)| (over
    the gcd of the two leading coefficients), never by a negative number.
    """
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(rem) > db:
        lr = rem.pop()
        if lr:
            g = gcd(lb, lr)
            c, f = abs(lb) // g, (lr if lb > 0 else -lr) // g
            shift = len(rem) - db
            rem = [c * x for x in rem]
            for i, y in enumerate(b[:-1]):
                rem[shift + i] -= f * y
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def sturm_chain(p: Poly) -> list[tuple[int, ...]]:
    """Sturm sequence of p by primitive pseudo-remainders.

    The chain is p, p', then the negated remainders, each element a
    positive integer multiple of the Sturm remainder over the rationals,
    so every sign variation count is that of the classical chain.  The
    last element is gcd(p, p') up to a constant: a nonzero constant
    exactly when p is squarefree.
    """
    a = _primitive(p)
    chain = [a]
    b = derivative(a)
    while b:
        b = _primitive(b)
        chain.append(b)
        a, b = b, tuple(-c for c in _pseudo_remainder(a, b))
    return chain


def _exact_quotient(p: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # g is primitive and divides p, so the quotient is integral (Gauss)
    rem, quot = list(p), []
    while len(rem) >= len(g) and not rem[-1] % g[-1]:
        f = rem.pop() // g[-1]
        shift = len(rem) - len(g) + 1
        for i, y in enumerate(g[:-1]):
            rem[shift + i] -= f * y
        quot.append(f)
    if any(rem):
        raise ArithmeticError("squarefree division left a remainder")
    return tuple(reversed(quot))


def squarefree_part(chain: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The chain of ``sturm_chain(p)`` divided exactly by its last element.

    Every element is a multiple of g = gcd(p, p'), and the quotients form
    a Sturm sequence of the squarefree part p/g: each is a positive
    multiple of the element over g, and the first is the squarefree part
    itself up to a positive constant.
    """
    g = chain[-1]
    if len(g) <= 1:
        return chain
    if g[-1] < 0:
        g = tuple(-c for c in g)
    return [_exact_quotient(q, g) for q in chain]


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _signs_at(chain: list[tuple[int, ...]], x: Fraction) -> list[int]:
    """Signs of the chain at x = a/b, b > 0, as signs of b^deg q(a/b)."""
    a, b = x.numerator, x.denominator
    powers = [b**k for k in range(len(chain[0]))]
    signs = []
    for q in chain:
        d = len(q) - 1
        acc = q[d]
        for i in range(d - 1, -1, -1):
            acc = acc * a + q[i] * powers[d - i]
        signs.append((acc > 0) - (acc < 0))
    return signs


def count_roots_between(chain: list[tuple[int, ...]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of the chain's polynomial in (a, b).

    Requires a < b and that neither endpoint is a root, so the open
    interval count is unambiguous.
    """
    if not (a < b):
        raise ValueError("need a < b")
    at_a, at_b = _signs_at(chain, a), _signs_at(chain, b)
    if at_a[0] == 0 or at_b[0] == 0:
        raise ValueError("endpoints must not be roots")
    return _variations(at_a) - _variations(at_b)


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational in the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    # 0 < a/b <= c/d: strip the continued-fraction terms both endpoints
    # share, keeping the convergent so the answer is (p1*y + p0)/(q1*y + q0)
    # with y the simplest rational of the remaining interval
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        f = a // b
        if f * b == a:
            y = f
            break
        if (f + 1) * d <= c:
            y = f + 1
            break
        # y = f + 1/y' with y' in [1/(hi - f), 1/(lo - f)]
        p1, p0, q1, q0 = p1 * f + p0, p1, q1 * f + q0, q1
        a, b, c, d = d, c - f * d, b, a - f * b
    return Fraction(p1 * y + p0, q1 * y + q0)


class LargestRootIsolator:
    """Exact bisection for the largest real root of a polynomial.

    An immutable value built once per polynomial: the Sturm sequence of
    its squarefree part (one integer remainder sequence, see
    ``sturm_chain`` and ``squarefree_part``), the sign variations ``v_inf``
    of the chain's leading coefficients, the start bracket, and the number
    ``above_lo`` of distinct roots above its lower end.  With zeros
    dropped, the sign variations at x minus ``v_inf`` count the distinct
    real roots in (x, +inf) for every rational x, a root or not (Sturm).
    Every query bisects from the start bracket, so answers never depend on
    earlier queries.  The caller must supply rational bounds lo < hi such
    that the largest real root lies in (lo, hi] and p(lo) != 0.
    """

    __slots__ = ("chain", "v_inf", "lo", "hi", "above_lo")

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        if degree(p) < 1:
            raise ValueError("need a nonconstant polynomial")
        self.chain = squarefree_part(sturm_chain(p))
        self.v_inf = _variations([1 if q[-1] > 0 else -1 for q in self.chain])
        self.lo = lo
        self.hi = hi
        lo_is_root, self.above_lo = self._probe(lo)
        if lo_is_root:
            raise ValueError("lower bound must not be a root")
        if self.above_lo <= self._probe(hi)[1]:
            raise ValueError("no real root in the given range")

    def _probe(self, x: Fraction) -> tuple[bool, int]:
        """Whether x is a root, and the number of distinct roots in (x, +inf)."""
        signs = _signs_at(self.chain, x)
        return signs[0] == 0, _variations(signs) - self.v_inf

    def _is_largest_root(self, x: Fraction) -> bool:
        return self._probe(x) == (True, 0)

    def _bisect(self, done) -> tuple[Fraction, Fraction]:
        """Bisect the start bracket until ``done(lo, hi)``; exact roots snap to points."""
        lo, hi, above = self.lo, self.hi, self.above_lo
        if self._is_largest_root(hi):
            return (hi, hi)
        top, lead = self.chain[:1], 1 if self.chain[0][-1] > 0 else -1
        while not done(lo, hi):
            mid = (lo + hi) / 2
            if above == 1:
                # the largest root alone is above lo, simple in the squarefree chain[0],
                # which has the sign of its leading coefficient above it and the other below
                sign = _signs_at(top, mid)[0]
                is_root, count = sign == 0, int(sign == -lead)
            else:
                is_root, count = self._probe(mid)
            if count:
                lo, above = mid, count
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
