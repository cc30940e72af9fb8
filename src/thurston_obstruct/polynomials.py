"""Dense univariate polynomials with exact coefficients, and real root isolation.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  ``charpoly``
hands over rational (``Fraction``) coefficients; ``LargestRootIsolator``
clears them once, and from there on everything runs over the integers:
its Fourier sequence is the primitive integer p and its successive
derivatives, and each sign test at a rational a/b is the sign of the
integer b^deg q(a/b).  The signs of p, p', ..., p^(n) at x are those of
the Taylor coefficients of p(x + t), so their sign variations bound the
real roots above x (Descartes' rule of signs; Budan-Fourier; Collins &
Akritas, SYMSAC 1976).  All verdicts are exact.

``sturm_chain``, ``squarefree_part`` and ``count_roots_between`` are
stubs that raise: the Sturm route is only the bracket oracle in
``tests/oracles.py``.
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


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _signs_at(chain: list[tuple[int, ...]], x: Fraction) -> list[int]:
    """Signs of the chain at x = a/b, b > 0, as signs of b^deg q(a/b)."""
    a, b = x.numerator, x.denominator
    powers = [1]
    for _ in range(len(chain[0]) - 1):
        powers.append(powers[-1] * b)
    signs = []
    for q in chain:
        d = len(q) - 1
        acc = q[d]
        for i in range(d - 1, -1, -1):
            acc = acc * a + q[i] * powers[d - i]
        signs.append((acc > 0) - (acc < 0))
    return signs


# The Sturm route is the bracket oracle in tests/oracles.py; bench/spans.py looks
# these three names up with getattr, so they stay as stubs no program path calls.
def sturm_chain(p):
    raise NotImplementedError("see sturm_chain_by_division in tests/oracles.py")


def squarefree_part(chain):
    raise NotImplementedError("see squarefree_part_by_gcd in tests/oracles.py")


def count_roots_between(chain, a, b):
    raise NotImplementedError("see count_roots_by_evaluation in tests/oracles.py")


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
    """Exact bisection for the largest real root rho of a polynomial p.

    The contract: every complex root of p has real part at most rho, as
    every eigenvalue z of a nonnegative matrix has (Perron-Frobenius:
    Re z <= |z| <= rho).  Built once per polynomial: the Fourier sequence
    p, p', ..., p^(n) of the primitive integer p and the start bracket.
    With zeros dropped, the variations V(x) at x are those of the Taylor
    coefficients of p(x + t) = c * prod (t + x - r) * prod ((t + x - a)^2
    + b^2) over the real roots r and the complex pairs a +- bi.  For
    x >= rho every factor but c has nonnegative coefficients, so V(x) = 0,
    and p(x) = 0 exactly when x = rho; for x < rho, p(x + t) has the
    positive root rho - x, so V(x) >= 1, and V(x) = 1 means rho is simple
    and the only real root above x (Descartes' rule of signs).  Every query
    walks the one bisection path from the start bracket, whose states
    ``(lo, hi, V(lo))``, or ``(rho, rho, 0)`` once a midpoint is rho, are
    kept in a tuple only ever replaced whole by a longer one: a query probes
    only past what earlier ones walked, threads that race on one isolator
    can at most repeat steps, and no answer depends on the order of
    queries.  The caller must supply rational bounds lo < hi such that rho
    lies in (lo, hi] and p(lo) != 0.
    """

    __slots__ = ("chain", "lo", "hi", "_path")

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        if degree(p) < 1:
            raise ValueError("need a nonconstant polynomial")
        self.chain = [_primitive(p)]
        while len(self.chain[-1]) > 1:
            self.chain.append(derivative(self.chain[-1]))
        self.lo = lo
        self.hi = hi
        lo_is_root, above_lo = self._probe(lo)
        if lo_is_root:
            raise ValueError("lower bound must not be a root")
        at_hi = self._probe(hi)
        if above_lo <= at_hi[1]:  # Budan-Fourier: no root in (lo, hi]
            raise ValueError("no real root in the given range")
        self._path = ((hi, hi, 0) if at_hi == (True, 0) else (lo, hi, above_lo),)

    def _probe(self, x: Fraction) -> tuple[bool, int]:
        """Whether x is a root, and V(x), positive exactly when rho lies above x."""
        signs = _signs_at(self.chain, x)
        return signs[0] == 0, _variations(signs)

    def _is_largest_root(self, x: Fraction) -> bool:
        # rho lies in the closure of every state of the path, and is its last one's once hit
        lo, hi, _ = self._path[-1]
        return lo <= x <= hi and (lo == hi or self._probe(x) == (True, 0))

    def _step(self, lo: Fraction, hi: Fraction, above: int) -> tuple[Fraction, Fraction, int]:
        """The path's state after ``(lo, hi, above)``: one probe at the midpoint."""
        mid = (lo + hi) / 2
        if above == 1:
            # V(lo) = 1: rho alone is above lo, and simple, so p has the sign of
            # its leading coefficient above rho and the other sign in (lo, rho)
            sign = _signs_at(self.chain[:1], mid)[0]
            is_root, count = sign == 0, int(sign == (-1 if self.chain[0][-1] > 0 else 1))
        else:
            is_root, count = self._probe(mid)
        if count:
            return (mid, hi, count)
        return (mid, mid, 0) if is_root else (lo, mid, above)

    def _bisect(self, done) -> tuple[Fraction, Fraction]:
        """Walk the path to its first state with ``done(lo, hi)``; exact roots snap to points."""
        path, k = list(self._path), 0
        lo, hi, above = path[0]
        while lo < hi and not done(lo, hi):
            k += 1
            if k == len(path):
                path.append(self._step(lo, hi, above))
            lo, hi, above = path[k]
        if len(path) > len(self._path):
            self._path = tuple(path)
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

        A start bracket that already excludes ``point`` is returned as it is,
        unless its upper end is the root.  Raises ``ValueError`` when ``point``
        is the root itself, which no bracket excludes; otherwise bisection
        converges to the root and so ends.
        """
        if not self.lo <= point <= self.hi and self._path[0][0] < self._path[0][1]:
            return (self.lo, self.hi)
        if self._is_largest_root(point):
            raise ValueError("point is the largest root")
        return self._bisect(lambda lo, hi: not lo <= point <= hi)
