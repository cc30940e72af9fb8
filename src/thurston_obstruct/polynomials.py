"""Dense univariate polynomials with exact coefficients, and real root isolation.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  ``charpoly``
hands over rational (``Fraction``) coefficients.  ``LargestRootIsolator``
clears them once and maps its start bracket [lo, hi] onto [0, 1], as in
the unit-interval step of Descartes-method isolators (Collins & Akritas,
SYMSAC 1976): the primitive integer q(t) = c p(lo + (hi - lo) t), c > 0,
is the polynomial it keeps for each p it walks, and from there on
everything runs over the integers.  One Taylor shift, ``_taylor``, builds q and decides every
probe that needs more than q's sign: the Taylor coefficients of q at t
have the signs of q, q', ..., q^(n) at t, so of p, p', ..., p^(n) at
x = lo + (hi - lo) t, and their sign variations bound the real roots above
x (Descartes' rule of signs; Budan-Fourier).  Bisection probes only
t = m / 2^k; where q's sign alone decides, it is that of the integer
2^(k deg) q(m / 2^k), Horner's rule with shifts.  A ``Fraction`` is built only for a returned bracket
and for the snap to an exact root.  All verdicts are exact.

``sturm_chain``, ``squarefree_part`` and ``count_roots_between`` are
stubs that raise: the Sturm route is only the bracket oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    """Build a polynomial from low-to-high coefficients, trimming zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _as_fraction(value, what: str) -> Fraction:
    """``value`` as a ``Fraction``; a float, which carries no exact rational, raises ``TypeError``."""
    if isinstance(value, float):
        raise TypeError(f"floating-point {what} are not accepted")
    return value if type(value) is Fraction else Fraction(value)


def _primitive(p) -> tuple[int, ...]:
    # Divide by a positive rational to reach coprime integer coefficients;
    # positive scaling keeps every sign test intact.
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _root_and_variations(values: list[int]) -> tuple[bool, int]:
    """Whether the first value is 0, and the sign variations of the nonzero ones."""
    seq = [v > 0 for v in values if v]
    return values[0] == 0, sum(x != y for x, y in zip(seq, seq[1:]))


def _value(q: tuple[int, ...], a: int, b: int) -> int:
    """b^deg q(a/b) for b > 0: Horner's rule with a running power of b."""
    acc, power = q[-1], 1
    for c in q[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return acc


def _dyadic_value(q: tuple[int, ...], m: int, shift: int) -> int:
    """2^(shift deg q) q(m / 2^shift): Horner's rule with the powers of 2 as shifts."""
    acc, s = q[-1], 0
    for c in q[-2::-1]:
        s += shift
        acc = acc * m + (c << s)
    return acc


def _frame(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """Integers (A, E, B), B > 0, with x = (A + E t) / B taking t in [0, 1] onto [lo, hi]."""
    width = hi - lo
    den = lcm(lo.denominator, width.denominator)
    return lo.numerator * (den // lo.denominator), width.numerator * (den // width.denominator), den


def _level(frame: tuple[int, int, int], width: Fraction) -> int:
    """The least bisection level whose cells, E / (B 2^level) wide, are at most ``width``."""
    _, e, b = frame
    return (-(-e * width.denominator // (b * width.numerator)) - 1).bit_length()


def _taylor(q: tuple[int, ...], a: int, b: int) -> list[int]:
    """The coefficients of b^d q((a + y) / b) in y for b > 0, lowest first.

    b^d q((a + y) / b) = r(a + y) for the integer r(z) = sum q_i b^(d-i) z^i
    (plain powers, also for a midpoint's b = 2^k): one Taylor shift by the
    integer a, in d(d+1)/2 multiply-adds (Horner's scheme; von zur Gathen &
    Gerhard, ISSAC 1997).  Coefficient j is b^(d-j) q^(j)(a/b) / j!, so it
    has the sign of q^(j) at a/b.
    """
    d = len(q) - 1
    r = [c * b ** (d - i) for i, c in enumerate(q)]
    for i in range(d):
        acc = r[d]
        for j in range(d - 1, i - 1, -1):
            acc = r[j] = r[j] + a * acc
    return r


def _on_unit_interval(p: Poly, frame: tuple[int, int, int]) -> tuple[int, ...]:
    """The primitive integer q with q(t) = c p((A + E t) / B) for one c > 0: y = E t in ``_taylor``."""
    a, e, b = frame
    q = [c * e**i for i, c in enumerate(_taylor(_primitive(p), a, b))]
    g = gcd(*q)
    return tuple(c // g for c in q)


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
    """Exact bisection for the largest real root rho of one or more polynomials.

    The contract: every complex root of each polynomial p has real part at
    most p's largest real root, as every eigenvalue z of a nonnegative matrix
    has (Perron-Frobenius: Re z <= |z| <= rho).  Built once, it keeps one
    integer polynomial per p: the q of ``_on_unit_interval``, a positive
    multiple of p(lo + (hi - lo) t).  V at t counts the sign variations of
    the Taylor coefficients of q(t + y), positive multiples of those of
    p(x + s) at x = lo + (hi - lo) t, where
    p(x + s) = c * prod (s + x - r) * prod ((s + x - a)^2 + b^2) over the
    real roots r and the complex pairs a +- bi.  For x at or above p's
    largest real root r_p every factor but c has nonnegative coefficients,
    so V(x) = 0, and p(x) = 0 exactly when x = r_p; for x < r_p, p(x + s)
    has the positive root r_p - x, so V(x) >= 1, and V(x) = 1 means r_p is
    simple and the only real root above x (Descartes' rule of signs).  rho
    is the largest r_p: it lies above x exactly when some V(x) > 0, and is x
    when no V(x) is and some p(x) = 0.  A matrix's rho is the largest over
    its strongly connected blocks, each with a polynomial of its own.

    Every query walks the one bisection path from the start bracket.  Its
    state at level s is ``(s, k, *V(k / 2^s))``, one V per polynomial, for
    the cell (k / 2^s, (k + 1) / 2^s] of t, or ``(s, k, 0, ...)`` for the
    point k / 2^s once a midpoint is rho, so a probe needs integers only; a
    polynomial is probed by its sign alone while its V is 1, and no more
    once its V is 0.  The cells are nested, so the deepest state walked is
    the one kept: the cell at a shallower level l is k >> (s - l).  It is only ever replaced whole by a
    deeper one: a query probes only past what earlier ones walked, threads
    that race on one isolator can at most repeat steps, and no answer
    depends on the order of queries.  The caller must supply rational
    bounds lo < hi such that rho lies in (lo, hi] and no p(lo) is 0.
    """

    __slots__ = ("qs", "lo", "hi", "_frame", "_deepest")

    def __init__(self, polys: Sequence[Poly], lo: Fraction, hi: Fraction):
        """``polys``: one or more polynomials, rational or integer coefficients, lowest degree first."""
        if not polys or any(len(p) < 2 for p in polys):
            raise ValueError("need a nonconstant polynomial")
        if not lo < hi:
            raise ValueError("no real root in the given range")
        self._frame = _frame(lo, hi)
        self.qs = tuple(_on_unit_interval(p, self._frame) for p in polys)
        self.lo, self.hi = lo, hi
        roots, at_lo = zip(*(_root_and_variations(list(q)) for q in self.qs))
        if any(roots):
            raise ValueError("lower bound must not be a root")
        root, *at_hi = self._probe_at(1, 1)
        if all(v <= w for v, w in zip(at_lo, at_hi)):  # Budan-Fourier: no root in (lo, hi]
            raise ValueError("no real root in the given range")
        self._deepest = (0, 1, *at_hi) if root and not any(at_hi) else (0, 0, *at_lo)

    def _t(self, x: Fraction) -> tuple[int, int]:
        """t = (B x - A) / E of x, as a numerator and a positive denominator, unreduced."""
        a, e, b = self._frame
        return b * x.numerator - a * x.denominator, e * x.denominator

    def _x(self, k: int, level: int) -> Fraction:
        a, e, b = self._frame
        return Fraction((a << level) + e * k, b << level)

    def _probe_at(self, a: int, b: int) -> tuple:
        """Whether t = a/b is a root of some q, then each q's V there: rho lies above when one is positive."""
        probes = [_root_and_variations(_taylor(q, a, b)) for q in self.qs]
        return (any(root for root, _ in probes), *(v for _, v in probes))

    def _is_largest_root(self, a: int, b: int) -> bool:
        """Whether t = a/b is rho: the q alone first, every sign only at a root of one of them."""
        return any(not _value(q, a, b) for q in self.qs) and not any(self._probe_at(a, b)[1:])

    def _step(self, level: int, k: int, above: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """The path's state after ``(k, above)`` at ``level``: one probe of each live q at the midpoint."""
        mid, shift = 2 * k + 1, level + 1
        is_root, after = False, []
        for q, v in zip(self.qs, above):
            if v == 1:
                # V = 1 at the cell's lower end: q's largest root alone is above it, and simple,
                # so q has the sign of its leading coefficient above that root and the other below
                value = _dyadic_value(q, mid, shift)
                is_root, v = is_root or not value, int(value < 0 if q[-1] > 0 else value > 0)
            elif v:
                root, v = _root_and_variations(_taylor(q, mid, 1 << shift))
                is_root = is_root or root
            after.append(v)
        return (mid, tuple(after)) if is_root or any(after) else (2 * k, above)

    def _bisect(self, done) -> tuple[Fraction, Fraction]:
        """Walk the path to its first state with ``done(level, k)``; exact roots snap to points.

        Shallower cells are read off the kept state by a shift; only deeper levels are probed.
        """
        deepest, k, *above = self._deepest
        level = next((s for s in range(deepest) if done(s, k >> deepest - s)), deepest)
        if level < deepest:
            k, above = k >> deepest - level, (True,)
        above = tuple(above)
        while any(above) and not done(level, k):
            k, above = self._step(level, k, above)
            level += 1
        if level > self._deepest[0]:
            self._deepest = (level, k, *above)
        lo = self._x(k, level)
        hi = self._x(k + 1, level) if any(above) else lo
        # snap to the simplest rational in the bracket if it is the root itself
        cand = simplest_rational_between(lo, hi)
        if lo < cand and self._is_largest_root(*self._t(cand)):
            return (cand, cand)
        return (lo, hi)

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A bracket of width at most ``width``; exact roots snap to points.  A float raises ``TypeError``."""
        width = _as_fraction(width, "widths")
        if width <= 0:
            raise ValueError("width must be positive")
        stop = _level(self._frame, width)
        return self._bisect(lambda level, k: level >= stop)

    def refine_until_separated_from(self, point: Fraction) -> tuple[Fraction, Fraction]:
        """A bracket whose closure excludes ``point``.

        A start bracket that already excludes ``point`` is returned as it is,
        unless its upper end is the root.  Raises ``ValueError`` when ``point``
        is the root itself, which no bracket excludes; otherwise bisection
        converges to the root and so ends.  A float raises ``TypeError``.
        """
        point = _as_fraction(point, "points")
        level, _, *above = self._deepest
        if not self.lo <= point <= self.hi and (level or any(above)):  # the start state is a cell
            return (self.lo, self.hi)
        a, b = self._t(point)
        if self._is_largest_root(a, b):
            raise ValueError("point is the largest root")
        return self._bisect(lambda level, k: not k * b <= a << level <= (k + 1) * b)
