"""Slope pullback dynamics of torus-quotient sphere maps.

A sphere map whose orbifold has signature (2,2,2,2) lifts to a torus
endomorphism; only the induced integer 2x2 homology action matters here.
Curves separating the four orbifold points two-and-two correspond to
primitive integer homology classes up to sign ("slopes"), and pulling a
curve back corresponds to an exact adjugate computation.  This module
decides, completely, whether such a map carries the distinguished
degenerating curve: it does exactly when the homology action has two
distinct integer eigenvalues.

Everything assumes exactly four marked points; extra marked points need
different techniques and are rejected upstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional, Union

from ._records import record
from .spectral import PreconditionError

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


@record
class Slope:
    """Primitive integer vector up to sign, normalized to q > 0 or (q = 0, p > 0)."""

    p: int
    q: int

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        if p == 0 and q == 0:
            raise PreconditionError("the zero vector is not a slope")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return Slope(p, q)

    def vector(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@record
class TorusQuotientMap:
    """Integer homology action of a torus-quotient map, sign-normalized.

    The action and its negative induce the same sphere map, so the trace
    is normalized to be nonnegative (with the first nonzero entry positive
    when the trace vanishes).  The determinant is the mapping degree.
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def degree(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def matrix(self) -> IntMatrix:
        return ((self.a, self.b), (self.c, self.d))

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def adjugate_apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.d * v[0] - self.b * v[1], -self.c * v[0] + self.a * v[1])

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def normalize(rows) -> TorusQuotientMap:
    """Canonical representative of a raw integer action matrix.

    Rejects determinants below 2: determinant 1 would be a homeomorphism
    lift and negative determinant an orientation-reversing one, neither a
    torus-quotient cover of degree >= 2.
    """
    try:
        (a, b), (c, d) = rows
    except (TypeError, ValueError) as exc:
        raise PreconditionError("action must be a 2x2 integer matrix") from exc
    if not all(type(x) is int for x in (a, b, c, d)):  # no Fraction, float, str or bool
        raise PreconditionError("action must be a 2x2 integer matrix")
    det = a * d - b * c
    if det < 2:
        raise PreconditionError(f"determinant must be at least 2, got {det}")
    trace = a + d
    flip = trace < 0
    if trace == 0:
        first = next((x for x in (a, b, c, d) if x != 0))
        flip = first < 0
    if flip:
        a, b, c, d = -a, -b, -c, -d
    return TorusQuotientMap(a, b, c, d)


@record
class SlopePullback:
    """Essential preimage picture of one curve class.

    The pulled-back curve has ``component_count`` essential preimage
    components, all homotopic to ``target``, each covering the original
    curve with degree ``component_degree``.
    """

    target: Slope
    component_count: int
    component_degree: int


def pullback_slope(tmap: TorusQuotientMap, v: Slope) -> SlopePullback:
    """Exact preimage combinatorics of the curve with slope v.

    The adjugate keeps everything in integers: with u = adj(A) v and
    g = gcd of u's entries, the preimage consists of g parallel copies of
    the slope u/g, each mapped with degree det(A)/g.
    """
    u = tmap.adjugate_apply(v.vector())
    g = gcd(abs(u[0]), abs(u[1]))
    target = Slope.of(u[0] // g, u[1] // g)
    return SlopePullback(
        target=target,
        component_count=g,
        component_degree=tmap.degree // g,
    )


def slope_multiplier(tmap: TorusQuotientMap, v: Slope) -> Fraction:
    """Thurston-matrix entry of the one-curve system {v}: g/d if v pulls back to itself."""
    pb = pullback_slope(tmap, v)
    if pb.target != v:
        return Fraction(0)
    return Fraction(pb.component_count, pb.component_degree)


@record
class TwoDistinctIntegers:
    d1: int
    d2: int


@record
class EqualIntegers:
    d: int


@record
class NonIntegerOrComplex:
    pass


EigenvalueClass = Union[TwoDistinctIntegers, EqualIntegers, NonIntegerOrComplex]


def eigenvalue_classification(tmap: TorusQuotientMap) -> EigenvalueClass:
    """Exact shape of the action's spectrum via the trace discriminant.

    A perfect-square positive discriminant gives two distinct integer
    eigenvalues (parities always match); after sign normalization both
    are positive and are reported in increasing order.
    """
    t, det = tmap.trace, tmap.degree
    disc = t * t - 4 * det
    if disc < 0:
        return NonIntegerOrComplex()
    if disc == 0:
        return EqualIntegers(t // 2)
    s = isqrt(disc)
    if s * s != disc:
        return NonIntegerOrComplex()
    return TwoDistinctIntegers((t - s) // 2, (t + s) // 2)


@record
class ObstructionSlope:
    """A curve fixed by pullback together with its one-curve matrix entry."""

    slope: Slope
    multiplier: Fraction


def canonical_obstruction_2222(tmap: TorusQuotientMap) -> Optional[ObstructionSlope]:
    """The degenerating curve of a four-marked-point torus-quotient map, if any.

    Nonempty exactly when the action has two distinct integer eigenvalues
    d1 < d2; the curve is the primitive eigenvector of d1 and its
    one-curve matrix entry is d2/d1 > 1.
    """
    cls = eigenvalue_classification(tmap)
    if not isinstance(cls, TwoDistinctIntegers):
        return None
    d1, d2 = cls.d1, cls.d2
    # primitive kernel vector of (A - d1 I); rank is 1, so one of the two
    # candidate rows is nonzero
    a, b, c, d = tmap.a, tmap.b, tmap.c, tmap.d
    if b != 0 or a - d1 != 0:
        vec = (-b, a - d1)
    else:
        vec = (d - d1, -c)
    slope = Slope.of(vec[0], vec[1])
    check = tmap.apply(slope.vector())
    if check != (d1 * slope.p, d1 * slope.q):  # pragma: no cover - algebra guarantee
        raise AssertionError("eigen-slope verification failed")
    return ObstructionSlope(slope=slope, multiplier=Fraction(d2, d1))


@record
class SlopeOrbit:
    """Forward pullback orbit of one slope.

    ``multipliers[i]`` is g/d for the step from slopes[i] to slopes[i+1];
    ``cycle_start`` is the index the final slope repeats, or None if the
    orbit stayed injective within the step budget.
    """

    slopes: tuple[Slope, ...]
    multipliers: tuple[Fraction, ...]
    cycle_start: Optional[int]


def orbit_of_slope(tmap: TorusQuotientMap, start: Slope, max_steps: int) -> SlopeOrbit:
    """Iterate pullback from ``start`` until a repeat or the step budget."""
    if max_steps < 1:
        raise PreconditionError("max_steps must be at least 1")
    slopes = [start]
    seen = {start: 0}
    ratios: list[Fraction] = []
    for _ in range(max_steps):
        pb = pullback_slope(tmap, slopes[-1])
        ratios.append(Fraction(pb.component_count, pb.component_degree))
        nxt = pb.target
        if nxt in seen:
            return SlopeOrbit(tuple(slopes + [nxt]), tuple(ratios), seen[nxt])
        seen[nxt] = len(slopes)
        slopes.append(nxt)
    return SlopeOrbit(tuple(slopes), tuple(ratios), None)


def enumerate_slopes(bound: int) -> Iterator[Slope]:
    """All normalized slopes with |p|, |q| <= bound, in a fixed total order."""
    if bound < 1:
        raise PreconditionError("bound must be at least 1")
    yield Slope(1, 0)
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                yield Slope(p, q)


def find_obstruction_by_search(tmap: TorusQuotientMap, bound: int) -> Optional[ObstructionSlope]:
    """The slope with |p|, |q| <= bound fixed by pullback with multiplier above 1.

    Decided in closed form: the answer is the canonical slope when
    ``enumerate_slopes(bound)`` contains it, and None otherwise.  A slope v
    is fixed by pullback exactly when A v = lam v; then adj(A) v =
    (det/lam) v, so the primitive v has g = det/lam preimages of degree
    lam, and its multiplier g/d = det/lam^2 exceeds 1 exactly when lam is
    the smaller of two distinct eigenvalues d1 < d2 (g = d2 > d1 = d).  A
    scalar action or a shear fixes slopes only with multiplier 1, and any
    other action fixes none.
    """
    if bound < 1:
        raise PreconditionError("search bound must be at least 1")
    found = canonical_obstruction_2222(tmap)
    if found is None or abs(found.slope.p) > bound or found.slope.q > bound:
        return None
    return found
