"""Orbifold signatures of finite critical portraits.

A critical portrait records a finite marked dynamical system: labelled
points with images and local degrees, marked points flagged.  From it the
minimal ramification weights are computed in one pass over the image map,
each point folded into its image after all its own preimages, and the
orbifold is classified as hyperbolic or parabolic through its exact Euler
characteristic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._records import record
from .spectral import PreconditionError

INFINITE_WEIGHT = math.inf

Weight = Union[int, float]  # an integer >= 2 or math.inf

#: The six weight multisets with Euler characteristic exactly zero.
PARABOLIC_SIGNATURES: tuple[tuple[Weight, ...], ...] = (
    (INFINITE_WEIGHT, INFINITE_WEIGHT),
    (2, 2, INFINITE_WEIGHT),
    (2, 4, 4),
    (2, 3, 6),
    (3, 3, 3),
    (2, 2, 2, 2),
)


@record
class PortraitPoint:
    label: str
    marked: bool
    image: str
    local_degree: int


@record
class CriticalPortrait:
    """Marked finite dynamics with local degrees.

    Listed points are the marked set together with any critical preimages
    worth tracking; preimages that are not listed are implicitly unmarked
    and unramified, so they never influence the ramification weights.
    """

    degree: int
    points: tuple[PortraitPoint, ...]

    def __post_init__(self):
        if self.degree < 2:
            raise PreconditionError("total degree must be at least 2")
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise PreconditionError("duplicate point labels")
        by_label = {p.label: p for p in self.points}
        total_branching = 0
        fiber_degree: dict[str, int] = {}
        for p in self.points:
            if p.local_degree < 1:
                raise PreconditionError(f"local degree of {p.label!r} must be >= 1")
            if p.local_degree > self.degree:
                raise PreconditionError(
                    f"local degree of {p.label!r} exceeds the total degree"
                )
            if p.image not in by_label:
                raise PreconditionError(f"image of {p.label!r} is not a listed point")
            total_branching += p.local_degree - 1
            fiber_degree[p.image] = fiber_degree.get(p.image, 0) + p.local_degree
        for p in self.points:
            img = by_label[p.image]
            if p.marked and not img.marked:
                raise PreconditionError("marked points must map to marked points")
            if p.local_degree >= 2 and not img.marked:
                raise PreconditionError("critical values must be marked")
            if fiber_degree.get(img.label, 0) > self.degree:
                raise PreconditionError(
                    f"listed preimages of {img.label!r} exceed the total degree"
                )
        if total_branching > 2 * self.degree - 2:
            raise PreconditionError("local degrees violate the branching budget")

    def point(self, label: str) -> PortraitPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(label)

    def marked_labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points if p.marked)

    def fiber(self, label: str) -> tuple[tuple[str, int], ...]:
        """Listed preimages of a point, with their mapping degrees."""
        return tuple((p.label, p.local_degree) for p in self.points if p.image == label)


def ramification_function(portrait: CriticalPortrait) -> dict[str, Weight]:
    """Minimal ramification weights of the portrait.

    Point x has the lcm of deg_y f^k, the product of the local degrees of
    y, f(y), ..., f^(k-1)(y), over every listed y and k >= 1 with
    f^k(y) = x (Douady & Hubbard, Acta Math. 171, 1993).  Grouped by
    z = f^(k-1)(y), that is the lcm over the listed preimages z of x of
    deg_z f times the weight of z, and 1 where nothing maps in.  So each
    point is folded into its image once all its own preimages are, in
    Kahn's order (Commun. ACM 5, 1962).  The points that order never
    reaches lie on cycles.  A cycle through a critical point has infinite
    weight throughout; any other has local degree 1 throughout, so each of
    its points gets the lcm of everything folded into the cycle.
    """
    points = portrait.points
    pos = {p.label: k for k, p in enumerate(points)}
    image = [pos[p.image] for p in points]
    weights: list[Weight] = [1] * len(points)
    waiting = Counter(image)  # listed preimages not yet folded into each point
    ready = [k for k in range(len(points)) if not waiting[k]]
    while ready:
        k = ready.pop()
        at = image[k]
        weights[at] = math.lcm(weights[at], points[k].local_degree * weights[k])
        waiting[at] -= 1
        if not waiting[at]:
            ready.append(at)
    for k in range(len(points)):
        if waiting[k]:  # k lies on a cycle not yet settled
            cycle = [k]
            while image[cycle[-1]] != k:
                cycle.append(image[cycle[-1]])
            critical = any(points[at].local_degree >= 2 for at in cycle)
            weight = INFINITE_WEIGHT if critical else math.lcm(*(weights[at] for at in cycle))
            for at in cycle:
                weights[at], waiting[at] = weight, 0
    return {p.label: w for p, w in zip(points, weights)}


def euler_characteristic(weights: Sequence[Weight]) -> Fraction:
    """2 - sum(1 - 1/w) over the weights, with 1 - 1/infinity = 1, exact.

    Every weight is checked before a ``Counter`` would merge 2.0 into 2 or True into 1;
    the sum then takes one term per distinct weight.
    """
    if any(w != INFINITE_WEIGHT and (not isinstance(w, int) or w < 2) for w in weights):
        raise PreconditionError("weights must be integers >= 2 or infinite")
    return Fraction(2) - sum(k if w == INFINITE_WEIGHT else k - Fraction(k, w) for w, k in Counter(weights).items())


class OrbifoldClass:
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    # positive Euler characteristic cannot arise from a genuine branched
    # cover portrait; it is surfaced for malformed input rather than hidden
    SPHERICAL_EXCEPTION = "spherical_exception"


@record
class OrbifoldSignature:
    weights: tuple[Weight, ...]
    chi: Fraction
    kind: str
    ramification: tuple[tuple[str, Weight], ...] = ()  # (label, weight) pairs, sorted by label

    @property
    def parabolic_signature(self) -> Optional[tuple[Weight, ...]]:
        return self.weights if self.kind == OrbifoldClass.PARABOLIC else None

    @property
    def is_2222(self) -> bool:
        """True for the torus-quotient signature (2,2,2,2)."""
        return self.kind == OrbifoldClass.PARABOLIC and self.weights == (2, 2, 2, 2)


def classify_orbifold(portrait: CriticalPortrait) -> OrbifoldSignature:
    """Signature and hyperbolic/parabolic classification of the portrait."""
    ram = ramification_function(portrait)
    marked = set(portrait.marked_labels())
    weights = tuple(sorted(w for lbl, w in ram.items() if lbl in marked and w > 1))
    chi = euler_characteristic(weights)
    if chi < 0:
        kind = OrbifoldClass.HYPERBOLIC
    elif chi == 0:
        kind = OrbifoldClass.PARABOLIC
        if weights not in PARABOLIC_SIGNATURES:  # pragma: no cover - impossible by Eq. enumeration
            raise AssertionError("flat signature outside the known list")
    else:
        kind = OrbifoldClass.SPHERICAL_EXCEPTION
    return OrbifoldSignature(weights=weights, chi=chi, kind=kind, ramification=tuple(sorted(ram.items())))


def is_2222(portrait: CriticalPortrait) -> bool:
    """True when the orbifold is the torus-quotient signature (2,2,2,2)."""
    return classify_orbifold(portrait).is_2222
