import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ramification_by_backward_paths
from thurston_obstruct import (
    INFINITE_WEIGHT,
    PARABOLIC_SIGNATURES,
    CriticalPortrait,
    OrbifoldClass,
    PortraitPoint,
    PreconditionError,
    classify_orbifold,
    euler_characteristic,
    is_2222,
    ramification_function,
)
from thurston_obstruct.cli import main

F = Fraction
INF = INFINITE_WEIGHT


def squaring_portrait():
    return CriticalPortrait(
        degree=2,
        points=(
            PortraitPoint("0", True, "0", 2),
            PortraitPoint("inf", True, "inf", 2),
        ),
    )


def basilica_portrait():
    return CriticalPortrait(
        degree=2,
        points=(
            PortraitPoint("0", True, "-1", 2),
            PortraitPoint("-1", True, "0", 1),
            PortraitPoint("inf", True, "inf", 2),
        ),
    )


#: a <-> b unramified, c -> a and d -> c of local degree 2: the weight 4 reaches b only by a lap from a
LAP_PORTRAIT_DOC = {
    "schema": "thurston-obstruct/portrait/1",
    "degree": 3,
    "points": [
        {"id": "a", "marked": True, "image": "b", "local_degree": 1},
        {"id": "b", "marked": True, "image": "a", "local_degree": 1},
        {"id": "c", "marked": True, "image": "a", "local_degree": 2},
        {"id": "d", "marked": True, "image": "c", "local_degree": 2},
    ],
}


def four_fixed_portrait():
    points = []
    for lbl in ("a", "b", "c", "d"):
        points.append(PortraitPoint(lbl, True, lbl, 1))
        points.append(PortraitPoint(lbl + "_pre", False, lbl, 2))
    return CriticalPortrait(degree=4, points=tuple(points))


def test_ramification_squaring():
    ram = ramification_function(squaring_portrait())
    assert ram == {"0": INF, "inf": INF}


def test_ramification_basilica():
    ram = ramification_function(basilica_portrait())
    assert ram == {"0": INF, "-1": INF, "inf": INF}


def test_ramification_travels_around_a_finite_cycle(capsys):
    points = tuple(
        PortraitPoint(p["id"], p["marked"], p["image"], p["local_degree"])
        for p in LAP_PORTRAIT_DOC["points"]
    )
    ram = ramification_function(CriticalPortrait(degree=3, points=points))
    assert ram == {"a": 4, "b": 4, "c": 2, "d": 1}
    assert main(["orbifold", "--format", "json", json.dumps(LAP_PORTRAIT_DOC)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["ramification"] == {"a": 4, "b": 4, "c": 2, "d": 1}
    assert result["weights"] == [2, 4, 4]
    assert result["class"] == "parabolic"


def test_ramification_four_fixed():
    ram = ramification_function(four_fixed_portrait())
    for lbl in ("a", "b", "c", "d"):
        assert ram[lbl] == 2
        assert ram[lbl + "_pre"] == 1


@st.composite
def portraits(draw):
    """Random portraits of 1-8 points, each valid by construction.

    Images, local degrees and marks are drawn freely.  Then every critical
    value is marked, the marks are closed under the image map, and the
    degree is the least valid one plus a drawn 0-4, so no draw is rejected.
    """
    n = draw(st.integers(1, 8))
    drawn = [
        (
            draw(st.sampled_from([True, True, True, False])),
            draw(st.integers(0, n - 1)),
            draw(st.sampled_from([1, 1, 1, 2, 3])),
        )
        for _ in range(n)
    ]
    marked = {k for k, (mark, _, _) in enumerate(drawn) if mark}
    marked |= {image for _, image, local in drawn if local >= 2}
    frontier = list(marked)
    while frontier:
        image = drawn[frontier.pop()][1]
        if image not in marked:
            marked.add(image)
            frontier.append(image)
    fiber = [0] * n
    for _, image, local in drawn:
        fiber[image] += local
    branching = sum(local - 1 for _, _, local in drawn)
    least = max(2, max(fiber), (branching + 3) // 2)  # a fiber sum bounds each local degree
    points = tuple(
        PortraitPoint(str(k), k in marked, str(image), local)
        for k, (_, image, local) in enumerate(drawn)
    )
    return CriticalPortrait(least + draw(st.integers(0, 4)), points)


@given(portraits())
@settings(max_examples=300, deadline=None)
def test_ramification_matches_backward_paths(portrait):
    assert ramification_function(portrait) == ramification_by_backward_paths(portrait)


def test_euler_characteristic_values():
    assert euler_characteristic((2, 4, 4)) == 0
    assert euler_characteristic((INF, INF)) == 0
    assert euler_characteristic((2, 3, 7)) == F(-1, 42)
    with pytest.raises(PreconditionError, match=r"^weights must be integers >= 2 or infinite$"):
        euler_characteristic((2, 1))


def test_classification_examples():
    sig = classify_orbifold(squaring_portrait())
    assert sig.kind == OrbifoldClass.PARABOLIC
    assert sig.weights == (INF, INF)
    assert sig.chi == 0

    sig = classify_orbifold(basilica_portrait())
    assert sig.kind == OrbifoldClass.HYPERBOLIC
    assert sig.chi == -1

    sig = classify_orbifold(four_fixed_portrait())
    assert sig.kind == OrbifoldClass.PARABOLIC
    assert sig.weights == (2, 2, 2, 2)


def test_is_2222():
    assert is_2222(four_fixed_portrait())
    assert not is_2222(squaring_portrait())
    assert not is_2222(basilica_portrait())


def test_all_six_signatures_are_flat():
    for sig in PARABOLIC_SIGNATURES:
        assert euler_characteristic(sig) == 0


def test_no_other_flat_signature_exists():
    # exhaustive search over weight multisets: any flat multiset is one of the six
    universe = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, INF]
    found = set()
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(universe, size):
            if euler_characteristic(combo) == 0:
                found.add(combo)
    assert found == set(PARABOLIC_SIGNATURES)


def test_minimality_of_weights():
    # replacing any finite weight by a proper divisor breaks divisibility
    # at that point's own fiber
    for portrait in (four_fixed_portrait(),):
        ram = ramification_function(portrait)
        for point in portrait.points:
            w = ram[point.label]
            if w == INF or w == 1:
                continue
            for m in range(1, int(w)):
                if int(w) % m != 0:
                    continue
                violated = any(
                    m % (int(ram[pre]) * deg) != 0
                    for pre, deg in portrait.fiber(point.label)
                    if ram[pre] != INF
                )
                assert violated


def test_fixpoint_idempotent():
    for portrait in (squaring_portrait(), basilica_portrait(), four_fixed_portrait()):
        ram = ramification_function(portrait)
        for point in portrait.points:
            if not point.marked or ram[point.label] == INF:
                continue
            value = 1
            for pre, deg in portrait.fiber(point.label):
                assert ram[pre] != INF
                lcm_arg = int(ram[pre]) * deg
                value = value * lcm_arg // __import__("math").gcd(value, lcm_arg)
            assert value == ram[point.label]


def test_spherical_exception_flagged():
    # a single critical point with marked fixed image, no other ramification:
    # weights (2,), chi = 3/2 > 0, impossible for genuine covers
    portrait = CriticalPortrait(
        degree=3,
        points=(
            PortraitPoint("v", True, "v", 1),
            PortraitPoint("c", False, "v", 2),
        ),
    )
    sig = classify_orbifold(portrait)
    assert sig.kind == OrbifoldClass.SPHERICAL_EXCEPTION
    assert sig.chi > 0


def test_portrait_validation():
    with pytest.raises(PreconditionError):
        CriticalPortrait(degree=1, points=(PortraitPoint("x", True, "x", 1),))
    with pytest.raises(PreconditionError):
        # critical value unmarked
        CriticalPortrait(
            degree=2,
            points=(PortraitPoint("x", False, "x", 2),),
        )
    with pytest.raises(PreconditionError):
        # marked image unmarked
        CriticalPortrait(
            degree=2,
            points=(
                PortraitPoint("x", True, "y", 1),
                PortraitPoint("y", False, "y", 1),
            ),
        )
    with pytest.raises(PreconditionError):
        # fiber degree budget exceeded
        CriticalPortrait(
            degree=2,
            points=(
                PortraitPoint("x", True, "x", 2),
                PortraitPoint("y", False, "x", 2),
            ),
        )
    with pytest.raises(PreconditionError):
        # image outside the listed points
        CriticalPortrait(degree=2, points=(PortraitPoint("x", True, "gone", 1),))
    with pytest.raises(PreconditionError):
        # branching budget: too many critical points for the degree
        CriticalPortrait(
            degree=2,
            points=(
                PortraitPoint("a", True, "a", 2),
                PortraitPoint("b", True, "b", 2),
                PortraitPoint("c", True, "c", 2),
            ),
        )
