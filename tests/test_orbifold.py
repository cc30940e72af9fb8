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


def test_ramification_along_a_long_chain():
    # p0 (local degree 2) -> p1 -> ... -> p19999, fixed: the weight 2 reaches every point past p0
    n = 20000
    points = tuple(PortraitPoint(f"p{k}", True, f"p{min(k + 1, n - 1)}", 2 if k == 0 else 1) for k in range(n))
    portrait = CriticalPortrait(degree=2, points=points)
    ram = ramification_function(portrait)
    assert ram["p0"] == 1
    assert list(ram.values())[1:] == [2] * (n - 1)
    # 19,999 weights of 2, summed as one distinct weight
    sig = classify_orbifold(portrait)
    assert sig.chi == euler_characteristic([2] * (n - 1)) == 2 - F(n - 1, 2)
    assert sig.kind == OrbifoldClass.HYPERBOLIC


def _fed_cycle(critical=()):
    """A 1,000-point cycle c0 -> c1 -> ... -> c0, fed by t2 -> c0 of local degree 2 and t3 -> c500 of local degree 3."""
    cycle = tuple(PortraitPoint(f"c{k}", True, f"c{(k + 1) % 1000}", 2 if k in critical else 1) for k in range(1000))
    tails = (PortraitPoint("t2", False, "c0", 2), PortraitPoint("t3", False, "c500", 3))
    return CriticalPortrait(degree=4, points=cycle + tails)


def test_ramification_around_a_long_cycle_fed_by_two_tails():
    ram = ramification_function(_fed_cycle())
    assert ram.pop("t2") == ram.pop("t3") == 1
    assert set(ram.values()) == {6} and len(ram) == 1000
    # one point of local degree 2 on the cycle makes all of it infinite, and leaves the tails at 1
    ram = ramification_function(_fed_cycle(critical={250}))
    assert ram.pop("t2") == ram.pop("t3") == 1
    assert set(ram.values()) == {INF} and len(ram) == 1000


@st.composite
def portraits(draw):
    """Random portraits of 1-40 points, each valid by construction.

    Images, local degrees and marks are drawn freely.  Then every critical
    value is marked, the marks are closed under the image map, and the
    degree is the least valid one plus a drawn 0-4, so no draw is rejected.
    """
    n = draw(st.integers(1, 40))
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


@pytest.mark.parametrize("weights", [(2, 2.0), (True,)])
def test_euler_characteristic_checks_each_weight_before_counting(weights):
    # a count per weight would merge 2.0 into 2 and True into 1
    with pytest.raises(PreconditionError, match=r"^weights must be integers >= 2 or infinite$"):
        euler_characteristic(weights)


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
