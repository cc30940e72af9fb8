"""The package's frozen records against ``dataclasses.dataclass(frozen=True)``.

Each record class has a twin built by the standard library from the same
class body (``oracles.dataclass_twin``); the two must agree on construction,
equality, hashing, ``repr``, immutability and validation.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import thurston_obstruct
from oracles import RECORD_CLASSES, dataclass_twin
from thurston_obstruct import _records, orbifold, slopes, spectral, tables
from thurston_obstruct.orbifold import CriticalPortrait, OrbifoldSignature, PortraitPoint
from thurston_obstruct.spectral import PreconditionError
from thurston_obstruct.tables import CurveClass, CurveTable, PullbackComponent

TWINS = {cls: dataclass_twin(cls) for cls in RECORD_CLASSES}

HASHABLE = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["", "a", "b"]),
    st.none(),
    st.booleans(),
    st.fractions(min_value=-1, max_value=1, max_denominator=2),
    st.tuples(st.integers(0, 1), st.sampled_from(["a", "b"])),
    st.just(math.nan),  # one object: equal to itself inside a tuple, never by ==
)
RAMIFICATION = st.dictionaries(st.sampled_from(["0", "1"]), st.integers(2, 3), max_size=2).map(
    lambda ram: tuple(sorted(ram.items()))
)


def _fields(cls) -> list[str]:
    return list(cls.__dict__.get("__annotations__", {}))


def _value(name: str):
    return RAMIFICATION if name == "ramification" else HASHABLE


def _outcome(build):
    """The built object, or the type and text of what building raised."""
    try:
        return build()
    except Exception as exc:  # compared between the record and its twin
        return (type(exc), str(exc))


def _assert_same_value(record, twin):
    assert isinstance(record, tuple) == isinstance(twin, tuple)
    if isinstance(record, tuple):
        assert record == twin
        return
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert record.__eq__(twin) is NotImplemented
    assert twin.__eq__(record) is NotImplemented
    assert record != twin and not record == twin


def _compared(twin):
    return tuple(getattr(twin, f.name) for f in dataclasses.fields(twin) if f.compare)


def _assert_same_comparisons(r1, r2, t1, t2):
    """``==`` as a dataclass through Python 3.12 has it: the tuples of compared fields.

    From 3.13 a dataclass compares its fields one by one, so two twins holding
    one NaN object differ there, while the tuples still compare equal.
    """
    if isinstance(r1, tuple) or isinstance(r2, tuple):
        return
    expected = _compared(t1) == _compared(t2)
    assert (r1 == r2) == expected and (r1 != r2) != expected
    assert r1 == r1 and not r1 != r1


def _assert_frozen(record, twin, name):
    for action in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
        with pytest.raises(AttributeError) as ours:
            action(record)
        with pytest.raises(AttributeError) as theirs:
            action(twin)
        assert str(ours.value) == str(theirs.value)


def test_every_record_class_has_a_twin():
    found = {
        value
        for module in (orbifold, slopes, spectral, tables)
        for value in vars(module).values()
        if isinstance(value, type) and value.__setattr__ is _records._frozen_setattr
    }
    assert found == set(RECORD_CLASSES)
    assert len(RECORD_CLASSES) == len(TWINS)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_records_match_their_dataclass_twins(data):
    cls = data.draw(st.sampled_from(RECORD_CLASSES))
    twin = TWINS[cls]
    names = _fields(cls)
    first = [data.draw(_value(name)) for name in names]
    second = [data.draw(st.just(value) | _value(name)) for name, value in zip(names, first)]
    count = data.draw(st.integers(0, len(names)))  # fewer than required raises TypeError
    positional = data.draw(st.integers(0, count))
    args, kwargs = first[:positional], dict(zip(names[positional:count], first[positional:count]))

    r1 = _outcome(lambda: cls(*args, **kwargs))
    t1 = _outcome(lambda: twin(*args, **kwargs))
    _assert_same_value(r1, t1)
    r2 = _outcome(lambda: cls(*second))
    t2 = _outcome(lambda: twin(*second))
    _assert_same_value(r2, t2)
    _assert_same_comparisons(r1, r2, t1, t2)
    if count == len(names) and not isinstance(r1, tuple):
        by_keyword = cls(**dict(zip(names, first)))
        assert by_keyword == r1 and hash(by_keyword) == hash(r1)
        assert repr(by_keyword) == repr(r1)
    if not isinstance(r1, tuple):
        _assert_frozen(r1, t1, data.draw(st.sampled_from(names + ["unknown"])))


def test_records_reject_unknown_and_repeated_arguments():
    for args, kwargs in (((1, 2, 3), {}), ((1,), {"p": 1, "q": 2}), ((), {"p": 1, "r": 2})):
        ours = _outcome(lambda: slopes.Slope(*args, **kwargs))
        theirs = _outcome(lambda: TWINS[slopes.Slope](*args, **kwargs))
        assert ours == theirs and ours[0] is TypeError


def test_signature_ramification_is_label_sorted_pairs_in_eq_and_hash():
    portrait = CriticalPortrait(2, (PortraitPoint("z", True, "z", 2), PortraitPoint("a", True, "a", 2)))
    sig = orbifold.classify_orbifold(portrait)
    assert sig.ramification == (("a", math.inf), ("z", math.inf))
    other = OrbifoldSignature(sig.weights, sig.chi, sig.kind, (("a", math.inf), ("y", math.inf)))
    assert sig != other and len({sig, other, orbifold.classify_orbifold(portrait)}) == 2


IDS = st.sampled_from(["g1", "g2", "g3", "inessential"])
TARGETS = st.sampled_from(["g1", "g2", "untracked", "inessential", "zz"])
POINTS = st.sampled_from(["0", "1", "inf"])


@st.composite
def curve_table_args(draw):
    marked = draw(st.none() | st.just(("a", "b", "c", "d")))
    sides = st.sampled_from([
        (frozenset("ab"), frozenset("cd")),
        (frozenset("ab"), frozenset("bcd")),
        (frozenset("a"), frozenset("c")),
    ])
    classes = tuple(
        CurveClass(
            draw(IDS),
            tuple(PullbackComponent(draw(st.integers(0, 2)), draw(TARGETS))
                  for _ in range(draw(st.integers(0, 2)))),
            draw(st.none() | sides),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return draw(st.integers(0, 4)), classes, marked


@st.composite
def critical_portrait_args(draw):
    points = tuple(
        PortraitPoint(draw(POINTS), draw(st.booleans()), draw(POINTS | st.just("x")),
                      draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return draw(st.integers(0, 3)), points


@given(st.one_of(
    st.tuples(st.just(CurveTable), curve_table_args()),
    st.tuples(st.just(CriticalPortrait), critical_portrait_args()),
))
@example((CurveTable, (1, ())))
@example((CurveTable, (2, (CurveClass("g", ()), CurveClass("g", ())))))
@example((CurveTable, (2, (CurveClass("g", (PullbackComponent(3, "g"),)),))))
@example((CriticalPortrait, (1, ())))
@example((CriticalPortrait, (2, (PortraitPoint("0", True, "1", 2),))))
@settings(max_examples=300, deadline=None)
def test_validated_records_accept_and_reject_like_their_twins(case):
    cls, args = case
    ours, theirs = _outcome(lambda: cls(*args)), _outcome(lambda: TWINS[cls](*args))
    _assert_same_value(ours, theirs)
    if isinstance(ours, tuple):
        assert ours[0] is PreconditionError


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(thurston_obstruct.__file__).parents[1]
    code = "import sys, thurston_obstruct.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


TOP_LEVEL_HELP = """\
usage: thurston-obstruct [-h] {orbifold,matrix,slopes,table,canonical} ...

Exact obstruction-theoretic analyses of branched sphere covers.

positional arguments:
  {orbifold,matrix,slopes,table,canonical}
    orbifold            classify a critical portrait
    matrix              analyze a nonnegative rational matrix
    slopes              torus-quotient obstruction decision
    table               analyze a curve table
    canonical           check a canonical-obstruction candidate

options:
  -h, --help            show this help message and exit
"""


def test_plain_command_line_loads_no_argparse_and_help_does():
    src = Path(thurston_obstruct.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    code = (
        "import sys\n"
        "from thurston_obstruct.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)"
    )
    argv = ["slopes", "--bound", "3", "--format", "json", "--matrix", "[[2,0],[0,3]]"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stderr == "0 []\n"
    # help, usage and errors are argparse's: -h loads it and prints the help it always printed
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, "-h"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, TOP_LEVEL_HELP, "")
