"""Every number parameter of the public surface is read at the call.

``_NUMBER_PARAMETERS`` lists each public callable that takes a number, with
one call per number parameter; every other callable of ``paulivol.__all__``
is in ``_TAKES_NO_NUMBER``, so a new public number parameter has to join
the table.  Given any value, each call returns, or raises ValueError or
TypeError with a message naming the parameter; text, None and complex values
are a TypeError.  ``regions._real`` is the one reader of a real number and
``regions._int`` of a count, seed or step, and the last test keeps them the
only ones.
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paulivol
from paulivol import regions

SRC = Path(__file__).resolve().parents[1] / "src" / "paulivol"

_TARGET = paulivol.EigenvalueTriple(0.9, 0.8, 0.95)
_SCHEDULE = paulivol.RateSchedule([(2.0, (1.0, 0.0, 0.5))])
_PT = paulivol.RegionExpr(["PT"])


def _each(make, names, base, *phrases):
    """A row per name: the drawn value at that position of ``base``; the
    message must hold the name or one of ``phrases``."""
    return [(name, lambda v, k=k: make(*base[:k], v, *base[k + 1:]), (name, *phrases))
            for k, name in enumerate(names)]


def _estimate(value, std_error, samples, seed):
    return paulivol.VolumeEstimate(value, std_error, samples, "mc-hs", seed)


def _segment(g1, g2, g3):
    return paulivol.RateSchedule([(1.0, (g1, g2, g3))])


_NUMBER_PARAMETERS = {
    "EigenvalueTriple": _each(paulivol.EigenvalueTriple, ("l1", "l2", "l3"), (0.1, 0.2, 0.3)),
    "ProbabilityVector": _each(paulivol.ProbabilityVector, ("p0", "p1", "p2", "p3"),
                               (0.25,) * 4, "weights must sum"),
    "HalfSpace": _each(paulivol.HalfSpace, ("a1", "a2", "a3", "b"), (1, 0, 0, 1), "normal"),
    "SamplerConfig": _each(paulivol.SamplerConfig, ("samples", "seed", "chunk_size"), (10, 0, 4)),
    "VolumeEstimate": _each(_estimate, ("value", "std_error", "samples", "seed"), (0.5, 0.1, 10, 0)),
    "RateTriple": _each(paulivol.RateTriple, ("g1", "g2", "g3"), (1.0, 0.0, 0.5)),
    "RateSchedule": [
        ("duration", lambda v: paulivol.RateSchedule([(v, (1.0, 0.0, 0.5))]), ("duration",)),
        *_each(_segment, ("g1", "g2", "g3"), (1.0, 0.0, 0.5)),
    ],
    "TrajectoryPoint": [("t", lambda v: paulivol.TrajectoryPoint(v, _TARGET, {}), ("t",))],
    "schedule_from_json": [
        ("duration", lambda v: paulivol.schedule_from_json(
            [{"duration": v, "rates": [1.0, 0.0, 0.5]}]), ("duration",)),
        ("rate", lambda v: paulivol.schedule_from_json(
            [{"duration": 1.0, "rates": [1.0, v, 0.5]}]), ("rate",)),
    ],
    "integrate_rates": [("t", lambda v: paulivol.integrate_rates(_SCHEDULE, v), ("time",))],
    "evolve": [("t", lambda v: paulivol.evolve(_SCHEDULE, v), ("time",))],
    "rates_for_target": [("t_star", lambda v: paulivol.rates_for_target(_TARGET, v), ("t_star",))],
    "classify_trajectory": [
        ("steps", lambda v: paulivol.classify_trajectory(_SCHEDULE, v), ("steps",))],
    "region_mask": [
        ("lam entry", lambda v: paulivol.region_mask(_PT, [[0.5, 0.5, 0.5], [v, 0.0, 0.0]]),
         ("lam",)),
        ("lam", lambda v: paulivol.region_mask(_PT, v), ("lam",)),
    ],
}

# Public callables whose arguments are value types, region tags, configs,
# messages or half-space lists, never a number.
_TAKES_NO_NUMBER = {
    "ChoiMatrix", "p_to_lambda", "lambda_to_p", "choi_matrix", "choi_spectrum", "RegionId",
    "RegionExpr", "NonPolytopalRegionError", "is_positive", "is_cp", "is_ebc", "is_tlg",
    "is_p_divisible", "is_cp_divisible", "contains", "halfspace_description",
    "UnboundedPolytopeError", "Polytope", "enumerate_vertices", "build_polytope",
    "region_volume", "mesh_document", "FisherRaoDomainError", "hs_volume_mc", "ratio_mc",
    "fr_volume_mc", "sample_region", "is_semigroup_reachable",
}


# The rows whose refusal of text, None and complex values is not a TypeError:
# schedule_from_json raises ValueError, as for any JSON value that is not a
# number, and TrajectoryPoint stores its time as given.
_REFUSED_WITH = {"schedule_from_json": ValueError, "TrajectoryPoint": None}


def test_every_public_callable_is_in_the_table_or_takes_no_number():
    public = {name for name in paulivol.__all__ if callable(getattr(paulivol, name))}
    assert not _NUMBER_PARAMETERS.keys() & _TAKES_NO_NUMBER
    assert public == _NUMBER_PARAMETERS.keys() | _TAKES_NO_NUMBER


# Every row runs each of these, then what hypothesis draws.
_EDGES = [
    math.nan, math.inf, -math.inf, 10**400, -10**400, True, "0.5", "x", "", None, 1j,
    Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("0.5"), Fraction(1, 3),
    Fraction(10**400), np.float64("nan"), np.float32(0.5), np.int64(3), np.bool_(True),
    np.array(0.5), np.array([0.5]), np.array([0.2, 0.5]), np.int32(-2), np.uint64(5),
    np.complex64(1 + 1j), np.complex128(0.5 + 2j), np.complex128(0.5), np.array([0.5 + 1j]),
]
# Small ints only, as steps: classify_trajectory's cost grows with them.
_VALUES = st.one_of(
    st.floats(),
    st.integers(-3, 40),
    st.booleans(),
    st.text(max_size=5),
    st.none(),
    st.complex_numbers(),
    st.decimals(),
    st.fractions(),
    st.floats(width=32).map(np.float32),
    st.integers(-3, 40).map(np.int64),
    st.integers(0, 40).map(np.uint16),
    st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128),
    st.floats().map(np.array),
    st.lists(st.floats(), min_size=1, max_size=2).map(np.array),
    st.lists(st.complex_numbers(), min_size=1, max_size=2).map(np.array),
)


def _with_edges(test):
    for value in _EDGES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize(
    "call, phrases, refused_with",
    [(call, phrases, _REFUSED_WITH.get(callable_name, TypeError))
     for callable_name, rows in _NUMBER_PARAMETERS.items() for _name, call, phrases in rows],
    ids=[f"{callable_name}-{name}" for callable_name, rows in _NUMBER_PARAMETERS.items()
         for name, _call, _phrases in rows],
)
@settings(max_examples=40, deadline=None)
@given(value=_VALUES)
@_with_edges
def test_every_number_parameter_returns_or_names_itself(call, phrases, refused_with, value):
    # text, None and every complex value, numpy's complex scalars and arrays included
    refused = isinstance(value, str) or value is None or np.iscomplexobj(value)
    try:
        call(value)
    except (TypeError, ValueError) as exc:
        assert any(phrase in str(exc) for phrase in phrases), str(exc)
        assert not refused or refused_with in (None, type(exc)), f"{value!r}: {exc!r}"
    else:
        assert not refused or refused_with is None, f"{value!r} was read as a number"


_NOT_REAL_LAM = "lam must be an (n, 3) array of real numbers"


@pytest.mark.parametrize("make, message", [
    (lambda: paulivol.EigenvalueTriple(np.complex128(1 + 2j), 0, 0),
     "eigenvalue l1 must be a real number, got np.complex128(1+2j)"),
    (lambda: paulivol.RateTriple(np.complex64(1 + 1j), 0, 0),
     "rate g1 must be a real number, got np.complex64(1+1j)"),
    (lambda: paulivol.integrate_rates(_SCHEDULE, np.complex128(0.5 + 1j)),
     "time t must be a real number, got np.complex128(0.5+1j)"),
    (lambda: paulivol.region_mask(_PT, [[None, 0, 0]]), _NOT_REAL_LAM),
    (lambda: paulivol.region_mask(_PT, [["0.5", 0, 0]]), _NOT_REAL_LAM),
    (lambda: paulivol.region_mask(_PT, np.zeros((2, 3), complex)), _NOT_REAL_LAM),
    (lambda: paulivol.HalfSpace("0.5", 0, 0, 1),
     "half-space coefficient a1 must be a finite number, got '0.5'"),
    (lambda: paulivol.classify_trajectory(_SCHEDULE, True), "steps must be an int, got True"),
], ids=["triple complex128", "rates complex64", "time complex128", "lam None", "lam text",
        "lam complex", "coefficient text", "steps bool"])
def test_lossy_reads_are_named_type_errors(make, message):
    # float() reads a numpy complex scalar as its real part, numpy a None entry
    # as nan and text as its number, Fraction text, and operator.index True as 1
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_one_reader_writes_each_number_message():
    # another copy of a reader would write one of its messages again
    for reader, messages in ((regions._real, ("must be a real number", "is out of float range")),
                             (regions._int, ("must be an int",))):
        source = inspect.getsource(reader)
        assert all(message in source for message in messages)
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text().replace(source, "")
            for message in messages:
                assert message not in text, \
                    f"{path.name} writes {message!r} outside regions.{reader.__name__}"
