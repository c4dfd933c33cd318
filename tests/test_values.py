"""The value contract: every value type of the package behaves as a frozen dataclass.

The eleven value types are the nine on ``regions._Frozen`` (triples, weights,
the Choi state, rates, schedules, trajectory points, region conjunctions,
half-spaces and polytopes) and ``mc_volume``'s two dataclasses, the sampler
config and the estimate.  ``_Dataclass`` holds a frozen dataclass mirror of
each, and one probe, ``_value_behaviour``, records what repr, hash, equality,
pickle, deepcopy, writes, slots, a cache and the constructor's signature make
of a list of values.  Three tests hold the package to it:

* each type against its mirror, one test case per type,
* the rows ``channel._build`` makes against the rows the constructors make,
* the four per-row constructors against a reference that stores each field
  with ``object.__setattr__``.
"""

import copy
import dataclasses
import functools
import inspect
import itertools
import math
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import (
    ChoiMatrix,
    EigenvalueTriple,
    HalfSpace,
    Polytope,
    ProbabilityVector,
    RateSchedule,
    RateTriple,
    RegionExpr,
    RegionId,
    SamplerConfig,
    TrajectoryPoint,
    VolumeEstimate,
    build_polytope,
    classify_trajectory,
    evolve,
    halfspace_description,
    is_cp,
    is_cp_divisible,
    is_ebc,
    is_p_divisible,
    is_positive,
    is_tlg,
    lambda_to_p,
)
from paulivol.channel import _ATOL, _beyond_rounding, _build, _choi_entries


# The value types as frozen dataclasses with the same fields.  The four
# per-row types are slotted, with every write refused as a frozen slotted
# value refuses it.  The holder's name is the one difference in their repr text.
def _refuse_writes(cls):
    def refuse(verb):
        def method(self, name, *value):
            raise dataclasses.FrozenInstanceError(f"cannot {verb} field {name!r}")
        return method
    cls.__setattr__, cls.__delattr__ = refuse("assign to"), refuse("delete")
    return cls


class _Dataclass:
    @_refuse_writes
    @dataclasses.dataclass(frozen=True, slots=True)
    class EigenvalueTriple:
        l1: float
        l2: float
        l3: float

    @_refuse_writes
    @dataclasses.dataclass(frozen=True, slots=True)
    class ProbabilityVector:
        p0: float
        p1: float
        p2: float
        p3: float

    @_refuse_writes
    @dataclasses.dataclass(frozen=True, eq=False, slots=True)
    class ChoiMatrix:
        blocks: tuple

    @_refuse_writes
    @dataclasses.dataclass(frozen=True, slots=True)
    class TrajectoryPoint:
        t: float
        eigenvalues: EigenvalueTriple
        regions: dict

    @dataclasses.dataclass(frozen=True)
    class RateTriple:
        g1: float
        g2: float
        g3: float

    @dataclasses.dataclass(frozen=True)
    class RateSchedule:
        segments: tuple

    @dataclasses.dataclass(frozen=True)
    class RegionExpr:
        conjuncts: frozenset

    @dataclasses.dataclass(frozen=True)
    class HalfSpace:
        a1: Fraction
        a2: Fraction
        a3: Fraction
        b: Fraction

    @dataclasses.dataclass(frozen=True)
    class Polytope:
        halfspaces: tuple
        vertices: tuple
        facets: tuple

    @dataclasses.dataclass(frozen=True)
    class SamplerConfig:
        samples: int
        seed: int
        chunk_size: int = 2**16

    @dataclasses.dataclass(frozen=True)
    class VolumeEstimate:
        value: float
        std_error: float
        samples: int
        method: str
        seed: int


_MIRRORED = {name for name in vars(_Dataclass) if not name.startswith("_")}


def _is_value(x) -> bool:
    return type(x).__name__ in _MIRRORED


def _attributes(x):
    """The names ``x`` stores: its slots, or its ``__dict__``, fields and the rest."""
    return getattr(x, "__slots__", ()) or vars(x)


def _fields(x) -> dict:
    names = x._fields if hasattr(type(x), "_fields") else [f.name for f in dataclasses.fields(x)]
    return {name: getattr(x, name) for name in names}


def _as_dataclass(x, made):
    """The mirror copy of ``x``: the same attributes, a value among them (in a
    tuple too) copied as well; ``made`` keeps one copy per object, so shared
    values stay shared.
    """
    if type(x) is tuple:
        return tuple(_as_dataclass(y, made) for y in x)
    if not _is_value(x):
        return x
    if id(x) not in made:
        mirror = object.__new__(getattr(_Dataclass, type(x).__name__))
        for name in _attributes(x):
            object.__setattr__(mirror, name, _as_dataclass(getattr(x, name), made))
        made[id(x)] = mirror
    return made[id(x)]


def _leaves(x, seen=None):
    """Every attribute of ``x``, nested values included, floats by their bits
    (so -0.0 is not 0.0) and other leaves with their type; a value met again
    is the position where it was first met, so sharing shows.
    """
    seen = {} if seen is None else seen
    if type(x) is float:
        return x.hex()
    if type(x) in (tuple, list):
        return [_leaves(y, seen) for y in x]
    if type(x) is dict:
        return [(k, _leaves(v, seen)) for k, v in x.items()]
    if not _is_value(x):
        return (type(x).__name__, x)
    if id(x) in seen:
        return ("shared", seen[id(x)])
    seen[id(x)] = len(seen)
    return (type(x).__name__, [(name, _leaves(getattr(x, name), seen)) for name in _attributes(x)])


def _outcome(action, *args, **kwargs):
    """``action(*args, **kwargs)`` and None, or None and the type and message it raised."""
    try:
        return action(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _text(value):
    return repr(value).replace("_Dataclass.", "")


def _signature(cls, arguments: dict):
    """The type of what building ``cls`` from ``arguments`` raises, or None: by
    keyword, with each one left out, with one more, then by position, and with
    one more."""
    fewer = [{k: v for k, v in arguments.items() if k != name} for name in arguments]
    by_keyword = [_outcome(cls, **kw)[1] for kw in [arguments, *fewer, {**arguments, "other": 0}]]
    by_position = [_outcome(cls, *args)[1]
                   for args in [tuple(arguments.values()), (*arguments.values(), 0)]]
    return [error and error[0] for error in by_keyword + by_position]


def _round_trip(value, twin):
    return (type(twin) is type(value), twin is value, twin == value, twin != value,
            _outcome(lambda: hash(twin) == hash(value))[0], _text(twin))


_OTHERS = [None, 0, 0.5, "CPT", (), (0.5, 0.25, 0.0), {}, frozenset(), Fraction(1)]
_NAMES = ["l1", "p0", "blocks", "entries", "t", "g1", "segments", "total_duration",
          "conjuncts", "a1", "b", "_row", "halfspaces", "facets", "samples", "chunk_size",
          "value", "method", "other", "__dict__"]


def _value_behaviour(values, arguments=None):
    """What repr, hash, eq, pickle, deepcopy, writes, slots, a cache and the
    constructor make of ``values``; ``arguments[i]`` are keywords that build
    ``values[i]``, by default its fields.
    """
    arguments = arguments or [_fields(v) for v in values]
    cached = functools.cache(lambda v: v)
    position = {id(v): i for i, v in enumerate(values)}
    twins = {"pickle": pickle.loads(pickle.dumps(values)), "deepcopy": copy.deepcopy(values)}
    return {
        "type": [type(v).__name__ for v in values],
        "leaves": _leaves(values),
        "repr": [_text(v) for v in values],
        "hash": ["identity" if type(v).__hash__ is object.__hash__ else _outcome(hash, v)
                 for v in values],
        "same hash": [_outcome(lambda: hash(v) == hash(w))[0] for v in values for w in values],
        "eq": [(v == w, v != w, v.__eq__(w) is NotImplemented)
               for v in values for w in values + _OTHERS + [tuple(_fields(v).values())]],
        "reflected": [(w == v, w != v) for v in values for w in _OTHERS],
        **{how: ([_round_trip(v, t) for v, t in zip(values, twin)],
                 _leaves(twin) == _leaves(values)) for how, twin in twins.items()},
        "writes": [(_outcome(setattr, v, name, 0)[1], _outcome(delattr, v, name)[1])
                   for v in values for name in _NAMES],
        "slots": [(hasattr(v, "__dict__"), _outcome(weakref.ref, v)[1]) for v in values],
        "cache": ([(position[id(got)] if error is None else error)
                   for got, error in (_outcome(cached, v) for v in values)],
                  cached.cache_info()),
        "signature": [_signature(type(v), kw) for v, kw in zip(values, arguments)],
    }


def _assert_frozen(behaviour):
    writes = [outcome for pair in behaviour["writes"] for outcome in pair]
    assert all(outcome[0] is dataclasses.FrozenInstanceError for outcome in writes)


_row_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1023) * 1.5])
_triple = st.builds(EigenvalueTriple, _row_float, _row_float, _row_float)
_unit = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_rate = st.floats(-3.0, 3.0)
_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_labels = st.dictionaries(st.sampled_from([tag.value for tag in RegionId]), st.booleans())
_BOUNDED_TAGS = [tags for r in range(1, 6)
                 for tags in itertools.combinations(["PT", "CPT", "EBC", "TLG", "PDIV"], r)
                 if {"PT", "CPT", "EBC"} & set(tags)]


@st.composite
def _region_pieces(draw):
    """One convex piece of a bounded region conjunction."""
    return draw(st.sampled_from(halfspace_description(RegionExpr(draw(st.sampled_from(
        _BOUNDED_TAGS))))))


def _keywords(cls, **strategies):
    """Builders of ``cls`` by keyword; each is built twice, so that equal
    values are distinct objects that share their arguments."""
    names = list(strategies)
    return st.tuples(*strategies.values()).map(
        lambda xs: functools.partial(cls, **dict(zip(names, xs))))


_BUILDERS = {
    EigenvalueTriple: _keywords(EigenvalueTriple, l1=_row_float, l2=_row_float, l3=_row_float),
    ProbabilityVector: _unit.map(lambda row: functools.partial(ProbabilityVector, **dict(
        zip(["p0", "p1", "p2", "p3"], lambda_to_p(EigenvalueTriple(*row)))))),
    # a Choi state needs l1 + l2 and l1 - l2 finite
    ChoiMatrix: _keywords(ChoiMatrix, l=_triple.filter(
        lambda l: math.isfinite(l.l1 + l.l2) and math.isfinite(l.l1 - l.l2))),
    TrajectoryPoint: _keywords(TrajectoryPoint, t=st.floats(0.0, 10.0), eigenvalues=_triple,
                               regions=_labels),
    RateTriple: _keywords(RateTriple, g1=_rate, g2=_rate, g3=_rate),
    # a rates triple given as a RateTriple is kept, and so shared by both builds
    RateSchedule: _keywords(RateSchedule, segments=st.lists(st.tuples(
        st.floats(1e-3, 3.0),
        st.tuples(_rate, _rate, _rate) | st.builds(RateTriple, _rate, _rate, _rate)),
        min_size=1, max_size=3)),
    RegionExpr: _keywords(RegionExpr, tags=st.sets(st.sampled_from(list(RegionId)), min_size=1)),
    HalfSpace: _keywords(HalfSpace, a1=_coeff, a2=_coeff, a3=_coeff, b=_coeff).filter(
        lambda build: any(build.keywords[name] for name in ("a1", "a2", "a3"))),
    # pieces of one region share half-spaces
    Polytope: _region_pieces().map(
        lambda system: functools.partial(Polytope, **_fields(build_polytope(system)))),
    SamplerConfig: _keywords(SamplerConfig, samples=st.integers(1, 10**10),
                             seed=st.integers(0, 2**64 - 1), chunk_size=st.integers(1, 2**22)),
    VolumeEstimate: _keywords(
        VolumeEstimate, value=st.floats(allow_infinity=False),
        std_error=st.floats(0.0, allow_infinity=False) | st.just(math.nan),
        samples=st.integers(0, 10**10), method=st.sampled_from(["mc-hs", "mc-fr"]),
        seed=st.integers(0, 2**64 - 1)),
}


@pytest.mark.parametrize("cls", list(_BUILDERS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_value_type_behaves_as_its_frozen_dataclass_mirror(cls, data):
    assert {cls.__name__ for cls in _BUILDERS} == _MIRRORED
    # one value of ``cls`` among up to three of any type, so types meet in eq
    others = data.draw(st.lists(st.one_of(list(_BUILDERS.values())), max_size=3), label="others")
    at = data.draw(st.integers(0, len(others)), label="at")
    builders = [*others[:at], data.draw(_BUILDERS[cls], label=cls.__name__), *others[at:]]
    values = [build() for build in builders] + [build() for build in builders]
    made = {}
    mirrors = [_as_dataclass(v, made) for v in values]
    behaviour = _value_behaviour(values, [build.keywords for build in builders] * 2)
    assert behaviour == _value_behaviour(mirrors)
    _assert_frozen(behaviour)


_trajectory_rate = st.floats(-3.0, 3.0) | st.floats(-10.0, 10.0)  # no step overflows


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_row_float, _row_float, _row_float), max_size=12),
       segments=st.lists(st.tuples(st.floats(1e-3, 3.0), st.tuples(
           _trajectory_rate, _trajectory_rate, _trajectory_rate)), min_size=1, max_size=4),
       steps=st.integers(2, 30))
@example(rows=[], segments=[(1.0, (0.5, 0.25, 1.0))], steps=2)
@example(rows=[(-0.0, 5e-324, 1.0), (-1.0, -5e-324, 0.0), (1.7976931348623157e308, -0.0, -1.0)],
         segments=[(1.0, (0.5, 0.25, 1.0)), (2.0, (-0.1, 0.3, 0.2))], steps=3)
def test_build_makes_the_rows_the_constructors_make(rows, segments, steps):
    array = np.array(rows, dtype=np.float64).reshape(-1, 3)
    triples = [EigenvalueTriple(*row) for row in array.tolist()]
    schedule = RateSchedule(segments)
    points = classify_trajectory(schedule, steps)
    made = []
    for i in range(steps):
        t = schedule.total_duration * i / (steps - 1) if i < steps - 1 else schedule.total_duration
        lam = evolve(schedule, t)
        regions = {"PT": is_positive(lam), "CPT": is_cp(lam), "EBC": is_ebc(lam),
                   "TLG": is_tlg(lam), "PDIV": is_p_divisible(lam), "CPDIV": is_cp_divisible(lam)}
        made.append(TrajectoryPoint(t, lam, regions))
    built = _build(EigenvalueTriple, array.T.tolist()) + points
    behaviour = _value_behaviour(built + [p.eigenvalues for p in points])
    assert behaviour == _value_behaviour(triples + made + [p.eigenvalues for p in made])
    _assert_frozen(behaviour)


# The four per-row constructors as they stored their fields before: through
# object.__setattr__, each check and message as in the library, which
# names a non-number with TypeError and an int beyond float range with
# ValueError.
def _stored(cls, **fields):
    value = object.__new__(cls)
    for name, x in fields.items():
        object.__setattr__(value, name, x)
    return value


def _reference_check(what, named):
    for name, v in named:
        try:
            finite = math.isfinite(v)
        except TypeError:
            raise TypeError(f"{what} {name} must be a real number, got {v!r}") from None
        except OverflowError:
            raise ValueError(f"{what} {name} is out of float range") from None
        if not finite:
            raise ValueError(f"{what} {name} must be finite, got {v!r}")


def _reference_triple(l1, l2, l3):
    _reference_check("eigenvalue", (("l1", l1), ("l2", l2), ("l3", l3)))
    return _stored(EigenvalueTriple, l1=float(l1), l2=float(l2), l3=float(l3))


def _reference_weights(p0, p1, p2, p3):
    _reference_check("weight", (("p0", p0), ("p1", p1), ("p2", p2), ("p3", p3)))
    p0, p1, p2, p3 = float(p0), float(p1), float(p2), float(p3)
    value = _stored(ProbabilityVector, p0=p0, p1=p1, p2=p2, p3=p3)
    total = p0 + p1 + p2 + p3
    if abs(total - 1.0) > _ATOL and _beyond_rounding(total, p0, p1, p2, p3):
        raise ValueError(f"weights must sum to 1 within {_ATOL}, got sum {total!r}")
    return value


def _reference_choi(l):
    return _stored(ChoiMatrix, blocks=_choi_entries(l))


def _reference_point(t, eigenvalues, regions):
    return _stored(TrajectoryPoint, t=t, eigenvalues=eigenvalues, regions=regions)


_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**1100, 2**1100),  # beyond float range too
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([math.inf, -math.inf, math.nan, np.float64("-inf"), np.float64("nan")]),
    st.just("0.5"),
)
_small = st.floats(-4.0, 4.0) | st.integers(-3, 3) | st.floats(-4.0, 4.0).map(np.float64) | st.just(-0.0)
# weights whose float sum is 1 or misses it by rounding only, so most build
_summing = st.tuples(_small, _small, _small).map(lambda p: (1.0 - p[0] - p[1] - p[2], *p))
_CONSTRUCTORS = {
    EigenvalueTriple: (_reference_triple, st.tuples(_number, _number, _number)),
    ProbabilityVector: (_reference_weights,
                        st.tuples(_number, _number, _number, _number) | _summing),
    ChoiMatrix: (_reference_choi, st.tuples(_triple | _number)),
    TrajectoryPoint: (_reference_point, st.tuples(_number, _triple | _number, _labels | _number)),
}


@pytest.mark.parametrize("cls", list(_CONSTRUCTORS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructors_store_what_object_setattr_stored(cls, data):
    reference, arguments = _CONSTRUCTORS[cls]
    args = data.draw(arguments, label="args")
    keywords = dict(zip(inspect.signature(reference).parameters, args))
    made = [_outcome(cls, *args), _outcome(cls, **keywords)]
    stored = [_outcome(reference, *args), _outcome(reference, **keywords)]
    assert [error for _, error in made] == [error for _, error in stored]
    if stored[0][1] is None:
        behaviour = _value_behaviour([value for value, _ in made], [keywords] * 2)
        assert behaviour == _value_behaviour([value for value, _ in stored], [keywords] * 2)
        _assert_frozen(behaviour)
