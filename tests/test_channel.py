import copy
import dataclasses
import functools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import (
    ChoiMatrix,
    EigenvalueTriple,
    ProbabilityVector,
    RateSchedule,
    RateTriple,
    RegionExpr,
    SamplerConfig,
    TrajectoryPoint,
    classify_trajectory,
    choi_matrix,
    choi_spectrum,
    evolve,
    is_cp,
    is_cp_divisible,
    is_ebc,
    is_p_divisible,
    is_positive,
    is_tlg,
    lambda_to_p,
    p_to_lambda,
    sample_region,
)
from paulivol.channel import _ATOL, _beyond_rounding, _build, _choi_entries

_SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_p_to_lambda_examples():
    assert tuple(p_to_lambda(ProbabilityVector(1, 0, 0, 0))) == (1, 1, 1)
    assert tuple(p_to_lambda(ProbabilityVector(0.25, 0.25, 0.25, 0.25))) == (0, 0, 0)
    assert tuple(p_to_lambda(ProbabilityVector(0, 1, 0, 0))) == (1, -1, -1)


def test_lambda_to_p_examples():
    assert tuple(lambda_to_p(EigenvalueTriple(1, 1, 1))) == (1, 0, 0, 0)
    assert tuple(lambda_to_p(EigenvalueTriple(0, 0, 0))) == (0.25, 0.25, 0.25, 0.25)
    p = lambda_to_p(EigenvalueTriple(0.5, 0.5, 0.5))
    assert np.abs(np.array(list(p)) - [5 / 8, 1 / 8, 1 / 8, 1 / 8]).max() < 1e-15


def test_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(10**5):
        l = EigenvalueTriple(*rng.uniform(-2.0, 2.0, 3))
        back = p_to_lambda(lambda_to_p(l))
        assert abs(back.l1 - l.l1) < 1e-14
        assert abs(back.l2 - l.l2) < 1e-14
        assert abs(back.l3 - l.l3) < 1e-14


def test_probability_vector_sum_invariant():
    with pytest.raises(ValueError):
        ProbabilityVector(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ProbabilityVector(1.0, 1e-9, 0.0, 0.0)
    # quasi-probabilities are allowed as long as they sum to 1
    ProbabilityVector(1.5, -0.5, 0.0, 0.0)


def test_eigenvalue_triple_rejects_non_finite():
    with pytest.raises(ValueError):
        EigenvalueTriple(np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        EigenvalueTriple(0.0, np.inf, 0.0)


def test_choi_matrix_identity_channel():
    m = choi_matrix(EigenvalueTriple(1, 1, 1)).entries
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
    assert np.abs(m - want).max() < 1e-15


def test_choi_matrix_depolarizing():
    m = choi_matrix(EigenvalueTriple(0, 0, 0)).entries
    assert np.abs(m - np.eye(4) / 4).max() < 1e-15


def test_choi_matrix_sigma1_conjugation_spectrum():
    eig = sorted(choi_matrix(EigenvalueTriple(1, -1, -1)).eigenvalues())
    assert np.abs(np.array(eig) - [0, 0, 0, 1]).max() < 1e-15


def test_choi_spectrum_matches_weights():
    rng = np.random.default_rng(1)
    for _ in range(2 * 10**4):
        l = EigenvalueTriple(*rng.uniform(-2.0, 2.0, 3))
        spectrum = np.sort(choi_matrix(l).eigenvalues())
        p = np.sort(np.array(list(lambda_to_p(l))))
        assert np.abs(spectrum - p).max() < 1e-12


def test_choi_matrix_from_componentwise_action():
    # Assemble the Choi state from the map's action on the |i><j| basis,
    # written in Pauli components where the action is diagonal.
    rng = np.random.default_rng(2)
    for _ in range(200):
        l = EigenvalueTriple(*rng.uniform(-1.0, 1.0, 3))
        lam = (1.0, l.l1, l.l2, l.l3)
        assembled = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                mapped = sum(
                    lam[a] * 0.5 * np.trace(_SIGMA[a].conj().T @ e) * _SIGMA[a]
                    for a in range(4)
                )
                assembled += 0.5 * np.kron(e, mapped)
        assert np.abs(assembled - choi_matrix(l).entries).max() < 1e-12


def _bloch(rho):
    return np.array([np.trace(rho @ s).real for s in _SIGMA[1:]])


def test_pauli_weights_scale_the_bloch_vector_by_the_eigenvalues():
    # rho -> sum_a p_a sigma_a rho sigma_a multiplies Bloch component i by l_i:
    # the identity and the fully depolarising maps, sigma_1 conjugation, and
    # random triples, where the maximally mixed state stays fixed.
    cases = [
        ((1, 1, 1), (0.3, 0.2, 0.1)),
        ((0, 0, 0), (0.3, 0.2, 0.1)),
        ((1, -1, -1), (0.5, 0.5, 0.0)),
    ]
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        cases.append((tuple(rng.uniform(-2.0, 2.0, 3)), tuple(v)))
        cases.append((tuple(rng.uniform(-2.0, 2.0, 3)), (0.0, 0.0, 0.0)))
    for lam, r in cases:
        l = EigenvalueTriple(*lam)
        p = lambda_to_p(l)
        rho = 0.5 * (_SIGMA[0] + sum(x * s for x, s in zip(r, _SIGMA[1:])))
        out = sum(w * s @ rho @ s for w, s in zip(p, _SIGMA))
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.abs(_bloch(out) - np.array(lam) * r).max() < 1e-12


def test_package_exports_resolve():
    import paulivol

    missing = [name for name in paulivol.__all__ if not hasattr(paulivol, name)]
    assert missing == []
    assert len(set(paulivol.__all__)) == len(paulivol.__all__)


# The package's public names; the package __all__ is built from the modules'
# lists, so this pins it against a name added or dropped by accident.
_PUBLIC_NAMES = {
    "__version__", "EigenvalueTriple", "ProbabilityVector", "ChoiMatrix", "p_to_lambda",
    "lambda_to_p", "choi_matrix", "choi_spectrum", "RegionId", "RegionExpr", "HalfSpace",
    "NonPolytopalRegionError", "is_positive", "is_cp", "is_ebc", "is_tlg",
    "is_p_divisible", "is_cp_divisible", "contains", "region_mask",
    "halfspace_description", "UnboundedPolytopeError", "Polytope", "enumerate_vertices",
    "build_polytope", "region_volume", "mesh_document", "SamplerConfig", "VolumeEstimate",
    "FR_TOTAL", "FisherRaoDomainError", "hs_volume_mc", "ratio_mc", "fr_volume_mc",
    "sample_region", "RateTriple", "RateSchedule", "TrajectoryPoint", "schedule_from_json",
    "integrate_rates", "evolve", "rates_for_target", "is_semigroup_reachable",
    "classify_trajectory",
}


def test_public_surface_is_the_modules_lists():
    import paulivol
    from paulivol import channel, dynamics, exact_volume, mc_volume, regions

    modules = (channel, regions, exact_volume, mc_volume, dynamics)
    assert set(paulivol.__all__) == _PUBLIC_NAMES
    assert _PUBLIC_NAMES == {"__version__"}.union(*(m.__all__ for m in modules))


def test_choi_matrix_validation():
    # The constructor takes a triple; its entries are the formula's, read-only.
    choi = ChoiMatrix(EigenvalueTriple(0.5, -0.25, 0.75))
    assert choi.entries.tobytes() == _formula_entries(0.5, -0.25, 0.75).tobytes()
    with pytest.raises(ValueError):
        choi.entries[0, 0] = 1.0
    # The trace of the diagonal (1 +- 1e16)/4 rounds to 0, within the
    # rounding bound of its terms, so the matrix is built.
    big = ChoiMatrix(EigenvalueTriple(0.1, 0.0, 1e16))
    assert big.entries.tobytes() == _formula_entries(0.1, 0.0, 1e16).tobytes()
    with pytest.raises(ValueError, match="must be finite"):
        ChoiMatrix(EigenvalueTriple(1e308, 1e308, 0.0))


_CHOI_FINITE = "Choi matrix entries must be finite"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EigenvalueTriple(math.inf, math.nan, 0.0), "eigenvalue l1 must be finite, got inf"),
        (lambda: EigenvalueTriple(0.5, math.nan, -math.inf), "eigenvalue l2 must be finite, got nan"),
        (lambda: EigenvalueTriple(0.5, 0.5, -math.inf), "eigenvalue l3 must be finite, got -inf"),
        (lambda: EigenvalueTriple(math.nan, "x", 0.0), "eigenvalue l1 must be finite, got nan"),
        (lambda: ProbabilityVector(math.nan, 1.0, 0.0, 0.0), "weight p0 must be finite, got nan"),
        (lambda: ProbabilityVector(2.0, 0.0, math.inf, math.nan), "weight p2 must be finite, got inf"),
        (lambda: ProbabilityVector(0.0, 0.0, 0.0, -math.inf), "weight p3 must be finite, got -inf"),
        (lambda: ProbabilityVector(0.5, 0.5, 0.5, 0.5), "weights must sum to 1 within 1e-12, got sum 2.0"),
        (lambda: EigenvalueTriple(2**1100, 0, 0), "eigenvalue l1 is out of float range"),
        (lambda: ProbabilityVector(1, 0, 0, -2**1100), "weight p3 is out of float range"),
        (lambda: choi_matrix(EigenvalueTriple(1e308, 1e308, 0.0)), _CHOI_FINITE),  # l1 + l2 overflows
        (lambda: lambda_to_p(EigenvalueTriple(1e308, 1e308, 1e308)),
         "eigenvalues are too large for finite Pauli weights"),  # p0 overflows
    ],
)
def test_value_object_messages_name_the_first_bad_field(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EigenvalueTriple("a", 0, 0), "eigenvalue l1 must be a real number, got 'a'"),
        (lambda: EigenvalueTriple(0.0, "x", math.nan), "eigenvalue l2 must be a real number, got 'x'"),
        (lambda: EigenvalueTriple(0.0, 0.0, 1j), "eigenvalue l3 must be a real number, got 1j"),
        (lambda: ProbabilityVector("a", 0, 0, 1), "weight p0 must be a real number, got 'a'"),
        (lambda: ProbabilityVector(1.0, None, 0.0, 0.0), "weight p1 must be a real number, got None"),
        (lambda: ProbabilityVector(1.0, 0.0, 0.0, [0.0]), "weight p3 must be a real number, got [0.0]"),
    ],
)
def test_value_objects_reject_non_numbers_with_type_error(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (EigenvalueTriple, (1, np.float64(0.5), -0), "EigenvalueTriple(l1=1.0, l2=0.5, l3=0.0)"),
        (ProbabilityVector, (np.float64(0.5), 0.25, 0, 0.25),
         "ProbabilityVector(p0=0.5, p1=0.25, p2=0.0, p3=0.25)"),
    ],
)
def test_value_objects_are_frozen_dataclasses_of_floats(cls, args, text):
    value = cls(*args)
    names = list(cls._fields)
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(value)
    assert all(type(x) is float for x in value)
    assert repr(value) == text
    twin = cls(**{name: float(x) for name, x in zip(names, args)})
    assert value == twin and hash(value) == hash(twin)
    assert value != tuple(value)
    assert tuple(value) == tuple(float(x) for x in args)
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], 0.0)
    fields = tuple(value)
    swapped = cls(**{**dict(zip(names, fields)), names[1]: fields[2], names[2]: fields[1]})
    assert tuple(swapped) == (fields[0], fields[2], fields[1], *fields[3:])


def test_trajectory_point_and_choi_matrix_are_frozen_and_slotted():
    point = classify_trajectory(RateSchedule([(1.0, RateTriple(0.5, 0.25, 1.0))]), 3)[1]
    assert pickle.loads(pickle.dumps(point)) == point
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.t = 0.0
    choi = choi_matrix(EigenvalueTriple(0.5, -0.25, 0.75))
    with pytest.raises(dataclasses.FrozenInstanceError):
        choi.blocks = (1.0, 0.0, 0.0, 0.0)
    for value in (point, choi):
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)
    # entries is built on each read: a new read-only array, the same bytes
    first, second = choi.entries, choi.entries
    assert first is not second
    assert not first.flags.writeable and not second.flags.writeable
    assert first.tobytes() == second.tobytes()


def _slotted_values():
    lam = EigenvalueTriple(0.5, -0.25, 0.75)
    point = classify_trajectory(RateSchedule([(1.0, RateTriple(0.5, 0.25, 1.0))]), 3)[1]
    return [lam, lambda_to_p(lam), choi_matrix(lam), point]


@pytest.mark.parametrize("value", _slotted_values(), ids=lambda v: type(v).__name__)
def test_slotted_values_refuse_every_write_with_frozen_instance_error(value):
    # names that are no field (and the ``entries`` property) included
    names = list(value._fields) + ["foo", "entries", "__dict__"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert type(value).__slots__
    assert not hasattr(value, "__dict__")
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert [getattr(twin, name) for name in twin._fields] == [
            getattr(value, name) for name in value._fields]


def _formula_entries(l1, l2, l3):
    dp = 0.25 * (1.0 + l3)
    dm = 0.25 * (1.0 - l3)
    op = 0.25 * (l1 + l2)
    om = 0.25 * (l1 - l2)
    return np.array(
        [[dp, 0.0, 0.0, op], [0.0, dm, om, 0.0], [0.0, om, dm, 0.0], [op, 0.0, 0.0, dp]],
        dtype=complex,
    )


def _block_spectrum(m):
    """Spectrum of the Hermitian blocks [[a, c], [conj(c), d]] at {0,3} and {1,2}.

    Each gives (a + d)/2 +- sqrt(((a - d)/2)^2 + |c|^2), the general formula.
    """
    out = []
    for i, j in ((0, 3), (1, 2)):
        a = m[i, i].real
        d = m[j, j].real
        c = m[i, j]
        half_sum = 0.5 * (a + d)
        radius = math.hypot(0.5 * (a - d), abs(c))
        out.extend([half_sum + radius, half_sum - radius])
    return np.array(out)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


_magnitude = st.floats(-1.5, 1.5) | st.floats(-1e17, 1e17) | st.floats(-1e308, 1e308)


@settings(max_examples=500, deadline=None)
@given(l1=_magnitude, l2=_magnitude, l3=_magnitude)
@example(l1=1.7e308, l2=1.7e308, l3=0.5)  # l1 + l2 overflows
@example(l1=1.7e308, l2=-1.7e308, l3=-0.5)  # l1 - l2 overflows
def test_choi_matrix_raises_exactly_when_the_general_checks_do(l1, l2, l3):
    # The checks of a general 4x4 Choi matrix, finite entries and unit
    # trace, fail on the formula's entries exactly when choi_matrix raises;
    # the spectrum is the general block formula's, bit for bit.
    entries = _formula_entries(l1, l2, l3)
    # The trace may miss 1 by the rounding of its terms, 2**-49 of their
    # absolute sum (channel._beyond_rounding derives it).
    diagonal = entries.diagonal().real
    if not np.isfinite(entries).all():
        want_error = _CHOI_FINITE
    elif abs(entries.trace() - 1.0) > max(1e-12, 2.0**-49 * np.abs(diagonal).sum()):
        want_error = "Choi matrix must have unit trace"
    else:
        want_error = None
    got, got_error = _outcome(choi_matrix, EigenvalueTriple(l1, l2, l3))
    assert got_error == want_error
    if got is None:
        return
    assert type(got) is ChoiMatrix
    assert got.entries.dtype == complex and not got.entries.flags.writeable
    assert got.entries.tobytes() == entries.tobytes()
    assert got.eigenvalues().tobytes() == _block_spectrum(entries).tobytes()


@settings(max_examples=500, deadline=None)
@given(l1=_magnitude, l2=_magnitude, l3=_magnitude)
@example(l1=-0.0, l2=-0.0, l3=-0.0)
@example(l1=-0.0, l2=0.0, l3=1.0)  # a zero weight from 1 - l3
@example(l1=0.1, l2=0.0, l3=1e16)  # the trace rounds to 0
@example(l1=1.7e308, l2=1.7e308, l3=0.5)  # l1 + l2 overflows
def test_choi_spectrum_equals_the_matrix_eigenvalues(l1, l2, l3):
    l = EigenvalueTriple(l1, l2, l3)
    want, want_error = _outcome(lambda l: choi_matrix(l).eigenvalues(), l)
    got, got_error = _outcome(choi_spectrum, l)
    assert got_error == want_error
    if want is None:
        return
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == want.tobytes()


def _weights(l1, l2, l3):
    return [
        0.25 * (1.0 + l1 + l2 + l3), 0.25 * (1.0 + l1 - l2 - l3),
        0.25 * (1.0 - l1 + l2 - l3), 0.25 * (1.0 - l1 - l2 + l3),
    ]


_cancelling = st.floats(1e15, 1e308).flatmap(
    lambda x: st.tuples(st.just(x), st.sampled_from([-x, x]), st.floats(-2.0, 2.0))
)


@settings(max_examples=500, deadline=None)
@given(l=st.tuples(_magnitude, _magnitude, _magnitude) | _cancelling.flatmap(st.permutations))
@example(l=(1e16, 0.3, 0.2))  # the weights sum to 0.0
@example(l=(0.1, 0.0, 1e16))  # the trace rounds to 0
@example(l=(0.1, 0.0, 1e17))
@example(l=(1e300, -1e300, 0.5))
def test_finite_weights_never_fail_the_sum_or_trace_check(l):
    # Rounding is all that moves a finite triple's weight sum and Choi
    # trace off 1; only weights that overflow are rejected.
    l = EigenvalueTriple(*l)
    weights = _weights(*l)
    p, p_error = _outcome(lambda_to_p, l)
    spectrum, spectrum_error = _outcome(choi_spectrum, l)
    if all(math.isfinite(w) for w in weights):
        assert (p_error, spectrum_error) == (None, None)
        assert list(p) == weights
    else:
        assert p_error == "eigenvalues are too large for finite Pauli weights"


# The four constructors as they stored their fields before: through
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


_REFERENCE = {
    EigenvalueTriple: _reference_triple,
    ProbabilityVector: _reference_weights,
    ChoiMatrix: lambda l: _stored(ChoiMatrix, blocks=_choi_entries(l)),
    TrajectoryPoint: lambda t, eigenvalues, regions: _stored(
        TrajectoryPoint, t=t, eigenvalues=eigenvalues, regions=regions),
}


def _built(make, *args):
    """``make(*args)`` and None, or None and the type and message it raised."""
    try:
        return make(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _bits(x):
    """A float by its bits (so -0.0 is not 0.0), a tuple entry by entry, else the object."""
    if type(x) is float:
        return x.hex()
    if type(x) is tuple:
        return tuple(map(_bits, x))
    return (type(x), id(x))


def _behaviour(value):
    """What fields, eq, hash, repr and a pickle round trip make of a built value."""
    cls = type(value)
    twin = pickle.loads(pickle.dumps(value))
    return {
        "fields": [_bits(getattr(value, name)) for name in cls._fields],
        "repr": repr(value),
        "hash": None if cls.__hash__ is object.__hash__ else _built(hash, value),
        "twin": (type(twin), repr(twin), twin == value, twin != value),
    }


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
_triple = st.builds(EigenvalueTriple, _magnitude, _magnitude, _magnitude)
_CONSTRUCTOR_ARGS = {
    EigenvalueTriple: st.tuples(_number, _number, _number),
    ProbabilityVector: st.tuples(_number, _number, _number, _number) | _summing,
    ChoiMatrix: st.tuples(_triple | _number),
    TrajectoryPoint: st.tuples(
        _number, _triple | _number,
        st.dictionaries(st.sampled_from(["PT", "CPT", "EBC"]), st.booleans()) | _number),
}


@pytest.mark.parametrize("cls", list(_CONSTRUCTOR_ARGS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructors_store_what_object_setattr_stored(cls, data):
    args = data.draw(_CONSTRUCTOR_ARGS[cls], label="args")
    value, error = _built(cls, *args)
    reference, reference_error = _built(_REFERENCE[cls], *args)
    assert error == reference_error
    if value is None:
        return
    assert type(value) is cls
    assert _behaviour(value) == _behaviour(reference)
    assert (value == reference) is (cls.__eq__ is not object.__eq__)
    if cls in (EigenvalueTriple, ProbabilityVector):
        assert all(type(x) is float for x in value)
    for name in list(cls._fields) + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


def _leaf_bits(x):
    """A field value by its bits: floats by hex (so -0.0 is not 0.0), triples and
    dicts entry by entry, with the type of each entry."""
    if type(x) is float:
        return x.hex()
    if type(x) is EigenvalueTriple:
        return ("triple", tuple(map(_leaf_bits, x)))
    if type(x) is dict:
        return [(type(k), k, type(v), v) for k, v in x.items()]
    return (type(x), x)


def _assert_built_as_made(built, made):
    """A row ``_build`` made behaves as the one the class's ``__init__`` made."""
    cls = type(made)
    names = list(cls._fields)
    want = [_leaf_bits(getattr(made, name)) for name in names]
    assert type(built) is cls
    assert built == made and not built != made
    assert _built(hash, built) == _built(hash, made)  # a TrajectoryPoint's dict is unhashable
    assert repr(built) == repr(made)
    assert [_leaf_bits(getattr(built, name)) for name in names] == want
    for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert type(twin) is cls and twin == made
        assert [_leaf_bits(getattr(twin, name)) for name in names] == want
    for name in names + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, name)
    assert not hasattr(built, "__dict__")


_row_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1023) * 1.5])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_row_float, _row_float, _row_float), max_size=12))
@example(rows=[])
@example(rows=[(-0.0, 5e-324, 1.0), (-1.0, -5e-324, 0.0), (1.7976931348623157e308, -0.0, -1.0)])
def test_build_makes_the_triples_the_constructor_makes(rows):
    array = np.array(rows, dtype=np.float64).reshape(-1, 3)
    built = _build(EigenvalueTriple, array.T.tolist())
    made = [EigenvalueTriple(*row) for row in array.tolist()]
    assert len(built) == len(made) == len(rows)
    for b, m in zip(built, made):
        _assert_built_as_made(b, m)
        assert all(type(x) is float for x in b)


# exponents stay within +-240, so no step overflows
_trajectory_rate = st.floats(-3.0, 3.0) | st.floats(-10.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(segments=st.lists(st.tuples(st.floats(1e-3, 3.0), st.tuples(
           _trajectory_rate, _trajectory_rate, _trajectory_rate)), min_size=1, max_size=4),
       steps=st.integers(2, 30))
def test_trajectory_points_are_the_points_the_constructors_make(segments, steps):
    schedule = RateSchedule(segments)
    total = schedule.total_duration
    points = classify_trajectory(schedule, steps)
    assert len(points) == steps
    for i, point in enumerate(points):
        t = total * i / (steps - 1) if i < steps - 1 else total
        lam = evolve(schedule, t)
        regions = {"PT": is_positive(lam), "CPT": is_cp(lam), "EBC": is_ebc(lam),
                   "TLG": is_tlg(lam), "PDIV": is_p_divisible(lam), "CPDIV": is_cp_divisible(lam)}
        _assert_built_as_made(point, TrajectoryPoint(t, lam, regions))
        _assert_built_as_made(point.eigenvalues, lam)


def test_rows_read_from_arrays_run_no_constructor_frame(monkeypatch):
    # Each row of sample_region and classify_trajectory is built by channel._build,
    # with no Python frame per row: neither __init__ may run.
    calls = []
    for cls in (EigenvalueTriple, TrajectoryPoint):
        def counting(self, *args, _init=cls.__init__):
            calls.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    EigenvalueTriple(0.1, 0.2, 0.3)
    assert calls == [EigenvalueTriple]  # the wrappers count
    calls.clear()
    rows = list(sample_region(RegionExpr(["CPT"]), SamplerConfig(10**4, 5)))
    assert len(rows) == 10**4
    schedule = RateSchedule([(1.0, (0.5, 0.25, 1.0)), (2.0, (-0.1, 0.3, 0.2))])
    assert len(classify_trajectory(schedule, 1000)) == 1000
    assert calls == []


# The six channel and dynamics value types as they were: frozen dataclasses
# with the same fields, the four per-row ones slotted, with every write refused
# as channel._frozen refused it.  The holder's name is the one difference in
# their repr text.
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


_SLOTTED = (EigenvalueTriple, ProbabilityVector, ChoiMatrix, TrajectoryPoint)


def _as_dataclass(x, made):
    """The reference copy of ``x``: the same attributes, a value of a moved type
    among them (in a tuple too) copied as well; ``made`` keeps one copy per
    object, so shared values stay shared.
    """
    if type(x) is tuple:
        return tuple(_as_dataclass(y, made) for y in x)
    if getattr(_Dataclass, type(x).__name__, None) is None:
        return x
    if id(x) not in made:
        ref = object.__new__(getattr(_Dataclass, type(x).__name__))
        for name in x.__slots__ or vars(x):
            object.__setattr__(ref, name, _as_dataclass(getattr(x, name), made))
        made[id(x)] = ref
    return made[id(x)]


def _leaves(x):
    """Every field of ``x``, nested values included, floats by their bits."""
    if type(x) is float:
        return x.hex()
    if type(x) is tuple:
        return [_leaves(y) for y in x]
    if type(x) is dict:
        return [(k, _leaves(v)) for k, v in x.items()]
    if dataclasses.is_dataclass(x):
        return [_leaves(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if hasattr(x, "_fields"):
        return [_leaves(getattr(x, name)) for name in x._fields]
    return (type(x).__name__, x)


def _text(value):
    return repr(value).replace("_Dataclass.", "")


def _round_trip(value, twin):
    return (type(twin) is type(value), twin is value, twin == value,
            twin != value, _built(lambda: hash(twin) == hash(value))[0], _text(twin),
            _leaves(twin) == _leaves(value), sorted(getattr(twin, "__dict__", ())))


def _value_behaviour(values):
    """What eq, hash, repr, pickle, deepcopy, writes and slots make of ``values``."""
    others = [None, 0, 0.5, (), (0.5, 0.25, 0.0), {}]
    names = ["l1", "p0", "blocks", "t", "g1", "segments", "total_duration", "entries",
             "other", "__dict__"]
    return {
        "repr": [_text(v) for v in values],
        "hash": [_built(hash, v) if type(v).__hash__ is not object.__hash__ else "identity"
                 for v in values],
        "same hash": [_built(lambda: hash(v) == hash(w))[0] for v in values for w in values],
        "eq": [(v == w, v != w, v.__eq__(w) is NotImplemented)
               for v in values for w in values + others],
        "reflected": [(w == v, w != v) for v in values for w in others],
        "pickle": [_round_trip(v, pickle.loads(pickle.dumps(v))) for v in values],
        "deepcopy": [_round_trip(v, copy.deepcopy(v)) for v in values],
        "writes": [(_built(setattr, v, name, 0)[1], _built(delattr, v, name)[1])
                   for v in values for name in names],
        "slots": [(hasattr(v, "__dict__"), _built(weakref.ref, v)[1]) for v in values],
    }


_rate = st.floats(-3.0, 3.0)
_segments = st.lists(st.tuples(st.floats(1e-3, 3.0), st.tuples(_rate, _rate, _rate)),
                     min_size=1, max_size=3)
_eigenvalues = st.tuples(_row_float, _row_float, _row_float)
_unit = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# Builders of values; each is built twice, so that equal values are distinct objects.
_builders = st.one_of(
    _eigenvalues.map(lambda row: functools.partial(EigenvalueTriple, *row)),
    _unit.map(lambda row: lambda: lambda_to_p(EigenvalueTriple(*row))),
    _unit.map(lambda row: lambda: choi_matrix(EigenvalueTriple(*row))),
    st.tuples(_segments, st.integers(2, 4)).map(
        lambda args: lambda: classify_trajectory(RateSchedule(args[0]), args[1])[-1]),
    st.tuples(_rate, _rate, _rate).map(lambda row: functools.partial(RateTriple, *row)),
    _segments.map(lambda segments: functools.partial(RateSchedule, segments)),
)


@settings(max_examples=100, deadline=None)
@given(builders=st.lists(_builders, min_size=1, max_size=4))
def test_value_types_behave_as_the_frozen_dataclasses_they_replace(builders):
    values = [build() for build in builders] + [build() for build in builders]
    made = {}
    references = [_as_dataclass(v, made) for v in values]
    assert [type(r).__name__ for r in references] == [type(v).__name__ for v in values]
    assert _value_behaviour(values) == _value_behaviour(references)
    writes = _value_behaviour(values)["writes"]
    assert all(outcome[0] is dataclasses.FrozenInstanceError for pair in writes for outcome in pair)
    for value in values:
        assert hasattr(value, "__dict__") is (type(value) not in _SLOTTED)
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and _leaves(twin) == _leaves(value)
            assert (twin == value) is (type(value) is not ChoiMatrix)
