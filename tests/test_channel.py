import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import (
    ChoiMatrix,
    EigenvalueTriple,
    ProbabilityVector,
    choi_matrix,
    choi_spectrum,
    lambda_to_p,
    p_to_lambda,
)

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


def test_choi_matrix_validation():
    # The constructor takes a triple; its entries are the formula's, read-only.
    choi = ChoiMatrix(EigenvalueTriple(0.5, -0.25, 0.75))
    assert choi.entries.tobytes() == _formula_entries(0.5, -0.25, 0.75).tobytes()
    with pytest.raises(ValueError):
        choi.entries[0, 0] = 1.0
    with pytest.raises(ValueError, match="unit trace"):
        ChoiMatrix(EigenvalueTriple(0.1, 0.0, 1e16))
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
        (lambda: choi_matrix(EigenvalueTriple(1e308, 1e308, 0.0)), _CHOI_FINITE),  # l1 + l2 overflows
        (lambda: lambda_to_p(EigenvalueTriple(1e308, 1e308, 1e308)),
         "eigenvalues are too large for finite Pauli weights"),  # p0 overflows
    ],
)
def test_value_object_messages_name_the_first_bad_field(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_value_objects_reject_non_numbers_with_type_error():
    with pytest.raises(TypeError):
        EigenvalueTriple(0.0, "x", math.nan)
    with pytest.raises(TypeError):
        ProbabilityVector(1.0, None, 0.0, 0.0)


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
    names = [f.name for f in dataclasses.fields(cls)]
    assert all(type(x) is float for x in value)
    assert repr(value) == text
    twin = cls(**{name: float(x) for name, x in zip(names, args)})
    assert value == twin and hash(value) == hash(twin)
    assert value != tuple(value)
    assert dataclasses.astuple(value) == tuple(float(x) for x in args)
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], 0.0)
    fields = tuple(value)
    swapped = dataclasses.replace(value, **{names[1]: fields[2], names[2]: fields[1]})
    assert tuple(swapped) == (fields[0], fields[2], fields[1], *fields[3:])


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
    if not np.isfinite(entries).all():
        want_error = _CHOI_FINITE
    elif abs(entries.trace() - 1.0) > 1e-12:
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
@example(l1=0.1, l2=0.0, l3=1e16)  # the trace check fails
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
