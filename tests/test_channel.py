import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import (
    ChoiMatrix,
    EigenvalueTriple,
    ProbabilityVector,
    RateSchedule,
    RegionExpr,
    SamplerConfig,
    TrajectoryPoint,
    classify_trajectory,
    choi_matrix,
    choi_spectrum,
    lambda_to_p,
    p_to_lambda,
    sample_region,
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


def test_choi_matrix_entries_are_a_new_read_only_array_on_each_read():
    choi = choi_matrix(EigenvalueTriple(0.5, -0.25, 0.75))
    first, second = choi.entries, choi.entries
    assert first is not second
    assert not first.flags.writeable and not second.flags.writeable
    assert first.tobytes() == second.tobytes()


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
