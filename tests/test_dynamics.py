import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import (
    EigenvalueTriple,
    RateSchedule,
    RateTriple,
    classify_trajectory,
    evolve,
    integrate_rates,
    is_cp,
    is_cp_divisible,
    is_ebc,
    is_p_divisible,
    is_positive,
    is_semigroup_reachable,
    is_tlg,
    rates_for_target,
    schedule_from_json,
)
from paulivol.dynamics import _integrals


def _depolarizing(g, duration):
    return RateSchedule([(duration, RateTriple(g, g, g))])


def test_evolve_starts_at_identity():
    schedule = RateSchedule([(1.0, (0.7, 0.1, 2.0))])
    assert tuple(evolve(schedule, 0.0)) == (1.0, 1.0, 1.0)


def test_depolarizing_closed_form():
    g = 0.8
    schedule = _depolarizing(g, 2.0)
    for t in (0.25, 1.0, 1.7):
        lam = evolve(schedule, t)
        want = math.exp(-2.0 * g * t)
        assert abs(lam.l1 - want) < 1e-15
        assert lam.l1 == lam.l2 == lam.l3


def test_dephasing_leaves_l3_fixed():
    schedule = RateSchedule([(3.0, (0.0, 0.0, 0.5))])
    lam = evolve(schedule, 2.0)
    assert lam.l3 == 1.0
    assert abs(lam.l1 - math.exp(-1.0)) < 1e-15
    assert lam.l1 == lam.l2


def test_evolve_matches_ode_integration():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    schedule = RateSchedule([
        (0.5, (1.2, 0.3, 0.0)),
        (0.7, (0.0, 0.4, 0.9)),
        (0.3, (2.0, 1.0, 0.25)),
    ])

    def advance(y, rates, dt):
        def rhs(_t, y):
            return [
                -(rates.g2 + rates.g3) * y[0],
                -(rates.g1 + rates.g3) * y[1],
                -(rates.g1 + rates.g2) * y[2],
            ]

        sol = solve_ivp(rhs, (0.0, dt), y, method="DOP853", rtol=1e-12, atol=1e-14)
        return sol.y[:, -1]

    probes = [0.2, 0.5, 0.9, 1.2, 1.5]
    for t in probes:
        y = np.array([1.0, 1.0, 1.0])
        elapsed = 0.0
        for duration, rates in schedule.segments:
            dt = min(duration, t - elapsed)
            if dt <= 0.0:
                break
            y = advance(y, rates, dt)
            elapsed += duration
        lam = evolve(schedule, t)
        assert np.allclose(tuple(lam), y, rtol=1e-9, atol=1e-12)


def test_evolution_composes_multiplicatively():
    first = RateSchedule([(0.3, (0.5, 0.2, 0.1))])
    second = RateSchedule([(0.4, (0.0, 1.0, 0.3))])
    combined = RateSchedule([(0.3, (0.5, 0.2, 0.1)), (0.4, (0.0, 1.0, 0.3))])
    a = evolve(first, 0.3)
    b = evolve(second, 0.4)
    c = evolve(combined, combined.total_duration)
    assert abs(c.l1 - a.l1 * b.l1) < 1e-12
    assert abs(c.l2 - a.l2 * b.l2) < 1e-12
    assert abs(c.l3 - a.l3 * b.l3) < 1e-12


def test_evolve_output_is_always_positive():
    # negative rates are allowed; the eigenvalues stay positive anyway
    rng = np.random.default_rng(21)
    for _ in range(200):
        rates = tuple(rng.uniform(-2.0, 2.0, 3))
        schedule = RateSchedule([(1.5, rates)])
        for t in rng.uniform(0.0, 1.5, 5):
            lam = evolve(schedule, float(t))
            assert lam.l1 > 0 and lam.l2 > 0 and lam.l3 > 0


def test_nonnegative_rates_keep_the_map_cp():
    rng = np.random.default_rng(22)
    for _ in range(100):
        segments = [
            (float(rng.uniform(0.1, 1.0)), tuple(rng.uniform(0.0, 2.0, 3)))
            for _ in range(rng.integers(1, 4))
        ]
        schedule = RateSchedule(segments)
        for frac in np.linspace(0.0, 1.0, 10):
            lam = evolve(schedule, float(frac) * schedule.total_duration)
            assert is_cp(lam)
            assert is_tlg(lam)


def test_integrate_rates_range_check():
    schedule = RateSchedule([(1.0, (1.0, 1.0, 1.0))])
    with pytest.raises(ValueError):
        integrate_rates(schedule, -0.1)
    with pytest.raises(ValueError):
        integrate_rates(schedule, 1.1)
    assert integrate_rates(schedule, 1.0) == (1.0, 1.0, 1.0)


def _reference_integrate_rates(schedule, t):
    """The scalar loop integrate_rates ran before it shared one with arrays."""
    G1 = G2 = G3 = 0.0
    remaining = t
    for duration, rates in schedule.segments:
        if remaining <= 0.0:
            break
        dt = min(remaining, duration)
        G1 += rates.g1 * dt
        G2 += rates.g2 * dt
        G3 += rates.g3 * dt
        remaining -= duration
    return G1, G2, G3


def _reference_integrals(segments, times):
    """The numpy loop classify_trajectory ran before it called _integrals."""
    remaining = times.copy()
    G = np.zeros((len(times), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for duration, rates in segments:
            dt = np.clip(remaining, 0.0, duration)
            G += dt[:, None] * (rates.g1, rates.g2, rates.g3)
            remaining -= duration
    return G[:, 0], G[:, 1], G[:, 2]


_MAX = sys.float_info.max
_edge_rate = st.sampled_from([_MAX, -_MAX, 1e300, -1e300, 0.0, -0.0, 5e-324, -5e-324])
_any_rate = _edge_rate | st.floats(-3.0, 3.0) | st.floats(-_MAX, _MAX)
_duration = (st.sampled_from([5e-324, 1e-300]) | st.floats(1e-3, 10.0)
             | st.integers(1, 12).map(lambda k: _MAX / k))


@st.composite
def _schedules_and_times(draw):
    segments = draw(st.lists(st.tuples(_duration, st.tuples(_any_rate, _any_rate, _any_rate)),
                             min_size=1, max_size=7))
    try:
        schedule = RateSchedule(segments)
    except ValueError:  # the durations sum past the largest float
        schedule = RateSchedule(segments[:1])
    total = schedule.total_duration
    durations = [d for d, _r in schedule.segments]
    ends = [math.fsum(durations[:i]) for i in range(1, len(durations) + 1)]
    candidates = [0.0, -0.0, total, *ends, *(math.nextafter(e, 0.0) for e in ends)]
    times = draw(st.lists(st.sampled_from(candidates) | st.floats(0.0, total), min_size=1))
    return schedule.segments, [t for t in times if t <= total]


def _bits(values):
    return [float(x).hex() for x in values]


@settings(max_examples=500, deadline=None)
@given(case=_schedules_and_times())
# Durations that sum near the largest float: an array whose spent time ran on
# to -inf would add -inf * False = nan, and evolve(s, 0.0) would fail.
@example(case=([(d, (1, 2, 3)) for d in (
    2.996155224770525e307, 2.996155224770549e307, 2.996155224770525e307,
    2.9961552247705164e307, 2.9961552247706905e307, 2.996155224770351e307, 1.0)], [0.0]))
@pytest.mark.filterwarnings("error")
def test_one_integral_matches_both_reference_loops(case):
    segments, times = case
    schedule = RateSchedule(segments)
    for t in times:
        got = integrate_rates(schedule, t)
        assert _bits(got) == _bits(_reference_integrate_rates(schedule, t))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _integrals(schedule.segments, np.array(times, dtype=float))
    want = _reference_integrals(schedule.segments, np.array(times, dtype=float))
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


def test_rates_for_target_round_trip():
    target = EigenvalueTriple(0.9, 0.8, 0.95)
    t_star = 2.0
    rates = rates_for_target(target, t_star)
    lam = evolve(RateSchedule([(t_star, rates)]), t_star)
    assert abs(lam.l1 - target.l1) < 1e-12
    assert abs(lam.l2 - target.l2) < 1e-12
    assert abs(lam.l3 - target.l3) < 1e-12


@pytest.mark.parametrize("t_star, message", [
    (math.inf, "t_star must be positive and finite, got inf"),
    (math.nan, "t_star must be positive and finite, got nan"),
    (0.0, "t_star must be positive and finite, got 0.0"),
    (1e-320, "t_star=1e-320 is too small: the rates overflow"),
    (10**400, "t_star is out of float range"),
    (-10**400, "t_star is out of float range"),
    (Decimal("-1"), "t_star must be positive and finite, got Decimal('-1')"),
    (Decimal("Infinity"), "t_star must be positive and finite, got Decimal('Infinity')"),
])
def test_rates_for_target_rejects_a_bad_t_star_by_name(t_star, message):
    with pytest.raises(ValueError) as info:
        rates_for_target(EigenvalueTriple(0.5, 0.5, 0.5), t_star)
    assert str(info.value) == message


@pytest.mark.parametrize("t_star", ["1", None, [1.0], 1j])
def test_rates_for_target_rejects_a_non_number_t_star_by_name(t_star):
    with pytest.raises(TypeError) as info:
        rates_for_target(EigenvalueTriple(0.5, 0.5, 0.5), t_star)
    assert str(info.value) == f"t_star must be a real number, got {t_star!r}"


def test_rates_for_target_round_trip_random():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10**3):
        target = EigenvalueTriple(*rng.uniform(0.05, 1.5, 3))
        t_star = float(rng.uniform(0.1, 3.0))
        rates = rates_for_target(target, t_star)
        lam = evolve(RateSchedule([(t_star, rates)]), t_star)
        worst = max(worst, *(abs(a - b) for a, b in zip(lam, target)))
    assert worst < 1e-12


def test_rates_for_target_rejects_bad_input():
    with pytest.raises(ValueError):
        rates_for_target(EigenvalueTriple(0.0, 0.5, 0.5), 1.0)
    with pytest.raises(ValueError):
        rates_for_target(EigenvalueTriple(-0.1, 0.5, 0.5), 1.0)
    with pytest.raises(ValueError):
        rates_for_target(EigenvalueTriple(0.5, 0.5, 0.5), 0.0)


def test_is_semigroup_reachable_cases():
    e = math.exp(-1.0)
    assert is_semigroup_reachable(EigenvalueTriple(1.0, 1.0, 1.0))
    assert is_semigroup_reachable(EigenvalueTriple(e, e, e))
    assert is_semigroup_reachable(EigenvalueTriple(0.9, 0.85, 0.8))
    assert not is_semigroup_reachable(EigenvalueTriple(0.5, -0.5, 0.5))
    assert not is_semigroup_reachable(EigenvalueTriple(0.0, 0.5, 0.5))
    # one log-eigenvalue equal to the sum of the other two sits exactly
    # on the reachability boundary; this triple hits it in floats
    assert math.log(0.25) == 2.0 * math.log(0.5)
    assert is_semigroup_reachable(EigenvalueTriple(0.25, 0.5, 0.5))
    assert not is_semigroup_reachable(EigenvalueTriple(0.9, 0.9, 0.9**3))


def test_semigroup_reachable_agrees_with_constant_rate_evolution():
    rng = np.random.default_rng(24)
    for _ in range(300):
        lam = EigenvalueTriple(*rng.uniform(0.05, 1.0, 3))
        rates = rates_for_target(lam, 1.0)
        constant_ok = min(rates.g1, rates.g2, rates.g3) >= 0.0
        assert is_semigroup_reachable(lam) == constant_ok


def test_classify_trajectory_depolarizing():
    points = classify_trajectory(_depolarizing(1.0, 1.0), steps=11)
    assert len(points) == 11
    assert [round(p.t, 10) for p in points] == [round(0.1 * i, 10) for i in range(11)]
    first = points[0]
    assert tuple(first.eigenvalues) == (1.0, 1.0, 1.0)
    assert first.regions["CPT"] and first.regions["TLG"]
    assert not first.regions["EBC"]
    assert all(p.regions["CPT"] for p in points)
    assert all(p.regions["PDIV"] for p in points)
    # 3 * exp(-2t) <= 1 first holds at t = 0.6 on this grid
    ebc = [p.regions["EBC"] for p in points]
    assert ebc == [False] * 6 + [True] * 5


def _reference_trajectory(schedule, steps):
    """classify_trajectory one step at a time: evolve and the six scalar predicates."""
    total = schedule.total_duration
    points = []
    for i in range(steps):
        t = total * i / (steps - 1) if i < steps - 1 else total
        lam = evolve(schedule, t)
        regions = {
            "PT": is_positive(lam),
            "CPT": is_cp(lam),
            "EBC": is_ebc(lam),
            "TLG": is_tlg(lam),
            "PDIV": is_p_divisible(lam),
            "CPDIV": is_cp_divisible(lam),
        }
        points.append((t, lam, regions))
    return points


_rate = st.floats(-3.0, 3.0) | st.floats(-1000.0, 1000.0) | st.floats(-1e308, 1e308)
_segments = st.lists(
    st.tuples(st.floats(1e-3, 10.0), st.tuples(_rate, _rate, _rate)), min_size=1, max_size=6
)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(segments=_segments, steps=st.integers(2, 60))
@example(segments=[(2.0, (-1e308, -1e308, -1e308))], steps=3)  # exp(inf): "got inf"
@example(segments=[(4.0, (0.0, 1e308, -1e308))], steps=3)  # inf - inf: "got nan"
@example(segments=[(1.0, (400.0, 400.0, -1000.0))], steps=2)  # l1 * l2 * l3 = inf * 0
def test_classify_trajectory_matches_scalar_reference(segments, steps):
    schedule = RateSchedule(segments)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf and nan arise as silently as in Python floats
        got, got_error = _outcome(classify_trajectory, schedule, steps)
    want, want_error = _outcome(_reference_trajectory, schedule, steps)
    assert got_error == want_error
    if want is None:
        return
    assert len(got) == len(want)
    for point, (t, lam, regions) in zip(got, want):
        assert type(point.t) is float and point.t.hex() == t.hex()
        assert type(point.eigenvalues) is EigenvalueTriple
        assert [x.hex() for x in point.eigenvalues] == [x.hex() for x in lam]
        assert list(point.regions.items()) == list(regions.items())
        assert all(type(key) is str and type(flag) is bool for key, flag in point.regions.items())


def test_trajectory_last_time_is_clamped_to_the_schedule_end():
    schedule = RateSchedule([(0.1, (1.0, 1.0, 1.0))])
    assert 0.1 * 3 / 3 > 0.1  # the unclamped last time overshoots by one ulp
    points = classify_trajectory(schedule, 4)
    assert [p.t for p in points][-1] == 0.1
    assert points[-1].eigenvalues == evolve(schedule, 0.1)


def test_trajectory_last_time_is_the_schedule_end_where_rounding_falls_short():
    durations = [1.0, 1.6641615052162093, 5.212210048177529, 9.66416150521621]
    schedule = RateSchedule([(d, (0.5, -0.25, 1.0)) for d in durations])
    total = schedule.total_duration
    assert total == 17.54053305860995
    assert total * 121 / 121 < total  # the computed last time falls one ulp short
    points = classify_trajectory(schedule, 122)
    assert points[-1].t == total
    assert points[-1].eigenvalues == evolve(schedule, total)


@settings(max_examples=200, deadline=None)
@given(durations=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8), steps=st.integers(2, 500))
def test_trajectory_times_stay_within_the_schedule(durations, steps):
    schedule = RateSchedule([(d, (0.5, -0.25, 1.0)) for d in durations])
    total = schedule.total_duration
    times = [p.t for p in classify_trajectory(schedule, steps)]
    assert len(times) == steps
    assert times[0] == 0.0 and times[-1] == total
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_classify_trajectory_step_validation():
    with pytest.raises(ValueError):
        classify_trajectory(_depolarizing(1.0, 1.0), steps=1)


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", None])
def test_classify_trajectory_rejects_a_non_integer_steps_by_name(steps, monkeypatch):
    # The check comes before any array is built.
    monkeypatch.setattr(np, "arange", None)
    with pytest.raises(TypeError) as info:
        classify_trajectory(_depolarizing(1.0, 1.0), steps)
    assert str(info.value) == f"steps must be an int, got {steps!r}"


def test_classify_trajectory_takes_numpy_integer_steps():
    schedule = _depolarizing(1.0, 1.0)
    assert classify_trajectory(schedule, np.int64(4)) == classify_trajectory(schedule, 4)


def test_schedule_from_json():
    schedule = schedule_from_json(
        [
            {"duration": 0.5, "rates": [1.0, 0.0, 0.0]},
            {"duration": 1.5, "rates": [0.0, 2.0, 0.5]},
        ]
    )
    assert schedule.total_duration == 2.0
    assert schedule.segments[1][1] == RateTriple(0.0, 2.0, 0.5)


def test_schedule_from_json_malformed():
    with pytest.raises(ValueError):
        schedule_from_json({"duration": 1.0, "rates": [1, 1, 1]})
    with pytest.raises(ValueError):
        schedule_from_json([])
    with pytest.raises(ValueError):
        schedule_from_json([{"duration": 1.0}])
    with pytest.raises(ValueError):
        schedule_from_json([{"duration": 1.0, "rates": [1, 1]}])
    with pytest.raises(ValueError):
        schedule_from_json([{"duration": -1.0, "rates": [1, 1, 1]}])
    with pytest.raises(ValueError):
        schedule_from_json([{"duration": 1.0, "rates": [1, 1, 1], "extra": 0}])


@pytest.mark.parametrize(
    "segment, message",
    [
        ({"duration": 1, "rates": ["1", 0, 0]}, "segment 0 rate must be a number"),
        ({"duration": True, "rates": [1, 0, 0]}, "segment 0 duration must be a number"),
        ({"duration": 1, "rates": [0, False, 0]}, "segment 0 rate must be a number"),
        ({"duration": None, "rates": [1, 0, 0]}, "segment 0 duration must be a number"),
        ({"duration": 1, "rates": [[1], 0, 0]}, "segment 0 rate must be a number"),
        ({"duration": 10**400, "rates": [1, 0, 0]}, "segment 0 duration is out of float range"),
        ({"duration": 1, "rates": [0, 0, -10**400]}, "segment 0 rate g3 is out of float range"),
    ],
)
def test_schedule_from_json_rejects_non_numbers(segment, message):
    with pytest.raises(ValueError, match=message):
        schedule_from_json([segment])


def test_schedule_from_json_keeps_int_numbers():
    schedule = schedule_from_json([{"duration": 2, "rates": [1, 0, 3]}])
    assert schedule.segments == ((2.0, RateTriple(1.0, 0.0, 3.0)),)
    assert all(type(x) is float for x in schedule.segments[0][1])


def test_evolve_overflow_is_a_value_error():
    schedule = schedule_from_json([{"duration": 1, "rates": [-1000, -1000, -1000]}])
    with pytest.raises(ValueError, match="overflow at time 1.0"):
        evolve(schedule, 1.0)
    # the trajectory starts inside the float range and fails where it leaves it
    with pytest.raises(ValueError, match="overflow"):
        classify_trajectory(schedule, 11)


def test_rate_schedule_validation():
    with pytest.raises(ValueError):
        RateSchedule([])
    with pytest.raises(ValueError):
        RateSchedule([(0.0, (1, 1, 1))])
    with pytest.raises(ValueError):
        RateSchedule([(math.inf, (1, 1, 1))])


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("duration, rates, message", [
    (-1, [1, 0, 0], "duration must be positive and finite, got -1"),
    (math.inf, [1, 0, 0], "duration must be positive and finite, got inf"),
    (1, [math.inf, 0, 0], "rate g1 must be finite, got inf"),
], ids=["negative duration", "infinite duration", "infinite rate"])
def test_schedule_errors_name_their_segment(i, duration, rates, message):
    segments = [(1.0, [0.5, 0.0, 0.2])] * i + [(duration, rates)]
    for make in (lambda: RateSchedule(segments),
                 lambda: schedule_from_json([{"duration": d, "rates": r} for d, r in segments])):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == f"segment {i} {message}"


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: RateTriple(None, 0, 0), TypeError, "rate g1 must be a real number, got None"),
        (lambda: RateTriple(0, "1", 0), TypeError, "rate g2 must be a real number, got '1'"),
        (lambda: RateSchedule([(None, (1, 1, 1))]), TypeError,
         "segment 0 duration must be a real number, got None"),
        (lambda: RateSchedule([("x", (1, 1, 1))]), TypeError,
         "segment 0 duration must be a real number, got 'x'"),
        (lambda: RateSchedule([(1.0, (1, None, 1))]), TypeError,
         "segment 0 rate g2 must be a real number, got None"),
        (lambda: RateTriple(0, -2**1100, 0), ValueError, "rate g2 is out of float range"),
        (lambda: RateSchedule([(1.0, (1, 1, 1)), (2**1100, (1, 1, 1))]), ValueError,
         "segment 1 duration is out of float range"),
        (lambda: RateSchedule([(1.0,)]), ValueError,
         "segment 0 must be a (duration, rates) pair, got (1.0,)"),
        (lambda: RateSchedule([(1.0, (1, 1, 1)), 5]), TypeError,
         "segment 1 must be a (duration, rates) pair, got 5"),
        (lambda: RateSchedule([(1.0, (1, 1))]), TypeError,
         "segment 0 rates must be three numbers, got (1, 1)"),
        (lambda: RateSchedule([(1.0, 5)]), TypeError,
         "segment 0 rates must be three numbers, got 5"),
        (lambda: evolve(_depolarizing(1.0, 2.0), "1"), TypeError,
         "time t must be a real number, got '1'"),
        (lambda: integrate_rates(_depolarizing(1.0, 2.0), None), TypeError,
         "time t must be a real number, got None"),
        # an array of times is not a time, with one element or more
        (lambda: evolve(_depolarizing(1.0, 2.0), np.array([0.5])), TypeError,
         "time t must be a real number, got array([0.5])"),
        (lambda: integrate_rates(_depolarizing(1.0, 2.0), np.array([0.2, 0.5])), TypeError,
         "time t must be a real number, got array([0.2, 0.5])"),
        # the time is read before the range check, so an array outside the range
        # is named as an array too
        (lambda: evolve(_depolarizing(1.0, 2.0), np.array([5.0])), TypeError,
         "time t must be a real number, got array([5.])"),
        (lambda: evolve(_depolarizing(1.0, 2.0), np.array([-1.0, 5.0])), TypeError,
         "time t must be a real number, got array([-1.,  5.])"),
        # a Decimal NaN is a number outside every range, as a float NaN is
        (lambda: evolve(_depolarizing(1.0, 2.0), math.nan), ValueError,
         "time nan outside the schedule range [0, 2.0]"),
        (lambda: evolve(_depolarizing(1.0, 2.0), Decimal("NaN")), ValueError,
         "time Decimal('NaN') outside the schedule range [0, 2.0]"),
        (lambda: evolve(_depolarizing(1.0, 2.0), Decimal("sNaN")), ValueError,
         "time Decimal('sNaN') outside the schedule range [0, 2.0]"),
        (lambda: integrate_rates(_depolarizing(1.0, 2.0), Decimal("-Infinity")), ValueError,
         "time Decimal('-Infinity') outside the schedule range [0, 2.0]"),
        (lambda: integrate_rates(_depolarizing(1.0, 2.0), 10**400), ValueError,
         "time t is out of float range"),
    ],
)
def test_rates_schedules_and_times_name_a_non_number(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_numbers_accepted_before_the_naming_checks_still_are():
    # any duration, time or t_star that compares with floats is read as its float.
    schedule = RateSchedule([(Fraction(3, 2), (1, 0, Fraction(1, 2)))])
    assert schedule.segments == ((1.5, RateTriple(1.0, 0.0, 0.5)),)
    assert integrate_rates(schedule, Decimal(0)) == (0.0, 0.0, 0.0)
    assert integrate_rates(schedule, Fraction(1, 2)) == (0.5, 0.0, 0.25)
    assert evolve(schedule, np.float64(1.5)) == evolve(schedule, 1.5)
    assert evolve(schedule, Decimal("0.5")) == evolve(schedule, 0.5)
    assert evolve(schedule, Fraction(1, 3)) == evolve(schedule, 1 / 3)
    t = np.array(0.5)
    assert evolve(schedule, t) == evolve(schedule, 0.5)
    assert t == 0.5  # the caller's array is left as it was
    assert all(type(g) is float for g in integrate_rates(schedule, Decimal("0.5")))
    target = EigenvalueTriple(0.9, 0.8, 0.95)
    for t_star in (Decimal(2), Fraction(2), np.float32(2.0), np.array(2.0)):
        assert rates_for_target(target, t_star) == rates_for_target(target, 2.0)
