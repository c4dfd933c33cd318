"""Eigenvalue dynamics under piecewise-constant generator rates.

A time-local generator with rates (g1(t), g2(t), g3(t)) moves the map
eigenvalues along

    lambda_a(t) = exp(Gamma_a(t) - Gamma_0(t)),

where Gamma_a(t) is the integral of g_a up to t and Gamma_0 is the sum
of the three.  Schedules are piecewise constant, so the integrals have
closed forms and no ODE solver enters; a semigroup is the special case
of a single segment with nonnegative rates.

Every map with strictly positive eigenvalues is reachable this way:
``rates_for_target`` inverts the flow, and negative rates are allowed
exactly so that targets with some Gamma_a < 0 stay reachable.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .channel import EigenvalueTriple, _build
from .regions import _Frozen, _check_finite, _columns, _int, _real, _region_record

__all__ = [
    "RateTriple",
    "RateSchedule",
    "TrajectoryPoint",
    "schedule_from_json",
    "integrate_rates",
    "evolve",
    "rates_for_target",
    "is_semigroup_reachable",
    "classify_trajectory",
]


class RateTriple(_Frozen):
    """Generator rates (g1, g2, g3); negative values are allowed."""

    _fields = ("g1", "g2", "g3")

    def __init__(self, g1, g2, g3):
        _check_finite("rate", self._fields, (g1, g2, g3))
        for name, g in zip(self._fields, (g1, g2, g3)):
            object.__setattr__(self, name, float(g))

    def __iter__(self):
        return iter(self._values(self))


class RateSchedule(_Frozen):
    """Ordered piecewise-constant rate segments (duration, rates)."""

    _fields = ("segments",)

    def __init__(self, segments: Iterable[tuple]):
        parsed = []
        for i, segment in enumerate(segments):
            try:
                duration, rates = segment
            except (TypeError, ValueError) as exc:
                error = TypeError if isinstance(exc, TypeError) else ValueError
                raise error(
                    f"segment {i} must be a (duration, rates) pair, got {segment!r}"
                ) from None
            value = _real(f"segment {i} duration", duration)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"segment {i} duration must be positive and finite, got {duration!r}")
            if not isinstance(rates, RateTriple):
                try:
                    g1, g2, g3 = rates
                except (TypeError, ValueError):
                    raise TypeError(
                        f"segment {i} rates must be three numbers, got {rates!r}"
                    ) from None
                try:
                    rates = RateTriple(g1, g2, g3)
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"segment {i} {exc}") from None
            parsed.append((value, rates))
        if not parsed:
            raise ValueError("schedule needs at least one segment")
        try:
            total = math.fsum(d for d, _r in parsed)
        except OverflowError:
            raise ValueError("segment durations sum past the largest float") from None
        object.__setattr__(self, "segments", tuple(parsed))
        # the exact sum of the durations, rounded once; not a field
        object.__setattr__(self, "total_duration", total)


def schedule_from_json(obj) -> RateSchedule:
    """Build a schedule from parsed JSON: a list of segment objects.

    Each segment is ``{"duration": number, "rates": [g1, g2, g3]}``.  Any
    other JSON value, a boolean or a string, is a ValueError; the numbers
    are read and checked by :class:`RateSchedule`.
    """
    if not isinstance(obj, list):
        raise ValueError("schedule JSON must be a list of segments")
    segments = []
    for i, seg in enumerate(obj):
        if not isinstance(seg, Mapping) or set(seg) != {"duration", "rates"}:
            raise ValueError(
                f"segment {i} must be an object with keys 'duration' and 'rates'"
            )
        rates = seg["rates"]
        if not isinstance(rates, list) or len(rates) != 3:
            raise ValueError(f"segment {i} rates must be a list of three numbers")
        for what, value in (("duration", seg["duration"]), *(("rate", g) for g in rates)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"segment {i} {what} must be a number, got {value!r}")
        segments.append((seg["duration"], rates))
    return RateSchedule(segments)


def integrate_rates(schedule: RateSchedule, t: float) -> tuple:
    """Rate integrals (Gamma_1, Gamma_2, Gamma_3) over [0, t], exactly segment by segment."""
    # read before the range check, so an array of times is a TypeError even out of range
    value = _real("time t", t)
    if not 0.0 <= value <= schedule.total_duration:
        raise ValueError(
            f"time {t!r} outside the schedule range [0, {schedule.total_duration}]"
        )
    return _integrals(schedule.segments, value)


def _integrals(segments, t) -> tuple:
    """Rate integrals over [0, t] for a float t, or elementwise for a float64 array.

    Arithmetic operators only, so the one loop serves both.  Each segment
    adds ``rate * dt``, where dt is min(remaining, duration) while time
    remains and 0 once it is spent; ``remaining`` then stops falling, as
    on durations that sum near the largest float it would reach -inf, and
    -inf * False is nan.
    """
    G1 = G2 = G3 = 0.0
    remaining = t
    for duration, rates in segments:
        dt = (remaining * ((0.0 < remaining) & (remaining <= duration))
              + duration * (remaining > duration))
        G1 = G1 + rates.g1 * dt
        G2 = G2 + rates.g2 * dt
        G3 = G3 + rates.g3 * dt
        remaining = remaining - duration * (remaining > 0.0)
    return G1, G2, G3


def evolve(schedule: RateSchedule, t: float) -> EigenvalueTriple:
    """Eigenvalues at time t: lambda_a = exp(Gamma_a - Gamma_0).

    The exponent Gamma_a - Gamma_0 equals minus the sum of the other
    two integrals, which is how it is evaluated; outputs are therefore
    always strictly positive, and lambda(0) = (1, 1, 1).
    """
    G1, G2, G3 = integrate_rates(schedule, t)
    return _eigenvalues(t, -(G2 + G3), -(G1 + G3), -(G1 + G2))


def _eigenvalues(t: float, x1: float, x2: float, x3: float) -> EigenvalueTriple:
    """The triple (exp(x1), exp(x2), exp(x3)) at time t; overflow is a ValueError."""
    try:
        return EigenvalueTriple(math.exp(x1), math.exp(x2), math.exp(x3))
    except OverflowError:
        raise ValueError(
            f"eigenvalues overflow at time {t!r}: the rate integrals are too negative"
        ) from None


def _mu(l: EigenvalueTriple) -> tuple:
    if not (l.l1 > 0.0 and l.l2 > 0.0 and l.l3 > 0.0):
        raise ValueError(
            f"target {(l.l1, l.l2, l.l3)} is not reachable by a time-local"
            " generator: all eigenvalues must be strictly positive"
        )
    return (-math.log(l.l1), -math.log(l.l2), -math.log(l.l3))


def rates_for_target(l: EigenvalueTriple, t_star: float) -> RateTriple:
    """Constant rates that reach the target eigenvalues at time t_star.

    With mu_a = -log(lambda_a), the integrals must come out as
    Gamma_a = (mu_b + mu_c - mu_a)/2 for {a, b, c} = {1, 2, 3}; constant
    rates gamma_a = Gamma_a / t_star realize that, so
    evolve([(t_star, rates)], t_star) returns the target up to rounding.
    Rejects targets with any eigenvalue <= 0, and a t_star that is not
    positive and finite or so small that a rate overflows.
    """
    t = _real("t_star", t_star)
    if not 0.0 < t < math.inf:
        raise ValueError(f"t_star must be positive and finite, got {t_star!r}")
    m1, m2, m3 = _mu(l)
    rates = (0.5 * (m2 + m3 - m1) / t,
             0.5 * (m1 + m3 - m2) / t,
             0.5 * (m1 + m2 - m3) / t)
    if not all(map(math.isfinite, rates)):
        raise ValueError(f"t_star={t_star!r} is too small: the rates overflow")
    return RateTriple(*rates)


def is_semigroup_reachable(l: EigenvalueTriple) -> bool:
    """Whether constant nonnegative rates reach the given eigenvalues.

    True iff all eigenvalues are strictly positive and each required
    integral (mu_b + mu_c - mu_a)/2 is nonnegative.  Boundary zeros are
    reported unreachable: they are only limits of the flow.
    """
    if not (l.l1 > 0.0 and l.l2 > 0.0 and l.l3 > 0.0):
        return False
    m1, m2, m3 = _mu(l)
    return m2 + m3 >= m1 and m1 + m3 >= m2 and m1 + m2 >= m3


# Largest ``steps`` of classify_trajectory.  The CLI holds every point once and
# writes their text in blocks, and peaks at about 0.58 KB a step, so near
# 290 MB here (os.wait4); the cap is checked before anything is allocated.
MAX_STEPS = 5 * 10**5


class TrajectoryPoint(_Frozen):
    """One classified step of an eigenvalue trajectory, whose points share one
    ``regions`` dict per distinct membership: at most 64, and a write shows in each."""

    __slots__ = _fields = ("t", "eigenvalues", "regions")

    def __init__(self, t, eigenvalues, regions):
        _set_t(self, t)
        _set_eigenvalues(self, eigenvalues)
        _set_regions(self, regions)


_set_t, _set_eigenvalues, _set_regions = TrajectoryPoint._setters


def classify_trajectory(schedule: RateSchedule, steps: int) -> list:
    """Classify the trajectory at equally spaced times over the schedule.

    Evaluates all six region predicates at ``steps`` times from 0 to the
    schedule's total duration inclusive; the last time is that duration
    exactly, which ``total * i / (steps - 1)`` can miss by one ulp either
    way.  All steps run :func:`evolve`'s own integral at once, as one array
    of times, and the six regions are read as one ``_region_record`` of
    masks, so every point equals ``evolve`` and the scalar predicates at
    its time.  The triples and points are built by ``channel._build``,
    with no Python frame per step.
    """
    steps = _int("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}, got {steps}")
    total = schedule.total_duration
    if not math.isfinite(total * (steps - 1)):
        raise ValueError(f"step times overflow: {steps - 1} steps of a {total!r} schedule")
    import numpy as np
    times = np.arange(steps) * total / (steps - 1)
    times[-1] = total
    # Python floats overflow to inf and nan without a warning; so do these.
    with np.errstate(over="ignore", invalid="ignore"):
        G1, G2, G3 = _integrals(schedule.segments, times)
        exponents = (-(G2 + G3), -(G1 + G3), -(G1 + G2))
    ts = times.tolist()
    xs = [e.tolist() for e in exponents]
    # math.exp, as evolve applies it to each step's exponents
    try:
        columns = [list(map(math.exp, x)) for x in xs]
        lam = np.array(columns).T
        finite = np.isfinite(lam).all()
    except OverflowError:
        finite = False
    if not finite:  # evolve's own checks, step by step, raise the first failing step's error
        for t, x in zip(ts, zip(*xs)):
            _eigenvalues(t, *x)
    with np.errstate(over="ignore", invalid="ignore"):
        record = _region_record(_columns(lam))
    masks = np.stack(list(record.values()))  # one dict per distinct membership code
    codes = np.packbits(masks, axis=0, bitorder="little")[0]
    _codes, first, index = np.unique(codes, return_index=True, return_inverse=True)
    shared = [dict(zip(record, masks[:, i].tolist())) for i in first.tolist()]
    records = map(shared.__getitem__, index.tolist())
    # finite floats, stored as EigenvalueTriple would store them
    return _build(TrajectoryPoint, (ts, _build(EigenvalueTriple, columns), records))
