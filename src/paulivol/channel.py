"""Qubit Pauli maps in eigenvalue and probability coordinates.

A Pauli map acts as rho -> sum_a p_a sigma_a rho sigma_a.  It is diagonal
in the Pauli basis, Lambda[sigma_a] = lambda_a sigma_a with lambda_0 = 1,
so the triple (lambda_1, lambda_2, lambda_3) fixes the map completely.
This module converts between the two coordinate systems and builds the
Choi-Jamiolkowski state of a map and its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EigenvalueTriple",
    "ProbabilityVector",
    "ChoiMatrix",
    "p_to_lambda",
    "lambda_to_p",
    "choi_matrix",
    "choi_spectrum",
]

# The weight-sum and Choi-trace checks share one tolerance.
_ATOL = 1e-12


@dataclass(frozen=True)
class EigenvalueTriple:
    """Eigenvalues (lambda_1, lambda_2, lambda_3) of a Pauli map.

    lambda_0 = 1 is implied by trace preservation and never stored.  No
    range restriction is imposed: triples outside the positivity cube are
    representable and classify as "not positive".
    """

    l1: float
    l2: float
    l3: float

    def __init__(self, l1, l2, l3):
        if not (math.isfinite(l1) and math.isfinite(l2) and math.isfinite(l3)):
            for name, v in (("l1", l1), ("l2", l2), ("l3", l3)):
                if not math.isfinite(v):
                    raise ValueError(f"eigenvalue {name} must be finite, got {v!r}")
        object.__setattr__(self, "l1", float(l1))
        object.__setattr__(self, "l2", float(l2))
        object.__setattr__(self, "l3", float(l3))

    def __iter__(self):
        yield self.l1
        yield self.l2
        yield self.l3


@dataclass(frozen=True)
class ProbabilityVector:
    """Pauli weights (p_0, p_1, p_2, p_3) of a map.

    The entries sum to 1 (trace preservation) but may be negative: maps
    that are positive without being completely positive carry
    quasi-probabilities.
    """

    p0: float
    p1: float
    p2: float
    p3: float

    def __init__(self, p0, p1, p2, p3):
        if not (math.isfinite(p0) and math.isfinite(p1) and math.isfinite(p2) and math.isfinite(p3)):
            for name, v in (("p0", p0), ("p1", p1), ("p2", p2), ("p3", p3)):
                if not math.isfinite(v):
                    raise ValueError(f"weight {name} must be finite, got {v!r}")
        p0, p1, p2, p3 = float(p0), float(p1), float(p2), float(p3)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p3", p3)
        total = p0 + p1 + p2 + p3
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"weights must sum to 1 within {_ATOL}, got sum {total!r}")

    def __iter__(self):
        yield self.p0
        yield self.p1
        yield self.p2
        yield self.p3


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """4x4 Choi-Jamiolkowski state (1/2) sum_ij |i><j| (x) Lambda[|i><j|].

    Built from the eigenvalue triple of a Pauli map: the diagonal holds
    (1 +- l3)/4 and the anti-diagonal (l1 +- l2)/4, all real, every other
    entry is zero, and ``entries`` is a read-only complex array.  The two
    2x2 invariant blocks (indices {0,3} and {1,2}) give the spectrum in
    closed form.
    """

    entries: np.ndarray

    def __init__(self, l: EigenvalueTriple):
        dp, dm, op, om = _choi_entries(l)
        import numpy as np
        entries = np.array([
            [dp, 0.0, 0.0, op],
            [0.0, dm, om, 0.0],
            [0.0, om, dm, 0.0],
            [op, 0.0, 0.0, dp],
        ], dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the two blocks, no general eigensolver.

        Each block [[d, o], [o, d]] has equal diagonal entries and a real
        off-diagonal one, so its eigenvalues are d + |o| and d - |o|.
        """
        import numpy as np
        m = self.entries.tolist()
        return np.array(_block_spectrum(m[0][0].real, m[1][1].real, m[0][3].real, m[1][2].real))


def p_to_lambda(p: ProbabilityVector) -> EigenvalueTriple:
    """Map Pauli weights to eigenvalues.

    lambda_a = p_0 + p_a - p_b - p_c for {a, b, c} = {1, 2, 3}.
    """
    return EigenvalueTriple(
        p.p0 + p.p1 - p.p2 - p.p3,
        p.p0 - p.p1 + p.p2 - p.p3,
        p.p0 - p.p1 - p.p2 + p.p3,
    )


def lambda_to_p(l: EigenvalueTriple) -> ProbabilityVector:
    """Map eigenvalues to Pauli weights (inverse of :func:`p_to_lambda`).

    p_0 = (1 + l1 + l2 + l3)/4 and cyclic sign flips for p_1, p_2, p_3.
    The weights equal the Choi spectrum of the map.  Eigenvalues so large
    that a weight overflows are rejected as such.
    """
    p0 = 0.25 * (1.0 + l.l1 + l.l2 + l.l3)
    p1 = 0.25 * (1.0 + l.l1 - l.l2 - l.l3)
    p2 = 0.25 * (1.0 - l.l1 + l.l2 - l.l3)
    p3 = 0.25 * (1.0 - l.l1 - l.l2 + l.l3)
    try:
        return ProbabilityVector(p0, p1, p2, p3)
    except ValueError:
        if math.isfinite(p0) and math.isfinite(p1) and math.isfinite(p2) and math.isfinite(p3):
            raise
    raise ValueError("eigenvalues are too large for finite Pauli weights")


def _choi_entries(l: EigenvalueTriple) -> tuple:
    """Diagonal entries (1 +- l3)/4 and anti-diagonal entries (l1 +- l2)/4.

    Two checks can fail: finiteness, once l1 +- l2 overflows, and the
    trace, through rounding once |l3| is near 1e16.  The trace is summed
    pairwise, (dp + dm) + (dm + dp), as numpy sums a 4x4 diagonal.
    """
    dp = 0.25 * (1.0 + l.l3)
    dm = 0.25 * (1.0 - l.l3)
    op = 0.25 * (l.l1 + l.l2)
    om = 0.25 * (l.l1 - l.l2)
    if not (math.isfinite(op) and math.isfinite(om)):
        raise ValueError("Choi matrix entries must be finite")
    if abs((dp + dm) + (dm + dp) - 1.0) > _ATOL:
        raise ValueError("Choi matrix must have unit trace")
    return dp, dm, op, om


def _block_spectrum(dp: float, dm: float, op: float, om: float) -> list:
    return [dp + abs(op), dp - abs(op), dm + abs(om), dm - abs(om)]


def choi_matrix(l: EigenvalueTriple) -> ChoiMatrix:
    """The Choi-Jamiolkowski state of the map; see :class:`ChoiMatrix`."""
    return ChoiMatrix(l)


def choi_spectrum(l: EigenvalueTriple) -> list:
    """``choi_matrix(l).eigenvalues()`` as Python floats, without numpy.

    The same checks raise the same errors.
    """
    return _block_spectrum(*_choi_entries(l))
