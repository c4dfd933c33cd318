"""Qubit Pauli maps in eigenvalue and probability coordinates.

A Pauli map acts as rho -> sum_a p_a sigma_a rho sigma_a.  It is diagonal
in the Pauli basis, Lambda[sigma_a] = lambda_a sigma_a with lambda_0 = 1,
so the triple (lambda_1, lambda_2, lambda_3) fixes the map completely.
This module converts between the two coordinate systems and builds the
Choi-Jamiolkowski state of a map and its spectrum.  Its value types are
frozen, slotted values on ``regions._Frozen``.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat

from .regions import _Frozen, _check_finite

__all__ = [
    "EigenvalueTriple",
    "ProbabilityVector",
    "ChoiMatrix",
    "p_to_lambda",
    "lambda_to_p",
    "choi_matrix",
    "choi_spectrum",
]

# The weight-sum and Choi-trace checks share one tolerance and one rounding bound.
_ATOL = 1e-12


def _beyond_rounding(total: float, *terms: float) -> bool:
    """Whether a float sum of four terms misses 1 by more than its rounding.

    The terms round four numbers that sum to 1: a ``lambda_to_p`` weight is
    off by at most 3u (u = 2**-53) of (1 + |l1| + |l2| + |l3|)/4 <= sum|x|,
    a Choi diagonal entry by u/2 of sum|x|, and the sum adds 3u of sum|x|:
    15u < 2**-49 of sum|x| in all, each term scaled first so it stays finite.
    """
    return abs(total - 1.0) > sum(2.0**-49 * abs(x) for x in terms)


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor on ``cls``, in field order.

    A frozen class stores its fields through these, which skips the name
    lookup ``object.__setattr__`` makes on every call.
    """
    return tuple(getattr(cls, name).__set__ for name in cls._fields)


def _build(cls, columns) -> list:
    """Rows of ``cls`` from one sequence per field, with no Python frame per row.

    Each row is allocated by ``object.__new__`` and each column stored
    through its field's slot setter, so no ``__init__`` runs and nothing
    is checked or converted: use it only on columns the ``__init__`` would
    store as they are, such as finite Python floats of an EigenvalueTriple
    read from a float64 array the caller has checked.
    """
    rows = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for setter, column in zip(_slot_setters(cls), columns):
        deque(map(setter, rows, column), 0)
    return rows


class EigenvalueTriple(_Frozen):
    """Eigenvalues (lambda_1, lambda_2, lambda_3) of a Pauli map.

    lambda_0 = 1 is implied by trace preservation and never stored.  No
    range restriction is imposed: triples outside the positivity cube are
    representable and classify as "not positive".
    """

    __slots__ = _fields = ("l1", "l2", "l3")

    def __init__(self, l1, l2, l3):
        # a float sum is finite only if every term is (an overflow takes the long way);
        # exact floats are stored as given, as float() would return them
        if not (type(l1) is type(l2) is type(l3) is float and math.isfinite(l1 + l2 + l3)):
            _check_finite("eigenvalue", ("l1", "l2", "l3"), (l1, l2, l3))
            l1, l2, l3 = float(l1), float(l2), float(l3)
        _set_l1(self, l1)
        _set_l2(self, l2)
        _set_l3(self, l3)

    def __iter__(self):
        return iter(self._values(self))


_set_l1, _set_l2, _set_l3 = _slot_setters(EigenvalueTriple)


class ProbabilityVector(_Frozen):
    """Pauli weights (p_0, p_1, p_2, p_3) of a map.

    The entries sum to 1 (trace preservation) but may be negative: maps
    that are positive without being completely positive carry
    quasi-probabilities.
    """

    __slots__ = _fields = ("p0", "p1", "p2", "p3")

    def __init__(self, p0, p1, p2, p3):
        # only exact, finite floats skip the named check, as in EigenvalueTriple
        if not (type(p0) is type(p1) is type(p2) is type(p3) is float
                and math.isfinite(p0 + p1 + p2 + p3)):
            _check_finite("weight", ("p0", "p1", "p2", "p3"), (p0, p1, p2, p3))
            p0, p1, p2, p3 = float(p0), float(p1), float(p2), float(p3)
        _set_p0(self, p0)
        _set_p1(self, p1)
        _set_p2(self, p2)
        _set_p3(self, p3)
        total = p0 + p1 + p2 + p3
        if abs(total - 1.0) > _ATOL and _beyond_rounding(total, p0, p1, p2, p3):
            raise ValueError(f"weights must sum to 1 within {_ATOL}, got sum {total!r}")

    def __iter__(self):
        return iter(self._values(self))


_set_p0, _set_p1, _set_p2, _set_p3 = _slot_setters(ProbabilityVector)


class ChoiMatrix(_Frozen):
    """4x4 Choi-Jamiolkowski state (1/2) sum_ij |i><j| (x) Lambda[|i><j|].

    Built from the eigenvalue triple of a Pauli map: the diagonal holds
    (1 +- l3)/4 and the anti-diagonal (l1 +- l2)/4, all real, every other
    entry is zero.  ``blocks`` keeps those four numbers (dp, dm, op, om);
    the two 2x2 invariant blocks (indices {0,3} and {1,2}) they make give
    the spectrum in closed form.
    """

    __slots__ = _fields = ("blocks",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, l: EigenvalueTriple):
        _set_blocks(self, _choi_entries(l))

    @property
    def entries(self) -> np.ndarray:
        """The matrix as a read-only complex array, built on each access."""
        import numpy as np
        dp, dm, op, om = self.blocks
        entries = np.array([[dp, 0, 0, op], [0, dm, om, 0], [0, om, dm, 0], [op, 0, 0, dp]],
                           dtype=complex)
        entries.setflags(write=False)
        return entries

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the two blocks, no general eigensolver.

        Each block [[d, o], [o, d]] has equal diagonal entries and a real
        off-diagonal one, so its eigenvalues are d + |o| and d - |o|.
        """
        import numpy as np
        return np.array(_block_spectrum(*self.blocks))


(_set_blocks,) = _slot_setters(ChoiMatrix)


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
    except ValueError:  # finite weights sum to 1 within their rounding
        raise ValueError("eigenvalues are too large for finite Pauli weights") from None


def _choi_entries(l: EigenvalueTriple) -> tuple:
    """Diagonal entries (1 +- l3)/4 and anti-diagonal entries (l1 +- l2)/4.

    Finiteness fails once l1 +- l2 overflows.  The trace is summed
    pairwise, (dp + dm) + (dm + dp), as numpy sums a 4x4 diagonal, and is
    held to 1 within its rounding bound (see ``_beyond_rounding``).
    """
    dp = 0.25 * (1.0 + l.l3)
    dm = 0.25 * (1.0 - l.l3)
    op = 0.25 * (l.l1 + l.l2)
    om = 0.25 * (l.l1 - l.l2)
    if not (math.isfinite(op) and math.isfinite(om)):
        raise ValueError("Choi matrix entries must be finite")
    trace = (dp + dm) + (dm + dp)
    if abs(trace - 1.0) > _ATOL and _beyond_rounding(trace, dp, dm, dm, dp):
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
