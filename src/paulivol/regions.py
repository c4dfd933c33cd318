"""Membership predicates for the geometric regions of Pauli maps.

Every region lives in eigenvalue space (lambda_1, lambda_2, lambda_3):

* ``PT``    positive maps, max_a |lambda_a| <= 1 (a cube),
* ``CPT``   channels, the Fujiwara-Algoet conditions (a tetrahedron),
* ``EBC``   entanglement breaking, sum_a |lambda_a| <= 1 (an octahedron),
* ``TLG``   reachable by a time-local generator, all lambda_a >= 0,
* ``PDIV``  P-divisible, lambda_1 lambda_2 lambda_3 >= 0,
* ``CPDIV`` CP-divisible, 0 < lambda_1 lambda_2 lambda_3 <= min_a (lambda_a)^2.

All boundaries are inclusive except the strict product positivity in
``CPDIV``.  Comparisons are exact float comparisons, no epsilon, so the
predicates agree bit for bit with the rational half-space descriptions.
Each region is one predicate of ``l.l1``, ``l.l2``, ``l.l3`` that uses
only abs, + - *, parenthesized comparisons and &.  On an
:class:`EigenvalueTriple` it returns a bool; on the column views of an
(n, 3) array, a boolean mask.  ``contains``, ``region_mask`` and the Monte
Carlo engine all call it through one table.
Every region except ``CPDIV`` is a finite union of convex polytopes;
``halfspace_description`` emits that union for the exact volume engine.
The regions nest as closed sets, EBC in CPT in PT and TLG in PDIV; the
private ``_IMPLIED`` table records these inclusions, so that
``_irredundant`` can drop the conjuncts another conjunct already implies
before exact volumes are enumerated.
:class:`RegionExpr`, :class:`HalfSpace`, ``exact_volume.Polytope`` and the
values of ``channel`` and ``dynamics`` are frozen values on ``_Frozen``:
the eq, hash, repr and write refusal of a frozen dataclass, so that no
module but ``mc_volume`` loads ``dataclasses`` when it is imported.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers  # loaded by fractions already
import operator
from decimal import Decimal  # loaded by fractions already
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable

__all__ = [
    "RegionId",
    "RegionExpr",
    "HalfSpace",
    "NonPolytopalRegionError",
    "is_positive",
    "is_cp",
    "is_ebc",
    "is_tlg",
    "is_p_divisible",
    "is_cp_divisible",
    "contains",
    "region_mask",
    "halfspace_description",
]


class _UnsupportedError(ValueError):
    """An unsupported method/region combination; the CLI exits 1 on it."""


class NonPolytopalRegionError(_UnsupportedError):
    """Raised when a half-space description is requested for CPDIV."""


class RegionId(str, enum.Enum):
    PT = "PT"
    CPT = "CPT"
    EBC = "EBC"
    TLG = "TLG"
    PDIV = "PDIV"
    CPDIV = "CPDIV"

    def __str__(self) -> str:
        return self.value


# Canonical display order for conjunctions.
_TAG_ORDER = [RegionId.PT, RegionId.CPT, RegionId.EBC, RegionId.TLG, RegionId.PDIV, RegionId.CPDIV]
_LABELS = tuple(tag.value for tag in _TAG_ORDER)


class _Frozen:
    """A frozen value over the attribute names its subclass lists in ``_fields``.

    ``==``, ``hash`` and ``repr`` are those of ``@dataclass(frozen=True)``
    over the same fields: equal only to an instance of the same class with
    equal field tuples, the hash of that tuple, and ``Name(field=value,
    ...)``.  Assigning or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``, imported only then, so building a
    value loads no ``dataclasses``.  Constructors store fields with
    ``object.__setattr__``, or through the slot descriptors of a slotted subclass.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # ``_values(value)`` is the field tuple, read in one C call; an
        # attrgetter of one name returns the bare value
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy would restore a slot through the refusing __setattr__
        names = self.__slots__ or vars(self)
        return _thaw, (self.__class__, {name: getattr(self, name) for name in names})


def _thaw(cls, attributes: dict):
    """The ``_Frozen`` value of ``cls`` that holds ``attributes``; pickle and copy call it."""
    value = object.__new__(cls)
    for name, x in attributes.items():
        object.__setattr__(value, name, x)
    return value


class RegionExpr(_Frozen):
    """Conjunction of region tags; membership is the AND of the predicates.

    ``tags`` is an iterable of :class:`RegionId` members or their values;
    :meth:`parse` reads comma-separated text.
    """

    _fields = ("conjuncts",)

    def __init__(self, tags: Iterable[RegionId | str]):
        if isinstance(tags, str):
            raise TypeError(f"tags must be an iterable of region tags, not the string {tags!r};"
                            " RegionExpr.parse reads comma-separated text")
        try:
            items = iter(tags)
        except TypeError:
            raise TypeError(f"tags must be an iterable of region tags, got {tags!r}") from None
        parsed = set()
        for tag in items:
            try:
                parsed.add(tag if isinstance(tag, RegionId) else RegionId(tag))
            except ValueError:
                raise ValueError(f"unknown region tag {tag!r}") from None
        if not parsed:
            raise ValueError("region expression needs at least one tag")
        object.__setattr__(self, "conjuncts", frozenset(parsed))

    @classmethod
    def parse(cls, text: str) -> "RegionExpr":
        """Parse a comma-separated tag list such as ``"CPT,EBC"``."""
        if not isinstance(text, str):
            raise TypeError(f"text must be a string of comma-separated tags, got {text!r}")
        tags = []
        for part in text.split(","):
            name = part.strip().upper()
            if not name:
                continue
            try:
                tags.append(RegionId(name))
            except ValueError:
                raise ValueError(f"unknown region tag {part.strip()!r}") from None
        return cls(tags)

    def __contains__(self, tag: RegionId) -> bool:
        return tag in self.conjuncts

    def __str__(self) -> str:
        return ",".join(t.value for t in _TAG_ORDER if t in self.conjuncts)


def is_positive(l: EigenvalueTriple) -> bool:
    """Positivity of the map: every |lambda_a| <= 1."""
    return (abs(l.l1) <= 1.0) & (abs(l.l2) <= 1.0) & (abs(l.l3) <= 1.0)


def is_cp(l: EigenvalueTriple) -> bool:
    """Complete positivity (Fujiwara-Algoet): 1 +- l3 dominates |l1 +- l2|.

    The four linear inequalities are exactly nonnegativity of the Choi
    spectrum, i.e. of the Pauli weights p_a.
    """
    return (1.0 + l.l3 >= abs(l.l1 + l.l2)) & (1.0 - l.l3 >= abs(l.l1 - l.l2))


def is_ebc(l: EigenvalueTriple) -> bool:
    """Entanglement breaking: |l1| + |l2| + |l3| <= 1."""
    return abs(l.l1) + abs(l.l2) + abs(l.l3) <= 1.0


def is_tlg(l: EigenvalueTriple) -> bool:
    """Reachable by a time-local generator: all eigenvalues nonnegative."""
    return (l.l1 >= 0.0) & (l.l2 >= 0.0) & (l.l3 >= 0.0)


def is_p_divisible(l: EigenvalueTriple) -> bool:
    """P-divisibility: the eigenvalue product is nonnegative."""
    return l.l1 * l.l2 * l.l3 >= 0.0


def is_cp_divisible(l: EigenvalueTriple) -> bool:
    """CP-divisibility: 0 < l1 l2 l3 <= min_a (l_a)^2.

    The bound is the smallest squared eigenvalue.  That makes the
    predicate invariant under double sign flips (composition with a
    Pauli unitary), as divisibility must be, so each even-sign orthant
    carries the same CP-divisible share; reading the bound as the
    square of the signed minimum would break the invariance on triples
    with negative eigenvalues.  Three comparisons stand for ``prod <= min``
    exactly, as no square of a finite float is NaN.
    """
    prod = l.l1 * l.l2 * l.l3
    return (prod > 0.0) & (prod <= l.l1 * l.l1) & (prod <= l.l2 * l.l2) & (prod <= l.l3 * l.l3)


# The one region table, in display order.  Callers use it, not the global
# names, so a tracer that wraps those names counts only direct calls.
_PREDICATES = {
    RegionId.PT: is_positive,
    RegionId.CPT: is_cp,
    RegionId.EBC: is_ebc,
    RegionId.TLG: is_tlg,
    RegionId.PDIV: is_p_divisible,
    RegionId.CPDIV: is_cp_divisible,
}


def contains(expr: RegionExpr, l: EigenvalueTriple) -> bool:
    """Membership in a conjunction of regions: the AND of its predicates.

    On an :class:`EigenvalueTriple` it returns a bool; on the column views
    of an (n, 3) array (``_columns``), a boolean mask.
    """
    return functools.reduce(operator.and_, (_PREDICATES[tag](l) for tag in expr.conjuncts))


def _columns(lam: np.ndarray) -> SimpleNamespace:
    """The columns of an (n, 3) array as ``.l1``, ``.l2``, ``.l3`` views."""
    return SimpleNamespace(l1=lam[:, 0], l2=lam[:, 1], l3=lam[:, 2])


def _region_record(l) -> dict:
    """Six-region membership by tag name: bools for a triple, masks for columns."""
    return {tag.value: predicate(l) for tag, predicate in _PREDICATES.items()}


def region_mask(expr: RegionExpr, lam: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (n, 3) array of eigenvalue triples.

    Products that overflow to inf, or to nan through inf * 0, compare as
    they do in Python floats, without a warning.
    """
    import numpy as np
    try:
        lam = np.asarray(lam)
        if lam.dtype.kind == "O":  # Python objects, each read as a real number
            lam = np.array([_real("lam", x) for x in lam.flat]).reshape(lam.shape)
        if lam.dtype.kind not in "biuf":  # text and complex are not real numbers
            raise TypeError
        lam = lam.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # the array's repr could be huge
        raise TypeError("lam must be an (n, 3) array of real numbers") from None
    if lam.ndim != 2 or lam.shape[1] != 3:
        raise ValueError(f"lam must be an (n, 3) array, got shape {lam.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return contains(expr, _columns(lam))


def _real(what: str, value) -> float:
    """The one reader of a real number: ``value`` as a float.  Text, None, a complex
    value or any other non-number is a TypeError and an int beyond float range a
    ValueError; inf and nan (a signalling Decimal NaN too) are left to the caller.
    """
    try:
        if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
            raise TypeError  # numpy's complex scalars would read as their real part
        math.isfinite(value)  # refuses text, which float() would read
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None
    except (TypeError, ValueError):
        if isinstance(value, Decimal) and value.is_snan():
            return math.nan
        raise TypeError(f"{what} must be a real number, got {value!r}") from None


def _int(what: str, value) -> int:
    """The one reader of a count, seed or step: ``value`` as an int.  A bool, or
    what ``operator.index`` refuses (text, None, a float), is a TypeError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an int, got {value!r}") from None


def _check_finite(what: str, names: tuple, values: tuple) -> None:
    """Name the first of ``values`` that ``_real`` refuses or reads as inf or nan."""
    for name, v in zip(names, values):
        if not math.isfinite(_real(f"{what} {name}", v)):
            raise ValueError(f"{what} {name} must be finite, got {v!r}")


# --- exact half-space descriptions ------------------------------------------


def _coefficient(name, value) -> Fraction:
    """``value`` as an exact Fraction; inf and nan are rejected by name with
    ValueError, non-numbers, text included, with TypeError.
    """
    try:
        if isinstance(value, str):
            raise TypeError  # Fraction() would read it
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        error = TypeError if isinstance(exc, TypeError) else ValueError
        raise error(
            f"half-space coefficient {name} must be a finite number, got {value!r}"
        ) from None


class HalfSpace(_Frozen):
    """Rational constraint a1*l1 + a2*l2 + a3*l3 <= b.

    The primitive integer row of the constraint is computed once, at
    construction; :meth:`canonical` returns it.
    """

    _fields = ("a1", "a2", "a3", "b")

    def __init__(self, a1, a2, a3, b):
        a1, a2, a3, b = map(_coefficient, ("a1", "a2", "a3", "b"), (a1, a2, a3, b))
        if a1 == 0 and a2 == 0 and a3 == 0:
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "b", b)
        coeffs = (a1, a2, a3, b)
        scale = math.lcm(*(x.denominator for x in coeffs))
        ints = [x.numerator * (scale // x.denominator) for x in coeffs]
        g = math.gcd(*ints)
        object.__setattr__(self, "_row", tuple(i // g for i in ints))

    @property
    def normal(self) -> tuple:
        return (self.a1, self.a2, self.a3)

    def canonical(self) -> tuple:
        """Primitive integer form (a1, a2, a3, b), unique per half-space.

        It is a positive multiple of the rational coefficients, so it keeps
        the direction of the inequality and every sign test on the normal.
        """
        return self._row


def _dedupe(halfspaces) -> list:
    """First occurrence of each half-space, compared by primitive row."""
    first = {}
    for hs in halfspaces:
        first.setdefault(hs.canonical(), hs)
    return list(first.values())


def _orthant(s1, s2, s3) -> list:
    """The orthant where each s_a * l_a >= 0."""
    return [HalfSpace(-s1, 0, 0, 0), HalfSpace(0, -s2, 0, 0), HalfSpace(0, 0, -s3, 0)]


# Each tag's convex pieces, built once.  Half-spaces are frozen, so every
# description shares them.
_SYSTEMS = {
    RegionId.PT: [[HalfSpace(*(sign if k == axis else 0 for k in range(3)), 1)
                   for axis in range(3) for sign in (1, -1)]],
    # Nonnegativity of the four Pauli weights.
    RegionId.CPT: [[HalfSpace(-1, -1, -1, 1), HalfSpace(-1, 1, 1, 1),
                    HalfSpace(1, -1, 1, 1), HalfSpace(1, 1, -1, 1)]],
    RegionId.EBC: [[HalfSpace(s1, s2, s3, 1)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]],
    RegionId.TLG: [_orthant(1, 1, 1)],
    # The even-sign orthants: the eigenvalue product is >= 0 exactly on
    # their union, overlapping only on the coordinate planes.
    RegionId.PDIV: [_orthant(*signs)
                    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
}


# Closed-set inclusions: each tag's region lies inside every region listed
# for it, so a conjunction holding both equals one without the larger.
_IMPLIED = {
    RegionId.EBC: {RegionId.CPT, RegionId.PT},
    RegionId.CPT: {RegionId.PT},
    RegionId.TLG: {RegionId.PDIV},
}


def _irredundant(expr: RegionExpr) -> RegionExpr:
    """The same region, less every conjunct that another conjunct implies."""
    implied = set().union(*(_IMPLIED.get(tag, ()) for tag in expr.conjuncts))
    return RegionExpr(expr.conjuncts - implied)


def halfspace_description(expr: RegionExpr) -> list:
    """Union of convex half-space systems covering the region.

    Returns a list of systems (each a list of :class:`HalfSpace`) whose
    union equals the region; distinct systems overlap only on sets of
    measure zero.  Only PDIV contributes more than one system (its four
    even-sign orthants).  CPDIV is not a polytope union and is rejected.
    """
    if RegionId.CPDIV in expr.conjuncts:
        raise NonPolytopalRegionError(
            "CPDIV is a non-polytopal region; only Monte Carlo volumes are available"
        )
    pieces = [[]]
    for tag in _TAG_ORDER:
        if tag not in expr.conjuncts:
            continue
        pieces = [old + new for old in pieces for new in _SYSTEMS[tag]]
    return [_dedupe(system) for system in pieces]
