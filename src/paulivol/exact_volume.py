"""Exact polytope volumes for the polytopal regions.

Vertex enumeration is brute force over all triples of boundary planes.
Inside the engine every quantity is an exact Python integer: each
half-space is its primitive integer row ``(a1, a2, a3, b)`` and each
vertex a homogeneous integer row ``(x, y, z, d)``, so vertices, facets,
and volumes carry no rounding at all.  :class:`fractions.Fraction`
appears only where values leave the engine: the vertices of a
:class:`Polytope`, its volumes, and the mesh document.  The systems
involved are tiny (at most a couple dozen half-spaces), which keeps the
cubic enumeration instant and removes any need for pivoting machinery.

Volumes are reported in the Hilbert-Schmidt normalization, which gives
the positivity cube max_a |lambda_a| <= 1 unit volume: one eighth of
the Euclidean volume in eigenvalue space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .regions import RegionExpr, _dedupe, halfspace_description

__all__ = [
    "UnboundedPolytopeError",
    "Polytope",
    "enumerate_vertices",
    "build_polytope",
    "region_volume",
    "mesh_document",
]

# Hilbert-Schmidt measure of a Euclidean unit of eigenvalue space.
HS_SCALE = Fraction(1, 8)


class UnboundedPolytopeError(ValueError):
    """Raised when a half-space system has a recession direction.

    The check assumes the system is feasible; every region conjunction
    produced by :func:`paulivol.regions.halfspace_description` is.
    """


# _dot, _cross and _det3 read only the first three entries, so a
# half-space row (a1, a2, a3, b) serves as its own normal.


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _det3(r0, r1, r2):
    return _dot(r0, _cross(r1, r2))


def _rank(rows) -> int:
    """Rank of a list of integer 3-vectors by fraction-free elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for col in range(3):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f != 0:
                work[i] = [p[col] * x - f * y for x, y in zip(work[i], p)]
        rank += 1
    return rank


def _check_bounded(halfspaces, rows) -> None:
    if _rank([r[:3] for r in rows]) < 3:
        raise UnboundedPolytopeError(
            "normals span fewer than three dimensions; the system is unbounded"
        )
    # With full-rank normals the recession cone is pointed, so it is
    # nonzero exactly when it has an extreme ray, and every extreme ray
    # lies on two of the cone's boundary planes: d ~ +-(a_i x a_j).
    for (i, ri), (j, rj) in itertools.combinations(enumerate(rows), 2):
        d = _cross(ri, rj)
        if d == (0, 0, 0):
            continue
        for sign in (1, -1):
            if all(sign * _dot(r, d) <= 0 for r in rows):
                # Report the ray in the caller's own coefficients; each row
                # is a positive multiple of its half-space, so it is the
                # same ray.
                cand = _cross(halfspaces[i].normal, halfspaces[j].normal)
                cand = tuple(sign * x for x in cand)
                raise UnboundedPolytopeError(
                    f"recession direction ({cand[0]}, {cand[1]}, {cand[2]});"
                    " the system is unbounded"
                )


def _solve_triple(r0, r1, r2):
    """Meeting point of three boundary planes by integer Cramer, or None.

    A vertex is a homogeneous integer row ``(x, y, z, d)`` standing for
    the point ``(x/d, y/d, z/d)``, with ``d > 0`` and the row divided by
    its gcd, so that each point has exactly one row.
    """
    d = _det3(r0, r1, r2)
    if d == 0:
        return None
    b = (r0[3], r1[3], r2[3])
    c0, c1, c2 = (r0[0], r1[0], r2[0]), (r0[1], r1[1], r2[1]), (r0[2], r1[2], r2[2])
    x, y, z = _det3(b, c1, c2), _det3(c0, b, c2), _det3(c0, c1, b)
    if d < 0:
        x, y, z, d = -x, -y, -z, -d
    g = math.gcd(x, y, z, d)
    return (x // g, y // g, z // g, d // g)


def enumerate_vertices(halfspaces) -> list:
    """All vertices of a bounded half-space system, exactly.

    Returns sorted triples of :class:`fractions.Fraction`.  Raises
    :class:`UnboundedPolytopeError` when the system admits a recession
    direction.  An empty list means the system is infeasible.  Repeated
    half-spaces change neither result.  Each vertex is a feasible point on
    three planes with independent normals, so the list holds exactly the
    extreme points, and no three of them are collinear.
    """
    halfspaces = list(halfspaces)
    rows = [hs.canonical() for hs in halfspaces]
    _check_bounded(halfspaces, rows)
    tried = set()
    vertices = []
    for r0, r1, r2 in itertools.combinations(rows, 3):
        v = _solve_triple(r0, r1, r2)
        if v is None or v in tried:
            continue
        tried.add(v)
        x, y, z, d = v
        if all(a1 * x + a2 * y + a3 * z <= b * d for a1, a2, a3, b in rows):
            vertices.append((Fraction(x, d), Fraction(y, d), Fraction(z, d)))
    return sorted(vertices)


def _integer_points(vertices):
    """Rational points as integer points over one common denominator.

    Returns ``(points, L)`` with ``points[i] == L * vertices[i]``; a
    positive scale keeps every sign and tightness test.
    """
    scale = math.lcm(*(c.denominator for v in vertices for c in v))
    points = [tuple(c.numerator * (scale // c.denominator) for c in v) for v in vertices]
    return points, scale


def _centred(points, indices):
    """``k * (p - centroid)`` for the k points named, still integers."""
    k = len(indices)
    sx = sum(points[i][0] for i in indices)
    sy = sum(points[i][1] for i in indices)
    sz = sum(points[i][2] for i in indices)
    return {
        i: (k * points[i][0] - sx, k * points[i][1] - sy, k * points[i][2] - sz)
        for i in indices
    }


def _cycle_order(indices, points, normal) -> tuple:
    """Sort facet vertices counterclockwise around the outward normal.

    Facet vertices are extreme points, so no two point the same way from
    the facet centroid and the comparator never ties.
    """
    dirs = _centred(points, indices)
    ref = dirs[indices[0]]

    def half(u) -> int:
        s = _dot(normal, _cross(ref, u))
        if s != 0:
            return 0 if s > 0 else 1
        return 0 if _dot(ref, u) > 0 else 1

    def cmp(i, j) -> int:
        hi, hj = half(dirs[i]), half(dirs[j])
        if hi != hj:
            return -1 if hi < hj else 1
        return -1 if _dot(normal, _cross(dirs[i], dirs[j])) > 0 else 1

    return tuple(sorted(indices, key=functools.cmp_to_key(cmp)))


@dataclass(frozen=True)
class Polytope:
    """Bounded intersection of half-spaces with its exact geometry.

    ``facets`` pairs the index of the supporting half-space with the
    vertex cycle, counterclockwise as seen from outside.
    """

    halfspaces: tuple
    vertices: tuple
    facets: tuple

    def euclidean_volume(self) -> Fraction:
        # A flat vertex set gives zero determinants; an empty one has no
        # centroid to scale about.
        if not self.facets:
            return Fraction(0)
        points, scale = _integer_points(self.vertices)
        # Points scaled by k * L about the centroid: every determinant
        # grows by (k * L)**3, which the final division takes back.
        k = len(points)
        centred = _centred(points, range(k))
        total = 0
        for _hs_index, cycle in self.facets:
            anchor = centred[cycle[0]]
            for i in range(1, len(cycle) - 1):
                total += _det3(anchor, centred[cycle[i]], centred[cycle[i + 1]])
        return Fraction(abs(total), 6 * (k * scale) ** 3)


def build_polytope(halfspaces) -> Polytope:
    """Enumerate vertices and assemble facets for a bounded system."""
    halfspaces = _dedupe(halfspaces)
    vertices = enumerate_vertices(halfspaces)
    points, scale = _integer_points(vertices)
    facets = []
    for hs_index, hs in enumerate(halfspaces):
        row = hs.canonical()
        bound = row[3] * scale
        tight = [i for i, p in enumerate(points) if _dot(row, p) == bound]
        if len(tight) < 3:  # three tight vertices are never collinear
            continue
        facets.append((hs_index, _cycle_order(tight, points, row)))
    return Polytope(tuple(halfspaces), tuple(vertices), tuple(facets))


def region_volume(expr: RegionExpr) -> Fraction:
    """Exact Hilbert-Schmidt volume of a polytopal region conjunction."""
    total = Fraction(0)
    for system in halfspace_description(expr):
        total += build_polytope(system).euclidean_volume()
    return total * HS_SCALE


def mesh_document(expr: RegionExpr) -> dict:
    """JSON-ready exact mesh of a region: one entry per convex piece.

    Vertex coordinates are [numerator, denominator] pairs and half-space
    coefficients are primitive integers, so the document round-trips
    with no precision loss.
    """
    pieces = []
    for system in halfspace_description(expr):
        poly = build_polytope(system)
        vertices = [
            [[c.numerator, c.denominator] for c in v] for v in poly.vertices
        ]
        halfspaces = []
        for hs in poly.halfspaces:
            a1, a2, a3, b = hs.canonical()
            halfspaces.append({"a": [a1, a2, a3], "b": b})
        pieces.append({
            "vertices": vertices,
            "facets": [list(cycle) for _i, cycle in poly.facets],
            "halfspaces": halfspaces,
        })
    return {"region": str(expr), "pieces": pieces}
