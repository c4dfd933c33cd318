"""Exact polytope volumes for the polytopal regions.

Vertex enumeration is one pass over pairs of boundary planes.  Each
pair's cross product, dotted once with every half-space normal, gives
both the pair's recession test and the determinant of every plane triple
the pair belongs to, so a triple's vertex costs one integer combination
of cross products already at hand.  Inside the engine every quantity is
an exact Python integer: each half-space is its primitive integer row
``(a1, a2, a3, b)`` and each vertex a homogeneous integer row
``(x, y, z, d)``, so vertices, facets, and volumes carry no rounding at
all.  :class:`fractions.Fraction` appears only where values leave the
engine: the vertices of a :class:`Polytope`, its volumes, and the mesh
document.  The systems involved are tiny (at most a couple dozen
half-spaces), which keeps the cubic pass instant and removes any need
for pivoting machinery.

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


# _dot and _cross read only the first three entries, so a
# half-space row (a1, a2, a3, b) serves as its own normal.


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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
    # ending[j][k] is a_k x a_j; when pair (i, j) is reached it holds every
    # k < i, as pairs come in lexicographic order.
    ending = [[] for _ in rows]
    full_rank = False
    tried = set()
    vertices = []
    for (i, ri), (j, rj) in itertools.combinations(enumerate(rows), 2):
        x0, x1, x2 = cross = _cross(ri, rj)
        ending[j].append(cross)
        if cross == (0, 0, 0):
            continue
        # dots[k] is det(r_k, r_i, r_j): the recession test and every
        # vertex solve on this pair of planes read it.
        dots = [a1 * x0 + a2 * x1 + a3 * x2 for a1, a2, a3, _b in rows]
        # With full-rank normals the recession cone is pointed, so it is
        # nonzero exactly when it has an extreme ray, and every extreme ray
        # lies on two of the cone's boundary planes: d ~ +-(a_i x a_j).  If
        # the normals span only a plane, d is normal to it and all dots are 0.
        if max(dots) <= 0 or min(dots) >= 0:
            # Report the ray in the caller's own coefficients; each row is a
            # positive multiple of its half-space, so it is the same ray.
            sign = 1 if max(dots) <= 0 else -1
            ray = [sign * c for c in _cross(halfspaces[i].normal, halfspaces[j].normal)]
            raise UnboundedPolytopeError(
                f"recession direction ({ray[0]}, {ray[1]}, {ray[2]}); the system is unbounded"
            )
        full_rank = True
        # Planes k < i < j meet at (b_k X_ij - b_i X_kj + b_j X_ki) / dots[k],
        # X_pq = a_p x a_q.  A vertex is a homogeneous integer row
        # (x, y, z, d) standing for (x/d, y/d, z/d), with d > 0 and the row
        # divided by its gcd, so that each point has exactly one row.
        bi, bj = ri[3], rj[3]
        for rk, d, (p0, p1, p2), (q0, q1, q2) in zip(rows, dots, ending[j], ending[i]):
            if d == 0:
                continue
            bk = rk[3]
            x = bk * x0 - bi * p0 + bj * q0
            y = bk * x1 - bi * p1 + bj * q1
            z = bk * x2 - bi * p2 + bj * q2
            g = math.gcd(x, y, z, d) if d > 0 else -math.gcd(x, y, z, d)
            v = (x // g, y // g, z // g, d // g)
            if v in tried:
                continue
            tried.add(v)
            x, y, z, d = v
            if all(a1 * x + a2 * y + a3 * z <= b * d for a1, a2, a3, b in rows):
                vertices.append((Fraction(x, d), Fraction(y, d), Fraction(z, d)))
    if not full_rank:  # every cross product is zero
        raise UnboundedPolytopeError(
            "normals span fewer than three dimensions; the system is unbounded"
        )
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
                total += _dot(anchor, _cross(centred[cycle[i]], centred[cycle[i + 1]]))
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
