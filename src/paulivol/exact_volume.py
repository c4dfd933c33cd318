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

:func:`region_volume` enumerates the irredundant conjunction: the regions
nest as closed sets (EBC in CPT in PT, TLG in PDIV), so a conjunct that
another conjunct implies changes neither the set nor its volume, only
the work, which is cubic in the half-space count.  Dropping it turns
``PT,CPT,EBC,TLG,PDIV`` into the one system of ``EBC,TLG`` instead of
four PDIV orthant pieces.  Each of the nine bounded irredundant
conjunctions is computed once per process and memoised (errors are not),
as its piece count times the volume of its first piece: the PDIV pieces
are congruent.  :func:`mesh_document` enumerates the full description,
as its JSON lists every half-space of each piece.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .regions import RegionExpr, _dedupe, _irredundant, halfspace_description

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


def _cycle_order(indices, points, normal) -> tuple:
    """Sort facet vertices counterclockwise around the outward normal, from the first.

    Seen from the first vertex p0, the others lie in an open half-plane and no
    three are collinear, so ``normal . ((p_i - p0) x (p_j - p0))`` orders them strictly.
    """
    p0 = points[indices[0]]
    dirs = {i: tuple(c - c0 for c, c0 in zip(points[i], p0)) for i in indices[1:]}

    def cmp(i, j) -> int:
        return -1 if _dot(normal, _cross(dirs[i], dirs[j])) > 0 else 1

    return (indices[0], *sorted(indices[1:], key=functools.cmp_to_key(cmp)))


@dataclass(frozen=True)
class Polytope:
    """Bounded intersection of half-spaces with its exact geometry.

    ``facets`` pairs the index of the supporting half-space with the
    vertex cycle, counterclockwise as seen from outside from its smallest index.
    """

    halfspaces: tuple
    vertices: tuple
    facets: tuple

    def euclidean_volume(self) -> Fraction:
        # Fan each facet from its first vertex and each triangle from the
        # origin: by the divergence theorem the signed tetrahedra of the
        # outward cycles, over points scaled by L, sum to 6 * L**3 * V.  A
        # flat piece has two facets of opposite orientation, which cancel.
        points, scale = _integer_points(self.vertices)
        total = 0
        for _hs_index, cycle in self.facets:
            anchor = points[cycle[0]]
            for i, j in zip(cycle[1:], cycle[2:]):
                total += _dot(anchor, _cross(points[i], points[j]))
        return Fraction(abs(total), 6 * scale**3)


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
    return _volume(_irredundant(expr))


@functools.cache
def _volume(expr: RegionExpr) -> Fraction:
    # Only PDIV has several pieces, its even-sign orthants, and an irredundant
    # expression holding PDIV holds no TLG.  The double sign flips
    # (l1, l2, l3) -> (l1, -l2, -l3), (-l1, l2, -l3), (-l1, -l2, l3) map PT,
    # CPT and EBC onto themselves and the first orthant onto each of the
    # others, so every piece is congruent to the first.
    pieces = halfspace_description(expr)
    return len(pieces) * build_polytope(pieces[0]).euclidean_volume() * HS_SCALE


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
