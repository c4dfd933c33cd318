import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulivol import (
    HalfSpace,
    RegionExpr,
    UnboundedPolytopeError,
    build_polytope,
    enumerate_vertices,
    halfspace_description,
    mesh_document,
    region_volume,
)

jsonschema = pytest.importorskip("jsonschema")

F = Fraction


def _lhs(hs, point):
    return hs.a1 * point[0] + hs.a2 * point[1] + hs.a3 * point[2]


def _cpt_system():
    return halfspace_description(RegionExpr.parse("CPT"))[0]


def test_cpt_vertices():
    verts = set(enumerate_vertices(_cpt_system()))
    assert verts == {
        (F(1), F(1), F(1)),
        (F(1), F(-1), F(-1)),
        (F(-1), F(1), F(-1)),
        (F(-1), F(-1), F(1)),
    }


def test_pt_cube():
    poly = build_polytope(halfspace_description(RegionExpr.parse("PT"))[0])
    assert len(poly.vertices) == 8
    assert len(poly.facets) == 6
    assert poly.euclidean_volume() == 8
    assert region_volume(RegionExpr.parse("PT")) == 1


def test_ebc_octahedron():
    poly = build_polytope(halfspace_description(RegionExpr.parse("EBC"))[0])
    assert len(poly.vertices) == 6
    assert len(poly.facets) == 8
    assert poly.euclidean_volume() == F(4, 3)


def test_cpt_tlg_pyramid_vertices():
    system = halfspace_description(RegionExpr.parse("CPT,TLG"))[0]
    verts = set(enumerate_vertices(system))
    assert verts == {
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(1), F(1), F(1)),
    }


def test_exact_volumes():
    cases = {
        "PT": F(1),
        "CPT": F(1, 3),
        "EBC": F(1, 6),
        "CPT,EBC": F(1, 6),
        "PT,EBC": F(1, 6),
        "PT,TLG": F(1, 8),
        "CPT,TLG": F(1, 16),
        "CPT,PDIV": F(1, 4),
        "PT,PDIV": F(1, 2),
        "CPT,TLG,EBC": F(1, 48),
        "CPT,TLG,PDIV": F(1, 16),
    }
    for name, want in cases.items():
        got = region_volume(RegionExpr.parse(name))
        assert got == want, name


def test_exact_ratios():
    v = lambda name: region_volume(RegionExpr.parse(name))
    assert v("CPT,TLG") / v("CPT") == F(3, 16)
    assert v("CPT,TLG,EBC") / v("CPT,TLG") == F(1, 3)
    assert v("CPT,PDIV") / v("CPT") == F(3, 4)
    assert v("CPT,TLG,PDIV") / v("CPT,TLG") == F(1)
    assert v("CPT,EBC") / v("CPT") == F(1, 2)
    assert v("PT,PDIV") / v("PT") == F(1, 2)


def test_unbounded_regions_raise():
    with pytest.raises(UnboundedPolytopeError):
        region_volume(RegionExpr.parse("TLG"))
    with pytest.raises(UnboundedPolytopeError):
        region_volume(RegionExpr.parse("PDIV"))
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices([HalfSpace(1, 0, 0, 1)])


def test_infeasible_system_gives_empty_polytope():
    system = list(_cpt_system()) + [HalfSpace(1, 0, 0, -2)]
    assert enumerate_vertices(system) == []
    assert build_polytope(system).euclidean_volume() == 0


def test_degenerate_piece_has_zero_volume():
    # TLG meets a mixed-sign orthant only along a coordinate ray, so
    # that piece of the conjunction collapses to a segment.
    pieces = halfspace_description(RegionExpr.parse("CPT,TLG,PDIV"))
    volumes = [build_polytope(system).euclidean_volume() for system in pieces]
    assert sorted(volumes) == [0, 0, 0, F(1, 2)]
    flat = [build_polytope(s) for s in pieces if build_polytope(s).euclidean_volume() == 0]
    assert any(len(p.vertices) == 2 for p in flat)


def test_flat_polygon_has_zero_volume():
    # The cube cut to the plane l3 = 0 is a square: its two facets are the
    # plane's two sides, and their determinants about the centroid vanish.
    system = halfspace_description(RegionExpr.parse("PT"))[0]
    poly = build_polytope(system + [HalfSpace(0, 0, 1, 0), HalfSpace(0, 0, -1, 0)])
    assert len(poly.vertices) == 4
    assert len(poly.facets) == 2
    assert poly.euclidean_volume() == 0


def test_facets_are_tight_and_closed():
    for name in ("PT", "CPT", "CPT,EBC", "CPT,TLG", "CPT,PDIV"):
        for system in halfspace_description(RegionExpr.parse(name)):
            poly = build_polytope(system)
            for hs_index, cycle in poly.facets:
                hs = poly.halfspaces[hs_index]
                assert len(cycle) >= 3
                assert len(set(cycle)) == len(cycle)
                for i in cycle:
                    assert _lhs(hs, poly.vertices[i]) == hs.b
            # every vertex lies on at least three facets
            for i in range(len(poly.vertices)):
                count = sum(i in cycle for _h, cycle in poly.facets)
                assert count >= 3


def test_volume_independent_of_halfspace_order():
    system = list(_cpt_system())
    want = build_polytope(system).euclidean_volume()
    assert build_polytope(system[::-1]).euclidean_volume() == want


def _schema():
    root = Path(__file__).resolve().parents[1]
    path = root / "src" / "paulivol" / "schemas" / "mesh.schema.json"
    return json.loads(path.read_text())


def test_mesh_document_cpt():
    doc = mesh_document(RegionExpr.parse("CPT"))
    jsonschema.validate(doc, _schema())
    assert doc["region"] == "CPT"
    assert len(doc["pieces"]) == 1
    piece = doc["pieces"][0]
    assert len(piece["vertices"]) == 4
    assert len(piece["facets"]) == 4
    assert all(len(cycle) == 3 for cycle in piece["facets"])
    assert all(
        den == 1 for vertex in piece["vertices"] for _num, den in vertex
    )


def test_mesh_document_round_trips_through_json():
    doc = mesh_document(RegionExpr.parse("CPT,EBC"))
    jsonschema.validate(doc, _schema())
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert len(doc["pieces"][0]["vertices"]) == 6


# Exact volume and sha256 of the sorted-key mesh JSON for every bounded
# non-empty conjunction of the polytopal tags, and the error message for
# every unbounded one.  Taken from the Fraction engine before the integer
# rewrite; any change to vertices, their order, facets or volumes shows here.
PINNED = {
    "PT": (F(1, 1), "2f1aea0bcc5cf2c2148e3234b0177786de881ae59fb883e1751ddf0db5502779"),
    "CPT": (F(1, 3), "672c09e7125973b383d8079033c8a2315a2adc9747f5d47e2968628657204a23"),
    "EBC": (F(1, 6), "a324dcf2ace03e760869f26c06cc2ab202fa6fad1deab6c093a99d4dfe38d9e7"),
    "TLG": "recession direction (0, 0, 1); the system is unbounded",
    "PDIV": "recession direction (0, 0, 1); the system is unbounded",
    "PT,CPT": (F(1, 3), "5be9eb88a9d7533fb5c8da1d276a801e7e8f5f0efd260931a163126d0eb8fbc5"),
    "PT,EBC": (F(1, 6), "b8505eff4d31e4d1075237e79772d84e9f6aee3c5e7683917683f48bc4c20567"),
    "PT,TLG": (F(1, 8), "1ac9de004db7fa412c8d4a35f18ce751ffa2d4e8cfc79c11398396a0f6d3f9a4"),
    "PT,PDIV": (F(1, 2), "11f5bb1a589e4e7317323dcd912c9041794689875dab6c7b59ad235022e002ee"),
    "CPT,EBC": (F(1, 6), "a07f44b16c14bea6992af979643aae0d1945e5f9cebe635c7845d506b039ad36"),
    "CPT,TLG": (F(1, 16), "5a9fa771b6faceb3ddc52785ef1718a303cdb8481b76035192134088f0ee63af"),
    "CPT,PDIV": (F(1, 4), "89601214beae1283741fac49c57ac0fe116aef201efa778a3b62844b28125682"),
    "EBC,TLG": (F(1, 48), "bf64ffb88291e9b08479294c03198d978beca1eb59a825cd0f49928c52fe5c82"),
    "EBC,PDIV": (F(1, 12), "e8e6906b16a86de016a313dee90484678a4cf069c653b04ffb1e3dee8780d8cb"),
    "TLG,PDIV": "recession direction (0, 0, 1); the system is unbounded",
    "PT,CPT,EBC": (F(1, 6), "4d9f753274a9ad8b04410b433c1f4a734cd863a5883376dcb17fd5912a15009d"),
    "PT,CPT,TLG": (F(1, 16), "02d811ee97171212cc645534422746d022824879c7c6cfd4a9816503d12de071"),
    "PT,CPT,PDIV": (F(1, 4), "9ff0f7ee75f0da5fdae358befa322751720cb722379ab6bf782312289de5d985"),
    "PT,EBC,TLG": (F(1, 48), "20f4e43694098a524dbc12156161686cc03ae9c9eae7ee8e67865584cc04b32a"),
    "PT,EBC,PDIV": (F(1, 12), "50c5aa548598e509da2b0365e0987d637973ef8876bdc59cd9199edabf402d72"),
    "PT,TLG,PDIV": (F(1, 8), "e286d7d48b3243f2a9179fecc273ef787d24c98ac9d5d89039ca4e3df2823965"),
    "CPT,EBC,TLG": (F(1, 48), "9859605f3c4102d9db5b7d9759c35d2871e97b63f1834d350d198db8ccee72cd"),
    "CPT,EBC,PDIV": (F(1, 12), "f73ddb690e5c46d7c512f180be8a66bf3a0722da3fe51a25df81667c65f73423"),
    "CPT,TLG,PDIV": (F(1, 16), "3b6bac35dfba5ce54de9d8b2ad28ead3c671dc0435791e44804106a5f1e989f3"),
    "EBC,TLG,PDIV": (F(1, 48), "ecea7d46ccba1b2599745589c897965a70147a7df83698a0b42ba0bb59111631"),
    "PT,CPT,EBC,TLG": (F(1, 48), "440f56c3312eb0c4bd240cf24aea6bd8a7e166e0482bc949f7b4b3b15462d8e7"),
    "PT,CPT,EBC,PDIV": (F(1, 12), "9e797c4657575a2c0b9309d19c7e8a75b561ce93b2c8bf4f38f1372ade616b9b"),
    "PT,CPT,TLG,PDIV": (F(1, 16), "402b89f95b20dc37ec31b8f2b06fe944a75f9a1626ee79d31cb7f4ccac9e117b"),
    "PT,EBC,TLG,PDIV": (F(1, 48), "5d67de3e962b140c88e059ed5e9a11ea3826e19fcfc803523f9d2a0276b2d848"),
    "CPT,EBC,TLG,PDIV": (F(1, 48), "6e46708a18d9a46e0c9f930356ffeb49cf74fbe7182565ee74da917464c5f5a8"),
    "PT,CPT,EBC,TLG,PDIV": (F(1, 48), "e2d3c4bac64264bd0828d2f4a0307c17a37de5aa6bb3c63d9aca2b0a7c8a0ccc"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_all_conjunctions_pinned(name):
    expr = RegionExpr.parse(name)
    want = PINNED[name]
    if isinstance(want, str):
        with pytest.raises(UnboundedPolytopeError) as info:
            region_volume(expr)
        assert str(info.value) == want
        with pytest.raises(UnboundedPolytopeError):
            mesh_document(expr)
        return
    volume, digest = want
    assert region_volume(expr) == volume
    text = json.dumps(mesh_document(expr), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _det(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _reference_vertices(system):
    """Brute force in Fraction: solve every plane triple, keep members."""
    found = set()
    for triple in itertools.combinations(system, 3):
        m = [hs.normal for hs in triple]
        det = _det(m)
        if det == 0:
            continue
        rhs = [hs.b for hs in triple]
        point = tuple(
            _det([row[:k] + (b,) + row[k + 1:] for row, b in zip(m, rhs)]) / det
            for k in range(3)
        )
        if all(_lhs(hs, point) <= hs.b for hs in system):
            found.add(point)
    return sorted(found)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_extra = st.tuples(_coeff, _coeff, _coeff, _coeff).filter(lambda t: any(t[:3]))


@st.composite
def _bounded_systems(draw):
    """The PT cube plus up to five half-spaces with small rational coefficients."""
    cube = halfspace_description(RegionExpr.parse("PT"))[0]
    return cube + [HalfSpace(*t) for t in draw(st.lists(_extra, max_size=5))]


@settings(max_examples=60, deadline=None)
@given(system=_bounded_systems(), data=st.data())
def test_integer_engine_matches_fraction_reference(system, data):
    vertices = enumerate_vertices(system)
    assert vertices == _reference_vertices(system)

    poly = build_polytope(system)
    volume = poly.euclidean_volume()
    assert 0 <= volume <= 8
    for hs_index, cycle in poly.facets:
        hs = poly.halfspaces[hs_index]
        assert all(_lhs(hs, poly.vertices[i]) == hs.b for i in cycle)
    if volume > 0:
        # a solid's facets close up: every vertex is on at least three
        for i in range(len(poly.vertices)):
            assert sum(i in cycle for _h, cycle in poly.facets) >= 3

    shuffled = data.draw(st.permutations(system))
    i = data.draw(st.integers(0, len(system) - 1))
    factor = data.draw(st.fractions(min_value=F(1, 5), max_value=5))
    hs = shuffled[i]
    shuffled[i] = HalfSpace(*(factor * c for c in (hs.a1, hs.a2, hs.a3, hs.b)))
    assert enumerate_vertices(shuffled) == vertices
    assert build_polytope(shuffled).euclidean_volume() == volume


def _outcome(system):
    """Sorted vertices of the system, or the message it is rejected with."""
    try:
        return enumerate_vertices(system)
    except UnboundedPolytopeError as exc:
        return str(exc)


def _first_occurrences(system):
    """The system with each half-space kept once, at its first position."""
    first = {}
    for hs in system:
        first.setdefault(hs.canonical(), hs)
    return list(first.values())


_small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_row = st.tuples(_small, _small, _small, _small).filter(lambda t: any(t[:3]))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(_row, min_size=1, max_size=6),
    with_cube=st.booleans(),
    data=st.data(),
)
def test_repeated_halfspaces_change_nothing(rows, with_cube, data):
    # Copies and positive rescalings of a half-space in any order give the
    # same vertices, and the same error, as the system without repeats.
    cube = halfspace_description(RegionExpr.parse("PT"))[0] if with_cube else []
    base = _first_occurrences(cube + [HalfSpace(*t) for t in rows])
    messy = list(base)
    for hs in data.draw(st.lists(st.sampled_from(base), max_size=6)):
        factor = data.draw(st.sampled_from([F(1), F(1, 3), F(2), F(7, 2)]))
        messy.append(HalfSpace(*(factor * c for c in (hs.a1, hs.a2, hs.a3, hs.b))))
    messy = data.draw(st.permutations(messy))
    got = _outcome(messy)
    assert got == _outcome(_first_occurrences(messy))
    if not isinstance(got, str):
        assert got == enumerate_vertices(base)


# The engine before the one-pass rewrite, kept as a reference: a separate
# rank test, a recession pass over plane pairs, and an integer Cramer solve
# of every plane triple.


def _ref_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _ref_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _ref_det3(r0, r1, r2):
    return _ref_dot(r0, _ref_cross(r1, r2))


def _ref_rank(rows):
    work = [list(r[:3]) for r in rows]
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


def _ref_check_bounded(halfspaces, rows):
    if _ref_rank(rows) < 3:
        raise UnboundedPolytopeError(
            "normals span fewer than three dimensions; the system is unbounded"
        )
    for (i, ri), (j, rj) in itertools.combinations(enumerate(rows), 2):
        d = _ref_cross(ri, rj)
        if d == (0, 0, 0):
            continue
        for sign in (1, -1):
            if all(sign * _ref_dot(r, d) <= 0 for r in rows):
                cand = _ref_cross(halfspaces[i].normal, halfspaces[j].normal)
                cand = tuple(sign * x for x in cand)
                raise UnboundedPolytopeError(
                    f"recession direction ({cand[0]}, {cand[1]}, {cand[2]});"
                    " the system is unbounded"
                )


def _ref_solve_triple(r0, r1, r2):
    d = _ref_det3(r0, r1, r2)
    if d == 0:
        return None
    b = (r0[3], r1[3], r2[3])
    c0, c1, c2 = (r0[0], r1[0], r2[0]), (r0[1], r1[1], r2[1]), (r0[2], r1[2], r2[2])
    x, y, z = _ref_det3(b, c1, c2), _ref_det3(c0, b, c2), _ref_det3(c0, c1, b)
    if d < 0:
        x, y, z, d = -x, -y, -z, -d
    g = math.gcd(x, y, z, d)
    return (x // g, y // g, z // g, d // g)


def _ref_enumerate_vertices(halfspaces):
    halfspaces = list(halfspaces)
    rows = [hs.canonical() for hs in halfspaces]
    _ref_check_bounded(halfspaces, rows)
    tried = set()
    vertices = []
    for r0, r1, r2 in itertools.combinations(rows, 3):
        v = _ref_solve_triple(r0, r1, r2)
        if v is None or v in tried:
            continue
        tried.add(v)
        x, y, z, d = v
        if all(a1 * x + a2 * y + a3 * z <= b * d for a1, a2, a3, b in rows):
            vertices.append((F(x, d), F(y, d), F(z, d)))
    return sorted(vertices)


@st.composite
def _open_systems(draw):
    """Small rational systems without the cube, of normal rank 1, 2 or 3.

    The normals are ``rank`` independent directions and small integer
    combinations of them.  With ``closed`` a last half-space has minus the
    sum of the normals as its own, which makes a full-rank system bounded
    or infeasible.  Offsets lean positive, so most systems are feasible.
    """
    rank = draw(st.integers(1, 3))
    direction = st.tuples(_small, _small, _small).filter(any)
    basis = draw(st.lists(direction, min_size=rank, max_size=rank)
                 .filter(lambda vs: _ref_rank(vs) == len(vs)))
    mix = st.tuples(*[st.integers(-2, 2)] * rank)
    normals = list(basis)
    for weights in draw(st.lists(mix, max_size=5)):
        normal = tuple(sum(w * v[axis] for w, v in zip(weights, basis)) for axis in range(3))
        if any(normal):
            normals.append(normal)
    closing = tuple(-sum(c) for c in zip(*normals))
    if draw(st.booleans()) and any(closing):
        normals.append(closing)
    offset = st.fractions(min_value=-1, max_value=2, max_denominator=2)
    return [HalfSpace(*n, draw(offset)) for n in normals]


def _ref_outcome(system):
    try:
        return _ref_enumerate_vertices(system)
    except UnboundedPolytopeError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(system=_open_systems())
def test_one_pass_engine_matches_the_per_triple_reference(system):
    got, want = _outcome(system), _ref_outcome(system)
    if _ref_rank([hs.canonical() for hs in system]) == 2:
        # A rank-2 system names a recession direction, normal to every
        # normal, where the reference only reported the rank.
        assert got.startswith("recession direction (")
        ray = [F(c) for c in got[len("recession direction ("):got.index(")")].split(", ")]
        assert any(ray) and all(_ref_dot(hs.normal, ray) == 0 for hs in system)
        assert want == "normals span fewer than three dimensions; the system is unbounded"
    else:
        assert got == want


def test_low_rank_messages():
    rank_1 = "normals span fewer than three dimensions; the system is unbounded"
    assert _outcome([]) == rank_1
    assert _outcome([HalfSpace(1, 0, 0, 1), HalfSpace(-2, 0, 0, 1)]) == rank_1
    rank_2 = [HalfSpace(1, 0, 0, 1), HalfSpace(0, F(1, 2), 0, 1), HalfSpace(-1, -1, 0, 1)]
    assert _outcome(rank_2) == "recession direction (0, 0, 1/2); the system is unbounded"


def _qhull(system):
    """Euclidean volume and vertices of a system by scipy's floating-point qhull.

    The interior point is the Chebyshev centre from ``linprog``; the volume
    and vertices are None when the system is empty or flat (radius 0).
    """
    import numpy as np
    linprog = pytest.importorskip("scipy.optimize").linprog
    spatial = pytest.importorskip("scipy.spatial")
    a = np.array([[float(hs.a1), float(hs.a2), float(hs.a3)] for hs in system])
    b = np.array([float(hs.b) for hs in system])
    # maximise r subject to a x + r |a| <= b, r >= 0
    lp = linprog([0, 0, 0, -1], A_ub=np.column_stack([a, np.linalg.norm(a, axis=1)]),
                 b_ub=b, bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    if lp.status == 2 or lp.x[3] < 1e-9:  # infeasible, or no interior
        return None, None
    cut = spatial.HalfspaceIntersection(np.column_stack([a, -b]), lp.x[:3])
    return spatial.ConvexHull(cut.intersections).volume, cut.intersections


def _matched(points, others, tol=1e-9):
    """Whether every point lies within ``tol`` of one of ``others``.

    qhull lists a vertex where four or more planes meet once per simplex,
    so the sets are compared up to repeats; a tolerance rather than decimal
    rounding, because vertices such as 1/128 sit on a rounding boundary.
    """
    return all(min(max(abs(p - q) for p, q in zip(point, other)) for other in others) <= tol
               for point in points)


# Integer half-spaces that often cut the cube (b >= 0 keeps its centre).
_int_row = st.tuples(*[st.integers(-4, 4)] * 3, st.integers(-2, 6)).filter(lambda t: any(t[:3]))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_int_row, min_size=1, max_size=6))
def test_volume_and_vertices_match_qhull(rows):
    system = halfspace_description(RegionExpr.parse("PT"))[0] + [HalfSpace(*t) for t in rows]
    poly = build_polytope(system)
    volume, vertices = _qhull(system)
    if volume is None:
        assert poly.euclidean_volume() == 0
        return
    assert float(poly.euclidean_volume()) == pytest.approx(volume, rel=1e-9, abs=0)
    exact = [tuple(map(float, v)) for v in poly.vertices]
    assert _matched(vertices.tolist(), exact) and _matched(exact, vertices.tolist())


@pytest.mark.parametrize("name", [n for n, want in PINNED.items() if not isinstance(want, str)])
def test_region_volume_matches_qhull(name):
    expr = RegionExpr.parse(name)
    volumes = [_qhull(system)[0] or 0.0 for system in halfspace_description(expr)]
    assert float(region_volume(expr)) == pytest.approx(sum(volumes) / 8, rel=1e-9, abs=0)
