import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paulivol import (
    EigenvalueTriple,
    HalfSpace,
    NonPolytopalRegionError,
    RegionExpr,
    RegionId,
    contains,
    halfspace_description,
    is_cp,
    is_cp_divisible,
    is_ebc,
    is_p_divisible,
    is_positive,
    is_tlg,
    lambda_to_p,
    region_mask,
)
from paulivol import cli
from paulivol.regions import _region_record


def _t(l1, l2, l3):
    return EigenvalueTriple(l1, l2, l3)


def test_is_positive_examples():
    assert is_positive(_t(1, 1, 1))
    assert not is_positive(_t(1.01, 0, 0))
    assert is_positive(_t(-1, 1, -1))


def test_is_cp_examples():
    assert is_cp(_t(1, 1, 1))
    assert not is_cp(_t(1, 1, -1))
    assert is_cp(_t(0.5, 0.5, 0.5))


def test_is_ebc_examples():
    assert is_ebc(_t(0, 0, 0))
    assert is_ebc(_t(1, 0, 0))
    assert not is_ebc(_t(0.5, 0.5, 0.5))


def test_is_tlg_examples():
    assert is_tlg(_t(0, 0, 0))
    assert is_tlg(_t(1, 1, 1))
    assert not is_tlg(_t(-1e-9, 0.5, 0.5))


def test_is_p_divisible_examples():
    assert is_p_divisible(_t(1, 1, 1))
    assert is_p_divisible(_t(-0.5, -0.5, 0.5))
    assert not is_p_divisible(_t(-0.5, 0.5, 0.5))


def test_is_cp_divisible_examples():
    assert is_cp_divisible(_t(1, 1, 1))
    assert not is_cp_divisible(_t(0, 0.5, 0.5))
    assert not is_cp_divisible(_t(0.9, 0.9, 0.5))


def test_cp_divisible_double_sign_flip_invariance():
    # Composing with a Pauli unitary flips two eigenvalue signs and
    # must not change divisibility.
    rng = np.random.default_rng(11)
    for _ in range(10**4):
        l1, l2, l3 = rng.uniform(-1.0, 1.0, 3)
        ref = is_cp_divisible(_t(l1, l2, l3))
        assert is_cp_divisible(_t(l1, -l2, -l3)) == ref
        assert is_cp_divisible(_t(-l1, l2, -l3)) == ref
        assert is_cp_divisible(_t(-l1, -l2, l3)) == ref


def test_contains_examples():
    assert contains(RegionExpr([RegionId.CPT, RegionId.TLG]), _t(1, 1, 1))
    assert not contains(RegionExpr([RegionId.CPT, RegionId.EBC]), _t(0.5, 0.5, 0.5))
    assert contains(RegionExpr([RegionId.PT]), _t(1, 1, -1))


def test_region_expr_parsing():
    expr = RegionExpr.parse(" cpt , ebc ")
    assert expr.conjuncts == frozenset({RegionId.CPT, RegionId.EBC})
    assert str(expr) == "CPT,EBC"
    assert str(RegionExpr.parse("TLG,CPT,TLG")) == "CPT,TLG"
    with pytest.raises(ValueError):
        RegionExpr.parse("CPT,BOGUS")
    with pytest.raises(ValueError):
        RegionExpr.parse("")


def test_spectral_oracle():
    # Complete positivity must coincide exactly with nonnegativity of
    # the Pauli weights, including outside the positivity cube.
    rng = np.random.default_rng(5)
    lam = rng.uniform(-1.5, 1.5, size=(10**5, 3))
    mask = region_mask(RegionExpr([RegionId.CPT]), lam)
    for row, hit in zip(lam, mask):
        l = _t(*row)
        assert is_cp(l) == hit
        assert hit == (min(lambda_to_p(l)) >= 0.0)


def test_ppt_oracle():
    # Entanglement breaking iff the partially transposed Choi state is
    # still a state; partial transposition flips the sign of l2.
    rng = np.random.default_rng(6)
    lam = rng.uniform(-1.0, 1.0, size=(10**5, 3))
    flipped = lam * np.array([1.0, -1.0, 1.0])
    cpt = RegionExpr([RegionId.CPT])
    ebc_mask = region_mask(RegionExpr([RegionId.EBC]), lam)
    ppt_mask = region_mask(cpt, lam) & region_mask(cpt, flipped)
    assert np.array_equal(ebc_mask, ppt_mask)


def test_containment_chains():
    rng = np.random.default_rng(7)
    lam = rng.uniform(-1.2, 1.2, size=(10**5, 3))
    ebc = region_mask(RegionExpr([RegionId.EBC]), lam)
    cpt = region_mask(RegionExpr([RegionId.CPT]), lam)
    pt = region_mask(RegionExpr([RegionId.PT]), lam)
    tlg = region_mask(RegionExpr([RegionId.TLG]), lam)
    pdiv = region_mask(RegionExpr([RegionId.PDIV]), lam)
    cpdiv = region_mask(RegionExpr([RegionId.CPDIV]), lam)
    assert not (ebc & ~cpt).any()
    assert not (cpt & ~pt).any()
    assert not (tlg & ~pdiv).any()
    assert not (cpdiv & ~pdiv).any()


# Reference predicates written separately for floats (with `and`) and for
# numpy columns; CPDIV keeps its min-based bound here.
def _reference_scalar(l1, l2, l3):
    prod = l1 * l2 * l3
    return {
        "PT": abs(l1) <= 1.0 and abs(l2) <= 1.0 and abs(l3) <= 1.0,
        "CPT": (1.0 + l3 >= abs(l1 + l2)) and (1.0 - l3 >= abs(l1 - l2)),
        "EBC": abs(l1) + abs(l2) + abs(l3) <= 1.0,
        "TLG": l1 >= 0.0 and l2 >= 0.0 and l3 >= 0.0,
        "PDIV": prod >= 0.0,
        "CPDIV": prod > 0.0 and prod <= min(l1 * l1, l2 * l2, l3 * l3),
    }


def _reference_masks(lam):
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    prod = l1 * l2 * l3
    low = np.minimum(np.minimum(l1 * l1, l2 * l2), l3 * l3)
    return {
        "PT": (np.abs(l1) <= 1.0) & (np.abs(l2) <= 1.0) & (np.abs(l3) <= 1.0),
        "CPT": (1.0 + l3 >= np.abs(l1 + l2)) & (1.0 - l3 >= np.abs(l1 - l2)),
        "EBC": np.abs(l1) + np.abs(l2) + np.abs(l3) <= 1.0,
        "TLG": (l1 >= 0.0) & (l2 >= 0.0) & (l3 >= 0.0),
        "PDIV": prod >= 0.0,
        "CPDIV": (prod > 0.0) & (prod <= low),
    }


_LABELS = ("PT", "CPT", "EBC", "TLG", "PDIV", "CPDIV")
_PUBLIC = (is_positive, is_cp, is_ebc, is_tlg, is_p_divisible, is_cp_divisible)
# signed zeros, units, subnormals, squares that overflow, and the float limits
_EDGES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
          1e154, -1e154, 1e308, -1e308, 1.7976931348623157e308)
_floats = st.sampled_from(_EDGES) | st.floats(-1.5, 1.5) | st.floats(allow_nan=False, allow_infinity=False)
_rows = st.lists(st.tuples(_floats, _floats, _floats), min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(rows=_rows, tags=st.sets(st.sampled_from(_LABELS), min_size=1))
@example(rows=[(-0.0, 0.0, 1.0), (1e154, 1e154, 5e-324), (1e308, 1e308, 0.0),
               (-1e308, -1e308, 1e308), (1.0, -1.0, -1.0), (-5e-324, 5e-324, -1.0)],
         tags={"CPDIV", "PT"})
@example(rows=[(1e308, 1e308, 1e308), (1e308, 1e308, 0.0)], tags={"PDIV"})  # inf, then inf * 0
@pytest.mark.filterwarnings("error")
def test_scalar_and_vector_predicates_agree(rows, tags):
    # Overflowing products compare as Python floats do, and warn no more.
    lam = np.array(rows)
    expr = RegionExpr(tags)
    with np.errstate(over="ignore", invalid="ignore"):
        want_masks = _reference_masks(lam)
    masks = {label: region_mask(RegionExpr([label]), lam) for label in _LABELS}
    conjunction = region_mask(expr, lam)
    for label in _LABELS:
        assert masks[label].dtype == bool
        assert np.array_equal(masks[label], want_masks[label]), label
    assert np.array_equal(conjunction, np.logical_and.reduce([want_masks[t] for t in tags]))
    for i, row in enumerate(rows):
        l = EigenvalueTriple(*row)
        want = _reference_scalar(*row)
        assert want == {label: bool(want_masks[label][i]) for label in _LABELS}
        got = {label: pred(l) for label, pred in zip(_LABELS, _PUBLIC)}
        assert all(type(flag) is bool for flag in got.values())
        assert got == want
        assert {label: contains(RegionExpr([label]), l) for label in _LABELS} == want
        assert contains(expr, l) == all(want[t] for t in tags)


def test_region_mask_shape_check():
    with pytest.raises(ValueError):
        region_mask(RegionExpr([RegionId.PT]), np.zeros((4, 2)))


@pytest.mark.parametrize("entry", [10**400, "x", 1j, np.array([0.5, 0.5])],
                         ids=["int beyond float range", "text", "complex", "an array"])
def test_region_mask_names_lam_for_entries_that_are_not_real(entry):
    # one TypeError naming lam, never the array's repr, which for a large
    # array would be a screenful
    with pytest.raises(TypeError) as info:
        region_mask(RegionExpr([RegionId.PT]), [[0.5, 0.5, 0.5], [entry, 0, 0]])
    assert str(info.value) == "lam must be an (n, 3) array of real numbers"


def test_halfspace_rejects_a_zero_normal():
    with pytest.raises(ValueError, match="normal must be nonzero"):
        HalfSpace(0, 0, 0, 1)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("slot, name", enumerate(["a1", "a2", "a3", "b"]))
def test_halfspace_rejects_a_non_finite_coefficient_by_name(bad, slot, name):
    coeffs = [1, 0, 0, 1]
    coeffs[slot] = bad
    with pytest.raises(ValueError, match=f"^half-space coefficient {name} must be a finite"):
        HalfSpace(*coeffs)


@pytest.mark.parametrize("bad", [None, [1], object(), "nan", "1/0x"])
@pytest.mark.parametrize("slot, name", enumerate(["a1", "a2", "a3", "b"]))
def test_halfspace_rejects_a_non_number_by_name(bad, slot, name):
    coeffs = [1, 0, 0, 1]
    coeffs[slot] = bad
    with pytest.raises(TypeError) as info:
        HalfSpace(*coeffs)
    assert str(info.value) == f"half-space coefficient {name} must be a finite number, got {bad!r}"


@pytest.mark.parametrize("bad", [5, None, ["CPT"], b"CPT"])
def test_parse_rejects_a_non_string_by_name(bad):
    with pytest.raises(TypeError, match="^text must be a string"):
        RegionExpr.parse(bad)


@pytest.mark.parametrize("bad", ["CPT", "", RegionId.CPT], ids=["text", "empty", "member"])
def test_region_expr_rejects_a_string_by_name(bad):
    with pytest.raises(TypeError) as info:
        RegionExpr(bad)
    assert str(info.value) == (f"tags must be an iterable of region tags, not the string {bad!r};"
                               " RegionExpr.parse reads comma-separated text")


@pytest.mark.parametrize("bad", [None, 5, 1.5, object()])
def test_region_expr_rejects_a_non_iterable_by_name(bad):
    with pytest.raises(TypeError) as info:
        RegionExpr(bad)
    assert str(info.value) == f"tags must be an iterable of region tags, got {bad!r}"


@pytest.mark.parametrize("tags, bad", [(["FOO"], "FOO"), ([RegionId.CPT, "cpt"], "cpt"),
                                       (("PT", None), None), ([["CPT"]], ["CPT"])])
def test_region_expr_names_an_unknown_tag_as_parse_does(tags, bad):
    with pytest.raises(ValueError) as info:
        RegionExpr(tags)
    assert str(info.value) == f"unknown region tag {bad!r}"
    with pytest.raises(ValueError, match="^unknown region tag 'FOO'$"):
        RegionExpr.parse("CPT,FOO")


def test_region_expr_takes_members_and_their_values():
    want = frozenset({RegionId.CPT, RegionId.TLG})
    assert RegionExpr(["CPT", RegionId.TLG]).conjuncts == want
    assert RegionExpr(iter(["TLG", "CPT", "TLG"])).conjuncts == want
    assert RegionExpr({"CPT": 1, "TLG": 2}).conjuncts == want
    with pytest.raises(ValueError, match="^region expression needs at least one tag$"):
        RegionExpr([])


def test_halfspace_description_returns_fresh_lists():
    first = halfspace_description(RegionExpr.parse("PT,PDIV"))
    for system in first:
        system.clear()
    again = halfspace_description(RegionExpr.parse("PT,PDIV"))
    assert [len(system) for system in again] == [9, 9, 9, 9]


def test_halfspace_description_structure():
    assert len(halfspace_description(RegionExpr.parse("CPT"))[0]) == 4
    assert len(halfspace_description(RegionExpr.parse("PT"))[0]) == 6
    assert len(halfspace_description(RegionExpr.parse("EBC"))[0]) == 8
    assert len(halfspace_description(RegionExpr.parse("TLG"))[0]) == 3
    pieces = halfspace_description(RegionExpr.parse("PDIV,CPT"))
    assert len(pieces) == 4
    assert all(len(system) == 7 for system in pieces)
    # CPT planes are among the EBC planes, so the conjunction dedupes
    assert len(halfspace_description(RegionExpr.parse("CPT,EBC"))[0]) == 8


def test_halfspace_description_rejects_cpdiv():
    with pytest.raises(NonPolytopalRegionError):
        halfspace_description(RegionExpr.parse("CPT,CPDIV"))


def test_halfspace_union_matches_predicates():
    rng = np.random.default_rng(9)
    lam = rng.uniform(-1.3, 1.3, size=(10**5, 3))
    for name in ("PT", "CPT", "EBC", "CPT,TLG", "PDIV", "CPT,PDIV"):
        expr = RegionExpr.parse(name)
        want = region_mask(expr, lam)
        got = np.zeros(len(lam), dtype=bool)
        for system in halfspace_description(expr):
            inside = np.ones(len(lam), dtype=bool)
            for hs in system:
                a1, a2, a3, b = (float(x) for x in hs.canonical())
                inside &= lam[:, 0] * a1 + lam[:, 1] * a2 + lam[:, 2] * a3 <= b
            got |= inside
        assert np.array_equal(want, got), name


def test_halfspace_exact_membership():
    # Each primitive row a1 l1 + a2 l2 + a3 l3 <= b decides membership exactly.
    rows = [h.canonical() for h in halfspace_description(RegionExpr.parse("CPT"))[0]]
    slack = lambda point: [b - (a1 * point[0] + a2 * point[1] + a3 * point[2])
                           for a1, a2, a3, b in rows]
    on_facet = slack((1, 0, 0))
    assert min(on_facet) == 0 and on_facet.count(0) == 2
    assert min(slack((1, 1, -1))) < 0


# --- the region table -----------------------------------------------------------

_ORDER = list(RegionId)
_TAG_SETS = [set(tags) for n in range(1, 7) for tags in itertools.combinations(_ORDER, n)]


def test_every_tag_set_is_written_in_region_id_order_and_parses_back():
    assert len(_TAG_SETS) == 63
    for tags in _TAG_SETS:
        expr = RegionExpr(tags)
        assert str(expr).split(",") == [tag.value for tag in _ORDER if tag in tags]
        assert RegionExpr.parse(str(expr)) == expr
        assert RegionExpr.parse(str(expr)).conjuncts == tags


_PADDING = st.sampled_from(["", " ", "\t", " \n "])


@st.composite
def _spelled(draw, tags):
    """``tags`` as parse text: shuffled, repeated, in mixed case, padded, with blank parts."""
    names = [tag.value for tag in tags]
    names += draw(st.lists(st.sampled_from(names), max_size=4)) + [""] * draw(st.integers(0, 2))
    parts = []
    for name in draw(st.permutations(names)):
        upper = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
        cased = "".join(c.upper() if u else c.lower() for c, u in zip(name, upper))
        parts.append(draw(_PADDING) + cased + draw(_PADDING))
    return ",".join(parts)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tags=st.sets(st.sampled_from(_ORDER), min_size=1))
def test_parse_reads_any_case_order_padding_and_repetition(data, tags):
    text = data.draw(_spelled(tags))
    expr = RegionExpr.parse(text)
    assert expr.conjuncts == tags
    assert str(expr) == str(RegionExpr(tags))
    assert RegionExpr.parse(str(expr)) == expr


@settings(max_examples=200, deadline=None)
@given(tags=st.lists(st.sampled_from(_ORDER), max_size=6), at=st.integers(0, 6),
       bad=st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
                   min_size=1, max_size=8),
       pad=_PADDING)
@example(tags=[RegionId.CPT], at=1, bad="foo", pad="")
def test_parse_names_an_unknown_tag_upper_cased(tags, at, bad, pad):
    assume(bad.upper() not in {tag.value for tag in _ORDER})
    parts = [tag.value.lower() for tag in tags]
    parts.insert(at, pad + bad + pad)
    with pytest.raises(ValueError) as info:
        RegionExpr.parse(",".join(parts))
    assert str(info.value) == f"unknown region tag {bad.upper()!r}"


def test_region_record_keys_are_the_cells_after_the_triple_in_the_evolve_csv_header(
        tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    schedule.write_text('[{"duration": 1.0, "rates": [0.5, 0.0, 0.2]}]')
    argv = ["evolve", "--schedule", str(schedule), "--steps", "2", "--format", "csv"]
    assert cli.main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header[:4] == ["t", "l1", "l2", "l3"]
    record = _region_record(EigenvalueTriple(0.5, -0.25, 0.0))
    assert list(record) == header[4:] == [tag.value for tag in _ORDER]
