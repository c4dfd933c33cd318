import itertools
import math
import sys
import threading
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulivol import (
    FR_TOTAL,
    EigenvalueTriple,
    FisherRaoDomainError,
    RegionExpr,
    RegionId,
    SamplerConfig,
    VolumeEstimate,
    contains,
    fr_volume_mc,
    hs_volume_mc,
    ratio_mc,
    region_mask,
    sample_region,
)
from paulivol import mc_volume
from paulivol.cli import main
from paulivol.mc_volume import (
    MAX_CHUNK_SIZE,
    MAX_SAMPLES,
    _SLICE_ROWS,
    _THREADED_CHUNK_ROWS,
    _chunk_rng,
    _draw,
    _hit_counts,
    _sample_array,
)


def _cfg(samples, seed=0, **kw):
    return SamplerConfig(samples=samples, seed=seed, **kw)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(samples=0, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(samples=10, seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(samples=10, seed=2**64)
    with pytest.raises(ValueError):
        SamplerConfig(samples=10, seed=0, chunk_size=0)
    cfg = SamplerConfig(samples=10**5, seed=3, chunk_size=30000)
    assert list(cfg.chunks()) == [(0, 30000), (1, 30000), (2, 30000), (3, 10000)]
    assert SamplerConfig(samples=10, seed=0, chunk_size=MAX_CHUNK_SIZE).chunk_size == 2**22


# The constructor raises before any draw, so no chunk is ever allocated here.
@settings(max_examples=200, deadline=None)
@given(chunk_size=st.integers(MAX_CHUNK_SIZE + 1, 10**30), samples=st.integers(1, 10**30))
def test_sampler_config_rejects_chunks_above_the_cap(chunk_size, samples):
    with pytest.raises(ValueError) as info:
        SamplerConfig(samples=samples, seed=0, chunk_size=chunk_size)
    assert str(info.value) == f"chunk_size must be <= 4194304, got {chunk_size}"


@settings(max_examples=200, deadline=None)
@given(samples=st.integers(MAX_SAMPLES + 1, 10**30), chunk_size=st.integers(1, MAX_CHUNK_SIZE))
def test_sampler_config_rejects_samples_above_the_cap(samples, chunk_size):
    with pytest.raises(ValueError) as info:
        SamplerConfig(samples=samples, seed=0, chunk_size=chunk_size)
    assert str(info.value) == f"samples must be <= 10000000000, got {samples}"
    assert SamplerConfig(samples=MAX_SAMPLES, seed=0).samples == MAX_SAMPLES


_field_values = st.one_of(
    st.integers(-5, 2**65),
    st.sampled_from([1, 2**64 - 1, MAX_SAMPLES, MAX_CHUNK_SIZE]),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.floats().map(np.float64),
)
_field_ranges = {"samples": (1, MAX_SAMPLES), "seed": (0, 2**64 - 1),
                 "chunk_size": (1, MAX_CHUNK_SIZE)}


@settings(max_examples=300, deadline=None)
@given(samples=_field_values, seed=_field_values, chunk_size=_field_values)
def test_sampler_config_accepts_only_ints_in_range(samples, seed, chunk_size):
    # Everything is checked at the call: a config either holds three ints in
    # range or is refused with a message that names a bad field.
    fields = {"samples": samples, "seed": seed, "chunk_size": chunk_size}
    bad = {name for name, value in fields.items()
           if isinstance(value, bool) or not isinstance(value, int)
           or not _field_ranges[name][0] <= value <= _field_ranges[name][1]}
    try:
        cfg = SamplerConfig(**fields)
    except (TypeError, ValueError) as exc:
        assert str(exc).split()[0] in bad, str(exc)
    else:
        assert not bad
        assert all(type(getattr(cfg, name)) is int for name in fields)


def test_volume_estimate_validation():
    VolumeEstimate(0.5, 0.01, 100, "mc-hs", 0)
    with pytest.raises(ValueError):
        VolumeEstimate(0.5, -0.01, 100, "mc-hs", 0)
    with pytest.raises(ValueError):
        VolumeEstimate(0.5, 0.01, 100, "bogus", 0)
    with pytest.raises(ValueError):
        VolumeEstimate(0.5, 0.01, -1, "mc-hs", 0)
    # exact volumes are Fractions, never estimates
    with pytest.raises(ValueError):
        VolumeEstimate(0.5, 0.0, 0, "exact", 0)


@pytest.mark.parametrize(
    "std_error, samples, error, message",
    [
        (10**400, 10, ValueError, "std_error is out of float range"),
        ("0.1", 10, TypeError, "std_error must be a real number, got '0.1'"),
        (-math.inf, 10, ValueError, "std_error must be >= 0"),
        (0.1, Decimal("NaN"), TypeError, "samples must be an int, got Decimal('NaN')"),
        (0.1, 10.0, TypeError, "samples must be an int, got 10.0"),
        (0.1, True, TypeError, "samples must be an int, got True"),
    ],
    ids=["error beyond float range", "error text", "error -inf", "count Decimal NaN",
         "count float", "count bool"],
)
def test_volume_estimate_names_a_bad_error_or_count(std_error, samples, error, message):
    with pytest.raises(error) as info:
        VolumeEstimate(0.5, std_error, samples, "mc-hs", 0)
    assert str(info.value) == message


def test_volume_estimate_reads_its_value_and_seed():
    est = VolumeEstimate(np.float32(0.5), 0.1, np.int64(10), "mc-hs", np.uint64(3))
    assert (est.value, est.samples, est.seed) == (0.5, 10, 3)
    assert [type(x) for x in (est.value, est.samples, est.seed)] == [float, int, int]
    # nan is the value of an undefined ratio
    assert math.isnan(VolumeEstimate(math.nan, math.nan, 10, "mc-hs", 0).value)
    with pytest.raises(TypeError, match=r"^value must be a real number, got 'x'$"):
        VolumeEstimate("x", 0.1, 10, "mc-hs", 0)
    with pytest.raises(TypeError, match=r"^seed must be an int, got None$"):
        VolumeEstimate(0.5, 0.1, 10, "mc-hs", None)
    with pytest.raises(TypeError, match=r"^seed must be an int, got 1.0$"):
        VolumeEstimate(0.5, 0.1, 10, "mc-hs", 1.0)


@pytest.mark.parametrize(
    "value, std_error, seed, message",
    [
        (math.inf, 0.1, 0, "value must be finite or nan, got inf"),
        (-math.inf, 0.1, 0, "value must be finite or nan, got -inf"),
        (np.float64("inf"), math.nan, 0, "value must be finite or nan, got inf"),
        (0.5, math.inf, 0, "std_error must be finite or nan, got inf"),
        (0.5, 0.1, -5, "seed must fit in 64 bits, got -5"),
        (0.5, 0.1, 2**64, f"seed must fit in 64 bits, got {2**64}"),
        (0.5, 0.1, 2**70, f"seed must fit in 64 bits, got {2**70}"),
        (0.5, 0.1, np.int64(-1), "seed must fit in 64 bits, got -1"),
        (math.inf, 0.1, -5, "value must be finite or nan, got inf"),
    ],
    ids=["value inf", "value -inf", "value np inf", "error inf", "seed -5", "seed 2**64",
         "seed 2**70", "seed np -1", "value and seed"],
)
def test_volume_estimate_refuses_an_infinite_value_or_error_and_a_seed_out_of_range(
        value, std_error, seed, message):
    with pytest.raises(ValueError) as info:
        VolumeEstimate(value, std_error, 10, "mc-hs", seed)
    assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-2**66, 2**66) | st.sampled_from([0, 2**64 - 1, 2**64, -1]))
def test_volume_estimate_takes_the_seeds_a_sampler_config_takes(seed):
    try:
        SamplerConfig(10, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            VolumeEstimate(0.5, 0.1, 10, "mc-hs", seed)
        assert str(info.value) == str(exc)
    else:
        assert VolumeEstimate(0.5, 0.1, 10, "mc-hs", seed).seed == seed


def test_volume_estimate_keeps_nan_and_finite_edges():
    # nan stays the value and error of an undefined ratio
    est = VolumeEstimate(math.nan, math.nan, 10, "mc-hs", 2**64 - 1)
    assert math.isnan(est.value) and math.isnan(est.std_error) and est.seed == 2**64 - 1
    est = VolumeEstimate(-1.7976931348623157e308, 1.7976931348623157e308, 0, "mc-fr", 0)
    assert (est.value, est.std_error) == (-1.7976931348623157e308, 1.7976931348623157e308)


def test_sampler_config_reads_numpy_integers_as_ints():
    cfg = SamplerConfig(np.int64(10), np.uint64(2**63), np.int32(4))
    assert cfg == SamplerConfig(10, 2**63, 4)
    assert [type(x) for x in (cfg.samples, cfg.seed, cfg.chunk_size)] == [int, int, int]
    with pytest.raises(TypeError, match=r"^seed must be an int, got np.True_$"):
        SamplerConfig(10, np.bool_(True))


def test_hs_volume_deterministic():
    a = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=42))
    b = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=42))
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=43))
    assert c.value != a.value


def test_hs_volume_pt_is_exactly_one():
    est = hs_volume_mc(RegionExpr.parse("PT"), _cfg(10**4))
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.method == "mc-hs"


def test_hs_volume_cpt_matches_exact():
    est = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=1))
    assert est.std_error > 0
    assert abs(est.value - 1 / 3) < 3 * est.std_error


def test_hs_volume_chunking_covers_all_samples():
    whole = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=9, chunk_size=10**5))
    ragged = hs_volume_mc(RegionExpr.parse("CPT"), _cfg(10**5, seed=9, chunk_size=37))
    assert whole.samples == ragged.samples == 10**5
    # different chunking means a different stream, but the same law
    assert abs(whole.value - ragged.value) < 3 * math.hypot(
        whole.std_error, ragged.std_error
    ) + 1e-12


def test_complement_estimates_sum_to_one():
    expr = RegionExpr.parse("CPT")
    cfg = _cfg(10**6, seed=4)
    hits = _hit_counts([expr], cfg)[0]
    n = cfg.samples
    assert hs_volume_mc(expr, cfg).value == hits / n
    assert hits / n + (n - hits) / n == 1.0


def test_ratio_of_nested_regions_is_one():
    # every trace-localizing map is positive-divisible
    est = ratio_mc(
        RegionExpr.parse("PDIV"), RegionExpr.parse("CPT,TLG"), _cfg(10**4, seed=2)
    )
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_ratio_matches_exact():
    est = ratio_mc(
        RegionExpr.parse("TLG"), RegionExpr.parse("CPT"), _cfg(10**5, seed=5)
    )
    assert abs(est.value - 3 / 16) < 3 * est.std_error


def test_ratio_with_empty_denominator_warns_and_is_nan():
    cfg = _cfg(1, seed=0)
    with pytest.warns(UserWarning):
        est = ratio_mc(RegionExpr.parse("PT"), RegionExpr.parse("CPT,TLG,EBC"), cfg)
    assert math.isnan(est.value)
    assert math.isnan(est.std_error)


def test_fr_volume_requires_cpt():
    with pytest.raises(FisherRaoDomainError):
        fr_volume_mc(RegionExpr.parse("PT"), _cfg(100))
    with pytest.raises(FisherRaoDomainError):
        fr_volume_mc(RegionExpr.parse("TLG"), _cfg(100))


def test_fr_volume_of_full_cpt_is_total():
    # every Dirichlet(1/2,...) draw lies in the region, so the estimate
    # collapses to the closed-form total with zero spread
    est = fr_volume_mc(RegionExpr.parse("CPT"), _cfg(10**4, seed=0))
    assert est.value == FR_TOTAL
    assert est.std_error == 0.0
    assert est.method == "mc-fr"


def test_fr_volume_subregion_is_smaller():
    cfg = _cfg(10**5, seed=1)
    sub = fr_volume_mc(RegionExpr.parse("CPT,EBC"), cfg)
    assert 0 < sub.value < FR_TOTAL
    assert sub.std_error > 0


# Dirichlet(1/2) weights are the squared coordinates of a uniform point on
# the 3-sphere, so Fisher-Rao volumes of these regions have closed forms.
# CPT,EBC keeps every weight at most 1/2, and each weight is Beta(1/2, 3/2)
# with P(p > 1/2) = 1/2 - 1/pi, so its fraction of FR_TOTAL is 4/pi - 1;
# the CPT,TLG (5/24) and CPT,PDIV (5/6) fractions come from quadrature over
# Hopf coordinates to 1e-15.  A Dirichlet(0.51) sampler moves the CPT,EBC
# fraction by about 12 standard errors here.
# CPT,CPDIV is a third: in Hopf coordinates l1 = u ~ U[-1, 1], l2 = c a + s b
# and l3 = c a - s b, with c = (1 + u)/2, s = (1 - u)/2 and a, b independent
# arcsine variables on [-1, 1].  CPDIV is invariant under double sign flips,
# so its share is 4 times its share of TLG.  Inside TLG it fails exactly
# where l_b l_c > l_a for some a, three disjoint events of equal probability
# (two would need l_c^2 > 1).  One of them is (1 + u)^2 X < (1 - u)^2 Y with
# u ~ U[0, 1] and X, Y iid Beta(1/2, 1/2), of probability 1/6 (quadrature to
# 1e-15), so TLG minus CPDIV is 3 (1/2)(1/2)(1/6) = 1/8 of the measure, CPDIV
# within TLG 5/24 - 1/8 = 1/12, and CPDIV 4/12.
@pytest.mark.parametrize("region, value", [
    ("CPT,EBC", 8 * math.pi - 2 * math.pi**2),
    ("CPT,TLG", 5 * math.pi**2 / 12),
    ("CPT,PDIV", 5 * math.pi**2 / 3),
    ("CPT,CPDIV", 2 * math.pi**2 / 3),
])
def test_fr_volume_matches_the_closed_forms(region, value):
    est = fr_volume_mc(RegionExpr.parse(region), _cfg(10**6, seed=0))
    assert abs(est.value - value) < 5 * est.std_error


def test_fr_volume_stable_under_rechunking():
    a = fr_volume_mc(RegionExpr.parse("CPT,TLG"), _cfg(10**5, seed=3, chunk_size=2**16))
    b = fr_volume_mc(RegionExpr.parse("CPT,TLG"), _cfg(10**5, seed=3, chunk_size=2**15))
    assert abs(a.value - b.value) < 3 * math.hypot(a.std_error, b.std_error)


def test_sample_region_members_and_determinism():
    cfg = _cfg(500, seed=10)
    expr = RegionExpr.parse("CPT,EBC")
    first = list(sample_region(expr, cfg))
    assert len(first) == 500
    assert all(contains(expr, l) for l in first)
    second = list(sample_region(expr, cfg))
    assert [tuple(l) for l in first] == [tuple(l) for l in second]


def test_sample_region_cube_proposals():
    cfg = _cfg(200, seed=11)
    expr = RegionExpr.parse("PT,TLG")
    draws = list(sample_region(expr, cfg))
    assert len(draws) == 200
    assert all(contains(expr, l) for l in draws)


def test_sample_region_warns_once_below_the_acceptance_floor(monkeypatch):
    # EBC,TLG fills 1/48 of the cube, so 100 rows take several chunks of
    # 1000 proposals, and a floor of 0.5 is above every chunk's rate.
    cfg = _cfg(100, seed=4, chunk_size=1000)
    expr = RegionExpr.parse("EBC,TLG")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = [tuple(l) for l in sample_region(expr, cfg)]
    monkeypatch.setattr(mc_volume, "_ACCEPTANCE_FLOOR", 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        floored = [tuple(l) for l in sample_region(expr, cfg)]
    assert [w.category for w in caught] == [UserWarning]
    assert "acceptance rate" in str(caught[0].message)
    assert floored == plain


@pytest.fixture
def drawn(monkeypatch):
    """The size of every slice of proposals drawn while the test runs."""
    sizes = []
    draw = mc_volume._draw

    def counted(rng, proposal, n):
        sizes.append(n)
        return draw(rng, proposal, n)

    monkeypatch.setattr(mc_volume, "_draw", counted)
    return sizes


def test_rejection_draws_few_rows_in_one_slice(drawn):
    # 5 rows of EBC,TLG (1/48 of the cube) take a few hundred proposals, so
    # one slice of 2^14 rows serves them, not a chunk of 2^22
    cfg = _cfg(5, seed=8, chunk_size=MAX_CHUNK_SIZE)
    assert len(_sample_array(RegionExpr.parse("EBC,TLG"), cfg)) == 5
    assert drawn == [_SLICE_ROWS]


def test_rejection_gives_up_after_its_proposal_budget(monkeypatch, drawn):
    # no real conjunction rejects every proposal, so a mask stands in for one
    monkeypatch.setattr(mc_volume, "region_mask", lambda expr, lam: np.zeros(len(lam), bool))
    cfg = _cfg(3, seed=5, chunk_size=1000)
    with pytest.warns(UserWarning, match="acceptance rate 0/"):
        with pytest.raises(ValueError) as info:
            list(sample_region(RegionExpr.parse("CPT"), cfg))
    assert str(info.value) == (
        "rejection sampling of CPT accepted 0 of 30000 proposals,"
        " fewer than the 3 rows asked for"
    )
    assert sum(drawn) == 3 * mc_volume._PROPOSALS_PER_ROW == 30000
    assert max(drawn) <= cfg.chunk_size


def test_sample_region_is_unbiased_on_symmetric_region():
    # the channel tetrahedron is symmetric under each sign flip pair,
    # so each coordinate has mean zero
    cfg = _cfg(10**5, seed=12)
    arr = np.array([tuple(l) for l in sample_region(RegionExpr.parse("CPT"), cfg)])
    stderr = arr[:, 0].std() / math.sqrt(len(arr))
    assert abs(arr[:, 0].mean()) < 3 * stderr


# --- the shared stream against a per-expression reference -------------------

_expr = st.sets(st.sampled_from(list(RegionId)), min_size=1).map(RegionExpr)
_exprs = st.lists(_expr, min_size=1, max_size=5)
_budgets = dict(
    samples=st.integers(1, 5000),
    chunk_size=st.integers(1, 2000),
    seed=st.integers(0, 2**64 - 1),
)


def _reference_lambda(p):
    """The eigenvalue triples of (n, 4) weight rows, stacked from whole columns."""
    p0, p1, p2, p3 = p.T
    return np.stack([p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3], axis=1)


def _reference_fisher_rao(rng, n):
    # the stream squares, halves, sums and forms the triples in place
    z = rng.standard_normal(size=(n, 4))
    g = 0.5 * z * z
    return _reference_lambda(g / g.sum(axis=1, keepdims=True))


# Each proposal drawn as one whole chunk, with no in-place arithmetic.
_REFERENCE_DRAWS = {
    "cube": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 3)),
    "fisher-rao": _reference_fisher_rao,
    "tetrahedron": lambda rng, n: _reference_lambda(rng.dirichlet(np.ones(4), size=n)),
}


def _reference_hits(exprs, samples, chunk_size, seed, proposal="cube"):
    """Regenerate every chunk whole and count each expression on its own."""
    hits = [0] * len(exprs)
    full, rem = divmod(samples, chunk_size)
    for c, n in enumerate([chunk_size] * full + ([rem] if rem else [])):
        lam = _REFERENCE_DRAWS[proposal](np.random.default_rng([seed, c]), n)
        for i, expr in enumerate(exprs):
            hits[i] += int(region_mask(expr, lam).sum())
    return hits


@settings(max_examples=60, deadline=None)
@given(exprs=_exprs, proposal=st.sampled_from(sorted(_REFERENCE_DRAWS)),
       workers=st.sampled_from([1, 2, 5]), **_budgets)
def test_hit_counts_match_per_expression_reference(exprs, proposal, workers, samples,
                                                   chunk_size, seed):
    cfg = SamplerConfig(samples, seed, chunk_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc_volume, "_worker_count", lambda: workers)
        hits = _hit_counts(exprs, cfg, proposal)
    assert hits == _reference_hits(exprs, samples, chunk_size, seed, proposal)


_TABLE_EXPRS = [RegionExpr.parse(t) for t in ("CPT", "CPT,EBC", "CPT,TLG", "CPT,PDIV", "CPDIV",
                                              "EBC,TLG")]


# More runs than the 2 x 5 in flight: chunks of several slices, and short
# chunks counted many to a run.
@pytest.mark.parametrize("samples, chunk_size", [
    (11 * (_SLICE_ROWS + 1000) + 17, _SLICE_ROWS + 1000),
    (2 * 2**16 + 5, 2**16 + 3),
    (12 * _SLICE_ROWS + 7, 1000),
])
@pytest.mark.parametrize("proposal", sorted(_REFERENCE_DRAWS))
def test_hit_counts_of_many_slices_and_runs_do_not_depend_on_threads(
        monkeypatch, proposal, samples, chunk_size):
    want = _reference_hits(_TABLE_EXPRS, samples, chunk_size, 11, proposal)
    cfg = SamplerConfig(samples, 11, chunk_size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a lost update would show
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(mc_volume, "_worker_count", lambda: workers)
            assert _hit_counts(_TABLE_EXPRS, cfg, proposal) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("chunk_size, helpers", [
    (7, 0),
    (_THREADED_CHUNK_ROWS - 1, 0),
    (_THREADED_CHUNK_ROWS, 1),  # workers - 1
])
def test_chunks_shorter_than_the_cut_are_counted_on_the_calling_thread(
        monkeypatch, chunk_size, helpers):
    samples = 5 * _THREADED_CHUNK_ROWS + 3
    want = _reference_hits(_TABLE_EXPRS, samples, chunk_size, 13)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    monkeypatch.setattr(mc_volume, "_worker_count", lambda: 2)
    assert _hit_counts(_TABLE_EXPRS, SamplerConfig(samples, 13, chunk_size)) == want
    assert len(started) == helpers


def test_threads_take_each_chunk_once_from_a_slow_iterator(monkeypatch):
    # a generator that another thread is inside raises ValueError, so the
    # threads must take chunks one at a time
    chunks = SamplerConfig.chunks

    def slow(cfg):
        for chunk in chunks(cfg):
            time.sleep(0.002)
            yield chunk

    monkeypatch.setattr(SamplerConfig, "chunks", slow)
    monkeypatch.setattr(mc_volume, "_worker_count", lambda: 3)
    samples = 40 * _THREADED_CHUNK_ROWS + 1
    want = _reference_hits(_TABLE_EXPRS, samples, _THREADED_CHUNK_ROWS, 17)
    assert _hit_counts(_TABLE_EXPRS, SamplerConfig(samples, 17, _THREADED_CHUNK_ROWS)) == want


@settings(max_examples=40, deadline=None)
@given(**_budgets)
def test_fisher_rao_stream_matches_reference(samples, chunk_size, seed):
    cfg = SamplerConfig(samples, seed, chunk_size)
    for c, n in cfg.chunks():
        lam = _draw(_chunk_rng(cfg, c), "fisher-rao", n)
        want = _reference_fisher_rao(np.random.default_rng([seed, c]), n)
        assert np.array_equal(lam, want)


# Every reader draws a chunk in slices; its rows stay the seeded rows only
# because numpy fills k rows and then m rows exactly as it fills k + m rows.
@settings(max_examples=60, deadline=None)
@given(
    proposal=st.sampled_from(sorted(_REFERENCE_DRAWS)),
    seed=st.integers(0, 2**64 - 1),
    c=st.integers(0, 10**6),
    slices=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
)
def test_slices_of_a_chunk_concatenate_to_one_draw(proposal, seed, c, slices):
    rng = np.random.default_rng([seed, c])
    parts = [_draw(rng, proposal, n) for n in slices]
    whole = _REFERENCE_DRAWS[proposal](np.random.default_rng([seed, c]), sum(slices))
    assert np.array_equal(np.concatenate(parts), whole)


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which pytest would take as the user's."""


@pytest.fixture
def failing_chunk(monkeypatch, request):
    """Chunk 3 raises; later chunks sleep, keeping a thread busy; records each chunk drawn.

    Chunk 3 raises ``ValueError("chunk 3 failed")``, or ``request.param``
    called with that message.
    """
    error = getattr(request, "param", ValueError)("chunk 3 failed")
    drawn = []
    draw = mc_volume._draw

    def failing(rng, proposal, n):
        c = rng.bit_generator.seed_seq.entropy[1]
        drawn.append(c)
        if c == 3:
            raise error
        if c > 3:
            time.sleep(0.5)
        return draw(rng, proposal, n)

    monkeypatch.setattr(mc_volume, "_draw", failing)
    monkeypatch.setattr(mc_volume, "_worker_count", lambda: 2)
    return error, drawn


@pytest.mark.parametrize("failing_chunk", [ValueError, _Interrupt], indirect=True)
def test_error_in_a_chunk_is_raised_unchanged_and_queued_chunks_are_cancelled(failing_chunk):
    # the other thread may have taken chunk 4 before chunk 3's error, and
    # sleeps in it; no thread may take a chunk after the error
    error, drawn = failing_chunk
    threads = threading.active_count()
    with pytest.raises(type(error)) as info:
        hs_volume_mc(RegionExpr.parse("CPT"), _cfg(50 * _SLICE_ROWS, chunk_size=_SLICE_ROWS))
    assert info.value is error
    assert sorted(drawn) == list(range(len(drawn))) and 4 <= len(drawn) <= 6
    assert threading.active_count() == threads


def test_table_reports_an_error_in_a_chunk_as_one_error_line(failing_chunk, capsys):
    threads = threading.active_count()
    code = main(["table", "--samples", str(50 * _SLICE_ROWS), "--chunk-size", str(_SLICE_ROWS)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: chunk 3 failed\n")
    assert threading.active_count() == threads


def _reference_rows(expr, samples, chunk_size, seed):
    """Rejection sampling over whole chunks: the rows each chunk accepts, in order."""
    rows = []
    for c in itertools.count():
        proposal = "tetrahedron" if RegionId.CPT in expr.conjuncts else "cube"
        lam = _REFERENCE_DRAWS[proposal](np.random.default_rng([seed, c]), chunk_size)
        rows.extend(lam[region_mask(expr, lam)].tolist())
        if len(rows) >= samples:
            return rows[:samples]


@settings(max_examples=40, deadline=None)
@given(
    expr=_expr,
    samples=st.integers(1, 100),
    chunk_size=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
)
def test_sliced_rejection_matches_whole_chunk_reference(expr, samples, chunk_size, seed):
    cfg = SamplerConfig(samples, seed, chunk_size)
    assert _sample_array(expr, cfg).tolist() == _reference_rows(expr, samples, chunk_size, seed)


@settings(max_examples=40, deadline=None)
@given(
    region=st.sampled_from(["CPT", "EBC,TLG", "PT"]),
    samples=st.integers(1, 300),
    chunk_size=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_region_streams_the_sample_array_bit_for_bit(region, samples, chunk_size, seed):
    expr = RegionExpr.parse(region)
    cfg = SamplerConfig(samples, seed, chunk_size)
    triples = list(sample_region(expr, cfg))
    assert all(type(t) is EigenvalueTriple for t in triples)
    got = np.array([tuple(t) for t in triples])
    want = _sample_array(expr, cfg)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(num=_expr, den=_expr, **_budgets)
def test_ratio_mc_matches_reference_and_flags_empty_denominator(
    num, den, samples, chunk_size, seed
):
    joint = RegionExpr(num.conjuncts | den.conjuncts)
    joint_hits, den_hits = _reference_hits([joint, den], samples, chunk_size, seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = ratio_mc(num, den, SamplerConfig(samples, seed, chunk_size))
    assert est.samples == samples
    if den_hits == 0:
        assert [w.category for w in caught] == [UserWarning]
        assert math.isnan(est.value) and math.isnan(est.std_error)
    else:
        assert caught == []
        assert est.value == joint_hits / den_hits
