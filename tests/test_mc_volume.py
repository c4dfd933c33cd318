import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulivol import (
    FR_TOTAL,
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
from paulivol.mc_volume import MAX_CHUNK_SIZE, _hit_counts, _lambda_columns, _stream


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


def _reference_hits(exprs, samples, chunk_size, seed):
    """Regenerate every chunk and count each expression on its own."""
    hits = [0] * len(exprs)
    full, rem = divmod(samples, chunk_size)
    for c, n in enumerate([chunk_size] * full + ([rem] if rem else [])):
        lam = np.random.default_rng([seed, c]).uniform(-1.0, 1.0, size=(n, 3))
        for i, expr in enumerate(exprs):
            hits[i] += int(region_mask(expr, lam).sum())
    return hits


@settings(max_examples=40, deadline=None)
@given(exprs=_exprs, **_budgets)
def test_hit_counts_match_per_expression_reference(exprs, samples, chunk_size, seed):
    cfg = SamplerConfig(samples, seed, chunk_size)
    assert _hit_counts(exprs, cfg) == _reference_hits(exprs, samples, chunk_size, seed)


@settings(max_examples=40, deadline=None)
@given(**_budgets)
def test_fisher_rao_stream_matches_reference(samples, chunk_size, seed):
    # the stream squares and halves in place; the reference halves first
    cfg = SamplerConfig(samples, seed, chunk_size)
    for (c, lam), (c_ref, n) in zip(_stream(cfg, "fisher-rao"), cfg.chunks(), strict=True):
        z = np.random.default_rng([seed, c_ref]).standard_normal(size=(n, 4))
        g = 0.5 * z * z
        assert c == c_ref
        assert np.array_equal(lam, _lambda_columns(g / g.sum(axis=1, keepdims=True)))


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
