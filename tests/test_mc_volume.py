import concurrent.futures
import itertools
import math
import sys
import threading
import time
import warnings

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


@pytest.mark.parametrize("chunk_size, pools", [
    (7, 0),
    (_THREADED_CHUNK_ROWS - 1, 0),
    (_THREADED_CHUNK_ROWS, 1),  # runs of four chunks
])
def test_chunks_shorter_than_the_cut_are_counted_on_the_calling_thread(
        monkeypatch, chunk_size, pools):
    samples = 5 * _THREADED_CHUNK_ROWS + 3
    want = _reference_hits(_TABLE_EXPRS, samples, chunk_size, 13)
    made = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda workers: made.append(workers) or pool(workers))
    monkeypatch.setattr(mc_volume, "_worker_count", lambda: 2)
    assert _hit_counts(_TABLE_EXPRS, SamplerConfig(samples, 13, chunk_size)) == want
    assert made == [2] * pools


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


@pytest.fixture
def failing_chunk(monkeypatch):
    """Chunk 3 raises; chunks 4 and 5 keep both threads busy; records each chunk drawn."""
    error = ValueError("chunk 3 failed")
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


def test_error_in_a_chunk_is_raised_unchanged_and_queued_chunks_are_cancelled(failing_chunk):
    # chunks 3-6 are in flight when chunk 3's error arrives, and 7-49 are not
    # submitted yet; 6, and 4 or 5 if no thread took them yet, wait behind
    # the sleeping chunks and must be cancelled
    error, drawn = failing_chunk
    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
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
