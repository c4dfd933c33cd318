"""Seeded Monte Carlo volume estimators.

Hilbert-Schmidt estimates sample the positivity cube [-1,1]^3, whose
total HS measure is exactly 1, so a hit fraction already is a volume
and no scale factor ever enters.  Fisher-Rao estimates importance
sample the channel tetrahedron through Dirichlet(1/2,...) weights.

Determinism: samples are drawn in chunks and chunk c uses the
generator seeded with (seed, c), so a fixed (seed, samples,
chunk_size) triple reproduces the estimate bit for bit no matter how
chunks are scheduled.

One stream: ``_slices`` is the one reader of the stream.  It seeds
each chunk with ``_chunk_rng`` and draws it with ``_draw`` in
``_SLICE_ROWS``-row slices, which numpy fills exactly as it fills the
whole chunk, so no reader holds a whole chunk and a thread's working
set stays near 1 MB for any chunk size.  A counting pass runs one such
reader on the calling thread and one on each helper thread, one thread
per usable CPU (the calling thread alone when chunks are short), and
each reader takes the next whole chunk of one shared iterator; the hits
are integers, so their sum does not depend on the number of threads or
on which thread counted which chunk.  Counting evaluates each base
region mask once per slice and counts every expression as an AND of
those cached masks, so any number of conjunctions (all the rows of the
reference table, say) cost one pass over the stream.  The rejection
sampler reads the same slices on the calling thread and masks each with
``contains`` on its ``_columns``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import warnings
from dataclasses import dataclass
from typing import Iterator

from .regions import (_PREDICATES, RegionExpr, RegionId, _UnsupportedError, _columns, _int,
                      _real, contains)

__all__ = [
    "SamplerConfig",
    "VolumeEstimate",
    "FR_TOTAL",
    "FisherRaoDomainError",
    "hs_volume_mc",
    "ratio_mc",
    "fr_volume_mc",
    "sample_region",
]

DEFAULT_CHUNK_SIZE = 2**16
# Largest chunk a config accepts; it is rejected before anything is drawn.
# Every reader draws a chunk in _SLICE_ROWS-row slices, so none holds it whole.
MAX_CHUNK_SIZE = 2**22
# Rows any reader draws at a time: a Fisher-Rao slice of (n, 4) normals
# is 0.5 MB.
_SLICE_ROWS = 2**14
# Shortest chunk a counting pass shares with helper threads.  Shorter chunks
# are all taken by the calling thread: seeding a chunk and masking a short
# slice hold the interpreter lock, so threads only contend for it.  On 2
# vCPUs two threads already won at 2^11 rows for Fisher-Rao proposals, and
# overtook the calling thread between 6 144 and 2^13 rows for cube ones.
_THREADED_CHUNK_ROWS = 2**12
# Largest sample budget a config accepts.  The estimators stream, so this
# bounds run time (a 10**10 table takes minutes), not memory.
MAX_SAMPLES = 10**10
# Largest ``sample`` request.  It holds every row once, as float64, and writes
# their text in blocks: at this cap it peaks at about 86 MB (csv) or 93 MB (json).
MAX_SAMPLE_ROWS = 2 * 10**6

# Total Fisher-Rao volume of the channel tetrahedron; see fr_volume_mc.
FR_TOTAL = 2.0 * math.pi * math.pi

_ACCEPTANCE_FLOOR = 1e-4
# Rejection sampling gives up after this many proposals per requested row.
_PROPOSALS_PER_ROW = round(1 / _ACCEPTANCE_FLOOR)


class FisherRaoDomainError(_UnsupportedError):
    """Raised for Fisher-Rao requests outside the channel tetrahedron."""


def _check_seed(seed: int) -> None:
    """The one seed range of the package: an unsigned 64-bit int."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling budget and seeding for the Monte Carlo estimators."""

    samples: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        for name in ("samples", "seed", "chunk_size"):
            object.__setattr__(self, name, _int(name, getattr(self, name)))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.chunk_size > MAX_CHUNK_SIZE:
            raise ValueError(f"chunk_size must be <= {MAX_CHUNK_SIZE}, got {self.chunk_size}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {self.samples}")
        _check_seed(self.seed)

    def chunks(self) -> Iterator[tuple[int, int]]:
        """Yield (chunk_index, chunk_length) covering the sample budget."""
        full, rem = divmod(self.samples, self.chunk_size)
        for c in range(full):
            yield c, self.chunk_size
        if rem:
            yield full, rem


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume (or ratio) with its statistical error.

    ``method`` is "mc-hs" for Hilbert-Schmidt sampling and "mc-fr" for
    Fisher-Rao sampling.
    """

    value: float
    std_error: float
    samples: int
    method: str
    seed: int

    def __post_init__(self):
        if self.method not in ("mc-hs", "mc-fr"):
            raise ValueError(f"unknown method {self.method!r}")
        for name, read in zip(("value", "std_error", "samples", "seed"), (_real, _real, _int, _int)):
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.std_error < 0:  # nan: an undefined ratio's value and error
            raise ValueError("std_error must be >= 0")
        for name in ("value", "std_error"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite or nan, got {getattr(self, name)!r}")
        _check_seed(self.seed)


def _lambda_columns(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of (n, 4) weight rows, summed left to right in place; F order for the masks."""
    import numpy as np
    p0, p1, p2, p3 = p.T
    lam = np.empty((len(p), 3), order="F")
    l1, l2, l3 = lam.T
    np.add(p0, p1, out=l1)
    l1 -= p2
    l1 -= p3
    np.subtract(p0, p1, out=l2)
    l2 += p2
    l2 -= p3
    np.subtract(p0, p1, out=l3)
    l3 -= p2
    l3 += p3
    return lam


def _chunk_rng(cfg: SamplerConfig, c: int):
    """The generator of chunk ``c``, seeded ``[seed, c]``: the one place a chunk is seeded."""
    import numpy as np
    return np.random.default_rng([cfg.seed, c])


def _draw(rng, proposal: str, n: int) -> np.ndarray:
    """The next ``n`` proposals of ``rng`` as an (n, 3) array of triples.

    Proposals: ``cube``, uniform over the positivity cube (the HS
    reference measure); ``fisher-rao``, Dirichlet(1/2) weights from
    squared normals; ``tetrahedron``, Dirichlet(1) weights, uniform over
    the channels.
    """
    import numpy as np
    if proposal == "cube":
        return rng.uniform(-1.0, 1.0, size=(n, 3))
    if proposal == "fisher-rao":
        # Gamma(1/2) = Z^2 / 2, in place; halving after squaring is exact
        g = rng.standard_normal(size=(n, 4))
        g *= g
        g *= 0.5
        # the row sums as g.sum(axis=1) adds them, left to right and in place
        p0, p1, p2, p3 = g.T
        s = p0 + p1
        s += p2
        s += p3
        g /= s[:, None]
        return _lambda_columns(g)
    return _lambda_columns(rng.dirichlet(np.ones(4), size=n))  # "tetrahedron"


def _slices(cfg: SamplerConfig, proposal: str, chunks) -> Iterator[np.ndarray]:
    """Proposals of the ``(c, n)`` chunks in order, at most ``_SLICE_ROWS`` rows per draw."""
    for c, n in chunks:
        rng = _chunk_rng(cfg, c)
        for start in range(0, n, _SLICE_ROWS):
            yield _draw(rng, proposal, min(_SLICE_ROWS, n - start))


def _worker_count() -> int:
    """Threads of a counting pass: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _hit_counts(exprs, cfg: SamplerConfig, proposal: str = "cube") -> list:
    """Hits of every expression on one pass over the seeded stream.

    The calling thread and ``_worker_count() - 1`` helpers (none for chunks
    shorter than ``_THREADED_CHUNK_ROWS``) each count the next chunk of one
    shared iterator into their own hits, summed at the end.  Each base mask
    is evaluated once per slice, and each expression counted as the AND of
    the cached masks.  An error in a chunk is raised here unchanged once
    every thread has ended; no thread takes a chunk after it.
    """
    import threading

    import numpy as np
    chunks = cfg.chunks()
    lock = threading.Lock()
    counts, errors = [], []

    def take():  # the next chunk, or None once the stream ends or a thread failed
        with lock:
            return None if errors else next(chunks, None)

    def count():
        counts.append(hits := [0] * len(exprs))
        try:
            for lam in _slices(cfg, proposal, iter(take, None)):
                columns = _columns(lam)
                masks = {}
                for i, expr in enumerate(exprs):
                    for tag in expr.conjuncts - masks.keys():
                        masks[tag] = _PREDICATES[tag](columns)
                    hits[i] += int(np.count_nonzero(functools.reduce(
                        operator.and_, (masks[tag] for tag in expr.conjuncts))))
        except BaseException as exc:
            errors.append(exc)

    n = _worker_count() if cfg.chunk_size >= _THREADED_CHUNK_ROWS else 1
    threads = [threading.Thread(target=count) for _ in range(n - 1)]
    for thread in threads:
        thread.start()
    count()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return list(map(sum, zip(*counts)))


def _binomial_error(f: float, n: int, scale: float = 1.0) -> float:
    return scale * math.sqrt(f * (1.0 - f) / n)


def _hs_estimate(hits: int, cfg: SamplerConfig) -> VolumeEstimate:
    f = hits / cfg.samples
    return VolumeEstimate(f, _binomial_error(f, cfg.samples), cfg.samples, "mc-hs", cfg.seed)


def _ratio_estimate(joint_hits: int, den_hits: int, den: RegionExpr,
                    cfg: SamplerConfig) -> VolumeEstimate:
    if den_hits == 0:
        warnings.warn(f"no sample hit the denominator region {den}; ratio undefined",
                      stacklevel=3)
        return VolumeEstimate(math.nan, math.nan, cfg.samples, "mc-hs", cfg.seed)
    r = joint_hits / den_hits
    return VolumeEstimate(r, _binomial_error(r, den_hits), cfg.samples, "mc-hs", cfg.seed)


def hs_volume_mc(expr: RegionExpr, cfg: SamplerConfig) -> VolumeEstimate:
    """Hilbert-Schmidt volume of the region clipped to the cube.

    The reference measure (uniform on the cube, total HS measure 1)
    makes the hit fraction itself the unbiased volume estimate.
    """
    return _hs_estimate(_hit_counts([expr], cfg)[0], cfg)


def ratio_mc(num: RegionExpr, den: RegionExpr, cfg: SamplerConfig) -> VolumeEstimate:
    """Volume ratio V(num & den) / V(den) by conditional counting.

    Numerator and denominator are counted on the same sample stream.
    The standard error is binomial on the conditional count, i.e. uses
    the number of denominator hits as the sample size.  When nothing
    hits the denominator the result is NaN with a warning.
    """
    joint_hits, den_hits = _hit_counts([RegionExpr(num.conjuncts | den.conjuncts), den], cfg)
    return _ratio_estimate(joint_hits, den_hits, den, cfg)


def fr_volume_mc(expr: RegionExpr, cfg: SamplerConfig) -> VolumeEstimate:
    """Fisher-Rao volume of a region inside the channel tetrahedron.

    The Fisher-Rao volume element in eigenvalue coordinates is
    dV = dl1 dl2 dl3 / (8 sqrt(p0 p1 p2 p3)), defined only where all
    Pauli weights p_a are nonnegative, so the expression must contain
    CPT.  The estimator importance samples it:

    * the linear change to weight coordinates has |d(lambda)/d(p)| = 16,
      so the integral becomes 2 * integral of (p0 p1 p2 p3)^(-1/2) dp
      over (part of) the probability simplex;
    * the full-simplex integral is the Dirichlet(1/2,1/2,1/2,1/2)
      normalization Gamma(1/2)^4 / Gamma(2) = pi^2, so drawing
      p ~ Dirichlet(1/2^4) and counting hits estimates the integral as
      2 pi^2 times the hit fraction.

    Dirichlet(1/2) draws come from squared standard normals
    (Gamma(1/2, scale 1) = Z^2/2), normalized; no rejection involved.
    """
    if RegionId.CPT not in expr.conjuncts:
        raise FisherRaoDomainError(
            f"Fisher-Rao volume needs a CPT-conjoined region, got {expr}"
        )
    f = _hit_counts([expr], cfg, "fisher-rao")[0] / cfg.samples
    err = _binomial_error(f, cfg.samples, FR_TOTAL)
    return VolumeEstimate(FR_TOTAL * f, err, cfg.samples, "mc-fr", cfg.seed)


def _accepted_chunks(expr: RegionExpr, cfg: SamplerConfig) -> Iterator[np.ndarray]:
    """Accepted proposals as (k, 3) arrays, slice by slice, cfg.samples rows in all.

    Chunk ``c`` holds the same ``cfg.chunk_size`` proposals as in any
    stream, read through ``_slices``, so few rows take few slices.  Raises
    ValueError once ``cfg.samples * _PROPOSALS_PER_ROW`` proposals (the
    last slice cut to that budget) give too few rows.
    """
    proposal = "tetrahedron" if RegionId.CPT in expr.conjuncts else "cube"
    missing = cfg.samples
    budget = cfg.samples * _PROPOSALS_PER_ROW
    proposed = accepted = 0
    warned = False
    for lam in _slices(cfg, proposal, ((c, cfg.chunk_size) for c in itertools.count())):
        lam = lam[:budget - proposed]
        # proposals are finite and in [-1, 1]^3: no input check, and no product overflows
        rows = lam[contains(expr, _columns(lam))]
        proposed += len(lam)
        accepted += len(rows)
        # fewer than 1 / floor proposals cannot show a rate below the floor
        if (not warned and proposed * _ACCEPTANCE_FLOOR >= 1
                and accepted < _ACCEPTANCE_FLOOR * proposed):
            warnings.warn(
                f"acceptance rate {accepted}/{proposed} below {_ACCEPTANCE_FLOOR}"
                f" while sampling {expr}",
                stacklevel=3,
            )
            warned = True
        yield rows[:missing]
        missing -= len(rows)
        if missing <= 0:
            return
        if proposed >= budget:
            raise ValueError(
                f"rejection sampling of {expr} accepted {accepted} of {proposed}"
                f" proposals, fewer than the {cfg.samples} rows asked for"
            )


def _sample_array(expr: RegionExpr, cfg: SamplerConfig) -> np.ndarray:
    """The rows ``sample_region`` yields, as one (cfg.samples, 3) array."""
    if cfg.samples > MAX_SAMPLE_ROWS:
        raise ValueError(f"sample holds every row: samples must be <= {MAX_SAMPLE_ROWS},"
                         f" got {cfg.samples}")
    import numpy as np
    out = np.empty((cfg.samples, 3))
    start = 0
    for rows in _accepted_chunks(expr, cfg):
        out[start:start + len(rows)] = rows
        start += len(rows)
    return out


def sample_region(expr: RegionExpr, cfg: SamplerConfig) -> Iterator[EigenvalueTriple]:
    """Stream cfg.samples triples uniform (HS measure) over the region.

    Proposals are uniform over the channel tetrahedron (via
    p ~ Dirichlet(1,1,1,1) mapped linearly to eigenvalues) when the
    expression contains CPT, else uniform over the positivity cube;
    rejection against the full expression keeps the output uniform.
    Warns once if the observed acceptance rate drops below 1e-4, and
    raises ValueError once 10**4 proposals per requested row are spent.
    Proposals are finite floats, so each slice's triples are built by
    ``channel._build``, with no Python frame per row.
    """
    from .channel import EigenvalueTriple, _build
    for rows in _accepted_chunks(expr, cfg):
        yield from _build(EigenvalueTriple, rows.T.tolist())
