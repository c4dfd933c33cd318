"""Seeded Monte Carlo volume estimators.

Hilbert-Schmidt estimates sample the positivity cube [-1,1]^3, whose
total HS measure is exactly 1, so a hit fraction already is a volume
and no scale factor ever enters.  Fisher-Rao estimates importance
sample the channel tetrahedron through Dirichlet(1/2,...) weights.

Determinism: samples are drawn in chunks and chunk c uses the
generator seeded with (seed, c), so a fixed (seed, samples,
chunk_size) triple reproduces the estimate bit for bit no matter how
chunks would be scheduled.

One stream: ``_stream`` is the only place a chunk is drawn, and every
estimator and the rejection sampler read it.  Counting evaluates each
base region mask once per chunk and counts every expression as an AND
of those cached masks, so any number of conjunctions (all the rows of
the reference table, say) cost one pass over the stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterator

from .channel import EigenvalueTriple
from .regions import _PREDICATES, RegionExpr, RegionId, _columns, region_mask

__all__ = [
    "SamplerConfig",
    "VolumeEstimate",
    "FisherRaoDomainError",
    "hs_volume_mc",
    "ratio_mc",
    "fr_volume_mc",
    "sample_region",
]

DEFAULT_CHUNK_SIZE = 2**16
# Largest chunk a config accepts: an (n, 4) float64 chunk is about 0.13 GB
# at this size, and it is rejected before anything is allocated.
MAX_CHUNK_SIZE = 2**22

# Total Fisher-Rao volume of the channel tetrahedron; see fr_volume_mc.
FR_TOTAL = 2.0 * math.pi * math.pi

_ACCEPTANCE_FLOOR = 1e-4


class FisherRaoDomainError(ValueError):
    """Raised for Fisher-Rao requests outside the channel tetrahedron."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling budget and seeding for the Monte Carlo estimators."""

    samples: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.chunk_size > MAX_CHUNK_SIZE:
            raise ValueError(f"chunk_size must be <= {MAX_CHUNK_SIZE}, got {self.chunk_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

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
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        if not math.isnan(self.std_error) and self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _lambda_columns(p: np.ndarray) -> np.ndarray:
    import numpy as np
    l1 = p[:, 0] + p[:, 1] - p[:, 2] - p[:, 3]
    l2 = p[:, 0] - p[:, 1] + p[:, 2] - p[:, 3]
    l3 = p[:, 0] - p[:, 1] - p[:, 2] + p[:, 3]
    return np.stack([l1, l2, l3], axis=1)


def _stream(cfg: SamplerConfig, proposal: str, endless: bool = False) -> Iterator[tuple]:
    """Yield ``(c, lam)``: chunk ``c`` of (n, 3) triples, drawn seeded ``[seed, c]``.

    Proposals: ``cube``, uniform over the positivity cube (the HS
    reference measure); ``fisher-rao``, Dirichlet(1/2) weights from
    squared normals; ``tetrahedron``, Dirichlet(1) weights, uniform over
    the channels.  Chunk sizes follow ``cfg.chunks()``; an endless stream
    (rejection sampling) draws full chunks until its reader stops.  This
    is the one place a chunk generator is seeded.
    """
    import numpy as np
    chunks = ((c, cfg.chunk_size) for c in itertools.count()) if endless else cfg.chunks()
    for c, n in chunks:
        rng = np.random.default_rng([cfg.seed, c])
        if proposal == "cube":
            yield c, rng.uniform(-1.0, 1.0, size=(n, 3))
        elif proposal == "fisher-rao":
            # Gamma(1/2) = Z^2 / 2, in place; halving after squaring is exact
            g = rng.standard_normal(size=(n, 4))
            g *= g
            g *= 0.5
            g /= g.sum(axis=1, keepdims=True)
            yield c, _lambda_columns(g)
        else:  # "tetrahedron"
            yield c, _lambda_columns(rng.dirichlet(np.ones(4), size=n))


def _hit_counts(exprs, cfg: SamplerConfig, proposal: str = "cube") -> list:
    """Hits of every expression on one pass over the seeded stream.

    Per chunk each base mask a conjunct needs is evaluated once, and every
    expression is counted as the AND of those cached masks.
    """
    import numpy as np
    hits = [0] * len(exprs)
    for _c, lam in _stream(cfg, proposal):
        columns = _columns(lam)
        masks = {}
        for i, expr in enumerate(exprs):
            for tag in expr.conjuncts - masks.keys():
                masks[tag] = _PREDICATES[tag](columns)
            hits[i] += int(np.count_nonzero(functools.reduce(
                operator.and_, (masks[tag] for tag in expr.conjuncts))))
    return hits


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
    """Accepted proposals as (k, 3) arrays, chunk by chunk, cfg.samples rows in all."""
    proposal = "tetrahedron" if RegionId.CPT in expr.conjuncts else "cube"
    missing = cfg.samples
    proposed = accepted = 0
    warned = False
    for _c, lam in _stream(cfg, proposal, endless=True):
        rows = lam[region_mask(expr, lam)]
        proposed += len(lam)
        accepted += len(rows)
        if not warned and accepted < _ACCEPTANCE_FLOOR * proposed:
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


def _sample_array(expr: RegionExpr, cfg: SamplerConfig) -> np.ndarray:
    """The rows ``sample_region`` yields, as one (cfg.samples, 3) array."""
    import numpy as np
    return np.concatenate(list(_accepted_chunks(expr, cfg)))


def sample_region(expr: RegionExpr, cfg: SamplerConfig) -> Iterator[EigenvalueTriple]:
    """Stream cfg.samples triples uniform (HS measure) over the region.

    Proposals are uniform over the channel tetrahedron (via
    p ~ Dirichlet(1,1,1,1) mapped linearly to eigenvalues) when the
    expression contains CPT, else uniform over the positivity cube;
    rejection against the full expression keeps the output uniform.
    Warns once if the observed acceptance rate drops below 1e-4.
    """
    for rows in _accepted_chunks(expr, cfg):
        for l1, l2, l3 in zip(*rows.T.tolist()):
            yield EigenvalueTriple(l1, l2, l3)
