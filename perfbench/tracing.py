"""Spans around paulivol's public functions, installed from outside the package.

Every call inside ``paulivol`` goes through a module-global name (``from
.regions import region_mask`` binds ``paulivol.mc_volume.region_mask``), so
replacing each public function in every namespace that holds it records
every call without touching the package.  A span is
``[name, start, end, parent, op, note]``; spans stay in memory and are
written out once, when the job ends.  ``note`` holds what the counts need
(argument sizes, result lengths) and is taken after the span's end time.

Generator functions (``sample_region``) get one span from the first
``next`` to exhaustion.  That is exact while the consumer calls no other
traced function between items, which holds for ``list(...)``, the only way
the package and the benchmark consume them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "regions", "exact_volume", "mc_volume", "dynamics", "channel")

# Public methods that do a layer's work and are called from the benchmark's
# own code; every other method stays unwrapped, because methods such as
# HalfSpace.contains run thousands of times inside one traced function.
METHODS = (("channel", "ChoiMatrix", "eigenvalues"),)

PREDICATES = (
    "regions.is_positive",
    "regions.is_cp",
    "regions.is_ebc",
    "regions.is_tlg",
    "regions.is_p_divisible",
    "regions.is_cp_divisible",
)

# Estimators that each read one full seeded stream of cfg.samples draws.
STREAM_ESTIMATORS = (
    "mc_volume.region_hit_count",
    "mc_volume.hs_volume_mc",
    "mc_volume.ratio_mc",
    "mc_volume.fr_volume_mc",
)


def _note(name, args, result):
    """Small record of one call, enough to derive the counts afterwards.

    ``result`` is None when the call raised; the exact-volume counts then
    record nothing, because an unbounded system is rejected before any
    plane triple is tried.
    """
    if name == "exact_volume.region_volume":
        return args[0]
    if result is None:
        return None
    if name == "exact_volume.enumerate_vertices":
        return (list(args[0]), len(result))
    if name == "exact_volume.build_polytope":
        return len(result.facets)
    if name == "regions.region_mask":
        return len(args[1])
    if name in STREAM_ESTIMATORS:
        return args[-1]
    return None


class Tracer:
    """Span recorder for one process; ``install`` patches the package."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ops = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        op = self.spans[parent][4] if parent >= 0 else -1
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, op, None])
        self.stack.append(i)
        self.spans[i][1] = time.perf_counter()
        return i

    def _close(self, i):
        end = time.perf_counter()
        self.spans[i][2] = end
        if self.stack and self.stack[-1] == i:
            self.stack.pop()
        else:
            self.stack.remove(i)

    @contextmanager
    def operation(self, label):
        """Root span of one benchmark operation; nested spans share its id."""
        i = self._open("job." + label)
        self.spans[i][4] = len(self.ops)
        self.ops.append(label)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return tracer._iterate(name, fn(*args, **kwargs), args)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(i)
                tracer.spans[i][5] = _note(name, args, result)

        return traced

    def _iterate(self, name, iterator, args):
        i = self._open(name)
        n = 0
        try:
            for item in iterator:
                n += 1
                yield item
        finally:
            self._close(i)
            self.spans[i][5] = (args[0], args[-1], n)

    def install(self):
        """Replace every public paulivol function wherever a module binds it."""
        modules = {layer: importlib.import_module("paulivol." + layer) for layer in LAYERS}
        package = importlib.import_module("paulivol")
        # Keyed by id: a memoizing wrapper such as functools.lru_cache is a
        # public callable too, and module dicts also hold unhashable values.
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrapped[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(namespace, attr, wrapped[id(value)][1])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "ops": self.ops,
                    "spans": [s[:5] for s in self.spans],
                },
                fh,
            )


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op, _note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _canonical_count(halfspaces):
    return len({hs.canonical() for hs in halfspaces})


def layer_metrics(spans):
    """Self times by function and the counts the per-layer metrics report."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, selfs):
        by_name[s[0]] += t
        calls[s[0]] += 1
    out = {f"{name}.self_s": t for name, t in by_name.items() if not name.startswith("job.")}
    out["regions.predicates.self_s"] = sum(by_name[p] for p in PREDICATES)
    out["regions.predicates.calls"] = sum(calls[p] for p in PREDICATES)
    out["dynamics.evolve.calls"] = calls["dynamics.evolve"]
    # Self time of all library spans; the job's own glue is the rest of lib_s.
    out["library_self_s"] = sum(t for s, t in zip(spans, selfs) if not s[0].startswith("job."))

    triples = vertices = facets = 0
    volume_calls, distinct = 0, set()
    rows = rows_in_sampler = 0
    passes = samples = yielded = 0
    stream_time = 0.0
    for s in spans:
        name, note = s[0], s[5]
        if note is None:
            continue
        if name == "exact_volume.enumerate_vertices":
            triples += math.comb(_canonical_count(note[0]), 3)
            vertices += note[1]
        elif name == "exact_volume.build_polytope":
            facets += note
        elif name == "exact_volume.region_volume":
            volume_calls += 1
            distinct.add(note)
        elif name == "regions.region_mask":
            rows += note
            if s[3] >= 0 and spans[s[3]][0] == "mc_volume.sample_region":
                rows_in_sampler += note
        elif name == "mc_volume.sample_region":
            yielded += note[2]
        elif name in STREAM_ESTIMATORS and not _inside(spans, s, STREAM_ESTIMATORS):
            passes += 1
            samples += note.samples
            stream_time += s[2] - s[1]
    out.update({
        "exact_volume.plane_triples": triples,
        "exact_volume.vertices": vertices,
        "exact_volume.facets": facets,
        "exact_volume.vertex_hit_ratio": vertices / triples if triples else 0.0,
        "exact_volume.region_volume.calls": volume_calls,
        "exact_volume.region_volume.distinct": len(distinct),
        "regions.region_mask.rows": rows,
        "mc_volume.stream_passes": passes,
        "mc_volume.samples": samples,
        "mc_volume.ns_per_sample": 1e9 * stream_time / samples if samples else 0.0,
        "mc_volume.sample_accept_ratio": yielded / rows_in_sampler if rows_in_sampler else 0.0,
    })
    return out


def _inside(spans, span, names):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def cli_self_times(spans, ops):
    """Self time of the cli layer per operation label (a CLI subcommand)."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s, t in zip(spans, selfs):
        if s[0].startswith("cli."):
            out[ops[s[4]]] += t
    return dict(out)


def stream_plan(spans):
    """The seeded draws the traced estimators made, for the PRNG floor.

    Each entry is ``(kind, seed, samples, chunk_size)``; ``kind`` names the
    numpy call the estimator makes per chunk.
    """
    proposed = defaultdict(int)
    for s in spans:
        if s[0] == "regions.region_mask" and s[3] >= 0 and s[5] is not None:
            proposed[s[3]] += s[5]
    plan = []
    for i, s in enumerate(spans):
        name, note = s[0], s[5]
        if note is None:
            continue
        if name in STREAM_ESTIMATORS and not _inside(spans, s, STREAM_ESTIMATORS):
            kind = "normal4" if name == "mc_volume.fr_volume_mc" else "uniform3"
            plan.append((kind, note.seed, note.samples, note.chunk_size))
        elif name == "mc_volume.sample_region":
            expr, cfg, _n = note
            kind = "dirichlet4" if "CPT" in str(expr).split(",") else "uniform3"
            plan.append((kind, cfg.seed, proposed[i], cfg.chunk_size))
    return plan


def prng_floor_s(plan):
    """Wall time to draw the planned ``[seed, c]`` chunk streams with numpy alone."""
    if not plan:
        return 0.0
    import numpy as np

    start = time.perf_counter()
    for kind, seed, samples, chunk_size in plan:
        full, rem = divmod(samples, chunk_size)
        sizes = [chunk_size] * full + ([rem] if rem else [])
        for c, n in enumerate(sizes):
            rng = np.random.default_rng([seed, c])
            if kind == "uniform3":
                rng.uniform(-1.0, 1.0, size=(n, 3))
            elif kind == "normal4":
                rng.standard_normal(size=(n, 4))
            else:
                rng.dirichlet(np.ones(4), size=n)
    return time.perf_counter() - start
