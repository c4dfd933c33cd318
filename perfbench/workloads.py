"""The three workloads: inputs made from the seed, library jobs, CLI lists, checks.

This module never imports paulivol itself.  The library job (``job.py``)
passes the package in; the benchmark's main script (``run.py``) only needs the
inputs, the CLI argument lists and the checks on CLI output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("paper-table", "exact-sweep", "rows")

TAGS = ("PT", "CPT", "EBC", "TLG", "PDIV", "CPDIV")
PREDICATE_NAMES = ("is_positive", "is_cp", "is_ebc", "is_tlg", "is_p_divisible", "is_cp_divisible")

SIZES = {
    "full": {
        "samples": 10**6,
        "cpt_rows": 100_000,
        "ebc_tlg_rows": 20_000,
        "steps": 10_000,
        "classify_rows": 10_000,
        "segments": 50,
    },
    "tiny": {
        "samples": 10**4,
        "cpt_rows": 1_000,
        "ebc_tlg_rows": 200,
        "steps": 100,
        "classify_rows": 100,
        "segments": 5,
    },
}

F = Fraction

# build_table rows at the seed commit: quantity, paper reference, exact value.
PAPER_TABLE = (
    ("V(PT)", F(1), F(1)),
    ("V(CPT)", F(1, 3), F(1, 3)),
    ("V(CPT,EBC)", F(1, 6), F(1, 6)),
    ("V(PT,TLG)", F(1, 8), F(1, 8)),
    ("V(CPT,TLG)/V(CPT)", F(3, 16), F(3, 16)),
    ("memory-kernel-only", F(13, 16), F(13, 16)),
    ("V(CPT,TLG,EBC)/V(CPT,TLG)", F(1, 3), F(1, 3)),
    ("V(CPT,PDIV)/V(CPT)", F(3, 4), F(3, 4)),
    ("V(CPT,CPDIV)/V(CPT)", F(3, 8), None),
    ("V(CPT,TLG,PDIV)/V(CPT,TLG)", F(1), F(1)),
    ("V(CPT,TLG,CPDIV)/V(CPT,TLG)", F(1, 2), None),
)

# Hilbert-Schmidt reference of the hs_volume_mc(CPT,CPDIV) call: V(CPT) * 3/8.
CPT_CPDIV_VOLUME = F(1, 8)

# Exact volumes of the 31 non-empty conjunctions of {PT, CPT, EBC, TLG, PDIV},
# pinned from the seed commit; None marks the unbounded ones.
EXACT_VOLUMES = {
    "PT": F(1), "CPT": F(1, 3), "EBC": F(1, 6), "TLG": None, "PDIV": None,
    "PT,CPT": F(1, 3), "PT,EBC": F(1, 6), "PT,TLG": F(1, 8), "PT,PDIV": F(1, 2),
    "CPT,EBC": F(1, 6), "CPT,TLG": F(1, 16), "CPT,PDIV": F(1, 4), "EBC,TLG": F(1, 48),
    "EBC,PDIV": F(1, 12), "TLG,PDIV": None, "PT,CPT,EBC": F(1, 6), "PT,CPT,TLG": F(1, 16),
    "PT,CPT,PDIV": F(1, 4), "PT,EBC,TLG": F(1, 48), "PT,EBC,PDIV": F(1, 12),
    "PT,TLG,PDIV": F(1, 8), "CPT,EBC,TLG": F(1, 48), "CPT,EBC,PDIV": F(1, 12),
    "CPT,TLG,PDIV": F(1, 16), "EBC,TLG,PDIV": F(1, 48), "PT,CPT,EBC,TLG": F(1, 48),
    "PT,CPT,EBC,PDIV": F(1, 12), "PT,CPT,TLG,PDIV": F(1, 16), "PT,EBC,TLG,PDIV": F(1, 48),
    "CPT,EBC,TLG,PDIV": F(1, 48), "PT,CPT,EBC,TLG,PDIV": F(1, 48),
}
TINY_EXACT_REGIONS = ("PT", "TLG", "CPT,EBC", "PT,EBC,PDIV", "PT,CPT,EBC,TLG,PDIV")
MESH_REGION = "PT,CPT,EBC,PDIV"

FR_TOTAL = 2.0 * math.pi * math.pi
Z_LIMIT = 5.0


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything the program is given, derived from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    inputs = {"workload": workload, "seed": seed, "size": size, "prog_seed": rng.getrandbits(32)}
    if workload == "paper-table":
        inputs["samples"] = sizes["samples"]
    elif workload == "exact-sweep":
        names = [
            ",".join(c)
            for k in range(1, 6)
            for c in itertools.combinations(TAGS[:5], k)
        ]
        if size == "tiny":
            names = list(TINY_EXACT_REGIONS)
        rng.shuffle(names)
        inputs["regions"] = names
    elif workload == "rows":
        inputs.update({k: sizes[k] for k in ("cpt_rows", "ebc_tlg_rows", "steps", "classify_rows")})
        inputs["schedule"] = [
            {
                "duration": rng.uniform(0.01, 0.1),
                "rates": [rng.uniform(-0.5, 2.0) for _ in range(3)],
            }
            for _ in range(sizes["segments"])
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def cli_commands(inputs: dict, schedule_path: str) -> list:
    """The workload's CLI list: (argv, expected exit code)."""
    s = str(inputs["prog_seed"])
    workload = inputs["workload"]
    if workload == "paper-table":
        n = str(inputs["samples"])
        return [
            (["table", "--samples", n, "--seed", s, "--format", "json"], 0),
            (["volume", "--region", "CPT", "--method", "fr", "--samples", n, "--seed", s,
              "--format", "json"], 0),
            (["volume", "--region", "CPT,CPDIV", "--method", "mc", "--samples", n, "--seed", s,
              "--format", "json"], 0),
        ]
    if workload == "exact-sweep":
        return [
            (["volume", "--region", "PT,CPT,EBC,TLG,PDIV", "--format", "json"], 0),
            (["mesh", "--region", MESH_REGION], 0),
            (["volume", "--region", "TLG"], 1),
            (["volume", "--region", "CPDIV"], 1),
        ]
    return [
        (["sample", "--region", "CPT", "-n", str(inputs["cpt_rows"]), "--seed", s,
          "--format", "csv"], 0),
        (["sample", "--region", "EBC,TLG", "-n", str(inputs["ebc_tlg_rows"]), "--seed", s,
          "--format", "json"], 0),
        (["evolve", "--schedule", schedule_path, "--steps", str(inputs["steps"]),
          "--format", "csv"], 0),
        (["classify", "0.5", "0.5", "0.5", "--format", "json"], 0),
    ]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _triple_lines(rows):
    return [f"{a!r},{b!r},{c!r}" for a, b, c in rows]


def _flag(value: bool) -> str:
    return "true" if value else "false"


# --- library jobs --------------------------------------------------------------


def op_labels(inputs: dict) -> list:
    """Labels of the workload's library calls, one per operation."""
    workload = inputs["workload"]
    if workload == "paper-table":
        return ["build_table", "fr_volume_mc", "hs_volume_mc"]
    if workload == "exact-sweep":
        return list(inputs["regions"])
    return ["sample_cpt", "sample_ebc_tlg", "classify_trajectory", "classify_records"]


def library_ops(pv, inputs: dict) -> list:
    """The workload's library calls as (label, fn(results)), run in order.

    Every paulivol name is looked up when the call runs, so the traced run
    sees the wrapped functions.
    """
    workload = inputs["workload"]
    seed = inputs["prog_seed"]
    parse = pv.RegionExpr.parse
    if workload == "paper-table":
        cfg = pv.SamplerConfig(inputs["samples"], seed)
        calls = [
            lambda r: pv.cli.build_table(cfg),
            lambda r: pv.fr_volume_mc(parse("CPT"), cfg),
            lambda r: pv.hs_volume_mc(parse("CPT,CPDIV"), cfg),
        ]
    elif workload == "exact-sweep":
        calls = [lambda r, e=parse(name): pv.region_volume(e) for name in inputs["regions"]]
    else:
        schedule = pv.schedule_from_json(inputs["schedule"])

        def classify_records(results):
            predicates = [getattr(pv, name) for name in PREDICATE_NAMES]
            records = []
            for lam in results["sample_cpt"][: inputs["classify_rows"]]:
                p = pv.lambda_to_p(lam)
                spectrum = pv.choi_matrix(lam).eigenvalues()
                records.append((p, spectrum, [pred(lam) for pred in predicates]))
            return records

        calls = [
            lambda r: list(pv.sample_region(
                parse("CPT"), pv.SamplerConfig(inputs["cpt_rows"], seed))),
            lambda r: list(pv.sample_region(
                parse("EBC,TLG"), pv.SamplerConfig(inputs["ebc_tlg_rows"], seed))),
            lambda r: pv.classify_trajectory(schedule, inputs["steps"]),
            classify_records,
        ]
    return list(zip(op_labels(inputs), calls))


def _within(value, std_error, reference) -> bool:
    return abs(value - float(reference)) <= Z_LIMIT * std_error + 1e-12 * abs(float(reference))


def check_library(pv, inputs: dict, results: dict) -> dict:
    """Problems per library operation (an empty list means it passed)."""
    problems = {label: [] for label in results}
    for label, value in results.items():
        expected_error = (
            inputs["workload"] == "exact-sweep" and EXACT_VOLUMES[label] is None
        )
        if isinstance(value, Exception) and not expected_error:
            problems[label].append(f"raised {value!r}")
    workload = inputs["workload"]
    if workload == "paper-table":
        _check_table(results, problems)
        for label, reference in (("fr_volume_mc", FR_TOTAL), ("hs_volume_mc", CPT_CPDIV_VOLUME)):
            est = results[label]
            if not isinstance(est, Exception) and not _within(est.value, est.std_error, reference):
                problems[label].append(f"{est.value} not within {Z_LIMIT} SE of {reference}")
    elif workload == "exact-sweep":
        for label, value in results.items():
            want = EXACT_VOLUMES[label]
            if want is None:
                if not isinstance(value, pv.UnboundedPolytopeError):
                    problems[label].append(f"expected UnboundedPolytopeError, got {value!r}")
            elif value != want:
                problems[label].append(f"volume {value} != {want}")
    else:
        _check_rows(pv, inputs, results, problems)
    return problems


def _check_table(results, problems):
    rows = results["build_table"]
    if isinstance(rows, Exception):
        return
    got = [(r["quantity"], r["reference"], r["exact"]) for r in rows]
    if got != list(PAPER_TABLE):
        problems["build_table"].append(f"table rows {got} differ from the paper table")
    for r in rows:
        if not _within(r["mc"], r["mc_stderr"], r["reference"]):
            problems["build_table"].append(
                f"{r['quantity']}: mc {r['mc']} not within {Z_LIMIT} SE of {r['reference']}"
            )


def _check_rows(pv, inputs, results, problems):
    import numpy as np

    for label, region, n in (
        ("sample_cpt", "CPT", inputs["cpt_rows"]),
        ("sample_ebc_tlg", "EBC,TLG", inputs["ebc_tlg_rows"]),
    ):
        rows = results[label]
        if isinstance(rows, Exception):
            continue
        if len(rows) != n:
            problems[label].append(f"{len(rows)} rows, expected {n}")
        lam = np.array([[t.l1, t.l2, t.l3] for t in rows]).reshape(-1, 3)
        if not pv.region_mask(pv.RegionExpr.parse(region), lam).all():
            problems[label].append(f"a sampled row lies outside {region}")

    points = results["classify_trajectory"]
    if not isinstance(points, Exception):
        if len(points) != inputs["steps"]:
            problems["classify_trajectory"].append(f"{len(points)} steps")
        lam = np.array([list(pt.eigenvalues) for pt in points]).reshape(-1, 3)
        for pt in points:
            want = closed_form(inputs["schedule"], pt.t)
            if not all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(pt.eigenvalues, want)):
                problems["classify_trajectory"].append(
                    f"t={pt.t}: {tuple(pt.eigenvalues)} != closed form {want}"
                )
                break
        problems["classify_trajectory"] += _flag_problems(
            pv, lam, [[pt.regions[tag] for tag in TAGS] for pt in points]
        )

    records = results["classify_records"]
    if not isinstance(records, Exception) and not isinstance(results["sample_cpt"], Exception):
        triples = results["sample_cpt"][: inputs["classify_rows"]]
        if len(records) != len(triples):
            problems["classify_records"].append(f"{len(records)} records")
        lam = np.array([[t.l1, t.l2, t.l3] for t in triples]).reshape(-1, 3)
        for t, (p, spectrum, _flags) in zip(triples, records):
            weights = [
                0.25 * (1 + t.l1 + t.l2 + t.l3), 0.25 * (1 + t.l1 - t.l2 - t.l3),
                0.25 * (1 - t.l1 + t.l2 - t.l3), 0.25 * (1 - t.l1 - t.l2 + t.l3),
            ]
            if not (
                all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15) for a, b in zip(p, weights))
                and all(
                    math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                    for a, b in zip(sorted(spectrum), sorted(weights))
                )
            ):
                problems["classify_records"].append(f"weights or Choi spectrum wrong at {t}")
                break
        problems["classify_records"] += _flag_problems(pv, lam, [r[2] for r in records])


def _flag_problems(pv, lam, flags) -> list:
    import numpy as np

    flags = np.array(flags, dtype=bool).reshape(-1, len(TAGS))
    for i, tag in enumerate(TAGS):
        if not (pv.region_mask(pv.RegionExpr([tag]), lam) == flags[:, i]).all():
            return [f"{tag} flags disagree with region_mask"]
    return []


def closed_form(schedule: list, t: float) -> tuple:
    """lambda_a(t) = exp(-(G_b + G_c)) from the schedule JSON, segment by segment."""
    g = [0.0, 0.0, 0.0]
    remaining = t
    for seg in schedule:
        if remaining <= 0.0:
            break
        dt = min(remaining, seg["duration"])
        for a in range(3):
            g[a] += seg["rates"][a] * dt
        remaining -= seg["duration"]
    return (math.exp(-(g[1] + g[2])), math.exp(-(g[0] + g[2])), math.exp(-(g[0] + g[1])))


def library_summary(inputs: dict, results: dict) -> dict:
    """The library results the CLI output must reproduce, in JSON form."""
    workload = inputs["workload"]
    ok = {k: v for k, v in results.items() if not isinstance(v, Exception)}
    if workload == "paper-table":
        return {
            "table": [[r["mc"], r["mc_stderr"]] for r in ok.get("build_table", [])],
            "fr": _estimate(ok.get("fr_volume_mc")),
            "hs": _estimate(ok.get("hs_volume_mc")),
        }
    if workload == "exact-sweep":
        return {k: None if isinstance(v, Exception) else str(v) for k, v in results.items()}
    return {
        "sample_cpt": digest(_triple_lines(ok.get("sample_cpt", []))),
        "sample_ebc_tlg": digest(_triple_lines(ok.get("sample_ebc_tlg", []))),
        "trajectory": digest(
            ",".join(
                [repr(pt.t), *(repr(x) for x in pt.eigenvalues)]
                + [_flag(pt.regions[tag]) for tag in TAGS]
            )
            for pt in ok.get("classify_trajectory", [])
        ),
    }


def _estimate(est):
    return None if est is None else [est.value, est.std_error]


# --- CLI output checks ---------------------------------------------------------


def check_cli(inputs, index, code, expected_code, stdout, summary, validators) -> list:
    """Problems with one CLI call's exit code and stdout."""
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}"]
    if expected_code != 0:
        return [] if stdout == "" else ["output on a failing call"]
    workload = inputs["workload"]
    try:
        if workload == "exact-sweep" and index == 1:
            return _check_mesh(json.loads(stdout), validators["mesh"])
        if workload == "rows" and index in (0, 2):
            return _check_csv(stdout, summary["sample_cpt" if index == 0 else "trajectory"])
        doc = json.loads(stdout)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    errors = [e.message for e in validators["output"].iter_errors(doc)]
    if errors:
        return [f"schema: {errors[0]}"]
    results = doc["results"]
    if workload == "paper-table":
        if index == 0:
            got = [[r["mc"], r["mc_stderr"]] for r in results["rows"]]
            refs = [
                (r["quantity"], _frac(r["reference"]), _frac(r["exact"]))
                for r in results["rows"]
            ]
            problems = [] if refs == list(PAPER_TABLE) else ["table exact/reference columns differ"]
            if got != summary["table"]:
                problems.append("table Monte Carlo values differ from the library")
            return problems
        want = summary["fr" if index == 1 else "hs"]
        got = [results["value"], results["std_error"]]
        return [] if got == want else [f"estimate {got} differs from the library {want}"]
    if workload == "exact-sweep":
        got = _frac(results["value"])
        return [] if got == EXACT_VOLUMES["PT,CPT,EBC,TLG,PDIV"] else [f"volume {got}"]
    if index == 1:
        got = digest(_triple_lines(results["rows"]))
        return [] if got == summary["sample_ebc_tlg"] else ["JSON sample rows differ from the library"]
    want = {"PT": True, "CPT": True, "EBC": False, "TLG": True, "PDIV": True, "CPDIV": True}
    problems = [] if results["regions"] == want else [f"regions {results['regions']}"]
    if results["p"] != [0.625, 0.125, 0.125, 0.125]:
        problems.append(f"p {results['p']}")
    return problems


def _frac(pair):
    return None if pair is None else Fraction(pair[0], pair[1])


def _check_csv(stdout, want) -> list:
    lines = stdout.split("\n")
    if lines[-1] != "":
        return ["CSV output does not end with a newline"]
    return [] if digest(lines[1:-1]) == want else ["CSV rows differ from the library"]


def _check_mesh(doc, validator) -> list:
    errors = [e.message for e in validator.iter_errors(doc)]
    if errors:
        return [f"mesh schema: {errors[0]}"]
    if doc["region"] != MESH_REGION:
        return [f"mesh region {doc['region']}"]
    volume = sum(_piece_volume(piece) for piece in doc["pieces"]) / 8
    want = EXACT_VOLUMES[MESH_REGION]
    return [] if volume == want else [f"mesh volume {volume} != {want}"]


def _piece_volume(piece) -> Fraction:
    """Euclidean volume of one convex piece from its vertex cycles."""
    verts = [tuple(Fraction(n, d) for n, d in v) for v in piece["vertices"]]
    k = len(verts)
    o = tuple(sum(v[i] for v in verts) / k for i in range(3))
    rel = [tuple(v[i] - o[i] for i in range(3)) for v in verts]
    total = Fraction(0)
    for cycle in piece["facets"]:
        a = rel[cycle[0]]
        for i in range(1, len(cycle) - 1):
            b, c = rel[cycle[i]], rel[cycle[i + 1]]
            total += (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
    return abs(total) / 6
