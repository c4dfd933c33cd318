"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (repeated in
the terminal summary via conftest) and fails if any sub-check fails.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import conftest
import numpy as np

from paulivol import (
    EigenvalueTriple,
    FR_TOTAL,
    RateSchedule,
    RegionExpr,
    SamplerConfig,
    evolve,
    fr_volume_mc,
    is_cp,
    rates_for_target,
    region_mask,
    region_volume,
)
from paulivol.cli import build_table

F = Fraction


def _report(n, problems, description):
    status = "PASS" if not problems else "FAIL"
    line = f"criterion {n}: {status} - {description}"
    if problems:
        line += f" [{'; '.join(problems)}]"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert not problems, line


def _v(name):
    return region_volume(RegionExpr.parse(name))


def test_criterion_1_exact_volumes():
    start = time.perf_counter()
    cases = {
        "PT": F(1),
        "CPT": F(1, 3),
        "CPT,EBC": F(1, 6),
        "PT,TLG": F(1, 8),
        "CPT,TLG": F(1, 16),
        "CPT,PDIV": F(1, 4),
        "CPT,TLG,EBC": F(1, 48),
        "CPT,TLG,PDIV": F(1, 16),
    }
    problems = []
    for name, want in cases.items():
        got = _v(name)
        if got != want:
            problems.append(f"V({name}) = {got}, want {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, problems, f"exact rational volumes ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_exact_ratios():
    cases = [
        ("V(CPT,TLG)/V(CPT)", _v("CPT,TLG") / _v("CPT"), F(3, 16)),
        ("memory-kernel-only", 1 - _v("CPT,TLG") / _v("CPT"), F(13, 16)),
        ("V(CPT,TLG,EBC)/V(CPT,TLG)", _v("CPT,TLG,EBC") / _v("CPT,TLG"), F(1, 3)),
        ("V(CPT,PDIV)/V(CPT)", _v("CPT,PDIV") / _v("CPT"), F(3, 4)),
        ("V(CPT,EBC)/V(CPT)", _v("CPT,EBC") / _v("CPT"), F(1, 2)),
    ]
    problems = [
        f"{name} = {got}, want {want}" for name, got, want in cases if got != want
    ]
    _report(2, problems, "exact rational ratios")


def test_criterion_3_monte_carlo_reproduction():
    problems = []
    times = []
    for seed in (0, 1, 2):
        start = time.perf_counter()
        rows = build_table(SamplerConfig(samples=10**6, seed=seed))
        times.append(time.perf_counter() - start)
        for row in rows:
            ref = float(row["reference"])
            if row["mc_stderr"] == 0.0:
                if row["mc"] != ref:
                    problems.append(f"seed {seed} {row['quantity']}: {row['mc']} != {ref}")
                continue
            dev = abs(row["mc"] - ref) / row["mc_stderr"]
            if dev > 3.0:
                problems.append(f"seed {seed} {row['quantity']}: {dev:.2f} sigma")
    _report(
        3,
        problems,
        "all table rows within 3 sigma at 1e6 samples, seeds 0/1/2"
        f" ({max(times):.1f} s/seed)",
    )


def test_criterion_4_oracle_equivalences():
    rng = np.random.default_rng(2024)
    lam = rng.uniform(-1.5, 1.5, size=(10**5, 3))
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    problems = []

    # complete positivity: the two absolute-value inequalities against
    # nonnegativity of all four Pauli weights
    ineq = (1.0 + l3 >= np.abs(l1 + l2)) & (1.0 - l3 >= np.abs(l1 - l2))
    p_min = np.minimum.reduce([
        1.0 + l1 + l2 + l3,
        1.0 + l1 - l2 - l3,
        1.0 - l1 + l2 - l3,
        1.0 - l1 - l2 + l3,
    ])
    spectral = p_min >= 0.0
    cpt_mask = region_mask(RegionExpr.parse("CPT"), lam)
    n_bad = int((ineq != spectral).sum()) + int((cpt_mask != spectral).sum())
    if n_bad:
        problems.append(f"{n_bad} CP mismatches")

    # entanglement breaking against the partial-transposition oracle
    ebc_mask = region_mask(RegionExpr.parse("EBC"), lam)
    flipped = lam * np.array([1.0, -1.0, 1.0])
    ppt = cpt_mask & region_mask(RegionExpr.parse("CPT"), flipped)
    n_bad = int((ebc_mask != ppt).sum())
    if n_bad:
        problems.append(f"{n_bad} EBC/PPT mismatches")
    _report(4, problems, "CP and EBC oracle equivalences on 1e5 triples")


def _plain_fr(expr, seed, n):
    # uniform proposals over the weight simplex, weighted by the
    # Fisher-Rao density 2 / sqrt(p0 p1 p2 p3); simplex volume 1/6
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4), size=n)
    w = 2.0 / np.sqrt(p.prod(axis=1))
    p0, p1, p2, p3 = p.T
    lam = np.stack([p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3], axis=1)
    return float((w * region_mask(expr, lam)).mean() / 6.0)


def test_criterion_5_fisher_rao():
    problems = []
    cfg = SamplerConfig(samples=10**6, seed=0)
    est = fr_volume_mc(RegionExpr.parse("CPT"), cfg)
    dev = abs(est.value - FR_TOTAL)
    if dev > 3.0 * est.std_error:
        problems.append(f"importance estimate off by {dev:.3g} (> 3 sigma)")

    # an independent plain-rejection integrator must agree, both on the
    # full region and on a strict subregion (2% band, measured spread
    # is about a third of that)
    plain_full = _plain_fr(RegionExpr.parse("CPT"), 0, 10**6)
    if abs(plain_full - FR_TOTAL) > 0.02 * FR_TOTAL:
        problems.append(f"plain integrator full region {plain_full:.4f}")
    sub = RegionExpr.parse("CPT,TLG")
    plain_sub = _plain_fr(sub, 0, 10**6)
    est_sub = fr_volume_mc(sub, cfg)
    if abs(plain_sub - est_sub.value) > 0.02 * est_sub.value:
        problems.append(
            f"plain {plain_sub:.4f} vs importance {est_sub.value:.4f} on {sub}"
        )
    _report(5, problems, "Fisher-Rao volume vs 2 pi^2 and plain integrator")


def test_criterion_6_dynamics():
    problems = []
    rng = np.random.default_rng(99)

    worst = 0.0
    for _ in range(10**4):
        target = EigenvalueTriple(*rng.uniform(0.02, 1.4, 3))
        t_star = float(rng.uniform(0.1, 3.0))
        lam = evolve(RateSchedule([(t_star, rates_for_target(target, t_star))]), t_star)
        worst = max(worst, *(abs(a - b) for a, b in zip(lam, target)))
    if worst >= 1e-12:
        problems.append(f"round-trip error {worst:.3g}")

    cp_ok = True
    for _ in range(10**3):
        schedule = RateSchedule([(2.0, tuple(rng.uniform(0.0, 3.0, 3)))])
        for t in np.linspace(0.0, 2.0, 10):
            if not is_cp(evolve(schedule, float(t))):
                cp_ok = False
    if not cp_ok:
        problems.append("semigroup left the CP region")

    comp_worst = 0.0
    for _ in range(100):
        d1, d2 = rng.uniform(0.1, 1.0, 2)
        r1 = tuple(rng.uniform(-0.5, 2.0, 3))
        r2 = tuple(rng.uniform(-0.5, 2.0, 3))
        a = evolve(RateSchedule([(d1, r1)]), float(d1))
        b = evolve(RateSchedule([(d2, r2)]), float(d2))
        both = RateSchedule([(d1, r1), (d2, r2)])
        c = evolve(both, both.total_duration)
        comp_worst = max(
            comp_worst,
            abs(c.l1 - a.l1 * b.l1),
            abs(c.l2 - a.l2 * b.l2),
            abs(c.l3 - a.l3 * b.l3),
        )
    if comp_worst >= 1e-12:
        problems.append(f"composition error {comp_worst:.3g}")
    _report(
        6,
        problems,
        f"dynamics round trip ({worst:.2g}), semigroup CP, composition ({comp_worst:.2g})",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "paulivol", *args], capture_output=True, text=True
    )


def test_criterion_7_cli_golden():
    problems = []
    proc = _run_cli("table", "--samples", "100000", "--seed", "42", "--format", "csv")
    if proc.returncode != 0:
        problems.append(f"table exited {proc.returncode}")
    got = list(csv.reader(io.StringIO(proc.stdout)))
    golden_path = Path(__file__).parent / "data" / "table_golden.csv"
    golden = list(csv.reader(io.StringIO(golden_path.read_text())))
    if [row[:3] for row in got] != [row[:3] for row in golden]:
        problems.append("deterministic table columns differ from golden file")
    for row in got[1:]:
        stderr = float(row[4])
        dev = abs(float(row[3]) - float(Fraction(row[1])))
        if dev > (5 * stderr if stderr else 0.0):
            problems.append(f"{row[0]} MC column at {dev:.3g}")

    matrix = [
        (("volume", "--region", "CPT"), 0),
        (("volume", "--region", "CPT,CPDIV"), 1),
        (("volume", "--region", "TLG"), 1),
        (("volume", "--region", "PT", "--method", "fr"), 1),
        (("mesh", "--region", "CPDIV"), 1),
        (("classify", "0.5", "abc", "0.5"), 2),
        (("volume", "--region", "CPT,BOGUS"), 2),
        (("volume", "--region", "CPT", "--method", "bogus"), 2),
        (("evolve", "--t", "1.0"), 2),
        (("evolve", "--schedule", "/nonexistent/s.json", "--t", "1.0"), 2),
    ]
    for args, want in matrix:
        code = _run_cli(*args).returncode
        if code != want:
            problems.append(f"{' '.join(args)} exited {code}, want {want}")
    _report(7, problems, "CLI golden table and exit-code matrix")
