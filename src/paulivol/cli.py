"""Command-line interface.

Subcommands: ``classify`` a triple, ``volume`` of a region expression
(exact, Monte Carlo, or Fisher-Rao), the full reference ``table``,
``mesh`` export of a polytopal region, ``sample`` from a region, and
``evolve`` under a rate schedule.

Exit codes: 0 on success, 1 for method/region combinations that are
unsupported (exact or mesh on a non-polytopal or unbounded region,
Fisher-Rao outside the channel tetrahedron), 2 for malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .channel import EigenvalueTriple, choi_spectrum, lambda_to_p
from .dynamics import (
    RateSchedule,
    RateTriple,
    classify_trajectory,
    evolve,
    is_semigroup_reachable,
    rates_for_target,
    schedule_from_json,
)
from .exact_volume import UnboundedPolytopeError, mesh_document, region_volume
from .mc_volume import (
    DEFAULT_CHUNK_SIZE,
    FisherRaoDomainError,
    SamplerConfig,
    _hit_counts,
    _hs_estimate,
    _ratio_estimate,
    _sample_array,
    fr_volume_mc,
    hs_volume_mc,
)
from .regions import _LABELS as _REGION_LABELS
from .regions import NonPolytopalRegionError, RegionExpr, _region_record

__all__ = ["main", "build_parser"]


def _document(command: str, inputs: dict, results: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _rat(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def _rat_text(value: Fraction) -> str:
    return f"{value} (≈{float(value):.4f})"


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- classify ----------------------------------------------------------------


def cmd_classify(args) -> str:
    lam = EigenvalueTriple(args.l1, args.l2, args.l3)
    p = lambda_to_p(lam)
    spectrum = choi_spectrum(lam)
    regions = _region_record(lam)
    doc = _document(
        "classify",
        {"lambda": [lam.l1, lam.l2, lam.l3]},
        {
            "regions": regions,
            "p": [p.p0, p.p1, p.p2, p.p3],
            "choi_spectrum": spectrum,
        },
    )
    if args.format == "json":
        return _json_text(doc)
    if args.format == "csv":
        rows = [["lambda", repr(lam.l1), repr(lam.l2), repr(lam.l3)]]
        rows.append(["p"] + [repr(x) for x in p])
        rows.append(["choi_spectrum"] + [repr(x) for x in spectrum])
        rows.extend([tag, _bool_text(regions[tag])] for tag in _REGION_LABELS)
        return _csv_text(["quantity", "value"], rows)
    lines = [
        f"lambda = ({lam.l1:g}, {lam.l2:g}, {lam.l3:g})",
        f"p = ({p.p0:g}, {p.p1:g}, {p.p2:g}, {p.p3:g})",
        "choi spectrum = (" + ", ".join(f"{x:g}" for x in spectrum) + ")",
    ]
    lines.extend(f"{tag}: {_bool_text(regions[tag])}" for tag in _REGION_LABELS)
    return "\n".join(lines) + "\n"


# --- volume ------------------------------------------------------------------


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(samples=args.samples, seed=args.seed, chunk_size=args.chunk_size)


def cmd_volume(args) -> str:
    expr = RegionExpr.parse(args.region)
    inputs = {"region": str(expr), "method": args.method}
    if args.method == "exact":
        value = region_volume(expr)
        payload = {"method": "exact", "value": _rat(value), "approx": float(value)}
        row = [str(expr), "exact", str(value), "0", "", ""]
        line = f"volume: {_rat_text(value)}"
    else:
        estimator = hs_volume_mc if args.method == "mc" else fr_volume_mc
        est = estimator(expr, _sampler_config(args))
        inputs.update(samples=args.samples, seed=args.seed, chunk_size=args.chunk_size)
        payload = {"method": est.method, "value": est.value, "std_error": est.std_error,
                   "samples": est.samples, "seed": est.seed}
        row = [str(expr), est.method, repr(est.value), repr(est.std_error),
               str(est.samples), str(est.seed)]
        line = (f"volume: {est.value!r} ± {est.std_error:.3g}"
                f" ({est.samples} samples, seed {est.seed})")
    if args.format == "json":
        return _json_text(_document("volume", inputs, payload))
    if args.format == "csv":
        return _csv_text(["region", "method", "value", "std_error", "samples", "seed"], [row])
    return f"region: {expr}\nmethod: {payload['method']}\n{line}\n"


# --- table -------------------------------------------------------------------

_VOLUME_ROWS = [
    ("V(PT)", Fraction(1), "PT"),
    ("V(CPT)", Fraction(1, 3), "CPT"),
    ("V(CPT,EBC)", Fraction(1, 6), "CPT,EBC"),
    ("V(PT,TLG)", Fraction(1, 8), "PT,TLG"),
]

_RATIO_ROWS = [
    ("V(CPT,TLG)/V(CPT)", Fraction(3, 16), "TLG", "CPT"),
    ("V(CPT,TLG,EBC)/V(CPT,TLG)", Fraction(1, 3), "EBC", "CPT,TLG"),
    ("V(CPT,PDIV)/V(CPT)", Fraction(3, 4), "PDIV", "CPT"),
    ("V(CPT,CPDIV)/V(CPT)", Fraction(3, 8), "CPDIV", "CPT"),
    ("V(CPT,TLG,PDIV)/V(CPT,TLG)", Fraction(1), "PDIV", "CPT,TLG"),
    ("V(CPT,TLG,CPDIV)/V(CPT,TLG)", Fraction(1, 2), "CPDIV", "CPT,TLG"),
]


def build_table(cfg: SamplerConfig) -> list:
    """All reference quantities: volumes, ratios, and the complement row.

    Each row is a dict with keys quantity, reference, exact (None where
    only Monte Carlo applies), mc, and mc_stderr.  The memory-kernel-only
    row is the complement 1 - V(CPT,TLG)/V(CPT): eigenvalue triples that
    are channels yet not reachable by any time-local generator.  Every
    Monte Carlo column comes from one pass over the seeded cube stream.
    """
    volumes = [RegionExpr.parse(region) for _q, _r, region in _VOLUME_ROWS]
    ratios = [
        (RegionExpr.parse(f"{num},{den}"), RegionExpr.parse(den))
        for _q, _r, num, den in _RATIO_ROWS
    ]
    exprs = list(dict.fromkeys(volumes + [expr for pair in ratios for expr in pair]))
    hits = dict(zip(exprs, _hit_counts(exprs, cfg)))
    rows = []
    for (quantity, reference, _region), expr in zip(_VOLUME_ROWS, volumes):
        est = _hs_estimate(hits[expr], cfg)
        rows.append(dict(quantity=quantity, reference=reference, exact=region_volume(expr),
                         mc=est.value, mc_stderr=est.std_error))
    for (quantity, reference, num, _den), (joint, den) in zip(_RATIO_ROWS, ratios):
        est = _ratio_estimate(hits[joint], hits[den], den, cfg)
        exact = None if "CPDIV" in num else region_volume(joint) / region_volume(den)
        rows.append(dict(quantity=quantity, reference=reference, exact=exact,
                         mc=est.value, mc_stderr=est.std_error))
    tlg = rows[len(_VOLUME_ROWS)]  # V(CPT,TLG)/V(CPT); its complement follows it
    rows.insert(len(_VOLUME_ROWS) + 1, dict(
        quantity="memory-kernel-only", reference=Fraction(13, 16), exact=1 - tlg["exact"],
        mc=1.0 - tlg["mc"], mc_stderr=tlg["mc_stderr"]))
    return rows


def cmd_table(args) -> str:
    cfg = _sampler_config(args)
    rows = build_table(cfg)
    if args.format == "json":
        payload = [
            {**row, "reference": _rat(row["reference"]),
             "exact": None if row["exact"] is None else _rat(row["exact"])}
            for row in rows
        ]
        return _json_text(_document("table", asdict(cfg), {"rows": payload, "mc_method": "mc-hs"}))
    header = ("quantity", "reference", "exact", "mc", "mc_stderr")
    if args.format == "csv":
        # csv writes None as an empty field, floats with repr and fractions with str
        return _csv_text(header, [row.values() for row in rows])
    cells = [header]
    for row in rows:
        cells.append((
            row["quantity"],
            str(row["reference"]),
            "-" if row["exact"] is None else str(row["exact"]),
            f"{row['mc']:.6f}",
            f"{row['mc_stderr']:.6f}",
        ))
    widths = [max(len(r[i]) for r in cells) for i in range(5)]
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


# --- mesh --------------------------------------------------------------------


def cmd_mesh(args) -> str:
    expr = RegionExpr.parse(args.region)
    return _json_text(mesh_document(expr))


# --- sample ------------------------------------------------------------------


def cmd_sample(args) -> str:
    expr = RegionExpr.parse(args.region)
    cfg = _sampler_config(args)
    rows = _sample_array(expr, cfg).tolist()
    if args.format == "json":
        return _sample_json({"region": str(expr), **asdict(cfg)}, rows)
    return _sample_csv(rows)


# The row writers below format each float once with repr, which is the text
# csv.writer and json.dumps give a finite float; tests/test_cli_writers.py
# holds them to those writers.


def _sample_csv(rows: list) -> str:
    return "l1,l2,l3\n" + "".join([f"{a!r},{b!r},{c!r}\n" for a, b, c in rows])


def _sample_json(inputs: dict, rows: list) -> str:
    """``_json_text`` of the sample document; ``rows`` is not empty.

    ``inputs`` holds only the region and ints, so the first ``"rows": []``
    is the results' one, and the rows go there at json's indent.
    """
    text = _json_text(_document("sample", inputs, {"rows": [], "method": "mc-hs"}))
    body = ",\n".join([
        f"      [\n        {a!r},\n        {b!r},\n        {c!r}\n      ]" for a, b, c in rows
    ])
    return text.replace('"rows": []', f'"rows": [\n{body}\n    ]', 1)


# --- evolve ------------------------------------------------------------------


def _triple_payload(lam: EigenvalueTriple) -> list:
    return [lam.l1, lam.l2, lam.l3]


def cmd_evolve(args) -> str:
    if args.target is not None:
        return _evolve_target(args)
    if args.schedule is None:
        raise ValueError("evolve needs either --schedule or --target")
    try:
        text = Path(args.schedule).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read schedule file: {exc}") from None
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("schedule JSON is nested too deeply") from None
    schedule = schedule_from_json(doc)
    if args.t is not None:
        lam = evolve(schedule, args.t)
        points = [(args.t, lam, _region_record(lam))]
    else:
        points = [
            (pt.t, pt.eigenvalues, pt.regions)
            for pt in classify_trajectory(schedule, args.steps)
        ]
    if args.format == "json":
        inputs = {"schedule": args.schedule, "t": args.t,
                  "steps": None if args.t is not None else args.steps}
        trajectory = [{"t": t, "eigenvalues": _triple_payload(lam), "regions": regions}
                      for t, lam, regions in points]
        return _json_text(_document("evolve", inputs, {"trajectory": trajectory}))
    if args.format == "csv":
        return _evolve_csv(points)
    lines = []
    for t, lam, regions in points:
        tags = ",".join(tag for tag in _REGION_LABELS if regions[tag])
        lines.append(
            f"t={t:g} lambda=({lam.l1:.6g}, {lam.l2:.6g}, {lam.l3:.6g}) in [{tags}]"
        )
    return "\n".join(lines) + "\n"


def _evolve_csv(points: list) -> str:
    lines = [",".join(["t", "l1", "l2", "l3", *_REGION_LABELS]) + "\n"]
    for t, lam, regions in points:
        flags = ",".join([_bool_text(regions[tag]) for tag in _REGION_LABELS])
        lines.append(f"{t!r},{lam.l1!r},{lam.l2!r},{lam.l3!r},{flags}\n")
    return "".join(lines)


def _evolve_target(args) -> str:
    target = EigenvalueTriple(*args.target)
    rates = rates_for_target(target, args.t_star)
    schedule = RateSchedule([(args.t_star, rates)])
    reached = evolve(schedule, args.t_star)
    err = max(
        abs(reached.l1 - target.l1),
        abs(reached.l2 - target.l2),
        abs(reached.l3 - target.l3),
    )
    doc = _document(
        "evolve",
        {"target": _triple_payload(target), "t_star": args.t_star},
        {
            "rates": [rates.g1, rates.g2, rates.g3],
            "reached": _triple_payload(reached),
            "max_error": err,
            "semigroup_reachable": is_semigroup_reachable(target),
        },
    )
    if args.format == "json":
        return _json_text(doc)
    if args.format == "csv":
        return _csv_text(
            ["g1", "g2", "g3", "t_star", "max_error", "semigroup_reachable"],
            [[
                repr(rates.g1),
                repr(rates.g2),
                repr(rates.g3),
                repr(args.t_star),
                repr(err),
                _bool_text(is_semigroup_reachable(target)),
            ]],
        )
    return (
        f"target: ({target.l1:g}, {target.l2:g}, {target.l3:g})\n"
        f"rates (t_star={args.t_star:g}): ({rates.g1:.12g}, {rates.g2:.12g}, {rates.g3:.12g})\n"
        f"reached: ({reached.l1:.12g}, {reached.l2:.12g}, {reached.l3:.12g})"
        f" max error {err:.3g}\n"
        f"semigroup reachable: {_bool_text(is_semigroup_reachable(target))}\n"
    )


# --- parser ------------------------------------------------------------------


def _add_sampler_flags(sub, default_samples=1_000_000):
    sub.add_argument("--samples", type=int, default=default_samples,
                     help="Monte Carlo sample budget")
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sub.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                     dest="chunk_size", help="samples per PRNG chunk")


def _add_common_flags(sub, formats=("json", "csv", "text")):
    # the last format is the default
    sub.add_argument("--format", choices=formats, default=formats[-1],
                     help="output format")
    sub.add_argument("--out", type=str, default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulivol",
        description="Classify qubit Pauli maps and compute region volumes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an eigenvalue triple")
    p.add_argument("l1", type=float)
    p.add_argument("l2", type=float)
    p.add_argument("l3", type=float)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("volume", help="volume of a region expression")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    p.add_argument("--method", choices=("exact", "mc", "fr"), default="exact")
    _add_sampler_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_volume)

    p = sub.add_parser("table", help="all reference volumes and ratios")
    _add_sampler_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("mesh", help="exact mesh of a polytopal region")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    _add_common_flags(p, formats=("json",))
    p.set_defaults(handler=cmd_mesh)

    p = sub.add_parser("sample", help="draw uniform samples from a region")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    p.add_argument("-n", "--samples", type=int, default=10, dest="samples",
                   help="number of samples to draw")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                   dest="chunk_size", help="proposals per PRNG chunk")
    _add_common_flags(p, formats=("json", "csv"))
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("evolve", help="run a rate schedule or invert a target")
    p.add_argument("--schedule", type=str, default=None,
                   help="JSON schedule file: [{\"duration\": d, \"rates\": [g1,g2,g3]}, ...]")
    p.add_argument("--t", type=float, default=None, help="single evaluation time")
    p.add_argument("--steps", type=int, default=11,
                   help="number of classified trajectory steps")
    p.add_argument("--target", type=float, nargs=3, default=None,
                   metavar=("L1", "L2", "L3"),
                   help="find constant rates reaching this triple")
    p.add_argument("--t-star", type=float, default=1.0, dest="t_star",
                   help="arrival time for --target")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_evolve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except (NonPolytopalRegionError, UnboundedPolytopeError, FisherRaoDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
