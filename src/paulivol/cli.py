"""Command-line interface.

Subcommands: ``classify`` a triple, ``volume`` of a region expression
(exact, Monte Carlo, or Fisher-Rao), the full reference ``table``,
``mesh`` export of a polytopal region, ``sample`` from a region, and
``evolve`` under a rate schedule.  Each ``cmd_<name>`` computes the
document ``--format json`` writes, with ``sample`` and ``evolve`` rows held
once as computed; one renderer per format turns it into text blocks of
``_BLOCK_ROWS`` rows, or one block, and ``main`` writes them as formatted.

The module imports ``regions``, which parses every command's region and
classifies ``classify``'s triple; each command imports the rest of what it
runs when it runs, down to ``channel`` and the ``json`` and ``csv`` writers.
A sampler config enters a document's ``inputs`` as its own fields in order,
``vars(cfg)``, so only ``mc_volume``'s import, which only the Monte Carlo
commands make, loads ``dataclasses`` (for its config and estimate) and the
``inspect`` it imports.  ``main`` is the
one CLI implementation; ``paulivol.__main__.run`` is the process entry
that calls it and ends the process without interpreter teardown.  Every
stream a run writes is flushed or closed before ``main`` returns.

Exit codes: 0 on success, 1 for method/region combinations that are
unsupported (exact or mesh on a non-polytopal or unbounded region,
Fisher-Rao outside the channel tetrahedron), 2 for malformed input or
output that cannot be written (an ``--out`` file or stdout, ``--help``
and ``--version`` included).  A stream closed before the run is None:
stdout then cannot be written, and error lines go nowhere.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import re
import sys
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import __version__
from .regions import _PREDICATES, RegionExpr, _UnsupportedError, _region_record

__all__ = ["main", "build_parser"]


def _report(line: str) -> None:
    # a closed stderr (2>&-) is None, and print(file=None) would write to stdout
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _write(blocks, path=None) -> None:
    # flushed here, so a full disk or a closed pipe is an OSError for the caller
    if path is None and sys.stdout is None:  # closed before the run (>&-)
        raise OSError("stdout is closed")
    # a file is UTF-8 whatever the locale; stdout keeps its own encoding
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as out:
        out.writelines(blocks)
        out.flush()


def _document(command: str, inputs: dict, results: dict) -> dict:
    return {"version": __version__, "command": command, "inputs": inputs, "results": results}


def _rat(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _tuple_text(values, spec: str) -> str:
    return "(" + ", ".join([format(x, spec) for x in values]) + ")"


def _json_text(doc: dict) -> str:
    import json
    # the one place a Fraction becomes [numerator, denominator]; NaN and inf are not JSON
    return json.dumps(doc, indent=2, allow_nan=False, default=_rat) + "\n"


def _csv_text(header: list, rows: list) -> str:
    # csv writes None as an empty field, floats with repr and fractions with str
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# The row writers below format each float once with repr, which is the text
# csv.writer and json.dumps give a finite float; tests/test_cli_writers.py
# holds them to those writers.  Each yields the text of _BLOCK_ROWS rows at a time.
_BLOCK_ROWS = 2**14


def _blocks(rows):
    return (rows[i:i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))


def _spliced_json(doc: dict, key: str, blocks):
    """``_json_text(doc)`` as its head, one text per block of ``blocks``, and its tail.

    ``blocks`` yields the texts of ``doc["results"][key]``'s rows at json's
    indent of 6; there is a row.  No other key is ``key`` and a quote in a
    string is escaped, so ``"<key>": []`` splits the text without the rows.
    """
    text = _json_text({**doc, "results": {**doc["results"], key: []}})
    head, _, tail = text.partition(f'"{key}": []')
    yield f'{head}"{key}": ['
    for i, block in enumerate(blocks):
        yield ("," if i else "") + "\n" + ",\n".join(block)
    yield "\n    ]" + tail


# --- classify ----------------------------------------------------------------


def cmd_classify(args) -> dict:
    from .channel import EigenvalueTriple, choi_spectrum, lambda_to_p
    lam = EigenvalueTriple(args.l1, args.l2, args.l3)
    results = {"regions": _region_record(lam), "p": list(lambda_to_p(lam)),
               "choi_spectrum": choi_spectrum(lam)}
    return _document("classify", {"lambda": list(lam)}, results)


def _classify_csv(doc: dict) -> str:
    r = doc["results"]
    rows = [["lambda", *doc["inputs"]["lambda"]], ["p", *r["p"]],
            ["choi_spectrum", *r["choi_spectrum"]],
            *([tag, _bool_text(flag)] for tag, flag in r["regions"].items())]
    return _csv_text(["quantity", "value"], rows)


def _classify_text(doc: dict) -> str:
    r = doc["results"]
    lines = [
        f"lambda = {_tuple_text(doc['inputs']['lambda'], 'g')}",
        f"p = {_tuple_text(r['p'], 'g')}",
        f"choi spectrum = {_tuple_text(r['choi_spectrum'], 'g')}",
        *(f"{tag}: {_bool_text(flag)}" for tag, flag in r["regions"].items()),
    ]
    return "\n".join(lines) + "\n"


# --- volume ------------------------------------------------------------------


def _sampler_config(args) -> SamplerConfig:
    from .mc_volume import SamplerConfig
    # --chunk-size has no parser default, so building the parser loads no sampler
    chunk = {} if args.chunk_size is None else {"chunk_size": args.chunk_size}
    return SamplerConfig(samples=args.samples, seed=args.seed, **chunk)


def cmd_volume(args) -> dict:
    expr = RegionExpr.parse(args.region)
    inputs = {"region": str(expr), "method": args.method}
    if args.method == "exact":
        from .exact_volume import region_volume
        value = region_volume(expr)
        return _document("volume", inputs,
                         {"method": "exact", "value": value, "approx": float(value)})
    from .mc_volume import fr_volume_mc, hs_volume_mc
    estimator = hs_volume_mc if args.method == "mc" else fr_volume_mc
    cfg = _sampler_config(args)
    est = estimator(expr, cfg)
    return _document("volume", {**inputs, **vars(cfg)},
                     {"method": est.method, "value": est.value, "std_error": est.std_error,
                      "samples": est.samples, "seed": est.seed})


def _volume_csv(doc: dict) -> str:
    r = doc["results"]
    # an exact volume has std_error 0 and no samples or seed
    row = [doc["inputs"]["region"], r["method"], r["value"], r.get("std_error", 0),
           r.get("samples"), r.get("seed")]
    return _csv_text(["region", "method", "value", "std_error", "samples", "seed"], [row])


def _volume_text(doc: dict) -> str:
    r = doc["results"]
    if r["method"] == "exact":
        line = f"volume: {r['value']} (≈{r['approx']:.4f})"
    else:
        line = (f"volume: {r['value']!r} ± {r['std_error']:.3g}"
                f" ({r['samples']} samples, seed {r['seed']})")
    return f"region: {doc['inputs']['region']}\nmethod: {r['method']}\n{line}\n"


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
    from .exact_volume import region_volume
    from .mc_volume import _hit_counts, _hs_estimate, _ratio_estimate
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


def cmd_table(args) -> dict:
    cfg = _sampler_config(args)
    return _document("table", {**vars(cfg)}, {"rows": build_table(cfg), "mc_method": "mc-hs"})


def _table_json(doc: dict) -> str:
    # an estimate whose denominator got no hit is NaN, and JSON writes it as null
    rows = [{**row, "mc": _defined(row["mc"]), "mc_stderr": _defined(row["mc_stderr"])}
            for row in doc["results"]["rows"]]
    return _json_text({**doc, "results": {**doc["results"], "rows": rows}})


def _defined(value: float):
    return None if math.isnan(value) else value


def _table_csv(doc: dict) -> str:
    rows = doc["results"]["rows"]
    return _csv_text(list(rows[0]), [row.values() for row in rows])


def _table_text(doc: dict) -> str:
    rows = doc["results"]["rows"]
    cells = [tuple(rows[0])]
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


def cmd_mesh(args) -> dict:
    from .exact_volume import mesh_document
    return mesh_document(RegionExpr.parse(args.region))


# --- sample ------------------------------------------------------------------


def cmd_sample(args) -> dict:
    from .mc_volume import _sample_array
    expr = RegionExpr.parse(args.region)
    cfg = _sampler_config(args)
    return _document("sample", {"region": str(expr), **vars(cfg)},
                     {"rows": _sample_array(expr, cfg), "method": "mc-hs"})


def _sample_csv(doc: dict):
    yield "l1,l2,l3\n"
    for block in _blocks(doc["results"]["rows"]):
        yield "".join([f"{a!r},{b!r},{c!r}\n" for a, b, c in block.tolist()])


def _sample_json(doc: dict):
    blocks = ([f"      [\n        {a!r},\n        {b!r},\n        {c!r}\n      ]"
               for a, b, c in block.tolist()] for block in _blocks(doc["results"]["rows"]))
    return _spliced_json(doc, "rows", blocks)


# --- evolve ------------------------------------------------------------------


def cmd_evolve(args) -> dict:
    from .dynamics import TrajectoryPoint, classify_trajectory, evolve, schedule_from_json
    if args.target is not None:
        return _evolve_target(args)
    if args.schedule is None:
        raise ValueError("evolve needs either --schedule or --target")
    import json
    try:
        data = Path(args.schedule).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read schedule file: {exc}") from None
    try:
        doc = json.loads(data)  # bytes: JSON's own UTF-8/16/32 detection, not the locale's
    except RecursionError:
        raise ValueError("schedule JSON is nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"schedule file is not valid JSON: {exc}") from None
    schedule = schedule_from_json(doc)
    if args.t is not None:
        lam = evolve(schedule, args.t)
        points = [TrajectoryPoint(args.t, lam, _region_record(lam))]
    else:
        points = classify_trajectory(schedule, args.steps)
    inputs = {"schedule": args.schedule, "t": args.t,
              "steps": None if args.t is not None else args.steps}
    return _document("evolve", inputs, {"trajectory": points})


def _trajectory_json(doc: dict):
    blocks = (map(_point_json, block) for block in _blocks(doc["results"]["trajectory"]))
    return _spliced_json(doc, "trajectory", blocks)


def _point_json(point) -> str:
    lam = point.eigenvalues
    flags = ",\n".join([f'          "{tag}": {_bool_text(flag)}'
                        for tag, flag in point.regions.items()])
    return (f'      {{\n        "t": {point.t!r},\n        "eigenvalues": [\n'
            f"          {lam.l1!r},\n          {lam.l2!r},\n          {lam.l3!r}\n        ],\n"
            f'        "regions": {{\n{flags}\n        }}\n      }}')


def _trajectory_csv(doc: dict):
    yield ",".join(["t", "l1", "l2", "l3", *(tag.value for tag in _PREDICATES)]) + "\n"
    for block in _blocks(doc["results"]["trajectory"]):
        yield "".join([f"{p.t!r},{p.eigenvalues.l1!r},{p.eigenvalues.l2!r},{p.eigenvalues.l3!r},"
                       f"{','.join(map(_bool_text, p.regions.values()))}\n" for p in block])


def _trajectory_text(doc: dict):
    for block in _blocks(doc["results"]["trajectory"]):
        yield "".join([f"t={p.t:g} lambda={_tuple_text(p.eigenvalues, '.6g')} in"
                       f" [{','.join(tag for tag, flag in p.regions.items() if flag)}]\n"
                       for p in block])


def _evolve_target(args) -> dict:
    from .channel import EigenvalueTriple
    from .dynamics import RateSchedule, evolve, is_semigroup_reachable, rates_for_target
    target = EigenvalueTriple(*args.target)
    rates = rates_for_target(target, args.t_star)
    reached = evolve(RateSchedule([(args.t_star, rates)]), args.t_star)
    results = {"rates": list(rates), "reached": list(reached),
               "max_error": max(abs(a - b) for a, b in zip(reached, target)),
               "semigroup_reachable": is_semigroup_reachable(target)}
    return _document("evolve", {"target": list(target), "t_star": args.t_star}, results)


def _target_csv(doc: dict) -> str:
    r = doc["results"]
    row = [*r["rates"], doc["inputs"]["t_star"], r["max_error"],
           _bool_text(r["semigroup_reachable"])]
    return _csv_text(["g1", "g2", "g3", "t_star", "max_error", "semigroup_reachable"], [row])


def _target_text(doc: dict) -> str:
    r = doc["results"]
    return (
        f"target: {_tuple_text(doc['inputs']['target'], 'g')}\n"
        f"rates (t_star={doc['inputs']['t_star']:g}): {_tuple_text(r['rates'], '.12g')}\n"
        f"reached: {_tuple_text(r['reached'], '.12g')} max error {r['max_error']:.3g}\n"
        f"semigroup reachable: {_bool_text(r['semigroup_reachable'])}\n"
    )


def _evolve_output(trajectory, target):
    """One renderer for both evolve documents: a trajectory, or the rates for --target."""
    return lambda doc: (trajectory if "trajectory" in doc["results"] else target)(doc)


# --- parser ------------------------------------------------------------------


def _add_sampler_flags(sub):
    sub.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample budget")
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sub.add_argument("--chunk-size", type=int, dest="chunk_size", help="samples per PRNG chunk")


def _add_output(sub, handler, **renderers):
    # the renderers' names are the --format choices, and the last is the default
    sub.add_argument("--format", choices=list(renderers), default=list(renderers)[-1],
                     help="output format")
    sub.add_argument("--out", type=str, default=None, help="write output to a file")
    sub.set_defaults(handler=handler, render=renderers)


# A float literal float() reads, with a leading minus: argparse's own matcher
# knows only the -1 and -.5 forms and takes any other "-..." for an option.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads ``-1e-3`` as a number; subparsers inherit it.

    ``--help`` and ``--version`` that cannot be written to stdout exit 2 with
    one ``error:`` line, where argparse would lose the text without one, and
    a usage error with stderr closed writes nothing, where argparse would
    write the usage to stdout.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _print_message(self, message, file=None):
        # argparse passes stdout for --help and --version and ignores a failed write
        if not message or file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            _write([message])
        except OSError as exc:
            # the text stays in stdout's buffer, and the interpreter's final
            # flush would fail on it again (exit 120): give the stream up
            sys.stdout = None
            _report(f"error: cannot write output: {exc}")
            sys.exit(2)

    def error(self, message):
        if sys.stderr is None:
            sys.exit(2)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paulivol",
        description="Classify qubit Pauli maps and compute region volumes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an eigenvalue triple")
    p.add_argument("l1", type=float)
    p.add_argument("l2", type=float)
    p.add_argument("l3", type=float)
    _add_output(p, cmd_classify, json=_json_text, csv=_classify_csv, text=_classify_text)

    p = sub.add_parser("volume", help="volume of a region expression")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    p.add_argument("--method", choices=("exact", "mc", "fr"), default="exact")
    _add_sampler_flags(p)
    _add_output(p, cmd_volume, json=_json_text, csv=_volume_csv, text=_volume_text)

    p = sub.add_parser("table", help="all reference volumes and ratios")
    _add_sampler_flags(p)
    _add_output(p, cmd_table, json=_table_json, csv=_table_csv, text=_table_text)

    p = sub.add_parser("mesh", help="exact mesh of a polytopal region")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    _add_output(p, cmd_mesh, json=_json_text)

    p = sub.add_parser("sample", help="draw uniform samples from a region")
    p.add_argument("--region", required=True, help="comma-separated region tags")
    p.add_argument("-n", "--samples", type=int, default=10, dest="samples",
                   help="number of samples to draw")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--chunk-size", type=int, dest="chunk_size", help="proposals per PRNG chunk")
    _add_output(p, cmd_sample, json=_sample_json, csv=_sample_csv)

    p = sub.add_parser("evolve", help="run a rate schedule or invert a target")
    p.add_argument("--schedule", type=str, default=None,
                   help="JSON schedule file: [{\"duration\": d, \"rates\": [g1,g2,g3]}, ...]")
    p.add_argument("--t", type=float, default=None, help="single evaluation time")
    p.add_argument("--steps", type=int, default=11, help="number of classified trajectory steps")
    p.add_argument("--target", type=float, nargs=3, default=None, metavar=("L1", "L2", "L3"),
                   help="find constant rates reaching this triple")
    p.add_argument("--t-star", type=float, default=1.0, dest="t_star",
                   help="arrival time for --target")
    _add_output(p, cmd_evolve, json=_evolve_output(_trajectory_json, _json_text),
                csv=_evolve_output(_trajectory_csv, _target_csv),
                text=_evolve_output(_trajectory_text, _target_text))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                doc = args.handler(args)
            finally:
                # each message once, and before the error line if compute fails
                for message in dict.fromkeys(str(w.message) for w in caught):
                    _report(f"warning: {message}")
        text = args.render[args.format](doc)
        # a small document is one block; a row renderer's first is made before any write
        blocks = [text] if isinstance(text, str) else chain([next(text)], text)
    except _UnsupportedError as exc:
        _report(f"error: {exc}")
        return 1
    except ValueError as exc:
        _report(f"error: {exc}")
        return 2
    try:
        _write(blocks, args.out)
    except (OSError, UnicodeEncodeError) as exc:  # a full disk, or text stdout cannot encode
        target = "output" if args.out is None else "output file"
        _report(f"error: cannot write {target}: {exc}")
        return 2
    return 0
