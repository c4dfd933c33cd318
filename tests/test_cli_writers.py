"""The row writers of ``sample`` and ``evolve`` against the stdlib writers.

Both commands keep their rows as computed, an array of triples and a list
of ``TrajectoryPoint``s, and write them with their own formatting in
blocks of ``_BLOCK_ROWS`` rows, their JSON spliced into the rest of the
document; these tests hold the joined text to what ``csv.writer`` and
``json.dumps(indent=2)`` write for the same rows as lists and dicts, on
random finite floats and on the floats whose text is most irregular
(signed zero, the smallest subnormal, exponents), with blocks of 1, 2 and
3 rows so that the lists cross block boundaries.  A run of ``main`` writes
no block of more than ``_BLOCK_ROWS`` rows, and the bytes it wrote as one
string before.  The last test holds every command's document to the output schemas, and its
rendered JSON to ``_json_text`` of that document as lists and dicts.
"""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import cli
from paulivol.channel import EigenvalueTriple
from paulivol.cli import (
    _document,
    _json_text,
    _sample_csv,
    _sample_json,
    _trajectory_csv,
    _trajectory_json,
    build_parser,
)
from paulivol.dynamics import TrajectoryPoint
from paulivol.regions import _PREDICATES

_REGION_LABELS = [tag.value for tag in _PREDICATES]

_floats = st.floats(allow_nan=False, allow_infinity=False)
_rows = st.lists(st.lists(_floats, min_size=3, max_size=3), min_size=1, max_size=40)

EDGES = [-0.0, 5e-324, 1e-300, 1e-05, 1e16, 1.7976931348623157e308]
EDGE_ROWS = [EDGES[:3], EDGES[3:], [-EDGES[1], -EDGES[4], -EDGES[5]]]


# Blocks of these many rows cross every list of two rows or more.
BLOCK_ROWS = [1, 2, 3]


def _stdlib_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rendered(renderer, doc, block_rows):
    """The text ``renderer`` yields for ``doc``, joined, in blocks of ``block_rows`` rows."""
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        return "".join(renderer(doc))


def _plain(doc):
    """``doc`` with its sample rows and trajectory points as lists and dicts."""
    if "results" not in doc:  # a mesh
        return doc
    results = dict(doc["results"])
    if isinstance(results.get("rows"), np.ndarray):
        results["rows"] = results["rows"].tolist()
    if "trajectory" in results:
        results["trajectory"] = [
            {"t": p.t, "eigenvalues": list(p.eigenvalues), "regions": p.regions}
            for p in results["trajectory"]
        ]
    return {**doc, "results": results}


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@settings(max_examples=200, deadline=None)
@given(rows=_rows)
@example(rows=EDGE_ROWS)
@example(rows=[EDGES[:3]])
@example(rows=[EDGES[3:]])
def test_sample_csv_matches_csv_writer(rows, block_rows):
    doc = _document("sample", {}, {"rows": np.array(rows, dtype=float), "method": "mc-hs"})
    assert _rendered(_sample_csv, doc, block_rows) == _stdlib_csv(["l1", "l2", "l3"], rows)


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@settings(max_examples=200, deadline=None)
@given(
    rows=_rows,
    region=st.sampled_from(["CPT", "EBC,TLG", "PT,CPT,EBC,TLG,PDIV,CPDIV"]),
    seed=st.integers(0, 2**64 - 1),
)
@example(rows=EDGE_ROWS, region="CPT", seed=0)
@example(rows=[EDGES[:3]], region="CPT", seed=0)
@example(rows=[EDGES[3:]], region="EBC,TLG", seed=2**64 - 1)
def test_sample_json_matches_json_dumps(rows, region, seed, block_rows):
    inputs = {"region": region, "samples": len(rows), "seed": seed, "chunk_size": 65536}
    doc = _document("sample", inputs, {"rows": np.array(rows, dtype=float), "method": "mc-hs"})
    expected = _document("sample", inputs, {"rows": rows, "method": "mc-hs"})
    assert _rendered(_sample_json, doc, block_rows) == json.dumps(expected, indent=2) + "\n"


_points = st.lists(
    st.tuples(_floats, _floats, _floats, _floats, st.lists(st.booleans(), min_size=6, max_size=6)),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@settings(max_examples=200, deadline=None)
@given(points=_points)
@example(points=[(0.0, *EDGES[:3], [True] * 6)])
@example(points=[(EDGES[3], *EDGES[3:], [False] * 6), (-0.0, *EDGE_ROWS[2], [True, False] * 3)])
def test_evolve_csv_matches_csv_writer(points, block_rows):
    rows = [
        [t, l1, l2, l3, *("true" if f else "false" for f in flags)]
        for t, l1, l2, l3, flags in points
    ]
    doc = _trajectory_doc(points, at=None, steps=len(points))
    assert (_rendered(_trajectory_csv, doc, block_rows)
            == _stdlib_csv(["t", "l1", "l2", "l3", *_REGION_LABELS], rows))


def _trajectory_doc(points, at, steps):
    """The evolve document of ``points``; ``at`` is the --t time, or None for --steps."""
    trajectory = [
        TrajectoryPoint(t, EigenvalueTriple(l1, l2, l3), dict(zip(_REGION_LABELS, flags)))
        for t, l1, l2, l3, flags in points
    ]
    inputs = {"schedule": "schedule.json", "t": at, "steps": steps}
    return _document("evolve", inputs, {"trajectory": trajectory})


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@settings(max_examples=200, deadline=None)
@given(points=_points, schedule=st.text(max_size=20))
@example(points=[(0.0, *EDGES[:3], [True] * 6)], schedule="schedule.json")
@example(points=[(-0.0, *EDGE_ROWS[2], [True, False] * 3)], schedule='"trajectory": []')
@example(points=[(EDGES[3], *EDGES[3:], [False] * 6), (0.0, *EDGE_ROWS[0], [False, True] * 3)],
         schedule="s")
def test_evolve_trajectory_json_matches_json_dumps(points, schedule, block_rows):
    doc = _trajectory_doc(points, at=None, steps=len(points))
    doc["inputs"]["schedule"] = schedule
    assert (_rendered(_trajectory_json, doc, block_rows)
            == json.dumps(_plain(doc), indent=2) + "\n")


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@settings(max_examples=100, deadline=None)
@given(point=_points.map(lambda points: points[0]))
@example(point=(0.0, *EDGES[:3], [True] * 6))
@example(point=(EDGES[5], *EDGES[3:], [False] * 6))
def test_evolve_single_point_json_matches_json_dumps(point, block_rows):
    # the --t document: one point, with t in the inputs and no steps
    doc = _trajectory_doc([point], at=point[0], steps=None)
    assert (_rendered(_trajectory_json, doc, block_rows)
            == json.dumps(_plain(doc), indent=2) + "\n")


# --- main writes the rows in blocks ---------------------------------------------

SCHEDULE = [{"duration": 1.0, "rates": [0.2, 0.1, 0.3]},
            {"duration": 2.0, "rates": [0.0, 0.4, 0.1]}]
_SAMPLE = ["sample", "--region", "CPT", "-n", "100000", "--format"]
_EVOLVE = ["evolve", "--schedule", "schedule.json", "--steps", "100000", "--format"]
# argv, the sha256 of its stdout before the rows were written in blocks, and
# the text that opens each row's text once
WRITES = [
    ([*_SAMPLE, "csv"], "e348c020c5d747100de3cc141c6a4456cb76b4c610175f9795d622aa5b624c69", "\n"),
    ([*_SAMPLE, "json"], "12311cf89e40d724d90c000aa2fe1c44232f3953ee29e2373da4da5c789cdddc",
     "      [\n"),
    ([*_EVOLVE, "json"], "81b2d06aefd12e2526250376cf4658caaab38464f82bc7bb97c08d76fb029f87",
     '        "t": '),
    ([*_EVOLVE, "csv"], "8d6989815e57b8297cc4f86152c11e9457c1c32a21a776e2b051b5a1875894e9", "\n"),
    ([*_EVOLVE, "text"], "e5f02c7ae400d6cbfc86eaacc32613e5adf8549486d97cc118146eb6ebf2f243",
     "\n"),
]


class _Recorder(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv, digest, row", WRITES, ids=[" ".join(a) for a, _d, _r in WRITES])
def test_main_writes_at_most_a_block_of_rows_at_a_time(tmp_path, monkeypatch, argv, digest, row):
    monkeypatch.chdir(tmp_path)
    Path("schedule.json").write_text(json.dumps(SCHEDULE))
    out = _Recorder()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert max(text.count(row) for text in out.writes) <= cli._BLOCK_ROWS
    assert len(out.writes) > 100_000 // cli._BLOCK_ROWS
    text = "".join(out.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert cli.main([*argv, "--out", "out.txt"]) == 0
    assert Path("out.txt").read_bytes() == text.encode()


# --- every command's document against the schemas -----------------------------

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "paulivol" / "schemas"

COMMANDS = [
    ["classify", "0.5", "-1e-3", "0.125"],
    ["volume", "--region", "CPT,EBC"],
    ["volume", "--region", "CPT", "--method", "mc", "--samples", "2000"],
    ["volume", "--region", "CPT", "--method", "fr", "--samples", "2000"],
    ["table", "--samples", "20000", "--seed", "5"],
    ["mesh", "--region", "CPT,EBC"],
    ["sample", "--region", "EBC,TLG", "-n", "5"],
    ["evolve", "--schedule", "schedule.json", "--steps", "7"],
    ["evolve", "--schedule", "schedule.json", "--t", "0.3"],
    ["evolve", "--target", "0.5", "0.4", "0.3"],
]
# each command's --format choices are the names of its renderers
CASES = [(argv, fmt) for argv in COMMANDS for fmt in build_parser().parse_args(argv).render]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, fmt", CASES, ids=[" ".join([*a, f]) for a, f in CASES])
def test_document_validates_and_renders(tmp_path, monkeypatch, argv, fmt):
    jsonschema = pytest.importorskip("jsonschema")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schedule.json").write_text('[{"duration": 0.5, "rates": [1.0, 0.5, -0.2]}]')
    args = build_parser().parse_args([*argv, "--format", fmt])
    doc = args.handler(args)
    schema = json.loads((SCHEMAS / f"{'mesh' if argv[0] == 'mesh' else 'output'}.schema.json")
                        .read_text())
    # a small document's text is one string, and "".join of it is that string
    jsonschema.validate(json.loads("".join(args.render["json"](doc))), schema)
    text = "".join(args.render[fmt](doc))
    assert text.endswith("\n")
    if fmt == "json":
        json.loads(text, parse_constant=_no_constant)
        assert text == _json_text(_plain(doc))
