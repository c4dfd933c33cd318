"""The row writers of ``sample`` and ``evolve`` against the stdlib writers.

Both commands write their rows with their own formatting, and their JSON
through one splice into the rest of the document; these tests
hold that text to what ``csv.writer`` and ``json.dumps(indent=2)`` write
for the same rows, on random finite floats and on the floats whose text
is most irregular (signed zero, the smallest subnormal, exponents).
The last test holds every command's document to the output schemas, and
its rendered JSON to ``_json_text`` of that document.
"""

import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol.cli import (
    _REGION_LABELS,
    _document,
    _json_text,
    _sample_csv,
    _sample_json,
    _trajectory_csv,
    _trajectory_json,
    build_parser,
)

_floats = st.floats(allow_nan=False, allow_infinity=False)
_rows = st.lists(st.lists(_floats, min_size=3, max_size=3), min_size=1, max_size=40)

EDGES = [-0.0, 5e-324, 1e-300, 1e-05, 1e16, 1.7976931348623157e308]
EDGE_ROWS = [EDGES[:3], EDGES[3:], [-EDGES[1], -EDGES[4], -EDGES[5]]]


def _stdlib_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(rows=_rows)
@example(rows=EDGE_ROWS)
@example(rows=[EDGES[:3]])
@example(rows=[EDGES[3:]])
def test_sample_csv_matches_csv_writer(rows):
    doc = _document("sample", {}, {"rows": rows, "method": "mc-hs"})
    assert _sample_csv(doc) == _stdlib_csv(["l1", "l2", "l3"], rows)


@settings(max_examples=200, deadline=None)
@given(
    rows=_rows,
    region=st.sampled_from(["CPT", "EBC,TLG", "PT,CPT,EBC,TLG,PDIV,CPDIV"]),
    seed=st.integers(0, 2**64 - 1),
)
@example(rows=EDGE_ROWS, region="CPT", seed=0)
@example(rows=[EDGES[:3]], region="CPT", seed=0)
@example(rows=[EDGES[3:]], region="EBC,TLG", seed=2**64 - 1)
def test_sample_json_matches_json_dumps(rows, region, seed):
    inputs = {"region": region, "samples": len(rows), "seed": seed, "chunk_size": 65536}
    doc = _document("sample", inputs, {"rows": rows, "method": "mc-hs"})
    assert _sample_json(doc) == json.dumps(doc, indent=2) + "\n"


_points = st.lists(
    st.tuples(_floats, _floats, _floats, _floats, st.lists(st.booleans(), min_size=6, max_size=6)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(points=_points)
@example(points=[(0.0, *EDGES[:3], [True] * 6)])
@example(points=[(EDGES[3], *EDGES[3:], [False] * 6), (-0.0, *EDGE_ROWS[2], [True, False] * 3)])
def test_evolve_csv_matches_csv_writer(points):
    rows = [
        [t, l1, l2, l3, *("true" if f else "false" for f in flags)]
        for t, l1, l2, l3, flags in points
    ]
    doc = _trajectory_doc(points, at=None, steps=len(points))
    assert _trajectory_csv(doc) == _stdlib_csv(["t", "l1", "l2", "l3", *_REGION_LABELS], rows)


def _trajectory_doc(points, at, steps):
    """The evolve document of ``points``; ``at`` is the --t time, or None for --steps."""
    trajectory = [
        {"t": t, "eigenvalues": [l1, l2, l3], "regions": dict(zip(_REGION_LABELS, flags))}
        for t, l1, l2, l3, flags in points
    ]
    inputs = {"schedule": "schedule.json", "t": at, "steps": steps}
    return _document("evolve", inputs, {"trajectory": trajectory})


@settings(max_examples=200, deadline=None)
@given(points=_points, schedule=st.text(max_size=20))
@example(points=[(0.0, *EDGES[:3], [True] * 6)], schedule="schedule.json")
@example(points=[(-0.0, *EDGE_ROWS[2], [True, False] * 3)], schedule='"trajectory": []')
@example(points=[(EDGES[3], *EDGES[3:], [False] * 6), (0.0, *EDGE_ROWS[0], [False, True] * 3)],
         schedule="s")
def test_evolve_trajectory_json_matches_json_dumps(points, schedule):
    doc = _trajectory_doc(points, at=None, steps=len(points))
    doc["inputs"]["schedule"] = schedule
    assert _trajectory_json(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(point=_points.map(lambda points: points[0]))
@example(point=(0.0, *EDGES[:3], [True] * 6))
@example(point=(EDGES[5], *EDGES[3:], [False] * 6))
def test_evolve_single_point_json_matches_json_dumps(point):
    # the --t document: one point, with t in the inputs and no steps
    doc = _trajectory_doc([point], at=point[0], steps=None)
    assert _trajectory_json(doc) == json.dumps(doc, indent=2) + "\n"


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
    jsonschema.validate(json.loads(_json_text(doc)), schema)
    text = args.render[fmt](doc)
    assert text.endswith("\n")
    if fmt == "json":
        json.loads(text, parse_constant=_no_constant)
        assert text == _json_text(doc)
