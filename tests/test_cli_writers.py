"""The row writers of ``sample`` and ``evolve`` against the stdlib writers.

Both commands write their rows with their own formatting; these tests
hold that text to what ``csv.writer`` and ``json.dumps(indent=2)`` write
for the same rows, on random finite floats and on the floats whose text
is most irregular (signed zero, the smallest subnormal, exponents).
"""

import csv
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import EigenvalueTriple
from paulivol.cli import _REGION_LABELS, _document, _evolve_csv, _sample_csv, _sample_json

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
    assert _sample_csv(rows) == _stdlib_csv(["l1", "l2", "l3"], rows)


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
    assert _sample_json(inputs, rows) == json.dumps(doc, indent=2) + "\n"


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
    triples = [
        (t, EigenvalueTriple(l1, l2, l3), dict(zip(_REGION_LABELS, flags)))
        for t, l1, l2, l3, flags in points
    ]
    rows = [
        [t, l1, l2, l3, *("true" if f else "false" for f in flags)]
        for t, l1, l2, l3, flags in points
    ]
    assert _evolve_csv(triples) == _stdlib_csv(["t", "l1", "l2", "l3", *_REGION_LABELS], rows)
