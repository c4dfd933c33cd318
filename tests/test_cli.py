import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulivol import FR_TOTAL, RegionExpr, contains, EigenvalueTriple
from paulivol import mc_volume
from paulivol.cli import main
from paulivol.dynamics import MAX_STEPS
from paulivol.mc_volume import MAX_SAMPLE_ROWS, MAX_SAMPLES

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "paulivol" / "schemas"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "paulivol", *args],
        capture_output=True,
        text=True,
    )


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "paulivol" in proc.stdout


def test_classify_json():
    proc = run_cli("classify", "0.5", "0.5", "0.5", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    assert doc["command"] == "classify"
    regions = doc["results"]["regions"]
    assert regions == {
        "PT": True,
        "CPT": True,
        "EBC": False,
        "TLG": True,
        "PDIV": True,
        "CPDIV": True,
    }
    assert math.fsum(doc["results"]["p"]) == pytest.approx(1.0, abs=1e-12)
    assert min(doc["results"]["choi_spectrum"]) >= 0.0


def test_classify_text():
    proc = run_cli("classify", "0.5", "0.5", "0.5")
    assert proc.returncode == 0
    assert "CPT: true" in proc.stdout
    assert "EBC: false" in proc.stdout


def test_classify_csv():
    proc = run_cli("classify", "1", "0", "0", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["quantity", "value"]
    record = {row[0]: row[1:] for row in rows[1:]}
    assert record["EBC"] == ["true"]


def test_volume_exact_json():
    proc = run_cli("volume", "--region", "CPT", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    assert doc["results"]["method"] == "exact"
    assert doc["results"]["value"] == [1, 3]


def test_volume_exact_text():
    proc = run_cli("volume", "--region", "CPT")
    assert proc.returncode == 0
    assert "1/3" in proc.stdout
    assert "0.3333" in proc.stdout


def test_volume_mc_deterministic():
    args = (
        "volume", "--region", "CPT", "--method", "mc",
        "--samples", "20000", "--seed", "7", "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["results"]["samples"] == 20000
    err = doc["results"]["std_error"]
    assert abs(doc["results"]["value"] - 1 / 3) < 4 * err


def test_volume_fr_full_region():
    proc = run_cli(
        "volume", "--region", "CPT", "--method", "fr",
        "--samples", "1000", "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["method"] == "mc-fr"
    assert doc["results"]["value"] == FR_TOTAL


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "vol.json"
    proc = run_cli("volume", "--region", "PT", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["results"]["value"] == [1, 1]


def test_out_into_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _main(["classify", "0.1", "0.1", "0.1", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1
    assert not target.exists()


def test_mesh_document():
    proc = run_cli("mesh", "--region", "CPT,EBC", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("mesh.schema.json"))
    assert doc["region"] == "CPT,EBC"
    assert len(doc["pieces"][0]["vertices"]) == 6


def test_mesh_writes_json_only(capsys):
    assert main(["mesh", "--region", "CPT"]) == 0
    default = capsys.readouterr().out
    assert main(["mesh", "--region", "CPT", "--format", "json"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["region"] == "CPT"
    for fmt in ("csv", "text"):
        with pytest.raises(SystemExit) as info:
            main(["mesh", "--region", "CPT", "--format", fmt])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert "argument --format: invalid choice" in err


def test_sample_csv_members_and_determinism():
    args = ("sample", "--region", "CPT", "-n", "3", "--seed", "5")
    first = run_cli(*args)
    assert first.returncode == 0
    rows = list(csv.reader(io.StringIO(first.stdout)))
    assert rows[0] == ["l1", "l2", "l3"]
    assert len(rows) == 4
    expr = RegionExpr.parse("CPT")
    for row in rows[1:]:
        lam = EigenvalueTriple(*(float(x) for x in row))
        assert contains(expr, lam)
    assert run_cli(*args).stdout == first.stdout


def test_sample_writes_csv_by_default_and_rejects_text(capsys):
    args = ["sample", "--region", "CPT", "-n", "3", "--seed", "5"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main([*args, "--format", "csv"]) == 0
    assert capsys.readouterr().out == default
    with pytest.raises(SystemExit) as info:
        main([*args, "--format", "text"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert "argument --format: invalid choice" in err


def test_sample_json():
    proc = run_cli(
        "sample", "--region", "CPT,EBC", "-n", "4", "--seed", "1",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    assert len(doc["results"]["rows"]) == 4


def test_evolve_target_with_a_negative_rate():
    # this triple needs a transiently negative rate, yet the constant
    # schedule still lands on it exactly
    proc = run_cli(
        "evolve", "--target", "0.9", "0.8", "0.95", "--t-star", "2.0",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    assert doc["results"]["max_error"] < 1e-12
    assert doc["results"]["semigroup_reachable"] is False
    assert min(doc["results"]["rates"]) < 0
    reached = doc["results"]["reached"]
    assert reached == pytest.approx([0.9, 0.8, 0.95], abs=1e-12)


def test_evolve_target_semigroup_reachable():
    proc = run_cli(
        "evolve", "--target", "0.9", "0.85", "0.8", "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["semigroup_reachable"] is True
    assert min(doc["results"]["rates"]) >= 0


def _write_schedule(tmp_path, segments):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(segments))
    return str(path)


def test_evolve_single_time(tmp_path):
    path = _write_schedule(
        tmp_path, [{"duration": 1.0, "rates": [1.0, 1.0, 1.0]}]
    )
    proc = run_cli("evolve", "--schedule", path, "--t", "1.0", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    (point,) = doc["results"]["trajectory"]
    assert point["eigenvalues"] == pytest.approx([math.exp(-2.0)] * 3, rel=1e-14)
    assert point["regions"]["CPT"] is True


def test_evolve_trajectory_csv(tmp_path):
    path = _write_schedule(
        tmp_path, [{"duration": 2.0, "rates": [0.0, 0.0, 0.5]}]
    )
    proc = run_cli("evolve", "--schedule", path, "--steps", "5", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["t", "l1", "l2", "l3", "PT", "CPT", "EBC", "TLG", "PDIV", "CPDIV"]
    assert len(rows) == 6
    assert float(rows[-1][0]) == 2.0
    assert all(row[3] == "1.0" for row in rows[1:])


def test_exit_codes_unsupported_combinations():
    assert run_cli("volume", "--region", "CPT,CPDIV").returncode == 1
    assert run_cli("volume", "--region", "TLG").returncode == 1
    assert run_cli("volume", "--region", "PT", "--method", "fr").returncode == 1
    assert run_cli("mesh", "--region", "CPDIV").returncode == 1


def test_exit_codes_malformed_input(tmp_path):
    assert run_cli("classify", "0.5", "abc", "0.5").returncode == 2
    assert run_cli("volume", "--region", "CPT,BOGUS").returncode == 2
    assert run_cli("volume", "--region", "CPT", "--method", "bogus").returncode == 2
    assert run_cli("evolve", "--t", "1.0").returncode == 2
    missing = str(tmp_path / "nope.json")
    assert run_cli("evolve", "--schedule", missing, "--t", "1.0").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"duration": 1.0}))
    assert run_cli("evolve", "--schedule", str(bad), "--t", "1.0").returncode == 2


def test_error_messages_go_to_stderr():
    proc = run_cli("volume", "--region", "TLG")
    assert proc.stdout == ""
    assert "error:" in proc.stderr


_TABLE_ARGS = ("table", "--samples", "100000", "--seed", "42")


def test_table_golden_csv():
    proc = run_cli(*_TABLE_ARGS, "--format", "csv")
    assert proc.returncode == 0
    got = list(csv.reader(io.StringIO(proc.stdout)))
    golden = list(
        csv.reader(io.StringIO((Path(__file__).parent / "data" / "table_golden.csv").read_text()))
    )
    assert got[0] == ["quantity", "reference", "exact", "mc", "mc_stderr"]
    assert len(got) == len(golden) == 12
    # the deterministic columns must match the golden file byte for byte
    assert [row[:3] for row in got] == [row[:3] for row in golden]
    # Monte Carlo columns are pinned only statistically, so a numpy
    # upgrade that reshuffles the stream does not break the test
    for row in got[1:]:
        reference = float(Fraction(row[1]))
        mc = float(row[3])
        stderr = float(row[4])
        if stderr == 0.0:
            assert mc == reference
        else:
            assert abs(mc - reference) < 5 * stderr, row[0]


def test_table_exact_column_matches_reference():
    proc = run_cli(*_TABLE_ARGS, "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    for quantity, reference, exact, _mc, _stderr in rows:
        if exact:
            assert Fraction(exact) == Fraction(reference), quantity
        else:
            assert "CPDIV" in quantity
    assert sum(1 for row in rows if not row[2]) == 2


def test_table_json():
    proc = run_cli(*_TABLE_ARGS, "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, _schema("output.schema.json"))
    rows = doc["results"]["rows"]
    assert len(rows) == 11
    quantities = [row["quantity"] for row in rows]
    assert "memory-kernel-only" in quantities
    by_name = {row["quantity"]: row for row in rows}
    assert by_name["V(CPT)"]["reference"] == [1, 3]
    assert by_name["V(CPT,CPDIV)/V(CPT)"]["exact"] is None


def test_table_text_aligned():
    proc = run_cli("table", "--samples", "2000", "--seed", "0")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("quantity")
    assert "13/16" in proc.stdout


# --- schedule documents at the input boundary, in process --------------------


def _main(argv):
    """Run cli.main in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "segment, message",
    [
        ({"duration": 1, "rates": ["1", 0, 0]}, "rate must be a number"),
        ({"duration": True, "rates": [1, 0, 0]}, "duration must be a number"),
        ({"duration": 1, "rates": [-1000, -1000, -1000]}, "eigenvalues overflow"),
        ({"duration": 1, "rates": [math.inf, 0, 0]}, "must be finite"),
        ({"duration": math.nan, "rates": [1, 0, 0]}, "must be positive"),
        ([{"duration": 1e308, "rates": [1, 0, 0]}] * 2, "durations sum past the largest float"),
    ],
)
@pytest.mark.parametrize("when", [("--t", "1.0"), ("--steps", "11")])
def test_evolve_rejects_bad_schedule_with_exit_2(tmp_path, segment, message, when):
    # a list stands for a whole schedule, a dict for its one segment
    path = _write_schedule(tmp_path, segment if isinstance(segment, list) else [segment])
    code, out, err = _main(["evolve", "--schedule", path, *when])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_evolve_last_step_ends_on_the_schedule(tmp_path):
    path = _write_schedule(tmp_path, [{"duration": 0.1, "rates": [1, 1, 1]}])
    code, out, err = _main(["evolve", "--schedule", path, "--steps", "4", "--format", "csv"])
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows[1:]] == ["0.0", "0.03333333333333333", "0.06666666666666667", "0.1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--region", "CPT", "-n", "5", "--chunk-size", "10000000000000"],
        ["volume", "--region", "CPT", "--method", "mc",
         "--samples", "10000000000000", "--chunk-size", "10000000000000"],
    ],
)
def test_chunk_size_above_the_cap_exits_2_before_drawing(argv):
    code, out, err = _main(argv)
    assert (code, out) == (2, "")
    assert err == "error: chunk_size must be <= 4194304, got 10000000000000\n"


def _no_draws(*args):
    raise AssertionError("a chunk generator was seeded")


@settings(max_examples=100, deadline=None)
@given(n=st.integers(MAX_SAMPLE_ROWS + 1, 10**30))
def test_sample_above_the_caps_exits_2_before_drawing(n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc_volume, "_chunk_rng", _no_draws)
        code, out, err = _main(["sample", "--region", "EBC", "-n", str(n)])
    assert (code, out) == (2, "")
    if n > MAX_SAMPLES:
        assert err == f"error: samples must be <= 10000000000, got {n}\n"
    else:
        assert err == f"error: sample holds every row: samples must be <= 2000000, got {n}\n"


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(MAX_SAMPLES + 1, 10**30),
    command=st.sampled_from([["table"], ["volume", "--region", "CPT", "--method", "mc"],
                             ["volume", "--region", "CPT", "--method", "fr"]]),
)
def test_volume_and_table_above_the_sample_cap_exit_2_before_drawing(n, command):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc_volume, "_chunk_rng", _no_draws)
        code, out, err = _main([*command, "--samples", str(n)])
    assert (code, out, err) == (2, "", f"error: samples must be <= 10000000000, got {n}\n")


def test_sample_exits_2_when_rejection_gives_up(monkeypatch):
    # no real conjunction rejects every proposal, so a mask stands in for one
    monkeypatch.setattr(mc_volume, "region_mask", lambda expr, lam: np.zeros(len(lam), bool))
    code, out, err = _main(["sample", "--region", "CPT,EBC", "-n", "2", "--seed", "3"])
    assert (code, out) == (2, "")
    assert err == ("warning: acceptance rate 0/16384 below 0.0001 while sampling CPT,EBC\n"
                   "error: rejection sampling of CPT,EBC accepted 0 of 20000 proposals,"
                   " fewer than the 2 rows asked for\n")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_table_json_writes_null_for_an_undefined_estimate():
    # one sample hits neither CPT nor CPT,TLG: every ratio and the complement are undefined
    code, out, err = _main(["table", "--samples", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out, parse_constant=_no_constant)
    jsonschema.validate(doc, _schema("output.schema.json"))
    rows = doc["results"]["rows"]
    undefined = [row["quantity"] for row in rows if row["mc"] is None]
    assert undefined == [row["quantity"] for row in rows if row["mc_stderr"] is None]
    assert len(undefined) == 7 and "memory-kernel-only" in undefined
    assert err == ("warning: no sample hit the denominator region CPT; ratio undefined\n"
                   "warning: no sample hit the denominator region CPT,TLG; ratio undefined\n")
    for fmt in ("csv", "text"):  # these keep nan
        assert _main(["table", "--samples", "1", "--format", fmt])[1].count("nan") == 14


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False), slot=st.integers(0, 2))
def test_every_finite_float_literal_is_a_number_to_argparse(x, slot):
    # argparse alone reads -1e-3 as an option, and then lacks a positional
    triple = ["0.5", "0.25", "0.125"]
    triple[slot] = repr(x)
    for argv in (["classify", *triple], ["evolve", "--target", *triple]):
        code, out, err = _main(argv)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.startswith("error: ") and "usage:" not in err, err


@pytest.mark.parametrize("t_star, message", [
    ("inf", "error: t_star must be positive and finite, got inf\n"),
    ("1e-320", "error: t_star=1e-320 is too small: the rates overflow\n"),
])
def test_evolve_target_rejects_a_bad_t_star_with_exit_2(t_star, message):
    code, out, err = _main(["evolve", "--target", ".5", ".5", ".5", "--t-star", t_star])
    assert (code, out, err) == (2, "", message)


def _no_arange(*args):
    raise AssertionError("the trajectory times were allocated")


@settings(max_examples=50, deadline=None)
@given(n=st.integers(MAX_STEPS + 1, 10**30), fmt=st.sampled_from(["json", "csv", "text"]))
def test_evolve_steps_above_the_cap_exit_2_before_allocating(tmp_path_factory, n, fmt):
    path = tmp_path_factory.getbasetemp() / "capped-schedule.json"
    path.write_text('[{"duration": 1.0, "rates": [0.1, 0.2, 0.3]}]')
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "arange", _no_arange)
        code, out, err = _main(["evolve", "--schedule", str(path), "--steps", str(n),
                                "--format", fmt])
    assert (code, out, err) == (2, "", f"error: steps must be <= {MAX_STEPS}, got {n}\n")


def test_evolve_rejects_deeply_nested_schedule_with_exit_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _main(["evolve", "--schedule", str(path), "--t", "1.0"])
    assert (code, out) == (2, "")
    assert err == "error: schedule JSON is nested too deeply\n"


@pytest.mark.parametrize("text, message", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('[{"duration": 1.0,}]', "Expecting property name enclosed in double quotes: line 1"
                             " column 19 (char 18)"),
], ids=["empty", "trailing comma"])
def test_evolve_rejects_a_schedule_that_is_not_json_with_exit_2(tmp_path, text, message):
    path = tmp_path / "schedule.json"
    path.write_text(text)
    code, out, err = _main(["evolve", "--schedule", str(path), "--t", "1.0"])
    assert (code, out) == (2, "")
    assert err == f"error: schedule file is not valid JSON: {message}\n"


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=3)
)
_json = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_segment = st.fixed_dictionaries({
    "duration": st.floats(0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10),
    "rates": st.lists(st.floats(-50.0, 50.0) | st.integers(-2000, 2000), min_size=3, max_size=3),
})


@st.composite
def _schedule(draw):
    """A well-formed schedule (its rates can drive exp out of float range),
    left as it is or with one number, one segment or the whole document
    replaced by arbitrary JSON."""
    doc = draw(st.lists(_segment, min_size=1, max_size=3))
    seg = doc[draw(st.integers(0, len(doc) - 1))]
    damage = draw(st.sampled_from(["none", "duration", "rate", "rates", "segment", "document"]))
    if damage == "duration":
        seg["duration"] = draw(_json_scalars)
    elif damage == "rate":
        seg["rates"][draw(st.integers(0, 2))] = draw(_json_scalars)
    elif damage == "rates":
        seg["rates"] = draw(_json)
    elif damage == "segment":
        doc[0] = draw(_json)
    elif damage == "document":
        doc = draw(_json)
    return doc


@settings(max_examples=150, deadline=None)
@given(
    doc=_schedule(),
    when=st.one_of(
        (st.floats(0.0, 20.0) | st.floats()).map(lambda t: (f"--t={t!r}",)),
        st.integers(-1, 30).map(lambda n: ("--steps", str(n))),
    ),
    fmt=st.sampled_from(["json", "csv", "text"]),
)
# durations that sum, or step times that run, past the largest float
@example(doc=[{"duration": 1e308, "rates": [1, 0, 0]}] * 2, when=("--steps", "3"), fmt="json")
@example(doc=[{"duration": 1e308, "rates": [1, 0, 0]}], when=("--steps", "50"), fmt="json")
def test_evolve_fuzzed_schedules_exit_0_or_2(tmp_path_factory, doc, when, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzzed-schedule.json"
    path.write_text(json.dumps(doc))
    code, out, err = _main(["evolve", "--schedule", str(path), *when, "--format", fmt])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out
        if fmt == "json":
            written = json.loads(out, parse_constant=_no_constant)
            jsonschema.validate(written, _schema("output.schema.json"))
    else:
        assert out == "" and err


# --- random argvs for every subcommand, in process ----------------------------


def _tokens(*choices):
    return st.sampled_from(choices).map(lambda token: [token])


def _mostly(valid, *invalid):
    """Tokens from ``valid``, or about one time in eight one of ``invalid``."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else _tokens(*invalid))


def _counts(top):
    """Counts small enough to keep every run short, or text a count cannot be."""
    return _mostly(st.integers(1, top).map(lambda n: [str(n)]), "0", "-2", "x", "1e3", "")


_number = _mostly(st.floats(-2.0, 2.0).map(lambda x: [repr(x)]) | _tokens("0", "-1e-3", "3"),
                  "1e400", "nan", "-inf", "x", "")
# times, arrival times and targets the good schedule mostly accepts
_positive = _mostly(st.floats(0.0, 1.5, exclude_min=True).map(lambda x: [repr(x)]),
                    "0", "-1e-3", "2", "1e400", "nan", "x", "")
_region = _mostly(_tokens("PT", "CPT", "EBC", "TLG", "PDIV", "CPDIV", "EBC,TLG", "CPT,PDIV",
                          "PT,CPT,EBC,TLG,PDIV", "TLG,CPDIV"), "ebc", "CPT,,EBC", "XYZ", "")
_sampler = {"--seed": _mostly(_tokens("0", "7"), "-1", "x"),
            "--chunk-size": _mostly(_tokens("1", "7", "4096"), "0", "-3", "x")}
# Each subcommand's options and their values.  --region is always given, as
# is --samples: its default of 10**6 would make one example take 0.1 s.
_OPTIONS = {
    "classify": {},
    "volume": {"--samples": _counts(300), "--region": _region,
               "--method": _mostly(_tokens("exact", "mc", "fr"), "qmc"), **_sampler},
    "table": {"--samples": _counts(300), **_sampler},
    "mesh": {"--region": _region},
    "sample": {"--region": _region, "-n": _counts(12), **_sampler},
    "evolve": {"--schedule": _tokens("GOOD", "GOOD", "BAD", "MISSING"), "--t": _positive,
               "--steps": _counts(40), "--t-star": _positive,
               "--target": st.lists(_positive, min_size=3, max_size=3).map(lambda v: sum(v, []))},
}
_STDERR_LINE = re.compile(r"(?:error: |warning: |usage: |paulivol(?: \w+)?: error: | )")
_VALIDATORS = {
    name: jsonschema.validators.validator_for(schema)(schema)
    for name, schema in (("output", _schema("output.schema.json")),
                         ("mesh", _schema("mesh.schema.json")))
}


@st.composite
def _argvs(draw):
    """An argv of one subcommand: some of its options and a format, at times
    with a token dropped or a stray one added, or written to ``--out``.

    The files a schedule or ``--out`` names are placeholders: GOOD, BAD,
    MISSING and OUT.
    """
    command = draw(st.sampled_from(list(_OPTIONS)))
    argv = [command]
    if command == "classify":
        argv += sum(draw(st.lists(_number, min_size=3, max_size=3)), [])
    for option, values in _OPTIONS[command].items():
        if option in ("--samples", "--region") or draw(st.booleans()):
            argv += [option, *draw(values)]
    formats = ("json", "json", "csv", "text", "xml")
    argv += draw(st.sampled_from([[], *(["--format", f] for f in formats)]))
    damage = draw(st.sampled_from([None, None, None, None, "drop", "--bogus", "stray", "--out"]))
    if damage == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif damage == "--out":
        argv += ["--out", "OUT"]
    elif damage:
        argv.insert(draw(st.integers(1, len(argv))), damage)
    return argv


def _format_of(argv):
    formats = [value for option, value in zip(argv, argv[1:]) if option == "--format"]
    return formats[-1] if formats else ("json" if argv[0] == "mesh" else None)


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_random_argvs_keep_the_exit_code_contract(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp()
    files = {name: base / f"fuzz-{name.lower()}" for name in ("GOOD", "BAD", "MISSING", "OUT")}
    files["GOOD"].write_text('[{"duration": 1, "rates": [0.5, 0.2, 0.1]},'
                             ' {"duration": 0.5, "rates": [-0.2, 0.3, 0]}]')
    files["BAD"].write_text('[{"duration": 1')
    argv = [str(files[token]) if token in files else token for token in argv]
    code, out, err = _main(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in out + err
    for line in err.splitlines():
        assert _STDERR_LINE.match(line), line
    if code != 0:
        assert out == ""
    elif "--out" not in argv:
        assert out
        if _format_of(argv) == "json":
            doc = json.loads(out, parse_constant=_no_constant)
            _VALIDATORS["mesh" if argv[0] == "mesh" else "output"].validate(doc)
