"""README's examples run as written.

The "Library quickstart" block runs in this process.  Each ``paulivol``
line of the CLI block runs through ``cli.main`` in a directory that holds
the one-segment ``sched.json`` it reads.  Every run exits 0, and where a
line's comment names its output, that output is checked.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from paulivol import EigenvalueTriple, RegionExpr, cli, contains

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, language):
    """The first ``language`` code block of the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("paulivol ")]


def _all_reference_rows(out):
    quantities = [row.split()[0] for row in out.splitlines()[1:]]
    return quantities == [q for q, *_ in cli._VOLUME_ROWS] + [
        cli._RATIO_ROWS[0][0], "memory-kernel-only", *(q for q, *_ in cli._RATIO_ROWS[1:])]


def _uniform_channel_draws(out):
    header, *rows = out.splitlines()
    cpt = RegionExpr.parse("CPT")
    return (header == "l1,l2,l3" and len(rows) == 100 and all(
        contains(cpt, EigenvalueTriple(*map(float, row.split(",")))) for row in rows))


# What the comment on a line of the CLI block says the line prints.
_CHECKS = {
    "exact, prints 1/3": lambda out: "volume: 1/3 (" in out,
    "Fisher-Rao": lambda out: "method: mc-fr\n" in out,
    "all reference rows": _all_reference_rows,
    "exact rational mesh JSON": lambda out: json.loads(out)["region"] == "CPT,EBC",
    "uniform draws, CSV": _uniform_channel_draws,
}


def test_the_library_quickstart_runs(capsys):
    exec(compile(_block("Library quickstart", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert " +- " in out and "CP-divisible fraction of channels: 0.3" in out


def test_every_cli_line_is_collected():
    assert len(_LINES) == 9


@pytest.mark.parametrize("line", _LINES, ids=[line.split("#")[0].strip() for line in _LINES])
def test_the_cli_line_runs(line, tmp_path, monkeypatch):
    command, _, comment = line.partition("#")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sched.json").write_text('[{"duration": 0.5, "rates": [1.0, 0.0, 0.3]}]')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command)[1:])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()
    if comment.strip():
        assert _CHECKS[comment.strip()](out.getvalue())
