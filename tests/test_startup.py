"""Start-up cost: importing paulivol and the per-triple commands load no numpy.

numpy is imported inside the functions that build or read an array, so
``import paulivol``, ``import paulivol.cli``, every command that only does
exact arithmetic, ``classify`` and ``evolve --t`` start without it.  The
thread pool of the Monte Carlo counting passes is imported the same way,
so none of these steps, nor ``evolve --steps``, loads concurrent.futures.
pytest's own process already has numpy loaded, so the check runs in a
fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Each step runs in the same fresh interpreter, in order; after each one
# the script records its exit code and whether numpy and the thread pool
# of the counting passes (concurrent.futures) have been imported.
_SCRIPT = r"""
import contextlib, io, json, sys

report = []

def step(name, fn):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fn()
        except SystemExit as exc:
            code = exc.code
    report.append({"step": name, "exit": code, "numpy": "numpy" in sys.modules,
                   "futures": "concurrent.futures" in sys.modules, "stdout": out.getvalue()})

step("import paulivol", lambda: __import__("paulivol") and 0)
step("import paulivol.cli", lambda: __import__("paulivol.cli") and 0)
from paulivol.cli import main
for argv in (
    ["--version"],
    ["volume", "--region", "PT,CPT,EBC,TLG,PDIV", "--format", "json"],
    ["mesh", "--region", "PT,CPT,EBC,PDIV"],
    ["volume", "--region", "TLG"],
    ["volume", "--region", "CPDIV"],
    ["classify", "0.5", "0.5", "0.5"],
    ["evolve", "--schedule", "FILE", "--t", "0.5"],
    ["evolve", "--schedule", "FILE", "--steps", "3"],
):
    step(" ".join(argv), lambda: main([sys.argv[1] if a == "FILE" else a for a in argv]))
print(json.dumps(report))
"""

_CLASSIFY_TEXT = """\
lambda = (0.5, 0.5, 0.5)
p = (0.625, 0.125, 0.125, 0.125)
choi spectrum = (0.625, 0.125, 0.125, 0.125)
PT: true
CPT: true
EBC: false
TLG: true
PDIV: true
CPDIV: true
"""


_EVOLVE_TEXT = "t=0.5 lambda=(0.818731, 0.818731, 0.818731) in [PT,CPT,TLG,PDIV,CPDIV]\n"


def test_exact_commands_start_without_numpy(tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([{"duration": 1.0, "rates": [0.2, 0.2, 0.2]}]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(schedule)], capture_output=True,
                          text=True, env=env, check=True)
    report = {r["step"]: r for r in json.loads(proc.stdout)}
    expected = {
        "import paulivol": 0,
        "import paulivol.cli": 0,
        "--version": 0,
        "volume --region PT,CPT,EBC,TLG,PDIV --format json": 0,
        "mesh --region PT,CPT,EBC,PDIV": 0,
        "volume --region TLG": 1,
        "volume --region CPDIV": 1,
        "classify 0.5 0.5 0.5": 0,
        "evolve --schedule FILE --t 0.5": 0,
    }
    for name, code in expected.items():
        assert (report[name]["exit"], report[name]["numpy"]) == (code, False), name
    for name, step in report.items():
        assert not step["futures"], name
    assert report["classify 0.5 0.5 0.5"]["stdout"] == _CLASSIFY_TEXT
    assert report["evolve --schedule FILE --t 0.5"]["stdout"] == _EVOLVE_TEXT
    # a trajectory is evaluated as arrays, and imports numpy to do it
    trajectory = report["evolve --schedule FILE --steps 3"]
    assert (trajectory["exit"], trajectory["numpy"]) == (0, True)


def test_no_module_imports_numpy_at_module_level():
    for path in sorted((SRC / "paulivol").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name
