"""Start-up cost: each step loads only the modules it runs, and no numpy.

``import paulivol`` loads no submodule: the package binds its public names
on the first read of one.  The CLI imports ``regions``, which parses every
command's region or classifies its triple, and each command imports the
rest of what it runs: ``channel`` only where a triple is built, the
``json`` and ``csv`` writers only where a format writes them (and ``json``
where a schedule file is read).  numpy is imported inside the functions
that build or read an array, so ``import paulivol``, ``import
paulivol.cli``, every command that only does exact arithmetic,
``classify`` and ``evolve --t`` start without it.  The Monte Carlo
counting passes run on plain ``threading`` threads, so no step loads
``concurrent.futures`` or the ``logging`` it imports.  Every value type
outside ``mc_volume`` is a frozen value on ``regions._Frozen``, not a
dataclass, so only the steps that load ``mc_volume``, whose sampler config
and estimate are dataclasses, load ``dataclasses``.  The others, ``classify``
and ``evolve`` included, load neither it nor the ``inspect`` it imports,
unless they import numpy, which imports ``inspect`` itself.
pytest's own process already has numpy and the package loaded, so each
step runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One step in a fresh interpreter: argv[1] is "import paulivol", "import
# paulivol.cli", or a CLI argv split at spaces, in which FILE stands for
# argv[2].  The script prints the step's exit code, stdout, the paulivol
# submodules it loaded, which of the json and csv writers it loaded (it
# imports json itself only after the step), whether numpy has been
# imported, which of concurrent.futures and logging have, and whether
# dataclasses and inspect have.
_SCRIPT = r"""
import contextlib, io, sys

step, path = sys.argv[1:]
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    if step.startswith("import "):
        __import__(step[len("import "):])
        code = 0
    else:
        from paulivol.cli import main
        try:
            code = main([path if a == "FILE" else a for a in step.split()])
        except SystemExit as exc:
            code = exc.code
writers = [m for m in ("json", "csv") if m in sys.modules]
import json
print(json.dumps({"exit": code, "stdout": out.getvalue(),
                  "modules": sorted(m[len("paulivol."):] for m in sys.modules
                                    if m.startswith("paulivol.")),
                  "writers": writers,
                  "numpy": "numpy" in sys.modules,
                  "futures": [m for m in ("concurrent.futures", "logging") if m in sys.modules],
                  "dataclasses": ["dataclasses" in sys.modules, "inspect" in sys.modules]}))
"""

_CLI = ["cli", "regions"]
_CLASSIFY = sorted(_CLI + ["channel"])
_EXACT = sorted(_CLI + ["exact_volume"])
# dynamics builds triples, so it imports channel
_DYNAMICS = sorted(_CLI + ["channel", "dynamics"])
_SAMPLER = sorted(_CLI + ["mc_volume"])
_TABLE = sorted(_CLI + ["exact_volume", "mc_volume"])
# the steps that run a counting pass, on helper threads at the default chunk size
_COUNTING = {"volume --region CPT,TLG --method fr --samples 1000", "table --samples 1000"}
# the steps that load no mc_volume, whose value types are the package's only
# dataclasses; the others are regions._Frozen
_NO_DATACLASSES = {"import paulivol", "import paulivol.cli", "--version",
                   "classify 0.5 0.5 0.5", "classify 0.5 0.5 0.5 --format csv",
                   "volume --region PT,CPT,EBC,TLG,PDIV --format json",
                   "mesh --region PT,CPT,EBC,PDIV", "volume --region TLG",
                   "volume --region CPDIV", "evolve --schedule FILE --t 0.5",
                   "evolve --target 0.5 0.5 0.5 --t-star 1",
                   "evolve --schedule FILE --steps 3"}

# step -> (exit code, paulivol submodules loaded, json and csv writers loaded,
# numpy loaded)
_STEPS = {
    "import paulivol": (0, [], [], False),
    "import paulivol.cli": (0, _CLI, [], False),
    "--version": (0, _CLI, [], False),
    "classify 0.5 0.5 0.5": (0, _CLASSIFY, [], False),
    "classify 0.5 0.5 0.5 --format csv": (0, _CLASSIFY, ["csv"], False),
    "volume --region PT,CPT,EBC,TLG,PDIV --format json": (0, _EXACT, ["json"], False),
    "mesh --region PT,CPT,EBC,PDIV": (0, _EXACT, ["json"], False),
    # an unsupported region is an error line, and writes no document
    "volume --region TLG": (1, _EXACT, [], False),
    "volume --region CPDIV": (1, _EXACT, [], False),
    "volume --region PT --method fr": (1, _SAMPLER, [], False),
    # the schedule file is JSON
    "evolve --schedule FILE --t 0.5": (0, _DYNAMICS, ["json"], False),
    "evolve --target 0.5 0.5 0.5 --t-star 1": (0, _DYNAMICS, [], False),
    # a trajectory is evaluated as arrays, and imports numpy to do it
    "evolve --schedule FILE --steps 3": (0, _DYNAMICS, ["json"], True),
    "volume --region CPT,TLG --method fr --samples 1000": (0, _SAMPLER, [], True),
    "table --samples 1000": (0, _TABLE, [], True),
    # sample writes its csv rows itself
    "sample --region CPT -n 3": (0, _SAMPLER, [], True),
}

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


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    schedule = tmp_path_factory.mktemp("startup") / "schedule.json"
    schedule.write_text(json.dumps([{"duration": 1.0, "rates": [0.2, 0.2, 0.2]}]))
    return {name: _fresh(_SCRIPT, name, str(schedule)) for name in _STEPS}


def _fresh(script, *argv):
    """The JSON that ``script`` prints when run with ``argv`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def test_each_step_loads_only_the_modules_it_runs(report):
    for name, expected in _STEPS.items():
        step = report[name]
        assert (step["exit"], step["modules"], step["writers"], step["numpy"]) == expected, name


def test_no_step_loads_concurrent_futures_or_logging(report):
    assert _COUNTING <= set(report)
    for name, step in report.items():
        assert step["futures"] == [], name


def test_only_a_step_that_builds_a_dataclass_loads_dataclasses_and_inspect(report):
    assert _NO_DATACLASSES < set(report)
    for name, step in report.items():
        dataclasses, inspect = step["dataclasses"]
        assert dataclasses is (name not in _NO_DATACLASSES), name
        # numpy imports inspect itself
        assert inspect is (dataclasses or step["numpy"]), name


def test_the_lazily_loaded_commands_print_the_same_text(report):
    assert report["classify 0.5 0.5 0.5"]["stdout"] == _CLASSIFY_TEXT
    assert report["evolve --schedule FILE --t 0.5"]["stdout"] == _EVOLVE_TEXT


def _module_level_imports(path):
    """The top-level package of each module ``path`` imports at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from (n.split(".")[0] for n in names)


def test_no_module_imports_numpy_at_module_level():
    for path in sorted((SRC / "paulivol").glob("*.py")):
        assert "numpy" not in set(_module_level_imports(path)), path.name


# mc_volume's SamplerConfig and VolumeEstimate are the package's only dataclasses
@pytest.mark.parametrize("name", sorted(path.name for path in (SRC / "paulivol").glob("*.py")
                                        if path.name != "mc_volume.py"))
def test_the_exact_path_imports_no_dataclasses_at_module_level(name):
    assert "dataclasses" not in set(_module_level_imports(SRC / "paulivol" / name))


# The package's __all__, in order: __version__, then each module's list in
# the order channel, regions, exact_volume, mc_volume, dynamics.
_ALL = [
    "__version__", "EigenvalueTriple", "ProbabilityVector", "ChoiMatrix", "p_to_lambda",
    "lambda_to_p", "choi_matrix", "choi_spectrum", "RegionId", "RegionExpr", "HalfSpace",
    "NonPolytopalRegionError", "is_positive", "is_cp", "is_ebc", "is_tlg", "is_p_divisible",
    "is_cp_divisible", "contains", "region_mask", "halfspace_description",
    "UnboundedPolytopeError", "Polytope", "enumerate_vertices", "build_polytope",
    "region_volume", "mesh_document", "SamplerConfig", "VolumeEstimate", "FR_TOTAL",
    "FisherRaoDomainError", "hs_volume_mc", "ratio_mc", "fr_volume_mc", "sample_region",
    "RateTriple", "RateSchedule", "TrajectoryPoint", "schedule_from_json", "integrate_rates",
    "evolve", "rates_for_target", "is_semigroup_reachable", "classify_trajectory",
]

# A fresh ``import paulivol``, then argv[1], the first read of the package
# namespace; the script prints what the namespace holds after it.
_NAMESPACE_SCRIPT = r"""
import json, sys
import paulivol

first = {
    "a name": lambda: paulivol.evolve,
    "a module": lambda: paulivol.mc_volume,
    "__all__": lambda: paulivol.__all__,
    "import *": lambda: exec("from paulivol import *", {}),
    "dir": lambda: dir(paulivol),
    "an unknown name": lambda: hasattr(paulivol, "nope"),
}[sys.argv[1]]
held = set(vars(paulivol))
first()
bound = [name for name in paulivol.__all__ if name not in vars(paulivol)]
star = {}
exec("from paulivol import *", star)
modules = ("channel", "regions", "exact_volume", "mc_volume", "dynamics")
try:
    paulivol.nope
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "held": sorted(held),
    "unbound": bound,
    "all": paulivol.__all__,
    "dir": dir(paulivol),
    "star": sorted(set(star) - {"__builtins__"}),
    "other": [f"{m}.{n}" for m in modules for n in getattr(paulivol, m).__all__
              if getattr(paulivol, n) is not getattr(getattr(paulivol, m), n)],
    "hasattr": hasattr(paulivol, "nope"),
    "error": error,
}))
"""


@pytest.mark.parametrize("first", ["a name", "a module", "__all__", "import *", "dir",
                                   "an unknown name"])
def test_the_first_read_binds_every_public_name_once(first):
    ns = _fresh(_NAMESPACE_SCRIPT, first)
    # before it the package holds __version__, and no other public name or module
    modules = {"channel", "regions", "exact_volume", "mc_volume", "dynamics"}
    assert "__version__" in ns["held"]
    assert not set(ns["held"]) & {*_ALL[1:], "__all__", *modules}
    assert ns["unbound"] == []
    assert ns["all"] == _ALL
    assert set(_ALL) <= set(ns["dir"]) and ns["dir"] == sorted(ns["dir"])
    assert ns["star"] == sorted(_ALL)
    assert ns["other"] == []
    assert ns["hasattr"] is False
    assert ns["error"] == "module 'paulivol' has no attribute 'nope'"
