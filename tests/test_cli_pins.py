"""Byte pins of the CLI outputs of ``evolve``, ``classify`` and ``volume``.

The digests are sha256 of stdout, taken before the trajectory was
evaluated as arrays and before the per-row value objects got their own
constructors; any change to a time, an eigenvalue, a region flag or the
formatting shows up here.  The ``volume`` pins cover all three formats of
every method, so a change to how the result is assembled shows up too.
The error pins fix the exit code and the ``error:`` line of inputs that
fail partway through.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from paulivol.cli import main


def _main(argv):
    """Run cli.main in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _seeded_schedule():
    """50 segments with rates in [-0.5, 2), so some rates are negative."""
    rng = random.Random(20191107)
    return [
        {"duration": rng.uniform(0.01, 0.1), "rates": [rng.uniform(-0.5, 2.0) for _ in range(3)]}
        for _ in range(50)
    ]


@pytest.fixture(scope="module")
def schedule_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins")
    (path / "schedule.json").write_text(json.dumps(_seeded_schedule()))
    return path


EVOLVE_PINS = [
    (("--steps", "10000", "--format", "csv"),
     "87094cef0f8fb6f5a48e488a1c5167db0be9e06758eda3e1708ae4976c094ff3"),
    (("--steps", "10000", "--format", "json"),
     "2f71ddf7f881d78c7440c9969836a108065c74371deab4e87c565d0c0b266c1f"),
    (("--steps", "10000", "--format", "text"),
     "8684a9c94fbe42924444dd6f1a401233255a41962a8334f1f106d0e4ca613e4d"),
    (("--steps", "1001", "--format", "csv"),
     "2d2360f0d80a0d0e02a3a578eaa626df9e25d25c9159f9f3732be5c99231c778"),
    (("--steps", "1001", "--format", "json"),
     "861b91ba5c71061922658f7e587c974727e96840f83f145f6384797775ffba94"),
    (("--steps", "1001", "--format", "text"),
     "3309dfd980d6f49bb6ff86bed14fd82e7bcb00bec7feae8a5827e9cc0d4c6eb9"),
    (("--t", "1.3", "--format", "csv"),
     "4a0c019e70d8a59f50c30eb10e40f94343408e0cdece947e096962ba89bceb7f"),
    (("--t", "1.3", "--format", "json"),
     "b175ee9e283388b94886b1b3b920298ea73cea079ea0c3f420195a38f9dd3200"),
    (("--t", "1.3", "--format", "text"),
     "82fd10af513d4875ef6288056d849d2342f5c75c5847d1c9e006488a2db08b00"),
]


@pytest.mark.parametrize("argv, digest", EVOLVE_PINS, ids=[" ".join(a) for a, _d in EVOLVE_PINS])
def test_evolve_output_pinned(schedule_dir, monkeypatch, argv, digest):
    monkeypatch.chdir(schedule_dir)  # the JSON output names the schedule path
    code, out, err = _main(["evolve", "--schedule", "schedule.json", *argv])
    assert (code, err) == (0, "")
    assert _digest(out) == digest


CLASSIFY_PINS = [
    (("0.5", "0.5", "0.5", "--format", "csv"),
     "ba3cde70eb6f4127d29aab691f24b5c1daf4173e70aa333ecb818d621b9cd8a7"),
    (("0.5", "0.5", "0.5", "--format", "json"),
     "0873efacb3f9825904935093c6067678796cba59e4ad6c9e87136cb6236915ab"),
    (("0.5", "0.5", "0.5", "--format", "text"),
     "344d13fcc9cd16d73a07a41e94fb3089799e45ccaadeb0e43119a3cd46c717e8"),
    (("1.5", "-0.25", "0.75", "--format", "csv"),
     "f0ab4d1dd004203796e55f8dc971e44d4f18feaa970b574d7a06b4db5dfc3271"),
    (("1.5", "-0.25", "0.75", "--format", "json"),
     "10e40fe345e55b8e49b3668abc288f56cd761c065521c84b2f2b2c7512c60b80"),
    (("1.5", "-0.25", "0.75", "--format", "text"),
     "c267e37f494532a93f8548fdd849c6bf8e22099cf78a314cc3089acaf299cba5"),
]


@pytest.mark.parametrize("argv, digest", CLASSIFY_PINS, ids=[" ".join(a) for a, _d in CLASSIFY_PINS])
def test_classify_output_pinned(argv, digest):
    code, out, err = _main(["classify", *argv])
    assert (code, err) == (0, "")
    assert _digest(out) == digest


VOLUME_MC = ("--samples", "5000", "--seed", "11")

VOLUME_PINS = [
    (("--region", "CPT", "--method", "exact", "--format", "json"),
     "7223bd6e2a1e3dba07ba6efa275a8db3d59008490769da7947b9cd3138504257"),
    (("--region", "CPT", "--method", "exact", "--format", "csv"),
     "46eb52095a8d66e0276b295d5fc21774c82178ee1b1cf8f110a8be28dcf1b171"),
    (("--region", "CPT", "--method", "exact", "--format", "text"),
     "b00156ffd1e8354ceb320d1ed4fbb903d6f434fa087b0c60511206a69d362255"),
    (("--region", "PT,CPT,EBC,TLG,PDIV", "--method", "exact", "--format", "json"),
     "332be947213b3f077e1dba3009656388acbf8159ee850e9260e9e0d3db298c62"),
    (("--region", "PT,CPT,EBC,TLG,PDIV", "--method", "exact", "--format", "csv"),
     "3a11c9f18118619807f00b88351900883753eefd4ca5aca981db94af2c12e74e"),
    (("--region", "PT,CPT,EBC,TLG,PDIV", "--method", "exact", "--format", "text"),
     "e2488f02f0aada2bc5cadbba99404d9c32b8992ab4d8b076b6ac7a5b2d3217cc"),
    (("--region", "CPT", "--method", "mc", *VOLUME_MC, "--format", "json"),
     "d3dbab9f04dc7729c44197bdfedee33ee7011ed5492b70dcc684fbf7d82ab190"),
    (("--region", "CPT", "--method", "mc", *VOLUME_MC, "--format", "csv"),
     "4b3fe348997fc9a97673c174d2e3a9a060316965676ceadad196dddc63b25db0"),
    (("--region", "CPT", "--method", "mc", *VOLUME_MC, "--format", "text"),
     "dd2ea12ed3cf8742d96bbf5b0034d1ead87d3702ac0e17a8317111bc6d94dba9"),
    (("--region", "CPT", "--method", "fr", *VOLUME_MC, "--format", "json"),
     "f08268c1d22dcdbdf48f5f9836e19d186865d2580c6135bd26712c054f3a3547"),
    (("--region", "CPT", "--method", "fr", *VOLUME_MC, "--format", "csv"),
     "40ece3961813b0b99dca94a43e9c59b2b4e98fc1d57cc4ad0f855a2ed31403c3"),
    (("--region", "CPT", "--method", "fr", *VOLUME_MC, "--format", "text"),
     "c299473f558ef8dff435b7a0ff50a7bf545e8f2364da8fbd91f0c50425ed8bb2"),
]


@pytest.mark.parametrize("argv, digest", VOLUME_PINS, ids=[" ".join(a) for a, _d in VOLUME_PINS])
def test_volume_output_pinned(argv, digest):
    code, out, err = _main(["volume", *argv])
    assert (code, err) == (0, "")
    assert _digest(out) == digest


# Finite triples whose weight sum or Choi trace rounds far from 1 classify
# (their sums are within the rounding bound of their terms); only weights
# that overflow are an error.
_LARGE_TRIPLE_TAGS = "PT: false\nCPT: false\nEBC: false\nTLG: true\nPDIV: true\nCPDIV: false\n"


@pytest.mark.parametrize(
    "triple, result",
    [
        (("0.1", "0", "1e16"), (0, "lambda = (0.1, 0, 1e+16)\n"
                                   "p = (2.5e+15, -2.5e+15, -2.5e+15, 2.5e+15)\n"
                                   "choi spectrum = (2.5e+15, 2.5e+15, -2.5e+15, -2.5e+15)\n"
                                   + _LARGE_TRIPLE_TAGS, "")),
        (("0.1", "0", "1e17"), (0, "lambda = (0.1, 0, 1e+17)\n"
                                   "p = (2.5e+16, -2.5e+16, -2.5e+16, 2.5e+16)\n"
                                   "choi spectrum = (2.5e+16, 2.5e+16, -2.5e+16, -2.5e+16)\n"
                                   + _LARGE_TRIPLE_TAGS, "")),
        (("1e308", "1e308", "1e308"),
         (2, "", "error: eigenvalues are too large for finite Pauli weights\n")),
    ],
)
def test_classify_rounding_failures_pinned(triple, result):
    assert _main(["classify", *triple]) == result


def test_overflow_partway_through_a_trajectory_pinned(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([
        {"duration": 1.0, "rates": [0.0, 0.0, 0.0]},
        {"duration": 1.0, "rates": [-1000.0, -1000.0, -1000.0]},
    ]))
    assert _main(["evolve", "--schedule", str(path), "--steps", "11"]) == (
        2, "", "error: eigenvalues overflow at time 1.4: the rate integrals are too negative\n"
    )
