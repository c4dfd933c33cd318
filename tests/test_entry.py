"""The process entry: ``python -m paulivol`` and the ``paulivol`` script.

``paulivol.__main__.run`` turns the cyclic collector off, runs
``cli.main``, flushes stdout and stderr and ends with ``os._exit``.  These
tests pin that the script and ``-m`` run the same callable, that argparse's
own exits keep their codes and text, that stdout which cannot be written is
an ``error:`` line with exit 2 (``--help`` and ``--version`` included), that
a stream closed before the run keeps the exit codes, that a run with the
collector off leaves no more garbage at a large size than at a small one,
and that a SIGINT ends a run by the signal, with no traceback.
"""

import ast
import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import paulivol.__main__ as entry
from paulivol import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["COLUMNS"] = "80"  # argparse wraps its help to the terminal width
    return env


def _module(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "paulivol", *argv], env=_env(), **kwargs)


def _in_process(argv, monkeypatch):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, argparse's exits included."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# --- one entry ----------------------------------------------------------------


def test_the_script_and_python_m_run_the_same_callable():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["paulivol"].partition(":")
    assert (module, name) == ("paulivol.__main__", "run")
    # the __main__ guard of that module calls the same name, and nothing else
    tree = ast.parse((SRC / "paulivol" / "__main__.py").read_text())
    guard = tree.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == [f"{name}()"]
    assert callable(getattr(entry, name))


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["--version"], 0),
    (["classify"], 2),
    (["volume", "--region", "PT", "--method", "nope"], 2),
])
def test_argparse_exits_keep_their_codes_and_text(argv, code, monkeypatch):
    proc = _module(*argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, monkeypatch)
    assert proc.returncode == code
    if argv == ["--version"]:
        assert proc.stdout == "paulivol 0.1.0\n"


def test_run_flushes_and_exits_with_the_code_main_returns(monkeypatch):
    calls = []

    def main():
        calls.append(("collector on", gc.isenabled()))
        print("partial", end="")
        return 3

    class Stream(io.StringIO):
        def flush(self):
            calls.append(("flush", self.getvalue()))

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("exit", code)))
    try:
        entry.run()
    finally:
        gc.enable()
    assert calls == [("collector on", False), ("flush", "partial"), ("flush", ""), ("exit", 3)]


def test_run_lets_an_exception_from_main_leave_the_normal_way(monkeypatch):
    def main():
        raise SystemExit(0)  # as argparse's --help and --version do

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit was called"))
    try:
        with pytest.raises(SystemExit):
            entry.run()
    finally:
        gc.enable()


# --- stdout that cannot be written ---------------------------------------------

# classify's text stays in stdout's buffer until main flushes it; sample's
# 60 KB is written through on the first write
_OUTPUTS = [["classify", "0.5", "0.5", "0.5"], ["sample", "--region", "CPT", "-n", "1000"]]
# argparse writes these, and exits without returning to main
_ARGPARSE_OUTPUTS = [["--help"], ["--version"], ["classify", "--help"]]


def _assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", _OUTPUTS + _ARGPARSE_OUTPUTS)
def test_a_full_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # buffered, argparse's text would stay in stdout's buffer for the
    # interpreter's final flush to fail on
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "paulivol", *argv], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True)
    _assert_one_error_line(proc.returncode, proc.stderr)
    assert "[Errno 28]" in proc.stderr


@pytest.mark.parametrize("argv", _OUTPUTS)
def test_a_pipe_closed_early_exits_2_with_one_error_line(argv):
    proc = subprocess.Popen([sys.executable, "-m", "paulivol", *argv], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the run writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    _assert_one_error_line(proc.wait(), err)
    assert "[Errno 32]" in err


# --- a stream closed before the run ----------------------------------------------

# Closes the file descriptor argv[1], then runs python -m paulivol argv[2:] in
# its place, as a shell's >&- or 2>&- does; Python then sets that stream to None.
_CLOSED = ("import os, sys; os.close(int(sys.argv[1]));"
           " os.execv(sys.executable, [sys.executable, '-m', 'paulivol', *sys.argv[2:]])")


def _closed(fd, *argv):
    """(exit code, the other stream's text) of a run with ``fd`` closed."""
    other = {"stdout": subprocess.PIPE} if fd == 2 else {"stderr": subprocess.PIPE}
    proc = subprocess.run([sys.executable, "-c", _CLOSED, str(fd), *argv], env=_env(),
                          text=True, **other)
    return proc.returncode, proc.stdout if fd == 2 else proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["volume", "--region", "FOO"], 2),
    (["volume", "--region", "TLG"], 1),
    (["classify"], 2),  # argparse's usage error
    (["classify", "0.5", "0.5", "0.5"], 0),
])
def test_a_closed_stderr_keeps_the_exit_code_and_writes_no_error_to_stdout(argv, code,
                                                                           monkeypatch):
    # an error line has nowhere to go; stdout holds only what a run with stderr has there
    closed = _closed(2, *argv)
    assert closed == _in_process(argv, monkeypatch)[:2]
    assert closed[0] == code


@pytest.mark.parametrize("argv", _OUTPUTS + _ARGPARSE_OUTPUTS)
def test_a_closed_stdout_exits_2_with_one_error_line(argv):
    code, err = _closed(1, *argv)
    _assert_one_error_line(code, err)
    assert err == "error: cannot write output: stdout is closed\n"


# --- the collector off ---------------------------------------------------------

# One CLI run in a fresh interpreter with the collector off, as run() has it;
# argv[1] is the JSON argv, in which FILE stands for argv[2].  The script
# prints the exit code and what gc.collect() then finds.
_GC_SCRIPT = r"""
import contextlib, gc, io, json, sys
gc.disable()
from paulivol.cli import main
argv = [sys.argv[2] if a == "FILE" else a for a in json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
print(json.dumps({"exit": code, "garbage": gc.collect()}))
"""

# command -> (argv with SIZE for the size, small size, large size)
_SIZED = {
    "table": (["table", "--chunk-size", "4096", "--samples", "SIZE"], 100_000, 4_000_000),
    "volume fr": (["volume", "--region", "CPT,TLG", "--method", "fr", "--chunk-size", "4096",
                   "--samples", "SIZE"], 10_000, 1_000_000),
    "sample": (["sample", "--region", "CPT", "-n", "SIZE"], 1_000, 200_000),
    "evolve": (["evolve", "--schedule", "FILE", "--steps", "SIZE"], 100, 50_000),
}
# what the slack allows for: objects the large run may leave beyond the small one
_SLACK = 20


@pytest.mark.parametrize("command", list(_SIZED))
def test_a_run_with_the_collector_off_leaves_no_garbage_that_grows(command, tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([{"duration": 1.0, "rates": [0.2, 0.1, 0.3]},
                                    {"duration": 2.0, "rates": [0.0, 0.4, 0.1]}]))
    argv, small, large = _SIZED[command]
    found = []
    for size in (small, large):
        sized = json.dumps([str(size) if a == "SIZE" else a for a in argv])
        proc = subprocess.run([sys.executable, "-c", _GC_SCRIPT, sized, str(schedule)],
                              env=_env(), capture_output=True, text=True, check=True)
        found.append(json.loads(proc.stdout))
    assert [f["exit"] for f in found] == [0, 0]
    assert found[1]["garbage"] <= found[0]["garbage"] + _SLACK, found


# --- an interrupt ---------------------------------------------------------------

# Writes a ready line to stderr, then runs paulivol.__main__.run() on argv[1:];
# a signal sent after the line lands inside run, not in the interpreter's start-up.
_READY = ("import sys, paulivol.__main__ as entry;"
          " print('ready', file=sys.stderr, flush=True); entry.run()")
_INTERRUPTED = {
    "table": ["table", "--samples", "1000000000"],
    "sample": ["sample", "--region", "CPT", "-n", "2000000", "--format", "json"],
    "evolve": ["evolve", "--schedule", "FILE", "--steps", "500000", "--format", "json"],
}
# from the CLI's import, through numpy's, to the counting or sampling pass and the writing
_DELAYS = [0.0, 0.05, 0.2, 1.0]


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
@pytest.mark.parametrize("command", list(_INTERRUPTED))
def test_a_sigint_inside_run_ends_the_process_by_the_signal_without_a_traceback(command,
                                                                               tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([{"duration": 3.0, "rates": [0.2, 0.1, 0.3]}]))
    argv = [str(schedule) if a == "FILE" else a for a in _INTERRUPTED[command]]
    for delay in _DELAYS:
        proc = subprocess.Popen([sys.executable, "-c", _READY, *argv], env=_env(),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stderr.readline() == "ready\n"
            time.sleep(delay)
            proc.send_signal(signal.SIGINT)
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert (code, err) == (-signal.SIGINT, ""), (delay, err)
