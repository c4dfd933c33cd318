"""paulivol benchmark: one closed-loop client, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it in a checkout; it measures the sources under ``src/``.  One pass
runs, one after the other: ``import paulivol`` in fresh interpreters
(``setup_s``), the workload's library job in a fresh interpreter (``lib_s``,
timed inside it after the import) and the workload's CLI list as
subprocesses (``cli_s``).  Passes repeat until ``--seconds`` have gone by;
timings are medians over the passes, scaled to a reference machine speed
(see measure_end_to_end).  ``--trace 1`` runs the per-layer measurement instead: an
untraced and a traced library job plus the CLI list in process under the
tracer, per pass.  The last stdout line is the JSON result; the lines
before it repeat the metrics for a reader, with the machine block.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS_PER_PASS = 2
# Times are reported at a reference machine speed: each is scaled by the
# reference over the probe of its pass (see measure_end_to_end).  The machine
# drifts by tens of percent within minutes, and work in a pass drifts with
# the probe of its kind, so scaled times compare across runs where raw ones
# do not.  The references are the probes' typical times on the 2-vCPU
# machine the bounds were set on.
COMPUTE_PROBE_REFERENCE_S = 0.05
START_PROBE_REFERENCE_S = 0.16
MIN_PASSES = {"full": 3, "tiny": 2}
# No pass starts within 20 s of this many seconds into the run, and a child
# still running at it is killed and counted as failed, so a run always ends
# within three minutes.
RUN_LIMIT_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """State of one benchmark run: inputs, counters and the run's deadline."""

    def __init__(self, workload, seed, size):
        self.start = time.perf_counter()
        self.inputs = workloads.make_inputs(workload, seed, size)
        self.tag = f"{workload}-{seed}"
        self.inputs_path = OUT / f"{self.tag}-inputs.json"
        self.schedule_path = OUT / f"{self.tag}-schedule.json"
        self.inputs_path.write_text(json.dumps(self.inputs))
        self.schedule_path.write_text(json.dumps(self.inputs.get("schedule", [])))
        self.commands = workloads.cli_commands(
            self.inputs, str(self.schedule_path.relative_to(ROOT))
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.summary = None
        self.checked = {}
        self.validators = None
        self.versions = {}
        self.measure_start = None
        self.pass_ends = []

    def fail(self, what, problems):
        self.failed += 1
        self.problems.append(f"{what}: {'; '.join(problems)}")

    def spawn(self, argv, name):
        """Run python with argv to completion; return (wall_s, exit_code, maxrss_mb, stdout path)."""
        out_path, err_path = OUT / f"{self.tag}-{name}.out", OUT / f"{self.tag}-{name}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        begin = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    os.kill(pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
        except BaseException:  # interrupted: the child must not outlive the benchmark
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _pid, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - begin
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, out_path

    def job(self, name, extra=()):
        """One job.py process; returns (result dict or None, maxrss_mb)."""
        result_path = OUT / f"{self.tag}-{name}.json"
        result_path.unlink(missing_ok=True)
        argv = [str(HERE / "job.py"), "--inputs", str(self.inputs_path), "--out", str(result_path),
                *extra]
        _wall, code, rss, _out = self.spawn(argv, name)
        if code != 0 or not result_path.exists():
            err = (OUT / f"{self.tag}-{name}.err").read_text()[-2000:]
            self.problems.append(f"{name} exited {code}: {err}")
            return None, rss
        result = json.loads(result_path.read_text())
        self.versions = result["versions"]
        return result, rss

    def library(self, name, extra=()):
        """Library job plus the accounting of its operations; returns (result, rss)."""
        result, rss = self.job(name, extra)
        labels = workloads.op_labels(self.inputs)
        self.attempted += len(labels)
        if result is None:
            self.failed += len(labels)
            return None, rss
        for label, problems in result["ops"]:
            if problems:
                self.fail(f"library {label}", problems)
        if self.summary is None:
            self.summary = result["summary"]
        elif result["summary"] != self.summary:
            self.fail(f"{name} results", ["differ from the first pass"])
        return result, rss

    def check_cli(self, index, code, stdout_path):
        """Check one CLI call; identical output to an already checked call is not re-checked."""
        argv, expected = self.commands[index]
        self.attempted += 1
        stdout = stdout_path.read_text()
        key = (index, code, hashlib.sha256(stdout.encode()).hexdigest())
        if key in self.checked:
            problems = self.checked[key]
        elif self.summary is None:
            problems = ["no library result to compare with"]
        else:
            if self.validators is None:
                self.validators = _validators()
            problems = workloads.check_cli(
                self.inputs, index, code, expected, stdout, self.summary, self.validators
            )
            self.checked = {k: v for k, v in self.checked.items() if k[0] != index}
            self.checked[key] = problems
        if problems:
            self.fail("paulivol " + " ".join(argv), problems)

    def pass_done(self):
        self.pass_ends.append(time.perf_counter())

    def time_left(self, seconds, passes, min_passes):
        """Whether another pass fits: at least min_passes, then while a typical pass ends in time."""
        ends = [self.measure_start, *self.pass_ends]
        typical = statistics.median(b - a for a, b in zip(ends, ends[1:])) if passes else 0.0
        if ends[-1] + typical - self.start > RUN_LIMIT_S - 20:
            return False
        return passes < min_passes or ends[-1] + typical - self.measure_start <= seconds


def _validators():
    import jsonschema

    schemas = ROOT / "src" / "paulivol" / "schemas"
    return {
        name: jsonschema.Draft202012Validator(
            json.loads((schemas / f"{name}.schema.json").read_text())
        )
        for name in ("output", "mesh")
    }


def measure_end_to_end(run, seconds, min_passes):
    """Passes of setup, library job and CLI list; returns (metrics, raw samples, passes).

    Times are scaled to a reference machine speed, pass by pass, with two
    probes of the pass: the library job's in-process compute probe and a
    start-up probe, a fresh interpreter importing numpy, run beside each
    setup.  A CLI call is a start-up (as long as the pass's setup) followed
    by work, and each part is scaled by the probe of its kind.
    """
    samples = {"setup_s": [], "start_probe_s": [], "op_s": [], "probe_s": [], "command_s": [],
               "peak_rss_mb": []}
    scaled = {"setup_s": [], "op_s": [], "command_s": []}
    passes = 0
    while run.time_left(seconds, passes, min_passes):
        passes += 1
        setups, start_probes = [], []
        for _ in range(SETUPS_PER_PASS):
            wall, code, _rss, _out = run.spawn(["-c", "import paulivol"], "setup")
            if code != 0:
                run.attempted += 1
                run.fail("import paulivol", [f"exit code {code}"])
            setups.append(wall)
            start_probes.append(run.spawn(["-c", "import numpy"], "start-probe")[0])
        result, peak = run.library("lib")
        walls = []
        for i, (argv, _code) in enumerate(run.commands):
            wall, code, rss, out = run.spawn(["-m", "paulivol", *argv], f"cli{i}")
            walls.append(wall)
            peak = max(peak, rss)
            run.check_cli(i, code, out)
        run.pass_done()

        samples["setup_s"] += setups
        samples["start_probe_s"] += start_probes
        samples["command_s"].append(walls)
        samples["peak_rss_mb"].append(peak)
        if result is None:
            continue
        samples["op_s"].append(result["op_s"])
        samples["probe_s"].append(result["probe_s"])
        start_scale = START_PROBE_REFERENCE_S / statistics.fmean(start_probes)
        compute_scale = COMPUTE_PROBE_REFERENCE_S / statistics.fmean(result["probe_s"])
        startup = statistics.median(setups)
        scaled["setup_s"] += [t * start_scale for t in setups]
        scaled["op_s"].append([t * compute_scale for t in result["op_s"]])
        scaled["command_s"].append([
            min(t, startup) * start_scale + max(t - startup, 0.0) * compute_scale for t in walls
        ])
    metrics = {
        "setup_s": _median(scaled["setup_s"]),
        # Sum over the operations of each one's median over the passes: the
        # typical job or list time, less moved by one slow second than the
        # median of whole-pass totals.
        "lib_s": _sum_of_medians(scaled["op_s"]),
        "cli_s": _sum_of_medians(scaled["command_s"]),
        "peak_rss_mb": _median(samples["peak_rss_mb"]),
    }
    samples["unscaled"] = {
        "setup_s": _median(samples["setup_s"]),
        "lib_s": _sum_of_medians(samples["op_s"]),
        "cli_s": _sum_of_medians(samples["command_s"]),
        "start_probe_s": _median(samples["start_probe_s"]),
        "compute_probe_s": _median([p for ps in samples["probe_s"] for p in ps]),
    }
    return metrics, samples, passes


def _sum_of_medians(rows):
    return sum(_median(column) for column in zip(*rows))


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_layers(run, seconds, min_passes):
    """Passes of untraced job, traced job and traced in-process CLI list; returns (metrics, passes)."""
    samples = {"trace.unaccounted_s": []}
    op_s = {"trace.untraced_lib_s": [], "trace.lib_s": []}
    layers, cli_layers, cli_self, stdout_bytes = [], [], [], None
    passes = 0
    spans = str(OUT / f"{run.tag}-spans.json")
    cli_spans = str(OUT / f"{run.tag}-cli-spans.json")
    while run.time_left(seconds, passes, min_passes):
        passes += 1
        plain, _ = run.library("lib")
        traced, _ = run.library("traced", ["--trace", spans])
        if plain is not None:
            op_s["trace.untraced_lib_s"].append(plain["op_s"])
        if traced is not None:
            op_s["trace.lib_s"].append(traced["op_s"])
            samples["trace.unaccounted_s"].append(
                traced["lib_s"] - traced["layers"]["library_self_s"]
            )
            layers.append(traced["layers"])
        cli, _ = run.job("traced-cli", ["--trace", cli_spans, "--cli", str(OUT),
                                        "--schedule", str(run.schedule_path.relative_to(ROOT))])
        if cli is None:
            run.attempted += len(run.commands)
            run.failed += len(run.commands)
        else:
            for i, command in enumerate(cli["commands"]):
                run.check_cli(i, command["exit"], Path(command["stdout"]))
            cli_self.append(cli["cli_self_s"])
            cli_layers.append(cli["layers"])
            stdout_bytes = sum(c["bytes"] for c in cli["commands"])
        run.pass_done()

    metrics = {}
    for name in PER_LAYER:
        if name in op_s:
            metrics[name] = sum(_median(col) for col in zip(*op_s[name]))
            continue
        if name in samples:
            values = samples[name]
        elif name.startswith("cli.") and name.endswith(".self_s") and name != "cli.build_table.self_s":
            sub = name.split(".")[1]
            values = [c.get(sub, 0.0) for c in cli_self]
        elif PER_LAYER[name] in ("count", "bytes", "ratio"):
            values = [layer.get(name, 0) for layer in layers[:1]]
        elif layers and name in layers[0]:
            values = [layer.get(name, 0.0) for layer in layers]
        else:
            # A function only the CLI list calls (mesh_document) is timed there.
            values = [layer.get(name, 0.0) for layer in cli_layers]
        metrics[name] = statistics.median(values) if values else 0
    metrics["cli.stdout_bytes"] = stdout_bytes or 0
    metrics["trace.overhead_s"] = metrics["trace.lib_s"] - metrics["trace.untraced_lib_s"]
    return metrics, passes


def machine_block(args) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
    }


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test only")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _stop)
    if not (ROOT / "src" / "paulivol" / "__init__.py").is_file():
        print(f"error: no paulivol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_block(args)
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.size)
    # Untimed warm-up: byte-compiles the package and pulls numpy into the page cache.
    run.spawn(["-c", "import paulivol.cli"], "warmup")
    min_passes = MIN_PASSES[args.size]
    run.measure_start = time.perf_counter()

    if args.trace:
        metrics, passes = measure_layers(run, args.seconds, min_passes)
        units = PER_LAYER
    else:
        metrics, samples, passes = measure_end_to_end(run, args.seconds, min_passes)
        units = END_TO_END
    error_frac = run.failed / run.attempted if run.attempted else 1.0
    if args.trace:
        metrics["error_frac"] = error_frac
    machine.update(run.versions)

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={passes}"
          f" (setup samples: {passes * SETUPS_PER_PASS if not args.trace else 0})")
    print("machine: " + json.dumps(machine))
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        unscaled = samples["unscaled"]
        print("  unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in unscaled.items()))
        print(f"  {'error_frac':42s} {error_frac:.6g} ratio"
              f" ({run.failed} of {run.attempted} operations failed)")
    record = {
        "machine": machine,
        "passes": passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
    }
    if not args.trace:
        record["samples"] = samples
    (OUT / f"result-{run.tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    # Keep the record and the span files; the per-call outputs were checked.
    for path in OUT.glob(f"{run.tag}-*"):
        if not path.name.endswith("spans.json"):
            path.unlink()
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
