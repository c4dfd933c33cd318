"""One fresh-interpreter job: a workload's library calls, or its CLI list in process.

    python perfbench/job.py --inputs FILE --out FILE [--trace SPANS [--cli DIR --schedule FILE]]

The library job imports paulivol, then times the workload's calls and
nothing else; the checks run after the timer.  With ``--trace`` the public
functions are wrapped first (see tracing.py) and the per-layer numbers are
taken before the checks run.  With ``--cli`` the workload's CLI list runs
through ``paulivol.cli.main`` in this process, each call's stdout going to a
file in DIR, so that the cli layer's self time can be traced.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
from fractions import Fraction

import tracing
import workloads


def probe() -> float:
    """Wall time of fixed interpreter work: Fraction sums and dict updates.

    Run just before and just after the library calls, in the same process,
    it measures how fast the machine ran the job; run.py scales lib_s by it.
    The collector is off so that the heap the job leaves cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 3000):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
        counts = {}
        for i in range(200_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_library(pv, inputs, tracer, trace_path) -> dict:
    ops = workloads.library_ops(pv, inputs)
    operation = tracer.operation if tracer else (lambda label: contextlib.nullcontext())
    results = {}
    op_s = []
    before = probe()
    start = time.perf_counter()
    for label, fn in ops:
        op_start = time.perf_counter()
        with operation(label):
            try:
                results[label] = fn(results)
            except Exception as exc:  # counted as a failure unless the check expects it
                results[label] = exc
        op_s.append(time.perf_counter() - op_start)
    lib_s = time.perf_counter() - start
    after = probe()

    out = {"lib_s": lib_s, "op_s": op_s, "probe_s": [before, after]}
    if tracer:
        spans = list(tracer.spans)
        out["layers"] = tracing.layer_metrics(spans)
        tracer.dump(trace_path)
        out["layers"]["mc_volume.prng_floor_s"] = tracing.prng_floor_s(tracing.stream_plan(spans))
    problems = workloads.check_library(pv, inputs, results)
    out["ops"] = [[label, problems[label]] for label, _fn in ops]
    out["summary"] = workloads.library_summary(inputs, results)
    return out


def run_cli(pv, inputs, tracer, trace_path, out_dir, schedule_path) -> dict:
    commands = []
    for i, (argv, _code) in enumerate(workloads.cli_commands(inputs, schedule_path)):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer.operation(argv[0]), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = pv.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        path = f"{out_dir}/{inputs['workload']}-{inputs['seed']}-traced-cli{i}.out"
        with open(path, "w") as fh:
            fh.write(stdout.getvalue())
        commands.append({"exit": code, "stdout": path, "bytes": len(stdout.getvalue().encode())})
    spans = list(tracer.spans)
    tracer.dump(trace_path)
    return {
        "commands": commands,
        "cli_self_s": tracing.cli_self_times(spans, tracer.ops),
        "layers": tracing.layer_metrics(spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--cli", default=None, help="run the CLI list in process")
    parser.add_argument("--schedule", default=None, help="schedule file the CLI list reads")
    args = parser.parse_args()
    if args.cli and not args.trace:
        parser.error("--cli needs --trace")
    with open(args.inputs) as fh:
        inputs = json.load(fh)

    import numpy
    import paulivol as pv
    import paulivol.cli  # noqa: F401  (binds pv.cli)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    if args.cli:
        out = run_cli(pv, inputs, tracer, args.trace, args.cli, args.schedule)
    else:
        out = run_library(pv, inputs, tracer, args.trace)
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "paulivol": pv.__version__,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
