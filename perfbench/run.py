"""Benchmark for circthermo: end-to-end time, set-up time and memory per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: ``wall_s`` (the sum over the workload's operations
of each one's median time over the rounds run), ``setup_s`` (median time of
several fresh interpreters to import circthermo and build the workload's
inputs) and ``peak_rss_mb``.  With ``--trace 1`` they are the per-layer self
times and counts of ``tracer.py``, taken from rounds that alternate with
untraced ones, and the tracing overhead.  Accuracy figures go to standard
error.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("intermittent_refine", "analytic_sweep", "oracles")
SETUP_STARTS = 7
IMPORT_STARTS = 3
PROBE_TIMEOUT_S = 120
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="nonnegative seed the workload's inputs are made from")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole rounds are run within it, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP threads, at most the CPUs this process may use")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 1 <= args.threads <= len(os.sched_getaffinity(0)):
        parser.error(f"--threads must be between 1 and {len(os.sched_getaffinity(0))}")
    return args


# ---------------------------------------------------------------------------
# Set-up probes: fresh interpreters that import and build, then exit
# ---------------------------------------------------------------------------

def probe(args):
    """Child side: import circthermo, build the workload, report ready."""
    import workloads
    work_dir = WORK / f"probe-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, str(work_dir))
    print("ready", flush=True)
    wl.close()
    return 0


def timed_start(args, extra_flags=()):
    """Seconds from spawning a fresh interpreter to its built workload, and its stderr."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, *extra_flags, str(HERE / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--threads", str(args.threads)]
    err_path = WORK / f"probe-{os.getpid()}.stderr"
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        err.seek(0)
        stderr = err.read()
    err_path.unlink()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{stderr}")
    return elapsed, stderr


def import_times(stderr):
    """circthermo's cumulative import time and scipy's self time, in seconds."""
    circthermo = scipy = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "circthermo":
            circthermo = cumulative_us / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return circthermo, scipy


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    last_results: dict = field(default_factory=dict)


def run_round(wl, outcome, tracer=None):
    """Run every operation once; returns {op name: seconds}.

    Checks run outside the operations' timers and, in a traced round, with
    the tracer paused, since some of them call into circthermo.
    """
    def checking():
        return tracer.paused() if tracer is not None else contextlib.nullcontext()

    results, times = {}, {}
    for op in wl.ops:
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run(results)
        except Exception:  # one failing operation must not end the run
            times[op.name] = time.perf_counter() - t0
            outcome.failed += 1
            if not op.known_fault:
                outcome.problems.append(f"{op.name} raised:\n{traceback.format_exc()}")
            continue
        times[op.name] = time.perf_counter() - t0
        results[op.name] = result
        with checking():
            try:
                bad = [detail for ok, detail in op.check(result, results) if not ok]
            except Exception:
                bad = [f"{op.name} check raised:\n{traceback.format_exc()}"]
        if bad and op.known_fault:
            outcome.failed += 1
        else:
            outcome.problems.extend(bad)
    if len(results) == len(wl.ops):
        with checking():
            outcome.problems.extend(d for ok, d in wl.round_check(results) if not ok)
    outcome.last_results = results
    return times


def measure(wl, seconds, tracer=None):
    """Warm up once, then whole rounds while the next one fits in `seconds`.

    Without a tracer every round is untraced.  With one, rounds alternate
    untraced and traced, starting untraced, and at least one of each runs.
    """
    wl.warmup()
    outcome = Outcome()
    plain, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            times = run_round(wl, outcome, tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        total = time.perf_counter() - t0
        longest = max(longest, total)
        if trace_this:
            traced.append(times)
            layer_rounds.append(tracer.figures(sum(times.values())))
        else:
            plain.append(times)
        need_traced = tracer is not None and not traced
        if not need_traced and time.perf_counter() - start + longest > seconds:
            break
    return outcome, plain, traced, layer_rounds


def wall_seconds(rounds):
    """Sum over operations of each operation's median time across rounds."""
    return sum(statistics.median(r[name] for r in rounds) for name in rounds[0])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "import.circthermo_s": "s", "import.scipy_s": "s",
    "maps.self_s": "s", "maps.preimages_s": "s", "maps.preimage_points": "count",
    "maps.lift_evals_per_point": "evals/point", "maps.evaluate_s": "s", "maps.potential_s": "s",
    "maps.check_hypotheses_s": "s", "maps.check_hypotheses_calls": "count",
    "operator.self_s": "s", "operator.build_s": "s", "operator.build_calls": "count",
    "operator.matrix_mb": "MB", "operator.tree_s": "s",
    "spectral.self_s": "s", "spectral.leading_triple_s": "s",
    "spectral.leading_triple_calls": "count", "spectral.iterations": "count",
    "spectral.matvec_gb": "GB", "spectral.gap_s": "s", "spectral.resolvent_s": "s",
    "spectral.resolvent_calls": "count",
    "thermo.self_s": "s", "thermo.periodic_oracle_s": "s", "thermo.periodic_skipped": "count",
    "thermo.tree_oracle_s": "s",
    "response.self_s": "s", "response.potential_s": "s", "response.dynamics_s": "s",
    "stats.self_s": "s", "stats.free_energy_s": "s", "stats.free_energy_points": "count",
    "stats.legendre_s": "s", "stats.legendre_calls": "count", "stats.monte_carlo_s": "s",
    "stats.mc_orbit_steps": "count", "stats.deviation_probability_s": "s",
    "cli.self_s": "s", "cli.parse_s": "s", "cli.write_s": "s", "cli.artifact_mb": "MB",
    "bench.self_s": "s", "trace.overhead_s": "s",
}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "circthermo" / "__init__.py").is_file():
        print(f"perfbench: no circthermo source at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARIABLES:
        os.environ[var] = str(args.threads)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe:
        return probe(args)

    metrics = {}
    if args.trace:
        runs = [import_times(timed_start(args, ("-X", "importtime"))[1])
                for _ in range(IMPORT_STARTS)]
        metrics["import.circthermo_s"] = statistics.median(r[0] for r in runs)
        metrics["import.scipy_s"] = statistics.median(r[1] for r in runs)
    else:
        setup_s = statistics.median(timed_start(args)[0] for _ in range(SETUP_STARTS))

    import workloads
    tracer = None
    if args.trace:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
    wl = workloads.build(args.workload, args.seed,
                         str(WORK / f"{args.workload}-{os.getpid()}"))
    try:
        outcome, plain, traced, layer_rounds = measure(wl, args.seconds, tracer)
        accuracy = wl.accuracy(outcome.last_results) if not outcome.problems else {}
    finally:
        wl.close()
    if WORK.is_dir() and not any(WORK.iterdir()):
        shutil.rmtree(WORK)

    if args.trace:
        for name in PER_LAYER_UNITS:
            if name not in metrics:
                metrics[name] = statistics.fmean(r.get(name, 0.0) for r in layer_rounds)
        metrics["trace.overhead_s"] = wall_seconds(traced) - wall_seconds(plain)
        units = PER_LAYER_UNITS
    else:
        metrics["wall_s"] = wall_seconds(plain)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        print("perfbench accuracy: " + json.dumps(accuracy, default=float), file=sys.stderr)
        medians = {name: statistics.median(r[name] for r in plain) for name in plain[0]}
        print("perfbench operation medians (s): " + json.dumps(medians), file=sys.stderr)
        print("perfbench round totals (s): " + json.dumps([sum(r.values()) for r in plain]),
              file=sys.stderr)
    for problem in outcome.problems:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {len(plain)} untraced and {len(traced)} traced rounds of "
          f"{len(wl.ops)} operations", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
