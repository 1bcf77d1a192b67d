"""End-to-end and per-layer benchmark of the hetlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hetlab`` must be there; the
package need not be installed). One client runs the workload's CLI
commands one at a time (closed loop) in whole rounds for ``--seconds``
(at least one round; none that would end past it), and checks every
output against a reference computed apart from the program (checks.py).

``--trace 0`` runs each command as ``python -m hetlab.cli`` and reports the
end-to-end metrics: median round wall time and median start-up time, both
scaled by a machine-speed calibration timed around every round, and the
median over rounds of the largest resident set of any command.
``--trace 1`` runs the same commands in this process with every hetlab
module wrapped in spans (tracing.py) and reports the per-layer metrics,
each the median over rounds of its per-round value.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

# hetlab's neighbourhood thread pool is GIL-bound; numpy's BLAS pool is
# idle on matrices this small. One thread each keeps the scheduler of a
# small shared machine out of the measurement.
THREAD_ENV = {"HETLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
MIN_SETUP_SAMPLES = 5
# Machine-speed calibration: the interpreter starting and importing the
# third-party libraries hetlab.cli imports, but not hetlab itself, so no
# change to the program moves it. It is timed before and after every round,
# and end-to-end times are scaled to a machine on which it takes
# REFERENCE_CALIBRATION_S.
CALIBRATION = ["-c", "import click, numpy, scipy.special"]
REFERENCE_CALIBRATION_S = 0.5
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.output_bytes": "bytes",
    "datasets.input_bytes": "bytes",
    "gaussian.components_built": "count",
    **{m: "s" for m in tracing.LAYER_TIMES},
    **{m: "count" for m in tracing.LAYER_CALLS},
}


def cli_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, env, log: Path) -> tuple:
    """Run ``python args`` to its exit. Returns (seconds from spawn to
    exit, peak resident set in MB, exit code)."""
    with open(log, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        guard = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            guard.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


class Tally:
    """Operations attempted and failed; failures other than known faults
    make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = set()

    def add(self, ops) -> None:
        self.attempted += len(ops)
        for op in ops:
            if op.ok:
                continue
            self.failed += 1
            if op.known:
                self.known.add(op.known)
            else:
                self.unexpected.append(op)

    def check_round(self, wl) -> None:
        for cmd in wl.commands:
            text = cmd.out.read_text() if cmd.out.exists() else ""
            self.add(cmd.check(text))


def _round_start(wl) -> None:
    for cmd in wl.commands:
        cmd.out.unlink(missing_ok=True)


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """Start another whole round only if one more of average length still
    ends within the run's ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


def run_untraced(wl, seconds: float, work: Path):
    env = cli_env()
    log = work / "stderr.txt"
    tally = Tally()
    calibration, setup, walls, rss = [], [], [], []

    def sample_setup():
        calibration.append(spawn(CALIBRATION, env, log)[0])
        setup.append(spawn(["-m", "hetlab.cli", *wl.setup_argv], env, log)[0])

    start = perf_counter()
    sample_setup()
    while True:
        _round_start(wl)
        wall, peak = 0.0, 0.0
        for cmd in wl.commands:
            dt, maxrss, code = spawn(["-m", "hetlab.cli", *cmd.argv], env, log)
            if code != 0:
                print(f"{cmd.name}: exit {code}: {log.read_text()[-2000:]}", file=sys.stderr)
            wall += dt
            peak = max(peak, maxrss)
        walls.append(wall)
        rss.append(peak)
        sample_setup()
        tally.check_round(wl)
        if not _another_round(start, len(walls), seconds):
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        sample_setup()
    print(f"{wl.name}: {len(walls)} rounds; raw seconds: wall {walls}, setup {setup}, "
          f"calibration {calibration}", file=sys.stderr)
    ref = REFERENCE_CALIBRATION_S
    # each round against the mean of the calibrations just before and after it
    wall_s = [w * 2 * ref / (c0 + c1) for w, c0, c1 in zip(walls, calibration, calibration[1:])]
    setup_s = [s * ref / c for s, c in zip(setup, calibration)]
    return tally, {"wall_s": statistics.median(wall_s),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": statistics.median(rss)}


def import_hetlab():
    """Import the checkout's hetlab.cli in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hetlab.cli
    if Path(hetlab.cli.__file__).resolve().parent != SRC / "hetlab":
        raise RuntimeError(f"imported hetlab from {hetlab.cli.__file__}, not {SRC}")
    return hetlab.cli


def run_in_process(cli, wl) -> float:
    """One round of the workload's commands in this process; returns its
    wall time."""
    _round_start(wl)
    start = perf_counter()
    for cmd in wl.commands:
        try:
            cli.main.main(args=list(cmd.argv), prog_name="hetlab", standalone_mode=False)
        except SystemExit as exc:  # the CLI's mapping of library errors
            print(f"{cmd.name}: exit {exc.code}", file=sys.stderr)
        except Exception as exc:  # click usage errors and uncaught tracebacks
            print(f"{cmd.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return perf_counter() - start


def import_seconds(env) -> float:
    """Median time to import hetlab.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hetlab.cli; "
            "print(time.perf_counter() - t)")
    samples = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def traced_round(cli, wl, tracer) -> tuple:
    """One round in this process with tracing installed: (wall seconds,
    per-layer metrics of the round)."""
    tracer.reset()
    with tracer.installed():
        wall = run_in_process(cli, wl)
    metrics = tracing.layer_metrics(tracer)
    metrics["datasets.input_bytes"] = sum(
        f.stat().st_size for cmd in wl.commands for f in cmd.inputs)
    metrics["cli.output_bytes"] = sum(
        cmd.out.stat().st_size for cmd in wl.commands if cmd.out.exists())
    return wall, metrics


def per_layer_medians(rounds) -> dict:
    out = {m: statistics.median(r[m] for r in rounds) for m in rounds[0]}
    out["cli.import_s"] = import_seconds(cli_env())
    return out


def run_traced(wl, seconds: float):
    cli = import_hetlab()
    tally = Tally()
    tracer = tracing.Tracer()
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(traced_round(cli, wl, tracer)[1])
        tally.check_round(wl)
        if not _another_round(start, len(rounds), seconds):
            break
    return tally, per_layer_medians(rounds)


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    })


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def require_checkout() -> None:
    if not (SRC / "hetlab" / "cli.py").is_file():
        print(f"error: no hetlab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)


def report(tally: Tally) -> None:
    for fault in sorted(tally.known):
        print(f"known fault: {fault}", file=sys.stderr)
    for op in tally.unexpected[:10]:
        print(f"FAILED {op.key}: {op.message}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    # On SIGTERM, unwind like an interrupt: kill and reap the running CLI
    # command, then remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.prepare(args.workload, args.seed, work)
        if args.trace:
            tally, metrics = run_traced(wl, args.seconds)
            units = PER_LAYER_UNITS
        else:
            tally, metrics = run_untraced(wl, args.seconds, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(tally)
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
