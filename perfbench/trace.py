"""Traced run of every workload, written as one JSON object per workload.

    python3 perfbench/trace.py --seed 1 --rounds 3 [--out perfbench/results/trace.json]

For each workload it alternates rounds run in this process without tracing
and with tracing, and records:

* ``per_layer``: the per-layer metrics (medians over traced rounds), the
  same values ``run.py --trace 1`` prints;
* ``spans``: per span name, the calls, total and self seconds of one round
  (medians over traced rounds);
* ``round_s``: median in-process round wall time untraced and traced, and
  ``tracing_overhead_s``, their difference;
* ``attempted``/``failed``/``correct`` for the checked outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import run
import tracing
import workloads


def trace_workload(cli, name: str, seed: int, rounds: int, work: Path) -> dict:
    wl = workloads.prepare(name, seed, work)
    tally = run.Tally()
    tracer = tracing.Tracer()
    plain, traced, per_round, stats = [], [], [], []
    for _ in range(rounds):
        plain.append(run.run_in_process(cli, wl))
        tally.check_round(wl)
        wall, metrics = run.traced_round(cli, wl, tracer)
        traced.append(wall)
        per_round.append(metrics)
        stats.append(tracing.span_stats(tracer.spans))
        tally.check_round(wl)
    per_layer = run.per_layer_medians(per_round)
    names = sorted({n for s in stats for n in s})
    spans = {n: {k: statistics.median(s.get(n, {}).get(k, 0) for s in stats)
                 for k in ("count", "total_s", "self_s")} for n in names}
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    run.report(tally)
    return {
        "seed": seed, "rounds": rounds,
        "correct": not tally.unexpected, "attempted": tally.attempted,
        "failed": tally.failed,
        "round_s": {"untraced": untraced_s, "traced": traced_s},
        "tracing_overhead_s": traced_s - untraced_s,
        "per_layer": {m: {"value": per_layer[m], "unit": run.PER_LAYER_UNITS[m]}
                      for m in run.PER_LAYER_UNITS},
        "spans": spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent / "results" / "trace.json")
    args = ap.parse_args(argv)
    run.require_checkout()
    cli = run.import_hetlab()
    result = {}
    for name in workloads.WORKLOADS:
        work = run.WORK / f"trace-{name}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            result[name] = trace_workload(cli, name, args.seed, args.rounds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: overhead {result[name]['tracing_overhead_s']:.3f} s", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
