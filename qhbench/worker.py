"""Run one workload in this fresh process and print its result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  With
``--probe`` it only reports when ``import quiverhopf`` returned, on the
system-wide monotonic clock, so the parent can time set-up from spawn, and
the gauge's speed factor measured right after.

A pass runs the workload's operation list once, one operation after the
other, and checks each output against its oracle after the timed loop.
With ``--trace 0`` passes repeat until ``--seconds`` have elapsed, no
wrapper is ever installed, and the gauge (gauge.py) samples the host's
speed throughout, so that each pass's time can be given at the reference
speed.  With ``--trace 1`` each round is an untraced pass followed by a
traced one; the two must give byte-identical outputs.  The gauge is off
there, so that it adds nothing to any span.
"""

import time

import quiverhopf

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gauge  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402


@dataclass
class Pass:
    """Outputs and timings of one run of the operation list."""

    wall: float           # the gauge's own time taken out
    cpu: float
    times: list           # wall seconds of each operation
    outputs: list         # canonical bytes, or None if it raised
    reasons: list         # None when the op matched its oracle
    speed: float = 1.0    # the gauge's factor to the reference speed


def run_pass(op_list: list, seed: int, tracer=None, meter=None) -> Pass:
    records, errors, marks = [], [], []
    gc.collect()
    mark = meter.mark() if meter else None
    cpu0, t0 = time.process_time(), time.perf_counter()
    for op in op_list:
        try:
            records.append(tracer.op(op.run, seed) if tracer else op.run(seed))
            errors.append(None)
        except Exception:           # one failing operation must not stop the run
            records.append(None)
            errors.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        marks.append(time.perf_counter())
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    times = [b - a for a, b in zip([t0] + marks, marks)]
    speed = 1.0
    if meter:
        gauge_wall, gauge_cpu, speed = meter.since(mark)
        wall, cpu = wall - gauge_wall, cpu - gauge_cpu
    outputs, reasons = [], []
    for op, rec, err in zip(op_list, records, errors):
        outputs.append(None if rec is None else ops.canonical(rec))
        if err is None:
            try:
                err = op.check(rec)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                err = f"malformed output: {exc!r}"
        reasons.append(err)
    return Pass(wall, cpu, times, outputs, reasons, speed)


def _tally(op_list: list, passes: list[Pass], problems: list[str]):
    attempted = failed = 0
    unexpected = []
    for p in passes:
        for op, reason in zip(op_list, p.reasons):
            attempted += 1
            if reason is not None:
                failed += 1
                if op.known_defect is None:
                    unexpected.append(f"{op.name}: {reason}")
    # passes[0] is untraced, so this also compares traced with untraced output
    for p in passes[1:]:
        for op, a, b in zip(op_list, passes[0].outputs, p.outputs):
            if a != b:
                problems.append(f"{op.name}: output differs between passes")
    outcomes = [{"op": op.name, "ok": r is None, "reason": r,
                 "known_defect": op.known_defect}
                for op, r in zip(op_list, passes[0].reasons)]
    return attempted, failed, sorted(set(unexpected)), outcomes


def _keep_going(start: float, seconds: float, budget: float, last: float) -> bool:
    """Start another pass while under `seconds`, unless it would likely end
    after 1.4 x `seconds` or after the budget."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds and elapsed + last < min(1.4 * seconds, budget)


def untraced(op_list, seed, seconds, budget, problems):
    passes = []
    meter = gauge.Gauge()
    meter.start()
    try:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(op_list, seed, meter=meter))
            if not _keep_going(start, seconds, budget, passes[-1].wall):
                break
    finally:
        meter.stop()
    problems += [f"wrapper installed in an untraced run: {n}"
                 for n in spans.leftover_wrappers()]
    metrics = {
        "wall_ref_s": (statistics.median(p.wall * p.speed for p in passes), "s"),
        "cpu_ref_s": (statistics.median(p.cpu * p.speed for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, metrics


def traced(op_list, seed, seconds, budget, problems, spans_file: Path):
    plain, timed, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(op_list, seed))
        tracer = spans.Tracer()
        tracer.install()
        try:
            timed.append(run_pass(op_list, seed, tracer))
        finally:
            problems += [f"name not restored after tracing: {n}"
                         for n in tracer.uninstall()]
        m = spans.metrics(tracer)
        m["trace.self_sum_share"] = m.pop("trace.self_sum_s") / timed[-1].wall
        per_pass.append(m)
        if not _keep_going(start, seconds, budget, plain[-1].wall + timed[-1].wall):
            break
    _write_spans(spans_file, tracer)
    wall_plain = statistics.median(p.wall for p in plain)
    wall_traced = statistics.median(p.wall for p in timed)
    metrics = {k: (statistics.median(m[k] for m in per_pass), unit_of(k))
               for k in per_pass[0]}
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return plain + timed, metrics, tracer.missing


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name.endswith(".cases") or name.endswith(".max_dim"):
        return "count"
    if name.endswith(".mac"):
        return "mac-computed"
    if name.endswith(".bytes"):
        return "B-computed"
    if name.endswith(".cells"):
        return "cells"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def _write_spans(path: Path, tracer) -> None:
    """The last traced pass: rows of [name id, start s, end s, parent, tag]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.start[0] if tracer.start else 0.0
    rows = [[fid, round(a - t0, 7), round(b - t0, 7), parent, tracer.tag.get(i)]
            for i, (fid, a, b, parent) in
            enumerate(zip(tracer.fid, tracer.start, tracer.end, tracer.parent))]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "spans": rows}, fh, separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=150.0,
                        help="start no pass that would end later than this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-file", type=Path)
    args = parser.parse_args()
    env = {"setup_done": SETUP_DONE, "quiverhopf_file": quiverhopf.__file__}
    if args.probe:
        env["speed"] = gauge.Gauge().measure()
        print(json.dumps({"env": env}))
        return 0
    if args.workload is None or (args.trace and args.spans_file is None):
        parser.error("--workload is required, and --spans-file with --trace 1")

    op_list = ops.WORKLOADS[args.workload]()
    problems: list[str] = []
    missing: list[str] = []
    if args.trace:
        passes, metrics, missing = traced(op_list, args.seed, args.seconds, args.budget,
                                          problems, args.spans_file)
    else:
        passes, metrics = untraced(op_list, args.seed, args.seconds, args.budget,
                                   problems)
    attempted, failed, unexpected, outcomes = _tally(op_list, passes, problems)
    if args.trace:
        metrics["error_rate"] = (failed / attempted, "ratio")
    # ROADMAP item 4 removes backend_name() together with the compiled backend.
    backend = getattr(quiverhopf, "backend_name", lambda: "numpy")()
    env.update(python=sys.version.split()[0], numpy=np.__version__, backend=backend)
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(passes),
        "walls": [p.wall for p in passes],
        "cpus": [p.cpu for p in passes],
        "speeds": [p.speed for p in passes],
        "op_times": [p.times for p in passes],
        "unexpected_failures": unexpected,
        "problems": sorted(set(problems)),
        "functions_not_found": missing,
        "outcomes": outcomes,
        "env": env,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
