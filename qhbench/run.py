"""quiverhopf benchmark: one workload, timed end to end or traced per module.

    python3 qhbench/run.py --workload nichols --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  The workload runs in a fresh worker process (worker.py).
With ``--trace 0`` the last line of stdout holds wall_ref_s, cpu_ref_s,
peak_rss_mb and setup_s; with ``--trace 1`` it holds the per-module metrics of a traced
pass.  The full result, stamped with the source revision and the machine,
goes to .bench_out/ in the checkout, and a traced run also writes its spans
there.  Exits 2 without a result when the checkout has no src/quiverhopf.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("nichols", "census", "verify", "reptheory")
SETUP_PROBES = 7               # plus one untimed probe that warms the bytecode cache
TIME_LIMIT = 170.0             # seconds for the whole run, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def _spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and the JSON of its last line."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    if not Path(doc["env"]["quiverhopf_file"]).resolve().is_relative_to(SRC):
        raise RunError(f"imported {doc['env']['quiverhopf_file']}, not {SRC}")
    return spawned, doc


def _setup_seconds(spawned: float, doc: dict) -> tuple[float, float]:
    """Seconds from spawn to the end of ``import quiverhopf``, and the speed
    factor the probe measured right after it."""
    return doc["env"]["setup_done"] - spawned, doc["env"]["speed"]


def _git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(env: dict) -> dict:
    """Where and on what a result was measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": env["python"],
        "numpy": env["numpy"],
        "backend": env["backend"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run(args: argparse.Namespace) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    setups = []
    if not args.trace:
        _spawn(["--probe"], env, deadline)
        for _ in range(SETUP_PROBES):
            setups.append(_setup_seconds(*_spawn(["--probe"], env, deadline)))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    budget = deadline - time.monotonic() - 10.0
    _, doc = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--budget", str(budget),
                     "--trace", str(args.trace),
                     "--spans-file", str(OUT / f"{args.workload}.spans.json")],
                    env, deadline)
    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(t * f for t, f in setups),
                              "unit": "s"}
        doc["setup_samples"] = setups
    doc["stamp"] = stamp(doc.pop("env"))
    doc["workload"], doc["seed"], doc["trace"] = args.workload, args.seed, args.trace
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "quiverhopf" / "__init__.py").is_file():
        print(f"error: no quiverhopf package under {SRC}", file=sys.stderr)
        return 2
    try:
        doc = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in doc["unexpected_failures"] + doc["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    for o in doc["outcomes"]:
        if not o["ok"] and o["known_defect"]:
            print(f"known defect {o['op']}: {o['reason']}", file=sys.stderr)
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
