#!/usr/bin/env python3
"""kronset benchmark: time to a certified bracket, checked against oracles.

Run from the root of a kronset checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

The benchmark builds a seeded task list (see ``workloads.py``), imports
``kronset`` from ``src/`` and drives it the way a user does: one
``kronset.cli.main([...])`` call per task with ``--no-timestamp``, stdout
captured and parsed as JSON, one task at a time in this process (a closed
loop with one client).  It repeats the whole task list for ``--seconds``
seconds, then checks every report (``checks.py``).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics (``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, list failing tasks and record provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics, tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
#: set-up samples per run: this process plus fresh interpreters
SETUP_SAMPLES = 9
#: calibration calls timed right after each set-up sample
SETUP_CALIBRATIONS = 5
#: times are reported in seconds at the machine speed at which one
#: ``calibrate()`` call takes this long (see the README)
CALIBRATION_REF_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s_p50": "s",
    "certified_frac": "ratio",
    "bracket_width_mean": "rad",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
#: printed on every run but not declared in BENCHMARK.json: both can be 0
UNDECLARED = ("bracket_width_mean", "failed_frac")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny task instead of the workload's list")
    p.add_argument("--out", default=None,
                   help="also write the full record (tasks, reports, metrics) here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up and one pass over the task list
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, smoke: bool):
    """Import kronset, generate the task list, run one tiny warm-up task.
    Returns (reference seconds, cli module, tasks): the set-up time is
    scaled by the calibration kernel timed right after it."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kronset.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "kronset":
        raise RuntimeError(f"kronset imported from {cli.__file__}, not from {SRC}")
    tasks = workloads.smoke(workload) if smoke else workloads.WORKLOADS[workload](seed)
    code, _ = call_cli(cli, workloads.WARMUP)
    if code != 0:
        raise RuntimeError(f"warm-up task exited with {code}")
    seconds = time.perf_counter() - start
    speed = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    return seconds * CALIBRATION_REF_S / speed, cli, tasks


def call_cli(cli, argv):
    """One in-process ``kronset`` call: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv) + ["--no-timestamp"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def calibrate() -> float:
    """Time a fixed mix of an interpreter loop and many numpy calls on tiny
    arrays, the two costs that dominate kronset's tasks.  Run right before
    every task, it tracks how fast the machine is at that moment."""
    import numpy as np
    x = np.arange(8, dtype=np.float64)
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(1_500):
        np.abs(x - 0.5).max()
    return time.perf_counter() - start


def run_pass(cli, tasks) -> dict:
    runs, calibration = [], []
    start = time.perf_counter()
    for task in tasks:
        calibration.append(calibrate())
        t0 = time.perf_counter()
        try:
            code, out = call_cli(cli, task["argv"])
            error = None
        except Exception as exc:  # a raising task is a failed task, not a crash
            code, out, error = None, "", f"raised {type(exc).__name__}: {exc}"
        runs.append({"task": task, "code": code, "out": out, "error": error,
                     "seconds": time.perf_counter() - t0})
    # the calibration right before a task converts its time to reference
    # seconds: the machine's speed changes from one task to the next
    for run, cal in zip(runs, calibration):
        run["scaled"] = run["seconds"] * CALIBRATION_REF_S / cal
    return {"wall": time.perf_counter() - start, "runs": runs,
            "calibration": calibration}


def measure(cli, tasks, seconds: float, trace: bool):
    """Repeat whole passes until the next one would overrun ``seconds``.
    Traced runs alternate untraced and traced passes, at least one each."""
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        with tracing(tracer) if traced else contextlib.nullcontext():
            result = run_pass(cli, tasks)
        result["traced"] = traced
        passes.append(result)
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + result["wall"] > seconds:
            return passes, tracer


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def check_passes(cli, passes) -> None:
    """Attach the list of problems to every task run.  The oracles run once
    per task; later passes must repeat the first pass's report exactly,
    work counters included."""
    import checks
    first = {}
    for p in passes:
        for run in p["runs"]:
            task = run["task"]
            if run["error"]:
                run["problems"] = [run["error"]]
                continue
            report = _parse(run["out"])
            run["report"] = report
            if task["id"] not in first:
                problems = checks.check_report(task, run["code"], report)
                if "--threads" in task["argv"] and report is not None:
                    serial = _without_threads(task["argv"])
                    _, ref_out = call_cli(cli, serial)
                    problems += checks.same_result(report, _parse(ref_out))
                first[task["id"]] = (run["out"], problems)
                run["problems"] = problems
            else:
                ref_out, ref_problems = first[task["id"]]
                run["problems"] = list(ref_problems)
                if run["out"] != ref_out:
                    run["problems"].append("report differs from the first pass")


def _parse(out: str):
    try:
        return json.loads(out) if out.strip() else None
    except json.JSONDecodeError:
        return None


def _without_threads(argv):
    i = argv.index("--threads")
    return argv[:i] + argv[i + 2:]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _width(report) -> float | None:
    res = report["result"] if report else None
    if not res:
        return None
    if "alpha" in res:
        return res["alpha"]["width"]
    brackets = res.get("data", {}).get("brackets")
    if brackets:  # the gallery's answer is its largest truncation
        return brackets[-1]["upper"] - brackets[-1]["lower"]
    return None


def task_medians(passes, key: str = "scaled") -> list[float]:
    """Each task's median time over the passes, in task-list order."""
    times = {}
    for p in passes:
        for run in p["runs"]:
            times.setdefault(run["task"]["id"], []).append(run[key])
    return [statistics.median(t) for t in times.values()]


def speed_scale(passes) -> float:
    """Reference seconds per measured second over the whole run."""
    return CALIBRATION_REF_S / statistics.median(
        c for p in passes for c in p["calibration"])


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict:
    runs = [r for p in passes for r in p["runs"]]
    widths = [w for w in (_width(r.get("report")) for r in runs) if w is not None]
    medians = task_medians(passes)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "task_s_p50": statistics.median(medians),
        "certified_frac": sum(r["code"] == 0 for r in runs) / len(runs),
        "bracket_width_mean": statistics.fmean(widths) if widths else 0.0,
        "peak_rss_mb": rss_mb,
        "failed_frac": sum(bool(r["problems"]) for r in runs) / len(runs),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_samples(args, first: float) -> list[float]:
    """Set-up times of this process and of fresh interpreters."""
    samples = [first]
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"] + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def provenance(args, tasks, passes) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "kronset").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    counters = {}
    for run in passes[0]["runs"]:
        work = ((run.get("report") or {}).get("result") or {}).get("work")
        if work:
            counters[run["task"]["id"]] = work
    return {
        "work_digest": hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()).hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "tasks_per_pass": len(tasks),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit, "src_sha256": digest.hexdigest(),
        "tasks": [{"id": t["id"], "argv": t["argv"]} for t in tasks],
        "work_counters": counters,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kronset" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} is not a kronset checkout (needs src/kronset and"
              " tests/oracles.py)", file=sys.stderr)
        return 2
    setup_s, cli, tasks = set_up(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    passes, tracer = measure(cli, tasks, args.seconds, bool(args.trace))
    rss_mb = peak_rss_mb()
    sys.path.insert(0, str(TESTS))
    check_passes(cli, passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        overhead = sum(task_medians(traced)) / sum(task_medians(plain)) - 1.0
        metrics = layer_metrics(tracer, len(traced), overhead)
        printed = metrics
    else:
        setup_s = statistics.median(setup_samples(args, setup_s))
        printed = end_to_end(plain, setup_s, rss_mb)
        metrics = {k: v for k, v in printed.items() if k not in UNDECLARED}
    runs = [r for p in passes for r in p["runs"]]
    failed = [r for r in runs if r["problems"]]
    record = {"provenance": provenance(args, tasks, passes), "metrics": printed}
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for r in failed:
        print(f"FAILED {r['task']['id']}: {'; '.join(r['problems'])}  argv={r['task']['argv']}")
    for name, m in printed.items():
        note = f" (median of {len(tasks)} per-task medians)" if name == "task_s_p50" else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"tasks {len(tasks)} per pass, {len(passes)} passes, {len(runs)} task runs")
    raw = task_medians(plain, "seconds")
    print(f"measured (unscaled) wall_s = {sum(raw):.6g} s, task_s_p50 ="
          f" {statistics.median(raw):.6g} s; reference seconds per measured second"
          f" = {speed_scale(plain):.4g}")
    if args.out:
        record["task_runs"] = [
            {"id": r["task"]["id"], "seconds": r["seconds"], "code": r["code"],
             "problems": r["problems"], "report": r.get("report")} for r in runs]
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
