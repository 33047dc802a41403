"""Benchmark of the ``flexionlab verify`` command line.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload wide-L3 --seed 3 --seconds 50 --trace 0

``--trace 0`` drives the command line as a user would: one fresh
``flexionlab verify --jobs 1 --report json`` process after another for
``--seconds`` seconds, each gated on its exit status, its verdicts, its item
and point counts and the SHA-256 of its report. It prints the end-to-end
metrics. ``--trace 1`` makes one untraced run, then rebuilds the same report
in this process with one fresh ``EvalContext`` per item while timing the
calls into each module (``layers.py``), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` and
``failed`` count items; every item of a run fails when the run exits
non-zero or its report differs from the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5  # per verify run
# A run must end within 180 s; past this many seconds it stops itself.
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Workload:
    """One ``flexionlab verify`` configuration; the seed comes per run."""

    name: str
    suites: tuple[str, ...]  # () runs every registered suite
    max_length: int
    samples: int

    def verify_args(self, seed: int) -> list[str]:
        args = ["verify"]
        for suite in self.suites:
            args += ["--suite", suite]
        return args + [
            "--max-length", str(self.max_length),
            "--samples", str(self.samples),
            "--seed", str(seed),
            "--jobs", "1",
            "--report", "json",
        ]


# Why each workload exists is recorded in BENCHMARK.json. all-L4 is the
# ROADMAP reference run (about 47 s for one process); it is too long to
# repeat within the benchmark's time budget, so BENCHMARK.json leaves it
# out and it is run by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("theorems-L5", ("senary", "push-sena"), 5, 2),
        Workload("wide-L3", (), 3, 8),
        Workload("all-L4", (), 4, 4),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
    "checked_share": "share",
}


class Overrun(Exception):
    """The run passed RUN_LIMIT_S."""


def _overrun(signum, frame):
    raise Overrun(f"run exceeded {RUN_LIMIT_S} s")


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def program_seed(expected: dict, seed: int) -> int:
    """The ``--seed`` given to the program for benchmark seed ``seed``.

    Report hashes are recorded for program seeds 0..K-1 (``record.py``), so
    benchmark seeds wrap around that table and every run is checked against
    a recorded hash.
    """
    return seed % len(expected["sha256"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


FLEXIONLAB = [sys.executable, "-m", "flexionlab.cli"]


@dataclass
class Run:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes


def run_process(argv: list[str], env: dict) -> Run:
    """Run ``argv`` to its end; its wall time, peak RSS and standard output."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
        # wait4 returns this child's own rusage; RUSAGE_CHILDREN would give
        # the maximum over every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024, out)


@dataclass
class Verdict:
    attempted: int  # items
    failed: int
    skipped: int  # points
    sha256: str
    problems: list[str]


def judge(returncode: int, payload: bytes, expected: dict, seed: int) -> Verdict:
    """Gate one report: exit status, item verdicts, counts and SHA-256."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    sha = hashlib.sha256(payload).hexdigest()
    want = expected["sha256"][str(seed)]
    if sha != want:
        problems.append(f"report SHA-256 {sha[:12]} is not the recorded {want[:12]}")
    items = not_ok = points = skipped = 0
    try:
        for suite in json.loads(payload)["suites"]:
            for identity in suite["identities"]:
                items += 1
                not_ok += not identity["ok"]
                for point in identity["report"]["points"]:
                    points += 1
                    skipped += point["status"] == "skipped"
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report ({exc!r})")
    if (items, points) != (expected["items"], expected["points"]):
        problems.append(
            f"{items} items and {points} points, expected"
            f" {expected['items']} and {expected['points']}"
        )
    # a run that fails the gate fails all its items; otherwise the not-ok ones
    failed = expected["items"] if problems else not_ok
    if not_ok:
        problems.append(f"{not_ok} items not ok")
    return Verdict(expected["items"], failed, skipped, sha, problems)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(env: dict, suites: tuple[str, ...]) -> tuple[list[float], list[str]]:
    """Wall times of SETUP_PROBES fresh ``list-suites`` processes."""
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        run = run_process(FLEXIONLAB + ["list-suites", "--report", "json"], env)
        times.append(run.wall_s)
        try:
            listed = {row["suite"] for row in json.loads(run.stdout)}
        except (ValueError, KeyError, TypeError):
            listed = set()
        if run.returncode != 0 or not set(suites or ["all"]) <= listed:
            problems.append(f"list-suites: exit status {run.returncode}, listed {sorted(listed)}")
    return times, problems


def untraced(workload: Workload, expected: dict, seed: int, seconds: float) -> dict:
    env = child_env()
    run_process(FLEXIONLAB + ["list-suites"], env)  # fills the bytecode cache
    setup: list[float] = []
    problems: list[str] = []
    runs: list[Run] = []
    verdicts: list[Verdict] = []
    start = time.perf_counter()
    while True:
        # set-up probes before each verify run sample the whole run's time
        times, issues = measure_setup(env, workload.suites)
        setup += times
        problems += issues
        run = run_process(FLEXIONLAB + workload.verify_args(seed), env)
        verdict = judge(run.returncode, run.stdout, expected, seed)
        runs.append(run)
        verdicts.append(verdict)
        problems += verdict.problems
        print(
            f"verify run {len(runs)}: {run.wall_s:.2f} s, {run.peak_rss_mb:.1f} MiB,"
            f" sha256 {verdict.sha256[:12]}, {verdict.attempted} items,"
            f" {verdict.failed} failed",
            flush=True,
        )
        elapsed = time.perf_counter() - start
        # start another run only if it should end within the time given
        if elapsed + elapsed / len(runs) > seconds:
            break
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    wall = statistics.median(r.wall_s for r in runs)
    points = len(runs) * expected["points"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": expected["points"] / wall,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "ok_share": 1 - failed / attempted,
        "checked_share": 1 - sum(v.skipped for v in verdicts) / points,
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: metric(v, E2E_UNITS[name]) for name, v in values.items()},
    }


def traced(workload: Workload, expected: dict, seed: int) -> dict:
    run = run_process(FLEXIONLAB + workload.verify_args(seed), child_env())
    cli = judge(run.returncode, run.stdout, expected, seed)
    print(f"untraced verify: {run.wall_s:.2f} s, sha256 {cli.sha256[:12]}", flush=True)

    sys.path.insert(0, str(SRC))
    import layers

    trace = layers.trace_run(workload, seed)
    payload = layers.report_bytes(trace.report)
    rebuilt = judge(0 if trace.report.status == "pass" else 1, payload, expected, seed)
    problems = cli.problems + [f"rebuilt: {p}" for p in rebuilt.problems]
    if rebuilt.sha256 != cli.sha256:
        problems.append(f"rebuilt report SHA-256 {rebuilt.sha256[:12]} != CLI {cli.sha256[:12]}")
    print(f"rebuilt in process: sha256 {rebuilt.sha256[:12]}", flush=True)

    values = layers.layer_metrics(trace, run.wall_s)
    values.update(layers.microbenchmarks(trace.report))
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
    layers.write_trace(out, trace, values)
    print(f"top item: {trace.top_item[0]} ({trace.top_item[1]:.2f} s); spans in {out.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": cli.attempted + rebuilt.attempted,
        "failed": cli.failed + rebuilt.failed,
        "problems": problems,
        "metrics": {name: metric(v, unit) for name, (v, unit) in values.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flexionlab" / "cli.py").is_file():
        print(f"perfbench: no flexionlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = load_expected()[workload.name]
    seed = program_seed(expected, args.seed)
    print(f"workload {workload.name}, benchmark seed {args.seed}, program seed {seed}", flush=True)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_LIMIT_S)
    try:
        if args.trace:
            result = traced(workload, expected, seed)
        else:
            result = untraced(workload, expected, seed, args.seconds)
    except Overrun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    for problem in result.pop("problems"):
        print(f"FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
