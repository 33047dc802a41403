"""Record the expected ``flexionlab verify`` report of each workload.

    python3 perfbench/record.py [--workload NAME ...] [--seeds K]

Runs each workload at program seeds 0..K-1 and writes, into
``perfbench/expected.json``, its item and point counts and the SHA-256 of
the report at each seed; workloads not named keep their entries. Every run
must exit 0 with every item ok and the same counts at every seed. Record
again only when a change alters the report on purpose, and say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import EXPECTED, WORKLOADS, FLEXIONLAB, child_env, load_expected, run_process


def record(workload, seeds: int, env: dict) -> dict:
    entry = {"items": None, "points": None, "sha256": {}}
    for seed in range(seeds):
        run = run_process(FLEXIONLAB + workload.verify_args(seed), env)
        report = json.loads(run.stdout)
        identities = [i for s in report["suites"] for i in s["identities"]]
        counts = (len(identities), sum(len(i["report"]["points"]) for i in identities))
        if run.returncode != 0 or not all(i["ok"] for i in identities):
            sys.exit(f"{workload.name} seed {seed}: exit status {run.returncode}, not all items ok")
        if entry["items"] is not None and counts != (entry["items"], entry["points"]):
            sys.exit(f"{workload.name} seed {seed}: counts {counts} differ from seed 0")
        entry["items"], entry["points"] = counts
        entry["sha256"][str(seed)] = hashlib.sha256(run.stdout).hexdigest()
        print(f"{workload.name} seed {seed}: {run.wall_s:.1f} s, {counts[0]} items,"
              f" {counts[1]} points", flush=True)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    expected = load_expected() if EXPECTED.exists() else {}
    env = child_env()
    for name in args.workload or sorted(WORKLOADS):
        expected[name] = record(WORKLOADS[name], args.seeds, env)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
