"""Command-line interface: ``flexionlab verify`` / ``flexionlab list-suites``.

Verdicts and serialized JSON are deterministic functions of the options
(unit, lengths, samples, seed, retry cap, jobs), so two runs with the same
options emit byte-identical JSON.  Wall time never enters a JSON report.
The worker count changes no verdict and no point, but the echoed config
carries it as ``jobs``: runs that differ only in ``--jobs`` differ only in
those lines.

``--out`` is opened when the run starts: a path that cannot be opened is a
usage error (exit 2) before any suite runs, and the file is always closed.

A JSON report is the chunks of one ``json.JSONEncoder.iterencode`` over the
``to_json()`` tree, written in batches of ``_BATCH`` chunks. Joining them
into one string first would hold the whole text and its copies at the end
of a run: at L=3 on every suite, a 2.4 MB text, that raised the peak RSS
of the process by 13 MiB. Batches keep the writes few: a ``write`` per
chunk into the text wrapper of a pipe costs about a second there.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from typing import IO, Iterable, Optional

from .canonical import get_unit
from .engine import PointRecord
from .suites import Config, SuiteReport, list_suites, run_suites, suite_names
from .words import rat_str

__all__ = ["main", "build_parser"]


def _format_word(w) -> str:
    if not w:
        return "()"
    return "".join(f"({rat_str(x.u)};{rat_str(x.v)})" for x in w)


def _format_point(point: PointRecord) -> str:
    lines = [
        f"      word:   {_format_word(point.word)}"
        + (f"  (split at {point.split})" if point.split is not None else ""),
        f"      lhs:    {'-' if point.lhs is None else rat_str(point.lhs)}",
        f"      rhs:    {'-' if point.rhs is None else rat_str(point.rhs)}",
    ]
    if point.detail:
        lines.append(f"      detail: {point.detail}")
    return "\n".join(lines)


def _text_suite_report(rep: SuiteReport) -> str:
    totals = rep.totals()
    elapsed = sum(r.seconds for r in rep.results)
    lines = [
        f"suite {rep.suite}  [{rep.anchor}]  {rep.status}"
        f"  ({totals['identities']} identities, {totals['points']} points, {elapsed:.1f}s)"
    ]
    for result in rep.results:
        if result.ok:
            marker = "ok  " if result.expect == "pass" else "okx "  # expected failure
        else:
            marker = "FAIL"
        lines.append(f"  {marker}  {result.name}")
        if not result.ok:
            lines.append(f"        expected {result.expect}, observed {result.observed}")
            shown = result.report.counterexample
            if shown is None:
                # an unexpected pass (broken negative control) or a
                # skipped-only length: show the first point as context
                shown = result.report.points[0] if result.report.points else None
            if shown is not None:
                lines.append(_format_point(shown))
            skipped = next(
                (p for p in result.report.points if p.status == "skipped"), None
            )
            if skipped is not None and skipped is not shown:
                lines.append("        first skipped point:")
                lines.append(_format_point(skipped))
    return "\n".join(lines)


_BATCH = 4096  # chunks joined per write


def _json_chunks(doc) -> Iterable[str]:
    """The chunks of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""
    return itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc), ("\n",))


def _open_out(args: argparse.Namespace) -> contextlib.AbstractContextManager[IO[str]]:
    """The open ``--out`` file, or stdout, which leaving the context leaves open."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        args.parser.error(f"cannot write --out {args.out}: {exc.strerror}")


def _emit(fh: IO[str], chunks: Iterable[str]) -> None:
    """Write the chunks to ``fh``, ``_BATCH`` of them at a time."""
    chunks = iter(chunks)
    while batch := list(itertools.islice(chunks, _BATCH)):
        fh.write("".join(batch))


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        get_unit(args.unit)
    except KeyError as exc:
        args.parser.error(exc.args[0])
    for flag, value, low in (
        ("--max-length", args.max_length, 0),
        ("--samples", args.samples, 1),
        ("--retry-cap", args.retry_cap, 0),
        ("--jobs", args.jobs, 0),
    ):
        if value < low:
            args.parser.error(f"{flag} must be >= {low}, got {value}")
    cfg = Config(
        unit=args.unit,
        max_length=args.max_length,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        retry_cap=args.retry_cap,
    )
    with _open_out(args) as fh:
        started = time.perf_counter()
        report = run_suites(args.suite or ["all"], cfg)
        elapsed = time.perf_counter() - started
        if args.report == "json":
            chunks = _json_chunks(report.to_json())
        else:
            # a suite's time is the sum of its items' times, which with --jobs > 1
            # ran in several workers and can exceed the overall wall time
            blocks = [_text_suite_report(s) for s in report.suites]
            blocks.append(f"overall: {report.status}  ({elapsed:.1f}s wall)")
            chunks = ["\n\n".join(blocks) + "\n"]
        _emit(fh, chunks)
    return 0 if report.status == "pass" else 1


def _cmd_list_suites(args: argparse.Namespace) -> int:
    with _open_out(args) as fh:
        rows = list_suites()
        if args.report == "json":
            chunks = _json_chunks(rows)
        else:
            name_w = max(len(r["suite"]) for r in rows)
            anchor_w = max(len(r["anchor"]) for r in rows)
            lines = [
                f"{r['suite']:<{name_w}}  {r['anchor']:<{anchor_w}}"
                f"  {r['identities']:>3d}  {r['description']}"
                for r in rows
            ]
            chunks = ["\n".join(lines) + "\n"]
        _emit(fh, chunks)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexionlab",
        description="Exact-rational verification suites for the flexion-algebra package.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one or more verification suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=suite_names(),
        help="suite to run (repeatable); default: all",
    )
    verify.add_argument("--unit", default="polar", help="flexion unit name (default: polar)")
    verify.add_argument("--max-length", type=int, default=4, help="max word length L")
    verify.add_argument("--samples", type=int, default=4, help="sample words per length")
    verify.add_argument("--seed", type=int, default=0, help="base RNG seed")
    verify.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = one per usable CPU, 1 = inline)"
    )
    verify.add_argument(
        "--retry-cap", type=int, default=8, help="resampling attempts on division by zero"
    )
    verify.add_argument("--report", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report to this path")
    verify.set_defaults(run=_cmd_verify, parser=verify)

    listing = sub.add_parser("list-suites", help="list registered suites with anchors")
    listing.add_argument("--report", choices=("text", "json"), default="text")
    listing.add_argument("--out", default=None, help="write the listing to this path")
    listing.set_defaults(run=_cmd_list_suites, parser=listing)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
