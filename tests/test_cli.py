"""Tests for the ``flexionlab`` command line."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from flexionlab import cli
from flexionlab.cli import main
from flexionlab.engine import PointRecord, Report
from flexionlab.suites import (
    Config,
    ItemResult,
    RunReport,
    SuiteReport,
    list_suites,
    run_suites,
)
from flexionlab.words import word

ARGS = ["verify", "--suite", "unit-axioms", "--max-length", "2", "--samples", "1", "--jobs", "1"]


def _verify(tmp_path, monkeypatch, report, tick):
    """Run ``verify`` with a clock that advances ``tick`` seconds per reading."""
    clock = itertools.count(step=tick)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    out = tmp_path / f"report.{report}"
    assert main(ARGS + ["--report", report, "--out", str(out)]) == 0
    return out.read_bytes()


def test_text_report_shows_suite_and_overall_time(tmp_path, monkeypatch):
    text = _verify(tmp_path, monkeypatch, "text", tick=1.0).decode()
    # every item reads the clock twice, so each of the six items takes 1 s
    assert re.search(r"suite unit-axioms .*\(6 identities, \d+ points, 6\.0s\)", text)
    assert re.search(r"overall: pass  \(\d+\.\ds wall\)", text)
    assert "0.0s" not in text


def test_json_report_bytes_do_not_depend_on_time(tmp_path, monkeypatch):
    slow = _verify(tmp_path, monkeypatch, "json", tick=3.0)
    fast = _verify(tmp_path, monkeypatch, "json", tick=0.5)
    assert slow == fast
    assert b"seconds" not in slow


@pytest.mark.parametrize(
    "flag, value",
    [("--max-length", "-1"), ("--samples", "0"), ("--retry-cap", "-1"), ("--jobs", "-3")],
)
def test_verify_rejects_out_of_range_counts(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(ARGS + [flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--unit", "nosuch"), ("--samples", "0")])
def test_verify_errors_come_from_the_verify_parser(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(ARGS + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "flexionlab verify: error:" in err
    assert '"' not in err


@pytest.mark.parametrize(
    "argv, run", [(ARGS, "run_suites"), (["list-suites"], "list_suites")], ids=["verify", "list-suites"]
)
def test_an_out_path_that_cannot_be_opened_fails_before_the_run(argv, run, tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("ran before --out was opened")

    monkeypatch.setattr(cli, run, unreachable)
    out = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"flexionlab {argv[0]}: error: cannot write --out {out}: No such file or directory" in err


def test_out_is_closed_when_the_run_raises(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def failing(*args):
        raise RuntimeError("a suite raised")

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(cli, "run_suites", failing)
    with pytest.raises(RuntimeError, match="a suite raised"):
        main(ARGS + ["--out", str(tmp_path / "r.txt")])
    assert len(opened) == 1 and opened[0].closed


def test_list_suites_json_to_file(tmp_path, capsys):
    out = tmp_path / "suites.json"
    assert main(["list-suites", "--report", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 12
    assert rows[-1]["suite"] == "all"
    assert rows[-1]["identities"] == 169
    assert sum(row["identities"] for row in rows[:-1]) == 169


def test_text_report_names_an_item_that_checked_nothing(tmp_path):
    out = tmp_path / "report.txt"
    args = ["verify", "--suite", "symmetry", "--max-length", "1", "--samples", "1", "--jobs", "1"]
    assert main(args + ["--out", str(out)]) == 1
    text = out.read_text()
    assert "  FAIL  generic-alternal (control)\n        expected fail, observed unchecked\n" in text


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _both_routes(args, tmp_path, capsys) -> tuple[str, str]:
    """The report of ``args`` written through ``--out`` and to stdout."""
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    return out.read_text(), capsys.readouterr().out


def test_json_report_is_json_dumps_through_both_routes(tmp_path, capsys):
    args = ["verify", "--suite", "algebra-core", "--max-length", "2", "--samples", "3"]
    args += ["--jobs", "1", "--report", "json"]
    doc = run_suites(["algebra-core"], Config(max_length=2, samples=3, jobs=1)).to_json()
    # two full batches of the writer and a part of a third
    assert len(list(cli._json_chunks(doc))) > 2 * cli._BATCH
    to_file, to_stdout = _both_routes(args, tmp_path, capsys)
    assert to_file == to_stdout == _dumps(doc)


def test_list_suites_json_is_json_dumps_through_both_routes(tmp_path, capsys):
    to_file, to_stdout = _both_routes(["list-suites", "--report", "json"], tmp_path, capsys)
    assert to_file == to_stdout == _dumps(list_suites())


def _synthetic_report(points: int) -> RunReport:
    """A report of ``points`` points, none of them evaluated."""
    w = word([(Fraction(1, 2), Fraction(-3, 7)), (Fraction(5), Fraction(2, 9))])
    records = [PointRecord(f"p{i}", 2, w, Fraction(i, 7), Fraction(i, 7)) for i in range(points)]
    cfg = Config(jobs=1)
    result = ItemResult("synthetic", "pass", Report("synthetic", records))
    return RunReport(cfg, [SuiteReport("synthetic", "none", cfg, [result])])


def test_json_writer_holds_a_fraction_of_the_text(tmp_path):
    doc = _synthetic_report(8000).to_json()
    size = len(_dumps(doc))
    assert size >= 2_000_000
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        with open(out, "w", encoding="utf-8") as fh:
            cli._emit(fh, cli._json_chunks(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size  # the text is ASCII
    assert peak < size / 4


def test_verify_loads_neither_openssl_nor_the_process_pool(tmp_path):
    out = tmp_path / "report.json"
    script = f"""if True:
        import sys
        from flexionlab.cli import main
        code = main({ARGS + ["--report", "json", "--out", str(out)]!r})
        loaded = [m for m in ("_hashlib", "concurrent.futures", "multiprocessing") if m in sys.modules]
        print(code, loaded)
        """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "[]"]
    assert json.loads(out.read_text())["status"] == "pass"


def test_engine_blake2b_is_hashlibs():
    import _blake2
    import hashlib

    # DigestMould values and derived_rng seeds are hashlib.blake2b digests
    assert _blake2.blake2b is hashlib.blake2b


@pytest.mark.parametrize("to_file", [False, True])
def test_text_report_needs_no_utf8_locale(tmp_path, to_file):
    # under the C locale stdout and files default to ASCII; the text report
    # must encode there, expected failures ("okx") included
    out = tmp_path / "report.txt"
    args = ["verify", "--suite", "senary", "--max-length", "2", "--samples", "1", "--jobs", "1"]
    if to_file:
        args += ["--out", str(out)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    run = subprocess.run([sys.executable, "-m", "flexionlab.cli", *args], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    text = (out.read_bytes() if to_file else run.stdout).decode("ascii")
    assert "  okx   senary-relation-generic (control)\n" in text
    assert text.endswith("s wall)\n") and "overall: pass" in text
