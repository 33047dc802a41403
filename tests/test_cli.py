"""Tests for the ``flexionlab`` command line."""

from __future__ import annotations

import itertools
import json
import re
import time

import pytest

from flexionlab.cli import main

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
