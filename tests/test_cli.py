from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import Future, process
from pathlib import Path

import pytest

import richflow
from richflow import cli
from richflow.cli import run
from richflow.errors import InternalDefectError

from conftest import CORPUS


def graph(name: str) -> str:
    return str(CORPUS / f"{name}.graph")


def test_check_admissible(capsys, k4):
    assert run(["check", graph("k4")]) == 0
    assert capsys.readouterr().out.strip() == "admissible"


def test_module_entry_point_runs():
    src = str(Path(richflow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "richflow.cli", "check", graph("k4")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "admissible"


def test_unexpected_error_exits_three(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_check", boom)
    assert run(["check", graph("k4")]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_check_inadmissible_message(capsys):
    assert run(["check", graph("c4")]) == 1
    out = capsys.readouterr().out.strip()
    assert out == "not admissible: 2-edge-cut {0,1} shares vertex 1"


def test_exact_theta(capsys):
    assert run(["exact", graph("t3"), "--kmax", "8"]) == 0
    assert "R = 4" in capsys.readouterr().out


def test_exact_inadmissible(capsys):
    assert run(["exact", graph("c4"), "--kmax", "8"]) == 1
    out = capsys.readouterr().out
    assert "not admissible" in out and "R = none" in out


def test_synth_then_verify(tmp_path, capsys):
    out = tmp_path / "dt.flow.json"
    assert run(["synth", graph("dt"), "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "bound = 611" in text
    payload = json.loads(out.read_text())
    assert payload["format"] == 1 and payload["group"] == "int"
    assert run(["verify", graph("dt"), str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines)


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "t3.flow.json"
    assert run(["synth", graph("t3"), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["edges"][0]["value"] = 0
    out.write_text(json.dumps(payload))
    assert run(["verify", graph("t3"), str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_synth_inadmissible_exit(tmp_path, capsys):
    assert run(["synth", graph("c4"), "-o", str(tmp_path / "x.json")]) == 1


def test_synth_trace_emits_json_lines(tmp_path, capsys):
    out = tmp_path / "k4.flow.json"
    assert run(["synth", graph("k4"), "-o", str(out), "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    trace_lines = [ln for ln in lines if ln.startswith("{")]
    assert trace_lines
    entry = json.loads(trace_lines[0])
    assert "steps" in entry and "diagnostics" in entry


def test_oracle_nz_bridge(capsys):
    assert run(["oracle-nz", graph("bridge"), "--group", "z6"]) == 1


def test_oracle_nz_zk(capsys):
    assert run(["oracle-nz", graph("k4"), "--group", "zk:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == "zk" and payload["k"] == 5


def test_usage_errors_exit_two(capsys):
    assert run(["exact", graph("t3"), "--kmax", "1"]) == 2
    assert run(["oracle-nz", graph("k4"), "--group", "zk:4"]) == 2
    assert run(["check", str(CORPUS / "missing.graph")]) == 2
    assert run(["bogus-command"]) == 2


def test_batch_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run(["batch", str(CORPUS), "--report", str(report)]) == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert len(rows) == len(list(CORPUS.glob("*.graph")))
    by_name = {r["graph_path"]: r for r in rows}
    assert by_name["t3.graph"]["exact_R"] == "4"
    assert by_name["dt.graph"]["chi_prime"] == "6"
    assert by_name["c4.graph"]["status"] == "not_admissible"
    for row in rows:
        if row["admissible"] == "true":
            assert int(row["synth_max_abs"]) < int(row["synth_bound"])


def test_batch_jobs_rows_identical(tmp_path):
    directory = tmp_path / "graphs"
    shutil.copytree(CORPUS, directory)
    (directory / "broken.graph").write_text("3 2\n0 1\n")
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    assert run(["batch", str(directory), "--report", str(r1)]) == 0
    assert run(["batch", str(directory), "--report", str(r2), "--jobs", "4"]) == 0

    def strip_elapsed(path):
        rows = list(csv.DictReader(path.read_text().splitlines()))
        for r in rows:
            r.pop("elapsed_ms")
        return rows

    assert strip_elapsed(r1) == strip_elapsed(r2)
    broken = next(r for r in strip_elapsed(r2) if r["graph_path"] == "broken.graph")
    assert broken["status"].startswith("parse_error: edge count mismatch")


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool with one that runs each row at submit, in this
    process; returns its log of worker counts asked for and of shutdowns."""
    log: list = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            log.append(("workers", max_workers))

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            log.append(("shutdown", cancel_futures))

    monkeypatch.setattr(process, "ProcessPoolExecutor", InlinePool)
    return log


def test_batch_worker_defect_exits_three(monkeypatch, tmp_path, capsys):
    def boom(_):
        raise InternalDefectError("synthetic")

    # Workers are forked, so they see the patched function.
    monkeypatch.setattr(cli, "synthesize_rich_flow", boom)
    code = run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"])
    assert code == 3
    assert "internal defect: synthetic" in capsys.readouterr().err


def test_batch_error_shuts_pool_down_with_cancel(monkeypatch, tmp_path, inline_pool):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def boom(_):
        raise InternalDefectError("synthetic")

    monkeypatch.setattr(cli, "synthesize_rich_flow", boom)
    assert run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"]) == 3
    assert inline_pool == [("workers", 2), ("shutdown", True)]


def test_batch_empty_directory_writes_header_only(tmp_path, inline_pool):
    directory = tmp_path / "empty"
    directory.mkdir()
    report = tmp_path / "r.csv"
    assert run(["batch", str(directory), "--report", str(report), "--jobs", "2"]) == 0
    assert report.read_text() == ",".join(cli.BATCH_COLUMNS) + "\n"
    assert inline_pool == []


def test_batch_worker_count_is_capped(monkeypatch, tmp_path, inline_pool):
    files = len(list(CORPUS.glob("*.graph")))
    cpus = len(os.sched_getaffinity(0))
    report = tmp_path / "r.csv"
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", "10000"]) == 0
    assert inline_pool == ([("workers", min(files, cpus)), ("shutdown", True)] if cpus > 1 else [])
    inline_pool.clear()
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 10**6)
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", "10000"]) == 0
    assert inline_pool == [("workers", files), ("shutdown", True)]
