from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import richflow
from richflow import cli
from richflow.cli import run

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
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    assert run(["batch", str(CORPUS), "--report", str(r1)]) == 0
    assert run(["batch", str(CORPUS), "--report", str(r2), "--jobs", "4"]) == 0

    def strip_elapsed(path):
        rows = list(csv.DictReader(path.read_text().splitlines()))
        for r in rows:
            r.pop("elapsed_ms")
        return rows

    assert strip_elapsed(r1) == strip_elapsed(r2)
