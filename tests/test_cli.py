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
from richflow import cli, multigraph, oracle
from richflow.cli import run
from richflow.errors import InternalDefectError
from richflow.flowalg import read_flow_json, verify_flow
from richflow.multigraph import format_multigraph

from conftest import ADMISSIBLE_NAMES, CORPUS, doubled_cycle


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


@pytest.mark.parametrize(
    ("name", "code", "expected"),
    [
        ("t3", 0, "R = 4\n"),
        ("c4", 1, "not admissible: 2-edge-cut {0,1} shares vertex 1\nR = none\n"),
    ],
)
def test_exact_checks_admissibility_once(monkeypatch, capsys, name, code, expected):
    calls = []

    def counted(g):
        calls.append(g)
        return multigraph.is_rich_flow_admissible(g)

    monkeypatch.setattr(cli, "is_rich_flow_admissible", counted)
    monkeypatch.setattr(oracle, "is_rich_flow_admissible", counted)
    assert run(["exact", graph(name), "--kmax", "8"]) == code
    assert capsys.readouterr().out == expected
    # The oracle checks once; the CLI again only to word a refusal.
    assert len(calls) == 1 + code


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


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_verify_accepts_every_golden_certificate(capsys):
    for name in ADMISSIBLE_NAMES:
        assert run(["verify", graph(name), str(GOLDEN / f"{name}.flow.json")]) == 0, name
        assert capsys.readouterr().out == (
            "conserved: PASS\nnowhere_zero: PASS\nbound_ok: PASS\nadjacent_abs_distinct: PASS\n"
        )


# A (Z_11 x Z_2) flow of t3, all edges 0 -> 1: (3, 1), (7, 1), (1, 0).
PAIR_CERTIFICATE = {"format": 1, "group": "zkxz2", "k": 11, "edges": [
    {"id": e, "tail": 0, "head": 1, "value": v} for e, v in enumerate(([3, 1], [7, 1], [1, 0]))
]}
DROP = object()
# name -> (base certificate, path to the edited field, new value or DROP).
# The "t3" base is t3's golden certificate, whose edge 2 carries 12 on 0 -> 1.
CERTIFICATE_EDITS = {
    "fractional value": ("t3", ("edges", 2, "value"), 12.4),
    "string value": ("t3", ("edges", 2, "value"), "12"),
    "boolean value": ("t3", ("edges", 2, "value"), True),
    "null value": ("t3", ("edges", 2, "value"), None),
    "missing value": ("t3", ("edges", 2, "value"), DROP),
    "string bound": ("t3", ("bound",), "x"),
    "fractional bound": ("t3", ("bound",), 347.0),
    "boolean id": ("t3", ("edges", 0, "id"), False),
    "string tail": ("t3", ("edges", 1, "tail"), "0"),
    "missing head": ("t3", ("edges", 1, "head"), DROP),
    "boolean format": ("t3", ("format",), True),
    "row not an object": ("t3", ("edges", 0), [0, 0, 1, -332]),
    "scalar pair value": ("pairs", ("edges", 0, "value"), 3),
    "short pair value": ("pairs", ("edges", 0, "value"), [3]),
    "fractional pair entry": ("pairs", ("edges", 0, "value"), [3, 1.0]),
    "boolean pair entry": ("pairs", ("edges", 0, "value"), [3, True]),
    "string k": ("pairs", ("k",), "11"),
}


@pytest.mark.parametrize("edit", CERTIFICATE_EDITS)
def test_verify_rejects_malformed_certificate_fields(tmp_path, capsys, edit):
    base, (*where, last), value = CERTIFICATE_EDITS[edit]
    if base == "t3":
        cert = json.loads((GOLDEN / "t3.flow.json").read_text())
    else:
        cert = json.loads(json.dumps(PAIR_CERTIFICATE))
    path = tmp_path / "t3.flow.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", graph("t3"), str(path)]) == 0
    target = cert
    for key in where:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", graph("t3"), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error" not in captured.err


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


def test_oracle_nz_on_a_long_doubled_cycle(tmp_path, capsys):
    # 1,201 co-tree edges, more than Python's default recursion limit.
    g = doubled_cycle(1200)
    path = tmp_path / "doubled.graph"
    path.write_text(format_multigraph(g))
    assert run(["oracle-nz", str(path), "--group", "z2"]) == 0
    rep = verify_flow(g, read_flow_json(capsys.readouterr().out, g))
    assert rep.conserved and rep.nowhere_zero


def test_usage_errors_exit_two(capsys):
    assert run(["exact", graph("t3"), "--kmax", "1"]) == 2
    assert run(["exact", graph("c4"), "--node-limit", "0"]) == 2
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_corpus_matches_golden_report(monkeypatch, tmp_path, jobs):
    # Only the node limits bind, so every column but elapsed_ms is fixed; a
    # change to the oracles or the synthesis that moves one must update this.
    monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", "1000000")
    report = tmp_path / "report.csv"
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", jobs]) == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    for row in rows:
        row.pop("elapsed_ms")
    golden = Path(__file__).resolve().parent / "golden" / "corpus_batch.csv"
    assert rows == list(csv.DictReader(golden.read_text().splitlines()))


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
