from __future__ import annotations

import csv
import importlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import richflow
from richflow import cli, multigraph, oracle
from richflow.cli import run
from richflow.errors import InternalDefectError
from richflow.flowalg import read_flow_json, verify_flow

from conftest import ADMISSIBLE_NAMES, CORPUS, doubled_cycle, load
from reference_flow import format_multigraph

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    # The CLI checks once and hands its verdict to the oracle, which words
    # a refusal from the same verdict.
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, count", [("k4", 2), ("petersen", 2), ("two_k4", 3), ("three_k4", 4), ("bridge", 0)]
)
def test_batch_row_enumerates_two_edge_cuts(monkeypatch, name, count):
    # One verdict for the row, handed to the oracle and to synthesis, plus
    # build_tower's guard per tower; split_on_two_cut computes none (a near
    # side's cuts are read off its host's list, and build_tower guards the
    # far side), and a graph with a bridge is refused before any
    # enumeration.
    calls = []
    real = multigraph.enumerate_two_edge_cuts
    monkeypatch.setattr(multigraph, "enumerate_two_edge_cuts", lambda g, **kw: calls.append(g) or real(g, **kw))
    row = cli._batch_row(name, load(name))
    assert row["status"].split(";")[0] == ("not_admissible" if name == "bridge" else "ok")
    assert len(calls) == count


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
# A Z_6 flow of t3, all edges 0 -> 1: 1 + 2 + 3 = 0 mod 6.
Z6_CERTIFICATE = {"format": 1, "group": "z6", "k": 6, "edges": [
    {"id": e, "tail": 0, "head": 1, "value": v} for e, v in enumerate((1, 2, 3))
]}
BASES = {"pairs": PAIR_CERTIFICATE, "z6": Z6_CERTIFICATE}
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
    "z6 k not its modulus": ("z6", ("k",), 7),
    "missing z6 k": ("z6", ("k",), DROP),
    "z6 k as z2's modulus": ("z6", ("k",), 2),
}


@pytest.mark.parametrize("edit", CERTIFICATE_EDITS)
def test_verify_rejects_malformed_certificate_fields(tmp_path, capsys, edit):
    base, (*where, last), value = CERTIFICATE_EDITS[edit]
    if base == "t3":
        cert = json.loads((GOLDEN / "t3.flow.json").read_text())
    else:
        cert = json.loads(json.dumps(BASES[base]))
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


def test_verify_reports_a_value_beyond_the_bound(tmp_path, capsys):
    # t3's golden certificate carries -332 on edge 0, so bound 300 is too small.
    cert = json.loads((GOLDEN / "t3.flow.json").read_text())
    cert["bound"] = 300
    path = tmp_path / "t3.flow.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", graph("t3"), str(path)]) == 1
    assert capsys.readouterr().out == (
        "conserved: PASS\nnowhere_zero: PASS\nbound_ok: FAIL\nadjacent_abs_distinct: PASS\n"
    )


@pytest.mark.parametrize("bound, code, verdict", [(332, 1, "FAIL"), (333, 0, "PASS")])
def test_verify_reads_the_bound_as_strict(tmp_path, capsys, bound, code, verdict):
    # Every |value| must be below the bound: t3's largest is 332, so bound
    # 332 fails and 333 passes. This is the only bound check of a certificate.
    cert = json.loads((GOLDEN / "t3.flow.json").read_text())
    assert max(abs(edge["value"]) for edge in cert["edges"]) == 332
    cert["bound"] = bound
    path = tmp_path / "t3.flow.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", graph("t3"), str(path)]) == code
    assert f"bound_ok: {verdict}\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["synth", "batch"])
def test_an_unwritable_output_path_exits_two(tmp_path, capsys, command):
    # Like an unreadable input: exit 2 with the path, no traceback, no exit 3.
    out = tmp_path / "no" / "such" / "dir" / "out"
    if command == "synth":
        argv = ["synth", graph("k4"), "-o", str(out)]
    else:
        (tmp_path / "k4.graph").write_text((CORPUS / "k4.graph").read_text())
        argv = ["batch", str(tmp_path), "--report", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err and not out.parent.exists()


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


def stable_rows(report: Path) -> list[dict]:
    """A batch report's rows without their elapsed_ms."""
    rows = list(csv.DictReader(report.read_text().splitlines()))
    for row in rows:
        row.pop("elapsed_ms")
    return rows


def test_batch_jobs_rows_identical(tmp_path):
    directory = tmp_path / "graphs"
    shutil.copytree(CORPUS, directory)
    (directory / "broken.graph").write_text("3 2\n0 1\n")
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    assert run(["batch", str(directory), "--report", str(r1)]) == 0
    assert run(["batch", str(directory), "--report", str(r2), "--jobs", "4"]) == 0
    assert stable_rows(r1) == stable_rows(r2)
    broken = next(r for r in stable_rows(r2) if r["graph_path"] == "broken.graph")
    assert broken["status"].startswith("parse_error: edge count mismatch")


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes that this process forks: returns their pids."""
    pids: list = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_batch_of_small_graphs_forks_no_process(monkeypatch, tmp_path, forks):
    # A directory like the benchmark's batch-small ones: 24 graphs of at most
    # 14 edges, whose rows take a few tens of milliseconds in all, less than
    # FORK_AFTER_S, so they run in this process at any --jobs.
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    directory = tmp_path / "small"
    directory.mkdir()
    for name, text in workloads.batch_small(1, 24):
        (directory / f"{name}.graph").write_text(text)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run(["batch", str(directory), "--report", str(serial), "--jobs", "1"]) == 0
    assert run(["batch", str(directory), "--report", str(parallel), "--jobs", "2"]) == 0
    assert forks == []
    assert len(stable_rows(parallel)) == 24
    assert stable_rows(parallel) == stable_rows(serial)


def test_batch_forks_once_its_rows_outlast_the_threshold(monkeypatch, tmp_path, forks):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run(["batch", str(CORPUS), "--report", str(serial), "--jobs", "1"]) == 0
    real_row = cli._batch_row
    slowed: list = []

    def row(*item):
        # The first row, which this process computes, outlasts FORK_AFTER_S.
        if not slowed:
            slowed.append(item[0])
            time.sleep(1.5 * cli.FORK_AFTER_S)
        return real_row(*item)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_batch_row", row)
    assert run(["batch", str(CORPUS), "--report", str(parallel), "--jobs", "2"]) == 0
    assert len(slowed) == 1 and len(forks) == 1
    # The child starts after the row this process computed: none is computed twice.
    assert stable_rows(parallel) == stable_rows(serial)


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_batch_corpus_matches_golden_report(monkeypatch, tmp_path, jobs):
    # Only the node limits bind, so every column but elapsed_ms is fixed; a
    # change to the oracles or the synthesis that moves one must update this.
    monkeypatch.setenv("RICHFLOW_TIME_LIMIT_S", "1000000")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    if jobs != "1":
        monkeypatch.setattr(cli, "FORK_AFTER_S", 0)  # forks before the first row
    report = tmp_path / "report.csv"
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", jobs]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "corpus_batch.csv"
    assert stable_rows(report) == list(csv.DictReader(golden.read_text().splitlines()))


@pytest.fixture
def forked_workers(monkeypatch):
    """Replaces the fork-join with the serial rows; returns its log of the
    worker counts asked for."""
    log: list = []

    def serial(graphs, workers):
        log.append(workers)
        return [cli._batch_row(*item) for item in graphs]

    monkeypatch.setattr(cli, "_rows_forked", serial)
    return log


def split_rows(monkeypatch, tmp_path, child, parent=lambda: None):
    """Makes batch rows run in this process and one child, forked before the
    first row: the child calls child() on the first row it claims; this
    process's first row waits until the child has claimed one, then calls
    parent()."""
    parent_pid = os.getpid()
    claimed = tmp_path / "claimed"
    real_row = cli._batch_row
    first = True

    def row(*item):
        nonlocal first
        if os.getpid() != parent_pid:
            claimed.touch()
            child()
        elif first:
            first = False
            give_up = time.monotonic() + 30
            while not claimed.exists() and time.monotonic() < give_up:
                time.sleep(0.01)
            parent()
        return real_row(*item)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "FORK_AFTER_S", 0)
    monkeypatch.setattr(cli, "_batch_row", row)


def test_batch_worker_defect_exits_three(monkeypatch, tmp_path, capsys):
    def boom(_, **_kwargs):
        raise InternalDefectError("synthetic")

    # Workers are forked, so they see the patched function.
    monkeypatch.setattr(cli, "synthesize_rich_flow", boom)
    monkeypatch.setattr(cli, "FORK_AFTER_S", 0)
    code = run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"])
    assert code == 3
    assert "internal defect: synthetic" in capsys.readouterr().err


class LocalError(Exception):
    pass


def unpicklable_error():
    class Unpicklable(Exception):  # pickled by a name nothing can import
        pass

    raise Unpicklable("child-only")


def picklable_error():
    raise LocalError("child-only")


@pytest.mark.parametrize("raise_error, expected", [
    (picklable_error, "internal error: LocalError: child-only"),
    (unpicklable_error, "internal defect: batch worker raised "),
], ids=["picklable", "unpicklable"])
def test_batch_child_exception_exits_three(monkeypatch, tmp_path, capsys, raise_error, expected):
    split_rows(monkeypatch, tmp_path, child=raise_error)
    assert run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert expected in err and "child-only" in err


def test_batch_child_exit_without_result_exits_three(monkeypatch, tmp_path, capsys):
    split_rows(monkeypatch, tmp_path, child=lambda: os._exit(9))
    assert run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert re.search(r"internal defect: batch worker \d+ ended without a result \(exit status 9\)", err)


class Deadline(BaseException):
    """Like the benchmark's alarm: not an Exception, so richflow cannot catch it."""


def test_batch_deadline_in_parent_leaves_no_child(monkeypatch, tmp_path):
    def alarm(signum, frame):
        raise Deadline()

    def parent():
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        time.sleep(60)

    split_rows(monkeypatch, tmp_path, child=lambda: time.sleep(60), parent=parent)
    previous = signal.signal(signal.SIGALRM, alarm)
    start = time.monotonic()
    try:
        with pytest.raises(Deadline):
            run(["batch", str(CORPUS), "--report", str(tmp_path / "r.csv"), "--jobs", "2"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_empty_directory_writes_header_only(tmp_path, forked_workers):
    directory = tmp_path / "empty"
    directory.mkdir()
    report = tmp_path / "r.csv"
    assert run(["batch", str(directory), "--report", str(report), "--jobs", "2"]) == 0
    assert report.read_text() == ",".join(cli.BATCH_COLUMNS) + "\n"
    assert forked_workers == []


def test_batch_worker_count_is_capped(monkeypatch, tmp_path, forked_workers):
    files = len(list(CORPUS.glob("*.graph")))
    cpus = len(os.sched_getaffinity(0))
    report = tmp_path / "r.csv"
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", "10000"]) == 0
    assert forked_workers == ([min(files, cpus)] if cpus > 1 else [])
    forked_workers.clear()
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 10**6)
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", "10000"]) == 0
    assert forked_workers == [files]
    forked_workers.clear()
    monkeypatch.delattr(os, "fork")  # a platform without fork runs the rows serially
    assert run(["batch", str(CORPUS), "--report", str(report), "--jobs", "10000"]) == 0
    assert forked_workers == []
