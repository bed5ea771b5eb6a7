#!/usr/bin/env python3
"""End-to-end benchmark for richflow.

    python3 perfbench/run.py --workload synth-cubic --seed 1 --seconds 45 --trace 0

Run from the repository root. The workload is generated from ``--seed`` and
run closed-loop by one client for ``--seconds`` seconds in this process;
``batch-small`` gives ``richflow batch`` one worker thread per available CPU.
Times in the JSON are given in units of a reference computation timed next
to every operation, so that they compare across the speed swings of a shared
host; the readable lines also give them in seconds.
Every certificate and CSV row is checked by ``perfbench/checker.py``, which
shares no code with richflow. Human-readable lines go first; the last line of
standard output is one JSON object with the metrics (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``). The exit code is 1 when an
output check fails and 2 when richflow cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checker, workloads  # noqa: E402
from perfbench.trace import SpanIndex, Tracer  # noqa: E402

SETUP_REPEATS = 9
# The verify path takes milliseconds; its median over repeats steadies verify_p50_ref.
VERIFY_REPEATS = 5
JOBS = len(os.sched_getaffinity(0))
BATCH_DIR_SIZE = 24
BATCH_DIRS = 16
# Share of the window spent on untraced passes in a traced run.
TRACE_BASE_SHARE = 0.35


class OperationTimeout(BaseException):
    """Raised by the benchmark's alarm; not an Exception, so richflow cannot catch it."""


def _alarm(signum, frame):
    raise OperationTimeout()


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass(frozen=True)
class Spec:
    generate: object  # (seed, count) -> [(name, text)]
    count: int
    deadline_s: float
    batch: bool = False


# synth-cubic stays below the sizes at which the seed's cotree Z6 search
# stalls for minutes; its deadline is a safety net that no graph is expected
# to reach. synth-cubic-large is the 32/48/64 mix that reproduces the stall: a
# stalled graph fails its 5 s deadline there, so it is not in BENCHMARK.json.
SPECS = {
    "synth-cubic": Spec(workloads.synth_cubic, 1500, 100.0),
    "synth-cubic-large": Spec(
        functools.partial(workloads.synth_cubic, sizes=workloads.LARGE_CUBIC_SIZES), 150, 5.0
    ),
    "batch-small": Spec(workloads.batch_small, BATCH_DIR_SIZE * BATCH_DIRS, 100.0, batch=True),
}


@dataclass
class Graph:
    name: str
    text: str
    n: int
    edges: list
    path: Path
    admissible: bool = True
    parsed: object = None  # richflow Multigraph, set during setup


@dataclass
class Record:
    kind: str  # "synth" or "batch"
    unit: str
    seconds: float
    graphs: int = 1
    verify_s: float | None = None
    reference_s: float = 0.0  # seconds per reference computation; see local_reference
    max_abs_ratio: float | None = None
    output: str | None = None  # certificate text, or the CSV's stable columns
    timeout: bool = False
    raised: str | None = None
    errors: list = field(default_factory=list)
    exact_resolved: int = 0
    admissible_rows: int = 0

    @property
    def failed(self) -> bool:
        return self.timeout or self.raised is not None or bool(self.errors)


# ---------------------------------------------------------------------------
# Set-up: import richflow from this checkout and parse the workload's files


def richflow_modules() -> SimpleNamespace:
    """The richflow modules the benchmark calls into, imported from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("richflow.cli")
    package = sys.modules["richflow"]
    if Path(package.__file__).resolve().parent != src / "richflow":
        raise ImportError(f"richflow imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        cli=cli,
        flowalg=sys.modules["richflow.flowalg"],
        multigraph=sys.modules["richflow.multigraph"],
        synthesis=sys.modules["richflow.synthesis"],
    )


def import_richflow() -> SimpleNamespace:
    """A fresh import: every richflow module is dropped and loaded again."""
    for name in [m for m in sys.modules if m == "richflow" or m.startswith("richflow.")]:
        del sys.modules[name]
    return richflow_modules()


def setup(graphs: list[Graph]) -> tuple[float, SimpleNamespace]:
    """Median over repeats of a fresh import plus parsing every graph file."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage from the previous repeat is not part of set-up
        start = time.perf_counter()
        rf = import_richflow()
        for gr in graphs:
            gr.parsed = rf.multigraph.parse_multigraph(gr.path.read_text())
        times.append(time.perf_counter() - start)
    return statistics.median(times), rf


def write_inputs(spec: Spec, seed: int, workdir: Path) -> list:
    """Graph files on disk; units of work are graphs, or directories for batch."""
    graphs = []
    for i, (name, text) in enumerate(spec.generate(seed, spec.count)):
        n, edges = checker.parse_graph(text)
        folder = workdir / (f"dir{i // BATCH_DIR_SIZE:02d}" if spec.batch else "graphs")
        folder.mkdir(parents=True, exist_ok=True)
        path = folder / f"{name}.graph"
        path.write_text(text)
        admissible = checker.is_admissible(n, edges) if spec.batch else True
        graphs.append(Graph(name, text, n, edges, path, admissible))
    if not spec.batch:
        return graphs
    return [graphs[i : i + BATCH_DIR_SIZE] for i in range(0, len(graphs), BATCH_DIR_SIZE)]


# ---------------------------------------------------------------------------
# The reference computation: the benchmark's own two-edge-cut search on a fixed
# cubic graph. It is pure Python like richflow's hot path and takes under a
# millisecond, so it slows down with the host as richflow does.

REFERENCE_N = 20
REFERENCE_EDGES = workloads.cubic_graph(random.Random("reference"), REFERENCE_N)
# A synth operation is measured against the median reference time of the synth
# operations around it, which smooths the jitter of single reference timings.
REFERENCE_HALF_WINDOW = 7
# Threaded references run tasks of this many computations, longer than the
# interpreter's 5 ms thread switch interval, as batch rows are.
REFERENCE_TASK = 10


def _reference_task(count: int) -> None:
    for _ in range(count):
        checker.two_edge_cuts(REFERENCE_N, REFERENCE_EDGES)


def reference_seconds(jobs: int = 1) -> float:
    """Seconds per reference computation. With jobs > 1 they run as ``richflow
    batch`` runs its rows: 2·jobs tasks on a pool of ``jobs`` threads, which
    contend for the interpreter as the rows do."""
    start = time.perf_counter()
    if jobs == 1:
        _reference_task(1)
        return time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(_reference_task, [REFERENCE_TASK] * (2 * jobs)))
    return (time.perf_counter() - start) / (REFERENCE_TASK * 2 * jobs)


def local_reference(records: list) -> list[float]:
    """The reference time each record is divided by. A batch operation runs for
    seconds and carries its own reference, the mean of one run just before it
    and one just after."""
    out = [0.0] * len(records)
    for kind in {r.kind for r in records}:
        h = REFERENCE_HALF_WINDOW if kind == "synth" else 0
        index = [i for i, r in enumerate(records) if r.kind == kind]
        refs = [records[i].reference_s for i in index]
        for j, i in enumerate(index):
            out[i] = statistics.median(refs[max(0, j - h) : j + h + 1])
    return out


# ---------------------------------------------------------------------------
# Operations


def synth_op(rf, gr: Graph, limit: float, tracer: Tracer | None) -> Record:
    """Synthesize, write, re-read and re-check one certificate (``richflow synth`` + ``verify``)."""
    rec = Record("synth", gr.name, 0.0)
    if tracer is not None:
        tracer.set_graph(gr.name)
    rec.reference_s = reference_seconds()
    start = time.perf_counter()
    try:
        with deadline(limit):
            cert = rf.synthesis.synthesize_rich_flow(gr.parsed)
            rec.seconds = time.perf_counter() - start
            text = rf.flowalg.write_flow_json(cert.flow)
            verify_times = []
            for _ in range(VERIFY_REPEATS):
                vstart = time.perf_counter()
                checks = rf.flowalg.rich_report(gr.parsed, rf.flowalg.read_flow_json(text, gr.parsed))
                verify_times.append(time.perf_counter() - vstart)
            rec.verify_s = statistics.median(verify_times)
    except OperationTimeout:
        rec.seconds, rec.timeout = limit, True
        return rec
    except Exception as exc:  # a raise inside richflow is a failed operation
        rec.seconds, rec.raised = time.perf_counter() - start, repr(exc)
        return rec
    rec.output = text
    rec.errors = checker.certificate_errors(gr.n, gr.edges, text)
    if not checks.all_ok:
        rec.errors.append(f"verify path rejects its own certificate: {checks}")
    if not rec.errors:
        rec.max_abs_ratio = checker.max_abs_value(text) / checker.synth_bound(
            checker.max_degree(gr.n, gr.edges)
        )
    return rec


STABLE_COLUMNS = [
    "graph_path", "n", "m", "delta", "admissible", "chi_prime", "exact_R",
    "synth_bound", "synth_max_abs", "conj1_bound", "conj2_applicable", "conj2_bound", "status",
]


def batch_op(rf, group: list[Graph], jobs: int, limit: float, tracer: Tracer | None) -> Record:
    """``richflow batch DIR --report CSV --jobs J`` and a check of every row."""
    directory = group[0].path.parent
    report = directory.parent / f"{directory.name}.csv"
    rec = Record("batch", directory.name, 0.0, graphs=len(group))
    before = reference_seconds(jobs)
    span = None
    if tracer is not None:
        span = tracer.open("cli.batch")
        tracer.root = span.id
    start = time.perf_counter()
    try:
        with deadline(limit), contextlib.redirect_stdout(io.StringIO()):
            code = rf.cli.run(["batch", str(directory), "--report", str(report), "--jobs", str(jobs)])
        rec.seconds = time.perf_counter() - start
    except OperationTimeout:
        rec.seconds, rec.timeout = limit, True
    except Exception as exc:
        rec.seconds, rec.raised = time.perf_counter() - start, repr(exc)
    finally:
        if span is not None:
            tracer.close(span)
            tracer.root = None
    rec.reference_s = (before + reference_seconds(jobs)) / 2
    if rec.failed:
        return rec
    with open(report, newline="") as handle:
        rows = {row["graph_path"]: row for row in csv.DictReader(handle)}
    if code != 0 or sorted(rows) != sorted(gr.path.name for gr in group):
        rec.errors.append(f"batch exit code {code} with {len(rows)} rows for {len(group)} graphs")
        return rec
    for gr in group:
        row = rows[gr.path.name]
        rec.errors += [f"{gr.name}: {e}" for e in checker.batch_row_errors(gr.n, gr.edges, row)]
        if gr.admissible:
            rec.admissible_rows += 1
            rec.exact_resolved += row["exact_R"] != ""
    rec.output = "\n".join(",".join(rows[k][c] for c in STABLE_COLUMNS) for k in sorted(rows))
    return rec


def unit_ops(rf, spec: Spec, unit, tracer: Tracer | None, jobs: int = JOBS) -> list[Record]:
    if not spec.batch:
        return [synth_op(rf, unit, spec.deadline_s, tracer)]
    out = [batch_op(rf, unit, jobs, spec.deadline_s, tracer)]
    # The same graphs through the library API, for synth and verify latency.
    out += [synth_op(rf, gr, spec.deadline_s, tracer) for gr in unit if gr.admissible]
    return out


def run_window(rf, spec: Spec, units: list, seconds: float) -> tuple[list[Record], int]:
    """Closed loop over the units (cycling) until the window ends; returns records and units done.

    One unit runs first, unmeasured, so that first-call costs stay out of the window.
    """
    unit_ops(rf, spec, units[-1], None)
    records: list[Record] = []
    end = time.perf_counter() + seconds
    done = 0
    while time.perf_counter() < end:
        records += unit_ops(rf, spec, units[done % len(units)], None)
        done += 1
    return records, done


def run_units(rf, spec: Spec, units: list, tracer=None, jobs: int = JOBS) -> list[Record]:
    return [r for unit in units for r in unit_ops(rf, spec, unit, tracer, jobs)]


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, pct: int) -> float:
    """The pct-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(spec: Spec, records: list[Record], setup_s: float) -> dict:
    local = local_reference(records)
    # A timed-out graph counts at its deadline, beyond every completed one.
    synth = [(r, ref) for r, ref in zip(records, local) if r.kind == "synth"]
    done = [(r, ref) for r, ref in synth if not r.failed]
    units = [(r, ref) for r, ref in zip(records, local) if r.kind == ("batch" if spec.batch else "synth")]
    return {
        "setup_s": (setup_s, "s"),
        "synth_p50_ref": (percentile([r.seconds / ref for r, ref in synth], 50), "ref"),
        "synth_p90_ref": (percentile([r.seconds / ref for r, ref in synth], 90), "ref"),
        "verify_p50_ref": (percentile([r.verify_s / ref for r, ref in done], 50), "ref"),
        "graph_time_ref": (sum(r.seconds / ref for r, ref in units) / sum(r.graphs for r, _ in units), "ref"),
        "max_abs_over_bound": (statistics.fmean(r.max_abs_ratio for r, _ in done), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_lines(records: list[Record], metrics: dict) -> list[str]:
    synth = [r for r in records if r.kind == "synth"]
    done = [r for r in synth if not r.failed]
    batch = [r for r in records if r.kind == "batch"]
    wall = [r.seconds for r in synth]
    p50, p90 = percentile(wall, 50), percentile(wall, 90)
    slowest = max(synth, key=lambda r: r.seconds)
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [
        f"reference_s = {statistics.median(r.reference_s for r in records):.6g} s (median)",
        f"synth_p50_s = {p50:.6g} s",
        f"synth_p90_s = {p90:.6g} s",
        f"verify_p50_s = {percentile([r.verify_s for r in done], 50):.6g} s",
        f"synth samples = {len(synth)}, {sum(w > p90 for w in wall)} beyond p90,"
        f" {sum(r.timeout for r in synth)} timed out",
        f"slowest synth = {slowest.seconds:.6g} s ({slowest.unit});"
        f" {sum(w > 10 * p50 for w in wall)} graphs over 10x the median",
        f"synth_graphs_per_s = {len(done) / sum(r.seconds for r in done):.6g} 1/s"
        " (completed graphs over their summed wall time)",
    ]
    if batch:
        rows = sum(r.graphs for r in batch)
        admissible = sum(r.admissible_rows for r in batch)
        lines.append(f"batch_rows_per_s = {rows_per_s(batch):.6g} 1/s over {rows} rows")
        lines.append(
            f"exact_resolved_ratio = {sum(r.exact_resolved for r in batch) / max(admissible, 1):.6g}"
            f" ({admissible} admissible rows)"
        )
    failed = sum(r.failed for r in records)
    lines.append(f"failed_ratio = {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    return lines


def per_layer(spans, graphs: int, overhead: float, speed: dict) -> dict:
    ix = SpanIndex(spans)
    synths = ix.count("synthesis.synthesize")

    def per_graph(x):
        return x / max(graphs, 1)

    def ratio(name, key):
        calls = ix.count(name)
        return ix.info_sum(name, key) / calls if calls else 0.0

    cotree = ix.named("cotree.search")
    synth_busy = ix.busy("synthesis.synthesize")
    out = {}
    for name in (
        "multigraph.admissibility", "multigraph.two_cut_enum", "synthesis.building_phi",
    ):
        out[f"{name}.calls_per_graph"] = (per_graph(ix.count(name)), "count/graph")
    for name in (
        "multigraph.admissibility", "multigraph.two_cut_enum", "multigraph.chain_search", "synthesis.synthesize", "synthesis.split",
        "synthesis.building_phi", "synthesis.build_tower", "seymour.split_graph", "seymour.z6",
        "cotree.search", "flowalg.lift", "flowalg.verify", "flowalg.adjacent_pairs",
        "oracle.exact", "oracle.chromatic", "cli.parse",
    ):
        out[f"{name}.busy_s"] = (per_graph(ix.busy(name)), "s/graph")
    out.update({
        "multigraph.two_cut_enum.pairs_tested": (
            per_graph(ix.info_sum("multigraph.two_cut_enum", "pairs_tested")), "count/graph"),
        "multigraph.two_cut_enum.share_of_synth": (
            ix.busy("multigraph.two_cut_enum") / synth_busy if synth_busy else 0.0, "ratio"),
        "synthesis.split.depth": (ix.info_sum("synthesis.split", "split") / max(synths, 1), "count"),
        "synthesis.rich_mod_flow.self_s": (per_graph(ix.self_time("synthesis.rich_mod_flow")), "s/graph"),
        "seymour.confluent_pairs_per_graph": (
            ix.info_sum("seymour.confluence", "pairs") / max(synths, 1), "count/graph"),
        "cotree.search.max_s": (max((s.end - s.start for s in cotree), default=0.0), "s"),
        "cotree.search.timeouts": (sum(s.error == "OperationTimeout" for s in cotree), "count"),
        "cotree.cotree_edges": (ratio("cotree.search", "cotree_edges"), "count"),
        "oracle.exact.resolved_ratio": (ratio("oracle.exact", "resolved"), "ratio"),
        "oracle.chromatic.resolved_ratio": (ratio("oracle.chromatic", "resolved"), "ratio"),
        "cli.batch.self_s": (per_graph(ix.self_time("cli.batch")), "s/graph"),
        "cli.batch.rows_per_s_jobs1": (speed.get(1, 0.0), "1/s"),
        "cli.batch.rows_per_s_jobsN": (speed.get(JOBS, 0.0), "1/s"),
        "cli.batch.speedup": (speed[JOBS] / speed[1] if speed else 0.0, "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


def rows_per_s(records: list[Record]) -> float:
    batch = [r for r in records if r.kind == "batch"]
    return sum(r.graphs for r in batch) / sum(r.seconds for r in batch)


def op_seconds(records: list[Record]) -> float:
    return sum(r.seconds + (r.verify_s or 0.0) for r in records)


def traced_run(rf, spec: Spec, units: list, seconds: float, trace_path: Path):
    """An untraced window, then the same units traced; their outputs must match byte for byte."""
    base, done = run_window(rf, spec, units, seconds * TRACE_BASE_SHARE)
    chosen = [units[i % len(units)] for i in range(done)]
    serial: list[Record] = []
    speed = {}
    if spec.batch:
        serial = run_units(rf, spec, chosen, jobs=1)
        speed = {JOBS: rows_per_s(base), 1: rows_per_s(serial)}
    tracer = Tracer()
    if spec.batch:
        tracer.graph_of_text = {gr.text: gr.name for unit in chosen for gr in unit}
    with tracer:
        traced = run_units(rf, spec, chosen, tracer)
    tracer.write(trace_path)
    mismatches = [
        f"{a.unit}: traced output differs from untraced output"
        for a, b in zip(base, traced)
        if not a.failed and not b.failed and a.output != b.output
    ]
    graphs = sum(r.graphs for r in traced if r.kind == ("batch" if spec.batch else "synth"))
    # Measured on the synth units only: batch units at --jobs > 1 vary by
    # thread scheduling more than tracing costs.
    overhead = op_seconds([r for r in traced if r.kind == "synth"]) / op_seconds(
        [r for r in base if r.kind == "synth"]
    )
    metrics = per_layer(tracer.spans, graphs, overhead, speed)
    return base + serial + traced, metrics, mismatches


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = SPECS[args.workload]
    label = f"{args.workload}-{args.seed}-{args.trace}"
    workdir = ROOT / ".bench_run" / f"{label}-{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, _alarm)
    previous_limit = os.environ.get("RICHFLOW_TIME_LIMIT_S")
    if spec.batch:
        # Only the oracles' node limits bind, so exact_R and chi_prime are deterministic.
        os.environ["RICHFLOW_TIME_LIMIT_S"] = "1000000"
    try:
        units = write_inputs(spec, args.seed, workdir)
        flat = [gr for unit in units for gr in unit] if spec.batch else units
        try:
            setup_s, rf = setup(flat)
        except ImportError as exc:
            print(f"cannot import richflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            trace_path = workdir.parent / f"trace-{label}.jsonl"
            records, metrics, mismatches = traced_run(rf, spec, units, args.seconds, trace_path)
        else:
            records, _ = run_window(rf, spec, units, args.seconds)
            metrics, mismatches = end_to_end(spec, records, setup_s), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        signal.signal(signal.SIGALRM, previous)
        if previous_limit is None:
            os.environ.pop("RICHFLOW_TIME_LIMIT_S", None)
        else:
            os.environ["RICHFLOW_TIME_LIMIT_S"] = previous_limit
    errors = [f"{r.unit}: {e}" for r in records for e in r.errors] + mismatches
    for line in errors[:20]:
        print(f"CHECK FAILED {line}")
    if not args.trace:
        for line in report_lines(records, metrics):
            print(line)
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(r.failed for r in records) + len(mismatches),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
