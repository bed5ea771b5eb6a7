"""Tests of the benchmark itself: workloads at tiny sizes, the independent
checker, the trace wrappers, and traced/untraced output identity."""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checker, run, workloads  # noqa: E402
from perfbench.trace import WRAP_POINTS, SpanIndex, Tracer  # noqa: E402

# Replaces run.SPECS in a child process so each workload runs on tiny graphs.
TINY_SPECS = """
import functools, sys
from perfbench import run, workloads
run.BATCH_DIR_SIZE = 4
run.SPECS = {
    "synth-cubic": run.Spec(functools.partial(workloads.synth_cubic, sizes=(4, 6, 8)), 6, 30.0),
    "synth-cubic-large": run.Spec(functools.partial(workloads.synth_cubic, sizes=(6, 8)), 4, 30.0),
    "batch-small": run.Spec(functools.partial(workloads.batch_small, max_n=4, max_m=7), 8, 60.0, batch=True),
}
sys.exit(run.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.SPECS))
def test_workload_completes_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, "-c", TINY_SPECS, "--workload", workload, "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_generators_are_seeded():
    assert workloads.synth_cubic(5, 3, sizes=(8,)) == workloads.synth_cubic(5, 3, sizes=(8,))
    assert workloads.batch_small(5, 4) != workloads.batch_small(6, 4)


def test_fast_admissibility_matches_brute_force():
    rng = random.Random(0)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(2, 6)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n, 10))]
        if checker.component_count(n, edges) != 1:
            continue
        fast = checker.is_admissible(n, edges)
        assert fast == checker.is_admissible_brute_force(n, edges), (n, edges)
        verdicts.add(fast)
    assert verdicts == {True, False}


def _certificate(n, edges):
    rf = run.richflow_modules()
    g = rf.multigraph.parse_multigraph(checker.format_graph(n, edges))
    return rf.flowalg.write_flow_json(rf.synthesis.synthesize_rich_flow(g).flow)


def test_checker_rejects_one_corrupted_edge_value():
    n, edges = 4, workloads.cubic_graph(random.Random(1), 4)
    text = _certificate(n, edges)
    assert checker.certificate_errors(n, edges, text) == []
    payload = json.loads(text)
    payload["edges"][2]["value"] += 1
    assert checker.certificate_errors(n, edges, json.dumps(payload))


def test_trace_wrappers_restore_every_patched_name():
    rf = run.richflow_modules()
    modules = {name: sys.modules[f"richflow.{name}"] for _, _, mods, _ in WRAP_POINTS for name in mods}
    before = {(m, attr): getattr(modules[m], attr) for _, attr, mods, _ in WRAP_POINTS for m in mods}
    tracer = Tracer()
    with tracer:
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
        g = rf.multigraph.parse_multigraph(checker.format_graph(4, workloads.cubic_graph(random.Random(2), 4)))
        rf.synthesis.synthesize_rich_flow(g)
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
    index = SpanIndex(tracer.spans)
    assert index.count("synthesis.synthesize") == 1
    assert index.count("multigraph.two_cut_enum") >= 1
    assert index.busy("synthesis.synthesize") >= index.self_time("synthesis.synthesize") >= 0


def test_traced_outputs_match_untraced(tmp_path):
    rf = run.richflow_modules()
    spec_graphs = [
        ("cubic", checker.format_graph(8, workloads.cubic_graph(random.Random(4), 8))),
    ]
    batch = workloads.batch_small(4, 4, max_n=4, max_m=7)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        graphs = []
        for name, text in spec_graphs + batch:
            path = tmp_path / ("batch" if name.startswith("small") else "synth") / f"{name}.graph"
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            n, edges = checker.parse_graph(text)
            graphs.append(run.Graph(name, text, n, edges, path, checker.is_admissible(n, edges),
                                    rf.multigraph.parse_multigraph(text)))
        synth, group = graphs[: len(spec_graphs)], graphs[len(spec_graphs):]

        def outputs(tracer):
            recs = [run.synth_op(rf, gr, 30.0, tracer) for gr in synth]
            recs.append(run.batch_op(rf, group, 2, 60.0, tracer))
            assert not any(r.failed for r in recs), [(r.unit, r.errors, r.raised) for r in recs]
            return [r.output for r in recs]

        plain = outputs(None)
        with Tracer() as tracer:
            tracer.graph_of_text = {gr.text: gr.name for gr in group}
            traced = outputs(tracer)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert traced == plain
    assert SpanIndex(tracer.spans).count("cli.parse") == len(group)
