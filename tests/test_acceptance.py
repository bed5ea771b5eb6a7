"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

from __future__ import annotations

import csv
import random
import time

from richflow import (
    GroupTag,
    SearchBudget,
    building_phi,
    chromatic_index,
    exact_rich_flow_number,
    flow_avoiding_confluence,
    is_rich_flow_admissible,
    rich_mod_flow,
    synthesize_rich_flow,
)
from richflow.cli import run
from richflow.flowalg import Flow, is_rich, modular_to_integer, pair_relation, verify_flow
from richflow.multigraph import enumerate_two_edge_cuts, find_circuit_through
from richflow.seymour import build_pair_splitting
from richflow.synthesis import split_on_two_cut, verify_mod_flow_bullets

import reference_flow
from reference_tower import bridges
from reference_flow import encode, send_through_circuit, value_of, zero_flow
from conftest import ADMISSIBLE_NAMES, ALL_NAMES, CORPUS, load, oracle_cuts, three_edge_connected
from test_seymour import random_pair_set

NAMED_CORPUS = [
    "t3",
    "dt",
    "k4",
    "k33",
    "prism",
    "wagner",
    "petersen",
    "two_k4",
]


def test_criterion_01_theta_exact_rich_flow_number(t3):
    start = time.perf_counter()
    result = exact_rich_flow_number(t3, SearchBudget(k_max=8))
    elapsed = time.perf_counter() - start
    assert result.value == 4 and result.status == "exact"
    assert is_rich(t3, result.witness)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: R(T3) = 4 with verified witness in {elapsed:.3f}s")


def test_criterion_02_doubled_triangle_tight_values():
    g = load("dt")
    start = time.perf_counter()
    chi = chromatic_index(g)
    r = exact_rich_flow_number(g, SearchBudget(k_max=8))
    elapsed = time.perf_counter() - start
    assert chi.value == 6
    assert r.value == 7 and is_rich(g, r.witness)
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: chi'(DT) = 6, R(DT) = 7 = 3k+1 in {elapsed:.2f}s")


def test_criterion_03_synthesis_bound_on_corpus():
    small = [
        name
        for name in ADMISSIBLE_NAMES
        if load(name).vertex_count <= 6 and load(name).edge_count <= 10
    ]
    names = sorted(set(NAMED_CORPUS) | set(small) | {"three_k4"})
    worst = 0.0
    for name in names:
        g = load(name)
        assert is_rich_flow_admissible(g).admissible, name
        start = time.perf_counter()
        cert = synthesize_rich_flow(g)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert is_rich(g, cert.flow), name
        assert cert.max_abs <= 264 * cert.delta - 446, name
        assert cert.bound == 264 * cert.delta - 445, name
        assert elapsed <= 5.0, (name, elapsed)
    print(
        f"ACCEPTANCE 3 PASS: synthesized rich flows on {len(names)} graphs, "
        f"max_abs <= 264*delta-446, worst case {worst:.2f}s"
    )


def test_criterion_04_building_phi_suite():
    checked = 0
    for name in ADMISSIBLE_NAMES:
        g = load(name)
        if not three_edge_connected(g):
            continue
        delta = g.max_degree()
        k = 8 * delta - 13
        m = g.edge_count
        choices = []
        for i in range(10):
            e_star = (i * 3) % m
            target = [(1, 0), (1, 1), (2, 0), (0, 1), (k - 1, 1), (3, 0), (2, 1), (k - 1, 0), (5 % k or 1, 1), (4 % k, 0)][i]
            if target == (0, 0):
                target = (1, 0)
            choices.append((e_star, target))
        assert len({c for c in choices}) >= 10 or m < 4
        for e_star, target in choices:
            result = building_phi(g, e_star, encode(k, target), delta)
            # Statement bullets: nowhere-zero with the right special value,
            # chain structure, confluency and contrafluency discipline.
            rep = verify_flow(g, result.flow)
            assert rep.conserved and rep.nowhere_zero, (name, e_star, target)
            verify_mod_flow_bullets(g, result.flow, result.chains)
            stored = value_of(result.flow, e_star)
            assert stored == (target[0] % k, target[1] % 2)
            for diag in result.diagnostics:
                assert diag.forbidden_count < k
                for _c, fsize in diag.chain_choices:
                    assert fsize <= 8 < k
            checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 4 PASS: {checked} building_phi runs, all bullets and per-stage conditions hold")


def test_criterion_05_mod_flow_suite():
    count = 0
    for name in ADMISSIBLE_NAMES:
        g = load(name)
        result = rich_mod_flow(g)
        verify_mod_flow_bullets(g, result.flow, result.chains)
        count += 1
    # The chained composite exercises the 2-cut split at depth >= 2.
    g = load("three_k4")
    first = split_on_two_cut(g, is_rich_flow_admissible(g).two_cuts)
    assert is_rich_flow_admissible(first.side1.graph).two_cuts
    print(f"ACCEPTANCE 5 PASS: stage flows on {count} graphs incl. depth-2 recursion")


def test_criterion_06_confluence_elimination_suite():
    rng = random.Random(2026)
    trials = 0
    while trials < 100:
        name = ADMISSIBLE_NAMES[trials % len(ADMISSIBLE_NAMES)]
        g = load(name)
        pair_set = random_pair_set(g, rng, max_pairs=5)
        h = build_pair_splitting(g, pair_set)
        assert not bridges(h)
        for i in range(len(pair_set)):
            assert h.degree(g.vertex_count + i) == 3
        flow = flow_avoiding_confluence(g, pair_set)
        rep = verify_flow(g, flow)
        assert rep.conserved and rep.nowhere_zero
        assert sum(1 for p in pair_set if pair_relation(flow, p).confluent) == 0
        trials += 1
    print("ACCEPTANCE 6 PASS: 100 randomized pair sets eliminated with valid Z6 flows")


def test_criterion_07_conversion_suite():
    rng = random.Random(777)
    names = ("t3", "dt", "k4", "l2", "prism", "c4_doubled", "k33", "wagner")
    moduli = (2, 3, 5, 6, 11, 19, 35)
    done = 0
    while done < 1000:
        g = load(names[done % len(names)])
        modulus = moduli[done % len(moduli)]
        if modulus == 2:
            tag = GroupTag.z2()
        elif modulus == 6:
            tag = GroupTag.z6()
        else:
            tag = GroupTag.zk(modulus)
        acc = list(zero_flow(g, tag).values)
        for _ in range(rng.randint(1, 6)):
            circ = find_circuit_through(g, rng.randrange(g.edge_count))
            if rng.random() < 0.5:
                circ = circ.reversed()
            sent = send_through_circuit(g, circ, rng.randrange(1, modulus), tag)
            acc = [reference_flow.add(tag, x, y) for x, y in zip(acc, sent.values)]
        flow = Flow(g, tag, tuple(acc))
        lifted = modular_to_integer(g, flow)
        assert verify_flow(g, lifted).conserved
        for e in range(g.edge_count):
            assert (lifted.values[e] - flow.values[e]) % modulus == 0
            assert abs(lifted.values[e]) < modulus
            assert (lifted.values[e] == 0) == (flow.values[e] == 0)
        done += 1
    print("ACCEPTANCE 7 PASS: 1000 modular flows lifted with residues, conservation, bound, zero sets")


def test_criterion_08_cut_oracle_equivalence():
    checked = 0
    for name in ALL_NAMES:
        g = load(name)
        if g.edge_count > 12:
            continue
        expected_bridges, expected_cuts = oracle_cuts(g)
        assert bridges(g) == frozenset(expected_bridges), name
        assert set(enumerate_two_edge_cuts(g)) == expected_cuts, name
        checked += 1
    assert checked >= 10
    print(f"ACCEPTANCE 8 PASS: cut analysis matches subset-deletion oracle on {checked} graphs")


def test_criterion_09_lower_bound_law():
    budget = SearchBudget(k_max=10, node_limit=2_000_000, time_limit=30)
    verified = []
    for name in ("t3", "t4", "dt", "k4", "k4_doubled", "l2", "c4_doubled", "k33", "prism", "wagner", "petersen"):
        g = load(name)
        r = exact_rich_flow_number(g, budget)
        chi = chromatic_index(g, budget)
        if r.value is None or chi.value is None:
            continue  # only exact values participate
        assert r.value >= chi.value + 1, name
        assert r.value <= 264 * g.max_degree() - 445, name
        verified.append((name, chi.value, r.value))
    assert len(verified) >= 8
    print(f"ACCEPTANCE 9 PASS: R >= chi'+1 on {len(verified)} exactly solved graphs")


def test_criterion_10_batch_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run(["batch", str(CORPUS), "--report", str(first)]) == 0
    assert run(["batch", str(CORPUS), "--report", str(second)]) == 0

    def stable_part(path):
        rows = list(csv.reader(path.read_text().splitlines()))
        drop = rows[0].index("elapsed_ms")
        return [tuple(col for i, col in enumerate(row) if i != drop) for row in rows]

    assert stable_part(first) == stable_part(second)
    print("ACCEPTANCE 10 PASS: two batch runs agree on every column except wall-clock")
