from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from richflow import (
    BudgetExhaustedError,
    GroupTag,
    Multigraph,
    PreconditionError,
    SearchBudget,
    brute_force_flow,
    chromatic_index,
    exact_rich_flow_number,
    is_rich,
    is_rich_flow_admissible,
    nowhere_zero_z6,
    verify_flow,
)

from conftest import load, relabel
from reference_oracle import reference_rich_flow_number


def test_theta_rich_flow_number(t3):
    res = exact_rich_flow_number(t3)
    assert res.value == 4 and res.status == "exact"
    assert is_rich(t3, res.witness)


def test_doubled_triangle_rich_flow_number():
    g = load("dt")
    res = exact_rich_flow_number(g)
    assert res.value == 7
    assert is_rich(g, res.witness)


def test_quadruple_edge_rich_flow_number():
    res = exact_rich_flow_number(load("t4"))
    assert res.value == 5


def test_inadmissible_graph_has_no_value():
    res = exact_rich_flow_number(load("c4"))
    assert res.value is None and res.status == "exact" and res.witness is None


def test_budget_exhaustion_is_reported(t3):
    res = exact_rich_flow_number(load("dt"), SearchBudget(k_max=8, node_limit=5))
    assert res.value is None and res.status == "exhausted_budget"


def test_kmax_too_small_reports_exhausted():
    res = exact_rich_flow_number(load("dt"), SearchBudget(k_max=4))
    assert res.value is None and res.status == "exhausted_budget"


def test_brute_force_z6_matches_engine(k4):
    f = brute_force_flow(k4, GroupTag.z6())
    rep = verify_flow(k4, f)
    assert rep.conserved and rep.nowhere_zero
    g = nowhere_zero_z6(k4)
    rep2 = verify_flow(k4, g)
    assert rep2.conserved and rep2.nowhere_zero


def test_brute_force_none_on_bridge():
    assert brute_force_flow(load("bridge"), GroupTag.z6()) is None


def test_brute_force_rich_theta(t3):
    f = brute_force_flow(t3, GroupTag.integers(4), require_rich=True)
    assert sorted(abs(v) for v in f.values) == [1, 2, 3]
    assert is_rich(t3, f)


def test_brute_force_rich_requires_integers(t3):
    with pytest.raises(PreconditionError):
        brute_force_flow(t3, GroupTag.z6(), require_rich=True)


def test_brute_force_budget_raises(t3):
    with pytest.raises(BudgetExhaustedError):
        brute_force_flow(
            load("petersen"),
            GroupTag.integers(3),
            budget=SearchBudget(node_limit=2),
        )


def test_brute_force_zkxz2(k4):
    f = brute_force_flow(k4, GroupTag.zkxz2(11))
    rep = verify_flow(k4, f)
    assert rep.conserved and rep.nowhere_zero


def test_chromatic_index_values():
    assert chromatic_index(load("t3")).value == 3
    assert chromatic_index(load("dt")).value == 6
    assert chromatic_index(load("c5")).value == 3
    assert chromatic_index(load("k4")).value == 3
    assert chromatic_index(load("petersen")).value == 4


def test_chromatic_index_witness_is_proper():
    g = load("dt")
    res = chromatic_index(g)
    for v in range(g.vertex_count):
        seen = [res.witness[e] for e in g.incident(v)]
        assert len(seen) == len(set(seen))


def test_chromatic_budget_exhaustion():
    res = chromatic_index(load("petersen"), SearchBudget(node_limit=3))
    assert res.value is None and res.status == "exhausted_budget"


def test_lower_bound_law_small_graphs():
    for name in ("t3", "t4", "dt", "k4", "l2", "k33", "prism"):
        g = load(name)
        r = exact_rich_flow_number(g)
        chi = chromatic_index(g)
        assert r.value is not None and chi.value is not None
        assert r.value >= chi.value + 1, name


def test_exact_values_invariant_under_relabeling():
    rng = random.Random(31)
    for name in ("t3", "dt", "k4", "l2"):
        g = load(name)
        base_r = exact_rich_flow_number(g).value
        base_chi = chromatic_index(g).value
        for _ in range(3):
            vperm = list(range(g.vertex_count))
            eperm = list(range(g.edge_count))
            rng.shuffle(vperm)
            rng.shuffle(eperm)
            h = relabel(g, vperm, eperm)
            assert exact_rich_flow_number(h).value == base_r
            assert chromatic_index(h).value == base_chi


def test_chi_prime_below_max_degree_is_rejected(t3):
    with pytest.raises(PreconditionError):
        exact_rich_flow_number(t3, chi_prime=2)


@st.composite
def small_admissible_multigraphs(draw) -> Multigraph:
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 8))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        edges.append((u, v))
    g = Multigraph(n, edges)
    assume(is_rich_flow_admissible(g).admissible)
    return g


@settings(max_examples=60, deadline=None)
@given(small_admissible_multigraphs())
def test_exact_matches_reference_search(g):
    budget = SearchBudget(k_max=12, node_limit=30_000)
    chi = chromatic_index(g, budget)
    expected = reference_rich_flow_number(g, budget.k_max, budget.node_limit)
    for result in (
        exact_rich_flow_number(g, budget),
        exact_rich_flow_number(g, budget, chi_prime=chi.value),
    ):
        if result.value is None:
            continue
        assert is_rich(g, result.witness)
        if chi.value is not None:
            assert result.value >= chi.value + 1
        if expected is not None:
            assert result.value == expected
