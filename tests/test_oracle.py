from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from richflow import (
    BudgetExhaustedError,
    Flow,
    GroupTag,
    Multigraph,
    PreconditionError,
    SearchBudget,
    brute_force_flow,
    chromatic_index,
    exact_rich_flow_number,
    is_rich_flow_admissible,
    nowhere_zero_z6,
)
from richflow.flowalg import is_rich, verify_flow
from richflow.oracle import _Budget, _rich_flow_search, _signed_sums

from conftest import load, prism, relabel
from reference_oracle import (
    ReferenceBudgetExhausted,
    _Nodes,
    reference_rich_flow_number,
    unpruned_rich_flow_search,
)


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
    f = exact_rich_flow_number(t3).witness
    assert sorted(abs(v) for v in f.values) == [1, 2, 3]
    assert is_rich(t3, f)


def test_brute_force_budget_raises():
    with pytest.raises(BudgetExhaustedError, match="node limit"):
        brute_force_flow(load("petersen"), GroupTag.z6(), budget=SearchBudget(node_limit=2))


def test_brute_force_deadline_raises(monkeypatch):
    # A cycle of triple edges with a K4 at vertex 0: K4 has no nowhere-zero
    # Z_3 flow, so the search exhausts the cycle's flows (over 2,000 nodes)
    # before proving that none exists.
    pairs = [(i, (i + 1) % 4) for i in range(4) for _ in range(3)]
    pairs += [(0, 4), (0, 5), (0, 6), (4, 5), (5, 6), (4, 6)]
    g = Multigraph(7, pairs)
    assert brute_force_flow(g, GroupTag.zk(3)) is None
    clock = iter([0.0])  # the budget starts at 0; every later reading is past its limit
    monkeypatch.setattr(time, "monotonic", lambda: next(clock, 1e9))
    with pytest.raises(BudgetExhaustedError, match="time limit"):
        brute_force_flow(g, GroupTag.zk(3), budget=SearchBudget(time_limit=1.0))


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
def small_admissible_multigraphs(draw, max_n: int = 5) -> Multigraph:
    n = draw(st.integers(2, max_n))
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_admissible_multigraphs(), small_admissible_multigraphs(max_n=3)))
def test_pruned_search_matches_unpruned_reference(g):
    # On n <= 3 most edges sit in bundles of parallel edges.
    for k in range(g.max_degree() + 1, 9):
        nodes = _Nodes(30_000)
        try:
            expected = unpruned_rich_flow_search(g, k, nodes)
        except ReferenceBudgetExhausted:
            continue
        state = _Budget(SearchBudget(node_limit=nodes.limit))
        assert _rich_flow_search(g, k, state) == expected
        assert state.nodes <= nodes.count


def test_parity_resolves_graph_the_unpruned_search_left_open():
    # A degree-6 vertex with k = 7 must carry all of 1..6, whose sum 21 is odd,
    # so conservation fails there; the unpruned search ran out of nodes first.
    pairs = [(2, 3), (0, 1), (3, 1), (0, 2), (3, 0), (0, 1), (2, 0), (2, 3), (3, 1), (3, 2), (0, 1), (2, 1)]
    g = Multigraph(4, pairs)
    budget = SearchBudget(k_max=8, node_limit=200_000)
    assert chromatic_index(g, budget).value == 6
    with pytest.raises(ReferenceBudgetExhausted):
        unpruned_rich_flow_search(g, 7, _Nodes(budget.node_limit))
    state = _Budget(budget)
    assert _rich_flow_search(g, 7, state) is None
    assert state.nodes < 20
    result = exact_rich_flow_number(g, budget, chi_prime=6)
    assert result.value == 8 and is_rich(g, result.witness)


signed_sum_cases = st.integers(2, 10).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, (1 << k) - 2), st.integers(0, k))
)


@settings(max_examples=200, deadline=None)
@given(signed_sum_cases)
def test_signed_sums_match_enumeration(case):
    k, avail, left = case
    avail &= ~1  # values are 1..k-1
    offset = k * (k - 1) // 2
    values = [a for a in range(1, k) if avail >> a & 1]
    expected = 0
    for chosen in itertools.combinations(values, left):
        for signs in itertools.product((1, -1), repeat=left):
            expected |= 1 << (offset + sum(s * a for s, a in zip(signs, chosen)))
    assert _signed_sums(avail, left, offset) == expected


@pytest.mark.parametrize(("p", "r"), [(3, 4), (4, 5), (5, 7), (6, 8), (7, 8)])
def test_dipole_rich_flow_number(p, r):
    # Two vertices joined by p parallel edges: R is the least k for which p
    # distinct values in 1..k-1 can be signed to sum to 0.
    def balanced(k: int) -> bool:
        return any(
            sum(s * a for s, a in zip(signs, chosen)) == 0
            for chosen in itertools.combinations(range(1, k), p)
            for signs in itertools.product((1, -1), repeat=p)
        )

    assert [k for k in range(2, r + 1) if balanced(k)] == [r]
    g = Multigraph(2, [(0, 1)] * p)
    result = exact_rich_flow_number(g)
    assert result.value == r and is_rich(g, result.witness)


def test_bundles_resolve_graph_the_unpruned_search_left_open():
    # batch-small seed 2, small-0109: bundles of 4 and 4 parallel edges.
    pairs = [(2, 3), (0, 1), (2, 1), (1, 0), (2, 3), (0, 1), (3, 1), (0, 1), (0, 2), (3, 2), (2, 3)]
    g = Multigraph(4, pairs)
    budget = SearchBudget(k_max=8, node_limit=200_000)
    assert chromatic_index(g, budget).value == 6
    with pytest.raises(ReferenceBudgetExhausted):
        unpruned_rich_flow_search(g, 8, _Nodes(budget.node_limit))
    state = _Budget(budget)
    vals = _rich_flow_search(g, 8, state)
    assert vals is not None and state.nodes < 20_000
    assert is_rich(g, Flow(g, GroupTag.integers(8), tuple(vals)))
    result = exact_rich_flow_number(g, budget, chi_prime=6)
    assert result.value == 8 and is_rich(g, result.witness)


def test_oracle_kernels_do_not_recurse_on_a_long_prism():
    g = prism(1500)
    budget = SearchBudget(node_limit=50_000)
    chi = chromatic_index(g, budget)
    assert chi.status in ("exact", "exhausted_budget")
    if chi.value is not None:
        assert chi.value == 3
    # Called directly: exact_rich_flow_number would first run the O(m^3)
    # admissibility check.
    state = _Budget(budget)
    try:
        vals = _rich_flow_search(g, 4, state)
    except BudgetExhaustedError:
        return
    if vals is not None:
        assert is_rich(g, Flow(g, GroupTag.integers(4), tuple(vals)))
