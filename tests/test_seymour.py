from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from richflow import (
    AdjacentPair,
    Multigraph,
    PreconditionError,
    flow_avoiding_confluence,
    nowhere_zero_z6,
)
from richflow.flowalg import adjacent_pairs, pair_relation, strongly_intersecting, verify_flow
from richflow.seymour import build_pair_splitting, validate_pair_set

from conftest import ADMISSIBLE_NAMES, doubled_cycle, load
from reference_flow import make_adjacent_pair
from reference_tower import bridges
from test_tower_checks import admissible_multigraphs


def random_pair_set(g, rng, max_pairs=4) -> tuple[AdjacentPair, ...]:
    """Greedy random pair set: never strongly intersecting, <= 2 pairs/edge."""
    pairs = adjacent_pairs(g)
    rng.shuffle(pairs)
    chosen = []
    per_edge: dict[int, int] = {}
    for cand in pairs:
        if len(chosen) == max_pairs:
            break
        if per_edge.get(cand.e, 0) >= 2 or per_edge.get(cand.f, 0) >= 2:
            continue
        if any(strongly_intersecting(g, cand, p) for p in chosen):
            continue
        chosen.append(cand)
        per_edge[cand.e] = per_edge.get(cand.e, 0) + 1
        per_edge[cand.f] = per_edge.get(cand.f, 0) + 1
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Pair splitting


def test_split_k4_single_pair(k4):
    p = make_adjacent_pair(k4, 0, 1)  # edges (0,1) and (0,2) share vertex 0
    h = build_pair_splitting(k4, (p,))
    assert h.vertex_count == 5
    assert h.degree(4) == 3  # b(p_0) is vertex n + 0
    assert not bridges(h)


def test_split_parallel_pair_anchor_is_lower_vertex(t3):
    p = make_adjacent_pair(t3, 0, 1)
    assert p.shared_vertex == 0  # arbitrary choice pinned to the lower id
    h = build_pair_splitting(t3, (p,))
    b = t3.vertex_count  # b(p_0) is vertex n + 0
    # Both parallel edges now run b -> 1, and the anchor edge joins 0 and b.
    assert set(h.edge(0).ends) == {b, 1}
    assert set(h.edge(1).ends) == {b, 1}
    assert set(h.edge(3).ends) == {0, b}


def test_split_edge_in_two_pairs(k4):
    # Edge 3 = (1,2); pair with edge 0 = (0,1) at vertex 1 and with
    # edge 5 = (2,3) at vertex 2: a path, so not strongly intersecting.
    p1 = make_adjacent_pair(k4, 0, 3)
    p2 = make_adjacent_pair(k4, 3, 5)
    assert p1.shared_vertex == 1 and p2.shared_vertex == 2
    h = build_pair_splitting(k4, (p1, p2))
    b1, b2 = 4, 5  # b(p_i) is vertex n + i
    assert set(h.edge(3).ends) == {b1, b2}  # both endpoints replaced
    assert h.degree(b1) == 3 and h.degree(b2) == 3


def test_pair_set_rejects_strong_intersection(k4):
    p1 = make_adjacent_pair(k4, 0, 1)
    p2 = make_adjacent_pair(k4, 1, 2)
    with pytest.raises(PreconditionError, match="strongly intersect"):
        validate_pair_set(k4, (p1, p2))


def test_pair_set_rejects_triple_edge_use():
    g = load("dt")
    ps = [make_adjacent_pair(g, 0, f) for f in (1, 2, 4)]
    with pytest.raises(PreconditionError):
        validate_pair_set(g, tuple(ps))


def test_split_requires_admissible():
    with pytest.raises(PreconditionError):
        build_pair_splitting(load("c4"), ())


# ---------------------------------------------------------------------------
# Z6 engine


def test_z6_on_c4_is_unit_circulation():
    g = load("c4")
    f = nowhere_zero_z6(g)
    rep = verify_flow(g, f)
    assert rep.conserved and rep.nowhere_zero
    assert all(v in (1, 5) for v in f.values)


def test_z6_on_k4(k4):
    f = nowhere_zero_z6(k4)
    rep = verify_flow(k4, f)
    assert rep.conserved and rep.nowhere_zero


def test_z6_on_a_long_doubled_cycle():
    # 1,201 co-tree edges, more than Python's default recursion limit.
    g = doubled_cycle(1200)
    rep = verify_flow(g, nowhere_zero_z6(g))
    assert rep.conserved and rep.nowhere_zero


def test_z6_rejects_bridge():
    with pytest.raises(PreconditionError, match="bridge"):
        nowhere_zero_z6(load("bridge"))


def test_z6_rejects_disconnected():
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(PreconditionError, match="connected"):
        nowhere_zero_z6(g)


# ---------------------------------------------------------------------------
# Confluence elimination


def test_empty_pair_set_gives_plain_flow(k4):
    f = flow_avoiding_confluence(k4, ())
    rep = verify_flow(k4, f)
    assert rep.conserved and rep.nowhere_zero


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(admissible_multigraphs())
def test_empty_pair_set_takes_the_z6_flow_of_g_itself(g):
    # Nothing is split, so the split graph is g and no copy is made; the
    # flow is the one the search finds on a copy of g.
    assert build_pair_splitting(g, ()) is g
    f = flow_avoiding_confluence(g, ())
    copy = Multigraph(g.vertex_count, [e.ends for e in g.edges])
    assert f.graph is g
    assert f.values == nowhere_zero_z6(copy).values


def test_single_pair_not_confluent(k4):
    p = make_adjacent_pair(k4, 0, 1)
    f = flow_avoiding_confluence(k4, (p,))
    assert not pair_relation(f, p).confluent


def test_strongly_intersecting_input_rejected(k4):
    p1 = make_adjacent_pair(k4, 0, 1)
    p2 = make_adjacent_pair(k4, 1, 2)
    with pytest.raises(PreconditionError):
        flow_avoiding_confluence(k4, (p1, p2))


def test_randomized_pair_sets_across_corpus():
    rng = random.Random(23)
    for trial in range(30):
        g = load(ADMISSIBLE_NAMES[trial % len(ADMISSIBLE_NAMES)])
        ps = random_pair_set(g, rng)
        h = build_pair_splitting(g, ps)
        assert not bridges(h)
        for i in range(len(ps)):
            assert h.degree(g.vertex_count + i) == 3
        f = flow_avoiding_confluence(g, ps)
        rep = verify_flow(g, f)
        assert rep.conserved and rep.nowhere_zero
        for p in ps:
            assert not pair_relation(f, p).confluent
