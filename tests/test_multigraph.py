from __future__ import annotations

import random

import pytest

from richflow import (
    GraphInputError,
    Multigraph,
    PreconditionError,
    bridges,
    edge_connectivity_at_least,
    enumerate_two_edge_cuts,
    find_attachable_block,
    find_circuit_chain,
    find_circuit_through,
    format_multigraph,
    is_rich_flow_admissible,
    parse_multigraph,
    validate_circuit_chain,
)
from richflow.multigraph import Circuit, CircuitChain, _biconnected_edge_groups

from conftest import ALL_NAMES, load, oracle_cuts, relabel


# ---------------------------------------------------------------------------
# Parsing


def test_parse_theta_graph():
    g = parse_multigraph("2 3\n0 1\n0 1\n0 1")
    assert g.vertex_count == 2
    assert [e.ends for e in g.edges] == [(0, 1), (0, 1), (0, 1)]


def test_parse_rejects_loop():
    with pytest.raises(GraphInputError, match="loop"):
        parse_multigraph("1 1\n0 0")


def test_parse_rejects_count_mismatch():
    with pytest.raises(GraphInputError, match="mismatch"):
        parse_multigraph("3 2\n0 1")


def test_parse_rejects_bad_header():
    with pytest.raises(GraphInputError, match="header"):
        parse_multigraph("3\n0 1")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(GraphInputError, match="range"):
        parse_multigraph("2 1\n0 5")


def test_parse_comments_and_crlf():
    g = parse_multigraph("# hi\r\n2 1\r\n# mid\r\n0 1\r\n")
    assert g.edge_count == 1


def test_format_round_trip(k4):
    assert parse_multigraph(format_multigraph(k4)) == k4


# ---------------------------------------------------------------------------
# Bridges and cuts


def test_bridge_between_triangles():
    g = load("bridge")
    assert bridges(g) == frozenset({6})


def test_k4_has_no_bridges(k4):
    assert bridges(k4) == frozenset()


def test_single_edge_is_a_bridge():
    g = Multigraph(2, [(0, 1)])
    assert bridges(g) == frozenset({0})


def test_c4_two_cuts_are_all_pairs():
    cuts = enumerate_two_edge_cuts(load("c4"))
    assert sorted(cuts) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_t3_has_no_two_cuts(t3):
    assert enumerate_two_edge_cuts(t3) == []


def test_doubled_triangle_edge_cut():
    # (0,1) doubled; the two plain edges at vertex 2 form the only 2-cut.
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert enumerate_two_edge_cuts(g) == [(2, 3)]


def test_two_cut_enumeration_requires_connected():
    g = Multigraph(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        enumerate_two_edge_cuts(g)


def test_cut_analysis_matches_subset_deletion_oracle():
    for name in ALL_NAMES:
        g = load(name)
        if g.edge_count > 12:
            continue
        expect_bridges, expect_cuts = oracle_cuts(g)
        assert bridges(g) == frozenset(expect_bridges), name
        assert set(enumerate_two_edge_cuts(g)) == expect_cuts, name


def test_edge_connectivity_thresholds(k4):
    assert edge_connectivity_at_least(k4, 3)
    assert not edge_connectivity_at_least(load("c4"), 3)
    assert not edge_connectivity_at_least(load("bridge"), 2)
    assert edge_connectivity_at_least(load("bridge"), 1)


# ---------------------------------------------------------------------------
# Admissibility


def test_k4_admissible(k4):
    assert is_rich_flow_admissible(k4).admissible


def test_c4_witness_is_lowest_adjacent_pair():
    v = is_rich_flow_admissible(load("c4"))
    assert not v.admissible
    assert v.cut_pair == (0, 1)
    assert v.shared_vertex == 1
    assert v.describe() == "not admissible: 2-edge-cut {0,1} shares vertex 1"


def test_doubled_triangle_witness():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    v = is_rich_flow_admissible(g)
    assert not v.admissible and v.cut_pair == (2, 3) and v.shared_vertex == 2


def test_disconnected_rejected():
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    v = is_rich_flow_admissible(g)
    assert not v.admissible and v.kind == "disconnected"


def test_admissible_graphs_have_min_degree_three():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 6)
        m = rng.randint(1, 10)
        pairs = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                pairs.append((u, v))
        if not pairs:
            continue
        g = Multigraph(n, pairs)
        if is_rich_flow_admissible(g).admissible:
            assert min(g.degree(v) for v in range(n)) >= 3
            assert g.max_degree() >= 3


def test_admissibility_invariant_under_relabeling():
    rng = random.Random(11)
    for name in ("k4", "dt", "c4", "bridge", "l2", "two_k4"):
        g = load(name)
        expected = is_rich_flow_admissible(g).admissible
        for _ in range(5):
            vperm = list(range(g.vertex_count))
            eperm = list(range(g.edge_count))
            rng.shuffle(vperm)
            rng.shuffle(eperm)
            assert is_rich_flow_admissible(relabel(g, vperm, eperm)).admissible == expected


# ---------------------------------------------------------------------------
# Circuits and chains


def test_circuit_through_parallel_edge(t3):
    c = find_circuit_through(t3, 0)
    assert c.edge_set == {0, 1}
    assert set(c.vertices) == {0, 1}


def test_circuit_through_k4_edge(k4):
    for e in range(k4.edge_count):
        c = find_circuit_through(k4, e)
        assert e in c.edge_set
        assert validate_circuit_chain(k4, CircuitChain((c,)))


def test_circuit_through_bridge_fails():
    with pytest.raises(PreconditionError):
        find_circuit_through(load("bridge"), 6)


def test_chain_on_c4_is_single_circuit():
    g = load("c4")
    ch = find_circuit_chain(g, 0, 2)
    assert len(ch) == 1 and ch.circuits[0].edge_set == {0, 1, 2, 3}


def test_chain_on_bowtie(bowtie):
    ch = find_circuit_chain(bowtie, 0, 4)
    assert len(ch) == 2
    assert ch.shared_vertices() == (2,)
    assert validate_circuit_chain(bowtie, ch, (0, 4))


def test_chain_on_k4_validates(k4):
    ch = find_circuit_chain(k4, 0, 3)
    assert validate_circuit_chain(k4, ch, (0, 3))


def test_chains_validate_on_all_corpus_pairs():
    for name in ("k4", "dt", "l2", "prism", "k33", "wagner"):
        g = load(name)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                ch = find_circuit_chain(g, u, v)
                assert validate_circuit_chain(g, ch, (u, v)), (name, u, v)


def test_chain_requires_two_edge_connected():
    with pytest.raises(PreconditionError):
        find_circuit_chain(load("bridge"), 0, 5)


def test_validate_rejects_two_shared_vertices():
    # Two triangles sharing an edge, presented as a 2-chain.
    g = Multigraph(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    c1 = Circuit((0, 1, 2), (0, 1, 2))
    c2 = Circuit((1, 3, 2), (3, 4, 1))
    assert not validate_circuit_chain(g, CircuitChain((c1, c2)))


def test_validate_rejects_far_intersection():
    # Chain of three triangles where the first and third share a vertex.
    g = Multigraph(
        6,
        [
            (0, 1), (1, 2), (0, 2),   # triangle A
            (2, 3), (3, 4), (2, 4),   # triangle B at 2
            (4, 0), (0, 5), (4, 5),   # triangle C at 4, also touching 0
        ],
    )
    a = Circuit((0, 1, 2), (0, 1, 2))
    b = Circuit((2, 3, 4), (3, 4, 5))
    c = Circuit((4, 0, 5), (6, 7, 8))
    assert not validate_circuit_chain(g, CircuitChain((a, b, c)))


def test_validate_endpoints_must_be_internal(bowtie):
    ch = find_circuit_chain(bowtie, 0, 4)
    assert not validate_circuit_chain(bowtie, ch, (2, 4))  # 2 is the shared vertex


# ---------------------------------------------------------------------------
# Attachable blocks


def test_attachable_block_two_triangles():
    g = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4)])
    blk, e1, e2, b1, b2 = find_attachable_block(g, {0, 1, 2})
    assert blk == {3, 4, 5}
    assert (e1, e2) == (6, 7)
    assert (b1, b2) == (3, 4)


def test_attachable_block_spanning_error(k4):
    with pytest.raises(PreconditionError, match="spanning"):
        find_attachable_block(k4, {0, 1, 2, 3})


def test_attachable_block_gated_by_vertex_step(k4):
    with pytest.raises(PreconditionError, match="vertex-attachment"):
        find_attachable_block(k4, {0, 1, 2})


def test_biconnected_edge_groups_long_cycle_is_one_block():
    n = 3000
    g = Multigraph(n, [(i, (i + 1) % n) for i in range(n)])
    assert _biconnected_edge_groups(g, range(n)) == [frozenset(range(n))]
