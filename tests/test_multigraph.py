from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richflow import (
    GraphInputError,
    Multigraph,
    PreconditionError,
    is_rich_flow_admissible,
    parse_multigraph,
)
from richflow.multigraph import (
    Circuit,
    CircuitChain,
    _biconnected_edge_groups,
    _dfs_facts,
    enumerate_two_edge_cuts,
    find_attachable_block,
    find_circuit_chain,
    find_circuit_through,
    validate_circuit_chain,
)
from richflow import multigraph

from conftest import (
    ALL_NAMES,
    load,
    oracle_components,
    oracle_cuts,
    random_cubic,
    relabel,
    three_edge_connected,
)
from reference_flow import format_multigraph
from reference_tower import bridges


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


def test_two_cut_enumeration_edge_cases():
    assert enumerate_two_edge_cuts(Multigraph(0, [])) == []
    assert enumerate_two_edge_cuts(Multigraph(1, [])) == []
    assert enumerate_two_edge_cuts(Multigraph(2, [(0, 1), (0, 1)])) == [(0, 1)]
    assert enumerate_two_edge_cuts(Multigraph(2, [(0, 1), (1, 0), (0, 1)])) == []
    # Vertex 0 isolated, the rest a triangle: the tree from 0 reaches nothing.
    with pytest.raises(PreconditionError):
        enumerate_two_edge_cuts(Multigraph(4, [(1, 2), (2, 3), (1, 3)]))


def _connected_multigraph(rng, n: int, m: int) -> Multigraph:
    while True:
        g = Multigraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
        if oracle_components(n, [e.ends for e in g.edges]) == 1:
            return g


@pytest.mark.parametrize(
    "g",
    [random_cubic(random.Random(24), 24), _connected_multigraph(random.Random(14), 5, 14)],
    ids=["cubic-n24", "n5-m14"],
)
def test_two_cut_enumeration_tests_only_pairs_with_a_tree_edge(monkeypatch, g):
    built = []

    class CountingUnionFind(multigraph._UnionFind):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(multigraph, "_UnionFind", CountingUnionFind)
    enumerate_two_edge_cuts(g)
    # The pairs tested have a tree edge, and are either two edges with no
    # parallel and no bridge, or the two edges of a bundle of two. A twin
    # pair has a tree edge or not depending on the tree, so take the one
    # enumerate_two_edge_cuts takes.
    tree = _dfs_facts(g)[2]
    bundle = Counter(frozenset(e.ends) for e in g.edges)
    lone = [e.id for e in g.edges if bundle[frozenset(e.ends)] == 1 and e.id not in bridges(g)]
    off_tree = sum(e not in tree for e in lone)
    twins_on_tree = sum(e.id in tree for e in g.edges if bundle[frozenset(e.ends)] == 2)
    expected = len(lone) * (len(lone) - 1) // 2 - off_tree * (off_tree - 1) // 2 + twins_on_tree
    assert len(built) == expected
    assert off_tree > 1  # the tree prune skipped some pairs
    # The tree prune alone tests the non-bridge pairs with a tree edge.
    non_bridge = g.edge_count - len(bridges(g))
    all_off_tree = non_bridge - (g.vertex_count - 1 - len(bridges(g)))
    tree_prune_only = non_bridge * (non_bridge - 1) // 2 - all_off_tree * (all_off_tree - 1) // 2
    assert (expected < tree_prune_only) == (max(bundle.values()) > 1)


def test_edge_connectivity_thresholds(k4):
    # 3-edge-connectivity is read off the verdict; connectivity and
    # bridgelessness off one lowpoint DFS.
    assert three_edge_connected(k4)
    assert not three_edge_connected(load("c4"))
    connected, bridge_set, _ = _dfs_facts(load("bridge"))
    assert connected and bridge_set
    # Admissible, with one 2-edge-cut {4, 5} whose edges share no vertex.
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
    assert is_rich_flow_admissible(g).two_cuts == ((4, 5),)
    assert not three_edge_connected(g)


@st.composite
def small_multigraphs(draw) -> Multigraph:
    """Loop-free multigraphs with n <= 7 and m <= 12; parallel edges and
    disconnected graphs included."""
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=12))
    return Multigraph(n, [(u, (u + d) % n) for u, d in steps])


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_cut_answers_match_subset_deletion_oracle(g):
    expect_bridges, expect_cuts = oracle_cuts(g)
    connected = oracle_components(g.vertex_count, [e.ends for e in g.edges]) == 1
    two_connected = connected and not expect_bridges
    assert bridges(g) == frozenset(expect_bridges)
    verdict = is_rich_flow_admissible(g)
    assert verdict.two_cuts == (tuple(sorted(expect_cuts)) if two_connected else ())
    dfs_connected, dfs_bridges, _ = _dfs_facts(g)
    assert dfs_connected == connected
    assert (dfs_connected and not dfs_bridges) == two_connected
    assert three_edge_connected(g) == (two_connected and not expect_cuts)
    # The verdict's witnesses: the lowest bridge, and the first 2-edge-cut in
    # list order whose edges share a vertex, with their lowest shared vertex.
    shared = [
        (e, f, min(set(g.edges[e].ends) & set(g.edges[f].ends)))
        for e, f in sorted(expect_cuts)
        if set(g.edges[e].ends) & set(g.edges[f].ends)
    ]
    if not connected:
        kind = "disconnected"
    elif expect_bridges:
        kind = "bridge"
    else:
        kind = "shared_two_cut" if two_connected and shared else None
    assert (verdict.admissible, verdict.kind) == (kind is None, kind)
    assert verdict.bridge == (min(expect_bridges) if kind == "bridge" else None)
    if kind == "shared_two_cut":
        assert (verdict.cut_pair, verdict.shared_vertex) == (shared[0][:2], shared[0][2])
    else:
        assert (verdict.cut_pair, verdict.shared_vertex) == (None, None)
    if two_connected:
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert validate_circuit_chain(g, find_circuit_chain(g, u, v), (u, v))


@st.composite
def dense_multigraphs(draw) -> Multigraph:
    """Loop-free multigraphs with n <= 8 and m up to 3n: parallel edges,
    bridges and disconnected graphs included."""
    n = draw(st.integers(2, 8))
    steps = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=3 * n)
    )
    return Multigraph(n, [(u, (u + d) % n) for u, d in steps])


@st.composite
def small_cubic_graphs(draw) -> Multigraph:
    # A drawn seed, not a hypothesis-backed Random: random_cubic rejection
    # samples, and each rejected shuffle would spend hypothesis entropy.
    n = draw(st.sampled_from([4, 6, 8, 10, 12]))
    return random_cubic(random.Random(draw(st.integers(0, 2**32 - 1))), n)


@st.composite
def bundled_multigraphs(draw) -> Multigraph:
    """Connected multigraphs shaped like the benchmark's small batch graphs:
    n <= 6, m <= 14, most edges in bundles of 2 to 4 parallel edges. A random
    spanning tree and up to four more vertex pairs each get a bundle of 1 to
    4 edges, as far as 14 edges allow, in shuffled order and orientations;
    so bridges, twins and larger bundles all occur."""
    n = draw(st.integers(2, 6))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    ends += [(u, (u + d) % n) for u, d in draw(st.lists(extra, max_size=4))]
    pairs = list(ends)
    for pair in ends:
        pairs += [pair] * min(draw(st.integers(1, 4)) - 1, 14 - len(pairs))
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Multigraph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(dense_multigraphs(), small_cubic_graphs(), bundled_multigraphs()))
def test_two_cut_list_equals_brute_force_oracle(g):
    expect_bridges, expect_cuts = oracle_cuts(g)
    expected = sorted(expect_cuts)
    if oracle_components(g.vertex_count, [e.ends for e in g.edges]) != 1:
        with pytest.raises(PreconditionError):
            enumerate_two_edge_cuts(g)
        assert is_rich_flow_admissible(g).two_cuts == ()
        return
    assert enumerate_two_edge_cuts(g) == expected
    assert is_rich_flow_admissible(g).two_cuts == (() if expect_bridges else tuple(expected))


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
    # The refusal still carries every 2-edge-cut.
    assert v.two_cuts == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
    assert ch.circuits[0].vertex_set & ch.circuits[1].vertex_set == {2}
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


def test_attachable_block_leaves_out_the_bridges_between_blocks():
    # Outside the triangle {0, 1, 2}, the triangles {3, 4, 5} and {6, 7, 8}
    # are joined by edge 6 = (5, 6), a bridge of g minus the inside: two leaf
    # blocks, not one block holding a bridge.
    g = Multigraph(
        9,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7), (7, 8), (6, 8),
         (0, 3), (1, 4), (2, 7), (0, 8)],
    )
    assert find_attachable_block(g, {0, 1, 2}) == (frozenset({3, 4, 5}), 10, 11, 3, 4)


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
