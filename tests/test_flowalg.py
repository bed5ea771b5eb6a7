from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richflow import (
    AdjacentPair,
    Flow,
    GroupTag,
    InternalDefectError,
    Multigraph,
    PreconditionError,
)
from richflow.flowalg import (
    PairRelation,
    adjacent_pairs,
    is_rich,
    linear_combine,
    modular_to_integer,
    pair_relation,
    project_flow,
    read_flow_json,
    rich_report,
    strongly_intersecting,
    verify_flow,
    write_flow_json,
)
from richflow.cotree import cotree_flow_search, fundamental_circuit_signs
from richflow.multigraph import find_circuit_through, spanning_forest

import reference_flow
from reference_flow import (
    chain_edges,
    make_adjacent_pair,
    send_through_circuit,
    to_flow,
    values_of,
    zero_flow,
)
from conftest import ALL_NAMES, load, prism, random_cubic


def path3() -> Multigraph:
    # u -> v -> w, reference orientations along the path.
    return Multigraph(3, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# Sending values and combining flows


def test_send_around_k4_triangle(k4):
    circ = find_circuit_through(k4, 0)
    f = send_through_circuit(k4, circ, 2, GroupTag.zk(11))
    rep = verify_flow(k4, f)
    assert rep.conserved
    for e in range(k4.edge_count):
        if e in circ.edge_set:
            assert f.values[e] in (2, 9)
        else:
            assert f.values[e] == 0


def test_send_zero_gives_zero_flow(k4):
    circ = find_circuit_through(k4, 0)
    f = send_through_circuit(k4, circ, 0, GroupTag.zk(11))
    assert f.values == zero_flow(k4, GroupTag.zk(11)).values


def test_send_through_parallel_circuit_z2(t3):
    circ = find_circuit_through(t3, 0)
    f = send_through_circuit(t3, circ, 1, GroupTag.z2())
    assert f.values[0] == 1 and f.values[1] == 1 and f.values[2] == 0
    assert verify_flow(t3, f).conserved


def test_combine_integer_arithmetic(t3):
    tag = GroupTag.integers
    f1 = Flow(t3, tag(3), (1, 1, -2))
    f2 = Flow(t3, tag(3), (1, 1, -2))
    f3 = Flow(t3, tag(5), (2, 2, -4))
    out = linear_combine(((1, f3), (11, f2), (33, f1)), bound=100)
    assert out.values[0] == 2 + 11 * 1 + 33 * 1 == 46


def test_combine_group_mismatch(t3):
    # Only integer flows are combined.
    f1 = Flow(t3, GroupTag.integers(3), (1, 1, -2))
    f2 = Flow(t3, GroupTag.zk(11), (7, 4, 0))
    with pytest.raises(PreconditionError, match="only integer flows"):
        linear_combine(((1, f1), (1, f2)), bound=100)


def test_projections(k4):
    circ = find_circuit_through(k4, 0)
    f1 = send_through_circuit(k4, circ, 2, GroupTag.zk(11))
    f2 = send_through_circuit(k4, circ, 1, GroupTag.z2())
    pairs = to_flow(k4, GroupTag.zkxz2(11), zip(f1.values, f2.values))
    assert project_flow(pairs, 0).values == f1.values
    assert project_flow(pairs, 1).values == f2.values


# ---------------------------------------------------------------------------
# Pair relations


def test_equal_values_along_path_are_confluent():
    g = path3()
    f = Flow(g, GroupTag.zk(11), (3, 3, 0))
    rel = pair_relation(f, make_adjacent_pair(g, 0, 1))
    assert rel.confluent and not rel.contrafluent


def test_opposite_values_along_path_are_contrafluent():
    g = path3()
    f = Flow(g, GroupTag.zk(11), (3, -3, 0))
    rel = pair_relation(f, make_adjacent_pair(g, 0, 1))
    assert rel.contrafluent and not rel.confluent


def test_z2_involution_is_both():
    g = path3()
    f = Flow(g, GroupTag.z2(), (1, 1, 0))
    rel = pair_relation(f, make_adjacent_pair(g, 0, 1))
    assert rel.confluent and rel.contrafluent


def test_parallel_pair_relation_vertex_independent(t3):
    rng = random.Random(3)
    for _ in range(40):
        vals = tuple(rng.randrange(11) for _ in range(3))
        f = Flow(t3, GroupTag.zk(11), vals)
        # pair_relation itself asserts agreement between the two shared
        # vertices; just exercise it on random values.
        pair_relation(f, make_adjacent_pair(t3, 0, 1))


def test_pair_relation_rejects_an_anchor_off_the_pair():
    g = path3()
    f = Flow(g, GroupTag.zk(11), (3, 3, 0))
    with pytest.raises(PreconditionError, match="anchor"):
        pair_relation(f, AdjacentPair(0, 1, 0))


def test_strongly_intersecting_cases(k4):
    # All three edges at vertex 0 of K4: ids 0,1,2.
    p1 = make_adjacent_pair(k4, 0, 1)
    p2 = make_adjacent_pair(k4, 1, 2)
    assert strongly_intersecting(k4, p1, p2)
    # Pairs sharing edge 0=(0,1) at its two different endpoints: path shape.
    q1 = make_adjacent_pair(k4, 1, 0)  # shares vertex 0
    q2 = make_adjacent_pair(k4, 0, 4)  # edge 4=(1,3) shares vertex 1
    assert not strongly_intersecting(k4, q1, q2)
    # Disjoint pairs.
    r1 = make_adjacent_pair(k4, 0, 1)
    r2 = make_adjacent_pair(k4, 4, 5)
    assert not strongly_intersecting(k4, r1, r2)
    # Equal pairs.
    assert not strongly_intersecting(k4, p1, p1)


# ---------------------------------------------------------------------------
# Verification, chain edges, richness


def test_verify_circuit_flow_reports_zeros(k4):
    circ = find_circuit_through(k4, 0)
    f = send_through_circuit(k4, circ, 2, GroupTag.zk(11))
    rep = verify_flow(k4, f)
    assert rep.conserved and not rep.nowhere_zero
    assert set(rep.zero_edges) == set(range(6)) - circ.edge_set


def test_verify_zero_flow(k4):
    rep = verify_flow(k4, zero_flow(k4, GroupTag.z6()))
    assert rep.conserved and not rep.nowhere_zero


def test_verify_single_nonzero_edge_violates_endpoints(t3):
    f = Flow(t3, GroupTag.zk(11), (1, 0, 0))
    rep = verify_flow(t3, f)
    assert not rep.conserved
    assert rep.violating_vertices == (0, 1)


def test_chain_edges_selection(t3):
    tag = GroupTag.zkxz2(11)
    f = zero_flow(t3, tag)
    assert chain_edges(f) == frozenset()
    f2 = to_flow(t3, tag, ((1, 1), (2, 0), (3, 1)))
    assert chain_edges(f2) == {0, 2}
    with pytest.raises(PreconditionError):
        chain_edges(zero_flow(t3, GroupTag.z6()))


def test_rich_flow_on_theta(t3):
    f = Flow(t3, GroupTag.integers(4), (1, 2, -3))
    assert verify_flow(t3, f).conserved
    assert is_rich(t3, f)


def test_zero_edge_is_not_rich(t3):
    f = Flow(t3, GroupTag.integers(4), (1, 2, 0))
    assert not is_rich(t3, f)


def test_equal_absolute_values_not_rich():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    f = Flow(g, GroupTag.integers(7), (3, 3, 3))
    assert verify_flow(g, f).conserved
    assert not is_rich(g, f)


def test_degree_three_vertices_have_no_confluent_pairs():
    # Conservation forces the third edge to zero if two edges are confluent.
    from richflow import nowhere_zero_z6

    for name in ("k4", "petersen", "k33", "prism", "l2"):
        g = load(name)
        f = nowhere_zero_z6(g)
        for p in adjacent_pairs(g):
            if g.degree(p.shared_vertex) == 3:
                assert not pair_relation(f, p).confluent, (name, p)


@st.composite
def loop_free_multigraphs(draw, max_edges: int = 14) -> Multigraph:
    n = draw(st.integers(2, 6))
    steps = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=max_edges)
    )
    return Multigraph(n, [(u, (u + d) % n) for u, d in steps])


@settings(max_examples=200, deadline=None)
@given(loop_free_multigraphs())
def test_adjacent_pairs_match_all_pair_listing(g):
    expected = [
        make_adjacent_pair(g, e, f)
        for e in range(g.edge_count)
        for f in range(e + 1, g.edge_count)
        if g.shared_vertices(e, f)
    ]
    assert adjacent_pairs(g) == expected


def test_adjacent_pairs_of_a_long_prism():
    # 3,000 cubic vertices with 3 pairs each, among 10.1 million edge pairs.
    assert len(adjacent_pairs(prism(1500))) == 9000


# ---------------------------------------------------------------------------
# Plain-integer kernels against the generic reference in reference_flow.py

# One tag per group kind; small orders make zeros and equal |values| common.
KINDS = (GroupTag.zk(5), GroupTag.z2(), GroupTag.z6(), GroupTag.zkxz2(3), GroupTag.integers(5))


@st.composite
def kernel_cases(draw) -> tuple[Multigraph, GroupTag, list]:
    """A multigraph, a group, and raw values: random, or conserved by
    deciding the tree edges from random co-tree values, with some edges then
    overwritten. Integer values may leave the bound."""
    g = draw(loop_free_multigraphs())
    tag = draw(st.sampled_from(KINDS))
    if tag.kind == "zkxz2":
        element = overwrite = st.tuples(st.integers(-7, 7), st.integers(-2, 2))
    elif tag.kind == "int":
        element = st.integers(1, tag.bound - 1) | st.integers(1 - tag.bound, -1)
        overwrite = st.integers(-tag.bound, tag.bound)
    else:
        element = overwrite = st.integers(-7, 7)
    m = g.edge_count
    values = draw(st.lists(element, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        _, co, up, depth = spanning_forest(g)
        values = [reference_flow.zero(tag)] * m
        for c in co:
            val = draw(element)
            values[c] = val
            for t, sign in fundamental_circuit_signs(g, up, depth, c):
                step = val if sign == 1 else reference_flow.neg(tag, val)
                values[t] = reference_flow.add(tag, values[t], step)
        for e in draw(st.lists(st.integers(0, m - 1), max_size=2)):
            values[e] = draw(overwrite)
    return g, tag, values


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, InternalDefectError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(kernel_cases(), st.integers(-3, 3), st.integers(-3, 3))
def test_kernels_match_generic_reference(case, c1, c2):
    g, tag, values = case
    # Values beyond an integer bound are accepted; rich_report's bound_ok decides.
    # A Z_k x Z_2 pair enters as one unreduced int, which Flow reduces mod 2k.
    flow = to_flow(g, tag, values)
    assert values_of(flow) == tuple(reference_flow.normalize(tag, v) for v in values)
    if tag.modulus is not None:
        assert all(0 <= x < tag.modulus for x in flow.values)
    assert verify_flow(g, flow) == reference_flow.verify_flow(g, flow)
    if tag.kind == "int":
        assert rich_report(g, flow) == reference_flow.rich_report(g, flow)
        assert rich_report(g, flow).bound_ok == all(abs(v) < tag.bound for v in values)
    # Every ordered pair of distinct edges at every endpoint of either edge:
    # anchors off the pair and both anchors of a parallel pair included.
    for e in g.edges:
        for f in g.edges:
            if e.id == f.id:
                continue
            for w in set(e.ends) | set(f.ends):
                pair = AdjacentPair(e.id, f.id, w)
                got = outcome(pair_relation, flow, pair)
                if isinstance(got, PairRelation):
                    got = (got.confluent, got.contrafluent)
                assert got == outcome(reference_flow.pair_relation, flow, pair)
    if tag.kind == "int":
        other = Flow(g, tag, flow.values[::-1])
        terms = ((c1, flow), (c2, other))
        expected = reference_flow.linear_combine_values(terms)
        assert list(linear_combine(terms, bound=tag.bound).values) == expected


@settings(max_examples=150, deadline=None)
@given(loop_free_multigraphs(max_edges=8), st.sampled_from(KINDS[:3]))
def test_cotree_search_matches_generic_reference(g, tag):
    flow = cotree_flow_search(g, tag)
    expected = reference_flow.cotree_flow_values(g, tag)
    assert (flow is None and expected is None) or flow.values == expected


@pytest.mark.parametrize("tag", [GroupTag.integers(5), GroupTag.zkxz2(3)], ids=["int", "zkxz2"])
def test_cotree_search_takes_only_cyclic_groups(k4, tag):
    with pytest.raises(PreconditionError, match="Z_k, Z_2 or Z_6"):
        cotree_flow_search(k4, tag)


def assert_walks_match_the_tree_bfs(g: Multigraph) -> None:
    # The walk up the rooted forest and a BFS over the same tree's edges
    # find the same path, edge by edge and sign by sign.
    tree, co, up, depth = spanning_forest(g)
    assert tree == frozenset(e for e in up if e >= 0)
    for co_e in co:
        want = reference_flow.fundamental_circuit_signs(g, tree, co_e)
        assert fundamental_circuit_signs(g, up, depth, co_e) == want


@settings(max_examples=300, deadline=None)
@given(loop_free_multigraphs())
def test_forest_walk_circuits_match_the_tree_bfs(g):
    assert_walks_match_the_tree_bfs(g)


def test_forest_walk_circuits_match_the_tree_bfs_on_the_corpus():
    rng = random.Random(5)
    for g in [load(name) for name in ALL_NAMES] + [random_cubic(rng, n) for n in (32, 64)]:
        assert_walks_match_the_tree_bfs(g)


def test_cotree_search_runs_no_path_search(monkeypatch):
    # Every fundamental circuit is walked up the one rooted forest: no BFS
    # path search per co-tree edge (7.6 per small synthesis when each ran one).
    from richflow import cotree, multigraph

    calls = []
    for module in (multigraph, cotree):
        real = getattr(module, "_bfs_path", None)
        if real is not None:
            monkeypatch.setattr(module, "_bfs_path", lambda *a, real=real: calls.append(a) or real(*a))
    for name in ALL_NAMES:
        cotree_flow_search(load(name), GroupTag.z6())
    assert calls == []


# ---------------------------------------------------------------------------
# Reorientation invariance


def flip_edge(g: Multigraph, f: Flow, eid: int) -> tuple[Multigraph, Flow]:
    pairs = [(e.head, e.tail) if e.id == eid else e.ends for e in g.edges]
    g2 = Multigraph(g.vertex_count, pairs)
    vals = list(values_of(f))
    vals[eid] = reference_flow.neg(f.group, vals[eid])
    return g2, to_flow(g2, f.group, vals)


def test_reorientation_invariance():
    rng = random.Random(5)
    g = load("dt")
    tag = GroupTag.zkxz2(19)
    for _ in range(25):
        vals = []
        for _e in range(g.edge_count):
            vals.append((rng.randrange(19), rng.randrange(2)))
        # Make it conserved by summing random circuit sends instead.
        acc = list(values_of(zero_flow(g, tag)))
        for _ in range(4):
            circ = find_circuit_through(g, rng.randrange(g.edge_count))
            a = (rng.randrange(19), rng.randrange(2))
            s = send_through_circuit(g, circ, a, tag)
            acc = [reference_flow.add(tag, x, y) for x, y in zip(acc, values_of(s))]
        f = to_flow(g, tag, acc)
        eid = rng.randrange(g.edge_count)
        g2, f2 = flip_edge(g, f, eid)
        assert verify_flow(g, f).conserved == verify_flow(g2, f2).conserved
        assert chain_edges(f) == chain_edges(f2)
        for p in adjacent_pairs(g):
            assert pair_relation(f, p) == pair_relation(f2, p)


def test_reorientation_invariance_richness(t3):
    f = Flow(t3, GroupTag.integers(4), (1, 2, -3))
    g2, f2 = flip_edge(t3, f, 2)
    assert is_rich(t3, f) == is_rich(g2, f2) is True


# ---------------------------------------------------------------------------
# Modular-to-integer conversion


def test_convert_small_circuit_value(k4):
    circ = find_circuit_through(k4, 0)
    f = send_through_circuit(k4, circ, 2, GroupTag.zk(11))
    out = modular_to_integer(k4, f)
    assert all(v in (0, 2, -2) for v in out.values)


def test_convert_large_circuit_value(k4):
    circ = find_circuit_through(k4, 0)
    f = send_through_circuit(k4, circ, 7, GroupTag.zk(11))
    out = modular_to_integer(k4, f)
    for e in range(k4.edge_count):
        assert (out.values[e] - f.values[e]) % 11 == 0
        assert abs(out.values[e]) < 11
        assert (out.values[e] == 0) == (f.values[e] == 0)
    assert verify_flow(k4, out).conserved


def test_convert_z2_cycle_gives_unit_circulation():
    g = load("c4")
    f = Flow(g, GroupTag.z2(), (1, 1, 1, 1))
    out = modular_to_integer(g, f)
    assert all(abs(v) == 1 for v in out.values)
    assert verify_flow(g, out).conserved


def test_convert_requires_conserved_input(t3):
    with pytest.raises(PreconditionError):
        modular_to_integer(t3, Flow(t3, GroupTag.zk(11), (1, 0, 0)))


# A 2-cycle 0 -> 1 -> 0 carrying 1 and 1 over Z_3 is conserved over the
# integers too, so the circulation moves nothing; each wrong circulation
# here breaks one family of the lift's checks, conservation first.
WRONG_CIRCULATIONS = [
    ([1, 0], "integer lift lost conservation"),  # lifts -2, 1
    ([2, 2], "integer lift broke residues, zero set or bound"),  # lifts -5, -5
    ([3, 0], "integer lift lost conservation"),  # lifts -8, 1: both broken
]


@pytest.mark.parametrize("arc_flow, message", WRONG_CIRCULATIONS)
def test_a_wrong_circulation_fails_the_lift_check(monkeypatch, arc_flow, message):
    from richflow import flowalg

    g = Multigraph(2, [(0, 1), (1, 0)])
    monkeypatch.setattr(flowalg, "_max_flow", lambda *args: (0, arc_flow))
    with pytest.raises(InternalDefectError, match=f"^{message}$"):
        modular_to_integer(g, Flow(g, GroupTag.zk(3), (1, 1)))


def random_modular_flow(g, tag, rng, sends=5):
    acc = list(zero_flow(g, tag).values)
    for _ in range(sends):
        circ = find_circuit_through(g, rng.randrange(g.edge_count))
        if rng.random() < 0.5:
            circ = circ.reversed()
        a = rng.randrange(1, tag.modulus)
        s = send_through_circuit(g, circ, a, tag)
        acc = [reference_flow.add(tag, x, y) for x, y in zip(acc, s.values)]
    return Flow(g, tag, tuple(acc))


def test_convert_properties_on_random_flows():
    rng = random.Random(17)
    names = ("k4", "dt", "prism", "c4_doubled", "wagner")
    moduli = (3, 5, 11, 19)
    for _ in range(200):
        g = load(rng.choice(names))
        tag = GroupTag.zk(rng.choice(moduli))
        f = random_modular_flow(g, tag, rng)
        out = modular_to_integer(g, f)
        k = tag.modulus
        assert verify_flow(g, out).conserved
        for e in range(g.edge_count):
            assert (out.values[e] - f.values[e]) % k == 0
            assert abs(out.values[e]) < k
            assert (out.values[e] == 0) == (f.values[e] == 0)


# ---------------------------------------------------------------------------
# Flow values


@pytest.mark.parametrize("tag, values", [
    (GroupTag.integers(4), (1.5, 2.7, -3.9)),
    (GroupTag.integers(4), (1, True, -3)),
    (GroupTag.zk(5), (1, 2.0, 2)),
    (GroupTag.z2(), (1, 1, "0")),
    (GroupTag.z6(), (1, 2, 3.0)),
    # A Z_k x Z_2 value is one int mod 2k; pairs exist only in certificates.
    (GroupTag.zkxz2(11), (3, 18.0, 12)),
    (GroupTag.zkxz2(11), (3, True, 12)),
    (GroupTag.zkxz2(11), (3, (7,), 12)),
    (GroupTag.zkxz2(11), (3, (7, 1), 12)),
], ids=[
    "int float", "int boolean", "zk", "z2", "z6",
    "zkxz2 float", "zkxz2 boolean", "zkxz2 short", "zkxz2 pair",
])
def test_flow_rejects_values_that_are_not_ints(t3, tag, values):
    with pytest.raises(PreconditionError, match="int"):
        Flow(t3, tag, values)


# ---------------------------------------------------------------------------
# Certificate files


def test_flow_json_round_trip(t3):
    f = Flow(t3, GroupTag.integers(4), (1, 2, -3))
    back = read_flow_json(write_flow_json(f), t3)
    assert back.values == f.values and back.group == f.group


def test_flow_json_zkxz2_round_trip(t3):
    f = to_flow(t3, GroupTag.zkxz2(11), ((3, 1), (7, 1), (1, 0)))
    back = read_flow_json(write_flow_json(f), t3)
    assert back.values == f.values


def zkxz2_certificate(k: int, rows) -> str:
    """A zkxz2 certificate in `write_flow_json`'s layout; rows are
    (tail, head, [a, y]) in edge id order."""
    edges = [
        {"id": e, "tail": tail, "head": head, "value": value}
        for e, (tail, head, value) in enumerate(rows)
    ]
    return json.dumps({"format": 1, "group": "zkxz2", "k": k, "edges": edges}, indent=2) + "\n"


def test_flow_json_reversed_zkxz2_row_negates_the_zk_coordinate(t3):
    # t3's edges all run 0 -> 1; rows 0 and 2 are written head -> tail.
    text = zkxz2_certificate(11, [(1, 0, [3, 1]), (0, 1, [7, 1]), (1, 0, [0, 1])])
    back = read_flow_json(text, t3)
    assert values_of(back) == ((8, 1), (7, 1), (0, 1))
    assert verify_flow(t3, back) == reference_flow.verify_flow(t3, back)


def test_flow_json_reduces_an_out_of_range_pair(t3):
    text = zkxz2_certificate(11, [(0, 1, [-8, 3]), (1, 0, [-8, 3]), (0, 1, [25, -2])])
    back = read_flow_json(text, t3)
    assert values_of(back) == ((3, 1), (8, 1), (3, 0))
    rows = json.loads(write_flow_json(back))["edges"]
    assert [row["value"] for row in rows] == [[3, 1], [8, 1], [3, 0]]


def test_flow_json_round_trips_every_zkxz2_value():
    pairs = [[a, y] for a in range(11) for y in range(2)]
    g = Multigraph(2, [(0, 1)] * len(pairs))
    text = zkxz2_certificate(11, [(0, 1, v) for v in pairs])
    back = read_flow_json(text, g)
    assert values_of(back) == tuple(map(tuple, pairs))
    assert sorted(back.values) == list(range(22))
    assert write_flow_json(back) == text


def test_flow_json_reversed_row_normalizes(t3):
    text = write_flow_json(Flow(t3, GroupTag.integers(4), (1, 2, -3)))
    flipped = text.replace('"tail": 0,\n      "head": 1,\n      "value": 1', '"tail": 1,\n      "head": 0,\n      "value": -1')
    back = read_flow_json(flipped, t3)
    assert back.values == (1, 2, -3)


def test_flow_json_rejects_wrong_graph(t3, k4):
    text = write_flow_json(Flow(t3, GroupTag.integers(4), (1, 2, -3)))
    with pytest.raises(Exception):
        read_flow_json(text, k4)


# ---------------------------------------------------------------------------
# Spanning structure sanity (shared search scaffolding)


def test_fundamental_circuits_are_conserved(k4):
    _, co, up, depth = spanning_forest(k4)
    tag = GroupTag.zk(11)
    for co_e in co:
        vals = [0] * k4.edge_count
        vals[co_e] = 4
        for t, sign in fundamental_circuit_signs(k4, up, depth, co_e):
            vals[t] = (vals[t] + sign * 4) % 11
        assert verify_flow(k4, Flow(k4, tag, tuple(vals))).conserved
