from __future__ import annotations

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
    chain_edges,
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
from reference_flow import make_adjacent_pair, send_through_circuit, zero_flow
from conftest import load, prism


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
    pairs = Flow(k4, GroupTag.zkxz2(11), tuple(zip(f1.values, f2.values)))
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
    f2 = Flow(t3, tag, ((1, 1), (2, 0), (3, 1)))
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
        tree, co = spanning_forest(g)
        values = [reference_flow.zero(tag)] * m
        for c in co:
            val = draw(element)
            values[c] = val
            for t, sign in fundamental_circuit_signs(g, tree, c):
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
    flow = Flow(g, tag, tuple(values))
    assert flow.values == tuple(reference_flow.normalize(tag, v) for v in values)
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


# ---------------------------------------------------------------------------
# Reorientation invariance


def flip_edge(g: Multigraph, f: Flow, eid: int) -> tuple[Multigraph, Flow]:
    pairs = [(e.head, e.tail) if e.id == eid else e.ends for e in g.edges]
    g2 = Multigraph(g.vertex_count, pairs)
    vals = list(f.values)
    vals[eid] = reference_flow.neg(f.group, vals[eid])
    return g2, Flow(g2, f.group, tuple(vals))


def test_reorientation_invariance():
    rng = random.Random(5)
    g = load("dt")
    tag = GroupTag.zkxz2(19)
    for _ in range(25):
        vals = []
        for _e in range(g.edge_count):
            vals.append((rng.randrange(19), rng.randrange(2)))
        # Make it conserved by summing random circuit sends instead.
        f = zero_flow(g, tag)
        acc = list(f.values)
        for _ in range(4):
            circ = find_circuit_through(g, rng.randrange(g.edge_count))
            a = (rng.randrange(19), rng.randrange(2))
            s = send_through_circuit(g, circ, a, tag)
            acc = [reference_flow.add(tag, x, y) for x, y in zip(acc, s.values)]
        f = Flow(g, tag, tuple(acc))
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
    (GroupTag.zkxz2(11), ((3, 1), (7, 1.0), (1, 0))),
    (GroupTag.zkxz2(11), ((3, 1), (7,), (1, 0))),
    (GroupTag.zkxz2(11), ((3, 1), 7, (1, 0))),
], ids=["int float", "int boolean", "zk", "z2", "z6", "zkxz2 float", "zkxz2 short", "zkxz2 scalar"])
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
    f = Flow(t3, GroupTag.zkxz2(11), ((3, 1), (7, 1), (1, 0)))
    back = read_flow_json(write_flow_json(f), t3)
    assert back.values == f.values


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
    tree, co = spanning_forest(k4)
    tag = GroupTag.zk(11)
    for co_e in co:
        vals = [0] * k4.edge_count
        vals[co_e] = 4
        for t, sign in fundamental_circuit_signs(k4, tree, co_e):
            vals[t] = (vals[t] + sign * 4) % 11
        assert verify_flow(k4, Flow(k4, tag, tuple(vals))).conserved
