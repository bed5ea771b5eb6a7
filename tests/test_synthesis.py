from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from richflow import (
    AdmissibilityError,
    Flow,
    GroupTag,
    InternalDefectError,
    Multigraph,
    PreconditionError,
    SearchBudget,
    building_phi,
    exact_rich_flow_number,
    is_rich_flow_admissible,
    rich_mod_flow,
    synthesize_rich_flow,
)
from richflow.flowalg import (
    adjacent_pairs,
    is_rich,
    pair_relation,
    strongly_intersecting,
    verify_flow,
    write_flow_json,
)
from richflow import flowalg, multigraph, synthesis
from richflow.multigraph import Circuit, CircuitChain, _dfs_facts, validate_circuit_chain
from richflow.synthesis import AddChord, build_tower, split_on_two_cut, verify_mod_flow_bullets

import reference_flow
import reference_tower
from reference_flow import chain_edges, encode, to_flow, values_of
from reference_tower import stage_edges, step_edges, subgraph
from conftest import (
    ADMISSIBLE_NAMES,
    load,
    oracle_components,
    oracle_cuts,
    random_cubic,
    three_edge_connected,
)
from test_multigraph import small_multigraphs
import test_tower_checks
from test_tower_checks import admissible_multigraphs, draw_block, shuffled_graph


THREE_EDGE_CONNECTED = [name for name in ADMISSIBLE_NAMES if three_edge_connected(load(name))]


# ---------------------------------------------------------------------------
# Towers


def test_tower_t3_forced_shape(t3):
    tw = build_tower(t3, 0, 1)
    assert [c.edge_set for c in tw.base.circuits] == [{0, 1}]
    assert tw.steps == (AddChord(2),)


def test_tower_k4_b0_structure(k4):
    tw = build_tower(k4, 0, 0)
    star = k4.edge(0)
    # Base connects the special edge's endpoints without using it.
    assert 0 not in tw.base.edge_set
    assert validate_circuit_chain(k4, tw.base, (star.tail, star.head))
    # The special edge enters only as the final chord.
    assert tw.steps[-1] == AddChord(0)
    for step in tw.steps[:-1]:
        assert not (isinstance(step, AddChord) and step.edge == 0)
    # Every stage is 2-edge-connected, and the base and steps add every edge
    # exactly once, which the backward pass's stage walk relies on.
    for edges in stage_edges(tw):
        vs = set()
        for e in edges:
            vs |= set(k4.edge(e).ends)
        connected, stage_bridges, _ = _dfs_facts(subgraph(k4, vs, edges)[0])
        assert connected and not stage_bridges
    assert_adds_every_edge_once(k4, tw)


def assert_adds_every_edge_once(g, tw) -> None:
    added = [e for circ in tw.base.circuits for e in circ.edges]
    for step in tw.steps:
        added += step_edges(step)
    assert sorted(added) == list(range(g.edge_count))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(admissible_multigraphs(), st.data())
def test_chain_search_leaving_an_edge_out_matches_the_copy(g, data):
    # build_tower searches its b = 0 base in g with the special edge left out;
    # the relabelled copy of g minus that edge, searched and mapped back,
    # gives the same chain, or the same refusal when g minus the edge is not
    # 2-edge-connected (g has 2-edge-cuts).
    e = data.draw(st.integers(0, g.edge_count - 1))
    u, v = data.draw(st.sampled_from([g.edge(e).ends, g.edge(e).ends[::-1], (0, g.vertex_count - 1)]))
    keep = [f for f in range(g.edge_count) if f != e]
    sub, vmap, emap = subgraph(g, range(g.vertex_count), keep)
    try:
        want = synthesis._map_chain(multigraph.find_circuit_chain(sub, u, v), vmap, emap)
    except PreconditionError:
        assert not three_edge_connected(g)
        with pytest.raises(PreconditionError):
            multigraph.find_circuit_chain(g, u, v, edge_ids=keep)
        return
    assert multigraph.find_circuit_chain(g, u, v, edge_ids=keep) == want


def test_tower_rejects_non_three_connected():
    with pytest.raises(PreconditionError):
        build_tower(load("c4"), 0, 0)


def path_of(c: Circuit) -> Circuit:
    """The circuit c with its last edge left out: a path, no circuit."""
    return Circuit(c.vertices[:-1], c.edges[:-1])


@pytest.mark.parametrize("b", [0, 1])
def test_tower_refuses_a_base_that_is_not_a_circuit_chain(monkeypatch, k4, b):
    # The base must be checked: every later step is only checked as an ear.
    real_circuit, real_chain = synthesis.find_circuit_through, synthesis.find_circuit_chain
    monkeypatch.setattr(synthesis, "find_circuit_through", lambda g, e: path_of(real_circuit(g, e)))
    monkeypatch.setattr(
        synthesis,
        "find_circuit_chain",
        lambda *args, **kwargs: CircuitChain(
            tuple(map(path_of, real_chain(*args, **kwargs).circuits))
        ),
    )
    with pytest.raises(InternalDefectError, match="^tower stage is not 2-edge-connected after base$"):
        build_tower(k4, 0, b)


def test_tower_exercises_block_step():
    # Wagner and Petersen need the block-chain growth rule at some stage for
    # at least one base; just assert towers build from every edge.
    for name in ("wagner", "petersen"):
        g = load(name)
        for e in (0, g.edge_count // 2, g.edge_count - 1):
            for b in (0, 1):
                assert_adds_every_edge_once(g, build_tower(g, e, b))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from([8, 10, 12, 16]), st.integers(0, 2**32 - 1), st.data())
def test_block_chain_inner_edges_are_the_union_of_the_handed_blocks(n, seed, data):
    # A block-chain step lists its block's edges as the union of the blocks
    # that find_attachable_block hands on, not by a scan of every edge of g.
    g = random_cubic(random.Random(seed), n)
    if not three_edge_connected(g):
        reject()
    real = synthesis.find_attachable_block
    steps = []

    def checked(g, inside, *, blocks):
        found = real(g, inside, blocks=blocks)
        blk = found[0]
        scanned = [e.id for e in g.edges if e.tail in blk and e.head in blk]
        assert sorted(eid for grp in blocks for eid in grp) == scanned
        steps.append(blk)
        return found

    e_star = data.draw(st.integers(0, g.edge_count - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "find_attachable_block", checked)
        tower = build_tower(g, e_star, data.draw(st.integers(0, 1)))
    if not steps:
        reject()
    assert len(steps) == sum(isinstance(s, synthesis.AddBlockChain) for s in tower.steps)


# ---------------------------------------------------------------------------
# building_phi


def check_bullets(g, result, e_star, orientation, target):
    flow = result.flow
    rep = verify_flow(g, flow)
    assert rep.conserved and rep.nowhere_zero
    verify_mod_flow_bullets(g, flow, result.chains)
    star = g.edge(e_star)
    stored = values_of(flow)[e_star]
    fixed = stored if orientation == star.ends else reference_flow.neg(flow.group, stored)
    k = flow.group.k
    assert fixed == (target[0] % k, target[1] % 2)


def test_building_phi_t3(t3):
    res = building_phi(t3, 0, encode(11, (3, 1)), 3)
    check_bullets(t3, res, 0, t3.edge(0).ends, (3, 1))


def test_building_phi_k4_chains_are_base(k4):
    res = building_phi(k4, 0, encode(11, (1, 0)), 3)
    check_bullets(k4, res, 0, k4.edge(0).ends, (1, 0))
    assert chain_edges(res.flow) == res.tower.base.edge_set


def test_building_phi_rejects_zero_target(k4):
    with pytest.raises(PreconditionError):
        building_phi(k4, 0, encode(11, (0, 0)), 3)
    with pytest.raises(PreconditionError):
        building_phi(k4, 0, encode(11, (11, 2)), 3)  # reduces to (0, 0)
    with pytest.raises(PreconditionError, match="not a stage value"):
        building_phi(k4, 0, (1, 0), 3)  # a pair, not its stage value


def test_building_phi_reversed_orientation(k4):
    star = k4.edge(2)
    res = building_phi(k4, 2, encode(11, (5, 1)), 3, orientation=(star.head, star.tail))
    check_bullets(k4, res, 2, (star.head, star.tail), (5, 1))


def test_building_phi_accepts_larger_delta(t3):
    res = building_phi(t3, 0, encode(27, (2, 1)), 5)
    assert res.flow.group.k == 8 * 5 - 13
    check_bullets(t3, res, 0, t3.edge(0).ends, (2, 1))


def test_building_phi_forbidden_sets_respect_caps():
    for name in THREE_EDGE_CONNECTED:
        g = load(name)
        delta = g.max_degree()
        k = 8 * delta - 13
        res = building_phi(g, 0, encode(k, (1, 1)), delta)
        for d in res.diagnostics:
            assert d.forbidden_count < k
            if d.cap:
                assert d.forbidden_count <= d.cap
            for _c, fsize in d.chain_choices:
                assert fsize <= 8


# ---------------------------------------------------------------------------
# 2-cut splitting


def test_split_two_k4():
    g = load("two_k4")
    split = split_on_two_cut(g, is_rich_flow_admissible(g).two_cuts)
    assert split.cut == (12, 13)
    for side in (split.side1, split.side2):
        assert side.graph.vertex_count == 4
        assert side.graph.edge_count == 7  # K4 plus one parallel edge
    assert is_rich_flow_admissible(split.side1.graph).admissible
    assert split.near_cuts == ()  # the near side is 3-edge-connected too
    assert three_edge_connected(split.side2.graph)


def test_split_refuses_an_empty_cut_list(k4):
    with pytest.raises(PreconditionError, match="^no 2-edge-cut to split along$"):
        split_on_two_cut(k4, ())


def test_split_refuses_a_pair_that_does_not_split(k4):
    # K4 minus edges 0 = (0, 1) and 5 = (2, 3) is still connected.
    with pytest.raises(InternalDefectError, match=r"^edges \[0, 5\] do not split g into 2 sides$"):
        split_on_two_cut(k4, ((0, 5),))


@st.composite
def blocks_in_a_ring_or_chain(draw) -> Multigraph:
    """Two to five random blocks (`draw_block`) in a ring, each joined to the
    next by one edge, or in a chain, consecutive ones joined by two edges;
    inadmissible draws are rejected."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=5))
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    pairs = [(o + u, o + v) for o, n in zip(offsets, sizes) for u, v in draw_block(draw, n)]
    ring = draw(st.booleans())
    for i in range(len(sizes) if ring else len(sizes) - 1):
        j = (i + 1) % len(sizes)
        for _ in range(1 if ring else 2):
            u = offsets[i] + draw(st.integers(0, sizes[i] - 1))
            pairs.append((u, offsets[j] + draw(st.integers(0, sizes[j] - 1))))
    g = shuffled_graph(draw, sum(sizes), pairs)
    if not is_rich_flow_admissible(g).admissible:
        reject()
    return g


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(blocks_in_a_ring_or_chain() | admissible_multigraphs())
def test_split_matches_the_per_cut_listing_reference(g):
    # One union-find pass per class of cuts picks the same cut and the same
    # sides as listing both sides of every cut, down the split loop of
    # rich_mod_flow, where the near side's cuts read off the host's list also
    # equal its own enumeration. Only complete lists are in the contract: the
    # classes of a sublist are not the cut classes.
    cuts = is_rich_flow_admissible(g).two_cuts
    while cuts:
        split = split_on_two_cut(g, cuts)
        assert split == reference_tower.split_on_two_cut(g, cuts)
        g, cuts = split.side1.graph, split.near_cuts


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(blocks_in_a_ring_or_chain() | admissible_multigraphs())
def test_near_cuts_are_the_near_sides_cuts_by_brute_force(g):
    # rich_mod_flow splits each near side by the cuts read off its host's
    # list, with no verdict of its own: at every level of the loop they are
    # the near side's complete cut list, and the near side is admissible by
    # definition (connected, no bridge, no cut of two edges at one vertex).
    cuts = is_rich_flow_admissible(g).two_cuts
    while cuts:
        split = split_on_two_cut(g, cuts)
        g, cuts = split.side1.graph, split.near_cuts
        bridges, two_cuts = oracle_cuts(g)
        assert cuts == tuple(sorted(two_cuts))
        assert oracle_components(g.vertex_count, [e.ends for e in g.edges]) == 1
        assert not bridges
        for a, b in cuts:
            assert not set(g.edge(a).ends) & set(g.edge(b).ends)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(blocks_in_a_ring_or_chain() | admissible_multigraphs())
def test_far_sides_are_three_edge_connected_by_brute_force(g):
    # split_on_two_cut asserts nothing of its far side: the side of least
    # key in its class is one ring side, and with its virtual edge it has no
    # bridge and no 2-edge-cut at every level of the loop.
    cuts = is_rich_flow_admissible(g).two_cuts
    while cuts:
        split = split_on_two_cut(g, cuts)
        far = split.side2.graph
        assert oracle_components(far.vertex_count, [e.ends for e in far.edges]) == 1
        assert oracle_cuts(far) == (set(), set())
        g, cuts = split.side1.graph, split.near_cuts


def cut_classes(cuts) -> list[set[int]]:
    """The classes of a complete 2-edge-cut list: the components of the
    graph on the cut edges whose edges are the listed pairs."""
    classes: list[set[int]] = []
    for pair in cuts:
        meets = [c for c in classes if c & set(pair)]
        classes = [c for c in classes if not c & set(pair)] + [set(pair).union(*meets)]
    return classes


def test_split_builds_one_union_find_per_cut_class(monkeypatch):
    # A ring of r K4s has one class of r ring edges, so each level builds two
    # union-finds: one to join the listed pairs into classes and one pass
    # over g minus the class; one per listed pair would be r(r - 1)/2.
    built = []

    class CountingUnionFind(multigraph._UnionFind):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(synthesis, "_UnionFind", CountingUnionFind)
    for count in range(3, 11):
        g = k4_ring(count)
        cuts = is_rich_flow_admissible(g).two_cuts
        while cuts:
            classes = cut_classes(cuts)
            assert len(classes) == 1
            built.clear()
            split = split_on_two_cut(g, cuts)
            assert len(built) == 1 + len(classes)
            g, cuts = split.side1.graph, split.near_cuts


def test_split_recursion_depth_two():
    g = load("three_k4")
    first = split_on_two_cut(g, is_rich_flow_admissible(g).two_cuts)
    near = first.side1.graph
    cuts = is_rich_flow_admissible(near).two_cuts
    assert cuts  # the near side still has a 2-edge-cut
    assert first.near_cuts == cuts
    second = split_on_two_cut(near, cuts)
    assert three_edge_connected(second.side2.graph)


# ---------------------------------------------------------------------------
# rich_mod_flow


def test_rich_mod_flow_three_connected(k4):
    res = rich_mod_flow(k4)
    verify_mod_flow_bullets(k4, res.flow, res.chains)


def test_rich_mod_flow_glued_two_k4():
    g = load("two_k4")
    res = rich_mod_flow(g)
    verify_mod_flow_bullets(g, res.flow, res.chains)
    # Cut edges carry one value along the directed crossing path.
    split = split_on_two_cut(g, is_rich_flow_admissible(g).two_cuts)
    ea, eb = split.cut
    tag, values = res.flow.group, values_of(res.flow)
    va = values[ea] if g.edge(ea).ends == (split.u1, split.v1) else reference_flow.neg(tag, values[ea])
    vb = values[eb] if g.edge(eb).ends == (split.v2, split.u2) else reference_flow.neg(tag, values[eb])
    assert va == vb != (0, 0)


def test_rich_mod_flow_does_not_split_three_connected(monkeypatch, k4):
    def no_split(*args):
        raise AssertionError("a 3-edge-connected graph was split")

    monkeypatch.setattr(synthesis, "split_on_two_cut", no_split)
    res = rich_mod_flow(k4)
    verify_mod_flow_bullets(k4, res.flow, res.chains)


def test_rich_mod_flow_rejects_inadmissible():
    with pytest.raises(AdmissibilityError) as err:
        rich_mod_flow(load("c4"))
    assert err.value.verdict.cut_pair == (0, 1)


def test_rich_mod_flow_direct_on_doubled_triangle():
    g = load("dt")
    res = rich_mod_flow(g)
    assert res.flow.group == GroupTag.zkxz2(8 * 4 - 13)
    verify_mod_flow_bullets(g, res.flow, res.chains)


def test_rich_mod_flow_small_glue():
    g = load("l2")
    res = rich_mod_flow(g)
    verify_mod_flow_bullets(g, res.flow, res.chains)


def test_rich_mod_flow_depth_two_glue():
    g = load("three_k4")
    res = rich_mod_flow(g)
    verify_mod_flow_bullets(g, res.flow, res.chains)


# ---------------------------------------------------------------------------
# synthesize_rich_flow


def test_synthesize_t3(t3):
    cert = synthesize_rich_flow(t3)
    assert cert.bound == 264 * 3 - 445
    assert cert.max_abs <= 264 * 3 - 446
    assert is_rich(t3, cert.flow)
    assert cert.checks.all_ok


def test_synthesize_doubled_triangle():
    g = load("dt")
    cert = synthesize_rich_flow(g)
    assert cert.bound == 264 * 4 - 445
    assert cert.max_abs <= 610
    assert is_rich(g, cert.flow)


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES)
def test_certificate_bytes_match_golden_file(name):
    # Certificates are deterministic. A change that alters one must mean to,
    # and must rewrite tests/golden/<name>.flow.json with it.
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.flow.json"
    assert write_flow_json(synthesize_rich_flow(load(name)).flow) == golden.read_text()


def k4_copies(count: int) -> list[tuple[int, int]]:
    """The edges of `count` disjoint K4s, copy i on vertices 4i..4i+3."""
    return [(4 * i + u, 4 * i + v) for i in range(count) for u, v in combinations(range(4), 2)]


def k4_ring(count: int) -> Multigraph:
    """K4 copies in a ring, copy i joined to the next by one edge 4i -> 4(i+1)+1:
    every two ring edges form a 2-edge-cut, so synthesis splits count - 1 times."""
    ring = [(4 * i, 4 * ((i + 1) % count) + 1) for i in range(count)]
    return Multigraph(4 * count, k4_copies(count) + ring)


def k4_chain(count: int) -> Multigraph:
    """K4 copies in a path, consecutive copies joined by the two disjoint edges
    4i+2 -> 4i+4 and 4i+3 -> 4i+5: synthesis splits count - 1 times."""
    links = [(4 * i + 2 + j, 4 * i + 4 + j) for i in range(count - 1) for j in (0, 1)]
    return Multigraph(4 * count, k4_copies(count) + links)


# name -> graph whose synthesis splits more often than any corpus graph's.
DEEP_SPLITS = {"k4_ring5": lambda: k4_ring(5), "k4_chain4": lambda: k4_chain(4)}


@pytest.mark.parametrize("name", sorted(DEEP_SPLITS))
def test_deep_split_certificate_and_traces_match_golden_files(name):
    # Pins the split order, the glue and the trace order over 3 and 4 splits.
    golden = Path(__file__).resolve().parent / "golden"
    cert = synthesize_rich_flow(DEEP_SPLITS[name]())
    assert write_flow_json(cert.flow) == (golden / f"{name}.flow.json").read_text()
    traces = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in cert.traces)
    assert traces == (golden / f"{name}.traces.jsonl").read_text()


def test_k4_rings_and_chains_match_golden_digest():
    # One SHA-256 over the certificates and traces of K4 rings and chains of
    # 3 to 10 copies: the split order, the sides and the glue over up to 9
    # splits, a path the benchmark barely takes. A change that alters them
    # must mean to, and must rewrite tests/golden/k4_rings_chains.sha256.
    digest = hashlib.sha256()
    for count in range(3, 11):
        for g in (k4_ring(count), k4_chain(count)):
            cert = synthesize_rich_flow(g)
            digest.update(write_flow_json(cert.flow).encode())
            digest.update(json.dumps(cert.traces, sort_keys=True).encode())
    golden = Path(__file__).resolve().parent / "golden" / "k4_rings_chains.sha256"
    assert digest.hexdigest() == golden.read_text().strip()


def test_k4_rings_and_chains_enumerate_two_edge_cuts_once_per_tower_and_once_more(monkeypatch):
    # r copies make r towers: the input's verdict and r tower guards, r + 1
    # enumerations; a split side's cuts need none.
    calls = []
    real = multigraph.enumerate_two_edge_cuts
    monkeypatch.setattr(multigraph, "enumerate_two_edge_cuts", lambda g, **kw: calls.append(g) or real(g, **kw))
    for count in range(3, 11):
        for g in (k4_ring(count), k4_chain(count)):
            calls.clear()
            assert len(synthesize_rich_flow(g).stage.towers) == count
            assert len(calls) == count + 1


def seeded_small_multigraphs(seed: int, count: int) -> list[Multigraph]:
    """`count` admissible multigraphs with n <= 6 and m <= 14, most of them
    with parallel edges, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out: list[Multigraph] = []
    while len(out) < count:
        n = rng.randint(2, 6)
        g = Multigraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n, 14))])
        if is_rich_flow_admissible(g).admissible:
            out.append(g)
    return out


def seeded_cubic_graphs(seed: int, count: int) -> list[Multigraph]:
    """`count` 3-edge-connected simple cubic graphs, n cycling 16, 20, ..., 32,
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out: list[Multigraph] = []
    while len(out) < count:
        g = random_cubic(rng, 16 + 4 * (len(out) % 5))
        if three_edge_connected(g):
            out.append(g)
    return out


def test_seeded_synthesis_matches_golden_digest():
    # One SHA-256 over the certificate bytes and the traces of 224 seeded
    # syntheses: any change to a certificate, a tower, a value choice or the
    # trace format shows here. A change that alters them must mean to, and
    # must rewrite tests/golden/seeded_synthesis.sha256 with them.
    small = seeded_small_multigraphs(20, 200)
    cubic = seeded_cubic_graphs(21, 24)
    assert sum(len({e.ends for e in g.edges}) < g.edge_count for g in small) >= 100
    digest = hashlib.sha256()
    block_steps = 0
    for g in small + cubic:
        cert = synthesize_rich_flow(g)
        traces = json.dumps(cert.traces, sort_keys=True)
        digest.update(write_flow_json(cert.flow).encode())
        digest.update(traces.encode())
        block_steps += traces.count("AddBlockChain")
    assert block_steps >= 5
    golden = Path(__file__).resolve().parent / "golden" / "seeded_synthesis.sha256"
    assert digest.hexdigest() == golden.read_text().strip()


@pytest.mark.parametrize("name, most", [("k4", 2), ("petersen", 2), ("two_k4", 3), ("three_k4", 4)])
def test_synthesis_enumerates_two_edge_cuts_at_most(monkeypatch, name, most):
    # One verdict for the input (also read by the confluence step), none for
    # a split side, whose cuts are read off its host's list or are not
    # asked, plus build_tower's guard (one per tower).
    calls = []
    real = multigraph.enumerate_two_edge_cuts
    monkeypatch.setattr(multigraph, "enumerate_two_edge_cuts", lambda g, **kw: calls.append(g) or real(g, **kw))
    synthesize_rich_flow(load(name))
    assert len(calls) <= most


# name -> graph: the corpus, and 3-edge-connected cubic graphs whose towers
# take block-chain steps.
COUNTED = {
    **{name: (lambda name=name: load(name)) for name in ("k4", "petersen", "two_k4", "three_k4")},
    **{f"cubic-{n}-{seed}": (lambda seed=seed, n=n: test_tower_checks.random_cubic(seed, n))
       for seed, n in ((16, 16), (1, 24), (2, 24))},
}


@pytest.mark.parametrize(
    "name, most",
    [("k4", 4), ("petersen", 4), ("two_k4", 5), ("three_k4", 7),
     ("cubic-16-16", 6), ("cubic-24-1", 8), ("cubic-24-2", 8)],
)
def test_synthesis_runs_few_linear_passes(monkeypatch, name, most):
    # A lowpoint DFS or a BFS spanning forest is one linear pass over a graph.
    # Connectivity, bridges and the enumerator's spanning tree come from one
    # DFS per graph, handed to each step that asks: the enumerator reads the
    # verdict's, the Z6 step reads the verdict or the split graph's asserted
    # facts, the base chain search reads the tower guard's verdict and a
    # block-chain search the blocks its block search found. The BFS forest
    # only gives the co-tree basis. History: 22, 22 and 36 passes on k4,
    # Petersen and two_k4 when each answer ran its own DFS; 9, 9, 16 and 25
    # on the corpus graphs with a DFS check of the tower base; 8, 8, 10 and
    # 14 (11, 14 and 14 on the cubic graphs) when the enumerator, the Z6 step
    # and the chain searches each re-ran the DFS their caller had run.
    from richflow import cotree

    g = COUNTED[name]()  # built first: random_cubic filters its draws by verdict
    calls = []
    for module, attr in (
        (multigraph, "_biconnected_edge_groups"),
        (multigraph, "spanning_forest"),
        (cotree, "spanning_forest"),
    ):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, real=real, **kw: calls.append(a[0]) or real(*a, **kw))
    synthesize_rich_flow(g)
    assert len(calls) <= most


def test_tower_chain_searches_read_the_evidence_of_their_graph(monkeypatch):
    # The base chain search reads the tower guard's verdict of g, and a
    # block-chain search the blocks its block search found: those of the
    # block's subgraph, as one DFS on it gives them.
    real = multigraph.find_circuit_chain
    handed = {"verdict": 0, "blocks": 0}

    def checked(g, u, v, **kwargs):
        if kwargs.get("blocks") is not None:
            handed["blocks"] += 1
            want = multigraph._biconnected_edge_groups(g, kwargs["edge_ids"])
            assert sorted(map(sorted, kwargs["blocks"])) == sorted(map(sorted, want))
        else:
            handed["verdict"] += 1
            assert kwargs["verdict"] == is_rich_flow_admissible(g)
        return real(g, u, v, **kwargs)

    monkeypatch.setattr(synthesis, "find_circuit_chain", checked)
    for name in ("cubic-16-16", "cubic-24-1", "cubic-24-2"):
        synthesize_rich_flow(COUNTED[name]())
    assert handed["blocks"] == 5 and handed["verdict"] > 0


@pytest.mark.parametrize(
    "name, graphs, flows",
    [("k4", 0, 8), ("petersen", 0, 8), ("two_k4", 2, 10), ("three_k4", 4, 12),
     ("cubic-16-16", 0, 8), ("cubic-24-1", 0, 8), ("cubic-24-2", 0, 8)],
)
def test_synthesis_builds_few_graphs_and_flows(monkeypatch, name, graphs, flows):
    # Graphs: the two sides of each split, and none inside building_phi.
    # The tower base, its stage check, a block-chain step and a Z6 step with
    # no pair to split work on g itself (3, 3, 6 and 10 graphs when they
    # built copies, and two per block-chain step: 2, 4 and 4 on the cubic
    # graphs). Flows: one per building_phi and one per glue, then the Z6
    # flow, two projections, three lifts and the combination (12, 15, 19
    # and 26 with one flow per tower stage and a restricted Z6 flow).
    g = COUNTED[name]()
    built = {"graphs": 0, "flows": 0, "graphs in building_phi": 0}
    inside = [False]
    real_init, real_post_init = Multigraph.__init__, Flow.__post_init__
    real_building_phi = synthesis.building_phi

    def counting_init(self, *args):
        built["graphs"] += 1
        built["graphs in building_phi"] += inside[0]
        real_init(self, *args)

    def counting_post_init(self):
        built["flows"] += 1
        real_post_init(self)

    def flagged_building_phi(*args, **kwargs):
        inside[0] = True
        try:
            return real_building_phi(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(Multigraph, "__init__", counting_init)
    monkeypatch.setattr(Flow, "__post_init__", counting_post_init)
    monkeypatch.setattr(synthesis, "building_phi", flagged_building_phi)
    cert = synthesize_rich_flow(g)
    assert built == {"graphs": graphs, "flows": flows, "graphs in building_phi": 0}
    if name.startswith("cubic"):
        assert any("AddBlockChain" in step for trace in cert.traces for step in trace["steps"])


@pytest.mark.parametrize("name", ["k4", "petersen", "two_k4", "k4_doubled"])
def test_steps_copy_no_stage_and_lifts_check_in_one_pass(monkeypatch, name):
    # Stage copies: in the backward pass, every path search runs on one
    # stage set, the same object for the whole tower as it shrinks step by
    # step, or on a block chain's edge set as it is, never on a copy (a
    # snapshot per stage, a chord circuit's stage copied minus the chord, or
    # a chain's edge set rebuilt on each read). Conservation passes: one
    # net-outflow pass per lift, for its demands, then the Z6 flow's and the
    # combination's checks (8 when each lift was also checked by verify_flow).
    counts = {"stage copies": 0, "conservation passes": 0}
    chain_sets: list = []  # the chains' edge sets while a tower is assigned
    stage: list = []  # the set the first stage search ran on
    assigning = [False]
    real_build_tower, real_building_phi = synthesis.build_tower, synthesis.building_phi
    real_net_outflow = flowalg._net_outflow

    def recording_build_tower(*args, **kwargs):
        tower = real_build_tower(*args, **kwargs)
        chain_sets[:] = [s.chain.edge_set for s in tower.steps if isinstance(s, synthesis.AddBlockChain)]
        assigning[0] = True
        return tower

    def assigning_building_phi(*args, **kwargs):
        try:
            return real_building_phi(*args, **kwargs)
        finally:
            assigning[0] = False
            chain_sets.clear()
            stage.clear()

    def counting_net_outflow(*args):
        counts["conservation passes"] += 1
        return real_net_outflow(*args)

    for module in (multigraph, synthesis):
        def checking_bfs_path(g, src, dst, allowed, _real=module._bfs_path):
            if assigning[0] and not any(allowed is chain for chain in chain_sets):
                if not stage:
                    stage.append(allowed)
                elif allowed is not stage[0]:
                    counts["stage copies"] += 1
            return _real(g, src, dst, allowed)

        monkeypatch.setattr(module, "_bfs_path", checking_bfs_path)
    monkeypatch.setattr(synthesis, "build_tower", recording_build_tower)
    monkeypatch.setattr(synthesis, "building_phi", assigning_building_phi)
    monkeypatch.setattr(flowalg, "_net_outflow", counting_net_outflow)
    synthesize_rich_flow(load(name))
    assert counts == {"stage copies": 0, "conservation passes": 5}


def retained_bytes(g: Multigraph) -> int:
    """The memory that building_phi's result on g holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = building_phi(g, 0, encode(11, (1, 0)), 3)
        gc.collect()
        assert result.tower.steps
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_result_retains_memory_linear_in_the_graph():
    # A result keeps its tower, chains and flow: O(m) in all. An edge set
    # kept per stage makes it O(m^2): with one, the retained size of these
    # graphs grew x2.8 from n = 32 to n = 64; without, x1.6.
    rng = random.Random(1)
    sizes = {}
    for n in (32, 64):
        graphs = []
        while len(graphs) < 3:
            g = random_cubic(rng, n)
            verdict = is_rich_flow_admissible(g)
            if verdict.admissible and not verdict.two_cuts:
                graphs.append(g)
        retained_bytes(graphs[0])  # first-call allocations are not the result's
        sizes[n] = sum(map(retained_bytes, graphs))
    assert sizes[64] <= 2.3 * sizes[32], sizes


def regular_multigraph(rng: random.Random, n: int, degree: int) -> Multigraph:
    """A degree-regular multigraph on n vertices by the configuration model,
    drawn again until it has no loop."""
    while True:
        points = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(points)
        pairs = list(zip(points[0::2], points[1::2]))
        if all(u != v for u, v in pairs):
            return Multigraph(n, pairs)


@pytest.mark.parametrize("delta", [3, 4, 5, 6, 8])
def test_chord_steps_meet_their_cap(delta):
    # A chord's forbidden values are its zero value and two per adjacent
    # edge of its parity outside the stage it leaves. Some chord step here
    # forbids exactly 4*delta - 11, the cap, so a rule that counts one value
    # too many fails on the cap and one too few never meets it. (Drawn the
    # same way, delta = 7 met the cap in none of 40 graphs.)
    rng = random.Random(delta)
    for _ in range(8):
        g = regular_multigraph(rng, 12, delta)
        if not is_rich_flow_admissible(g).admissible:
            continue
        steps = [d for bp in rich_mod_flow(g).towers for d in bp.diagnostics if d.label.startswith("chord:")]
        if any(d.cap == 4 * delta - 11 and d.forbidden_count == d.cap for d in steps):
            return
    pytest.fail(f"no chord step met its cap at delta = {delta}")


def test_synthesize_rejects_inadmissible():
    with pytest.raises(AdmissibilityError) as err:
        synthesize_rich_flow(load("c4"))
    assert err.value.verdict.cut_pair == (0, 1)


def test_group_modulus_is_odd():
    for delta in range(3, 12):
        assert (8 * delta - 13) % 2 == 1


def test_stage_flow_confluent_pairs_never_strongly_intersect():
    for name in ("dt", "c4_doubled", "w5", "two_k4"):
        g = load(name)
        res = rich_mod_flow(g)
        confluent = [p for p in adjacent_pairs(g) if pair_relation(res.flow, p).confluent]
        for i in range(len(confluent)):
            for j in range(i + 1, len(confluent)):
                assert not strongly_intersecting(g, confluent[i], confluent[j])


def test_strongly_intersecting_confluent_pairs_fail_the_bullet_check():
    # Past the per-stage checks, the bullet check is the one test of the whole
    # stage flow for strongly intersecting confluent pairs. No corpus stage
    # flow has a confluent pair, so this flow is built by hand: it is
    # conserved and nowhere zero, its chain edges are one recorded chain, and
    # its one contrafluent pair lies in one chain circuit. Edge 0 cancels
    # edges 3 and 4 at vertex 0, and the three edges meet there.
    from richflow import InternalDefectError, Multigraph
    from richflow.flowalg import GroupTag
    from richflow.multigraph import Circuit, CircuitChain

    g = Multigraph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 0), (1, 3), (2, 3)])
    values = ((1, 1), (1, 1), (2, 1), (1, 1), (1, 1), (10, 0), (3, 0))
    flow = to_flow(g, GroupTag.zkxz2(11), values)
    chain = CircuitChain((Circuit((0, 1, 2), (0, 2, 1)), Circuit((0, 3), (3, 4))))
    with pytest.raises(
        InternalDefectError, match=r"^\[bullets\] confluent pairs \(0,4\) and \(0,3\) strongly intersect$"
    ):
        verify_mod_flow_bullets(g, flow, [chain])


def test_synthesis_on_random_admissible_multigraphs():
    import random

    from richflow import Multigraph

    rng = random.Random(4177)
    admissible = 0
    tried = 0
    while admissible < 60 and tried < 4000:
        tried += 1
        n = rng.randint(2, 8)
        m = rng.randint(3, 14)
        pairs = []
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.append((u, v))
        if len(pairs) < 3:
            continue
        g = Multigraph(n, pairs)
        if not is_rich_flow_admissible(g).admissible:
            continue
        admissible += 1
        res = rich_mod_flow(g)
        verify_mod_flow_bullets(g, res.flow, res.chains)
        cert = synthesize_rich_flow(g)
        assert is_rich(g, cert.flow)
        assert cert.max_abs <= 264 * cert.delta - 446
    assert admissible == 60


# ---------------------------------------------------------------------------
# Certificates against perfbench/checker.py, which shares no code with richflow


def _load_checker():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_checker", root / "perfbench" / "checker.py")
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


CHECKER = _load_checker()


def shuffled_admissible(draw, n: int, pairs) -> Multigraph:
    """g on n vertices with the pairs in a drawn order and orientation;
    draws above 14 edges or not admissible are rejected."""
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Multigraph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)])
    if g.edge_count > 14 or not is_rich_flow_admissible(g).admissible:
        reject()
    return g


@st.composite
def small_admissible_multigraphs(draw) -> Multigraph:
    """Connected admissible multigraphs, parallel edges included, n <= 8, m <= 14."""
    n = draw(st.integers(2, 8))
    return shuffled_admissible(draw, n, draw_block(draw, n))


@st.composite
def blocks_joined_by_a_two_edge_cut(draw) -> Multigraph:
    """Two blocks joined by two edges with no common end, n <= 8, m <= 14."""
    n1 = draw(st.integers(2, 6))
    n2 = draw(st.integers(2, 8 - n1))
    pairs = draw_block(draw, n1) + [(n1 + u, n1 + v) for u, v in draw_block(draw, n2)]
    a1, a2 = draw(st.permutations(range(n1)))[:2]
    b1, b2 = (n1 + v for v in draw(st.permutations(range(n2)))[:2])
    return shuffled_admissible(draw, n1 + n2, pairs + [(a1, b1), (a2, b2)])


def checker_errors(g: Multigraph) -> list[str]:
    cert = synthesize_rich_flow(g)
    edges = [e.ends for e in g.edges]
    return CHECKER.certificate_errors(g.vertex_count, edges, write_flow_json(cert.flow))


CHECKER_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@CHECKER_SETTINGS
@given(small_admissible_multigraphs())
def test_certificate_passes_independent_checker(g):
    assert checker_errors(g) == []


@CHECKER_SETTINGS
@given(blocks_joined_by_a_two_edge_cut())
def test_certificate_across_a_two_edge_cut_passes_independent_checker(g):
    assert is_rich_flow_admissible(g).two_cuts  # so synthesis splits
    assert checker_errors(g) == []


def synthesis_outcome(g: Multigraph, **kwargs):
    """The certificate bytes and traces of a synthesis, or the verdict it refused with."""
    try:
        cert = synthesize_rich_flow(g, **kwargs)
    except AdmissibilityError as err:
        return err.verdict
    return write_flow_json(cert.flow), cert.traces


@CHECKER_SETTINGS
@given(st.one_of(small_admissible_multigraphs(), blocks_joined_by_a_two_edge_cut(), small_multigraphs()))
def test_passed_verdict_changes_nothing(g):
    verdict = is_rich_flow_admissible(g)
    outcome = synthesis_outcome(g)
    assert synthesis_outcome(g, verdict=verdict) == outcome
    if not verdict.admissible:
        assert outcome == verdict
    budget = SearchBudget(k_max=8, node_limit=20_000)
    assert exact_rich_flow_number(g, budget, verdict=verdict) == exact_rich_flow_number(g, budget)
