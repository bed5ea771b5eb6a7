"""The tower and the backward pass check each step locally. These tests hold
them to the full per-step checks of reference_tower.py: same towers, flows,
chains and diagnostics; the full checks pass on every stage; injected faults
are caught at their step; and the full passes do not come back per step."""

from __future__ import annotations

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from richflow import Flow, GroupTag, InternalDefectError, Multigraph, is_rich_flow_admissible
from richflow import synthesis
from richflow.flowalg import adjacent_pairs
from richflow.multigraph import Circuit, CircuitChain, circuit_through_edge

import reference_tower
from reference_flow import encode, pair_relation, to_flow, values_of, zero_flow
from conftest import ADMISSIBLE_NAMES, load, three_edge_connected


def draw_block(draw, n: int) -> list[tuple[int, int]]:
    """A random cubic multigraph on n vertices (n even, at least 4), or a
    cycle through the n vertices (two parallel edges when n = 2) plus random
    chords, parallel ones included, topped up to degree 3."""
    if n >= 4 and n % 2 == 0 and draw(st.booleans()):
        points = draw(st.permutations([v for v in range(n) for _ in range(3)]))
        pairs = list(zip(points[0::2], points[1::2]))
        if any(u == v for u, v in pairs):
            reject()
        return pairs
    pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1), (0, 1)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=n))
    pairs += [(u, (u + d) % n) for u, d in chords]
    for v in range(n):
        while sum(v in e for e in pairs) < 3:
            pairs.append((v, (v + draw(st.integers(1, n - 1))) % n))
    return pairs


def shuffled_graph(draw, n: int, pairs) -> Multigraph:
    """The graph on n vertices with the given edges, in a drawn order and
    with drawn orientations."""
    pairs = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Multigraph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)])


@st.composite
def admissible_multigraphs(draw) -> Multigraph:
    """One block, or two joined by two disjoint edges (a 2-edge-cut), with
    edge order and orientations shuffled; inadmissible draws are rejected."""
    sizes = [draw(st.integers(2, 10))]
    if draw(st.booleans()):
        sizes.append(draw(st.integers(2, 6)))
    pairs: list[tuple[int, int]] = []
    offset = 0
    for n in sizes:
        pairs += [(offset + u, offset + v) for u, v in draw_block(draw, n)]
        offset += n
    if len(sizes) == 2:
        a1, a2 = draw(st.permutations(range(sizes[0])))[:2]
        b1, b2 = (sizes[0] + v for v in draw(st.permutations(range(sizes[1])))[:2])
        pairs += [(a1, b1), (a2, b2)]
    g = shuffled_graph(draw, offset, pairs)
    if not is_rich_flow_admissible(g).admissible:
        reject()
    return g


def building_phi_calls(g: Multigraph) -> list[tuple[tuple, dict]]:
    """The building_phi calls of rich_mod_flow on g, plus a b = 1 call with a
    reversed orientation when g is 3-edge-connected."""
    calls = []
    real = synthesis.building_phi

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "building_phi", recording)
        synthesis.rich_mod_flow(g)
    if three_edge_connected(g):
        e = g.edge_count - 1
        tail, head = g.edge(e).ends
        delta = g.max_degree()
        target = encode(8 * delta - 13, (2, 1))
        calls.append(((g, e, target, delta), {"orientation": (head, tail)}))
    return calls


def record_stages(args: tuple, kwargs: dict):
    """building_phi(*args, **kwargs) and, per stage it checks, the stage
    flow and the other arguments of `_StageChecks.step`. The stage set is
    copied: building_phi goes on shrinking it after the call."""
    stages = []
    real_step = synthesis._StageChecks.step

    def recording_step(self, vals, h_edges, added, new_chains, stage):
        real_step(self, vals, h_edges, added, new_chains, stage)
        flow = Flow(self.g, self.tag, tuple(vals))
        stages.append((flow, frozenset(h_edges), frozenset(added), new_chains, stage))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis._StageChecks, "step", recording_step)
        result = synthesis.building_phi(*args, **kwargs)
    return result, stages


def assert_matches_reference(args: tuple, kwargs: dict) -> None:
    """building_phi(*args, **kwargs) gives the reference's tower, flow,
    chains and diagnostics, checks each stage on the reference's stage and
    step edges, and every stage flow it checks passes the reference's full
    checks."""
    got, stages = record_stages(args, kwargs)
    want = reference_tower.building_phi(*args, **kwargs)
    g, e_star = args[0], args[1]
    assert got.tower == want.tower
    assert got.tower == reference_tower.build_tower(g, e_star, want.tower.b)
    assert got.flow == want.flow
    assert got.chains == want.chains
    assert got.diagnostics == want.diagnostics
    assert len(stages) == len(got.tower.steps) + 1
    # Stage j is checked on H_j and the step's edges, which make H_{j+1};
    # the base step on no stage and the base's edges.
    h_sets = reference_tower.stage_edges(want.tower)
    want_sets = [(h_sets[j], h_sets[j + 1]) for j in reversed(range(len(got.tower.steps)))]
    want_sets.append((frozenset(), h_sets[0]))
    pairs = adjacent_pairs(g)
    prev = zero_flow(g, got.flow.group)
    chains = []
    for (flow, h_edges, added, new_chains, stage), (h_want, h_next) in zip(stages, want_sets):
        assert h_edges == h_want and h_edges.isdisjoint(added) and h_edges | added == h_next
        chains += new_chains
        reference_tower.check_stage(
            g, flow, h_edges, chains, prev_flow=prev, prev_h_edges=h_next, pairs=pairs, stage=stage
        )
        prev = flow
    assert prev == got.flow


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(admissible_multigraphs())
def test_local_checks_match_the_full_reference(g):
    for args, kwargs in building_phi_calls(g):
        assert_matches_reference(args, kwargs)


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES)
def test_local_checks_match_the_full_reference_on_the_corpus(name):
    # Every special edge and both b on the 3-edge-connected ones: prism,
    # Wagner and Petersen take block-chain steps from a one-circuit base.
    g = load(name)
    calls = building_phi_calls(g)
    if three_edge_connected(g):
        delta = g.max_degree()
        k = 8 * delta - 13
        calls += [((g, e, encode(k, (1, b)), delta), {}) for e in range(g.edge_count) for b in (0, 1)]
    for args, kwargs in calls:
        assert_matches_reference(args, kwargs)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(admissible_multigraphs(), st.data())
def test_a_step_check_fails_exactly_when_the_full_check_fails(g, data):
    # Replay the valid stages before stage j, then corrupt stage j: one edge
    # set to any value; a random value sent around a circuit of the graph or
    # of h_next; or, around a circuit of h_next through one edge of a pair
    # outside H, a value that makes the pair confluent or contrafluent. From
    # a valid stage the local check must raise exactly when the reference's
    # full check of the corrupted stage does.
    args, kwargs = data.draw(st.sampled_from(building_phi_calls(g)))
    h = args[0]
    _, stages = record_stages(args, kwargs)
    j = data.draw(st.integers(0, len(stages) - 1))
    tag = stages[0][0].group
    k = tag.k
    checks = synthesis._StageChecks(h, tag)
    prev = zero_flow(h, tag)
    chains = []
    for flow, h_edges, added, new_chains, stage in stages[:j]:
        checks.step(flow.values, h_edges, added, new_chains, stage)
        prev = flow
        chains += new_chains
    flow, h_edges, added, new_chains, stage = stages[j]
    h_next = h_edges | added
    chains += new_chains
    vals = list(values_of(flow))
    e = data.draw(st.integers(0, h.edge_count - 1))
    value = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 1)))
    kind = data.draw(st.sampled_from(["edge", "circuit", "stage circuit", "pair"]))
    outside = [p for p in adjacent_pairs(h) if p.e in h_next.difference(h_edges) and p.f not in h_edges]
    if kind == "edge":
        vals[e] = value
    elif kind == "pair" and outside:
        p = data.draw(st.sampled_from(outside))
        circ = circuit_through_edge(h, p.e, allowed_edges=h_next - {p.f})
        forbidden: set[int] = set()
        reference_tower.pair_forbidden(h, vals, k, p.e, 1, p.f, forbidden)
        if circ is not None and forbidden:
            reference_tower.send_on(h, vals, circ, data.draw(st.sampled_from(sorted(forbidden))), 0, k)
    elif kind != "pair":
        allowed = h_next if kind == "stage circuit" and e in h_next else None
        circ = circuit_through_edge(h, e, allowed_edges=allowed)
        reference_tower.send_on(h, vals, circ, value[0], value[1], k)
    corrupt = to_flow(h, tag, vals)
    try:
        reference_tower.check_stage(
            h, corrupt, h_edges, chains,
            prev_flow=prev, prev_h_edges=h_next, pairs=adjacent_pairs(h), stage=stage,
        )
        full = None
    except InternalDefectError as exc:
        full = exc
    try:
        checks.step(corrupt.values, h_edges, added, new_chains, stage)
        local = None
    except InternalDefectError as exc:
        local = exc
    assert (local is None) == (full is None), (local, full)


# ---------------------------------------------------------------------------
# Faults are caught at the step that makes them


def faulty_send_on(fault: str, on_call: int, outside_edge: int | None = None):
    """_send_on, except that its call number `on_call` skips the circuit's
    first edge, flips that edge's sign, or also moves `outside_edge`."""
    calls = 0

    def send(g, vals, circuit, c, parity, k):
        nonlocal calls
        calls += 1
        x = encode(k, (c, parity))
        for pos, eid in enumerate(circuit.edges):
            sign = circuit.traversal_sign(g, pos)
            if calls == on_call and pos == 0:
                if fault == "skip":
                    continue
                if fault == "flip":
                    sign = -sign
            vals[eid] = (vals[eid] + sign * x) % (2 * k)
        if calls == on_call and fault == "outside":
            vals[outside_edge] = (vals[outside_edge] + encode(k, (1, 0))) % (2 * k)

    return send


@pytest.mark.parametrize("fault", ["skip", "flip", "outside"])
def test_send_on_faults_are_caught_at_their_stage(monkeypatch, k4, fault):
    # With b = 0 the special edge 0 is the outermost chord: the first
    # _send_on call assigns it, and the second one belongs to a stage whose
    # h_next leaves edge 0 out, so moving edge 0 there moves a frozen edge.
    tower = synthesis.build_tower(k4, 0, 0)
    assert tower.steps[-1] == synthesis.AddChord(0) and len(tower.steps) >= 2
    assert 0 not in reference_tower.stage_edges(tower)[-2]
    on_call = 2 if fault == "outside" else 1
    monkeypatch.setattr(synthesis, "_send_on", faulty_send_on(fault, on_call, outside_edge=0))
    with pytest.raises(InternalDefectError, match=r"\[stage:\d+\]") as err:
        synthesis.building_phi(k4, 0, encode(11, (1, 0)), 3)
    assert "final" not in str(err.value) and "bullets" not in str(err.value)


def test_block_chain_attachment_missing_the_stage_is_caught_at_its_step(monkeypatch):
    # From prism edge 0 with b = 1 the base is the triangle 0 1 2, and the
    # other triangle joins as a one-circuit block chain. Its e1 is replaced by
    # a triangle edge at b1, whose other end lies on the chain, not in H.
    g = load("prism")
    real = synthesis.find_attachable_block

    def misattached(graph, inside):
        blk, e1, e2, b1, b2 = real(graph, inside)
        inner = next(e for e in graph.incident(b1) if graph.edge(e).other_end(b1) in blk)
        return blk, inner, e2, b1, b2

    monkeypatch.setattr(synthesis, "find_attachable_block", misattached)
    with pytest.raises(InternalDefectError, match="AddBlockChain") as err:
        synthesis.build_tower(g, 0, 1)
    assert "final" not in str(err.value) and "bullets" not in str(err.value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_related_pairs_match_pair_relation(data):
    n = data.draw(st.integers(2, 5))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    g = Multigraph(n, [(u, (u + d) % n) for u, d in data.draw(st.lists(ends, min_size=1, max_size=10))])
    k = data.draw(st.sampled_from((3, 5)))
    flow = to_flow(g, GroupTag.zkxz2(k), [
        data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, 1))) for _ in g.edges
    ])
    some = st.sets(st.integers(0, g.edge_count - 1))
    edges, h_edges = data.draw(some), frozenset(data.draw(some))
    got = {}
    for p, confluent, contrafluent in synthesis._related_pairs(g, flow.values, k, edges, h_edges):
        assert (p.e, p.f) not in got and p.e < p.f and p.shared_vertex in g.shared_vertices(p.e, p.f)
        got[p.e, p.f] = (confluent, contrafluent)
    want = {}
    for p in adjacent_pairs(g):
        rel = pair_relation(flow, p)
        if (p.e in edges or p.f in edges) and not {p.e, p.f} & h_edges and any(rel):
            want[p.e, p.f] = rel
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_forbidden_reads_no_orientation(data):
    # A pair forbids the same two values whichever way its edges point; the
    # reference reads the orientations at a shared vertex.
    n = data.draw(st.integers(2, 4))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    g = Multigraph(n, [(u, (u + d) % n) for u, d in data.draw(st.lists(ends, min_size=2, max_size=8))])
    k = data.draw(st.sampled_from((3, 5, 11)))
    pairs = [data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, 1))) for _ in g.edges]
    p = data.draw(st.sampled_from(adjacent_pairs(g) or [reject()]))
    e, f = data.draw(st.permutations((p.e, p.f)))
    s = data.draw(st.sampled_from((1, -1)))
    got, want = set(), set()
    synthesis._pair_forbidden(to_flow(g, GroupTag.zkxz2(k), pairs).values, k, e, s, f, got)
    reference_tower.pair_forbidden(g, pairs, k, e, s, f, want)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ADMISSIBLE_NAMES), st.sampled_from((3, 5, 11)), st.data())
def test_send_on_matches_the_pair_reference(name, k, data):
    # _send_on adds (c, parity) as one stage value mod 2k; the reference adds
    # c to the Z_k coordinate with the traversal sign and parity to the Z_2 one.
    g = load(name)
    circ = circuit_through_edge(g, data.draw(st.integers(0, g.edge_count - 1)))
    if data.draw(st.booleans()):
        circ = circ.reversed()
    pairs = [data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, 1))) for _ in g.edges]
    c, parity = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 1))
    tag = GroupTag.zkxz2(k)
    vals = list(to_flow(g, tag, pairs).values)
    synthesis._send_on(g, vals, circ, c, parity, k)
    reference_tower.send_on(g, pairs, circ, c, parity, k)
    assert all(0 <= x < 2 * k for x in vals)
    assert tuple(vals) == to_flow(g, tag, pairs).values


# Prism: triangle 0 1 2 (edges 0 1 2), triangle 3 4 5 (edges 3 4 5), and the
# matching 0-3, 1-4, 2-5 (edges 6 7 8).
TRIANGLE = ({0, 1, 2}, {0, 1, 2})
WITH_3_4 = ({0, 1, 2, 3, 4}, {0, 1, 2, 3, 6, 7})
ALL_BUT_8 = (set(range(6)), set(range(8)))
BASE = CircuitChain((Circuit((0, 1, 2), (0, 1, 2)),))
OTHER = CircuitChain((Circuit((3, 4, 5), (3, 4, 5)),))
EARS = [
    (TRIANGLE, synthesis.AddBlockChain(OTHER, 6, 7, 0, 1, 3, 4), True),
    (TRIANGLE, synthesis.AddBlockChain(OTHER, 3, 7, 0, 1, 3, 4), False),  # e1 misses H
    (TRIANGLE, synthesis.AddBlockChain(OTHER, 6, 6, 0, 0, 3, 3), False),  # e1 = e2
    (TRIANGLE, synthesis.AddBlockChain(BASE, 6, 7, 0, 1, 0, 1), False),  # chain in H
    (TRIANGLE, synthesis.AddChord(6), False),  # an end outside H
    (TRIANGLE, synthesis.AddChord(0), False),  # already in H
    (WITH_3_4, synthesis.AddVertex(5, 4, 8), True),
    (WITH_3_4, synthesis.AddVertex(5, 4, 4), False),  # e1 = e2
    (WITH_3_4, synthesis.AddVertex(5, 4, 0), False),  # edge 0 misses vertex 5
    (WITH_3_4, synthesis.AddVertex(4, 4, 8), False),  # vertex in H
    (WITH_3_4, synthesis.AddChord(8), False),
    (ALL_BUT_8, synthesis.AddChord(8), True),
]


@pytest.mark.parametrize("stage, step, ear", EARS)
def test_ear_premises(stage, step, ear):
    h_vertices, h_edges = stage
    assert synthesis._is_ear(load("prism"), h_vertices, h_edges, step) is ear


def test_a_chain_touching_the_stage_is_refused():
    # K4 with H the star at 0, and the triangle 1 2 3 recorded as a chain
    # with (1, 1) sent around it: every other condition holds.
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
    tag = GroupTag.zkxz2(11)
    chain = CircuitChain((Circuit((1, 2, 3), (3, 4, 5)),))
    vals = [(0, 0)] * 6
    reference_tower.send_on(g, vals, chain.circuits[0], 1, 1, 11)
    flow = to_flow(g, tag, vals)
    h_edges, h_next = frozenset({0, 1, 2}), frozenset(range(6))
    with pytest.raises(InternalDefectError, match="touches the current stage"):
        reference_tower.check_stage(
            g, flow, h_edges, [chain], prev_flow=zero_flow(g, tag),
            prev_h_edges=h_next, pairs=adjacent_pairs(g), stage="stage:0",
        )
    with pytest.raises(InternalDefectError, match="touches the current stage"):
        synthesis._StageChecks(g, tag).step(flow.values, h_edges, chain.edge_set, (chain,), "stage:0")


def test_a_changed_frozen_edge_is_refused(t3):
    # t3's three edges 0 -> 1, H = {0} and the step adds edge 1; (1, 0) sent
    # around edges 1 and 2 also moves edge 2, which is neither in H nor
    # added. Every other condition holds: the flow is conserved, edge 1 is
    # nonzero, and the one confluent pair (1, 2) meets no other.
    tag = GroupTag.zkxz2(11)
    flow = to_flow(t3, tag, [(0, 0), (1, 0), (10, 0)])
    h_edges, added = frozenset({0}), frozenset({1})
    with pytest.raises(InternalDefectError, match=r"^\[stage:0\] frozen edge 2 changed value$"):
        reference_tower.check_stage(
            t3, flow, h_edges, [], prev_flow=zero_flow(t3, tag),
            prev_h_edges=h_edges | added, pairs=adjacent_pairs(t3), stage="stage:0",
        )
    with pytest.raises(InternalDefectError, match=r"^\[stage:0\] frozen edge 2 changed value$"):
        synthesis._StageChecks(t3, tag).step(flow.values, h_edges, added, (), "stage:0")


# Stage flows of t3 (three edges 0 -> 1) right after the all-zero top stage,
# each breaking exactly one condition; H is empty and every edge is added.
T3_STAGES = [
    ("outside the stage is zero", ((1, 0), (10, 0), (0, 0))),
    (r"pair \(0,1\) is not chain-consecutive", ((1, 0), (1, 0), (9, 0))),
    (r"pair \(1,2\) is not chain-consecutive", ((9, 0), (1, 0), (1, 0))),
    (r"flow not conserved at \(0, 1\)", ((1, 1), (10, 0), (0, 0))),  # in Z_11, not in Z_2
]


@pytest.mark.parametrize("fault, values", T3_STAGES)
def test_a_corrupt_stage_is_refused_like_the_full_check(t3, fault, values):
    tag = GroupTag.zkxz2(11)
    flow = to_flow(t3, tag, values)
    everything = frozenset(range(3))
    with pytest.raises(InternalDefectError, match=fault):
        reference_tower.check_stage(
            t3, flow, frozenset(), [], prev_flow=zero_flow(t3, tag),
            prev_h_edges=everything, pairs=adjacent_pairs(t3), stage="stage:0",
        )
    with pytest.raises(InternalDefectError, match=fault):
        synthesis._StageChecks(t3, tag).step(flow.values, frozenset(), everything, (), "stage:0")
    with pytest.raises(InternalDefectError, match=rf"^\[bullets\] .*{fault}"):
        synthesis.verify_mod_flow_bullets(t3, flow, [])


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(st.sampled_from(("two_k4", "three_k4")).map(load) | admissible_multigraphs(), st.data())
def test_the_bullet_check_fails_exactly_when_the_full_check_fails(g, data):
    # Corrupt the stage flow of rich_mod_flow, glued ones included: one edge
    # set to any value; a random value sent around a circuit; around a
    # circuit through one edge of an adjacent pair and not the other, a value
    # that makes the pair confluent or contrafluent; or a recorded chain
    # dropped, repeated, or made invalid by repeating its last circuit. The
    # bullet check must raise exactly when the reference's full check of the
    # corrupted flow, from zero, does.
    result = synthesis.rich_mod_flow(g)
    tag = result.flow.group
    k = tag.k
    vals, chains = list(values_of(result.flow)), list(result.chains)
    e = data.draw(st.integers(0, g.edge_count - 1))
    value = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 1)))
    kind = data.draw(st.sampled_from(["none", "edge", "circuit", "pair", "chain"]))
    every_edge = frozenset(range(g.edge_count))
    if kind == "edge":
        vals[e] = value
    elif kind == "circuit":
        reference_tower.send_on(g, vals, circuit_through_edge(g, e), value[0], value[1], k)
    elif kind == "pair":
        p = data.draw(st.sampled_from(adjacent_pairs(g)))
        circ = circuit_through_edge(g, p.e, allowed_edges=every_edge - {p.f})
        forbidden: set[int] = set()
        reference_tower.pair_forbidden(g, vals, k, p.e, 1, p.f, forbidden)
        if circ is not None and forbidden:
            reference_tower.send_on(g, vals, circ, data.draw(st.sampled_from(sorted(forbidden))), 0, k)
    elif kind == "chain":
        i = data.draw(st.integers(0, len(chains) - 1))
        fault = data.draw(st.sampled_from(["drop", "repeat", "repeat circuit"]))
        if fault == "drop":
            del chains[i]
        elif fault == "repeat":
            chains.append(chains[i])
        else:
            chains[i] = CircuitChain(chains[i].circuits + chains[i].circuits[-1:])
    flow = to_flow(g, tag, vals)
    try:
        reference_tower.check_stage(
            g, flow, frozenset(), chains, prev_flow=zero_flow(g, tag), prev_h_edges=every_edge,
            pairs=adjacent_pairs(g), stage="bullets",
        )
        full = None
    except InternalDefectError as exc:
        full = exc
    try:
        synthesis.verify_mod_flow_bullets(g, flow, chains)
        bullets = None
    except InternalDefectError as exc:
        bullets = exc
    assert (bullets is None) == (full is None), (bullets, full)
    assert kind != "none" or full is None


def test_a_new_confluent_pair_is_tested_against_the_kept_ones():
    # Three edges out of vertex 0. Into 0 they carry 10, 1 and 10 (mod 11),
    # all of parity 1: {0, 1} and {1, 2} are confluent and strongly
    # intersect; {0, 2} is contrafluent, and edges 0 and 2 share a circuit.
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    tag = GroupTag.zkxz2(11)
    checks = synthesis._StageChecks(g, tag)
    checks.location = {0: (0, 0), 2: (0, 0)}
    values = to_flow(g, tag, ((1, 1), (10, 1), (1, 1))).values
    checks._check_pairs(values, frozenset({2}), {0, 1}, "stage:1")
    with pytest.raises(InternalDefectError, match=r"\(1,2\) and \(0,1\) strongly intersect"):
        checks._check_pairs(values, frozenset(), {2}, "stage:0")


# ---------------------------------------------------------------------------
# No full pass per step


def random_cubic(seed: int, n: int) -> Multigraph:
    """A random simple 3-edge-connected cubic graph."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = list(zip(points[0::2], points[1::2]))
        if any(u == v for u, v in edges) or len({frozenset(e) for e in edges}) != len(edges):
            continue
        g = Multigraph(n, edges)
        if three_edge_connected(g):
            return g


GUARDED = ("is_rich_flow_admissible", "verify_flow", "adjacent_pairs")


def full_pass_counts(monkeypatch, g: Multigraph) -> tuple[dict[str, int], int]:
    """Calls of the GUARDED full passes, and graphs built (copies of g or of
    a part of it), during one building_phi on g."""
    counts = dict.fromkeys(GUARDED + ("graphs built",), 0)
    for name in GUARDED:
        real = getattr(synthesis, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(synthesis, name, counting)
    real_init = Multigraph.__init__

    def counting_init(self, vertex_count, edge_pairs):
        counts["graphs built"] += 1
        real_init(self, vertex_count, edge_pairs)

    monkeypatch.setattr(Multigraph, "__init__", counting_init)
    res = synthesis.building_phi(g, 0, encode(11, (1, 0)), 3)
    monkeypatch.undo()
    return counts, len(res.tower.steps)


def test_full_passes_do_not_grow_with_the_tower(monkeypatch):
    small, small_steps = full_pass_counts(monkeypatch, random_cubic(24, 24))
    large, large_steps = full_pass_counts(monkeypatch, random_cubic(96, 96))
    assert large_steps > 3 * small_steps
    assert large == small
    assert large["verify_flow"] == large["adjacent_pairs"] == 0
    assert large["graphs built"] == 0


def test_traced_names_stay_importable_from_their_modules(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_trace", root / "perfbench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, trace)  # its dataclasses look themselves up
    spec.loader.exec_module(trace)
    for _, attr, modules, _ in trace.WRAP_POINTS:
        for short in modules:
            module = importlib.import_module(f"richflow.{short}")
            assert callable(getattr(module, attr, None)), f"richflow.{short}.{attr}"
