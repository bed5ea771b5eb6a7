from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from richflow import (
    AdmissibilityError,
    GroupTag,
    Multigraph,
    PreconditionError,
    building_phi,
    is_rich_flow_admissible,
    rich_mod_flow,
    synthesize_rich_flow,
)
from richflow.flowalg import (
    adjacent_pairs,
    chain_edges,
    is_rich,
    pair_relation,
    strongly_intersecting,
    verify_flow,
    write_flow_json,
)
from richflow.multigraph import edge_connectivity_at_least, subgraph, validate_circuit_chain
from richflow.synthesis import AddChord, build_tower, split_on_two_cut, verify_mod_flow_bullets

import reference_flow
from conftest import ADMISSIBLE_NAMES, load
from test_tower_checks import draw_block


THREE_EDGE_CONNECTED = [
    name for name in ADMISSIBLE_NAMES if edge_connectivity_at_least(load(name), 3)
]


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
    # Every stage is 2-edge-connected and the last stage is the whole graph.
    for snap in tw.edge_snapshots:
        vs = set()
        for e in snap:
            vs |= set(k4.edge(e).ends)
        stage, _, _ = subgraph(k4, vs, snap)
        assert edge_connectivity_at_least(stage, 2)
    assert tw.edge_snapshots[-1] == frozenset(range(k4.edge_count))


def test_tower_rejects_non_three_connected():
    with pytest.raises(PreconditionError):
        build_tower(load("c4"), 0, 0)


def test_tower_exercises_block_step():
    # Wagner and Petersen need the block-chain growth rule at some stage for
    # at least one base; just assert towers build from every edge.
    for name in ("wagner", "petersen"):
        g = load(name)
        for e in (0, g.edge_count // 2, g.edge_count - 1):
            for b in (0, 1):
                tw = build_tower(g, e, b)
                assert tw.edge_snapshots[-1] == frozenset(range(g.edge_count))


# ---------------------------------------------------------------------------
# building_phi


def check_bullets(g, result, e_star, orientation, target):
    flow = result.flow
    rep = verify_flow(g, flow)
    assert rep.conserved and rep.nowhere_zero
    verify_mod_flow_bullets(g, flow, result.chains)
    star = g.edge(e_star)
    stored = flow.values[e_star]
    fixed = stored if orientation == star.ends else reference_flow.neg(flow.group, stored)
    k = flow.group.k
    assert fixed == (target[0] % k, target[1] % 2)


def test_building_phi_t3(t3):
    res = building_phi(t3, 0, (3, 1), 3)
    check_bullets(t3, res, 0, t3.edge(0).ends, (3, 1))


def test_building_phi_k4_chains_are_base(k4):
    res = building_phi(k4, 0, (1, 0), 3)
    check_bullets(k4, res, 0, k4.edge(0).ends, (1, 0))
    assert chain_edges(res.flow) == res.tower.base.edge_set


def test_building_phi_rejects_zero_target(k4):
    with pytest.raises(PreconditionError):
        building_phi(k4, 0, (0, 0), 3)
    with pytest.raises(PreconditionError):
        building_phi(k4, 0, (11, 2), 3)  # reduces to (0, 0)


def test_building_phi_reversed_orientation(k4):
    star = k4.edge(2)
    res = building_phi(k4, 2, (5, 1), 3, orientation=(star.head, star.tail))
    check_bullets(k4, res, 2, (star.head, star.tail), (5, 1))


def test_building_phi_accepts_larger_delta(t3):
    res = building_phi(t3, 0, (2, 1), 5)
    assert res.flow.group.k == 8 * 5 - 13
    check_bullets(t3, res, 0, t3.edge(0).ends, (2, 1))


def test_building_phi_forbidden_sets_respect_caps():
    for name in THREE_EDGE_CONNECTED:
        g = load(name)
        delta = g.max_degree()
        k = 8 * delta - 13
        res = building_phi(g, 0, (1, 1), delta)
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
    split = split_on_two_cut(g)
    assert split is not None
    assert split.cut == (12, 13)
    for side in (split.side1, split.side2):
        assert side.graph.vertex_count == 4
        assert side.graph.edge_count == 7  # K4 plus one parallel edge
    assert is_rich_flow_admissible(split.side1.graph).admissible
    assert edge_connectivity_at_least(split.side2.graph, 3)


def test_split_none_for_three_connected(k4):
    assert split_on_two_cut(k4) is None


def test_split_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        split_on_two_cut(load("c4"))


def test_split_recursion_depth_two():
    g = load("three_k4")
    first = split_on_two_cut(g)
    assert first is not None
    second = split_on_two_cut(first.side1.graph)
    assert second is not None  # the near side still has a 2-edge-cut


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
    split = split_on_two_cut(g)
    ea, eb = split.cut
    tag = res.flow.group
    va = res.flow.values[ea] if g.edge(ea).ends == (split.u1, split.v1) else reference_flow.neg(tag, res.flow.values[ea])
    vb = res.flow.values[eb] if g.edge(eb).ends == (split.v2, split.u2) else reference_flow.neg(tag, res.flow.values[eb])
    assert va == vb != (0, 0)


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


def test_strongly_intersecting_confluent_pairs_fail_the_bullet_check(monkeypatch, k4):
    # Past the per-stage checks, the bullet check is the one test of the whole
    # stage flow for strongly intersecting confluent pairs. No corpus stage
    # flow has a confluent pair, so every adjacent pair is made to read
    # confluent there; on k4 two pairs at one vertex then strongly intersect.
    from richflow import InternalDefectError, synthesis
    from richflow.flowalg import PairRelation

    monkeypatch.setattr(
        synthesis, "pair_relation", lambda flow, p: PairRelation(confluent=True, contrafluent=False)
    )
    with pytest.raises(InternalDefectError, match=r"^\[bullets\] confluent pairs .* strongly intersect"):
        synthesize_rich_flow(k4)


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
