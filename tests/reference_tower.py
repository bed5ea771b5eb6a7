"""Test-only reference for the tower and the backward pass, with the full
checks after every step: each tower stage is rebuilt as a subgraph and tested
for 2-edge-connectivity, and each stage flow is re-verified over the whole
graph, every chain and every adjacent pair.

`synthesis.build_tower` and `synthesis.building_phi` check each step locally
instead. Tests compare their results with these and run `check_stage` on
every stage flow that `building_phi` produces.
"""

from __future__ import annotations

from richflow import Flow, GroupTag, Multigraph, adjacent_pairs, verify_flow
from richflow.errors import InternalDefectError, PreconditionError
from richflow.flowalg import chain_edges, pair_relation, strongly_intersecting
from richflow.multigraph import (
    CircuitChain,
    _bfs_path,
    circuit_through_edge,
    edge_connectivity_at_least,
    find_attachable_block,
    find_circuit_chain,
    find_circuit_through,
    induced_subgraph,
    subgraph,
    validate_circuit_chain,
)
from richflow.synthesis import (
    AddBlockChain,
    AddChord,
    AddVertex,
    BuildingPhiResult,
    StepDiagnostics,
    Tower,
    _adjacent_outside,
    _assign_chain_values,
    _attach_circuit,
    _map_chain,
    _pair_forbidden,
    _pair_forbidden_both_moving,
    _send_on,
    _smallest_allowed,
)


def vertices_of_edges(g: Multigraph, edge_ids) -> frozenset[int]:
    return frozenset(v for eid in edge_ids for v in g.edge(eid).ends)


def assert_stage_two_connected(g: Multigraph, vertices, edge_ids, label: str) -> None:
    sub, _, _ = subgraph(g, vertices, edge_ids)
    if not edge_connectivity_at_least(sub, 2):
        raise InternalDefectError(f"tower stage is not 2-edge-connected after {label}")


def build_tower(g: Multigraph, e_star: int, b: int) -> Tower:
    if b not in (0, 1):
        raise PreconditionError("b must be 0 or 1")
    if not (0 <= e_star < g.edge_count):
        raise PreconditionError(f"edge id {e_star} out of range")
    if not edge_connectivity_at_least(g, 3):
        raise PreconditionError("tower construction requires a 3-edge-connected graph")
    star = g.edge(e_star)
    if b == 1:
        base = CircuitChain((find_circuit_through(g, e_star),))
    else:
        keep = [e.id for e in g.edges if e.id != e_star]
        sub, vmap, emap = subgraph(g, range(g.vertex_count), keep)
        local = find_circuit_chain(sub, star.tail, star.head)
        base = _map_chain(local, vmap, emap)
        if not validate_circuit_chain(g, base, (star.tail, star.head)):
            raise InternalDefectError("base chain does not connect the special edge's ends")
    h_edges: set[int] = set(base.edge_set)
    h_vertices: set[int] = set(base.vertex_set)
    assert_stage_two_connected(g, h_vertices, h_edges, "base")
    steps: list = []
    snapshots: list[frozenset[int]] = [frozenset(h_edges)]
    while len(h_edges) < g.edge_count:
        chord = None
        for e in g.edges:
            if e.id in h_edges:
                continue
            if e.tail in h_vertices and e.head in h_vertices:
                if e.id != e_star or len(h_edges) == g.edge_count - 1:
                    chord = e.id
                    break
        if chord is not None:
            steps.append(AddChord(chord))
            h_edges.add(chord)
        else:
            attach = None
            for v in range(g.vertex_count):
                if v in h_vertices:
                    continue
                into = [
                    eid for eid in g.incident(v) if g.edge(eid).other_end(v) in h_vertices
                ]
                if len(into) >= 2:
                    attach = (v, into[0], into[1])
                    break
            if attach is not None:
                v, e1, e2 = attach
                steps.append(AddVertex(v, e1, e2))
                h_vertices.add(v)
                h_edges.update((e1, e2))
            else:
                blk, e1, e2, b1, b2 = find_attachable_block(g, h_vertices)
                sub, vmap, emap = induced_subgraph(g, blk)
                idx = {orig: i for i, orig in enumerate(vmap)}
                local = find_circuit_chain(sub, idx[b1], idx[b2])
                chain = _map_chain(local, vmap, emap)
                if b1 not in chain.internal_vertices(0):
                    chain = chain.reversed()
                a1 = g.edge(e1).other_end(b1)
                a2 = g.edge(e2).other_end(b2)
                steps.append(AddBlockChain(chain, e1, e2, a1, a2, b1, b2))
                h_vertices |= chain.vertex_set
                h_edges |= chain.edge_set | {e1, e2}
        snapshots.append(frozenset(h_edges))
        assert_stage_two_connected(g, h_vertices, h_edges, repr(steps[-1]))
    return Tower(base, b, e_star, tuple(steps), tuple(snapshots))


def check_stage(
    g: Multigraph,
    flow: Flow,
    h_edges: frozenset[int],
    chains,
    *,
    prev_flow: Flow | None,
    prev_h_edges: frozenset[int] | None,
    pairs,
    stage: str,
) -> None:
    """Every condition of a stage flow, checked over the whole graph."""
    rep = verify_flow(g, flow)
    if not rep.conserved:
        raise InternalDefectError(f"[{stage}] flow not conserved at {rep.violating_vertices}")
    if prev_flow is not None:
        for e in range(g.edge_count):
            if e not in prev_h_edges and flow.values[e] != prev_flow.values[e]:
                raise InternalDefectError(f"[{stage}] frozen edge {e} changed value")
    for e in rep.zero_edges:
        if e not in h_edges:
            raise InternalDefectError(f"[{stage}] edge {e} outside the stage is zero")
    ce = chain_edges(flow)
    union: set[int] = set()
    h_vertices = vertices_of_edges(g, h_edges)
    seen_vertices: set[int] = set()
    for ch in chains:
        if not validate_circuit_chain(g, ch):
            raise InternalDefectError(f"[{stage}] recorded chain is invalid")
        if ch.vertex_set & h_vertices:
            raise InternalDefectError(f"[{stage}] chain touches the current stage subgraph")
        if ch.vertex_set & seen_vertices:
            raise InternalDefectError(f"[{stage}] chains are not vertex-disjoint")
        seen_vertices |= ch.vertex_set
        union |= ch.edge_set
    if ce != union:
        raise InternalDefectError(
            f"[{stage}] chain edges {sorted(ce)} do not match recorded chains {sorted(union)}"
        )
    location: dict[int, tuple[int, int]] = {}
    for ci, ch in enumerate(chains):
        for qi, circ in enumerate(ch.circuits):
            for e in circ.edges:
                location[e] = (ci, qi)
    confluent = []
    for p in pairs:
        if p.e in h_edges or p.f in h_edges:
            continue
        rel = pair_relation(flow, p)
        if rel.confluent:
            confluent.append(p)
        if rel.contrafluent:
            le, lf = location.get(p.e), location.get(p.f)
            if le is None or le != lf:
                raise InternalDefectError(
                    f"[{stage}] contrafluent pair ({p.e},{p.f}) is not chain-consecutive"
                )
    for i in range(len(confluent)):
        for j in range(i + 1, len(confluent)):
            if strongly_intersecting(g, confluent[i], confluent[j]):
                raise InternalDefectError(
                    f"[{stage}] confluent pairs ({confluent[i].e},{confluent[i].f}) and "
                    f"({confluent[j].e},{confluent[j].f}) strongly intersect"
                )


def building_phi(
    g: Multigraph,
    e_star: int,
    target: tuple[int, int],
    delta: int,
    orientation: tuple[int, int] | None = None,
) -> BuildingPhiResult:
    star = g.edge(e_star)
    if orientation is None:
        orientation = star.ends
    if set(orientation) != {star.tail, star.head}:
        raise PreconditionError(f"orientation {orientation} does not fit edge {e_star}")
    if delta < 3 or delta < g.max_degree():
        raise PreconditionError("delta must be >= 3 and >= the maximum degree")
    k = 8 * delta - 13
    if k % 2 == 0 or k < 11:
        raise InternalDefectError("group modulus must be odd and at least 11")
    tag = GroupTag.zkxz2(k)
    a, b = target[0] % k, target[1] % 2
    if (a, b) == (0, 0):
        raise PreconditionError("target value must be nonzero")
    tower = build_tower(g, e_star, b)
    pairs = adjacent_pairs(g)
    m = g.edge_count
    vals: list[tuple[int, int]] = [(0, 0)] * m
    chains: list[CircuitChain] = []
    diags: list[StepDiagnostics] = []
    prev_vals = tuple(vals)
    snapshots = tower.edge_snapshots
    for j in reversed(range(len(tower.steps))):
        step = tower.steps[j]
        h_edges = snapshots[j]
        h_next = snapshots[j + 1]
        if isinstance(step, AddChord):
            e = step.edge
            edge = g.edge(e)
            if e == e_star:
                if any(v != (0, 0) for v in vals):
                    raise InternalDefectError("special chord is not the outermost stage")
                direction = orientation
                c, forb = a, set()
                cap = 0
            else:
                direction = edge.ends
                s = 1
                forb: set[int] = set()
                x, y = vals[e]
                if y == 0:
                    forb.add((-x * s) % k)
                for f in _adjacent_outside(g, e, h_next):
                    _pair_forbidden(g, vals, k, e, s, f, forb)
                cap = 4 * delta - 11
                if len(forb) > cap or len(forb) >= k:
                    raise InternalDefectError(f"chord forbidden set {len(forb)} exceeds cap {cap}")
                c = _smallest_allowed(forb, k)
            circ = circuit_through_edge(g, e, allowed_edges=h_edges | {e}, direction=direction)
            if circ is None:
                raise InternalDefectError("no circuit through the chord inside the stage")
            _send_on(g, vals, circ, c, 0, k)
            diags.append(StepDiagnostics(f"chord:{e}", len(forb), cap, c))
        else:
            if isinstance(step, AddVertex):
                e1, e2 = step.e1, step.e2
                a1 = g.edge(e1).other_end(step.vertex)
                a2 = g.edge(e2).other_end(step.vertex)
                inner_v, inner_e = [step.vertex], []
                label = f"vertex:{step.vertex}"
                block_chain = None
            else:
                e1, e2, a1, a2 = step.e1, step.e2, step.a1, step.a2
                inner = _bfs_path(g, step.b1, step.b2, step.chain.edge_set)
                if inner is None:
                    raise InternalDefectError("attached chain lost connectivity")
                inner_v, inner_e = inner
                label = f"block_chain:{len(step.chain)}"
                block_chain = step.chain
            circ = _attach_circuit(g, e1, e2, a1, a2, inner_v, inner_e, h_edges)
            s1 = circ.traversal_sign(g, 0)
            s2 = circ.traversal_sign(g, circ.edges.index(e2))
            forb = set()
            for e_mov, s_mov in ((e1, s1), (e2, s2)):
                x, y = vals[e_mov]
                if y == 0:
                    forb.add((-x * s_mov) % k)
                for f in _adjacent_outside(g, e_mov, h_next):
                    _pair_forbidden(g, vals, k, e_mov, s_mov, f, forb)
            _pair_forbidden_both_moving(g, vals, k, e1, s1, e2, s2, forb)
            cap = 8 * delta - 15
            if len(forb) > cap or len(forb) >= k:
                raise InternalDefectError(f"attachment forbidden set {len(forb)} exceeds cap {cap}")
            c = _smallest_allowed(forb, k)
            _send_on(g, vals, circ, c, 0, k)
            chain_choices = ()
            if block_chain is not None:
                chain_choices = _assign_chain_values(g, vals, block_chain, k)
                chains.append(block_chain)
            diags.append(StepDiagnostics(label, len(forb), cap, c, chain_choices))
        check_stage(
            g,
            Flow(g, tag, tuple(vals)),
            h_edges,
            chains,
            prev_flow=Flow(g, tag, prev_vals),
            prev_h_edges=h_next,
            pairs=pairs,
            stage=f"stage:{j}",
        )
        prev_vals = tuple(vals)
    if b == 1:
        circ = tower.base.circuits[0]
        pos = circ.edges.index(e_star)
        travel = (circ.vertices[pos], circ.vertices[(pos + 1) % len(circ)])
        if travel != orientation:
            circ = circ.reversed()
        stored = vals[e_star][0]
        current = stored if orientation == star.ends else (-stored) % k
        c = (a - current) % k
        _send_on(g, vals, circ, c, 1, k)
        chains.append(CircuitChain((circ,)))
        diags.append(StepDiagnostics("base:circuit", 0, 0, c))
    else:
        chain_choices = _assign_chain_values(g, vals, tower.base, k)
        chains.append(tower.base)
        diags.append(StepDiagnostics("base:chain", 0, 0, chain_choices[0][0], chain_choices))
    flow0 = Flow(g, tag, tuple(vals))
    check_stage(
        g,
        flow0,
        frozenset(),
        chains,
        prev_flow=Flow(g, tag, prev_vals),
        prev_h_edges=snapshots[0],
        pairs=pairs,
        stage="final",
    )
    stored = flow0.values[e_star]
    fixed_value = stored if orientation == star.ends else ((-stored[0]) % k, stored[1])
    if fixed_value != (a, b):
        raise InternalDefectError(f"special edge carries {fixed_value} instead of {(a, b)}")
    return BuildingPhiResult(flow0, tower, tuple(chains), tuple(diags))
