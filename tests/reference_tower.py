"""Test-only reference for the tower and the backward pass, with the full
checks after every step: each tower stage is rebuilt as a subgraph and tested
for 2-edge-connectivity, and each stage flow is re-verified over the whole
graph, every chain and every adjacent pair.

`synthesis.build_tower` and `synthesis.building_phi` check each step locally
instead. Tests compare their results with these and run `check_stage` on
every stage flow that `building_phi` produces.

The reference computes on Z_k x Z_2 values as pairs (a, y), sends them with
its own `send_on`, and checks stage flows with `reference_flow`'s pair-based
`verify_flow` and `pair_relation`; pairs meet the package's stage values
only through `reference_flow.encode` and `decode`.

The reference also keeps the forms that synthesis no longer uses: blocks and
their chains are searched on relabelled copies (`subgraph`,
`induced_subgraph`, `find_attachable_block`, with `bridges`), components
are found by BFS (`connected_components`), the 2-cut split lists both sides
of every cut and enumerates its near side's cuts by brute force
(`split_on_two_cut`), and the forbidden values of a pair are computed from
the pair's shared vertex, one pair at a time.
"""

from __future__ import annotations

from collections import deque

from richflow import Flow, GroupTag, Multigraph
from richflow.flowalg import adjacent_pairs
from richflow.errors import InternalDefectError, PreconditionError
from richflow.flowalg import strongly_intersecting
from richflow.multigraph import (
    CircuitChain,
    _bfs_path,
    _dfs_facts,
    circuit_through_edge,
    find_circuit_chain,
    find_circuit_through,
    validate_circuit_chain,
)
from richflow.synthesis import (
    AddBlockChain,
    AddChord,
    AddVertex,
    BuildingPhiResult,
    StepDiagnostics,
    Tower,
    TwoCutSplit,
    _attach_circuit,
    _build_side,
    _map_chain,
    _smallest_allowed,
)

from conftest import oracle_cuts, three_edge_connected
from reference_flow import chain_edges, decode, pair_relation, to_flow, verify_flow


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose removal increases the number of components: the
    single-edge blocks of g (a parallel edge shares its block with its twin)."""
    return _dfs_facts(g)[1]


def connected_components(g: Multigraph, *, without: frozenset[int] = frozenset()):
    """Vertex sets of the components of g with the given edges removed, by
    BFS from each unreached vertex in id order."""
    seen = [False] * g.vertex_count
    comps: list[tuple[int, ...]] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for eid in g.incident(v):
                if eid in without:
                    continue
                w = g.edges[eid].other_end(v)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def split_on_two_cut(g: Multigraph, two_cuts) -> TwoCutSplit:
    """`synthesis.split_on_two_cut`, listing both sides' vertices and inner
    edges for every cut and comparing their sizes (inner edges, vertices);
    `near_cuts` is side 1's own cut list, by subset deletion."""
    best = None
    for ea, eb in two_cuts:
        comps = connected_components(g, without=frozenset((ea, eb)))
        if len(comps) != 2:
            raise InternalDefectError(f"edges {ea} and {eb} do not split g in two")
        sides = []
        for comp in comps:
            vset = set(comp)
            inner = [
                e.id
                for e in g.edges
                if e.id not in (ea, eb) and e.tail in vset and e.head in vset
            ]
            sides.append((vset, inner))
        key0 = (len(sides[0][1]), len(sides[0][0]))
        key1 = (len(sides[1][1]), len(sides[1][0]))
        far = 1 if key1 <= key0 else 0  # ties keep vertex 0 on the near side
        candidate_key = (key1 if far == 1 else key0, (ea, eb))
        if best is None or candidate_key < best[0]:
            best = (candidate_key, (ea, eb), sides, far)
    _, (ea, eb), sides, far = best
    near_set, near_inner = sides[1 - far]
    far_set, far_inner = sides[far]
    edge_a, edge_b = g.edge(ea), g.edge(eb)
    u1 = edge_a.tail if edge_a.tail in near_set else edge_a.head
    v1 = edge_a.other_end(u1)
    u2 = edge_b.tail if edge_b.tail in near_set else edge_b.head
    v2 = edge_b.other_end(u2)
    side1 = _build_side(g, near_set, near_inner, u1, u2)
    side2 = _build_side(g, far_set, far_inner, v1, v2)
    if not three_edge_connected(side2.graph):
        raise InternalDefectError("minimal far side with virtual edge is not 3-edge-connected")
    near_cuts = tuple(sorted(oracle_cuts(side1.graph)[1]))
    return TwoCutSplit((ea, eb), u1, u2, v1, v2, side1, side2, near_cuts)


def subgraph(
    g: Multigraph, vertices, edge_ids
) -> tuple[Multigraph, tuple[int, ...], tuple[int, ...]]:
    """Relabelled subgraph plus maps new-vertex -> old and new-edge -> old."""
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    eids = sorted(set(edge_ids))
    pairs = []
    for eid in eids:
        e = g.edge(eid)
        if e.tail not in index or e.head not in index:
            raise PreconditionError(f"edge {eid} leaves the requested vertex set")
        pairs.append((index[e.tail], index[e.head]))
    return Multigraph(len(vs), pairs), tuple(vs), tuple(eids)


def induced_subgraph(g: Multigraph, vertices):
    vs = set(vertices)
    eids = [e.id for e in g.edges if e.tail in vs and e.head in vs]
    return subgraph(g, vs, eids)


def find_attachable_block(g: Multigraph, inside) -> tuple[frozenset[int], int, int, int, int]:
    """`multigraph.find_attachable_block`, searched on the relabelled copy of
    g minus `inside`."""
    inside = frozenset(inside)
    outside = [v for v in range(g.vertex_count) if v not in inside]
    if not outside:
        raise PreconditionError("already spanning: no vertices outside the current subgraph")
    for v in outside:
        to_inside = sum(1 for eid in g.incident(v) if g.edges[eid].other_end(v) in inside)
        if to_inside >= 2:
            raise PreconditionError(
                f"vertex-attachment step applies: vertex {v} has {to_inside} edges inside"
            )
    sub, vmap, emap = induced_subgraph(g, outside)
    sub_bridges = bridges(sub)
    comps = connected_components(sub, without=sub_bridges)
    blocks = [frozenset(vmap[i] for i in comp) for comp in comps]
    bridge_ends = []
    for sb in sub_bridges:
        e = sub.edge(sb)
        bridge_ends.append((vmap[e.tail], vmap[e.head]))
    candidates = []
    for blk in blocks:
        touching = sum(1 for a, b in bridge_ends if (a in blk) != (b in blk))
        if touching <= 1:
            candidates.append(blk)
    candidates.sort(key=min)
    for blk in candidates:
        joining = [
            e.id
            for e in g.edges
            if (e.tail in inside and e.head in blk) or (e.head in inside and e.tail in blk)
        ]
        if len(joining) >= 2:
            e1, e2 = joining[0], joining[1]
            b1 = g.edge(e1).tail if g.edge(e1).tail in blk else g.edge(e1).head
            b2 = g.edge(e2).tail if g.edge(e2).tail in blk else g.edge(e2).head
            if b1 == b2:
                raise InternalDefectError(
                    "attachment endpoints coincide although the vertex step was ruled out"
                )
            return blk, e1, e2, b1, b2
    raise PreconditionError("no attachable block with two edges to the current subgraph")


def adjacent_outside(g: Multigraph, e: int, inside_edges) -> list[int]:
    out: set[int] = set()
    for v in g.edges[e].ends:
        for f in g.incident(v):
            if f != e and f not in inside_edges:
                out.add(f)
    return sorted(out)


def send_on(g: Multigraph, vals, circuit, c: int, parity: int, k: int) -> None:
    """Add the pair (c, parity) around the circuit, each edge's Z_k
    coordinate with its traversal sign and its Z_2 coordinate unsigned."""
    for pos, eid in enumerate(circuit.edges):
        sign = circuit.traversal_sign(g, pos)
        a, y = vals[eid]
        vals[eid] = ((a + sign * c) % k, (y + parity) % 2)


def pair_forbidden(g, vals, k, e_mov, s_mov, f_static, forbidden) -> None:
    """Values of c making the moving/static pair confluent or contrafluent,
    read at a shared vertex of the two edges."""
    x, ye = vals[e_mov]
    xf, yf = vals[f_static]
    if ye != yf:
        return
    em, ef = g.edges[e_mov], g.edges[f_static]
    w = em.tail if ef.touches(em.tail) else em.head
    se = 1 if em.head == w else -1
    sf = 1 if ef.head == w else -1
    forbidden.add((s_mov * (-se * sf * xf - x)) % k)  # confluent
    forbidden.add((s_mov * (se * sf * xf - x)) % k)  # contrafluent


def pair_forbidden_both_moving(g, vals, k, e1, s1, e2, s2, forbidden) -> None:
    """The single c making two co-moving adjacent edges contrafluent, read at
    their lowest shared vertex."""
    shared = g.shared_vertices(e1, e2)
    if not shared:
        return
    w = shared[0]
    x1, y1 = vals[e1]
    x2, y2 = vals[e2]
    if y1 != y2:
        return
    s_1 = 1 if g.edge(e1).head == w else -1
    s_2 = 1 if g.edge(e2).head == w else -1
    coef = (s_1 * s1 - s_2 * s2) % k
    rhs = (s_2 * x2 - s_1 * x1) % k
    if coef == 0:
        if rhs == 0:
            raise InternalDefectError("attachment edges would be contrafluent for every value")
        return
    forbidden.add((rhs * pow(coef, -1, k)) % k)


def assign_chain_values(g, vals, chain: CircuitChain, k: int):
    """`synthesis._assign_chain_values`, with each pair's forbidden values
    read by `pair_forbidden`."""
    choices = []
    for idx, circ in enumerate(chain.circuits):
        send_on(g, vals, circ, 0, 1, k)
        forbidden: set[int] = set()
        if idx:
            prev = chain.circuits[idx - 1]
            t = next(iter(prev.vertex_set & circ.vertex_set))
            prev_at_t = [e for e in prev.edges if g.edges[e].touches(t)]
            for pos, e in enumerate(circ.edges):
                if g.edges[e].touches(t):
                    for f in prev_at_t:
                        pair_forbidden(g, vals, k, e, circ.traversal_sign(g, pos), f, forbidden)
        if len(forbidden) > 8 or len(forbidden) >= k:
            raise InternalDefectError(f"chain value forbidden set has size {len(forbidden)}")
        c = _smallest_allowed(forbidden, k)
        send_on(g, vals, circ, c, 0, k)
        choices.append((c, len(forbidden)))
    return tuple(choices)


def vertices_of_edges(g: Multigraph, edge_ids) -> frozenset[int]:
    return frozenset(v for eid in edge_ids for v in g.edge(eid).ends)


def assert_stage_two_connected(g: Multigraph, vertices, edge_ids, label: str) -> None:
    connected, sub_bridges, _ = _dfs_facts(subgraph(g, vertices, edge_ids)[0])
    if not connected or sub_bridges:
        raise InternalDefectError(f"tower stage is not 2-edge-connected after {label}")


def build_tower(g: Multigraph, e_star: int, b: int) -> Tower:
    if b not in (0, 1):
        raise PreconditionError("b must be 0 or 1")
    if not (0 <= e_star < g.edge_count):
        raise PreconditionError(f"edge id {e_star} out of range")
    if not three_edge_connected(g):
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
        assert_stage_two_connected(g, h_vertices, h_edges, repr(steps[-1]))
    return Tower(base, b, e_star, tuple(steps))


def step_edges(step) -> list[int]:
    """The edges a tower step adds, as a list, so that a repeat shows."""
    if isinstance(step, AddChord):
        return [step.edge]
    if isinstance(step, AddVertex):
        return [step.e1, step.e2]
    return [e for circ in step.chain.circuits for e in circ.edges] + [step.e1, step.e2]


def stage_edges(tower: Tower) -> list[frozenset[int]]:
    """The edge set of every stage of the tower, base first: each stage is
    the one before plus the edges its step adds."""
    stages = [frozenset(tower.base.edge_set)]
    for step in tower.steps:
        stages.append(stages[-1].union(step_edges(step)))
    return stages


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
        is_confluent, is_contrafluent = pair_relation(flow, p)
        if is_confluent:
            confluent.append(p)
        if is_contrafluent:
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
    target: int,
    delta: int,
    orientation: tuple[int, int] | None = None,
) -> BuildingPhiResult:
    """`synthesis.building_phi` on pairs, with the full checks of every
    stage; `target` is a stage value, decoded to its pair here."""
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
    a, b = decode(k, target)
    if (a, b) == (0, 0):
        raise PreconditionError("target value must be nonzero")
    tower = build_tower(g, e_star, b)
    pairs = adjacent_pairs(g)
    m = g.edge_count
    vals: list[tuple[int, int]] = [(0, 0)] * m
    chains: list[CircuitChain] = []
    diags: list[StepDiagnostics] = []
    prev_vals = tuple(vals)
    stages = stage_edges(tower)
    for j in reversed(range(len(tower.steps))):
        step = tower.steps[j]
        h_edges = stages[j]
        h_next = stages[j + 1]
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
                for f in adjacent_outside(g, e, h_next):
                    pair_forbidden(g, vals, k, e, s, f, forb)
                cap = 4 * delta - 11
                if len(forb) > cap or len(forb) >= k:
                    raise InternalDefectError(f"chord forbidden set {len(forb)} exceeds cap {cap}")
                c = _smallest_allowed(forb, k)
            circ = circuit_through_edge(g, e, allowed_edges=h_edges | {e}, direction=direction)
            if circ is None:
                raise InternalDefectError("no circuit through the chord inside the stage")
            send_on(g, vals, circ, c, 0, k)
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
                for f in adjacent_outside(g, e_mov, h_next):
                    pair_forbidden(g, vals, k, e_mov, s_mov, f, forb)
            pair_forbidden_both_moving(g, vals, k, e1, s1, e2, s2, forb)
            cap = 8 * delta - 15
            if len(forb) > cap or len(forb) >= k:
                raise InternalDefectError(f"attachment forbidden set {len(forb)} exceeds cap {cap}")
            c = _smallest_allowed(forb, k)
            send_on(g, vals, circ, c, 0, k)
            chain_choices = ()
            if block_chain is not None:
                chain_choices = assign_chain_values(g, vals, block_chain, k)
                chains.append(block_chain)
            diags.append(StepDiagnostics(label, len(forb), cap, c, chain_choices))
        check_stage(
            g,
            to_flow(g, tag, vals),
            h_edges,
            chains,
            prev_flow=to_flow(g, tag, prev_vals),
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
        send_on(g, vals, circ, c, 1, k)
        chains.append(CircuitChain((circ,)))
        diags.append(StepDiagnostics("base:circuit", 0, 0, c))
    else:
        chain_choices = assign_chain_values(g, vals, tower.base, k)
        chains.append(tower.base)
        diags.append(StepDiagnostics("base:chain", 0, 0, chain_choices[0][0], chain_choices))
    flow0 = to_flow(g, tag, vals)
    check_stage(
        g,
        flow0,
        frozenset(),
        chains,
        prev_flow=to_flow(g, tag, prev_vals),
        prev_h_edges=stages[0],
        pairs=pairs,
        stage="final",
    )
    stored = vals[e_star]
    fixed_value = stored if orientation == star.ends else ((-stored[0]) % k, stored[1])
    if fixed_value != (a, b):
        raise InternalDefectError(f"special edge carries {fixed_value} instead of {(a, b)}")
    return BuildingPhiResult(flow0, tower, tuple(chains), tuple(diags))
