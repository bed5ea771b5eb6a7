"""Constructive synthesis of rich integer flows.

The pipeline grows a tower of 2-edge-connected subgraphs above a base circuit
or circuit chain, assigns (Z_k x Z_2) circuit values backwards through the
tower while steering every adjacent pair away from forbidden confluency. A
graph that is not 3-edge-connected is handled by one loop: it peels a smallest
2-edge-cut side off at a time, each read from the admissibility verdict of the
graph that remains, and then glues the sides' flows back innermost first.
A confluence-free Z_6 flow and modular-to-integer lifting then combine the
pieces into a certified rich flow with all absolute values below 264*Delta-445.

Every "clearly" step of the construction is re-checked mechanically. The
tower and the backward pass check each step locally, on what the step adds or
changes, and the invariants of every stage follow by induction over the
steps; every glued stage flow and the final flow get the full checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne

from .errors import AdmissibilityError, InternalDefectError, PreconditionError

from .flowalg import (
    AdjacentPair,
    Flow,
    GroupTag,
    adjacent_pairs,
    chain_edges,
    linear_combine,
    modular_to_integer,
    pair_relation,
    project_flow,
    rich_report,
    strongly_intersecting,
    verify_flow,
    RichnessChecks,
)
from .multigraph import (
    Circuit,
    CircuitChain,
    Multigraph,
    _bfs_path,
    circuit_through_edge,
    connected_components,
    edge_connectivity_at_least,
    # Not called here: perfbench/trace.py wraps it on this module too.
    enumerate_two_edge_cuts,  # noqa: F401  (traced)
    find_attachable_block,
    find_circuit_chain,
    find_circuit_through,
    is_rich_flow_admissible,
    subgraph,
    induced_subgraph,
    validate_circuit,
    validate_circuit_chain,
)
from .seymour import PairSet, flow_avoiding_confluence


# ---------------------------------------------------------------------------
# Tower of 2-edge-connected subgraphs


@dataclass(frozen=True)
class AddChord:
    edge: int


@dataclass(frozen=True)
class AddVertex:
    vertex: int
    e1: int
    e2: int


@dataclass(frozen=True)
class AddBlockChain:
    chain: CircuitChain
    e1: int
    e2: int
    a1: int  # endpoints of e1/e2 inside the current subgraph
    a2: int
    b1: int  # endpoints inside the attached block
    b2: int


@dataclass(frozen=True)
class Tower:
    """Growth record from the base up to the whole graph, with edge snapshots."""

    base: CircuitChain
    b: int
    e_star: int
    steps: tuple
    edge_snapshots: tuple[frozenset[int], ...]  # one per stage, base first


def _vertices_of_edges(g: Multigraph, edge_ids) -> frozenset[int]:
    out: set[int] = set()
    for eid in edge_ids:
        out |= set(g.edge(eid).ends)
    return frozenset(out)


def _map_circuit(c: Circuit, vmap, emap) -> Circuit:
    eids = tuple(emap[e] for e in c.edges)
    if any(e is None for e in eids):
        raise InternalDefectError("circuit uses a virtual edge with no host counterpart")
    return Circuit(tuple(vmap[v] for v in c.vertices), eids)


def _map_chain(ch: CircuitChain, vmap, emap) -> CircuitChain:
    return CircuitChain(tuple(_map_circuit(c, vmap, emap) for c in ch.circuits))


def _step_edges(step) -> frozenset[int]:
    """The edges a tower step adds to the stage."""
    if isinstance(step, AddChord):
        return frozenset((step.edge,))
    if isinstance(step, AddVertex):
        return frozenset((step.e1, step.e2))
    return step.chain.edge_set | {step.e1, step.e2}


def _is_ear(g: Multigraph, h_vertices, h_edges, step) -> bool:
    """Whether the step is an ear of the stage H (h_vertices, h_edges).

    If it is and H is 2-edge-connected, so is H plus the step: it stays
    connected, and each new edge lies on a closed trail through the step and
    a path of H.
    """
    if isinstance(step, AddChord):
        edge = g.edge(step.edge)
        return step.edge not in h_edges and edge.tail in h_vertices and edge.head in h_vertices
    if isinstance(step, AddVertex):
        v = step.vertex
        return v not in h_vertices and step.e1 != step.e2 and all(
            g.edge(e).touches(v) and g.edge(e).other_end(v) in h_vertices
            for e in (step.e1, step.e2)
        )
    on_chain = step.chain.vertex_set
    return (
        validate_circuit_chain(g, step.chain)
        and on_chain.isdisjoint(h_vertices)
        and step.e1 != step.e2
        and all(
            a in h_vertices and b in on_chain and set(g.edge(e).ends) == {a, b}
            for e, a, b in ((step.e1, step.a1, step.b1), (step.e2, step.a2, step.b2))
        )
    )


def build_tower(g: Multigraph, e_star: int, b: int) -> Tower:
    """Grow 2-edge-connected subgraphs from a base circuit (chain) to the graph.

    Step priority: chord, then outside vertex with two attachments, then a
    leaf or isolated block joined through a circuit chain. For b = 0 the
    special edge enters only as the final chord.

    The tower is an ear decomposition, so only the base stage is checked for
    2-edge-connectivity as a whole. Each step is then checked as an ear of the
    stage before it, in time proportional to the step: a chord is a new edge
    with both ends in H; an added vertex lies outside H and brings two
    distinct edges into H; a block chain is a valid circuit chain
    vertex-disjoint from H whose e1 and e2 join a1, a2 in H to b1, b2 on the
    chain. H plus an ear is 2-edge-connected when H is, so every stage is, by
    induction from the base.
    """
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
    stage, _, _ = subgraph(g, h_vertices, h_edges)
    if not edge_connectivity_at_least(stage, 2):
        raise InternalDefectError("tower stage is not 2-edge-connected after base")
    steps: list = []
    snapshots: list[frozenset[int]] = [frozenset(h_edges)]
    while len(h_edges) < g.edge_count:
        step = None
        for e in g.edges:
            if e.id in h_edges:
                continue
            if e.tail in h_vertices and e.head in h_vertices:
                if e.id != e_star or len(h_edges) == g.edge_count - 1:
                    step = AddChord(e.id)
                    break
        if step is None:
            for v in range(g.vertex_count):
                if v in h_vertices:
                    continue
                into = [
                    eid for eid in g.incident(v) if g.edge(eid).other_end(v) in h_vertices
                ]
                if len(into) >= 2:
                    step = AddVertex(v, into[0], into[1])
                    break
        if step is None:
            blk, e1, e2, b1, b2 = find_attachable_block(g, h_vertices)
            sub, vmap, emap = induced_subgraph(g, blk)
            idx = {orig: i for i, orig in enumerate(vmap)}
            local = find_circuit_chain(sub, idx[b1], idx[b2])
            chain = _map_chain(local, vmap, emap)
            if b1 not in chain.internal_vertices(0):
                chain = chain.reversed()
            a1 = g.edge(e1).other_end(b1)
            a2 = g.edge(e2).other_end(b2)
            step = AddBlockChain(chain, e1, e2, a1, a2, b1, b2)
        if not _is_ear(g, h_vertices, h_edges, step):
            raise InternalDefectError(
                f"tower stage is not 2-edge-connected after {step!r}: not an ear of the stage"
            )
        steps.append(step)
        added = _step_edges(step)
        h_edges |= added
        h_vertices |= _vertices_of_edges(g, added)
        snapshots.append(frozenset(h_edges))
    return Tower(base, b, e_star, tuple(steps), tuple(snapshots))


# ---------------------------------------------------------------------------
# Flow conditions: the full check, and the backward pass's check per step


def verify_mod_flow_bullets(g: Multigraph, flow: Flow, chains) -> None:
    """Nowhere-zero, chains consistent and disjoint, confluency discipline,
    each checked over the whole graph."""
    rep = verify_flow(g, flow)
    if not rep.conserved:
        raise InternalDefectError(f"[bullets] flow not conserved at {rep.violating_vertices}")
    if rep.zero_edges:
        raise InternalDefectError(f"[bullets] edge {rep.zero_edges[0]} is zero")
    union: set[int] = set()
    seen_vertices: set[int] = set()
    location: dict[int, tuple[int, int]] = {}
    for ci, ch in enumerate(chains):
        if not validate_circuit_chain(g, ch):
            raise InternalDefectError("[bullets] recorded chain is invalid")
        if ch.vertex_set & seen_vertices:
            raise InternalDefectError("[bullets] chains are not vertex-disjoint")
        seen_vertices |= ch.vertex_set
        union |= ch.edge_set
        for qi, circ in enumerate(ch.circuits):
            for e in circ.edges:
                location[e] = (ci, qi)
    ce = chain_edges(flow)
    if ce != union:
        raise InternalDefectError(
            f"[bullets] chain edges {sorted(ce)} do not match recorded chains {sorted(union)}"
        )
    confluent = []
    for p in adjacent_pairs(g):
        rel = pair_relation(flow, p)
        if rel.confluent:
            confluent.append(p)
        if rel.contrafluent:
            le, lf = location.get(p.e), location.get(p.f)
            if le is None or le != lf:
                raise InternalDefectError(
                    f"[bullets] contrafluent pair ({p.e},{p.f}) is not chain-consecutive"
                )
    # Strongly intersecting pairs share an edge, so only those are tested.
    by_edge: dict[int, list[AdjacentPair]] = {}
    for p in confluent:
        for q in (*by_edge.get(p.e, ()), *by_edge.get(p.f, ())):
            if strongly_intersecting(g, p, q):
                raise InternalDefectError(
                    f"[bullets] confluent pairs ({q.e},{q.f}) and ({p.e},{p.f}) strongly intersect"
                )
        for x in (p.e, p.f):
            by_edge.setdefault(x, []).append(p)


def _related_pairs(g: Multigraph, values, k: int, edges, h_edges):
    """The confluent or contrafluent pairs of a (Z_k x Z_2) flow's values
    among the adjacent pairs with an edge in `edges` and neither edge in
    h_edges, each once, as (pair, confluent, contrafluent).

    At a shared vertex w, with both edges oriented into w, a pair of equal
    parity is confluent when the values cancel and contrafluent when they
    agree (see `pair_relation`); so per vertex the edges are indexed by
    parity and value into w, and each edge of `edges` looks up its partners.
    """
    seen: set[tuple[int, int]] = set()
    for w in sorted({v for e in edges for v in g.edge(e).ends}):
        into: dict[int, tuple[int, int]] = {}
        by_key: dict[tuple[int, int], list[int]] = {}
        for f in g.incident(w):
            if f not in h_edges:
                a, y = values[f]
                into[f] = key = (y, a if g.edge(f).head == w else (-a) % k)
                by_key.setdefault(key, []).append(f)
        for e in into.keys() & edges:
            y, x = into[e]
            for f in {*by_key.get((y, x), ()), *by_key.get((y, (-x) % k), ())}:
                pair = (min(e, f), max(e, f))
                if f != e and pair not in seen:
                    seen.add(pair)
                    xf = into[f][1]
                    yield AdjacentPair(*pair, w), (x + xf) % k == 0, x == xf


class _StageChecks:
    """The backward pass's invariants, checked on what each step changes.

    Stage j is the flow once tower steps j.. are assigned, over the stage
    H = snapshots[j] (the base step leaves H empty). Its invariants: the
    flow is conserved; no edge outside H is zero; the recorded chains are
    valid circuit chains, vertex-disjoint from H and from each other, whose
    edges are exactly the edges of parity 1; of the adjacent pairs with both
    edges outside H, every contrafluent one lies in one circuit of one chain
    and no two confluent ones strongly intersect. They hold for the all-zero
    flow on the whole graph, where the pass starts.

    `step` proves them for stage j from stage j + 1. The edges whose value
    changed, found by comparing values, must lie in h_next (the stage the
    step leaves), so every other edge and every pair of them is as it was.
    The change must be conserved at the ends of the changed edges, the only
    vertices whose sums can move, so the flow stays conserved. The edges the
    step adds, h_next minus H, must be nonzero. A new chain must be valid
    and disjoint from H and from the earlier chains. The changed edges and
    the new chain's edges must have parity 1 exactly when they are chain
    edges. The pairs outside H with a changed or added edge must meet the
    pair conditions, new confluent pairs tested against the kept ones and
    each other; a changed edge outside H lies in h_next, so it is an added
    edge. The work is proportional to the step, apart from building the
    stage's `Flow` and comparing its values with the last stage's.
    """

    def __init__(self, g: Multigraph, tag: GroupTag) -> None:
        self.g = g
        self.tag = tag
        self.values = ((0, 0),) * g.edge_count
        self.chain_count = 0
        self.chain_vertices: set[int] = set()
        self.location: dict[int, tuple[int, int]] = {}  # chain edge -> (chain, circuit)
        self.confluent: dict[int, list[AdjacentPair]] = {}  # edge -> confluent pairs outside H

    def step(self, vals, h_edges, h_next, added, chain, stage: str) -> Flow:
        g, k = self.g, self.tag.k
        flow = Flow(g, self.tag, tuple(vals))
        values = flow.values
        changed = list(compress(range(g.edge_count), map(ne, self.values, values)))
        net: dict[int, tuple[int, int]] = {}
        for e in changed:
            if e not in h_next:
                raise InternalDefectError(f"[{stage}] frozen edge {e} changed value")
            (a, y), (a0, y0) = values[e], self.values[e]
            edge = g.edge(e)
            for v, da in ((edge.tail, a - a0), (edge.head, a0 - a)):
                na, ny = net.get(v, (0, 0))
                net[v] = (na + da, ny + y - y0)
        bad = tuple(sorted(v for v, (na, ny) in net.items() if na % k or ny % 2))
        if bad:
            raise InternalDefectError(f"[{stage}] flow not conserved at {bad}")
        for e in added:
            if values[e] == (0, 0):
                raise InternalDefectError(f"[{stage}] edge {e} outside the stage is zero")
        if chain is not None:
            self._add_chain(chain, h_edges, stage)
        for e in {*changed, *(chain.edge_set if chain is not None else ())}:
            if (values[e][1] == 1) != (e in self.location):
                raise InternalDefectError(
                    f"[{stage}] edge {e} has parity {values[e][1]} against the recorded chains"
                )
        self._check_pairs(values, h_edges, added, stage)
        self.values = values
        return flow

    def _add_chain(self, chain: CircuitChain, h_edges, stage: str) -> None:
        g = self.g
        if not validate_circuit_chain(g, chain):
            raise InternalDefectError(f"[{stage}] recorded chain is invalid")
        if any(f in h_edges for v in chain.vertex_set for f in g.incident(v)):
            raise InternalDefectError(f"[{stage}] chain touches the current stage subgraph")
        if not chain.vertex_set.isdisjoint(self.chain_vertices):
            raise InternalDefectError(f"[{stage}] chains are not vertex-disjoint")
        self.chain_vertices |= chain.vertex_set
        for qi, circ in enumerate(chain.circuits):
            for e in circ.edges:
                self.location[e] = (self.chain_count, qi)
        self.chain_count += 1

    def _check_pairs(self, values, h_edges, added, stage: str) -> None:
        g = self.g
        new_confluent = []
        for p, confluent, contrafluent in _related_pairs(g, values, self.tag.k, added, h_edges):
            if confluent:
                new_confluent.append(p)
            if contrafluent:
                le, lf = self.location.get(p.e), self.location.get(p.f)
                if le is None or le != lf:
                    raise InternalDefectError(
                        f"[{stage}] contrafluent pair ({p.e},{p.f}) is not chain-consecutive"
                    )
        for p in new_confluent:
            for q in (*self.confluent.get(p.e, ()), *self.confluent.get(p.f, ())):
                if strongly_intersecting(g, p, q):
                    raise InternalDefectError(
                        f"[{stage}] confluent pairs ({p.e},{p.f}) and ({q.e},{q.f}) strongly intersect"
                    )
            for x in (p.e, p.f):
                self.confluent.setdefault(x, []).append(p)


# ---------------------------------------------------------------------------
# Backward value assignment


@dataclass(frozen=True)
class StepDiagnostics:
    label: str
    forbidden_count: int
    cap: int
    chosen_c: int
    chain_choices: tuple[tuple[int, int], ...] = ()  # (c_j, forbidden set size)


@dataclass(frozen=True)
class BuildingPhiResult:
    flow: Flow
    tower: Tower
    chains: tuple[CircuitChain, ...]
    diagnostics: tuple[StepDiagnostics, ...]


def _send_on(g: Multigraph, vals, circuit: Circuit, c: int, parity: int, k: int) -> None:
    for pos, eid in enumerate(circuit.edges):
        sign = circuit.traversal_sign(g, pos)
        x, y = vals[eid]
        vals[eid] = ((x + sign * c) % k, (y + parity) % 2)


def _smallest_allowed(forbidden, k: int) -> int:
    for c in range(k):
        if c not in forbidden:
            return c
    raise InternalDefectError("forbidden set covers the whole group")


def _adjacent_outside(g: Multigraph, e: int, inside_edges) -> list[int]:
    out: set[int] = set()
    for v in g.edge(e).ends:
        for f in g.incident(v):
            if f != e and f not in inside_edges:
                out.add(f)
    return sorted(out)


def _pair_forbidden(g, vals, k, e_mov, s_mov, f_static, forbidden) -> None:
    """Values of c making the moving/static pair confluent or contrafluent."""
    w = min(g.shared_vertices(e_mov, f_static))
    x, ye = vals[e_mov]
    xf, yf = vals[f_static]
    if ye != yf:
        return
    se = 1 if g.edge(e_mov).head == w else -1
    sf = 1 if g.edge(f_static).head == w else -1
    forbidden.add((s_mov * (-se * sf * xf - x)) % k)  # confluent
    forbidden.add((s_mov * (se * sf * xf - x)) % k)  # contrafluent


def _pair_forbidden_both_moving(g, vals, k, e1, s1, e2, s2, forbidden) -> None:
    """The single c making two co-moving adjacent edges contrafluent."""
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


def _attach_circuit(
    g: Multigraph,
    e1: int,
    e2: int,
    a1: int,
    a2: int,
    inner_vertices,
    inner_edges,
    h_edges: frozenset[int],
) -> Circuit:
    """Oriented circuit a1 -e1-> inner path -e2-> a2 -(inside subgraph)-> a1."""
    if a1 == a2:
        verts = [a1] + list(inner_vertices)
        eids = [e1] + list(inner_edges) + [e2]
    else:
        back = _bfs_path(g, a2, a1, h_edges)
        if back is None:
            raise InternalDefectError("stage subgraph lost connectivity")
        verts = [a1] + list(inner_vertices) + back[0][:-1]
        eids = [e1] + list(inner_edges) + [e2] + back[1]
    circ = Circuit(tuple(verts), tuple(eids))
    if not validate_circuit(g, circ):
        raise InternalDefectError("attachment circuit failed validation")
    return circ


def _assign_chain_values(g, vals, chain: CircuitChain, k: int):
    """Send (c_j, 1) through each chain circuit; c_1 = 0, later values chosen
    so pairs straddling consecutive circuits are neither confluent nor
    contrafluent (at most 8 forbidden values each)."""
    choices = []
    prev = None
    for idx, circ in enumerate(chain.circuits):
        if idx == 0:
            c, fsize = 0, 0
        else:
            shared = prev.vertex_set & circ.vertex_set
            t = next(iter(shared))
            prev_at_t = [e for e in prev.edges if g.edge(e).touches(t)]
            cur_at_t = [
                (circ.edges[pos], circ.traversal_sign(g, pos))
                for pos in range(len(circ.edges))
                if g.edge(circ.edges[pos]).touches(t)
            ]
            forbidden: set[int] = set()
            for ye in prev_at_t:
                xy, yy = vals[ye]
                sy = 1 if g.edge(ye).head == t else -1
                for ze, sz_trav in cur_at_t:
                    xz, yz = vals[ze]
                    if yy != (yz + 1) % 2:
                        continue
                    sz = 1 if g.edge(ze).head == t else -1
                    forbidden.add((sz_trav * (-sz * sy * xy - xz)) % k)
                    forbidden.add((sz_trav * (sz * sy * xy - xz)) % k)
            if len(forbidden) > 8 or len(forbidden) >= k:
                raise InternalDefectError(
                    f"chain value forbidden set has size {len(forbidden)}"
                )
            c, fsize = _smallest_allowed(forbidden, k), len(forbidden)
        _send_on(g, vals, circ, c, 1, k)
        choices.append((c, fsize))
        prev = circ
    return tuple(choices)


def building_phi(
    g: Multigraph,
    e_star: int,
    target: tuple[int, int],
    delta: int,
    orientation: tuple[int, int] | None = None,
) -> BuildingPhiResult:
    """Nowhere-zero (Z_k x Z_2)-flow with k = 8*delta - 13 whose chain edges
    induce vertex-disjoint circuit chains, whose confluent pairs never
    strongly intersect, and whose contrafluent pairs are chain-consecutive.

    The special edge ends up carrying `target` under `orientation` (reference
    orientation by default). `delta` must be at least the maximum degree;
    `rich_mod_flow` passes the whole graph's value to every 2-cut side so
    all pieces share one group.

    Each stage, the base step's included, is checked on what its step
    changed, and every condition then holds for every stage by induction
    from the all-zero flow (see `_StageChecks`). The full checks of every
    condition run on the result in `verify_mod_flow_bullets`.
    """
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
    vals: list[tuple[int, int]] = [(0, 0)] * g.edge_count
    chains: list[CircuitChain] = []
    diags: list[StepDiagnostics] = []
    checks = _StageChecks(g, tag)
    snapshots = tower.edge_snapshots
    for j in reversed(range(len(tower.steps))):
        step = tower.steps[j]
        h_edges = snapshots[j]
        h_next = snapshots[j + 1]
        block_chain = step.chain if isinstance(step, AddBlockChain) else None
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
                s = 1  # reference-direction traversal
                forb: set[int] = set()
                x, y = vals[e]
                if y == 0:
                    forb.add((-x * s) % k)
                for f in _adjacent_outside(g, e, h_next):
                    _pair_forbidden(g, vals, k, e, s, f, forb)
                cap = 4 * delta - 11
                if len(forb) > cap or len(forb) >= k:
                    raise InternalDefectError(
                        f"chord forbidden set {len(forb)} exceeds cap {cap}"
                    )
                c = _smallest_allowed(forb, k)
            circ = circuit_through_edge(g, e, allowed_edges=h_edges, direction=direction)
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
            else:
                e1, e2, a1, a2 = step.e1, step.e2, step.a1, step.a2
                inner = _bfs_path(g, step.b1, step.b2, step.chain.edge_set)
                if inner is None:
                    raise InternalDefectError("attached chain lost connectivity")
                inner_v, inner_e = inner
                label = f"block_chain:{len(step.chain)}"
            circ = _attach_circuit(g, e1, e2, a1, a2, inner_v, inner_e, h_edges)
            s1 = circ.traversal_sign(g, 0)
            pos2 = circ.edges.index(e2)
            s2 = circ.traversal_sign(g, pos2)
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
                raise InternalDefectError(
                    f"attachment forbidden set {len(forb)} exceeds cap {cap}"
                )
            c = _smallest_allowed(forb, k)
            _send_on(g, vals, circ, c, 0, k)
            chain_choices = ()
            if block_chain is not None:
                chain_choices = _assign_chain_values(g, vals, block_chain, k)
                chains.append(block_chain)
            diags.append(StepDiagnostics(label, len(forb), cap, c, chain_choices))
        checks.step(vals, h_edges, h_next, _step_edges(step), block_chain, f"stage:{j}")
    # The base step, from snapshots[0] to the empty stage.
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
        base_chain = CircuitChain((circ,))
        diags.append(StepDiagnostics("base:circuit", 0, 0, c))
    else:
        chain_choices = _assign_chain_values(g, vals, tower.base, k)
        base_chain = tower.base
        diags.append(StepDiagnostics("base:chain", 0, 0, chain_choices[0][0], chain_choices))
    chains.append(base_chain)
    flow0 = checks.step(vals, frozenset(), snapshots[0], snapshots[0], base_chain, "stage:base")
    stored = flow0.values[e_star]
    fixed_value = stored if orientation == star.ends else ((-stored[0]) % k, stored[1])
    if fixed_value != (a, b):
        raise InternalDefectError(
            f"special edge carries {fixed_value} instead of {(a, b)}"
        )
    return BuildingPhiResult(flow0, tower, tuple(chains), tuple(diags))


# ---------------------------------------------------------------------------
# 2-edge-cut splitting


@dataclass(frozen=True)
class SubgraphSide:
    graph: Multigraph
    vertices_orig: tuple[int, ...]
    edges_orig: tuple[int | None, ...]  # None marks the added virtual edge
    added_edge: int


@dataclass(frozen=True)
class TwoCutSplit:
    cut: tuple[int, int]
    u1: int
    u2: int
    v1: int
    v2: int
    side1: SubgraphSide
    side2: SubgraphSide


def _build_side(g: Multigraph, vertex_set, inner_edges, x: int, y: int) -> SubgraphSide:
    vs = sorted(vertex_set)
    idx = {v: i for i, v in enumerate(vs)}
    eids = sorted(inner_edges)
    pairs = [(idx[g.edge(e).tail], idx[g.edge(e).head]) for e in eids]
    pairs.append((idx[x], idx[y]))
    return SubgraphSide(
        Multigraph(len(vs), pairs),
        tuple(vs),
        tuple(eids) + (None,),
        len(pairs) - 1,
    )


def split_on_two_cut(g: Multigraph, two_cuts) -> TwoCutSplit:
    """Split an admissible g along the one of its 2-edge-cuts `two_cuts` (the
    admissibility verdict's, not empty) with the smallest far side, adding one
    virtual edge per side.

    The far side plus its virtual edge is 3-edge-connected, which is asserted
    here; the near side plus its virtual edge stays admissible, which
    `rich_mod_flow` asserts with the verdict it next splits by.
    """
    best = None
    for ea, eb in two_cuts:
        comps = connected_components(g, without=frozenset((ea, eb)))
        if len(comps) != 2:
            raise InternalDefectError("a 2-edge-cut of a bridgeless graph split 3 ways")
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
    near = 1 - far
    near_set, near_inner = sides[near]
    far_set, far_inner = sides[far]
    edge_a, edge_b = g.edge(ea), g.edge(eb)
    u1 = edge_a.tail if edge_a.tail in near_set else edge_a.head
    v1 = edge_a.other_end(u1)
    u2 = edge_b.tail if edge_b.tail in near_set else edge_b.head
    v2 = edge_b.other_end(u2)
    side1 = _build_side(g, near_set, near_inner, u1, u2)
    side2 = _build_side(g, far_set, far_inner, v1, v2)
    if not edge_connectivity_at_least(side2.graph, 3):
        raise InternalDefectError("minimal far side with virtual edge is not 3-edge-connected")
    return TwoCutSplit((ea, eb), u1, u2, v1, v2, side1, side2)


@dataclass(frozen=True)
class RichModFlowResult:
    flow: Flow
    chains: tuple[CircuitChain, ...]
    traces: tuple[dict, ...]


def _tower_trace(bp: BuildingPhiResult) -> dict:
    return {
        "base": [list(c.edges) for c in bp.tower.base.circuits],
        "b": bp.tower.b,
        "e_star": bp.tower.e_star,
        "steps": [repr(s) if not isinstance(s, AddBlockChain) else
                  f"AddBlockChain(edges={sorted(s.chain.edge_set)}, e1={s.e1}, e2={s.e2})"
                  for s in bp.tower.steps],
        "diagnostics": [
            {
                "label": d.label,
                "forbidden": d.forbidden_count,
                "cap": d.cap,
                "chosen_c": d.chosen_c,
                "chain_choices": list(d.chain_choices),
            }
            for d in bp.diagnostics
        ],
    }


def _circuit_path_without(circ: Circuit, eid: int):
    """Vertex and edge sequences of the circuit with one edge removed,
    running from one endpoint of the removed edge to the other."""
    length = len(circ.edges)
    idx = circ.edges.index(eid)
    verts = [circ.vertices[(idx + 1 + j) % length] for j in range(length)]
    eids = [circ.edges[(idx + 1 + j) % length] for j in range(length - 1)]
    return verts, eids


def _oriented_path(verts, eids, start, end):
    if verts[0] == start and verts[-1] == end:
        return verts, eids
    if verts[0] == end and verts[-1] == start:
        return list(reversed(verts)), list(reversed(eids))
    raise InternalDefectError("spliced path has unexpected endpoints")


def _glue(g: Multigraph, split: TwoCutSplit, left: RichModFlowResult, right: BuildingPhiResult) -> RichModFlowResult:
    tag = left.flow.group
    k = tag.k
    s1, s2 = split.side1, split.side2
    vals: list = [None] * g.edge_count
    for new_id, orig in enumerate(s1.edges_orig):
        if orig is not None:
            vals[orig] = left.flow.values[new_id]
    for new_id, orig in enumerate(s2.edges_orig):
        if orig is not None:
            vals[orig] = right.flow.values[new_id]
    t = left.flow.values[s1.added_edge]
    minus_t = ((-t[0]) % k, t[1])
    ea, eb = split.cut
    vals[ea] = t if g.edge(ea).ends == (split.u1, split.v1) else minus_t
    vals[eb] = t if g.edge(eb).ends == (split.v2, split.u2) else minus_t
    if t[1] == 0:
        chains = [_map_chain(ch, s1.vertices_orig, s1.edges_orig) for ch in left.chains]
        chains += [_map_chain(ch, s2.vertices_orig, s2.edges_orig) for ch in right.chains]
    else:
        li = lq = ri = None
        for ci, ch in enumerate(left.chains):
            loc = ch.locate_edge(s1.added_edge)
            if loc is not None:
                li, lq = ci, loc[0]
        for ci, ch in enumerate(right.chains):
            if ch.locate_edge(s2.added_edge) is not None:
                ri = ci
        if li is None or ri is None:
            raise InternalDefectError("virtual chain edge missing from recorded chains")
        right_chain = right.chains[ri]
        if len(right_chain.circuits) != 1:
            raise InternalDefectError("special edge's chain in the far side is not a single circuit")
        q1 = left.chains[li].circuits[lq]
        p1v_loc, p1e_loc = _circuit_path_without(q1, s1.added_edge)
        p1v = [s1.vertices_orig[v] for v in p1v_loc]
        p1e = [s1.edges_orig[e] for e in p1e_loc]
        p1v, p1e = _oriented_path(p1v, p1e, split.u2, split.u1)
        q2 = right_chain.circuits[0]
        p2v_loc, p2e_loc = _circuit_path_without(q2, s2.added_edge)
        p2v = [s2.vertices_orig[v] for v in p2v_loc]
        p2e = [s2.edges_orig[e] for e in p2e_loc]
        p2v, p2e = _oriented_path(p2v, p2e, split.v1, split.v2)
        merged = Circuit(
            tuple([split.u1] + p2v + p1v[:-1]),
            tuple([ea] + p2e + [eb] + p1e),
        )
        if not validate_circuit(g, merged):
            raise InternalDefectError("spliced circuit failed validation")
        new_circuits = []
        for qi, circ in enumerate(left.chains[li].circuits):
            if qi == lq:
                new_circuits.append(merged)
            else:
                new_circuits.append(_map_circuit(circ, s1.vertices_orig, s1.edges_orig))
        chains = []
        for ci, ch in enumerate(left.chains):
            if ci == li:
                chains.append(CircuitChain(tuple(new_circuits)))
            else:
                chains.append(_map_chain(ch, s1.vertices_orig, s1.edges_orig))
        for ci, ch in enumerate(right.chains):
            if ci != ri:
                chains.append(_map_chain(ch, s2.vertices_orig, s2.edges_orig))
    flow = Flow(g, tag, tuple(vals))
    return RichModFlowResult(flow, tuple(chains), left.traces + (_tower_trace(right),))


def rich_mod_flow(g: Multigraph) -> RichModFlowResult:
    """The (Z_k x Z_2) stage flow of an admissible graph, k = 8*Delta - 13.

    The admissibility verdict is computed once per graph the loop meets.
    While the current graph has 2-edge-cuts, it splits along the one with the
    smallest far side and goes on with the near side, whose verdict both
    asserts that it stays admissible and lists its cuts. The 3-edge-connected
    core left gets the backward tower assignment; then, innermost split
    first, each far side receives its virtual edge's value and orientation,
    and its flow is glued to the flow so far. Every glued flow is re-verified
    against all bullet properties.
    """
    verdict = is_rich_flow_admissible(g)
    if not verdict.admissible:
        raise AdmissibilityError(verdict)
    if g.edge_count == 0:
        # Vacuously admissible edgeless graph; every property holds trivially.
        return RichModFlowResult(Flow(g, GroupTag.zkxz2(11), ()), (), ())
    delta = g.max_degree()
    splits: list[tuple[Multigraph, TwoCutSplit]] = []
    core = g
    while verdict.two_cuts:
        split = split_on_two_cut(core, verdict.two_cuts)
        splits.append((core, split))
        core = split.side1.graph
        verdict = is_rich_flow_admissible(core)
        if not verdict.admissible:
            raise InternalDefectError("near side with virtual edge is not admissible")
    bp = building_phi(core, 0, (1, 0), delta)
    result = RichModFlowResult(bp.flow, bp.chains, (_tower_trace(bp),))
    verify_mod_flow_bullets(core, result.flow, result.chains)
    for host, split in reversed(splits):
        t = result.flow.values[split.side1.added_edge]
        if t == (0, 0):
            raise InternalDefectError("virtual edge carries zero in the near-side flow")
        far = split.side2
        far_edge = far.graph.edge(far.added_edge)
        bp = building_phi(
            far.graph, far.added_edge, t, delta, orientation=(far_edge.head, far_edge.tail)
        )
        result = _glue(host, split, result, bp)
        verify_mod_flow_bullets(host, result.flow, result.chains)
    return result


# ---------------------------------------------------------------------------
# Final combination


@dataclass(frozen=True)
class RichFlowCertificate:
    flow: Flow
    delta: int
    max_abs: int
    checks: RichnessChecks
    traces: tuple[dict, ...]

    @property
    def bound(self) -> int:
        return self.flow.group.bound


def synthesize_rich_flow(g: Multigraph) -> RichFlowCertificate:
    """A verified rich integer flow with every |value| < 264*Delta - 445.

    Combines the (Z_k x Z_2) stage flow, a Z_6 flow avoiding all of its
    confluent pairs, and integer lifts of the three modular coordinates into
    one integer flow; richness, conservation, the nowhere-zero property and
    the value bound are all checked before the certificate is issued.
    """
    mod = rich_mod_flow(g)  # raises AdmissibilityError for an inadmissible g
    if g.edge_count == 0:
        empty = Flow(g, GroupTag.integers(2), ())
        checks = rich_report(g, empty)
        return RichFlowCertificate(empty, g.max_degree(), 0, checks, ())
    delta = g.max_degree()
    k = 8 * delta - 13
    bound = 264 * delta - 445
    pairs = adjacent_pairs(g)
    # `rich_mod_flow` has verified these against strong intersection.
    confluent = [p for p in pairs if pair_relation(mod.flow, p).confluent]
    phi3_mod = flow_avoiding_confluence(g, PairSet(tuple(confluent)))
    phi1 = modular_to_integer(g, project_flow(mod.flow, 0))
    phi2 = modular_to_integer(g, project_flow(mod.flow, 1))
    phi3 = modular_to_integer(g, phi3_mod)
    if any(v == 0 or abs(v) > 5 for v in phi3.values):
        raise InternalDefectError("lifted Z6 flow leaves the range +-1..+-5")
    if any(abs(v) > 1 for v in phi2.values):
        raise InternalDefectError("lifted parity flow leaves the range -1..1")
    if any(abs(v) >= k for v in phi1.values):
        raise InternalDefectError("lifted modular flow breaks its bound")
    combined = linear_combine(((1, phi3), (11, phi2), (33, phi1)), bound=bound)
    checks = rich_report(g, combined)
    if not checks.all_ok:
        raise InternalDefectError(f"combined flow fails richness checks: {checks}")
    max_abs = max(abs(v) for v in combined.values)
    if max_abs > 264 * delta - 446:
        raise InternalDefectError("combined flow exceeds the stated maximum value")
    return RichFlowCertificate(combined, delta, max_abs, checks, mod.traces)
