"""Constructive synthesis of rich integer flows.

The pipeline grows a tower of 2-edge-connected subgraphs above a base circuit
or circuit chain, assigns (Z_k x Z_2) circuit values, each one integer mod 2k
(see `flowalg`), backwards through the tower while steering every adjacent
pair away from forbidden confluency. A graph that is not 3-edge-connected
is handled by one loop: it peels a smallest 2-edge-cut side off at a time,
choosing from g's verdict's cuts, then from each near side's, read off its
host's list, with one union-find pass per cut class (see `split_on_two_cut`),
and glues the sides' flows back innermost first.
A confluence-free Z_6 flow and modular-to-integer lifting then combine the
pieces into a certified rich flow with all absolute values below 264*Delta-445.

Every "clearly" step of the construction is re-checked mechanically. The
tower (its base and steps) and the backward pass (one edge set, shrinking a
step at a time) check each step locally, on what it adds or changes, and the
invariants of every stage follow by induction. Every stage flow of
`rich_mod_flow`, glued or not, gets the full check, which is the same
per-step check (`_StageChecks`) run once from the all-zero flow over the
whole graph; the combined integer flow gets the richness, conservation and
bound checks.
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
    adjacent_pairs,  # noqa: F401  (traced: perfbench/trace.py wraps it here too)
    linear_combine,
    modular_to_integer,
    project_flow,
    rich_report,
    strongly_intersecting,
    verify_flow,  # noqa: F401  (traced)
    RichnessChecks,
)
from .multigraph import (
    AdmissibilityVerdict,
    Circuit,
    CircuitChain,
    Multigraph,
    _UnionFind,
    _bfs_path,
    circuit_through_edge,
    # Not called here: perfbench/trace.py wraps it on this module too.
    enumerate_two_edge_cuts,  # noqa: F401  (traced)
    find_attachable_block,
    find_circuit_chain,
    find_circuit_through,
    is_rich_flow_admissible,
    validate_circuit,
    validate_circuit_chain,
)
from .seymour import flow_avoiding_confluence


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
    """The base and the steps up to the whole graph, each adding edges no
    earlier one added: stage j is the base plus steps 0..j-1."""

    base: CircuitChain
    b: int
    e_star: int
    steps: tuple


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
        edge = g.edges[step.edge]
        return step.edge not in h_edges and edge.tail in h_vertices and edge.head in h_vertices
    if isinstance(step, AddVertex):
        v = step.vertex
        return v not in h_vertices and step.e1 != step.e2 and all(
            g.edges[e].touches(v) and g.edges[e].other_end(v) in h_vertices
            for e in (step.e1, step.e2)
        )
    on_chain = step.chain.vertex_set
    return (
        validate_circuit_chain(g, step.chain)
        and on_chain.isdisjoint(h_vertices)
        and step.e1 != step.e2
        and all(
            a in h_vertices and b in on_chain and set(g.edges[e].ends) == {a, b}
            for e, a, b in ((step.e1, step.a1, step.b1), (step.e2, step.a2, step.b2))
        )
    )


def build_tower(g: Multigraph, e_star: int, b: int) -> Tower:
    """Grow 2-edge-connected subgraphs from a base circuit (chain) to the graph.

    Step priority: chord, then outside vertex with two attachments, then a
    leaf or isolated block joined through a circuit chain. For b = 0 the
    special edge enters only as the final chord.

    g must be 3-edge-connected, which is read off its admissibility verdict:
    admissible with no 2-edge-cut. For b = 0 the base chain is searched in g
    with the special edge left out, and the chain search reads from the same
    verdict that g minus that edge is 2-edge-connected. A block-chain step
    searches for its block, and for the chain through it, on g over edge
    subsets too, so no step builds a graph; the step reads the block's edges,
    and the chain search its 2-edge-connectivity, off the blocks its search
    found.

    The tower is an ear decomposition, so only the base stage is checked for
    2-edge-connectivity as a whole, as a valid circuit chain in O(|base|): it
    is connected, and each of its edges lies on one of its circuits, so no
    edge is a bridge. Each step is then checked as an ear of the
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
    verdict = is_rich_flow_admissible(g)
    if not verdict.admissible or verdict.two_cuts:
        raise PreconditionError("tower construction requires a 3-edge-connected graph")
    if b == 1:
        base = CircuitChain((find_circuit_through(g, e_star),))
    else:
        star = g.edge(e_star)
        # find_circuit_chain validates that the chain joins the two ends.
        rest = [f for f in range(g.edge_count) if f != e_star]
        base = find_circuit_chain(g, star.tail, star.head, edge_ids=rest, verdict=verdict)
        if e_star in base.edge_set:
            raise InternalDefectError("base chain uses the special edge it must leave out")
    if not validate_circuit_chain(g, base):
        raise InternalDefectError("tower stage is not 2-edge-connected after base")
    h_edges: set[int] = set(base.edge_set)
    h_vertices: set[int] = set(base.vertex_set)
    steps: list = []
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
                    eid for eid in g.incident(v) if g.edges[eid].other_end(v) in h_vertices
                ]
                if len(into) >= 2:
                    step = AddVertex(v, into[0], into[1])
                    break
        if step is None:
            blocks: list = []
            blk, e1, e2, b1, b2 = find_attachable_block(g, h_vertices, blocks=blocks)
            # g has no loops, and a bridge never joins two vertices of one
            # edge-block, so the block's blocks hold all its edges.
            inner = sorted(eid for grp in blocks for eid in grp)
            chain = find_circuit_chain(g, b1, b2, vertices=blk, edge_ids=inner, blocks=blocks)
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
        h_vertices.update(v for e in added for v in g.edges[e].ends)
    return Tower(base, b, e_star, tuple(steps))


# ---------------------------------------------------------------------------
# Flow conditions: the check per step, which is also the full check


def verify_mod_flow_bullets(g: Multigraph, flow: Flow, chains) -> tuple[AdjacentPair, ...]:
    """Nowhere-zero, chains consistent and disjoint, confluency discipline,
    each checked over the whole graph: one `_StageChecks` step from the
    all-zero flow that adds every edge and all the chains at once, with the
    stage label "bullets". Returns the confluent pairs sorted by (e, f),
    anchored at their lowest shared vertex."""
    every_edge = frozenset(range(g.edge_count))
    checks = _StageChecks(g, flow.group)
    checks.step(flow.values, frozenset(), every_edge, tuple(chains), "bullets")
    # Each confluent pair is kept under both of its edges; take it once.
    confluent = (p for e, pairs in checks.confluent.items() for p in pairs if p.e == e)
    return tuple(sorted(confluent, key=lambda p: (p.e, p.f)))


def _related_pairs(g: Multigraph, values, k: int, edges, h_edges):
    """The confluent or contrafluent pairs of a (Z_k x Z_2) flow's values
    among the adjacent pairs with an edge in `edges` and neither edge in
    h_edges, each once, as (pair, confluent, contrafluent).

    At a shared vertex w, with both edges oriented into w, a pair is
    confluent when the values cancel mod 2k and contrafluent when they agree
    (see `pair_relation`); the parity is part of the value, so a pair of
    unequal parity is neither. Either way the stored values are equal up to
    sign, so per vertex, lowest first, each edge of `edges` is compared with
    the others by stored value, and the orientations at w are read only for
    a pair that passes.
    """
    order = 2 * k
    seen: set[tuple[int, int]] = set()
    g_edges = g.edges
    for w in sorted({v for e in edges for v in g_edges[e].ends}):
        outside = [(f, values[f]) for f in g.incident(w) if f not in h_edges]
        for e, x in outside:
            if e in edges:
                minus_x = (-x) % order
                for f, xf in outside:
                    if (xf == x or xf == minus_x) and f != e:
                        into = x if g_edges[e].head == w else -x
                        into_f = xf if g_edges[f].head == w else -xf
                        pair = (e, f) if e < f else (f, e)
                        if pair not in seen:
                            seen.add(pair)
                            yield (
                                AdjacentPair(*pair, w),
                                (into + into_f) % order == 0,
                                (into - into_f) % order == 0,
                            )


class _StageChecks:
    """The invariants of the stage flows, checked on what each step changes.

    Stage j is the flow once tower steps j.. are assigned, over the stage H
    that the base and steps 0..j-1 span (the base step leaves H empty). Its
    invariants: the flow is conserved; no edge outside H is zero; the
    recorded chains are valid circuit chains, vertex-disjoint from H and from
    each other, whose edges are exactly the edges of parity 1; of the
    adjacent pairs with both edges outside H, every contrafluent one lies in
    one circuit of one chain and no two confluent ones strongly intersect.
    They hold for the all-zero flow on the whole graph, where the pass starts.

    `step` proves them for stage j from stage j + 1, whose stage is H plus
    the step's `added` edges. The edges whose value changed, found by
    comparing values, must lie in H or be added, so every other edge and
    every pair of them is as it was. The change must be conserved mod 2k at
    the ends of the changed edges, the only vertices whose sums can move, so
    the flow stays conserved. The added edges must be nonzero. The new chains
    must be valid and disjoint from H, from the earlier chains and from each
    other. The changed edges and the new chains' edges must have parity 1
    exactly when they are chain edges. The pairs outside H with a changed or
    added edge must meet the pair conditions, new confluent pairs tested
    against the kept ones and each other; a changed edge outside H is an
    added edge.

    So a step reads only its changed and added edges, the new chains, and
    the edges at their vertices, apart from the one comparison of the
    stage's values with the last stage's that finds the changed edges. The
    edge ends are read once, here, and chains carry their vertex and edge
    sets, so no step rebuilds either.

    `step` takes the stage's values as a tuple of ints already reduced mod
    2k, as `_send_on` writes them, the parity of each its Z_2 coordinate; it
    builds no `Flow`, and `building_phi` builds one for the finished flow.

    This is also the full check of a finished flow: one step from the
    all-zero flow with H empty, every edge added and every chain new is
    `verify_mod_flow_bullets`.
    """

    def __init__(self, g: Multigraph, tag: GroupTag) -> None:
        self.g = g
        self.tag = tag
        self.tails = tuple([e.tail for e in g.edges])
        self.heads = tuple([e.head for e in g.edges])
        self.values = (0,) * g.edge_count
        self.chain_count = 0
        self.chain_vertices: set[int] = set()
        self.location: dict[int, tuple[int, int]] = {}  # chain edge -> (chain, circuit)
        self.confluent: dict[int, list[AdjacentPair]] = {}  # edge -> confluent pairs outside H

    def step(self, values, h_edges, added, chains, stage: str) -> None:
        k, old, tails, heads = self.tag.k, self.values, self.tails, self.heads
        changed = list(compress(range(len(old)), map(ne, old, values)))
        net: dict[int, int] = {}
        for e in changed:
            if e not in h_edges and e not in added:
                raise InternalDefectError(f"[{stage}] frozen edge {e} changed value")
            dx = values[e] - old[e]
            net[tails[e]] = net.get(tails[e], 0) + dx
            net[heads[e]] = net.get(heads[e], 0) - dx
        bad = [v for v, x in net.items() if x % (2 * k)]
        if bad:
            raise InternalDefectError(f"[{stage}] flow not conserved at {tuple(sorted(bad))}")
        for e in added:
            if values[e] == 0:
                raise InternalDefectError(f"[{stage}] edge {e} outside the stage is zero")
        recheck = set(changed) if chains else changed
        for chain in chains:
            self._add_chain(chain, h_edges, stage)
            recheck |= chain.edge_set
        location = self.location
        for e in recheck:
            if values[e] & 1 != (e in location):
                raise InternalDefectError(
                    f"[{stage}] edge {e} has parity {values[e] & 1} against the recorded chains"
                )
        self._check_pairs(values, h_edges, added, stage)
        self.values = values

    def _add_chain(self, chain: CircuitChain, h_edges, stage: str) -> None:
        g, on_chain = self.g, chain.vertex_set
        if not validate_circuit_chain(g, chain):
            raise InternalDefectError(f"[{stage}] recorded chain is invalid")
        if any(f in h_edges for v in on_chain for f in g.incident(v)):
            raise InternalDefectError(f"[{stage}] chain touches the current stage subgraph")
        if not on_chain.isdisjoint(self.chain_vertices):
            raise InternalDefectError(f"[{stage}] chains are not vertex-disjoint")
        self.chain_vertices |= on_chain
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
    """Add (c, parity) of Z_k x Z_2 around the circuit: the x mod 2k with
    x = c mod k and x = parity mod 2, with each edge's traversal sign."""
    x = c + k * ((c + parity) & 1)
    for pos, eid in enumerate(circuit.edges):
        vals[eid] = (vals[eid] + circuit.traversal_sign(g, pos) * x) % (2 * k)


def _smallest_allowed(forbidden, k: int) -> int:
    for c in range(k):
        if c not in forbidden:
            return c
    raise InternalDefectError("forbidden set covers the whole group")


def _pair_forbidden(vals, k, e_mov, s_mov, f_static, forbidden) -> None:
    """Values of c making the moving/static pair confluent or contrafluent.

    With t = +1 when the two edges point the same way at a shared vertex and
    -1 otherwise, c = s_mov * (-t * xf - x) makes the pair confluent and
    c = s_mov * (t * xf - x) contrafluent. Together they are the two values
    s_mov * (+-xf - x) whatever t is, so the pair's orientation is never read.
    Only the Z_k coordinates v % k enter c, and only a pair of equal parity
    v & 1 can be related.
    """
    x, xf = vals[e_mov], vals[f_static]
    if x & 1 == xf & 1:
        forbidden.add((s_mov * (-xf - x)) % k)
        forbidden.add((s_mov * (xf - x)) % k)


def _pair_forbidden_both_moving(g, vals, k, e1, s1, e2, s2, forbidden) -> None:
    """The single c making two co-moving adjacent edges contrafluent. Either
    shared vertex of two parallel edges gives it: both signs turn round."""
    x1, x2 = vals[e1], vals[e2]
    if x1 & 1 != x2 & 1:
        return
    d1, d2 = g.edges[e1], g.edges[e2]
    w = d1.tail if d2.touches(d1.tail) else d1.head
    if not d2.touches(w):
        return
    s_1 = 1 if d1.head == w else -1
    s_2 = 1 if d2.head == w else -1
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
    h_edges,
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
    contrafluent (at most 8 forbidden values each). Each circuit first gets
    its parity, (0, 1), so that `_pair_forbidden` compares the parities the
    pairs end with; then (c_j, 0)."""
    choices = []
    for idx, circ in enumerate(chain.circuits):
        _send_on(g, vals, circ, 0, 1, k)
        forbidden: set[int] = set()
        if idx:
            prev = chain.circuits[idx - 1]
            t = next(iter(prev.vertex_set & circ.vertex_set))
            prev_at_t = [e for e in prev.edges if g.edges[e].touches(t)]
            for pos, e in enumerate(circ.edges):
                if g.edges[e].touches(t):
                    for f in prev_at_t:
                        _pair_forbidden(vals, k, e, circ.traversal_sign(g, pos), f, forbidden)
        if len(forbidden) > 8 or len(forbidden) >= k:
            raise InternalDefectError(f"chain value forbidden set has size {len(forbidden)}")
        c = _smallest_allowed(forbidden, k)
        _send_on(g, vals, circ, c, 0, k)
        choices.append((c, len(forbidden)))
    return tuple(choices)


def building_phi(
    g: Multigraph,
    e_star: int,
    target: int,
    delta: int,
    orientation: tuple[int, int] | None = None,
) -> BuildingPhiResult:
    """Nowhere-zero (Z_k x Z_2)-flow with k = 8*delta - 13 whose chain edges
    induce vertex-disjoint circuit chains, whose confluent pairs never
    strongly intersect, and whose contrafluent pairs are chain-consecutive.

    The special edge ends up carrying `target`, a value mod 2k, under
    `orientation` (reference orientation by default). `delta` must be at
    least the maximum degree; `rich_mod_flow` passes the whole graph's value
    to every 2-cut side so all pieces share one group.

    Each step picks its value c by one rule: c avoids the values that would
    leave a moving edge zero or make it confluent or contrafluent with an
    adjacent edge outside the next stage, or make the two moving edges of an
    attachment contrafluent, and there are at most `cap` of those. A step
    touches only its circuit and the edges at the ends of its moving edges:
    the circuit is searched on the stage as it is (one edge set that loses
    each step's edges, a chord's first), and a pair with a moving edge
    forbids the same two values whichever way its edges point (see
    `_pair_forbidden`). Each stage, the base step's included, is then checked
    on what its step changed, and every condition holds for every stage by
    induction from the all-zero flow (see `_StageChecks`). `rich_mod_flow`
    checks the result in full with `verify_mod_flow_bullets`, the same checks
    run once over the whole graph.
    """
    star = g.edge(e_star)
    if orientation is None:
        orientation = star.ends
    if set(orientation) != {star.tail, star.head}:
        raise PreconditionError(f"orientation {orientation} does not fit edge {e_star}")
    if delta < 3 or delta < g.max_degree():
        raise PreconditionError("delta must be >= 3 and >= the maximum degree")
    k = 8 * delta - 13
    tag = GroupTag.zkxz2(k)
    if type(target) is not int:
        raise PreconditionError(f"target {target!r} is not a stage value, an int mod 2k")
    target %= tag.modulus
    if target == 0:
        raise PreconditionError("target value must be nonzero")
    a = target % k
    tower = build_tower(g, e_star, target & 1)
    vals: list[int] = [0] * g.edge_count
    chains: list[CircuitChain] = []
    diags: list[StepDiagnostics] = []
    checks = _StageChecks(g, tag)
    stage = set(range(g.edge_count))  # each step first removes its edges, leaving H
    for j in reversed(range(len(tower.steps))):
        step = tower.steps[j]
        added = _step_edges(step)
        stage -= added
        # Per step: the circuit the value c goes around, the edges that move
        # with c (edge, traversal sign) and the cap on c's forbidden values.
        if isinstance(step, AddChord):
            e = step.edge
            label = f"chord:{e}"
            if e == e_star:
                if any(vals):
                    raise InternalDefectError("special chord is not the outermost stage")
                direction, moving, cap = orientation, (), 0  # c is the target value
            else:
                direction, moving, cap = g.edges[e].ends, ((e, 1),), 4 * delta - 11
            circ = circuit_through_edge(g, e, allowed_edges=stage, direction=direction)
            if circ is None:
                raise InternalDefectError("no circuit through the chord inside the stage")
        else:
            if isinstance(step, AddVertex):
                e1, e2 = step.e1, step.e2
                a1 = g.edges[e1].other_end(step.vertex)
                a2 = g.edges[e2].other_end(step.vertex)
                inner_v, inner_e = [step.vertex], []
                label = f"vertex:{step.vertex}"
            else:
                e1, e2, a1, a2 = step.e1, step.e2, step.a1, step.a2
                inner = _bfs_path(g, step.b1, step.b2, step.chain.edge_set)
                if inner is None:
                    raise InternalDefectError("attached chain lost connectivity")
                inner_v, inner_e = inner
                label = f"block_chain:{len(step.chain)}"
            circ = _attach_circuit(g, e1, e2, a1, a2, inner_v, inner_e, stage)
            s2 = circ.traversal_sign(g, circ.edges.index(e2))
            moving = ((e1, circ.traversal_sign(g, 0)), (e2, s2))
            cap = 8 * delta - 15
        forb: set[int] = set()
        for e_mov, s_mov in moving:
            x = vals[e_mov]
            if x & 1 == 0:
                forb.add((-x * s_mov) % k)
            # The edges adjacent to e_mov outside H and the step's edges (a
            # parallel one comes at both ends and adds nothing new).
            for w in g.edges[e_mov].ends:
                for f in g.incident(w):
                    if f not in stage and f not in added:
                        _pair_forbidden(vals, k, e_mov, s_mov, f, forb)
        if len(moving) == 2:
            _pair_forbidden_both_moving(g, vals, k, *moving[0], *moving[1], forb)
        if len(forb) > cap or len(forb) >= k:
            raise InternalDefectError(f"{label} forbidden set {len(forb)} exceeds cap {cap}")
        c = _smallest_allowed(forb, k) if moving else a
        _send_on(g, vals, circ, c, 0, k)
        new_chains, chain_choices = (), ()
        if isinstance(step, AddBlockChain):
            new_chains = (step.chain,)
            chain_choices = _assign_chain_values(g, vals, step.chain, k)
            chains.append(step.chain)
        diags.append(StepDiagnostics(label, len(forb), cap, c, chain_choices))
        checks.step(tuple(vals), stage, added, new_chains, f"stage:{j}")
    # The base step, from the base's edges (what the stage is now) to none.
    if tower.b == 1:
        circ = tower.base.circuits[0]
        pos = circ.edges.index(e_star)
        travel = (circ.vertices[pos], circ.vertices[(pos + 1) % len(circ)])
        if travel != orientation:
            circ = circ.reversed()
        stored = vals[e_star]
        current = stored if orientation == star.ends else -stored
        c = (a - current) % k
        _send_on(g, vals, circ, c, 1, k)
        base_chain = CircuitChain((circ,))
        diags.append(StepDiagnostics("base:circuit", 0, 0, c))
    else:
        chain_choices = _assign_chain_values(g, vals, tower.base, k)
        base_chain = tower.base
        diags.append(StepDiagnostics("base:chain", 0, 0, chain_choices[0][0], chain_choices))
    chains.append(base_chain)
    values = tuple(vals)
    checks.step(values, frozenset(), tower.base.edge_set, (base_chain,), "stage:base")
    flow0 = Flow(g, tag, values)
    stored = values[e_star]
    fixed_value = stored if orientation == star.ends else -stored % tag.modulus
    if fixed_value != target:
        raise InternalDefectError(f"special edge carries {fixed_value} instead of {target}")
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
    near_cuts: tuple[tuple[int, int], ...]  # side1.graph's 2-edge-cuts, ascending


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
    """Split an admissible g along the one of its 2-edge-cuts `two_cuts` (its
    complete list, not empty: the verdict's or a `near_cuts`) with the
    smallest far side, adding one virtual edge per side.

    The pairs join into classes, any two edges of a class forming a cut. One
    union-find pass over g minus a class of s edges must leave s sides, in a
    ring, each meeting two of its edges. The far side is the side of least
    key: (inner edges, vertices), the two cut edges it meets, whether it
    holds vertex 0. A side made of several ring sides holds one with fewer
    inner edges, so no listed cut has a smaller side.

    The far side plus its virtual edge is 3-edge-connected (`build_tower`
    checks it). The near side's cuts `near_cuts` are each cut of `two_cuts`
    but (ea, eb) inside the near side, ea and eb read as the virtual edge,
    deduplicated, ascending: as the far side joins the virtual edge's ends,
    these are all its cuts, and the near side is admissible as g is.
    """
    if not two_cuts:
        raise PreconditionError("no 2-edge-cut to split along")
    n = g.vertex_count
    joined = _UnionFind(g.edge_count)
    for a, b in two_cuts:
        joined.union(a, b)
    classes: dict[int, list[int]] = {}
    for e in sorted({e for cut in two_cuts for e in cut}):
        classes.setdefault(joined.find(e), []).append(e)
    best = None
    for cls in classes.values():
        cut, uf = set(cls), _UnionFind(n)
        merges = sum(uf.union(e.tail, e.head) for e in g.edges if e.id not in cut)
        if merges != n - len(cut):
            raise InternalDefectError(f"edges {cls} do not split g into {len(cls)} sides")
        roots = list(map(uf.find, range(n)))
        sides = {r: [0, 0, []] for r in set(roots)}  # [inner edges, vertices, cut edges met]
        for r in roots:
            sides[r][1] += 1
        for e in g.edges:
            if e.id in cut:
                for x in e.ends:
                    sides[roots[x]][2].append(e.id)
            else:
                sides[roots[e.tail]][0] += 1
        for root, (inner, count, met) in sides.items():
            key = ((inner, count), tuple(sorted(met)), root == roots[0])
            if best is None or key < best[0]:
                best = (key, roots, root)
    (_, (ea, eb), _), roots, far_root = best
    far_set = [v for v in range(n) if roots[v] == far_root]
    near_set = set(range(n)).difference(far_set)
    near_inner = [e.id for e in g.edges if e.tail in near_set and e.head in near_set]
    far_inner = [e.id for e in g.edges if e.tail not in near_set and e.head not in near_set]
    ends = [e.ends if e.tail in near_set else e.ends[::-1] for e in map(g.edge, (ea, eb))]
    (u1, v1), (u2, v2) = ends  # each cut edge's near end first
    side1 = _build_side(g, near_set, near_inner, u1, u2)
    side2 = _build_side(g, far_set, far_inner, v1, v2)
    near_id = {e: i for i, e in enumerate(side1.edges_orig)}
    near_id[ea] = near_id[eb] = side1.added_edge
    near_cuts = {tuple(sorted((near_id[a], near_id[b]))) for a, b in two_cuts
                 if (a, b) != (ea, eb) and a in near_id and b in near_id}
    return TwoCutSplit((ea, eb), u1, u2, v1, v2, side1, side2, tuple(sorted(near_cuts)))


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


@dataclass(frozen=True)
class RichModFlowResult:
    flow: Flow
    chains: tuple[CircuitChain, ...]
    towers: tuple[BuildingPhiResult, ...]  # one per piece, in trace order
    confluent: tuple[AdjacentPair, ...] = ()  # set by `rich_mod_flow`

    @property
    def traces(self) -> tuple[dict, ...]:
        """One dict per tower, rendered on each read."""
        return tuple(map(_tower_trace, self.towers))


def _side_path(circ: Circuit, side: SubgraphSide, start: int, end: int):
    """Host vertex and edge sequences of a side's circuit with its virtual
    edge removed, running from start to end, the removed edge's ends."""
    length = len(circ.edges)
    idx = circ.edges.index(side.added_edge)
    verts = [side.vertices_orig[circ.vertices[(idx + 1 + j) % length]] for j in range(length)]
    eids = [side.edges_orig[circ.edges[(idx + 1 + j) % length]] for j in range(length - 1)]
    if verts[0] != start or verts[-1] != end:
        if verts[0] != end or verts[-1] != start:
            raise InternalDefectError("spliced path has unexpected endpoints")
        verts.reverse()
        eids.reverse()
    return verts, eids


def _glue(g: Multigraph, split: TwoCutSplit, left: RichModFlowResult, right: BuildingPhiResult) -> RichModFlowResult:
    tag = left.flow.group
    s1, s2 = split.side1, split.side2
    vals: list = [None] * g.edge_count
    for new_id, orig in enumerate(s1.edges_orig):
        if orig is not None:
            vals[orig] = left.flow.values[new_id]
    for new_id, orig in enumerate(s2.edges_orig):
        if orig is not None:
            vals[orig] = right.flow.values[new_id]
    t = left.flow.values[s1.added_edge]
    minus_t = -t % tag.modulus
    ea, eb = split.cut
    vals[ea] = t if g.edge(ea).ends == (split.u1, split.v1) else minus_t
    vals[eb] = t if g.edge(eb).ends == (split.v2, split.u2) else minus_t
    if t & 1 == 0:
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
        p1v, p1e = _side_path(left.chains[li].circuits[lq], s1, split.u2, split.u1)
        p2v, p2e = _side_path(right_chain.circuits[0], s2, split.v1, split.v2)
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
    return RichModFlowResult(flow, tuple(chains), left.towers + (right,))


def rich_mod_flow(g: Multigraph, *, verdict: AdmissibilityVerdict | None = None) -> RichModFlowResult:
    """The (Z_k x Z_2) stage flow of an admissible graph, k = 8*Delta - 13.

    g's admissibility verdict is computed once, or taken from `verdict`,
    which must be `is_rich_flow_admissible(g)` of this same g.
    While the current graph has 2-edge-cuts, it splits along the one with the
    smallest far side and goes on with the near side and its `near_cuts`, so
    the loop enumerates no cut. The 3-edge-connected core left gets the
    backward tower assignment; then, innermost split first, each far side
    receives its virtual edge's value and orientation, and its flow is glued
    to the flow so far. Every glued flow is re-verified against all bullet
    properties; the result carries the confluent pairs that the last check
    found.
    """
    if verdict is None:
        verdict = is_rich_flow_admissible(g)
    if not verdict.admissible:
        raise AdmissibilityError(verdict)
    if g.edge_count == 0:
        # Vacuously admissible edgeless graph; every property holds trivially.
        return RichModFlowResult(Flow(g, GroupTag.zkxz2(11), ()), (), ())
    delta = g.max_degree()
    k = 8 * delta - 13
    splits: list[tuple[Multigraph, TwoCutSplit]] = []
    core, cuts = g, verdict.two_cuts
    while cuts:
        split = split_on_two_cut(core, cuts)
        splits.append((core, split))
        core, cuts = split.side1.graph, split.near_cuts
    bp = building_phi(core, 0, k + 1, delta)  # (1, 0) of Z_k x Z_2
    result = RichModFlowResult(bp.flow, bp.chains, (bp,))
    confluent = verify_mod_flow_bullets(core, result.flow, result.chains)
    for host, split in reversed(splits):
        t = result.flow.values[split.side1.added_edge]
        if t == 0:
            raise InternalDefectError("virtual edge carries zero in the near-side flow")
        far = split.side2
        far_edge = far.graph.edge(far.added_edge)
        bp = building_phi(
            far.graph, far.added_edge, t, delta, orientation=(far_edge.head, far_edge.tail)
        )
        result = _glue(host, split, result, bp)
        confluent = verify_mod_flow_bullets(host, result.flow, result.chains)
    return RichModFlowResult(result.flow, result.chains, result.towers, confluent)


# ---------------------------------------------------------------------------
# Final combination


@dataclass(frozen=True)
class RichFlowCertificate:
    """The verified rich flow and its checks, with the stage flow it came
    from; `traces` renders that flow's towers as dicts on each read."""

    flow: Flow
    delta: int
    max_abs: int
    checks: RichnessChecks
    stage: RichModFlowResult

    @property
    def bound(self) -> int:
        return self.flow.group.bound

    @property
    def traces(self) -> tuple[dict, ...]:
        return self.stage.traces


def synthesize_rich_flow(
    g: Multigraph, *, verdict: AdmissibilityVerdict | None = None
) -> RichFlowCertificate:
    """A verified rich integer flow with every |value| < 264*Delta - 445.

    Combines the (Z_k x Z_2) stage flow, a Z_6 flow avoiding all of its
    confluent pairs, and integer lifts of the three modular coordinates into
    one integer flow; richness, conservation, the nowhere-zero property and
    the value bound are all checked before the certificate is issued.

    g's admissibility verdict is computed once, or taken from `verdict`, which
    must be `is_rich_flow_admissible(g)` of this same g; both the stage flow
    and the confluence step read it.
    """
    if verdict is None:
        verdict = is_rich_flow_admissible(g)
    mod = rich_mod_flow(g, verdict=verdict)  # raises AdmissibilityError for an inadmissible g
    if g.edge_count == 0:
        empty = Flow(g, GroupTag.integers(2), ())
        checks = rich_report(g, empty)
        return RichFlowCertificate(empty, g.max_degree(), 0, checks, mod)
    delta = g.max_degree()
    k = 8 * delta - 13
    # `rich_mod_flow` has verified these against strong intersection.
    phi3_mod = flow_avoiding_confluence(g, mod.confluent, verdict=verdict)
    phi1 = modular_to_integer(g, project_flow(mod.flow, 0))
    phi2 = modular_to_integer(g, project_flow(mod.flow, 1))
    phi3 = modular_to_integer(g, phi3_mod)
    # g has an edge here, so every max is of at least one value.
    if 0 in phi3.values or max(map(abs, phi3.values)) > 5:
        raise InternalDefectError("lifted Z6 flow leaves the range +-1..+-5")
    if max(map(abs, phi2.values)) > 1:
        raise InternalDefectError("lifted parity flow leaves the range -1..1")
    if max(map(abs, phi1.values)) >= k:
        raise InternalDefectError("lifted modular flow breaks its bound")
    combined = linear_combine(((1, phi3), (11, phi2), (33, phi1)), bound=264 * delta - 445)
    checks = rich_report(g, combined)
    if not checks.all_ok:
        raise InternalDefectError(f"combined flow fails richness checks: {checks}")
    max_abs = max(abs(v) for v in combined.values)
    return RichFlowCertificate(combined, delta, max_abs, checks, mod)
