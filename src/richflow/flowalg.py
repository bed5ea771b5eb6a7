"""Group-valued flows on multigraphs and the algebra over them.

A flow stores one group element per edge, relative to the edge's reference
orientation (tail -> head). Reorienting an edge is the no-op of negating its
stored value, so sums, projections and the confluency predicates are all
defined directly on stored values and orientation signs.

Supported value groups: Z_k for odd k >= 3, Z_2, Z_6, Z_k x Z_2, and bounded
integers (values strictly inside (-bound, bound), which `rich_report` checks).

`GroupTag` names the value group at the boundary: on a `Flow` and in
certificate files. The loops that check flows do not dispatch on it per
value; they work on plain integers, reduced by one modulus per flow (none for
integer flows). Z_k x Z_2 is cyclic of order 2k for odd k, so (a, b) is
handled as the x in 0..2k-1 with x = a mod k and x = b mod 2. Only integer
flows are combined, by `linear_combine`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import GraphInputError, InternalDefectError, PreconditionError
from .multigraph import Multigraph


@dataclass(frozen=True)
class GroupTag:
    kind: str  # "zk" | "z2" | "z6" | "zkxz2" | "int"
    k: int = 0
    bound: int = 0

    def __post_init__(self) -> None:
        if self.kind in ("zk", "zkxz2"):
            if self.k < 3 or self.k % 2 == 0:
                raise PreconditionError(f"{self.kind} requires an odd modulus >= 3, got {self.k}")
        elif self.kind == "int":
            if self.bound < 2:
                raise PreconditionError(f"integer flows need bound >= 2, got {self.bound}")
        elif self.kind not in ("z2", "z6"):
            raise PreconditionError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def zk(k: int) -> "GroupTag":
        return GroupTag("zk", k=k)

    @staticmethod
    def z2() -> "GroupTag":
        return GroupTag("z2")

    @staticmethod
    def z6() -> "GroupTag":
        return GroupTag("z6")

    @staticmethod
    def zkxz2(k: int) -> "GroupTag":
        return GroupTag("zkxz2", k=k)

    @staticmethod
    def integers(bound: int) -> "GroupTag":
        return GroupTag("int", bound=bound)

    @property
    def modulus(self) -> int | None:
        if self.kind == "zk":
            return self.k
        if self.kind == "z2":
            return 2
        if self.kind == "z6":
            return 6
        return None


def cyclic_values(group: GroupTag, values) -> tuple[list[int] | tuple, int | None]:
    """Values of the group as plain integers, and the modulus m they live under.

    Every modular group here is cyclic, Z_m, and values come back unchanged
    except that Z_k x Z_2 maps onto Z_2k. For integers m is None.
    """
    if group.kind == "zkxz2":
        k = group.k
        return [a + k * ((a + b) & 1) for a, b in values], 2 * k
    return values, group.modulus


def _negated(group: GroupTag, v):
    """-v, reduced later by `Flow`."""
    return (-v[0], v[1]) if group.kind == "zkxz2" else -v


@dataclass(frozen=True)
class Flow:
    """Per-edge group values relative to reference orientations: ints, or pairs
    of ints for Z_k x Z_2; anything else raises PreconditionError.

    An integer flow's bound is not enforced here: `rich_report` decides
    `bound_ok`, so a certificate beyond its bound can be read and reported.
    """

    graph: Multigraph
    group: GroupTag
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.edge_count:
            raise PreconditionError("one value per edge required")
        tag = self.group
        if tag.kind == "zkxz2":
            for v in self.values:
                if not (type(v) in (tuple, list) and len(v) == 2 and type(v[0]) is type(v[1]) is int):
                    raise PreconditionError(f"zkxz2 flow value {v!r} is not a pair of ints")
            k = tag.k
            norm = tuple((a % k, b % 2) for a, b in self.values)
        else:
            for v in self.values:
                if type(v) is not int:  # no float truncated, no boolean taken for 0 or 1
                    raise PreconditionError(f"flow value {v!r} is not an int")
            if tag.kind == "int":
                norm = tuple(self.values)
            else:
                mod = tag.modulus
                norm = tuple(v % mod for v in self.values)
        object.__setattr__(self, "values", norm)


def linear_combine(terms, bound: int) -> Flow:
    """Edgewise sum of coefficient-scaled integer flows over one graph, as an
    integer flow with the given bound."""
    terms = list(terms)
    if not terms:
        raise PreconditionError("need at least one term")
    g = terms[0][1].graph
    for _, f in terms:
        if f.graph != g:
            raise PreconditionError("flows over different graphs cannot be combined")
        if f.group.kind != "int":
            raise PreconditionError("only integer flows can be combined")
    columns = zip(*(f.values for _, f in terms))
    vals = tuple(sum(c * x for (c, _), x in zip(terms, col)) for col in columns)
    return Flow(g, GroupTag.integers(bound), vals)


def project_flow(f: Flow, coordinate: int) -> Flow:
    """First (Z_k) or second (Z_2) coordinate of a (Z_k x Z_2) flow."""
    if f.group.kind != "zkxz2":
        raise PreconditionError("projection is defined on zkxz2 flows")
    if coordinate == 0:
        return Flow(f.graph, GroupTag.zk(f.group.k), tuple(v[0] for v in f.values))
    if coordinate == 1:
        return Flow(f.graph, GroupTag.z2(), tuple(v[1] for v in f.values))
    raise PreconditionError("coordinate must be 0 or 1")


# ---------------------------------------------------------------------------
# Adjacent pairs, confluency, richness


@dataclass(frozen=True)
class AdjacentPair:
    """Two distinct edges meeting at shared_vertex (their anchor)."""

    e: int
    f: int
    shared_vertex: int

    @property
    def edge_pair(self) -> frozenset[int]:
        return frozenset((self.e, self.f))


def adjacent_pairs(g: Multigraph) -> list[AdjacentPair]:
    """All unordered pairs of adjacent edges, anchored at the lowest shared
    vertex and ordered by (e, f); read off the incidence lists in sum-of-
    squared-degrees time."""
    out = []
    for edge in g.edges:
        anchors: dict[int, int] = {}
        for v in sorted(edge.ends):
            for f in g.incident(v):
                if f > edge.id:
                    anchors.setdefault(f, v)
        out.extend(AdjacentPair(edge.id, f, anchors[f]) for f in sorted(anchors))
    return out


@dataclass(frozen=True)
class PairRelation:
    confluent: bool
    contrafluent: bool


def pair_relation(flow: Flow, pair: AdjacentPair) -> PairRelation:
    """Confluency of an adjacent pair under consistent orientation.

    With both edges oriented into the shared vertex, the pair is confluent
    when the values cancel and contrafluent when they agree. Only whether the
    two edges point the same way at the anchor matters, and at the other
    shared vertex of a parallel pair both edges turn round, so the outcome
    does not depend on which shared vertex is used.
    """
    g = flow.graph
    e, f = g.edge(pair.e), g.edge(pair.f)
    w = pair.shared_vertex
    if not (e.touches(w) and f.touches(w)):
        raise PreconditionError("pair anchor is not a shared vertex of its edges")
    x, y = flow.values[pair.e], flow.values[pair.f]
    tag = flow.group
    if tag.kind == "zkxz2":
        if x[1] != y[1]:
            return PairRelation(confluent=False, contrafluent=False)
        x, y, mod = x[0], y[0], tag.k
    else:
        mod = tag.modulus
    if (e.head == w) != (f.head == w):
        y = -y
    # Oriented into w the values are now s*x and s*y for one sign s.
    if mod is None:
        return PairRelation(confluent=(x == -y), contrafluent=(x == y))
    return PairRelation(confluent=((x + y) % mod == 0), contrafluent=((x - y) % mod == 0))


def strongly_intersecting(g: Multigraph, p1: AdjacentPair, p2: AdjacentPair) -> bool:
    """Distinct pairs sharing one edge whose union has a vertex of degree three."""
    s1, s2 = p1.edge_pair, p2.edge_pair
    if s1 == s2:
        return False
    if len(s1 & s2) != 1:
        return False
    deg: dict[int, int] = {}
    for eid in s1 | s2:
        for v in g.edge(eid).ends:
            deg[v] = deg.get(v, 0) + 1
    return any(d == 3 for d in deg.values())


@dataclass(frozen=True)
class FlowReport:
    conserved: bool
    nowhere_zero: bool
    violating_vertices: tuple[int, ...]
    zero_edges: tuple[int, ...]


def _net_outflow(g: Multigraph, values) -> list[int]:
    """Per vertex, the values on edges leaving it minus those on edges entering it."""
    acc = [0] * g.vertex_count
    for e, x in zip(g.edges, values):
        acc[e.tail] += x
        acc[e.head] -= x
    return acc


def verify_flow(g: Multigraph, flow: Flow) -> FlowReport:
    """Exact conservation and nowhere-zero checks with violation witnesses."""
    if flow.graph != g:
        raise PreconditionError("flow belongs to a different graph")
    values, mod = cyclic_values(flow.group, flow.values)
    sums = _net_outflow(g, values)
    if mod is not None:
        sums = [x % mod for x in sums]
    bad_vertices = tuple(v for v, x in enumerate(sums) if x)
    zeros = tuple(e for e, x in enumerate(values) if x == 0)
    return FlowReport(
        conserved=not bad_vertices,
        nowhere_zero=not zeros,
        violating_vertices=bad_vertices,
        zero_edges=zeros,
    )


def chain_edges(flow: Flow) -> frozenset[int]:
    """Edges of a (Z_k x Z_2) flow whose value has second coordinate 1."""
    if flow.group.kind != "zkxz2":
        raise PreconditionError("chain edges are defined for zkxz2 flows")
    return frozenset(e for e, v in enumerate(flow.values) if v[1] == 1)


@dataclass(frozen=True)
class RichnessChecks:
    conserved: bool
    nowhere_zero: bool
    adjacent_abs_distinct: bool
    bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.conserved and self.nowhere_zero and self.adjacent_abs_distinct and self.bound_ok
        )


def rich_report(g: Multigraph, flow: Flow) -> RichnessChecks:
    """The four richness conditions, each local to one vertex, in O(n + m).

    Two edges are adjacent exactly when they share a vertex, parallel edges
    included, so distinct |values| at every vertex covers every adjacent pair.
    """
    if flow.group.kind != "int":
        raise PreconditionError("richness is defined for integer flows")
    if flow.graph != g:
        raise PreconditionError("flow belongs to a different graph")
    values = flow.values
    size = list(map(abs, values))
    distinct = all(
        len(set(map(size.__getitem__, inc))) == len(inc)
        for inc in map(g.incident, range(g.vertex_count))
    )
    return RichnessChecks(
        conserved=not any(_net_outflow(g, values)),
        nowhere_zero=0 not in size,
        adjacent_abs_distinct=distinct,
        bound_ok=max(size, default=0) < flow.group.bound,
    )


def is_rich(g: Multigraph, flow: Flow) -> bool:
    """Conserved, nowhere-zero, within bound, and adjacent absolute values distinct."""
    return rich_report(g, flow).all_ok


# ---------------------------------------------------------------------------
# Modular-to-integer conversion


def _max_flow(node_count: int, arcs: list[tuple[int, int, int]], s: int, t: int):
    """Edmonds-Karp max flow; returns (value, per-arc flow list)."""
    flows = [0] * len(arcs)
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for i, (u, v, _cap) in enumerate(arcs):
        adj[u].append(i)
        adj[v].append(i)
    total = 0
    while True:
        parent: list[tuple[int, int] | None] = [None] * node_count
        parent[s] = (-1, 0)
        queue = deque([s])
        while queue and parent[t] is None:
            v = queue.popleft()
            for ai in adj[v]:
                u, w, cap = arcs[ai]
                if v == u and flows[ai] < cap and parent[w] is None:
                    parent[w] = (ai, 1)
                    queue.append(w)
                elif v == w and flows[ai] > 0 and parent[u] is None:
                    parent[u] = (ai, -1)
                    queue.append(u)
        if parent[t] is None:
            return total, flows
        push = None
        v = t
        while v != s:
            ai, d = parent[v]
            u, w, cap = arcs[ai]
            room = cap - flows[ai] if d == 1 else flows[ai]
            push = room if push is None else min(push, room)
            v = u if d == 1 else w
        v = t
        while v != s:
            ai, d = parent[v]
            u, w, _cap = arcs[ai]
            flows[ai] += d * push
            v = u if d == 1 else w
        total += push


def modular_to_integer(g: Multigraph, flow: Flow) -> Flow:
    """Lift a conserved modular flow to an integer flow with the same residues.

    Each nonzero value r becomes r or r - k so that conservation holds over
    the integers; the choice vector is a feasible unit-capacity circulation
    solved by max flow. Zero values stay zero and |result| < k everywhere.
    """
    if flow.group.kind not in ("zk", "z2", "z6"):
        raise PreconditionError("conversion expects a single modular group")
    if flow.graph != g:
        raise PreconditionError("flow belongs to a different graph")
    k = flow.group.modulus
    rep = verify_flow(g, flow)
    if not rep.conserved:
        raise PreconditionError("input flow is not conserved")
    r = list(flow.values)
    div = _net_outflow(g, r)
    demands = []
    for v in range(g.vertex_count):
        if div[v] % k != 0:
            raise InternalDefectError("divergence not divisible by the modulus")
        demands.append(div[v] // k)
    # Node layout: 0..n-1 graph vertices, n = source, n+1 = sink.
    s, t = g.vertex_count, g.vertex_count + 1
    arcs: list[tuple[int, int, int]] = []
    arc_of_edge: dict[int, int] = {}
    for e in g.edges:
        if r[e.id] != 0:
            arc_of_edge[e.id] = len(arcs)
            arcs.append((e.tail, e.head, 1))
    need = 0
    for v, d in enumerate(demands):
        if d > 0:
            arcs.append((s, v, d))
            need += d
        elif d < 0:
            arcs.append((v, t, -d))
    value, arc_flow = _max_flow(g.vertex_count + 2, arcs, s, t)
    if value != need:
        raise InternalDefectError("integer lift infeasible; conversion theory violated")
    vals = []
    for e in g.edges:
        if r[e.id] == 0:
            vals.append(0)
        else:
            x = arc_flow[arc_of_edge[e.id]]
            vals.append(r[e.id] - k * x)
    out = Flow(g, GroupTag.integers(k), tuple(vals))
    out_rep = verify_flow(g, out)
    if not out_rep.conserved:
        raise InternalDefectError("integer lift lost conservation")
    for e in range(g.edge_count):
        if (vals[e] - r[e]) % k != 0 or (vals[e] == 0) != (r[e] == 0) or abs(vals[e]) >= k:
            raise InternalDefectError("integer lift broke residues, zero set or bound")
    return out


# ---------------------------------------------------------------------------
# Certificate files


def write_flow_json(flow: Flow) -> str:
    g = flow.graph
    payload: dict = {"format": 1, "group": flow.group.kind}
    if flow.group.kind == "int":
        payload["bound"] = flow.group.bound
    else:
        payload["k"] = flow.group.k if flow.group.kind in ("zk", "zkxz2") else flow.group.modulus
    edges = []
    for e in g.edges:
        v = flow.values[e.id]
        value = list(v) if flow.group.kind == "zkxz2" else v
        edges.append({"id": e.id, "tail": e.tail, "head": e.head, "value": value})
    payload["edges"] = edges
    return json.dumps(payload, indent=2) + "\n"


def _require_ints(name: str, values) -> None:
    """GraphInputError unless every value is a JSON integer (not a boolean)."""
    for x in values:
        if type(x) is not int:
            raise GraphInputError(f"certificate field {name!r} must be an integer, got {x!r}")


def read_flow_json(text: str, g: Multigraph) -> Flow:
    """Parse a certificate against its graph, normalizing reversed edge rows.

    Every number must be a JSON integer, a Z_k x Z_2 value a list of two of
    them, and the k of a z2 or z6 certificate its modulus; anything else
    raises GraphInputError.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"certificate is not valid JSON: {exc}") from exc
    version = payload.get("format") if isinstance(payload, dict) else None
    if type(version) is not int or version != 1:
        raise GraphInputError("certificate format field must be 1")
    kind = payload.get("group")
    if kind == "int":
        _require_ints("bound", (payload.get("bound"),))
        tag = GroupTag.integers(payload["bound"])
    elif kind in ("zk", "zkxz2"):
        _require_ints("k", (payload.get("k"),))
        tag = GroupTag(kind, k=payload["k"])
    elif kind in ("z2", "z6"):
        tag = GroupTag(kind)
        _require_ints("k", (payload.get("k"),))
        if payload["k"] != tag.modulus:
            raise GraphInputError(f"certificate k of a {kind} flow must be {tag.modulus}")
    else:
        raise GraphInputError(f"unknown certificate group {kind!r}")
    rows = payload.get("edges")
    if not isinstance(rows, list) or len(rows) != g.edge_count:
        raise GraphInputError("certificate edge list does not match the graph")
    if not all(isinstance(row, dict) for row in rows):
        raise GraphInputError("certificate edge rows must be objects")
    ids, tails, heads, values = (
        [row.get(key) for row in rows] for key in ("id", "tail", "head", "value")
    )
    for key, column in (("id", ids), ("tail", tails), ("head", heads)):
        _require_ints(key, column)
    if kind == "zkxz2":
        if not all(isinstance(v, list) and len(v) == 2 for v in values):
            raise GraphInputError("certificate zkxz2 values must be lists of two integers")
        values = [tuple(v) for v in values]
        _require_ints("value", [x for v in values for x in v])
    else:
        _require_ints("value", values)
    vals: list = [None] * g.edge_count
    for eid, tail, head, value in zip(ids, tails, heads, values):
        if not (0 <= eid < g.edge_count) or vals[eid] is not None:
            raise GraphInputError(f"bad or duplicate edge id {eid} in certificate")
        edge = g.edges[eid]
        if tail == edge.tail and head == edge.head:
            vals[eid] = value
        elif tail == edge.head and head == edge.tail:
            vals[eid] = _negated(tag, value)
        else:
            raise GraphInputError(f"edge {eid} endpoints do not match the graph")
    return Flow(g, tag, tuple(vals))
