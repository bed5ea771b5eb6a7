"""Test-only reference for the flow kernels: generic group arithmetic
dispatched on the `GroupTag` for every value, and the verification, pair
relation and co-tree search written on top of it, as the package had them
before its kernels moved to plain integers.

Tests compare `verify_flow`, `rich_report`, `pair_relation`, `Flow`
normalisation, `linear_combine`, `cotree_flow_search` and its fundamental
circuits, found here by a BFS over the tree, against these.
The flow builders `zero_flow`, `send_through_circuit` and
`make_adjacent_pair`, `chain_edges` and the graph writer `format_multigraph`
serve tests only, so they live here too.

The reference computes on Z_k x Z_2 values as pairs (a, y). The package
stores each as one int mod 2k, so a reference value meets a `Flow` only
through `encode` and `decode` (or `to_flow`, `value_of` and `values_of`,
which apply them to a flow's values).
"""

from __future__ import annotations

from richflow import AdjacentPair, Flow, GroupTag, Multigraph
from richflow.errors import InternalDefectError, PreconditionError
from richflow.flowalg import FlowReport, RichnessChecks
from richflow.multigraph import Circuit, _bfs_path, spanning_forest, validate_circuit


# ---------------------------------------------------------------------------
# Z_k x Z_2 pairs and the ints the package stores


def encode(k: int, pair) -> int:
    """An int x with x = a mod k and x = y mod 2 for the pair (a, y), odd k:
    a*(k + 1) + y*k, as k + 1 is 1 mod k and 0 mod 2 and k the other way
    round. It is not reduced mod 2k; `Flow` reduces it."""
    a, y = pair
    return a * (k + 1) + y * k


def decode(k: int, x: int) -> tuple[int, int]:
    """The pair (a, y) in Z_k x Z_2 of an int x."""
    return (x % k, x % 2)


def value_of(flow: Flow, e: int):
    """Edge e's value as the reference computes on it: a pair for Z_k x Z_2."""
    x = flow.values[e]
    return decode(flow.group.k, x) if flow.group.kind == "zkxz2" else x


def values_of(flow: Flow) -> tuple:
    """Every edge's value as the reference computes on it."""
    return tuple(value_of(flow, e) for e in range(len(flow.values)))


def to_flow(g: Multigraph, tag: GroupTag, values) -> Flow:
    """The `Flow` of reference values: pairs for Z_k x Z_2 are encoded."""
    if tag.kind == "zkxz2":
        values = [encode(tag.k, v) for v in values]
    return Flow(g, tag, tuple(values))


# ---------------------------------------------------------------------------
# Group arithmetic, one call per value


def zero(tag: GroupTag):
    return (0, 0) if tag.kind == "zkxz2" else 0


def normalize(tag: GroupTag, v):
    if tag.kind == "zkxz2":
        a, b = v
        return (a % tag.k, b % 2)
    if tag.kind == "int":
        return int(v)
    return v % tag.modulus


def add(tag: GroupTag, a, b):
    if tag.kind == "zkxz2":
        return ((a[0] + b[0]) % tag.k, (a[1] + b[1]) % 2)
    if tag.kind == "int":
        return a + b
    return (a + b) % tag.modulus


def neg(tag: GroupTag, a):
    if tag.kind == "zkxz2":
        return ((-a[0]) % tag.k, a[1] % 2)
    if tag.kind == "int":
        return -a
    return (-a) % tag.modulus


def scale(tag: GroupTag, c: int, a):
    if tag.kind == "zkxz2":
        return ((c * a[0]) % tag.k, (c * a[1]) % 2)
    if tag.kind == "int":
        return c * a
    return (c * a) % tag.modulus


def is_zero(tag: GroupTag, a) -> bool:
    return a == zero(tag)


def value_into(flow: Flow, e: int, v: int):
    """The value of edge e when e is oriented into vertex v."""
    edge = flow.graph.edge(e)
    value = value_of(flow, e)
    if edge.head == v:
        return value
    if edge.tail == v:
        return neg(flow.group, value)
    raise PreconditionError(f"vertex {v} is not an endpoint of edge {e}")


# ---------------------------------------------------------------------------
# Flow builders


def zero_flow(g: Multigraph, group: GroupTag) -> Flow:
    return to_flow(g, group, (zero(group),) * g.edge_count)


def send_through_circuit(g: Multigraph, circuit: Circuit, a, group: GroupTag) -> Flow:
    """The flow that carries `a` around the directed circuit and 0 elsewhere.

    The circuit's listed order is its traversal direction; an edge traversed
    against its reference orientation stores the negated value.
    """
    if not validate_circuit(g, circuit):
        raise PreconditionError("not a valid circuit of this graph")
    vals = [zero(group)] * g.edge_count
    for pos, eid in enumerate(circuit.edges):
        vals[eid] = a if circuit.traversal_sign(g, pos) == 1 else neg(group, a)
    return to_flow(g, group, vals)


def make_adjacent_pair(g: Multigraph, e: int, f: int) -> AdjacentPair:
    """Pair e, f with the lowest shared vertex as anchor."""
    if e == f:
        raise PreconditionError("a pair needs two distinct edges")
    shared = g.shared_vertices(e, f)
    if not shared:
        raise PreconditionError(f"edges {e} and {f} are not adjacent")
    return AdjacentPair(min(e, f), max(e, f), shared[0])


def chain_edges(flow: Flow) -> frozenset[int]:
    """Edges of a (Z_k x Z_2) flow whose value has second coordinate 1."""
    if flow.group.kind != "zkxz2":
        raise PreconditionError("chain edges are defined for zkxz2 flows")
    return frozenset(e for e, v in enumerate(values_of(flow)) if v[1] == 1)


def format_multigraph(g: Multigraph) -> str:
    """g in the plain graph file format that `parse_multigraph` reads."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{e.tail} {e.head}" for e in g.edges)
    return "\n".join(lines) + "\n"


def linear_combine_values(terms) -> list:
    """The edgewise sum of coefficient-scaled values, reduced term by term."""
    tag = terms[0][1].group
    out = []
    for e in range(terms[0][1].graph.edge_count):
        acc = zero(tag)
        for c, f in terms:
            acc = add(tag, acc, scale(tag, c, value_of(f, e)))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Verification


def adjacent_pairs(g: Multigraph) -> list[AdjacentPair]:
    """Every pair of edges with a common endpoint, anchored at the lowest one."""
    out = []
    for e in range(g.edge_count):
        for f in range(e + 1, g.edge_count):
            shared = g.shared_vertices(e, f)
            if shared:
                out.append(AdjacentPair(e, f, shared[0]))
    return out


def verify_flow(g: Multigraph, flow: Flow) -> FlowReport:
    if flow.graph != g:
        raise PreconditionError("flow belongs to a different graph")
    tag, values = flow.group, values_of(flow)
    bad_vertices = []
    for v in range(g.vertex_count):
        acc = zero(tag)
        for eid in g.incident(v):
            e = g.edge(eid)
            val = values[eid]
            acc = add(tag, acc, val if e.tail == v else neg(tag, val))
        if not is_zero(tag, acc):
            bad_vertices.append(v)
    zeros = tuple(e for e in range(g.edge_count) if is_zero(tag, values[e]))
    return FlowReport(
        conserved=not bad_vertices,
        nowhere_zero=not zeros,
        violating_vertices=tuple(bad_vertices),
        zero_edges=zeros,
    )


def rich_report(g: Multigraph, flow: Flow) -> RichnessChecks:
    if flow.group.kind != "int":
        raise PreconditionError("richness is defined for integer flows")
    rep = verify_flow(g, flow)
    bound_ok = all(abs(v) < flow.group.bound for v in flow.values)
    distinct = True
    for pair in adjacent_pairs(g):
        if abs(flow.values[pair.e]) == abs(flow.values[pair.f]):
            distinct = False
            break
    return RichnessChecks(rep.conserved, rep.nowhere_zero, distinct, bound_ok)


def pair_relation(flow: Flow, pair: AdjacentPair) -> tuple[bool, bool]:
    """(confluent, contrafluent), evaluated at both shared vertices of a parallel pair."""
    e, f = flow.graph.edge(pair.e), flow.graph.edge(pair.f)
    w = pair.shared_vertex
    if not (e.touches(w) and f.touches(w)):
        raise PreconditionError("pair anchor is not a shared vertex of its edges")

    def relation_at(v: int) -> tuple[bool, bool]:
        in_e = value_into(flow, pair.e, v)
        in_f = value_into(flow, pair.f, v)
        return (in_e == neg(flow.group, in_f), in_e == in_f)

    rel = relation_at(w)
    if e.other_end(w) == f.other_end(w) and relation_at(e.other_end(w)) != rel:
        raise InternalDefectError("pair relation differs between shared vertices")
    return rel


# ---------------------------------------------------------------------------
# Co-tree search over group elements


def fundamental_circuit_signs(g: Multigraph, tree, co_edge: int) -> list[tuple[int, int]]:
    """Tree edges of the fundamental circuit of co_edge, each with its sign:
    the tree path head -> tail, found by a BFS over the tree edges; a tree
    edge gets +1 when traversed tail -> head."""
    e = g.edge(co_edge)
    verts, eids = _bfs_path(g, e.head, e.tail, tree)
    return [
        (t, 1 if g.edges[t].ends == (a, b) else -1) for a, b, t in zip(verts, verts[1:], eids)
    ]


def cotree_flow_values(g: Multigraph, group: GroupTag) -> tuple | None:
    """The values of the first conserved nowhere-zero flow over a cyclic
    group in co-tree search order, or None when there is none."""
    m = g.edge_count
    if m == 0:
        return ()
    tree, co, _, _ = spanning_forest(g)
    members = {co_e: fundamental_circuit_signs(g, tree, co_e) for co_e in co}
    remaining = {t: 0 for t in tree}
    for co_e in co:
        for t, _ in members[co_e]:
            remaining[t] += 1
    if any(count == 0 for count in remaining.values()):
        return None
    domain = range(1, group.modulus)
    tree_val = {t: zero(group) for t in tree}
    finalized: list = [None] * m
    next_try = [0] * len(co)
    trail: list = []
    depth = 0
    while depth >= 0:
        if depth == len(co):
            return tuple(finalized)
        co_e = co[depth]
        if len(trail) > depth:
            touched, done = trail.pop()
            for t in done:
                finalized[t] = None
            for t, delta in touched:
                tree_val[t] = add(group, tree_val[t], neg(group, delta))
                remaining[t] += 1
            finalized[co_e] = None
        if next_try[depth] == len(domain):
            next_try[depth] = 0
            depth -= 1
            continue
        val = domain[next_try[depth]]
        next_try[depth] += 1
        finalized[co_e] = val
        touched, done = [], []
        trail.append((touched, done))
        ok = True
        for t, sign in members[co_e]:
            delta = val if sign == 1 else neg(group, val)
            tree_val[t] = add(group, tree_val[t], delta)
            remaining[t] -= 1
            touched.append((t, delta))
            if remaining[t] == 0:
                tv = tree_val[t]
                if is_zero(group, tv):
                    ok = False
                    break
                finalized[t] = tv
                done.append(t)
        if ok:
            depth += 1
    return None
