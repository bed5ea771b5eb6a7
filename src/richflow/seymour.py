"""Nowhere-zero Z_6 flows and confluence elimination by vertex splitting.

Given a set of adjacent-edge pairs, splitting each pair's anchor vertex off
into a fresh degree-3 vertex yields an auxiliary graph whose nowhere-zero
Z_6 flow, pulled back through the contraction, avoids confluence on every
requested pair: at a degree-3 vertex a confluent pair would force the third
edge to zero. With no pair to split, the auxiliary graph is the host itself.
"""

from __future__ import annotations

from .cotree import cotree_flow_search
from .errors import InternalDefectError, PreconditionError
from .flowalg import (
    AdjacentPair,
    Flow,
    GroupTag,
    pair_relation,
    strongly_intersecting,
    verify_flow,
)
from .multigraph import AdmissibilityVerdict, Multigraph, _dfs_facts, is_rich_flow_admissible


def validate_pair_set(g: Multigraph, ps: tuple[AdjacentPair, ...]) -> None:
    """Enforce the splitting preconditions on adjacent-edge pairs, each
    anchored at a chosen shared vertex; raises PreconditionError."""
    seen: set[frozenset[int]] = set()
    holders: dict[int, list[int]] = {}  # edge -> indices of the pairs holding it
    for j, p in enumerate(ps):
        if p.e == p.f:
            raise PreconditionError("pair with a repeated edge")
        if p.shared_vertex not in g.shared_vertices(p.e, p.f):
            raise PreconditionError(f"pair ({p.e},{p.f}) anchor {p.shared_vertex} is not shared")
        if p.edge_pair in seen:
            raise PreconditionError(f"duplicate pair ({p.e},{p.f})")
        seen.add(p.edge_pair)
        for eid in (p.e, p.f):
            holders.setdefault(eid, []).append(j)
            if len(holders[eid]) >= 3:
                raise PreconditionError(f"edge {eid} appears in three or more pairs")
    # Strongly intersecting pairs share an edge, so each pair meets only the
    # other holders of its edges, in the order of a scan over all pairs (i, j).
    for i, p in enumerate(ps):
        for j in sorted(j for eid in (p.e, p.f) for j in holders[eid] if j > i):
            if strongly_intersecting(g, p, ps[j]):
                raise PreconditionError(
                    f"pairs ({p.e},{p.f}) and ({ps[j].e},{ps[j].f}) strongly intersect"
                )


def build_pair_splitting(
    g: Multigraph, pairs: tuple[AdjacentPair, ...], *, verdict: AdmissibilityVerdict | None = None
) -> Multigraph:
    """The split graph H: each pair split off its anchor vertex into a fresh
    degree-3 vertex.

    By construction, b(p_i) is vertex n + i and the anchor edge a(p_i) --
    b(p_i) is edge m + i, and edge i of g is edge i of H. The two pair edges
    and the anchor edge meet at b(p); contracting the anchor edges gives
    back exactly the host graph. The result is bridgeless
    whenever the host is rich flow admissible, which is checked on g's
    admissibility verdict: computed here, or taken from `verdict`, which must
    be `is_rich_flow_admissible(g)` of this same g. With no pair, nothing is
    split: the split graph is g itself, with no copy and nothing to assert
    about a contraction.
    """
    if verdict is None:
        verdict = is_rich_flow_admissible(g)
    if not verdict.admissible:
        raise PreconditionError(f"pair splitting requires an admissible graph: {verdict.describe()}")
    validate_pair_set(g, pairs)
    n = g.vertex_count
    if not pairs:
        return g
    replacement: dict[int, dict[int, int]] = {}  # edge -> {anchor vertex -> b(p)}
    for i, p in enumerate(pairs):
        for eid in (p.e, p.f):
            slot = replacement.setdefault(eid, {})
            if p.shared_vertex in slot:
                raise InternalDefectError("two pairs share an edge at the same anchor")
            slot[p.shared_vertex] = n + i
    h_pairs = []
    for e in g.edges:
        slot = replacement.get(e.id, {})
        h_pairs.append((slot.get(e.tail, e.tail), slot.get(e.head, e.head)))
    for i, p in enumerate(pairs):
        h_pairs.append((p.shared_vertex, n + i))
    h = Multigraph(n + len(pairs), h_pairs)
    for i in range(len(pairs)):
        if h.degree(n + i) != 3:
            raise InternalDefectError(f"split vertex for pair {i} has degree {h.degree(n + i)}")
    # Contraction check: mapping every b(p) back to a(p) must restore the host.
    back = {n + i: p.shared_vertex for i, p in enumerate(pairs)}
    for e in g.edges:
        he = h.edges[e.id]
        restored = (back.get(he.tail, he.tail), back.get(he.head, he.head))
        if restored != e.ends:
            raise InternalDefectError(f"contraction does not restore edge {e.id}")
    connected, h_bridges, _ = _dfs_facts(h)
    if h_bridges:
        raise InternalDefectError("split graph has a bridge despite an admissible host")
    if not connected:
        raise InternalDefectError("split graph is disconnected")
    return h


def nowhere_zero_z6(g: Multigraph) -> Flow:
    """A conserved, nowhere-zero Z_6 flow of a connected bridgeless graph."""
    connected, br, _ = _dfs_facts(g)
    if not connected:
        raise PreconditionError("nowhere-zero flow search requires a connected graph")
    if br:
        raise PreconditionError(f"graph has a bridge (edge {min(br)}); no nowhere-zero flow exists")
    flow = cotree_flow_search(g, GroupTag.z6())
    if flow is None:
        raise InternalDefectError("no nowhere-zero Z6 flow found on a bridgeless graph")
    rep = verify_flow(g, flow)
    if not (rep.conserved and rep.nowhere_zero):
        raise InternalDefectError("Z6 search returned an invalid flow")
    return flow


def flow_avoiding_confluence(
    g: Multigraph, pairs: tuple[AdjacentPair, ...], *, verdict: AdmissibilityVerdict | None = None
) -> Flow:
    """A nowhere-zero Z_6 flow on g in which no requested pair is confluent.

    g must be rich flow admissible; `verdict`, if given, must be
    `is_rich_flow_admissible(g)` of this same g, and is handed to
    `build_pair_splitting` instead of being computed again there. With no
    pair, the split graph is g and the verified Z_6 flow of g is the result.
    """
    h = build_pair_splitting(g, pairs, verdict=verdict)
    h_flow = nowhere_zero_z6(h)
    if h is g:
        return h_flow
    # G edge i is H edge i with matching orientation sides, so the restriction
    # of the H values is already the contracted flow.
    flow = Flow(g, GroupTag.z6(), h_flow.values[: g.edge_count])
    rep = verify_flow(g, flow)
    if not (rep.conserved and rep.nowhere_zero):
        raise InternalDefectError("contracted flow lost conservation or gained zeros")
    for p in pairs:
        if pair_relation(flow, p).confluent:
            raise InternalDefectError(f"pair ({p.e},{p.f}) is still confluent after splitting")
    return flow
