"""Loop-free multigraphs with dense ids and fixed per-edge reference orientations.

Vertices are numbered 0..n-1 and edges 0..m-1. Each edge stores (tail, head);
the pair tail -> head is the edge's fixed reference orientation. Parallel
edges are allowed and distinguished by edge id; loops are rejected everywhere.

This module also provides connectivity and cut analysis, the
rich-flow-admissibility verdict, circuits, circuit chains, and the block
machinery used by the synthesis tower. Each cut question has one owner:
- one lowpoint DFS, `_biconnected_edge_groups`, finds blocks and a spanning
  tree; `_dfs_facts` reads connectivity, the bridges (single-edge blocks) and
  the tree off one call, and circuit chains walk its blocks;
- one rooted BFS spanning forest, `spanning_forest`, is `cotree`'s basis;
- one union-find, `_UnionFind`, answers what falls apart when edges go: the
  2-edge-cut tests, the edge-blocks of `find_attachable_block` and the
  sides of the synthesis split;
- `is_rich_flow_admissible` is the one caller of `enumerate_two_edge_cuts`,
  and its verdict carries the 2-edge-cuts that the synthesis split reads;
  an admissible verdict with no 2-edge-cut is the one answer to
  "3-edge-connected?".

A fact is computed once per graph and handed to the steps that ask it, as
the evidence itself (a verdict, DFS facts or blocks), never as a flag:
`enumerate_two_edge_cuts` reads the verdict's `_dfs_facts`; the Z6 step
reads g's verdict, or the split graph's facts that the pair splitting
asserted; `find_circuit_chain` reads the tower guard's verdict for g minus
the special edge, or the blocks `find_attachable_block` found. Each still
refuses, with its one-argument message, evidence that shows a disconnected
graph, a bridge, a 2-edge-cut or a single-edge block. This took the lowpoint
DFS passes of a synthesis from 7.2 to 3.2 per admissible `batch-small`
graph and from 10.9 to 5.6 per `synth-cubic` graph (benchmark seeds 1-2).

`enumerate_two_edge_cuts` tests edge pairs by union-find, pruned by bundles of
parallel edges and by the DFS tree T of `_dfs_facts` (any spanning tree gives
the same list): an edge with two or more parallels is in no 2-edge-cut, and an
edge with one parallel only with that twin; a pair of two non-tree edges
leaves T whole, so it is no cut and is never tested; and a pass that has made
n - 1 merges has spanned the rest of the graph, so it stops there.
Parts of g (g minus an edge, a tower stage) are searched on g over an edge
subset, not on a relabelled copy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import GraphInputError, InternalDefectError, PreconditionError


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    tail: int
    head: int

    @property
    def ends(self) -> tuple[int, int]:
        return (self.tail, self.head)

    def other_end(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise ValueError(f"vertex {v} is not an endpoint of edge {self.id}")

    def touches(self, v: int) -> bool:
        return v == self.tail or v == self.head


class Multigraph:
    """Immutable loop-free multigraph with per-vertex incidence lists."""

    __slots__ = ("_n", "_edges", "_incidence")

    def __init__(self, vertex_count: int, edge_pairs) -> None:
        if vertex_count < 0:
            raise GraphInputError("vertex count must be nonnegative")
        edges = []
        incidence: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, (u, v) in enumerate(edge_pairs):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphInputError(f"edge {i}: vertex id out of range: {u} {v}")
            if u == v:
                raise GraphInputError(f"edge {i}: loops are not allowed ({u} = {v})")
            edges.append(Edge(i, u, v))
            incidence[u].append(i)
            incidence[v].append(i)
        self._n = vertex_count
        self._edges = tuple(edges)
        self._incidence = tuple(tuple(ids) for ids in incidence)

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def edge(self, e: int) -> Edge:
        if not (0 <= e < len(self._edges)):
            raise GraphInputError(f"edge id {e} out of range")
        return self._edges[e]

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, ascending."""
        return self._incidence[v]

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def max_degree(self) -> int:
        return max((len(ids) for ids in self._incidence), default=0)

    def shared_vertices(self, e: int, f: int) -> tuple[int, ...]:
        """Common endpoints of two distinct edges, ascending (0, 1 or 2 of them)."""
        a = set(self.edge(e).ends)
        b = set(self.edge(f).ends)
        return tuple(sorted(a & b))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._n == other._n and [e.ends for e in self._edges] == [
            e.ends for e in other._edges
        ]

    def __repr__(self) -> str:
        return f"Multigraph(n={self._n}, m={len(self._edges)})"


# ---------------------------------------------------------------------------
# Parsing


def parse_multigraph(text: str) -> Multigraph:
    """Parse the plain graph file format.

    Lines starting with '#' are comments; the first data line is "n m",
    followed by m lines "u v". The i-th edge line defines edge id i with
    reference orientation u -> v. LF and CRLF are both accepted.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise GraphInputError("empty graph file")
    header = rows[0].split()
    if len(header) != 2:
        raise GraphInputError(f"malformed header line: {rows[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphInputError(f"malformed header line: {rows[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphInputError("header counts must be nonnegative")
    body = rows[1:]
    if len(body) != m:
        raise GraphInputError(f"edge count mismatch: header says {m}, found {len(body)}")
    pairs = []
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(f"edge line {i}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphInputError(f"edge line {i}: expected integers, got {line!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge line {i}: vertex id out of range: {line!r}")
        if u == v:
            raise GraphInputError(f"edge line {i}: loop {u}={v} not allowed")
        pairs.append((u, v))
    return Multigraph(n, pairs)


# ---------------------------------------------------------------------------
# Connectivity and cuts


def spanning_forest(g: Multigraph) -> tuple[frozenset[int], list[int], list[int], list[int]]:
    """(tree edge ids, co-tree edge ids ascending, up, depth) of the BFS forest
    grown from each unreached vertex in id order, lowest edge id first; up[v]
    is v's tree edge toward its root (-1 at a root), depth[v] its distance
    from the root. The tree has n - c edges for c components."""
    edges = g.edges
    up = [-1] * g.vertex_count
    depth = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid in g.incident(v):
                e = edges[eid]
                w = e.head if e.tail == v else e.tail
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    up[w] = eid
                    queue.append(w)
    tree = frozenset(e for e in up if e >= 0)
    return tree, [e for e in range(g.edge_count) if e not in tree], up, depth


def _biconnected_edge_groups(g: Multigraph, edge_ids=None, tree=None) -> list[frozenset[int]]:
    """Blocks (biconnected components) of the subgraph spanned by edge_ids,
    or of all of g when edge_ids is None; tree, if a list, gets the tree edges."""
    n = g.vertex_count
    edges = g.edges
    if edge_ids is None:
        adj = g._incidence
    else:
        adj = [[] for _ in range(n)]
        for eid in sorted(set(edge_ids)):
            e = edges[eid]
            adj[e.tail].append(eid)
            adj[e.head].append(eid)
    disc = [-1] * n
    low = [0] * n
    groups: list[frozenset[int]] = []
    stack_edges: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # Iterative DFS, parent edge skipped by id so parallels act as back
        # edges; a frame is (vertex, parent edge, next index).
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent_edge, idx = stack.pop()
            inc = adj[v]
            for i in range(idx, len(inc)):
                eid = inc[i]
                if eid == parent_edge:
                    continue
                e = edges[eid]
                w = e.head if e.tail == v else e.tail
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack_edges.append(eid)
                    if tree is not None:
                        tree.append(eid)
                    stack.append((v, parent_edge, i + 1))
                    stack.append((w, eid, 0))
                    break
                if disc[w] < disc[v]:
                    stack_edges.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                if not stack:
                    continue
                # v finished; its parent frame is on top. Close the block below it.
                pv = stack[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if low[v] >= disc[pv]:
                    group = []
                    while True:
                        top = stack_edges.pop()
                        group.append(top)
                        if top == parent_edge:
                            break
                    groups.append(frozenset(group))
    return groups


def _dfs_facts(g: Multigraph) -> tuple[bool, frozenset[int], frozenset[int]]:
    """(connected, bridges, DFS spanning forest) of g; the forest has n - c
    edges for c components, and the bridges are the single-edge blocks."""
    tree: list[int] = []
    groups = _biconnected_edge_groups(g, tree=tree)
    bridge_set = frozenset(eid for grp in groups if len(grp) == 1 for eid in grp)
    return len(tree) >= g.vertex_count - 1, bridge_set, frozenset(tree)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def enumerate_two_edge_cuts(g: Multigraph, *, facts=None) -> list[tuple[int, int]]:
    """All unordered pairs {e, f} of non-bridge edges whose joint removal disconnects g.

    Each pair is (e, f) with e < f, listed in ascending order. A union-find
    pass over g - {e, f} tests each pair, with exact prunes from the bundles
    of parallel edges and from the DFS spanning tree T of g (any spanning
    tree gives the same list):
    - an edge in a bundle of three or more is never tested, and an edge in a
      bundle of two only with its twin: for a 2-edge-cut {e, f} with f no
      bridge, g - f is connected, so e joins the two components of
      g - {e, f}, and a twin of e, joining the same two vertices, must be f;
    - a pair with both edges outside T is skipped: g - {e, f} still contains
      T, so it is connected;
    - a pass stops at n - 1 merges: the merged edges then span g - {e, f},
      so it is connected.
    Input must be connected. Connectivity, the bridges and T are read off
    `facts`, which must be `_dfs_facts(g)` of this same g, or off that DFS
    run here when it is not given.
    """
    connected, bridge_set, tree = _dfs_facts(g) if facts is None else facts
    if not connected:
        raise PreconditionError("two-edge-cut enumeration requires a connected graph")
    n = g.vertex_count
    m = g.edge_count
    bundles: dict[frozenset[int], list[int]] = {}
    for e in g.edges:
        bundles.setdefault(frozenset(e.ends), []).append(e.id)
    # An edge is tested with its twin, or, with no parallel and no bridge,
    # with every later such edge.
    twin = {ids[0]: ids[1] for ids in bundles.values() if len(ids) == 2}
    lone = sorted(ids[0] for ids in bundles.values() if len(ids) == 1)
    lone = [e for e in lone if e not in bridge_set]
    rank = {e: a for a, e in enumerate(lone)}
    cuts: list[tuple[int, int]] = []
    for i in range(m):
        if i in rank:
            later = lone[rank[i] + 1:]
        elif i in twin:
            later = (twin[i],)
        else:
            continue
        for j in later:
            if not (i in tree or j in tree):
                continue
            uf = _UnionFind(n)
            merges = 0
            for e in g.edges:
                if e.id == i or e.id == j:
                    continue
                if uf.union(e.tail, e.head):
                    merges += 1
                    if merges == n - 1:
                        break
            if n - merges > 1:
                cuts.append((i, j))
    return cuts


# ---------------------------------------------------------------------------
# Rich flow admissibility


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the admissibility test, with a concrete witness on failure.

    two_cuts is every 2-edge-cut of g as ascending edge-id pairs in
    `enumerate_two_edge_cuts` order whenever g is connected and bridgeless,
    so also for a shared-vertex refusal, and () otherwise. An admissible
    verdict with no 2-edge-cuts means g is 3-edge-connected.
    """

    admissible: bool
    kind: str | None = None  # "disconnected" | "bridge" | "shared_two_cut"
    bridge: int | None = None
    cut_pair: tuple[int, int] | None = None
    shared_vertex: int | None = None
    two_cuts: tuple[tuple[int, int], ...] = ()

    def describe(self) -> str:
        if self.admissible:
            return "admissible"
        if self.kind == "disconnected":
            return "not admissible: disconnected"
        if self.kind == "bridge":
            return f"not admissible: bridge edge {self.bridge}"
        e, f = self.cut_pair
        return f"not admissible: 2-edge-cut {{{e},{f}}} shares vertex {self.shared_vertex}"


def is_rich_flow_admissible(g: Multigraph) -> AdmissibilityVerdict:
    """Connected, bridgeless, and no 2-edge-cut whose edges share an endpoint.

    This is the one place that enumerates 2-edge-cuts; callers read them from
    the verdict. The enumerator reads the connectivity, bridges and DFS tree
    of the one lowpoint DFS run here.
    """
    facts = _dfs_facts(g)
    connected, br, _ = facts
    if not connected:
        return AdmissibilityVerdict(False, kind="disconnected")
    if br:
        return AdmissibilityVerdict(False, kind="bridge", bridge=min(br))
    cuts = tuple(enumerate_two_edge_cuts(g, facts=facts))
    for e, f in cuts:
        shared = g.shared_vertices(e, f)
        if shared:
            return AdmissibilityVerdict(
                False, kind="shared_two_cut", cut_pair=(e, f), shared_vertex=shared[0],
                two_cuts=cuts,
            )
    return AdmissibilityVerdict(True, two_cuts=cuts)


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class Circuit:
    """A connected 2-regular subgraph, listed as aligned cyclic sequences.

    Edge i joins vertices[i] and vertices[(i+1) % len]; the listed order is
    also the circuit's traversal direction wherever one is needed. The vertex
    and edge sets are built on first read and kept.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def vertex_set(self) -> frozenset[int]:
        kept = self.__dict__
        return kept.get("vertex_set") or kept.setdefault("vertex_set", frozenset(self.vertices))

    @property
    def edge_set(self) -> frozenset[int]:
        kept = self.__dict__
        return kept.get("edge_set") or kept.setdefault("edge_set", frozenset(self.edges))

    def reversed(self) -> "Circuit":
        v = self.vertices
        return Circuit((v[0],) + tuple(reversed(v[1:])), tuple(reversed(self.edges)))

    def traversal_sign(self, g: Multigraph, position: int) -> int:
        """+1 if the edge at this position is traversed tail -> head, else -1."""
        eid = self.edges[position]
        a = self.vertices[position]
        b = self.vertices[(position + 1) % len(self.vertices)]
        edge = g.edges[eid]
        if edge.tail == a and edge.head == b:
            return 1
        if edge.tail == b and edge.head == a:
            return -1
        raise ValueError(f"edge {eid} does not join {a} and {b}")


def validate_circuit(g: Multigraph, c: Circuit) -> bool:
    k = len(c.edges)
    if k < 2 or len(c.vertices) != k:
        return False
    if len(c.vertex_set) != k or len(c.edge_set) != k:
        return False
    for i in range(k):
        eid = c.edges[i]
        if not (0 <= eid < g.edge_count):
            return False
        a, b = c.vertices[i], c.vertices[(i + 1) % k]
        e = g.edges[eid]
        if not ((e.tail == a and e.head == b) or (e.tail == b and e.head == a)):
            return False
    return True


def circuit_from_edge_set(g: Multigraph, edge_ids) -> Circuit | None:
    """Assemble a Circuit from an edge set if it is connected and 2-regular."""
    edge_ids = sorted(set(edge_ids))
    if len(edge_ids) < 2:
        return None
    at: dict[int, list[int]] = {}  # vertex -> its edges, ascending
    for eid in edge_ids:
        e = g.edge(eid)
        at.setdefault(e.tail, []).append(eid)
        at.setdefault(e.head, []).append(eid)
    if any(len(ids) != 2 for ids in at.values()) or len(at) != len(edge_ids):
        return None
    start = min(at)
    verts = [start]
    eids: list[int] = []
    used: set[int] = set()
    v = start
    while True:
        first, second = at[v]  # the lower unused one; past the start, one is used
        nxt = second if first in used else first
        used.add(nxt)
        eids.append(nxt)
        v = g.edges[nxt].other_end(v)
        if v == start:
            break
        verts.append(v)
    if len(eids) != len(edge_ids):
        return None
    return Circuit(tuple(verts), tuple(eids))


def _bfs_path(
    g: Multigraph, src: int, dst: int, allowed: set[int] | frozenset[int]
) -> tuple[list[int], list[int]] | None:
    """Shortest src..dst path over the allowed edges; lowest edge id first.

    Returns (vertices, edges) with vertices[0] == src and vertices[-1] == dst.
    """
    if src == dst:
        return ([src], [])
    edges, incidence = g.edges, g._incidence
    parent: dict[int, tuple[int, int] | None] = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for eid in incidence[v]:
            if eid not in allowed:
                continue
            e = edges[eid]
            w = e.head if e.tail == v else e.tail
            if w in parent:
                continue
            parent[w] = (v, eid)
            if w == dst:
                verts = [dst]
                eids = []
                cur = dst
                while cur != src:
                    pv, pe = parent[cur]
                    eids.append(pe)
                    verts.append(pv)
                    cur = pv
                verts.reverse()
                eids.reverse()
                return (verts, eids)
            queue.append(w)
    return None


def circuit_through_edge(
    g: Multigraph,
    e: int,
    *,
    allowed_edges: set[int] | frozenset[int] | None = None,
    direction: tuple[int, int] | None = None,
) -> Circuit | None:
    """Shortest circuit containing edge e, traversed along the given direction.

    The search runs over allowed_edges (default: all edges) minus e itself;
    allowed_edges is copied only when it holds e. Returns None when e lies on
    no circuit within the allowed set.
    """
    edge = g.edge(e)
    if direction is None:
        direction = edge.ends
    if set(direction) != {edge.tail, edge.head}:
        raise PreconditionError(f"direction {direction} does not orient edge {e}")
    pool = range(g.edge_count) if allowed_edges is None else allowed_edges
    if e in pool:
        pool = frozenset(pool) - {e}
    start, nxt = direction
    path = _bfs_path(g, nxt, start, pool)
    if path is None:
        return None
    verts, eids = path
    return Circuit((start,) + tuple(verts[:-1]), (e,) + tuple(eids))


def find_circuit_through(g: Multigraph, e: int) -> Circuit:
    """A circuit of g containing edge e; errors when e is a bridge."""
    circ = circuit_through_edge(g, e)
    if circ is None:
        raise PreconditionError(f"edge {e} is a bridge; no circuit contains it")
    return circ


# ---------------------------------------------------------------------------
# Circuit chains


@dataclass(frozen=True)
class CircuitChain:
    """Circuits where consecutive ones share exactly one vertex and
    non-consecutive ones are vertex-disjoint; the vertex and edge sets of the
    whole chain are built once, with the chain."""

    circuits: tuple[Circuit, ...]
    vertex_set: frozenset[int] = field(init=False, repr=False, compare=False)
    edge_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cs = self.circuits
        object.__setattr__(self, "vertex_set", frozenset().union(*(c.vertex_set for c in cs)))
        object.__setattr__(self, "edge_set", frozenset().union(*(c.edge_set for c in cs)))

    def __len__(self) -> int:
        return len(self.circuits)

    def internal_vertices(self, index: int) -> frozenset[int]:
        """Vertices of circuit `index` lying in no other circuit of the chain."""
        own = set(self.circuits[index].vertex_set)
        for j, c in enumerate(self.circuits):
            if j != index:
                own -= c.vertex_set
        return frozenset(own)

    def locate_edge(self, eid: int) -> tuple[int, int] | None:
        for i, c in enumerate(self.circuits):
            if eid in c.edge_set:
                return (i, c.edges.index(eid))
        return None

    def reversed(self) -> "CircuitChain":
        return CircuitChain(tuple(reversed(self.circuits)))


def validate_circuit_chain(
    g: Multigraph, chain: CircuitChain, endpoints: tuple[int, int] | None = None
) -> bool:
    cs = chain.circuits
    if len(cs) < 1:
        return False
    for c in cs:
        if not validate_circuit(g, c):
            return False
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            common = cs[i].vertex_set & cs[j].vertex_set
            if j == i + 1:
                if len(common) != 1:
                    return False
            elif common:
                return False
    if endpoints is not None:
        u, v = endpoints
        first = chain.internal_vertices(0)
        last = chain.internal_vertices(len(cs) - 1)
        if u == v:
            return False
        if not ((u in first and v in last) or (v in first and u in last)):
            return False
    return True


# ---------------------------------------------------------------------------
# Chain discovery


def _min_two_flow(g: Multigraph, s: int, t: int, edge_ids=None) -> dict[int, int] | None:
    """Edge usage (+1 along reference, -1 against) of a minimum-size 2-unit s-t
    flow in g, or in its edges `edge_ids`.

    Two successive shortest augmentations over the residual graph; residual
    reverse arcs cost -1, so relaxation is Bellman-Ford style.
    """
    n = g.vertex_count
    inf = float("inf")
    usage: dict[int, int] = {}
    edges = g.edges if edge_ids is None else [g.edges[e] for e in sorted(edge_ids)]
    # Residual arcs (from, to, cost, (edge, direction)) of an unused edge.
    unused = [((e.tail, e.head, 1, (e.id, 1)), (e.head, e.tail, 1, (e.id, -1))) for e in edges]
    for _ in range(2):
        arcs = []  # fixed for one augmentation
        for e, both in zip(edges, unused):
            u0 = usage.get(e.id, 0)
            if u0 == 0:
                arcs += both
            elif u0 == 1:
                arcs.append((e.head, e.tail, -1, (e.id, -1)))
            else:
                arcs.append((e.tail, e.head, -1, (e.id, 1)))
        dist: list[float] = [inf] * n
        parent: list[tuple[int, int] | None] = [None] * n
        dist[s] = 0
        for _round in range(n + 1):
            changed = False
            for a, b, w, via in arcs:
                if dist[a] + w < dist[b]:
                    dist[b] = dist[a] + w
                    parent[b] = via
                    changed = True
            if not changed:
                break
        if dist[t] == inf:
            return None
        v = t
        steps = 0
        while v != s:
            entry = parent[v]
            if entry is None:
                return None
            eid, d = entry
            new = usage.get(eid, 0) + d
            if new == 0:
                usage.pop(eid, None)
            else:
                usage[eid] = new
            edge = g.edges[eid]
            v = edge.tail if d == 1 else edge.head
            steps += 1
            if steps > g.edge_count + 1:
                return None  # stale parent cycle; find_circuit_chain raises
    return usage


def _chain_via_block_path(g: Multigraph, union_edges, u: int, v: int) -> CircuitChain | None:
    """The blocks of the union of two edge-disjoint u-v paths as a chain of
    circuits, walked from u's block to v's block.

    A simple path cannot leave a cut vertex and come back, so every block of
    the union lies on the u-v path of its block-cut tree: u lies in one
    block, and each next block is the only unvisited one through a vertex of
    the current block. None when the blocks do not walk that way or one is
    not a circuit; the caller validates the chain.
    """
    groups = _biconnected_edge_groups(g, union_edges)
    vertex_sets = [frozenset(w for eid in grp for w in g.edges[eid].ends) for grp in groups]
    blocks_at: dict[int, list[int]] = {}
    for i, vs in enumerate(vertex_sets):
        for w in vs:
            blocks_at.setdefault(w, []).append(i)
    if len(blocks_at.get(u, ())) != 1:
        return None
    walk = [blocks_at[u][0]]
    while v not in vertex_sets[walk[-1]]:
        nxt = {j for w in vertex_sets[walk[-1]] for j in blocks_at[w]} - set(walk)
        if len(nxt) != 1:
            return None
        walk.append(nxt.pop())
    circuits = [circuit_from_edge_set(g, groups[i]) for i in walk]
    if any(c is None for c in circuits):
        return None
    return CircuitChain(tuple(circuits))


def find_circuit_chain(
    g: Multigraph, u: int, v: int, *, vertices=None, edge_ids=None, verdict=None, blocks=None
) -> CircuitChain:
    """A circuit chain connecting u and v in a 2-edge-connected graph: g, or
    its subgraph with the given vertices and edges (all of g's by default).

    2-edge-connectivity is read off the evidence handed in, or off one
    lowpoint DFS run here, and a graph the evidence does not show
    2-edge-connected is refused:
    - `verdict`, `is_rich_flow_admissible(g)` of this same g, for g or g
      minus one edge e: connected and bridgeless, with no 2-edge-cut of g
      holding e (each other edge of such a cut would be a bridge of g - e);
    - `blocks`, the blocks of the subgraph as `_biconnected_edge_groups`
      gives them: connected when they span its vertices (the blocks of a
      connected graph have |V| - 1 more vertices than blocks), and
      bridgeless when none is a single edge.

    The union of two edge-disjoint u-v paths of minimum total size splits
    into a chain of circuits along its block path, so this always finds one;
    a miss is an internal defect. The result is validated before it is
    returned. A subgraph is searched on g over its edges, in id order, so
    the chain is the one found on the subgraph's relabelled copy (which
    keeps the order of vertices and edges) mapped back to g.
    """
    if vertices is None:
        vertices = range(g.vertex_count)
    if u == v:
        raise PreconditionError("endpoints must be distinct")
    if not (u in vertices and v in vertices):
        raise PreconditionError("endpoint out of range")
    if verdict is not None:
        kept = range(g.edge_count) if edge_ids is None else edge_ids
        left_out = set(range(g.edge_count)).difference(kept)
        if len(vertices) != g.vertex_count or len(left_out) > 1:
            raise PreconditionError("a verdict answers for g or g minus one edge only")
        two_edge_connected = verdict.kind not in ("disconnected", "bridge") and not any(
            e in cut for cut in verdict.two_cuts for e in left_out
        )
    else:
        if blocks is None:
            blocks = _biconnected_edge_groups(g, edge_ids)
        ends = g.edges
        spanned = sum(len({w for eid in grp for w in ends[eid].ends}) - 1 for grp in blocks)
        two_edge_connected = spanned >= len(vertices) - 1 and all(len(grp) > 1 for grp in blocks)
    if not two_edge_connected:
        raise PreconditionError("circuit chain search requires a 2-edge-connected graph")
    usage = _min_two_flow(g, u, v, edge_ids)
    if usage:
        chain = _chain_via_block_path(g, usage.keys(), u, v)
        if chain is not None and validate_circuit_chain(g, chain, (u, v)):
            return chain
    raise InternalDefectError(f"no circuit chain certified between {u} and {v}")


# ---------------------------------------------------------------------------
# Attachable blocks


def find_attachable_block(
    g: Multigraph, inside, *, blocks=None
) -> tuple[frozenset[int], int, int, int, int]:
    """A leaf or isolated edge-block of g minus `inside`, with two attachment edges.

    Returns (block vertex set, e1, e2, b1, b2) where e1 < e2 join `inside` to
    the block and b1, b2 are their distinct endpoints in the block. Errors when
    the vertex-attachment growth step applies instead, or nothing is left.
    g minus `inside` is searched on g over the edges with no end inside, so
    no graph is built. `blocks`, if a list, gets the blocks of the returned
    edge-block's subgraph: the blocks of that search with an edge in it, none
    a single edge, which `find_circuit_chain` reads.
    """
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
    outer = [e.id for e in g.edges if e.tail not in inside and e.head not in inside]
    groups = _biconnected_edge_groups(g, outer)
    bridge_ends = [g.edges[eid].ends for grp in groups if len(grp) == 1 for eid in grp]
    # Joined by their non-bridge edges, the outside vertices fall into the
    # edge-blocks of g minus `inside`.
    uf = _UnionFind(g.vertex_count)
    for grp in groups:
        if len(grp) > 1:
            for eid in grp:
                uf.union(*g.edges[eid].ends)
    edge_blocks: dict[int, set[int]] = {}
    for v in outside:
        edge_blocks.setdefault(uf.find(v), set()).add(v)
    candidates = []
    for blk in map(frozenset, edge_blocks.values()):
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
            if blocks is not None:
                # A block of two or more edges lies in one edge-block.
                blocks.extend(
                    grp for grp in groups if len(grp) > 1 and g.edges[min(grp)].tail in blk
                )
            return blk, e1, e2, b1, b2
    raise PreconditionError("no attachable block with two edges to the current subgraph")
