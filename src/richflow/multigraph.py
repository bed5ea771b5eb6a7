"""Loop-free multigraphs with dense ids and fixed per-edge reference orientations.

Vertices are numbered 0..n-1 and edges 0..m-1. Each edge stores (tail, head);
the pair tail -> head is the edge's fixed reference orientation. Parallel
edges are allowed and distinguished by edge id; loops are rejected everywhere.

This module also provides connectivity and cut analysis (bridges, 2-edge-cuts,
edge-connectivity thresholds), the rich-flow-admissibility verdict, circuits,
circuit chains, and the block machinery used by the synthesis tower.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .errors import GraphInputError, InternalDefectError, PreconditionError


@dataclass(frozen=True)
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
        for i, (u, v) in enumerate(edge_pairs):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphInputError(f"edge {i}: vertex id out of range: {u} {v}")
            if u == v:
                raise GraphInputError(f"edge {i}: loops are not allowed ({u} = {v})")
            edges.append(Edge(i, u, v))
        incidence: list[list[int]] = [[] for _ in range(vertex_count)]
        for e in edges:
            incidence[e.tail].append(e.id)
            incidence[e.head].append(e.id)
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


def format_multigraph(g: Multigraph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{e.tail} {e.head}" for e in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Connectivity and cuts


def connected_components(g: Multigraph, *, without: frozenset[int] = frozenset()):
    """Vertex sets of the components of g with the given edges removed."""
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
                w = g.edge(eid).other_end(v)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Multigraph, *, without: frozenset[int] = frozenset()) -> bool:
    return len(connected_components(g, without=without)) <= 1


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose removal increases the number of components (DFS lowpoint)."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    result: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # Iterative DFS; parent edge skipped by id so parallels act as back edges.
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent_edge, idx = stack.pop()
            inc = g.incident(v)
            advanced = False
            while idx < len(inc):
                eid = inc[idx]
                idx += 1
                if eid == parent_edge:
                    continue
                w = g.edge(eid).other_end(v)
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((v, parent_edge, idx))
                    stack.append((w, eid, 0))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced and stack:
                # v finished; propagate lowpoint to its parent frame.
                pv, _, _ = stack[-1]
                low[pv] = min(low[pv], low[v])
                if low[v] > disc[pv] and parent_edge != -1:
                    result.add(parent_edge)
    return frozenset(result)


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


def enumerate_two_edge_cuts(g: Multigraph) -> list[tuple[int, int]]:
    """All unordered pairs {e, f} of non-bridge edges whose joint removal disconnects g.

    Brute force over edge pairs with union-find connectivity; input must be
    connected.
    """
    if not is_connected(g):
        raise PreconditionError("two-edge-cut enumeration requires a connected graph")
    m = g.edge_count
    bridge_set = bridges(g)
    cuts: list[tuple[int, int]] = []
    for i in range(m):
        if i in bridge_set:
            continue
        for j in range(i + 1, m):
            if j in bridge_set:
                continue
            uf = _UnionFind(g.vertex_count)
            merges = 0
            for e in g.edges:
                if e.id == i or e.id == j:
                    continue
                if uf.union(e.tail, e.head):
                    merges += 1
            if g.vertex_count - merges > 1:
                cuts.append((i, j))
    return cuts


def edge_connectivity_at_least(g: Multigraph, t: int) -> bool:
    """True iff g is connected and has no edge cut of size < t, for t in {1,2,3}."""
    if t not in (1, 2, 3):
        raise PreconditionError(f"threshold must be 1, 2 or 3, got {t}")
    if not is_connected(g):
        return False
    if t >= 2 and bridges(g):
        return False
    if t >= 3 and enumerate_two_edge_cuts(g):
        return False
    return True


# ---------------------------------------------------------------------------
# Rich flow admissibility


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the admissibility test, with a concrete witness on failure."""

    admissible: bool
    kind: str | None = None  # "disconnected" | "bridge" | "shared_two_cut"
    bridge: int | None = None
    cut_pair: tuple[int, int] | None = None
    shared_vertex: int | None = None

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
    """Connected, bridgeless, and no 2-edge-cut whose edges share an endpoint."""
    if not is_connected(g):
        return AdmissibilityVerdict(False, kind="disconnected")
    br = bridges(g)
    if br:
        return AdmissibilityVerdict(False, kind="bridge", bridge=min(br))
    for e, f in enumerate_two_edge_cuts(g):
        shared = g.shared_vertices(e, f)
        if shared:
            return AdmissibilityVerdict(
                False, kind="shared_two_cut", cut_pair=(e, f), shared_vertex=shared[0]
            )
    return AdmissibilityVerdict(True)


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class Circuit:
    """A connected 2-regular subgraph, listed as aligned cyclic sequences.

    Edge i joins vertices[i] and vertices[(i+1) % len]; the listed order is
    also the circuit's traversal direction wherever one is needed.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def reversed(self) -> "Circuit":
        v = self.vertices
        return Circuit((v[0],) + tuple(reversed(v[1:])), tuple(reversed(self.edges)))

    def traversal_sign(self, g: Multigraph, position: int) -> int:
        """+1 if the edge at this position is traversed tail -> head, else -1."""
        eid = self.edges[position]
        a = self.vertices[position]
        b = self.vertices[(position + 1) % len(self.vertices)]
        edge = g.edge(eid)
        if edge.ends == (a, b):
            return 1
        if edge.ends == (b, a):
            return -1
        raise ValueError(f"edge {eid} does not join {a} and {b}")


def validate_circuit(g: Multigraph, c: Circuit) -> bool:
    k = len(c.edges)
    if k < 2 or len(c.vertices) != k:
        return False
    if len(set(c.vertices)) != k or len(set(c.edges)) != k:
        return False
    for i in range(k):
        eid = c.edges[i]
        if not (0 <= eid < g.edge_count):
            return False
        a, b = c.vertices[i], c.vertices[(i + 1) % k]
        if set(g.edge(eid).ends) != {a, b}:
            return False
    return True


def circuit_from_edge_set(g: Multigraph, edge_ids) -> Circuit | None:
    """Assemble a Circuit from an edge set if it is connected and 2-regular."""
    edge_ids = sorted(set(edge_ids))
    if len(edge_ids) < 2:
        return None
    deg: Counter[int] = Counter()
    for eid in edge_ids:
        e = g.edge(eid)
        deg[e.tail] += 1
        deg[e.head] += 1
    if any(d != 2 for d in deg.values()) or len(deg) != len(edge_ids):
        return None
    at: dict[int, list[int]] = {v: [] for v in deg}
    for eid in edge_ids:
        e = g.edge(eid)
        at[e.tail].append(eid)
        at[e.head].append(eid)
    start = min(deg)
    verts = [start]
    eids: list[int] = []
    used: set[int] = set()
    v = start
    while True:
        nxt = min(e for e in at[v] if e not in used)
        used.add(nxt)
        eids.append(nxt)
        v = g.edge(nxt).other_end(v)
        if v == start:
            break
        verts.append(v)
    if len(eids) != len(edge_ids):
        return None
    return Circuit(tuple(verts), tuple(eids))


def _bfs_path(
    g: Multigraph, src: int, dst: int, allowed: frozenset[int]
) -> tuple[list[int], list[int]] | None:
    """Shortest src..dst path over the allowed edges; lowest edge id first.

    Returns (vertices, edges) with vertices[0] == src and vertices[-1] == dst.
    """
    if src == dst:
        return ([src], [])
    parent: dict[int, tuple[int, int]] = {}
    seen = {src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for eid in g.incident(v):
            if eid not in allowed:
                continue
            w = g.edge(eid).other_end(v)
            if w in seen:
                continue
            seen.add(w)
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
    allowed_edges: frozenset[int] | None = None,
    direction: tuple[int, int] | None = None,
) -> Circuit | None:
    """Shortest circuit containing edge e, traversed along the given direction.

    The search runs over allowed_edges (default: all edges) minus e itself.
    Returns None when e lies on no circuit within the allowed set.
    """
    edge = g.edge(e)
    if direction is None:
        direction = edge.ends
    if set(direction) != {edge.tail, edge.head}:
        raise PreconditionError(f"direction {direction} does not orient edge {e}")
    pool = frozenset(range(g.edge_count)) if allowed_edges is None else frozenset(allowed_edges)
    pool = pool - {e}
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
    non-consecutive ones are vertex-disjoint."""

    circuits: tuple[Circuit, ...]

    def __len__(self) -> int:
        return len(self.circuits)

    @property
    def edge_set(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.circuits:
            out |= c.edge_set
        return frozenset(out)

    @property
    def vertex_set(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.circuits:
            out |= c.vertex_set
        return frozenset(out)

    def shared_vertices(self) -> tuple[int, ...]:
        """The single shared vertex between each consecutive circuit pair."""
        out = []
        for a, b in zip(self.circuits, self.circuits[1:]):
            common = a.vertex_set & b.vertex_set
            if len(common) != 1:
                raise ValueError("consecutive circuits do not share exactly one vertex")
            out.append(next(iter(common)))
        return tuple(out)

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


def _min_two_flow(g: Multigraph, s: int, t: int) -> dict[int, int] | None:
    """Edge usage (+1 along reference, -1 against) of a minimum-size 2-unit s-t flow.

    Two successive shortest augmentations over the residual graph; residual
    reverse arcs cost -1, so relaxation is Bellman-Ford style.
    """
    n = g.vertex_count
    inf = float("inf")
    usage: dict[int, int] = {}
    for _ in range(2):
        dist: list[float] = [inf] * n
        parent: list[tuple[int, int] | None] = [None] * n
        dist[s] = 0
        for _round in range(n + 1):
            changed = False
            for e in g.edges:
                u0 = usage.get(e.id, 0)
                if u0 == 0:
                    moves = ((e.tail, e.head, 1, 1), (e.head, e.tail, -1, 1))
                elif u0 == 1:
                    moves = ((e.head, e.tail, -1, -1),)
                else:
                    moves = ((e.tail, e.head, 1, -1),)
                for a, b, d, w in moves:
                    if dist[a] + w < dist[b]:
                        dist[b] = dist[a] + w
                        parent[b] = (e.id, d)
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
            edge = g.edge(eid)
            v = edge.tail if d == 1 else edge.head
            steps += 1
            if steps > g.edge_count + 1:
                return None  # stale parent cycle; caller falls back
    return usage


def _biconnected_edge_groups(g: Multigraph, edge_ids) -> list[frozenset[int]]:
    """Blocks (biconnected components) of the subgraph spanned by edge_ids."""
    edge_ids = sorted(set(edge_ids))
    adj: dict[int, list[int]] = {}
    for eid in edge_ids:
        e = g.edge(eid)
        adj.setdefault(e.tail, []).append(eid)
        adj.setdefault(e.head, []).append(eid)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    groups: list[frozenset[int]] = []
    stack_edges: list[int] = []
    timer = 0
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # Iterative DFS, as in bridges(); a frame is (vertex, parent edge, next index).
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent_edge, idx = stack.pop()
            inc = adj[v]
            advanced = False
            while idx < len(inc):
                eid = inc[idx]
                idx += 1
                if eid == parent_edge:
                    continue
                w = g.edge(eid).other_end(v)
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack_edges.append(eid)
                    stack.append((v, parent_edge, idx))
                    stack.append((w, eid, 0))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    stack_edges.append(eid)
                    low[v] = min(low[v], disc[w])
            if not advanced and stack:
                # v finished; its parent frame is on top. Close the block below it.
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    group = []
                    while True:
                        top = stack_edges.pop()
                        group.append(top)
                        if top == parent_edge:
                            break
                    groups.append(frozenset(group))
    return groups


def _chain_via_block_path(g: Multigraph, union_edges, u: int, v: int) -> CircuitChain | None:
    groups = _biconnected_edge_groups(g, union_edges)
    if not groups:
        return None
    vset_of = []
    for grp in groups:
        vs: set[int] = set()
        for eid in grp:
            vs |= set(g.edge(eid).ends)
        vset_of.append(frozenset(vs))
    in_blocks: dict[int, list[int]] = {}
    for i, vs in enumerate(vset_of):
        for w in vs:
            in_blocks.setdefault(w, []).append(i)
    if u not in in_blocks or v not in in_blocks:
        return None
    # Block-cut tree BFS; nodes are ("b", i) and ("v", cut vertex).
    cut_vertices = {w for w, bs in in_blocks.items() if len(bs) > 1}
    start = ("v", u) if u in cut_vertices else ("b", in_blocks[u][0])
    goal = ("v", v) if v in cut_vertices else ("b", in_blocks[v][0])
    parent: dict = {start: None}
    queue = deque([start])
    while queue and goal not in parent:
        node = queue.popleft()
        kind, x = node
        if kind == "b":
            nbrs = [("v", w) for w in sorted(vset_of[x] & cut_vertices)]
        else:
            nbrs = [("b", i) for i in in_blocks[x]]
        for nb in nbrs:
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    if goal not in parent:
        return None
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    block_ids = [x for kind, x in path if kind == "b"]
    circuits = []
    for i in block_ids:
        circ = circuit_from_edge_set(g, groups[i])
        if circ is None:
            return None
        circuits.append(circ)
    if not circuits:
        return None
    return CircuitChain(tuple(circuits))


def _all_circuits(g: Multigraph, cap: int = 20000) -> list[Circuit]:
    """Every circuit of g (anchored at its minimum edge id), up to a count cap."""
    out: list[Circuit] = []
    m = g.edge_count
    for anchor in range(m):
        a = g.edge(anchor)
        # Path from a.head back to a.tail using only edges with larger ids;
        # each circuit shows up exactly once, anchored at its smallest edge.
        stack: list[tuple[int, list[int], list[int]]] = [(a.head, [a.tail, a.head], [anchor])]
        while stack:
            cur, verts, eids = stack.pop()
            for eid in g.incident(cur):
                if eid <= anchor or eid in eids:
                    continue
                w = g.edge(eid).other_end(cur)
                if w == a.tail:
                    out.append(Circuit(tuple(verts), tuple(eids + [eid])))
                    if len(out) > cap:
                        raise InternalDefectError("circuit enumeration cap exceeded")
                elif w not in verts:
                    stack.append((w, verts + [w], eids + [eid]))
    return out


def _chain_via_backtracking(g: Multigraph, u: int, v: int) -> CircuitChain | None:
    circuits = _all_circuits(g)
    order = sorted(range(len(circuits)), key=lambda i: (len(circuits[i]), circuits[i].edges))
    by_vertex: dict[int, list[int]] = {}
    for i in order:
        for w in circuits[i].vertices:
            by_vertex.setdefault(w, []).append(i)

    def extend(chain: list[Circuit], used: set[int], entry: int | None) -> CircuitChain | None:
        cand = CircuitChain(tuple(chain))
        if validate_circuit_chain(g, cand, (u, v)):
            return cand
        if len(chain) >= g.vertex_count:
            return None
        last = chain[-1]
        for w in sorted(last.vertex_set):
            if w == entry or w == u:
                continue
            for ci in by_vertex.get(w, ()):
                nxt = circuits[ci]
                if nxt.vertex_set & used != {w}:
                    continue
                res = extend(chain + [nxt], used | nxt.vertex_set, w)
                if res is not None:
                    return res
        return None

    for ci in by_vertex.get(u, ()):
        first = circuits[ci]
        res = extend([first], set(first.vertex_set), None)
        if res is not None:
            return res
    return None


def find_circuit_chain(g: Multigraph, u: int, v: int) -> CircuitChain:
    """A circuit chain connecting u and v in a 2-edge-connected graph.

    Fast path: union of two edge-disjoint u-v paths of minimum total size,
    decomposed into its block path. Falls back to exhaustive backtracking.
    The result is always validated before it is returned.
    """
    if u == v:
        raise PreconditionError("endpoints must be distinct")
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise PreconditionError("endpoint out of range")
    if not edge_connectivity_at_least(g, 2):
        raise PreconditionError("circuit chain search requires a 2-edge-connected graph")
    usage = _min_two_flow(g, u, v)
    if usage:
        chain = _chain_via_block_path(g, usage.keys(), u, v)
        if chain is not None and validate_circuit_chain(g, chain, (u, v)):
            return chain
    chain = _chain_via_backtracking(g, u, v)
    if chain is not None and validate_circuit_chain(g, chain, (u, v)):
        return chain
    raise InternalDefectError(f"no circuit chain certified between {u} and {v}")


# ---------------------------------------------------------------------------
# Subgraphs and attachable blocks


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


def find_attachable_block(
    g: Multigraph, inside
) -> tuple[frozenset[int], int, int, int, int]:
    """A leaf or isolated edge-block of g minus `inside`, with two attachment edges.

    Returns (block vertex set, e1, e2, b1, b2) where e1 < e2 join `inside` to
    the block and b1, b2 are their distinct endpoints in the block. Errors when
    the vertex-attachment growth step applies instead, or nothing is left.
    """
    inside = frozenset(inside)
    outside = [v for v in range(g.vertex_count) if v not in inside]
    if not outside:
        raise PreconditionError("already spanning: no vertices outside the current subgraph")
    for v in outside:
        to_inside = sum(1 for eid in g.incident(v) if g.edge(eid).other_end(v) in inside)
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
