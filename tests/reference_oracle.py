"""Test-only references for the exact rich flow number.

``reference_rich_flow_number`` is the plain backtracking search the oracle
started from: it tries every k from 2 upwards and both signs on every edge,
with no lower bound from the chromatic index and no symmetry breaking.

``unpruned_rich_flow_search`` is the oracle's kernel as it was before it
pruned on each vertex's unused values and conservation parity: the same
search order, recursive, testing a vertex only once all its edges are
decided. The pruned kernel must return the same list wherever it finishes,
in no more nodes.

Tests compare the oracle's faster search against both wherever they finish
within their node budgets.
"""

from __future__ import annotations

from richflow import Multigraph


class ReferenceBudgetExhausted(Exception):
    pass


class _Nodes:
    def __init__(self, limit: int) -> None:
        self.count = 0
        self.limit = limit

    def tick(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise ReferenceBudgetExhausted


def _rich_flow_search(g: Multigraph, k: int, nodes: _Nodes) -> list[int] | None:
    m = g.edge_count
    n = g.vertex_count
    if m == 0:
        return []
    degsum = [g.degree(e.tail) + g.degree(e.head) for e in g.edges]
    order = sorted(range(m), key=lambda e: (-degsum[e], e))
    adjacent: list[list[int]] = [[] for _ in range(m)]
    for v in range(n):
        inc = g.incident(v)
        for i, e in enumerate(inc):
            for f in inc[i + 1 :]:
                adjacent[e].append(f)
                adjacent[f].append(e)
    vals: list[int | None] = [None] * m
    acc = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    domain = []
    for a in range(1, k):
        domain.extend((a, -a))

    def sign_at(eid: int, v: int) -> int:
        return 1 if g.edge(eid).tail == v else -1

    def place(eid: int, value: int, trail: list[int]) -> bool:
        nodes.tick()
        if value == 0 or abs(value) >= k:
            return False
        for f in adjacent[eid]:
            fv = vals[f]
            if fv is not None and abs(fv) == abs(value):
                return False
        vals[eid] = value
        trail.append(eid)
        edge = g.edge(eid)
        for v in edge.ends:
            acc[v] += sign_at(eid, v) * value
            undecided[v] -= 1
        for v in edge.ends:
            if undecided[v] == 0 and acc[v] != 0:
                return False
        for v in edge.ends:
            if undecided[v] == 1:
                forced = next(f for f in g.incident(v) if vals[f] is None)
                if not place(forced, -acc[v] * sign_at(forced, v), trail):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        while trail:
            eid = trail.pop()
            value = vals[eid]
            vals[eid] = None
            for v in g.edge(eid).ends:
                acc[v] -= sign_at(eid, v) * value
                undecided[v] += 1

    def solve(pos: int) -> bool:
        while pos < m and vals[order[pos]] is not None:
            pos += 1
        if pos == m:
            return True
        eid = order[pos]
        trail: list[int] = []
        for value in domain:
            if place(eid, value, trail) and solve(pos + 1):
                return True
            undo(trail)
        return False

    if solve(0):
        return list(vals)
    return None


def unpruned_rich_flow_search(g: Multigraph, k: int, budget) -> list[int] | None:
    """The unpruned kernel; ``budget.tick()`` is called once per placement."""
    m = g.edge_count
    n = g.vertex_count
    if m == 0:
        return []
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    degree = [g.degree(v) for v in range(n)]
    order = sorted(range(m), key=lambda e: (-degree[tails[e]] - degree[heads[e]], e))
    vals = [0] * m
    acc = [0] * n
    undecided = degree[:]
    free = [0] * n
    for eid in range(m):
        free[tails[eid]] ^= eid
        free[heads[eid]] ^= eid
    used = [0] * n
    domain = []
    for a in range(1, k):
        domain.extend((a, -a))
    tick = budget.tick

    def place(eid: int, value: int, trail: list[int]) -> bool:
        tick()
        a = value if value > 0 else -value
        if a == 0 or a >= k:
            return False
        bit = 1 << a
        t = tails[eid]
        h = heads[eid]
        if (used[t] | used[h]) & bit:
            return False
        vals[eid] = value
        trail.append(eid)
        used[t] |= bit
        used[h] |= bit
        acc[t] += value
        acc[h] -= value
        free[t] ^= eid
        free[h] ^= eid
        undecided[t] -= 1
        undecided[h] -= 1
        if (undecided[t] == 0 and acc[t]) or (undecided[h] == 0 and acc[h]):
            return False
        for v in (t, h):
            if undecided[v] == 1:
                forced = free[v]
                if not place(forced, -acc[v] if tails[forced] == v else acc[v], trail):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        while trail:
            eid = trail.pop()
            value = vals[eid]
            vals[eid] = 0
            bit = 1 << (value if value > 0 else -value)
            t = tails[eid]
            h = heads[eid]
            used[t] ^= bit
            used[h] ^= bit
            acc[t] -= value
            acc[h] += value
            free[t] ^= eid
            free[h] ^= eid
            undecided[t] += 1
            undecided[h] += 1

    def solve(pos: int) -> bool:
        while pos < m and vals[order[pos]]:
            pos += 1
        if pos == m:
            return True
        eid = order[pos]
        trail: list[int] = []
        for value in range(1, k) if pos == 0 else domain:
            if place(eid, value, trail) and solve(pos + 1):
                return True
            undo(trail)
        return False

    if solve(0):
        return vals
    return None


def reference_rich_flow_number(g: Multigraph, k_max: int, node_limit: int) -> int | None:
    """Least k <= k_max admitting a rich k-flow, for an admissible g; None when
    the node limit runs out or no k <= k_max works."""
    nodes = _Nodes(node_limit)
    for k in range(2, k_max + 1):
        try:
            if _rich_flow_search(g, k, nodes) is not None:
                return k
        except ReferenceBudgetExhausted:
            return None
    return None
