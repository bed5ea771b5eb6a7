"""Exact enumeration of conserved flows over a spanning-tree/co-tree basis.

Free values on the co-tree edges determine tree-edge values through the
fundamental circuits, so every assignment is conserved by construction. The
search backtracks over co-tree values and prunes as soon as a tree edge whose
contributors are all fixed lands on a forbidden value.
"""

from __future__ import annotations

import time
from collections import deque

from .errors import BudgetExhaustedError
from .flowalg import Flow, GroupTag, cyclic_values
from .multigraph import Multigraph


def spanning_forest(g: Multigraph) -> tuple[frozenset[int], list[int]]:
    """(tree edge ids, co-tree edge ids ascending); BFS with lowest ids first."""
    seen = [False] * g.vertex_count
    tree: set[int] = set()
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid in g.incident(v):
                w = g.edge(eid).other_end(v)
                if not seen[w]:
                    seen[w] = True
                    tree.add(eid)
                    queue.append(w)
    co = [e for e in range(g.edge_count) if e not in tree]
    return frozenset(tree), co


def fundamental_circuit_signs(
    g: Multigraph, tree: frozenset[int], co_edge: int
) -> list[tuple[int, int]]:
    """Tree edges of the fundamental circuit of co_edge, each with its sign.

    The circuit is traversed along co_edge's reference orientation; a tree
    edge gets +1 when traversed tail -> head.
    """
    e = g.edge(co_edge)
    parent: dict[int, tuple[int, int]] = {}
    seen = {e.head}
    queue = deque([e.head])
    while queue and e.tail not in seen:
        v = queue.popleft()
        for eid in g.incident(v):
            if eid not in tree:
                continue
            w = g.edge(eid).other_end(v)
            if w not in seen:
                seen.add(w)
                parent[w] = (v, eid)
                queue.append(w)
    out = []
    cur = e.tail
    while cur != e.head:
        pv, pe = parent[cur]
        # Path runs head -> ... -> tail; this step is traversed pv -> cur.
        sign = 1 if g.edge(pe).ends == (pv, cur) else -1
        out.append((pe, sign))
        cur = pv
    out.reverse()
    return out


def cotree_flow_search(
    g: Multigraph,
    group: GroupTag,
    *,
    node_limit: int | None = None,
    deadline: float | None = None,
) -> Flow | None:
    """Some conserved nowhere-zero flow over the group, or None if none exists.

    Raises BudgetExhaustedError when a limit cuts the search short, so None
    always means proven non-existence.
    """
    m = g.edge_count
    if m == 0:
        return Flow(g, group, ())
    tree, co = spanning_forest(g)
    members: dict[int, list[tuple[int, int]]] = {co_e: fundamental_circuit_signs(g, tree, co_e) for co_e in co}
    remaining = {t: 0 for t in tree}
    for co_e in co:
        for t, _ in members[co_e]:
            remaining[t] += 1
    if any(count == 0 for count in remaining.values()):
        return None  # a tree edge in no circuit is a bridge; it would stay zero
    # Values are plain integers mod `mod` (see flowalg.cyclic_values), or
    # bounded integers when mod is None; the domain keeps the group's order.
    bound = group.bound
    if group.kind == "int":
        domain = []
        for a in range(1, bound):
            domain.extend((a, -a))
        mod = None
    else:
        domain, mod = cyclic_values(group, group.nonzero_elements())
    tree_val = {t: 0 for t in tree}
    finalized: list = [None] * m
    nodes = 0
    # Depth-first over co-tree positions with an explicit stack: next_try[d]
    # is the domain index to try next at depth d, and trail[d] holds the
    # (tree edge, delta) pairs and finalized tree edges of the value placed there.
    next_try = [0] * len(co)
    trail: list[tuple[list[tuple[int, int]], list[int]]] = []
    depth = 0
    while depth >= 0:
        if depth == len(co):
            if group.kind == "zkxz2":
                return Flow(g, group, tuple((x, x) for x in finalized))  # (x mod k, x mod 2)
            return Flow(g, group, tuple(finalized))
        co_e = co[depth]
        if len(trail) > depth:  # retract the value placed at this depth
            touched, done = trail.pop()
            for t in done:
                finalized[t] = None
            for t, delta in touched:
                tree_val[t] -= delta
                remaining[t] += 1
            finalized[co_e] = None
        if next_try[depth] == len(domain):
            next_try[depth] = 0
            depth -= 1
            continue
        val = domain[next_try[depth]]
        next_try[depth] += 1
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise BudgetExhaustedError("co-tree search node limit reached")
        if deadline is not None and nodes % 512 == 0 and time.monotonic() > deadline:
            raise BudgetExhaustedError("co-tree search time limit reached")
        finalized[co_e] = val
        touched, done = [], []
        trail.append((touched, done))
        ok = True
        for t, sign in members[co_e]:
            delta = sign * val
            tree_val[t] += delta
            remaining[t] -= 1
            touched.append((t, delta))
            if remaining[t] == 0:
                tv = tree_val[t] if mod is None else tree_val[t] % mod
                if tv == 0 or (mod is None and abs(tv) >= bound):
                    ok = False
                    break
                finalized[t] = tv
                done.append(t)
        if ok:
            depth += 1
    return None
