"""Exact search for nowhere-zero flows over the cyclic groups Z_k (odd k >= 3),
Z_2 and Z_6: those `oracle-nz` names and the one the synthesis Z_6 step needs.
Integer flows are lifted from these (`flowalg.modular_to_integer`).

Over the basis of `multigraph.spanning_forest`, free values on the co-tree
edges determine tree-edge values through the fundamental circuits, so every
assignment is conserved by construction. The search backtracks over co-tree
values and prunes as soon as a tree edge whose contributors are all fixed
lands on zero. An optional `tick`, called once per search node, bounds it.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import PreconditionError
from .flowalg import Flow, GroupTag
from .multigraph import Multigraph, spanning_forest


def fundamental_circuit_signs(g: Multigraph, up, depth, co_edge: int) -> list[tuple[int, int]]:
    """Tree edges of the fundamental circuit of co_edge, each with its sign.

    The circuit is traversed along co_edge's reference orientation, so its
    tree part is the tree path head -> tail, walked up `spanning_forest`'s
    rooted forest from both ends, deeper end first, until they meet; a tree
    edge gets +1 when traversed tail -> head.
    """
    edges = g.edges
    u, v = edges[co_edge].head, edges[co_edge].tail
    from_head, from_tail = [], []
    while u != v:
        if depth[u] >= depth[v]:
            t = edges[up[u]]
            from_head.append((t.id, 1 if t.tail == u else -1))
            u = t.other_end(u)
        else:
            t = edges[up[v]]
            from_tail.append((t.id, 1 if t.head == v else -1))
            v = t.other_end(v)
    return from_head + from_tail[::-1]


def cotree_flow_search(
    g: Multigraph, group: GroupTag, *, tick: Callable[[], None] | None = None
) -> Flow | None:
    """Some conserved nowhere-zero flow over Z_k, Z_2 or Z_6, or None if none exists.

    Other groups raise PreconditionError. `tick` is called once per search
    node; when it raises BudgetExhaustedError the search stops, so None
    always means proven non-existence.
    """
    if group.kind not in ("zk", "z2", "z6"):
        raise PreconditionError(f"co-tree search takes Z_k, Z_2 or Z_6, not {group.kind!r}")
    tree, co, up, depth = spanning_forest(g)
    members = {co_e: fundamental_circuit_signs(g, up, depth, co_e) for co_e in co}
    remaining = {t: 0 for t in tree}
    for co_e in co:
        for t, _ in members[co_e]:
            remaining[t] += 1
    if any(count == 0 for count in remaining.values()):
        return None  # a tree edge in no circuit is a bridge; it would stay zero
    mod = group.modulus
    domain = range(1, mod)
    tree_val = {t: 0 for t in tree}
    finalized: list = [None] * g.edge_count
    # Depth-first over co-tree positions with an explicit stack: next_try[i]
    # is the domain index to try next at position i, and trail[i] holds the
    # (tree edge, delta) pairs and finalized tree edges of the value placed there.
    next_try = [0] * len(co)
    trail: list[tuple[list[tuple[int, int]], list[int]]] = []
    pos = 0
    while pos >= 0:
        if pos == len(co):
            return Flow(g, group, tuple(finalized))
        co_e = co[pos]
        if len(trail) > pos:  # retract the value placed at this position
            touched, done = trail.pop()
            for t in done:
                finalized[t] = None
            for t, delta in touched:
                tree_val[t] -= delta
                remaining[t] += 1
            finalized[co_e] = None
        if next_try[pos] == len(domain):
            next_try[pos] = 0
            pos -= 1
            continue
        val = domain[next_try[pos]]
        next_try[pos] += 1
        if tick is not None:
            tick()
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
                tv = tree_val[t] % mod
                if tv == 0:
                    ok = False
                    break
                finalized[t] = tv
                done.append(t)
        if ok:
            pos += 1
    return None
