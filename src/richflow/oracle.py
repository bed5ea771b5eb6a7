"""Independent brute-force ground truth: exact rich flow numbers, nowhere-zero
flow existence over the supported groups, and exact chromatic index.

The rich-flow search assigns integer edge values directly with vertex
conservation propagated as soon as only one incident edge is undecided, so it
shares no code path with the constructive synthesis it is used to check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import cotree
from .errors import BudgetExhaustedError, InternalDefectError, PreconditionError
from .flowalg import Flow, GroupTag, is_rich, verify_flow
from .multigraph import Multigraph, is_rich_flow_admissible


@dataclass(frozen=True)
class SearchBudget:
    k_max: int = 16
    node_limit: int = 5_000_000
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.k_max < 2 or self.node_limit <= 0:
            raise PreconditionError("budget fields must be positive (k_max >= 2)")
        # A NaN or infinite limit would leave every search deadline unreachable.
        if not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise PreconditionError(
                f"time limit must be finite and positive, got {self.time_limit!r}"
            )


@dataclass(frozen=True)
class ExactResult:
    value: int | None
    status: str  # "exact" | "exhausted_budget"
    witness: object | None


class _Budget:
    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget) -> None:
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise BudgetExhaustedError("node limit reached")
        if self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise BudgetExhaustedError("time limit reached")


def _signed_sums(avail: int, left: int, offset: int) -> int:
    """Bitmask of every sum +-a_1 +- ... +- a_left over ``left`` distinct
    values a_i, taken from the bits set in ``avail``; bit s + offset stands
    for sum s, so offset must be at least the sum of avail's values."""
    layers = [1 << offset] + [0] * left  # layers[j]: the sums of j values
    while avail:
        a = (avail & -avail).bit_length() - 1
        avail &= avail - 1
        for j in range(left, 0, -1):
            prev = layers[j - 1]
            if prev:
                layers[j] |= prev << a | prev >> a
    return layers[left]


def _rich_flow_search(g: Multigraph, k: int, budget: _Budget) -> list[int] | None:
    """Backtracking over integer edge values in +-{1..k-1} with conservation
    propagation and adjacent-absolute pruning. None means proven infeasible.

    The first edge in search order only takes positive values: negating a
    rich flow gives a rich flow, so this loses no solution.

    After each placement, an endpoint v with ``left`` undecided edges fails
    unless some ``left`` distinct unused absolute values, signed, sum to the
    vertex's decided signed sum ``acc[v]``, as conservation requires. The
    sets of such sums are memoised by (unused values, left).

    Parallel edges can swap values, negated where their orientations
    differ, so within each bundle of parallel edges only absolute values
    that strictly increase with edge id are searched: the edge at index i
    (from 0) of a bundle of p takes |value| in i+1..k-p+i, above its decided
    lower bundle members and below its higher ones. The first witness stays the one found without
    this rule. For parallel e < f, e is decided first, by branching: edges
    are branched on by (-degree sum, id), and neither can be forced while
    the other is undecided. Had that witness |e| > |f|, the swapped flow
    (negated if e is the positive-only first edge) would agree with it up to
    e's branch and take a smaller absolute value there, tried earlier, so a
    solution would have been found before it.

    Both the search and the propagation are loops, not recursion, so no
    graph size reaches Python's recursion limit."""
    m = g.edge_count
    n = g.vertex_count
    if m == 0:
        return []
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    degree = [g.degree(v) for v in range(n)]
    order = sorted(range(m), key=lambda e: (-degree[tails[e]] - degree[heads[e]], e))
    vals = [0] * m  # 0 marks an undecided edge; placed values are never 0
    acc = [0] * n  # signed sum of decided incident values (tail positive)
    undecided = degree[:]
    # XOR of the undecided incident edge ids: the forced edge once one is left.
    free = [0] * n
    for eid in range(m):
        free[tails[eid]] ^= eid
        free[heads[eid]] ^= eid
    # Bit a is set when a decided incident edge carries absolute value a.
    used = [0] * n
    every = (1 << k) - 2  # bits 1..k-1
    offset = k * (k - 1) // 2
    reach: dict[int, int] = {}  # left << k | avail -> _signed_sums bitmask
    # The parallel edges of each edge, itself included, ascending.
    bundles: dict[tuple[int, ...], list[int]] = {}
    bundle_of = [bundles.setdefault(tuple(sorted(e.ends)), []) for e in g.edges]
    for eid, bundle in enumerate(bundle_of):
        bundle.append(eid)
    lowest = [bundle.index(eid) + 1 for eid, bundle in enumerate(bundle_of)]
    highest = [k - len(bundle) + low - 1 for bundle, low in zip(bundle_of, lowest)]
    domain = [s * a for a in range(1, k) for s in (1, -1)]
    choices = [domain[2 * lowest[eid] - 2 : 2 * highest[eid]] for eid in order]
    choices[0] = choices[0][::2]  # the first edge: positive values only
    trail: list[int] = []  # placed edges, in placement order
    tick = budget.tick

    def place(eid: int, value: int) -> bool:
        """Puts value on eid, then every value conservation forces, depth
        first from the tail's side; False when some placement fails."""
        pending: list[int] = []  # endpoints still to test for a forced edge
        while True:
            tick()
            a = value if value > 0 else -value
            if not lowest[eid] <= a <= highest[eid]:
                return False
            bit = 1 << a
            t = tails[eid]
            h = heads[eid]
            if (used[t] | used[h]) & bit:
                return False
            for f in bundle_of[eid]:
                if vals[f] and (f < eid) != (abs(vals[f]) < a):
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
            for v in (t, h):
                key = undecided[v] << k | (every & ~used[v])
                sums = reach.get(key)
                if sums is None:
                    sums = reach[key] = _signed_sums(key & every, undecided[v], offset)
                if not sums >> (acc[v] + offset) & 1:
                    return False
            pending.append(h)
            pending.append(t)
            while pending:
                v = pending.pop()
                if undecided[v] == 1:
                    eid = free[v]
                    value = -acc[v] if tails[eid] == v else acc[v]
                    break
            else:
                return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
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

    # One frame per branching edge: [position in order, index of its next
    # value, trail length before its first value].
    frames: list[list[int]] = []
    pos = 0
    while True:
        while pos < m and vals[order[pos]]:
            pos += 1
        if pos == m:
            return vals
        frames.append([pos, 0, len(trail)])
        while frames:
            frame = frames[-1]
            pos, index, mark = frame
            undo(mark)
            values = choices[pos]
            if index == len(values):
                frames.pop()
                continue
            frame[1] = index + 1
            if place(order[pos], values[index]):
                pos += 1
                break
        else:
            return None


def exact_rich_flow_number(
    g: Multigraph, budget: SearchBudget | None = None, *, chi_prime: int | None = None
) -> ExactResult:
    """Least k admitting a rich k-flow, with a verified witness.

    Inadmissible graphs get an exact empty result (the two admissibility
    obstructions are the only ones). In a rich k-flow the absolute values
    properly edge-colour G with k-1 colours, so k <= chi' is ruled out by that
    argument rather than by search: the k loop starts at ``chi_prime + 1``
    when the caller passes the exact chromatic index, and at Delta+1
    otherwise. Every k the loop does try and reject is proved infeasible by
    exhaustion, never assumed; that search fixes the first edge's sign, since
    negating a rich flow gives another.

    Two cuts prune that search without changing its order: a vertex whose
    undecided edges cannot take distinct unused absolute values with signs
    that cancel its decided sum ends the branch, and parallel edges take
    absolute values increasing with edge id, since they can swap values
    (``_rich_flow_search`` proves the first witness is kept). So every
    result found without them is found again with the same witness, in no
    more nodes, and more graphs resolve within a node budget; ``batch``
    fills ``exact_R`` on more rows, and every value it filled before is
    unchanged.
    """
    budget = budget or SearchBudget()
    delta = g.max_degree()
    if chi_prime is not None and chi_prime < delta:
        raise PreconditionError(f"chi_prime {chi_prime} is below the maximum degree {delta}")
    if not is_rich_flow_admissible(g).admissible:
        return ExactResult(None, "exact", None)
    state = _Budget(budget)
    lowest = max(2, (delta if chi_prime is None else chi_prime) + 1)
    for k in range(lowest, budget.k_max + 1):
        try:
            vals = _rich_flow_search(g, k, state)
        except BudgetExhaustedError:
            return ExactResult(None, "exhausted_budget", None)
        if vals is not None:
            flow = Flow(g, GroupTag.integers(k), tuple(vals))
            if not is_rich(g, flow):
                raise InternalDefectError("search produced a non-rich witness")
            return ExactResult(k, "exact", flow)
    return ExactResult(None, "exhausted_budget", None)


def brute_force_flow(
    g: Multigraph,
    group: GroupTag,
    budget: SearchBudget | None = None,
) -> Flow | None:
    """Some conserved nowhere-zero flow over Z_k, Z_2 or Z_6 by co-tree
    enumeration; other groups raise PreconditionError.

    None only when exhaustive search proves non-existence; budget exhaustion
    raises instead of making a false claim. Rich flows come from
    ``exact_rich_flow_number``.
    """
    flow = cotree.cotree_flow_search(g, group, tick=_Budget(budget or SearchBudget()).tick)
    if flow is not None:
        rep = verify_flow(g, flow)
        if not (rep.conserved and rep.nowhere_zero):
            raise InternalDefectError("co-tree search produced an invalid flow")
    return flow


def chromatic_index(g: Multigraph, budget: SearchBudget | None = None) -> ExactResult:
    """Exact chromatic index by backtracking edge coloring, fewest colors first."""
    budget = budget or SearchBudget()
    m = g.edge_count
    if m == 0:
        return ExactResult(0, "exact", ())
    delta = g.max_degree()
    state = _Budget(budget)
    degsum = [g.degree(e.tail) + g.degree(e.head) for e in g.edges]
    order = sorted(range(m), key=lambda e: (-degsum[e], e))
    shannon = (3 * delta) // 2

    def try_colors(color_count: int) -> tuple[int, ...] | None:
        """Depth-first over the edges in order, a loop rather than recursion;
        edge order[pos] takes colours up to one above the highest colour on
        order[:pos], which is highest[pos]."""
        colors: list[int | None] = [None] * m
        used: list[set[int]] = [set() for _ in range(g.vertex_count)]
        highest = [0] * (m + 1)
        pos = 0
        c = 1  # the next colour to try on order[pos]
        while pos < m:
            edge = g.edge(order[pos])
            limit = min(color_count, highest[pos] + 1)
            while c <= limit:
                state.tick()
                if c not in used[edge.tail] and c not in used[edge.head]:
                    break
                c += 1
            if c <= limit:
                colors[edge.id] = c
                used[edge.tail].add(c)
                used[edge.head].add(c)
                highest[pos + 1] = max(highest[pos], c)
                pos += 1
                c = 1
                continue
            if pos == 0:
                return None
            pos -= 1
            edge = g.edge(order[pos])
            c = colors[edge.id]
            colors[edge.id] = None
            used[edge.tail].discard(c)
            used[edge.head].discard(c)
            c += 1
        return tuple(colors)

    for count in range(delta, shannon + 1):
        try:
            coloring = try_colors(count)
        except BudgetExhaustedError:
            return ExactResult(None, "exhausted_budget", None)
        if coloring is not None:
            for v in range(g.vertex_count):
                seen = [coloring[e] for e in g.incident(v)]
                if len(seen) != len(set(seen)):
                    raise InternalDefectError("improper edge coloring produced")
            return ExactResult(count, "exact", coloring)
    raise InternalDefectError("no coloring found within the multigraph upper bound")
