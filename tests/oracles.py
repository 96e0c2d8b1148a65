"""Independent reference values that only the tests call: a brute-force
matching count, the list-based frontier plan and the frontier DP keyed by
right-vertex labels, the complete graph's edges, the exact finite-n value
of 1 + K_i and the standard error of a violation fraction."""

from fractions import Fraction
from heapq import heappop, heappush
from math import factorial

from matchdiff.matchcount import CapExceededError, MatchVector


def match_poly_general_bruteforce(nverts: int, edges) -> MatchVector:
    """Deletion-contraction matching counts for an arbitrary small graph:
    m(G) = m(G - e) + x * m(G - endpoints).  Independent validator for the
    complete-graph closed form."""
    if nverts > 10:
        raise CapExceededError("brute force capped at 10 vertices")
    edges = [tuple(e) for e in edges]

    def rec(es: tuple) -> list[int]:
        if not es:
            return [1]
        u, v = es[0]
        without = rec(es[1:])
        using = rec(tuple(e for e in es[1:]
                          if u not in e and v not in e))
        out = [0] * max(len(without), len(using) + 1)
        for i, c in enumerate(without):
            out[i] += c
        for i, c in enumerate(using):
            out[i + 1] += c
        return out

    counts = rec(tuple(edges))
    return MatchVector(tuple(counts))


def left_order(neigh: list[list[int]], nright: int) -> list[int]:
    """Left vertices in greedy minimum-frontier order.

    The frontier is the set of right vertices seen so far that still have
    unprocessed neighbours.  Each step takes the vertex that grows it least
    (new right vertices minus the ones it closes), then the one adding the
    fewest new right vertices, then the lowest index."""
    remaining = [0] * nright
    for row in neigh:
        for v in row:
            remaining[v] += 1
    seen = [False] * nright
    todo = list(range(len(neigh)))
    order = []
    while todo:
        best = None
        for u in todo:
            new = closed = 0
            for v in neigh[u]:
                new += not seen[v]
                closed += remaining[v] == 1
            key = (new - closed, new)
            if best is None or key < best[0]:
                best = (key, u)
        u = best[1]
        todo.remove(u)
        order.append(u)
        for v in neigh[u]:
            seen[v] = True
            remaining[v] -= 1
    return order


def reference_plan(neigh: list[list[int]]) -> tuple[list, int]:
    """The kernel's DP plan on lists: for each left vertex in `left_order`,
    the frontier slots of its neighbours and the slots it closes; and the
    number of slots used.  A right vertex takes the lowest free slot when it
    is first seen and frees it after its last neighbour."""
    nright = 1 + max((v for row in neigh for v in row), default=-1)
    order = left_order(neigh, nright)
    last = [0] * nright
    for u in order:
        for v in neigh[u]:
            last[v] = u
    slot = [-1] * nright
    free: list[int] = []
    nslots = 0
    steps = []
    for u in order:
        slots = []
        for v in neigh[u]:
            p = slot[v]
            if p < 0:
                if free:
                    p = heappop(free)
                else:
                    p = nslots
                    nslots += 1
                slot[v] = p
            slots.append(p)
        closes = [slot[v] for v in dict.fromkeys(neigh[u]) if last[v] == u]
        for p in closes:
            heappush(free, p)
        steps.append((slots, closes))
    return steps, nslots


def frontier_by_vertex(neigh: list[list[int]],
                       j_max: int) -> tuple[list[int], int]:
    """Counts m_0..m_j_max by the frontier DP with states keyed by
    right-vertex labels (no slots, no packed table), and the most states it
    holds after any left vertex: the reference for the kernel's budget
    decision."""
    nright = 1 + max((v for row in neigh for v in row), default=-1)
    order = left_order(neigh, nright)
    closing = dict.fromkeys(order, 0)
    last = {v: u for u in order for v in neigh[u]}
    for v, u in last.items():
        closing[u] |= 1 << v
    bound = 1
    for row in neigh:
        bound *= len(row) + 1
    w = bound.bit_length()
    top = (1 << (w * (j_max + 1))) - 1
    states = {0: 1}
    peak = 0
    for u in order:
        keep = ~closing[u]
        nxt: dict[int, int] = {}
        for mask, val in states.items():
            key = mask & keep
            nxt[key] = nxt.get(key, 0) + val
            val = (val << w) & top
            if val:
                for v in neigh[u]:
                    if not mask >> v & 1:
                        key = (mask | 1 << v) & keep
                        nxt[key] = nxt.get(key, 0) + val
        states = nxt
        peak = max(peak, len(states))
    total = states[0]
    return [(total >> (w * i)) & ((1 << w) - 1)
            for i in range(j_max + 1)], peak


def complete_graph_edges(v: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(v) for b in range(a + 1, v)]


def k_exact(v: int, i: int) -> Fraction:
    """Finite-n value of 1 + K_i = (v-1)^i 2^i n^i (v-2i)!/v! with n = v/2."""
    if v % 2:
        raise ValueError("v must be even")
    n = v // 2
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= v/2, got i={i}, v={v}")
    return Fraction((v - 1) ** i * 2 ** i * n ** i * factorial(v - 2 * i),
                    factorial(v))


def p_violation_se(stats) -> float:
    """Binomial standard error of the violation fraction of an
    `EnsembleStats`."""
    p = float(stats.p_violation)
    return (p * (1 - p) / stats.samples) ** 0.5
