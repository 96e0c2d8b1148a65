"""Independent reference values that only the tests call: a brute-force
matching count, the frontier DP keyed by right-vertex labels, the complete
graph's edges, the exact finite-n value of 1 + K_i and the standard error
of a violation fraction."""

from fractions import Fraction
from math import factorial

from matchdiff.matchcount import CapExceededError, MatchVector, _left_order


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


def frontier_by_vertex(neigh: list[list[int]],
                       j_max: int) -> tuple[list[int], int]:
    """Counts m_0..m_j_max by the frontier DP with states keyed by
    right-vertex labels (no slots, no packed table), and the most states it
    holds after any left vertex: the reference for the kernel's budget
    decision."""
    nright = 1 + max((v for row in neigh for v in row), default=-1)
    order = _left_order(neigh, nright)
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
