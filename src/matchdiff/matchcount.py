"""Exact matching counts.

One counting kernel, `frontier_counts`, serves both the full matching
polynomial and the fixed-size counts m_0..m_j: a path-decomposition
("frontier") DP over the left vertices with count vectors truncated at j.
Besides it stands the closed form for complete graphs.  The subset DP and
the ordered-edge DFS in `_kernels_py` are independent test oracles; the
deletion-contraction brute force lives with the tests (`tests/oracles.py`).
The kernel is pure Python on arbitrary-precision ints.

The kernel's state budget, `FRONTIER_STATE_BUDGET`, is the one limit on
counting: neither the graph size nor j is capped.  On seeded samples the
full polynomial fits the budget at r = 3 up to n = 48 per side (6 to 9 s
a graph on a shared 2-vCPU machine) and exceeds it at n = 56; at r = 4 it
fits at n = 28 and exceeds it at n = 32.  Either failure comes within a
few seconds.
"""

from __future__ import annotations

from math import comb, factorial

from ._records import FrozenRecord
from .graphs import BipGraph

# Most DP states `frontier_counts` may hold after any left vertex.  The
# 63-vertex-per-side 12-cage peaks at 122,438 states for m_0..m_5.
FRONTIER_STATE_BUDGET = 1 << 18


class CapExceededError(ValueError):
    pass


class MatchVector(FrozenRecord):
    """Exact matching counts m_0..m_J."""

    __slots__ = __match_args__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def j_max(self) -> int:
        return len(self.counts) - 1

    def validate_regular(self, n: int, r: int) -> None:
        """Invariants forced for an r-regular bipartite source: the closed
        forms of m_0..m_3, which depend on (n, r) alone, and m_i >= 1 for
        i <= n.  On a full vector m_0..m_n they include Newton's
        inequalities, which hold because the matching polynomial is
        real-rooted (Heilmann-Lieb): m_i^2 i (n-i) >= m_{i-1} m_{i+1}
        (i+1) (n-i+1), and for r >= 2 Schrijver's lower bound on perfect
        matchings, m_n >=
        ((r-1)^(r-1) / r^(r-2))^n (J. Combin. Theory Ser. B 72, 1998),
        checked as m_n r^((r-2)n) >= (r-1)^((r-1)n)."""
        m = self.counts
        if m[0] != 1:
            raise AssertionError(f"m_0 = {m[0]} != 1")
        if self.j_max >= 1 and m[1] != n * r:
            raise AssertionError(f"m_1 = {m[1]} != nr = {n * r}")
        # m_2 and m_3 count the 2- and 3-edge sets, less those that share
        # a vertex: 2-stars; then 3-stars, 3-edge paths, and 2-stars with
        # one disjoint edge (a bipartite graph has no triangles)
        closed = {2: comb(n * r, 2) - 2 * n * comb(r, 2),
                  3: comb(n * r, 3) - 2 * n * comb(r, 3)
                  - n * r * (r - 1) ** 2
                  - 2 * n * comb(r, 2) * (n * r - 3 * r + 2)}
        for j, expect in closed.items():
            if self.j_max >= j and m[j] != expect:
                raise AssertionError(
                    f"m_{j} = {m[j]} violates the closed form {expect}")
        for i, c in enumerate(m):
            if i <= n and c < 1:
                raise AssertionError(
                    f"m_{i} = {c} < 1 on a regular bipartite graph")
        if self.j_max == n:
            for i in range(1, n):
                if m[i] ** 2 * i * (n - i) < \
                        m[i - 1] * m[i + 1] * (i + 1) * (n - i + 1):
                    raise AssertionError(
                        f"Newton's inequality fails at m_{i}")
            if r >= 2 and \
                    m[n] * r ** ((r - 2) * n) < (r - 1) ** ((r - 1) * n):
                raise AssertionError(
                    f"m_{n} = {m[n]} is below Schrijver's lower bound")


def _left_order(neigh: list[list[int]], nright: int) -> list[int]:
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


def frontier_counts(neigh: list[list[int]], j_max: int) -> list[int]:
    """Exact matching counts m_0..m_j_max of a bipartite graph given as
    right-neighbour lists of its left vertices (any sizes, any degrees).

    Left vertices are processed in `_left_order`.  A DP state is the set
    of matched right vertices that still have unprocessed neighbours (a
    bitmask); a right vertex leaves every state once its last neighbour is
    processed.  Each state holds its count vector m_0..m_j_max packed into
    one int, field i at bit w*i.  Every coefficient is at most the number
    of matchings, which is below prod(deg_u + 1) < 2^w, so fields never
    carry into each other.  Matching one more edge shifts the vector up by
    one field; whatever lands above j_max is cut off, and a state left with
    nothing is dropped.  Raises CapExceededError when more than
    FRONTIER_STATE_BUDGET states would be held at once."""
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
    budget = FRONTIER_STATE_BUDGET
    states = {0: 1}
    for u in order:
        keep = ~closing[u]
        bits = [1 << v for v in neigh[u]]
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, val in states.items():
            key = mask & keep
            nxt[key] = get(key, 0) + val
            val = (val << w) & top
            if val:
                for bit in bits:
                    if not mask & bit:
                        key = (mask | bit) & keep
                        nxt[key] = get(key, 0) + val
            if len(nxt) > budget:
                raise CapExceededError(
                    f"frontier DP exceeds its budget of {budget} states")
        states = nxt
    total = states[0]
    field = (1 << w) - 1
    return [(total >> (w * i)) & field for i in range(j_max + 1)]


def match_poly_full(g: BipGraph) -> MatchVector:
    """Full matching polynomial m_0..m_n (CapExceededError past the
    frontier budget)."""
    return MatchVector(tuple(frontier_counts(g.adj, g.n)))


def match_count_upto(g: BipGraph, j_max: int) -> MatchVector:
    """Counts m_0..m_j_max, zero beyond n (CapExceededError past the
    frontier budget)."""
    return MatchVector(tuple(frontier_counts(g.adj, j_max)))


def mbar_vector(v: int) -> MatchVector:
    """i-matching counts of the complete graph K_v: v!/((v-2i)! i! 2^i)."""
    if v % 2:
        raise ValueError("v must be even")
    counts = [factorial(v) // (factorial(v - 2 * i) * factorial(i) * 2 ** i)
              for i in range(v // 2 + 1)]
    return MatchVector(tuple(counts))
