"""Exact matching counts.

One counting kernel, `frontier_counts`, serves both the full matching
polynomial and the fixed-size counts m_0..m_j: a path-decomposition
("frontier") DP over the left vertices with count vectors truncated at j.
Besides it stands the closed form for complete graphs.  The subset DP and
the ordered-edge DFS in `_kernels_py` are independent test oracles; the
deletion-contraction brute force and the DP keyed by right-vertex labels
live with the tests (`tests/oracles.py`).  The kernel is pure Python on
arbitrary-precision ints.

The kernel runs one plan (`_plan`), made in one pass over right-vertex
bitmasks: the left vertices in greedy minimum-frontier order, and a
frontier slot for each right vertex, the lowest one free when the vertex
is first seen, freed after its last neighbour.  The same pass picks each
vertex, assigns its slots and finds the slots it closes.  On seeded
r = 3 graphs (best of 40 passes over 25 graphs, shared 2-vCPU machine) it
takes 11 us a graph at n = 6 and 27-28 us at n = 12, against 18-20 and
44-47 us for a list-based order followed by a slot pass (the reference
kept in `tests/oracles.py`).  Its table of count vectors,
one per set of matched slots, has two layouts.  The packed one holds all
2^F entries of the F slots in a single int and updates it with a few
whole-int mask, shift and add operations per left vertex; the dict one
holds only the sets that have a count.  The input chooses: the packed
layout when no count can be cut off (j_max at least the number of left
vertices), the table has at most `DENSE_BITS` bits and 2^F states are
within the budget; the dict layout otherwise, which covers every truncated
count and the wide frontiers.  On the default Monte Carlo grid (r = 3,
n <= 12, 2000 samples a size) F is 3 to 9 and the table at most 20 KiB,
and the packed layout counts a graph about twice as fast as the dict
one.  On seeded
full polynomials (three graphs a size, shared 2-vCPU machine) the packed
layout took 0.29-0.47 of the dict one's time at r = 3, n = 12 (5 KiB)
and r = 4, n = 12 (23 KiB), 0.68-0.92 at r = 3, n = 20 (27-108 KiB),
and 1.2-1.6 times it from about 150 KiB on (r = 3, n = 24; r = 4, n = 16
and 20); `DENSE_BITS` is 2^20 bits, 128 KiB, at that crossover.

The kernel's state budget, `FRONTIER_STATE_BUDGET`, is the one limit on
counting: neither the graph size nor j is capped, and the packed layout
never holds more states than the budget.  The table holds at most 2^F
sets for a plan of F frontier slots, so a graph with F <= 18 always
counts, and F, not n, sets the limit: it grows with n and differs between
graphs of one size (40 seeded graphs at r = 3, n = 48: median 18, 9 at
F >= 19, and `simulate --samples 40` exits 3 there; r = 4, n = 28: F up to 20).
"""

from __future__ import annotations

import functools
from heapq import heappop, heappush
from math import comb, factorial

from ._records import FrozenRecord
from .graphs import BipGraph

# Most DP states `frontier_counts` may hold after any left vertex.  The
# 63-vertex-per-side 12-cage peaks at 122,438 states for m_0..m_5.
FRONTIER_STATE_BUDGET = 1 << 18

# Most bits the packed layout's table may take: 2^F entries of
# w*(j_max + 1) bits each, F the number of frontier slots.
DENSE_BITS = 1 << 20


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


def _plan(neigh: list[list[int]]) -> tuple[list, int]:
    """The DP plan: the left vertices in greedy minimum-frontier order,
    each with the frontier slots of its neighbours and the slots it closes;
    and the number of slots used.

    The frontier is the set of right vertices seen so far that still have
    unprocessed neighbours.  Each step takes the vertex that grows it least
    (new right vertices minus the ones it closes), then the one adding the
    fewest new right vertices, then the lowest index.  Rows are right-vertex
    bitmasks: a row's new vertices are its bits in `unseen`, the ones it
    closes its bits in `one` (a single unprocessed neighbour left), and the
    key (new - closed) * (nright + 1) + new orders as the pair does, since
    new <= nright.  A right vertex takes the lowest free slot when it is
    first seen and frees it after its last neighbour, found as its count of
    unprocessed neighbours drops to zero."""
    nright = 1 + max((v for row in neigh for v in row), default=-1)
    remaining = [0] * nright
    todo = {}
    for u, row in enumerate(neigh):
        m = 0
        for v in row:
            remaining[v] += 1
            m |= 1 << v
        todo[u] = m
    one = sum(1 << v for v, c in enumerate(remaining) if c == 1)
    k0 = nright + 1
    k1 = k0 + 1
    above = k0 * k1  # above every key
    unseen = (1 << nright) - 1
    slot = [-1] * nright
    free: list[int] = []
    nslots = 0
    steps = []
    while todo:
        best = above
        for x, m in todo.items():  # ascending index: ties keep the lowest
            key = (m & unseen).bit_count() * k1 - (m & one).bit_count() * k0
            if key < best:
                best, u = key, x
        unseen &= ~todo.pop(u)
        slots = []
        closes = []
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
            c = remaining[v] = remaining[v] - 1
            if c == 1:
                one |= 1 << v
            elif not c:
                closes.append(p)
        for p in closes:
            heappush(free, p)
        steps.append((slots, closes))
    return steps, nslots


@functools.lru_cache(maxsize=16)
def _clear_masks(width: int, nslots: int) -> tuple[int, ...]:
    """Z[p] for p < nslots: all ones in each `width`-bit entry S < 2^nslots
    whose bit p is clear, zeros elsewhere; built by doubling.  The full
    counts of the default grid (r = 3, n = 6..12) ask for 4 or 5 distinct
    (width, nslots) a size, 18 in all; an entry takes at most
    nslots * DENSE_BITS bits."""
    size = width << nslots
    masks = []
    for p in range(nslots):
        z = (1 << (width << p)) - 1
        span = width << (p + 1)
        while span < size:
            z |= z << span
            span <<= 1
        masks.append(z)
    return tuple(masks)


def _packed_table(steps: list, nslots: int, w: int, width: int) -> int:
    """The whole DP table as one int: entry S, a set of slots, at bit
    width*S.  Matching u to slot p moves every entry without p up to S|p,
    one field higher; closing p folds entry S|p into S."""
    z = _clear_masks(width, nslots)
    a = 1
    for slots, closes in steps:
        acc = a
        for p in slots:
            acc += (a & z[p]) << ((width << p) + w)
        a = acc
        for p in closes:
            zp = z[p]
            a = (a & zp) + ((a >> (width << p)) & zp)
    return a


def _dict_table(steps: list, w: int, width: int) -> int:
    """The DP table as a dict from slot sets to count vectors, holding only
    the states with a count; fields above j_max are cut off."""
    top = (1 << width) - 1
    budget = FRONTIER_STATE_BUDGET
    states = {0: 1}
    for slots, closes in steps:
        keep = ~sum(1 << p for p in closes)
        bits = [1 << p for p in slots]
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
    return states[0]


def frontier_counts(neigh: list[list[int]], j_max: int) -> list[int]:
    """Exact matching counts m_0..m_j_max of a bipartite graph given as
    right-neighbour lists of its left vertices (any sizes, any degrees).

    `_plan` orders the left vertices greedily and gives each right vertex
    a frontier slot, in one pass over right-vertex bitmasks.  A DP state is
    the set of slots of the matched right vertices that still have
    unprocessed neighbours; a slot leaves every state once its vertex's
    last neighbour is processed.  Each state holds its count vector
    m_0..m_j_max packed into one int, field i at bit w*i.  Every
    coefficient is at most the number of matchings, which is below
    prod(deg_u + 1) < 2^w, so fields never carry into each other.
    Matching one more edge shifts the vector up by one field.

    Two layouts hold the same table.  The packed one (`_packed_table`)
    keeps all 2^F entries of the F slots in one int; it is used when no
    count can be cut off (j_max >= the number of left vertices, so no
    field is shifted past j_max), the table has at most DENSE_BITS bits
    and 2^F is within FRONTIER_STATE_BUDGET.  Otherwise the dict one
    (`_dict_table`) keeps only the states with a count, cuts off whatever
    lands above j_max and drops a state left with nothing.  The module
    docstring gives the sweep behind DENSE_BITS.  The dict layout holds
    the same states as one keyed by right vertices would, and the packed
    layout is only chosen where that never exceeds the budget, so the
    layout never changes the budget's decision: CapExceededError when
    more than FRONTIER_STATE_BUDGET states would be held at once."""
    steps, nslots = _plan(neigh)
    bound = 1
    for row in neigh:
        bound *= len(row) + 1
    w = bound.bit_length()
    width = w * (j_max + 1)
    if j_max >= len(neigh) and width << nslots <= DENSE_BITS \
            and 1 << nslots <= FRONTIER_STATE_BUDGET:
        total = _packed_table(steps, nslots, w, width)
    else:
        total = _dict_table(steps, w, width)
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
