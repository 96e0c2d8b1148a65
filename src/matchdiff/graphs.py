"""Simple r-regular bipartite graphs: sampling, structure, construction.

Vertices are 0-based on each side; edges are (left, right) pairs.  Girth is
the qualification proxy used by the coefficient-table pipeline, so every
constructor validates regularity and simplicity, and the girth routine is
the single source of truth for qualification decisions.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import deque
from itertools import compress, islice, repeat

from ._kernels_py import cycle_census_counts
from .rng import (GOLDEN, GOLDEN_INV, MASK, MIX1, MIX2, Rng, derive_seed,
                  derive_seed_lanes, distinct_lanes, draws_lanes, fill_lanes,
                  gather_lanes, mod_lanes, mul_lanes, range_limit,
                  select_lanes, unmix64, unpack_lanes)


# Random connection sets `find_circulant` tries when it cannot enumerate
CIRCULANT_TRIES = 20_000
# 2-edge swap proposals of one `girth_search`, over all its restarts
GIRTH_SEARCH_BUDGET = 200_000


class GraphError(ValueError):
    pass


class GenerationBudgetError(RuntimeError):
    """Rejection sampling or girth search ran out of budget."""


class BipGraph:
    """Immutable r-regular bipartite graph with n vertices per side."""

    __slots__ = ("n", "r", "adj")

    def __init__(self, n: int, r: int, adj):
        adj = tuple(tuple(sorted(row)) for row in adj)
        if len(adj) != n:
            raise GraphError(f"expected {n} left rows, got {len(adj)}")
        rdeg = [0] * n
        for u, row in enumerate(adj):
            if len(row) != r:
                raise GraphError(f"left vertex {u} has degree {len(row)} != {r}")
            if len(set(row)) != r:
                raise GraphError(f"left vertex {u} has repeated neighbors")
            for v in row:
                if not 0 <= v < n:
                    raise GraphError(f"right vertex {v} out of range")
                rdeg[v] += 1
        bad = [v for v in range(n) if rdeg[v] != r]
        if bad:
            raise GraphError(f"right vertices {bad[:5]} not {r}-regular")
        self.n = n
        self.r = r
        self.adj = adj

    @property
    def nedges(self) -> int:
        return self.n * self.r

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u]]

    def global_adj(self) -> list[list[int]]:
        """Adjacency over vertices 0..2n-1 (right vertex v is n + v)."""
        n = self.n
        rows: list[list[int]] = [[] for _ in range(2 * n)]
        for u in range(n):
            for v in self.adj[u]:
                rows[u].append(n + v)
                rows[n + v].append(u)
        return [sorted(row) for row in rows]

    def graph_id(self) -> str:
        # imported here: hashlib loads OpenSSL, and only derive's family
        # records need ids, not the Monte Carlo path
        import hashlib
        h = hashlib.sha256(self.to_text().encode()).hexdigest()[:16]
        return f"bg-{self.n}x{self.r}-{h}"

    def to_text(self) -> str:
        lines = [f"bipartite n={self.n} r={self.r}"]
        lines += [f"{u} {v}" for u, v in self.edges()]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, BipGraph) and self.n == other.n
                and self.r == other.r and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.r, self.adj))

    def __repr__(self):
        return f"BipGraph(n={self.n}, r={self.r})"


# Attempts per round, seeds per group, and when `_packed_filter` packs rows.
# A round draws _FIRST_BATCH attempts of each seed, then twice as many, up
# to _MAX_BATCH: past about a thousand lanes the packed ints gain nothing
# per lane and only draw seeds the accepted graph never needs.  A packed
# row pays only through the lockstep attempts it rejects, so a batch of at
# most _MAX_UNPACKED lanes packs no row, and in a larger one the next row
# is packed only while more than _MIN_LIVE lanes are live and the row just
# decided rejected at least _MIN_REJECTED of them (the next rejects about
# as many).  Measured in CPU time on a shared 2-vCPU machine: packing one
# seed's 32-lane first batch made r = 3 draws 1.4 to 1.9 times slower, as
# the fixed cost of a packed op was shared by too few lanes.  So a round
# packs the attempts of many seeds into one batch, up to _GROUP seeds (one
# full batch of first attempts): at r = 3, n = 6..12, drawing 12 seeds a
# size together took 0.90-0.92 of the CPU time of drawing them one by one
# with 32-attempt first batches, and 100 seeds 0.80.  A first round of 16
# attempts read 0.90 there against 0.92 for 12 and 0.96 for 32, and
# one-seed draws 0.998 against 1.005 for 32, so one rule serves both.
# Packing fewer rows (_MIN_REJECTED = 0.4) read 0.88 at 12 seeds but 0.83
# at 100, so the rule is kept.  At r = 3 an attempt is accepted with
# probability about 1/20, so a one-seed 64-lane round mostly ends in its
# first 20 lanes: packing no row in it made 120 r = 3 draws a size at
# n = 6..12 4-6% faster, and r = 5 draws (n = 7..9 and 22) moved within
# their 4% noise.  Asking for more than 64 live lanes before every row
# instead would also stop the deep r = 5 packs of full batches early,
# where the packed rows pay most.  With no rejection test an r = 4,
# n = 1000 draw (rows reject under 1%) took 2.6-3.1 s, not 0.23 s.
_FIRST_BATCH = 16
_MAX_BATCH = 1024
_GROUP = _MAX_BATCH // _FIRST_BATCH
_MAX_UNPACKED = 64
_MIN_LIVE = 32
_MIN_REJECTED = 1 / 4


def gen_regular_bipartite(n: int, r: int, seed: int,
                          max_tries: int = 2_000_000) -> BipGraph:
    """Superimpose r uniform permutations; reject draws with multi-edges.

    This is the permutation model conditioned on simplicity, not the exactly
    uniform distribution over simple r-regular bipartite graphs.

    Stream contract: attempt a draws from `Rng(derive_seed(seed, a))`.  Its
    r permutations are successive `Rng.permutation(n)` shuffles, and left
    row u gets the right neighbour perm[u] of each; the attempt is rejected
    when a row would get the same neighbour twice.  The graph is that of
    the first attempt not rejected, and GenerationBudgetError is raised when
    attempts 0 .. max_tries-1 are all rejected.

    Row lockstep: position i of a Fisher-Yates shuffle is final once its
    step i has run, and the r shuffles are independent of each other, so
    the rows are filled one at a time, i = n-1 down to 1, each from step i
    of every shuffle, and row 0 from what remains.  The attempt stops at
    the first neighbour that repeats within a row.  Whether an attempt is
    rejected does not depend on the order the rows are checked in, and an
    accepted attempt fills every row with the draws of its full shuffles,
    so every (n, r, seed) gives the same graph as drawing each permutation
    in full.

    Draw addressing and its guard: splitmix64's state after t draws is
    s0 + t*GOLDEN, so while no draw is redrawn by `randrange`, step i of
    shuffle p is draw p*(n-1) + n-i and is computed directly from s0.  A
    redraw needs a draw at or above `range_limit(k)` for some k <= n;
    `_hot_draws(n)` lists the few states whose draw is that high, and an
    attempt any of whose r*(n-1) draws could land on one is drawn from the
    `Rng` stream itself (`_stream_attempt`), redraws included, which is
    exact for every attempt.  Fewer than n states are hot, so that happens
    with probability below r n^2 / 2^64 per attempt, and its speed does not
    matter.

    Packed rejection: the attempts run in rounds, the first of
    `_FIRST_BATCH` attempts, then doubling up to `_MAX_BATCH`, each cut
    short at max_tries; this is the one-seed case of
    `gen_regular_bipartites`, which packs the same round of many seeds into
    one batch.  A batch's stream starts come from one lane-packed
    `derive_seed_lanes`, and `_packed_filter` decides rows n-1, n-2, ...
    of every attempt in lane-packed integer arithmetic, with no Python loop
    over the lanes, for as long as the batch says it pays (see there).  An
    attempt that repeats a neighbour in one of those rows is rejected there,
    unless the guard flags it.  Every other attempt goes, in order, to
    `_stream_attempt` when flagged, or else with the positions its packed
    steps drew to `_lockstep_attempt`, which replays their swaps and
    resumes at the next row.  Both decide the attempt exactly, so the
    packed tier only rejects what they would reject too.  An r outside
    0..n raises GraphError before any draw, and n = 0 (so r = 0) has one
    graph, the empty one, which attempt 0 draws.
    """
    return _draw_group(n, r, (seed,), max_tries)[0]


def gen_regular_bipartites(n: int, r: int, seeds, max_tries: int = 2_000_000):
    """`gen_regular_bipartite(n, r, seed, max_tries)` of each of `seeds`, in
    order, drawn `_GROUP` seeds at a time (`_draw_group`): the same graphs,
    and the same errors.  A seed with no graph raises GenerationBudgetError
    in place of its group's graphs."""
    seeds = iter(seeds)
    while group := list(islice(seeds, _GROUP)):
        yield from _draw_group(n, r, group, max_tries)


def _draw_group(n: int, r: int, seeds, max_tries: int) -> list[BipGraph]:
    """The graph of each of `seeds`, drawn together.  Round b covers the
    same attempt range of every seed that has no graph yet, several seeds
    to a batch of up to `_MAX_BATCH` lanes (`_draw_batch`), so the first
    rounds, where most seeds find their graph, reach the packed rows too.
    Each seed stops at its first accepted attempt, and
    GenerationBudgetError is raised when a seed's attempts
    0 .. max_tries-1 are all rejected."""
    if not 0 <= r <= n:
        raise GraphError(f"need 0 <= r <= n, got r={r}, n={n}")
    if n == 0 and max_tries > 0:  # no row to draw
        return [BipGraph(0, 0, ())] * len(seeds)
    tables = _attempt_tables(n, r)
    found = [None] * len(seeds)
    pending = range(len(seeds))
    first, size = 0, _FIRST_BATCH
    while pending and first < max_tries:
        size = min(size, max_tries - first)
        per = _MAX_BATCH // size
        for b in range(0, len(pending), per):
            _draw_batch(n, r, tables, seeds, pending[b:b + per], first, size,
                        found)
        pending = [j for j in pending if found[j] is None]
        first += size
        size = min(2 * size, _MAX_BATCH)
    if pending:
        raise GenerationBudgetError(
            f"no simple graph after {max_tries} draws (n={n}, r={r})")
    return found


def _draw_batch(n: int, r: int, tables, seeds, batch, first: int, size: int,
                found: list) -> None:
    """Attempts first .. first+size-1 of seeds[j] for each j of `batch`,
    lane-packed as one batch (the k-th seed of the batch in lanes
    k*size ..): found[j] becomes the graph of the seed's first accepted
    attempt.  Stops at the accept of the batch's last seed, whose lanes
    are the last."""
    rows, identity, hot, span, hot_top = tables
    total = len(batch) * size
    states = derive_seed_lanes(list(map(seeds.__getitem__, batch)), first,
                               size)
    c = mul_lanes(states, GOLDEN_INV, total)
    if hot_top.isdisjoint(unpack_lanes(c >> 32, total)):
        flagged = ()
    else:
        flagged = {a for a, ca in enumerate(unpack_lanes(c, total))
                   if hot[bisect_right(hot, ca)] - ca <= span}
    skip = 0  # the lanes below skip belong to seeds with a graph
    for a, s0, drawn in _packed_filter(states, total, n, r, flagged):
        if a < skip:
            continue
        if a in flagged:
            masks = _stream_attempt(s0, n, r)
        else:
            masks = _lockstep_attempt(s0, n, r, rows, identity, drawn)
        if masks is not None:
            k = a // size
            found[batch[k]] = BipGraph(n, r, map(_set_bits, masks))
            skip = (k + 1) * size
            if skip == total:
                return


def _packed_filter(states: int, size: int, n: int, r: int, flagged):
    """The attempts of a batch that its packed rows leave live, with the
    `flagged` lanes kept whatever their draws, in lane order, as (lane,
    stream start, drawn): `drawn` holds the position k that each packed
    step drew, row n-1 first and shuffle by shuffle within a row.

    Row i takes step i (draw p*(n-1) + n-i) of each shuffle p, which swaps
    position i with k = u % (i+1).  Its neighbour is the value at k: walked
    back through the earlier steps, latest first, it is t where k equals
    the position step t drew (`select_lanes`), and k itself otherwise.
    A batch of at most _MAX_UNPACKED lanes packs no row.  In a larger one
    each row is decided on the whole batch (`distinct_lanes`), and the
    next row, while the rule stated above `_FIRST_BATCH` lets it and i > 1,
    only on the live lanes (`gather_lanes`), every position drawn so far
    parked in the upper halves of the slots, w = bits(n-1) bits each (at
    least 1), 62 // w to a slot."""
    w = max(n - 1, 1).bit_length()
    per = 62 // w
    lanes, slots, drawn = range(size), [states], []
    keep = b"\1" * size
    m = live = size
    i = n - 1
    while size > _MAX_UNPACKED and live > _MIN_LIVE and i > 0:
        if drawn:  # park row i+1's positions, keep only the live lanes
            slots += [0] * ((len(drawn) - 1) // per + 1 - len(slots))
            for x, k in enumerate(drawn[-r:], len(drawn) - r):
                slots[x // per] |= k << 64 + w * (x % per)
            kept = list(compress(range(m), keep))
            slots = [gather_lanes(x, m, kept) for x in slots]
            lanes = list(compress(lanes, keep))
            m = live
            field = fill_lanes((1 << w) - 1, m)
            drawn = [slots[x // per] >> 64 + w * (x % per) & field
                     for x in range(len(drawn))]
        ks = [mod_lanes(u, i + 1, m)
              for u in draws_lanes(slots[0], m, n - i, n - 1, r)]
        js = ks
        for x in range(len(drawn) - r, -1, -r):  # step n-1 - x/r
            js = [select_lanes(j, k, n - 1 - x // r, m)
                  for j, k in zip(js, drawn[x:x + r])]
        keep = distinct_lanes(js, m)
        if flagged:
            keep = bytes(k or a in flagged for k, a in zip(keep, lanes))
        drawn += ks
        live = keep.count(1)
        i -= 1
        if m - live < _MIN_REJECTED * m:
            break
    s0s = compress(unpack_lanes(slots[0], m), keep)
    cols = [compress(unpack_lanes(x, m), keep) for x in drawn]
    return zip(compress(lanes, keep), s0s, zip(*cols) if cols else repeat(()))


@functools.lru_cache(maxsize=None)
def _hot_draws(n: int) -> tuple[int, ...]:
    """The states whose draw some `randrange(k)` with 2 <= k <= n redraws,
    as sorted values state * GOLDEN^-1 mod 2^64, closed by the first one
    plus 2^64 (or by 2^65 when there are none).

    Draw t of a stream started at s0 has state s0 + t*GOLDEN, so it is hot
    exactly when this list holds s0 * GOLDEN^-1 + t mod 2^64: the first
    entry above c = s0 * GOLDEN^-1 says whether any of draws 1..T can be."""
    low = min((range_limit(k) for k in range(2, n + 1)), default=1 << 64)
    hot = sorted(unmix64(u) * GOLDEN_INV & MASK for u in range(low, 1 << 64))
    return tuple(hot + [hot[0] + (1 << 64)] if hot else [1 << 65])


@functools.lru_cache(maxsize=64)
def _attempt_tables(n: int, r: int) -> tuple:
    """What every attempt at (n, r) reads, built once: the lockstep's
    `rows` and `identity` (see `_lockstep_attempt`), the redraw guard's
    `_hot_draws(n)`, the span r*(n-1) of draws it covers, and the top 32
    bits of every c = s0 * GOLDEN^-1 that the guard flags, c < h <= c + span
    for an entry h of the hot list, and possibly a few more."""
    # shuffle p's permutation lives at perms[p*n : p*n + n]
    rows = tuple((i, i + 1, tuple(((p * (n - 1) + n - i) * GOLDEN & MASK,
                                   p * n) for p in range(r)))
                 for i in range(n - 1, 0, -1))
    hot = _hot_draws(n)
    span = r * (n - 1)
    hot_top = frozenset(t for h in hot
                        for t in range((h - span) >> 32, (h >> 32) + 1))
    return rows, tuple(range(n)) * r, hot, span, hot_top


def _set_bits(m: int) -> list[int]:
    """The positions of the set bits of m, lowest first: one step per
    neighbour, not per vertex."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _lockstep_attempt(s0: int, n: int, r: int, rows, identity,
                      drawn=()) -> list[int] | None:
    """One attempt of `gen_regular_bipartite` in row lockstep, for a stream
    start s0 none of whose r*(n-1) draws is redrawn: each left row's right
    neighbours as a bitmask, or None at the first repeated edge.  `rows`
    holds, per position i, the draw offset t*GOLDEN of step i of each
    shuffle and where that shuffle starts in `identity` (r identity
    permutations back to back), which the attempt copies.

    `drawn` holds the positions that the first steps of each shuffle drew,
    in `_packed_filter`'s order, for rows it found free of repeats; the
    lockstep replays their swaps and resumes at the next row."""
    perms = list(identity)
    masks = [0] * n
    if drawn:  # a test, not three iterators, for most attempts
        rows, steps = iter(rows), iter(drawn)
        for i, _, draws in islice(rows, len(drawn) // r):
            seen = 0
            for (_, base), k in zip(draws, steps):
                j = base + k
                seen |= 1 << perms[j]
                perms[j] = perms[base + i]
            masks[i] = seen
    for i, k, draws in rows:
        seen = 0
        for off, base in draws:
            s = (s0 + off) & MASK
            u = ((s ^ (s >> 30)) * MIX1) & MASK
            u = ((u ^ (u >> 27)) * MIX2) & MASK
            j = base + (u ^ (u >> 31)) % k
            bit = 1 << perms[j]
            if seen & bit:
                return None
            seen |= bit
            perms[j] = perms[base + i]
        masks[i] = seen
    seen = 0
    for base in range(0, n * r, n):
        bit = 1 << perms[base]
        if seen & bit:
            return None
        seen |= bit
    masks[0] = seen
    return masks


def _stream_attempt(s0: int, n: int, r: int) -> list[int] | None:
    """One attempt of `gen_regular_bipartite` walked from `Rng(s0)`: its r
    permutations in full, redraws included, each left row's right
    neighbours as a bitmask, or None when a row repeats one.  The exact
    path for the attempts whose draws `_lockstep_attempt` cannot address
    directly."""
    rng = Rng(s0)
    masks = [0] * n
    for _ in range(r):
        for u, v in enumerate(rng.permutation(n)):
            if masks[u] >> v & 1:
                return None
            masks[u] |= 1 << v
    return masks


def girth(g: BipGraph) -> int | float:
    """Length of the shortest cycle (math.inf for forests), by BFS from
    every vertex; bipartite graphs only yield even values."""
    adj = g.global_adj()
    nv = len(adj)
    best = math.inf
    dist = [-1] * nv
    par = [-1] * nv
    for root in range(nv):
        for i in range(nv):
            dist[i] = -1
        dist[root] = 0
        par[root] = -1
        q = deque([root])
        while q:
            u = q.popleft()
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    q.append(w)
                elif par[u] != w:
                    c = dist[u] + dist[w] + 1
                    if c < best:
                        best = c
    return best


def check_census_smax(s_max: int) -> None:
    """The census's cost guard: s_max <= 12."""
    if s_max > 12:
        raise ValueError("cycle census capped at s_max = 12")


def cycle_census(g: BipGraph, s_max: int) -> dict[int, int]:
    """Exact counts of s-cycles for even s <= s_max (cost guard s_max <= 12)."""
    check_census_smax(s_max)
    raw = cycle_census_counts(g.global_adj(), s_max)
    return {s: c for s, c in raw.items() if s % 2 == 0}


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def incidence_pg(q: int) -> BipGraph:
    """Point-line incidence graph of the projective plane of prime order q:
    n = q^2 + q + 1 per side, degree q + 1, girth 6."""
    if not is_prime(q):
        raise GraphError(f"q={q} is not prime")
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, a) for a in range(q)]
    pts += [(0, 0, 1)]
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    rows = [[] for _ in range(n)]
    for p, i in index.items():
        for l, k in index.items():
            if (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q == 0:
                rows[i].append(k)
    return BipGraph(n, q + 1, rows)


def random_lift(g: BipGraph, k: int, seed: int) -> BipGraph:
    """Random degree-k lift: each base edge becomes a permutation matching
    between the fibers.  Regularity and bipartiteness are preserved, and the
    girth never decreases (checked: GraphError otherwise)."""
    if k < 1:
        raise GraphError("lift degree must be >= 1")
    rng = Rng(seed)
    n = g.n
    rows = [[] for _ in range(n * k)]
    for u, v in g.edges():
        perm = rng.permutation(k)
        for t in range(k):
            rows[u * k + t].append(v * k + perm[t])
    lifted = BipGraph(n * k, g.r, rows)
    if girth(lifted) < girth(g):
        raise GraphError("lift decreased girth")
    return lifted


def circulant_bipartite(n: int, offsets) -> BipGraph:
    """Left i adjacent to right (i + d) mod n for each offset d."""
    offs = sorted(set(d % n for d in offsets))
    if len(offs) != len(set(offsets)):
        raise GraphError("offsets collide modulo n")
    rows = [[(i + d) % n for d in offs] for i in range(n)]
    return BipGraph(n, len(offs), rows)


def find_circulant(n: int, r: int, min_girth: int,
                   seed: int = 0) -> BipGraph | None:
    """Search for a circulant connection set achieving the girth target.

    Exhaustive over sets containing 0 when that is cheap (r = 3), seeded
    random search of `CIRCULANT_TRIES` sets otherwise.  Returns None when
    nothing is found.
    """
    # Any three offsets a, b, c close the 6-cycle L0, R a, L a-b, R a-b+c,
    # L c-b, R c, so no circulant of degree >= 3 has girth 8.
    if r > n or (r >= 3 and min_girth >= 8):
        return None
    if r == 3 and n <= 80:
        for a in range(1, n):
            for b in range(a + 1, n):
                g = circulant_bipartite(n, (0, a, b))
                if girth(g) >= min_girth:
                    return g
        return None
    rng = Rng(derive_seed(seed, n * 1000 + r))
    for _ in range(CIRCULANT_TRIES):
        offs = {0}
        while len(offs) < r:
            offs.add(rng.randrange(n - 1) + 1)
        g = circulant_bipartite(n, tuple(offs))
        if girth(g) >= min_girth:
            return g
    return None


def propose_swap(rows: list[set[int]], r: int,
                 rng: Rng) -> tuple[int, int, int, int] | None:
    """One 2-edge swap proposal on the left rows `rows` (the sets of r
    neighbours of the left vertices): draw u1, then u2, then a neighbour of
    each from its sorted row.  Returns (u1, v1, u2, v2) when trading the
    edges (u1, v1), (u2, v2) for (u1, v2), (u2, v1) keeps the graph simple,
    else None; rows are not changed."""
    n = len(rows)
    u1 = rng.randrange(n)
    u2 = rng.randrange(n)
    if u1 == u2:
        return None
    v1 = sorted(rows[u1])[rng.randrange(r)]
    v2 = sorted(rows[u2])[rng.randrange(r)]
    if v1 == v2 or v2 in rows[u1] or v1 in rows[u2]:
        return None
    return u1, v1, u2, v2


def swap_edges(adj: list[set[int]], u1: int, v1: int, u2: int,
               v2: int) -> None:
    """The 2-edge swap on the global adjacency sets `adj`: the edges
    (u1, v1) and (u2, v2) become (u1, v2) and (u2, v1)."""
    adj[u1].remove(v1); adj[v1].remove(u1)
    adj[u2].remove(v2); adj[v2].remove(u2)
    adj[u1].add(v2); adj[v2].add(u1)
    adj[u2].add(v1); adj[v1].add(u2)


def _edge_cycle_score(gadj, a, b, s_max, weights, skip=None) -> int:
    """Weighted count of cycles of length <= s_max through edge (a, b) in
    the global adjacency `gadj`, optionally ignoring the edge `skip`.

    Each such cycle corresponds to exactly one simple path b -> a that does
    not itself use the edge (a, b)."""
    visited = {b}
    total = 0

    def walk(x, ms):
        nonlocal total
        for w in gadj[x]:
            if (x == a and w == b) or (x == b and w == a):
                continue
            if skip is not None and ((x, w) == skip or (w, x) == skip):
                continue
            if w == a:
                total += weights.get(ms + 2, 0)
            elif w not in visited and ms + 3 <= s_max:
                visited.add(w)
                walk(w, ms + 1)
                visited.discard(w)

    walk(b, 0)
    return total


def _pair_cycle_score(gadj, e1, e2, s_max, weights) -> int:
    """Weighted count of short cycles using at least one of the two edges."""
    s = _edge_cycle_score(gadj, e1[0], e1[1], s_max, weights)
    s += _edge_cycle_score(gadj, e2[0], e2[1], s_max, weights, skip=e1)
    return s


def girth_search(n: int, r: int, target_girth: int, seed: int) -> BipGraph:
    """Find an r-regular bipartite graph on n+n vertices with girth >=
    target_girth: a circulant (`find_circulant`) first, then hill climbing
    on 2-edge swaps that minimizes a weighted short-cycle score,
    `GIRTH_SEARCH_BUDGET` proposals over all restarts.  The result is always
    validated by an explicit girth computation."""
    if target_girth % 2:
        raise GraphError("target girth must be even for bipartite graphs")
    g = find_circulant(n, r, target_girth, seed=seed)
    if g is not None:
        return g

    s_max = target_girth - 2
    weights = {s: 10 ** ((target_girth - s) // 2)
               for s in range(4, s_max + 1, 2)}

    restarts = 8
    for restart in range(restarts):
        cur = gen_regular_bipartite(n, r, derive_seed(seed, restart))
        gadj = [set(row) for row in cur.global_adj()]
        # the left rows, which hold right vertex v as n + v
        rows = gadj[:n]
        cen = cycle_census(cur, s_max)
        cur_score = sum(weights[s] * c for s, c in cen.items() if s in weights)
        rng = Rng(derive_seed(seed, 1_000 + restart))
        for _ in range(GIRTH_SEARCH_BUDGET // restarts):
            if cur_score == 0:
                break
            swap = propose_swap(rows, r, rng)
            if swap is None:
                continue
            u1, v1, u2, v2 = swap
            old = _pair_cycle_score(gadj, (u1, v1), (u2, v2), s_max, weights)
            swap_edges(gadj, u1, v1, u2, v2)
            new = _pair_cycle_score(gadj, (u1, v2), (u2, v1), s_max, weights)
            if new <= old:
                cur_score += new - old
            else:
                swap_edges(gadj, u1, v2, u2, v1)
        if cur_score == 0:
            result = BipGraph(n, r, [[v - n for v in row] for row in rows])
            if girth(result) >= target_girth:
                return result
    raise GenerationBudgetError(
        f"girth search failed (n={n}, r={r}, target={target_girth}, "
        f"budget={GIRTH_SEARCH_BUDGET})")


def parse_graph(text: str) -> BipGraph:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("bipartite "):
        raise GraphError("missing 'bipartite n=<n> r=<r>' header")
    fields = dict(kv.split("=", 1) for kv in lines[0].split()[1:]
                  if "=" in kv)
    try:
        n, r = int(fields["n"]), int(fields["r"])
    except (KeyError, ValueError):
        raise GraphError(f"header {lines[0]!r} needs integer n= and r=") \
            from None
    rows: list[list[int]] = [[] for _ in range(n)]
    for ln in lines[1:]:
        try:
            us, vs = ln.split()
            u, v = int(us), int(vs)
        except ValueError:
            raise GraphError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range")
        rows[u].append(v)
    return BipGraph(n, r, rows)


def builtin_graph(name: str) -> BipGraph:
    """Load one of the shipped graph files (heawood, tutte_coxeter,
    tutte_12cage)."""
    from importlib.resources import files
    data = files("matchdiff").joinpath("data").joinpath(f"{name}.bg").read_text()
    return parse_graph(data)
