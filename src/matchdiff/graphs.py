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

from ._kernels_py import cycle_census_counts
from .rng import (GOLDEN, GOLDEN_INV, MASK, MIX1, MIX2, Rng, derive_seed,
                  range_limit, unmix64)


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

    def relabel(self, left_perm: list[int], right_perm: list[int]) -> "BipGraph":
        rows = [[] for _ in range(self.n)]
        for u in range(self.n):
            rows[left_perm[u]] = [right_perm[v] for v in self.adj[u]]
        return BipGraph(self.n, self.r, rows)

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


def gen_regular_bipartite(n: int, r: int, seed: int,
                          max_tries: int = 2_000_000) -> BipGraph:
    """Superimpose r uniform permutations; reject draws with multi-edges.

    This is the permutation model conditioned on simplicity, not the exactly
    uniform distribution over simple r-regular bipartite graphs.

    Stream contract: attempt a draws from `Rng(derive_seed(seed, a))`.  Its
    r permutations are successive `Rng.permutation(n)` shuffles, and left
    row u gets the right neighbour perm[u] of each; the attempt is rejected
    when a row would get the same neighbour twice.

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
    attempt any of whose r*(n-1) draws could land on one runs the
    sequential `_simple_attempt` instead, which follows the stream draw by
    draw and is exact for every attempt.
    """
    if r > n:
        raise GraphError(f"need r <= n, got r={r}, n={n}")
    # Fisher-Yates step at position i draws randrange(i + 1)
    steps = [(i, i + 1, range_limit(i + 1)) for i in range(n - 1, 0, -1)]
    # shuffle p's permutation lives at perms[p*n : p*n + n]
    rows = [(i, i + 1, [((p * (n - 1) + n - i) * GOLDEN & MASK, p * n)
                        for p in range(r)])
            for i in range(n - 1, 0, -1)]
    identity = list(range(n)) * r
    hot = _hot_draws(n)
    span = r * (n - 1)
    for attempt in range(max_tries):
        rng = Rng(derive_seed(seed, attempt))
        s0 = rng.state
        c = s0 * GOLDEN_INV & MASK
        if hot[bisect_right(hot, c)] - c <= span:
            masks = _simple_attempt(rng, n, r, steps)
        else:
            masks = _lockstep_attempt(s0, n, r, rows, identity)
        if masks is not None:
            return BipGraph(n, r, [[v for v in range(n) if m >> v & 1]
                                   for m in masks])
    raise GenerationBudgetError(
        f"no simple graph after {max_tries} draws (n={n}, r={r})")


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


def _lockstep_attempt(s0: int, n: int, r: int, rows,
                      identity: list[int]) -> list[int] | None:
    """One attempt of `gen_regular_bipartite` in row lockstep, for a stream
    start s0 none of whose r*(n-1) draws is redrawn: each left row's right
    neighbours as a bitmask, or None at the first repeated edge.  `rows`
    holds, per position i, the draw offset t*GOLDEN of step i of each
    shuffle and where that shuffle starts in the one list `identity`
    (r identity permutations back to back) that the attempt copies."""
    perms = identity[:]
    masks = [0] * n
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


def _simple_attempt(rng: Rng, n: int, r: int, steps) -> list[int] | None:
    """One attempt of `gen_regular_bipartite`, one shuffle after the other:
    each left row's right neighbours as a bitmask, or None at the first
    repeated edge.  The draws are `rng.randrange(k)` inlined on the
    splitmix64 state, redraws included, so this is the exact path for the
    attempts whose draws `_lockstep_attempt` cannot address directly."""
    s = rng.state
    masks = [0] * n
    for _ in range(r):
        perm = list(range(n))
        for i, k, lim in steps:
            while True:
                s = (s + GOLDEN) & MASK
                u = ((s ^ (s >> 30)) * MIX1) & MASK
                u = ((u ^ (u >> 27)) * MIX2) & MASK
                u ^= u >> 31
                if u < lim:
                    break
            j = u % k
            bit = 1 << perm[j]
            perm[j] = perm[i]
            if masks[i] & bit:
                return None
            masks[i] |= bit
        bit = 1 << perm[0]
        if masks[0] & bit:
            return None
        masks[0] |= bit
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


def cycle_census(g: BipGraph, s_max: int) -> dict[int, int]:
    """Exact counts of s-cycles for even s <= s_max (cost guard s_max <= 12)."""
    if s_max > 12:
        raise ValueError("cycle census capped at s_max = 12")
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


class LiftSpec:
    """Recipe for a random lift: base graph, fiber size, permutation seed.

    The resulting graph has k*n vertices per side, the base degree, and
    girth at least the base girth."""

    __slots__ = ("base", "k", "seed")

    def __init__(self, base: BipGraph, k: int, seed: int):
        self.base = base
        self.k = k
        self.seed = seed

    def build(self) -> BipGraph:
        return random_lift(self.base, self.k, self.seed)


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
                   seed: int = 0, tries: int = 20_000) -> BipGraph | None:
    """Search for a circulant connection set achieving the girth target.

    Exhaustive over sets containing 0 when that is cheap (r = 3), seeded
    random search otherwise.  Returns None when nothing is found.
    """
    if r > n:
        return None
    if r == 3 and n <= 80:
        for a in range(1, n):
            for b in range(a + 1, n):
                g = circulant_bipartite(n, (0, a, b))
                if girth(g) >= min_girth:
                    return g
        return None
    rng = Rng(derive_seed(seed, n * 1000 + r))
    for _ in range(tries):
        offs = {0}
        while len(offs) < r:
            offs.add(rng.randrange(n - 1) + 1)
        g = circulant_bipartite(n, tuple(offs))
        if girth(g) >= min_girth:
            return g
    return None


def propose_swap(rows: list[set[int]], r: int,
                 rng: Rng) -> tuple[int, int, int, int] | None:
    """One 2-edge swap proposal on the left rows `rows` (sets of r right
    neighbours): draw u1, then u2, then a neighbour of each from its sorted
    row.  Returns (u1, v1, u2, v2) when trading the edges (u1, v1), (u2, v2)
    for (u1, v2), (u2, v1) keeps the graph simple, else None; rows are not
    changed."""
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


def girth_search(n: int, r: int, target_girth: int, seed: int,
                 budget: int = 200_000) -> BipGraph:
    """Find an r-regular bipartite graph on n+n vertices with girth >=
    target_girth: circulant warm starts first, then hill climbing on 2-edge
    swaps that minimizes a weighted short-cycle score.  The result is always
    validated by an explicit girth computation."""
    if target_girth % 2:
        raise GraphError("target girth must be even for bipartite graphs")
    if target_girth <= 4:
        g = gen_regular_bipartite(n, r, seed)
        gg = girth(g)
        if gg < 4:
            raise GraphError(f"permutation-model sample has girth {gg} < 4")
        return g
    g = find_circulant(n, r, target_girth, seed=seed)
    if g is not None:
        return g

    s_max = target_girth - 2
    weights = {s: 10 ** ((target_girth - s) // 2)
               for s in range(4, s_max + 1, 2)}

    restarts = 8
    for restart in range(restarts):
        cur = gen_regular_bipartite(n, r, derive_seed(seed, restart))
        rows = [set(row) for row in cur.adj]
        gadj = [set() for _ in range(2 * n)]
        for u in range(n):
            for v in rows[u]:
                gadj[u].add(n + v)
                gadj[n + v].add(u)
        cen = cycle_census(cur, s_max)
        cur_score = sum(weights[s] * c for s, c in cen.items() if s in weights)
        rng = Rng(derive_seed(seed, 1_000 + restart))

        def apply_swap(u1, v1, u2, v2):
            rows[u1].discard(v1); rows[u2].discard(v2)
            rows[u1].add(v2); rows[u2].add(v1)
            gadj[u1].discard(n + v1); gadj[n + v1].discard(u1)
            gadj[u2].discard(n + v2); gadj[n + v2].discard(u2)
            gadj[u1].add(n + v2); gadj[n + v2].add(u1)
            gadj[u2].add(n + v1); gadj[n + v1].add(u2)

        for _ in range(budget // restarts):
            if cur_score == 0:
                break
            swap = propose_swap(rows, r, rng)
            if swap is None:
                continue
            u1, v1, u2, v2 = swap
            old = _pair_cycle_score(gadj, (u1, n + v1), (u2, n + v2),
                                    s_max, weights)
            apply_swap(u1, v1, u2, v2)
            new = _pair_cycle_score(gadj, (u1, n + v2), (u2, n + v1),
                                    s_max, weights)
            if new <= old:
                cur_score += new - old
            else:
                apply_swap(u1, v2, u2, v1)
        if cur_score == 0:
            result = BipGraph(n, r, [sorted(row) for row in rows])
            if girth(result) >= target_girth:
                return result
    raise GenerationBudgetError(
        f"girth search failed (n={n}, r={r}, target={target_girth}, "
        f"budget={budget})")


def save_graph(g: BipGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(g.to_text())


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


def load_graph(path) -> BipGraph:
    with open(path) as fh:
        return parse_graph(fh.read())


def builtin_graph(name: str) -> BipGraph:
    """Load one of the shipped graph files (heawood, tutte_coxeter,
    tutte_12cage)."""
    from importlib.resources import files
    data = files("matchdiff").joinpath("data").joinpath(f"{name}.bg").read_text()
    return parse_graph(data)
