"""Pure-Python kernels with the signatures of the compiled `_kernels`.

`cycle_census_counts` is the package's one cycle-census kernel, called by
`graphs.cycle_census`.  The matching-count kernels here, the subset DP
and the ordered-edge DFS, are no longer on any counting path: they are
the independent oracles that tests check `matchcount.frontier_counts`
against.  All three, and `BACKEND`, are the pure side of perfbench's
comparison with `_kernels.c`, which perfbench compiles out of tree; the
package itself never builds or imports that extension.  Counts are
Python ints, so there is no overflow to detect.
"""

from __future__ import annotations

BACKEND = "pure-python"


def match_poly_counts(neigh: list[list[int]]) -> list[int]:
    """Matching counts m_0..m_n of a bipartite graph.

    Subset DP over right-side sets: after processing left vertex v, A[S]
    counts matchings using a subset of the first v+1 left vertices that
    saturate exactly S. The in-place descending-S update keeps the "leave v
    unmatched" branch in A[S] itself.
    """
    n = len(neigh)
    size = 1 << n
    a = [0] * size
    a[0] = 1
    for nb in neigh:
        for s in range(size - 1, -1, -1):
            acc = 0
            for u in nb:
                bit = 1 << u
                if s & bit:
                    acc += a[s ^ bit]
            if acc:
                a[s] += acc
    m = [0] * (n + 1)
    for s in range(size):
        m[bin(s).count("1")] += a[s]
    return m


def match_upto_counts(edges: list[tuple[int, int]], nverts: int,
                      j_max: int) -> list[int]:
    """Counts m_0..m_j_max by ordered-edge DFS (extend a partial matching
    only with higher-indexed, vertex-disjoint edges)."""
    m = [0] * (j_max + 1)
    m[0] = 1
    if j_max == 0 or not edges:
        return m
    used = bytearray(nverts)
    ne = len(edges)

    def rec(start: int, depth: int) -> None:
        nxt = depth + 1
        for e in range(start, ne):
            u, v = edges[e]
            if not used[u] and not used[v]:
                m[nxt] += 1
                if nxt < j_max:
                    used[u] = used[v] = 1
                    rec(e + 1, nxt)
                    used[u] = used[v] = 0

    rec(0, 0)
    return m


def cycle_census_counts(adj: list[list[int]], s_max: int) -> dict[int, int]:
    """Exact counts of s-cycles for 3 <= s <= s_max.

    DFS paths from each root restricted to higher-indexed vertices, so every
    cycle is generated exactly twice (once per direction) at its least
    vertex; the final tally halves the raw counts.
    """
    nv = len(adj)
    counts = {s: 0 for s in range(3, s_max + 1)}
    visited = bytearray(nv)

    def dfs(root: int, u: int, nedges: int) -> None:
        visited[u] = 1
        for w in adj[u]:
            if w == root:
                if nedges >= 2:
                    counts[nedges + 1] += 1
            elif w > root and not visited[w] and nedges + 1 < s_max:
                dfs(root, w, nedges + 1)
        visited[u] = 0

    if s_max >= 3:
        for root in range(nv):
            visited[root] = 1
            for w in adj[root]:
                if w > root:
                    dfs(root, w, 1)
            visited[root] = 0
    return {s: c // 2 for s, c in counts.items()}
