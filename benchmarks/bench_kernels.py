#!/usr/bin/env python3
"""Time the frontier-DP counting kernel beside the oracle kernels it
replaced (the pure-Python subset DP and ordered-edge DFS, plus the compiled
ones when the extension is built), and the cycle census on each backend.

Every row checks that all kernels give identical counts.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from matchdiff import _kernels_py
from matchdiff.graphs import (builtin_graph, gen_regular_bipartite,
                              incidence_pg, random_lift)
from matchdiff.matchcount import frontier_counts

try:
    from matchdiff import _kernels
except ImportError:
    _kernels = None


def timeit(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _normal(res):
    if isinstance(res, dict):
        return {int(k): int(v) for k, v in res.items()}
    return [int(x) for x in res]


def bench(name, runs, repeat=3):
    """runs: (label, fn, args) triples expected to return equal counts."""
    row = f"{name:<34s}"
    first = None
    for label, fn, args in runs:
        t, res = timeit(fn, *args, repeat=repeat)
        res = _normal(res)
        if first is None:
            first = res
        assert res == first, f"{name}: {label} disagrees"
        row += f"  {label} {t * 1e3:10.2f} ms"
    print(row)


def oracle_runs(fn_name, args):
    runs = [("pure", getattr(_kernels_py, fn_name), args)]
    if _kernels is not None:
        runs.append(("cython", getattr(_kernels, fn_name), args))
    return runs


def poly_row(name, g, repeat=3):
    neigh = [list(r) for r in g.adj]
    bench(name, [("frontier", frontier_counts, (neigh, g.n))]
          + oracle_runs("match_poly_counts", (neigh,)), repeat)


def upto_row(name, g, j_max, repeat=1):
    edges = [(u, g.n + v) for u, v in g.edges()]
    bench(name, [("frontier", frontier_counts,
                  ([list(r) for r in g.adj], j_max))]
          + oracle_runs("match_upto_counts", (edges, 2 * g.n, j_max)), repeat)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    opts = ap.parse_args()

    if _kernels is None:
        print("compiled kernels unavailable; timing pure-python only")

    poly_row("matching poly  n=12 r=3", gen_regular_bipartite(12, 3, seed=1))
    if not opts.quick:
        poly_row("matching poly  n=16 r=4",
                 gen_regular_bipartite(16, 4, seed=1), repeat=1)

    hw3 = random_lift(builtin_graph("heawood"), 3, seed=2)  # n=21 cubic
    upto_row("m_0..m_5  n=21 r=3", hw3, 5)
    if not opts.quick:
        pgl = random_lift(incidence_pg(3), 2, seed=3)  # n=26, r=4
        upto_row("m_0..m_5  n=26 r=4", pgl, 5)

    cage = builtin_graph("tutte_12cage")
    bench("cycle census 12-cage s<=12",
          oracle_runs("cycle_census_counts", (cage.global_adj(), 12)),
          repeat=1)


if __name__ == "__main__":
    main()
