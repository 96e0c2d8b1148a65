"""Exact matching counts: fixtures, closed forms, and the frontier kernel
against the independent oracles (subset DP, ordered-edge DFS,
deletion-contraction brute force)."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdiff import _kernels_py, matchcount
from matchdiff.graphs import BipGraph, gen_regular_bipartite, incidence_pg
from matchdiff.matchcount import (CapExceededError, MatchVector,
                                  complete_graph_edges, frontier_counts,
                                  match_count_upto, match_poly_full,
                                  match_poly_general_bruteforce, mbar_vector)

C4 = BipGraph(2, 2, [[0, 1], [0, 1]])
K33 = BipGraph(3, 3, [[0, 1, 2]] * 3)
C6 = BipGraph(3, 2, [[0, 1], [1, 2], [0, 2]])


def test_fixtures():
    assert match_poly_full(C4).counts == (1, 4, 2)
    assert match_poly_full(K33).counts == (1, 9, 18, 6)
    assert match_poly_full(C6).counts == (1, 6, 9, 2)


def test_mbar_fixtures():
    assert mbar_vector(4).counts == (1, 6, 3)
    assert mbar_vector(6).counts[3] == 15
    with pytest.raises(ValueError):
        mbar_vector(5)


def test_bruteforce_fixtures():
    assert match_poly_general_bruteforce(4, complete_graph_edges(4)).counts \
        == (1, 6, 3)
    assert match_poly_general_bruteforce(2, [(0, 1)]).counts == (1, 1)


def test_mbar_matches_bruteforce_all_even_v():
    for v in (2, 4, 6, 8, 10):
        assert mbar_vector(v).counts == \
            match_poly_general_bruteforce(v, complete_graph_edges(v)).counts


def test_counters_agree_on_random_graphs():
    for seed in range(200):
        n = 4 + seed % 7  # n in 4..10
        r = 2 + seed % 3  # r in 2..4
        if r > n:
            continue
        g = gen_regular_bipartite(n, r, seed=seed)
        full = match_poly_full(g)
        j = min(n, 5)
        upto = match_count_upto(g, j)
        assert full.counts[:j + 1] == upto.counts
        assert list(full.counts) == _kernels_py.match_poly_counts(
            [list(row) for row in g.adj])
        assert list(upto.counts) == _kernels_py.match_upto_counts(
            [(u, n + v) for u, v in g.edges()], 2 * n, j)
        full.validate_regular(n, r)
        # a vector breaking only Newton's inequality at i = 2 is rejected
        bad = list(full.counts)
        bad[3] *= 10 ** 6
        with pytest.raises(AssertionError, match="Newton"):
            MatchVector(tuple(bad)).validate_regular(n, r)


def test_validate_regular_schrijver_bound():
    """A full vector whose m_n sits one below Schrijver's lower bound, and
    that passes every other check, is rejected; at the bound it passes."""
    for n, r, seed in ((8, 3, 1), (7, 4, 2), (9, 5, 3)):
        full = list(match_poly_full(gen_regular_bipartite(n, r, seed)).counts)
        num, den = (r - 1) ** ((r - 1) * n), r ** ((r - 2) * n)
        least = -(-num // den)  # smallest m_n the bound allows
        assert 1 < least < full[n]
        full[n] = least
        MatchVector(tuple(full)).validate_regular(n, r)
        full[n] = least - 1
        with pytest.raises(AssertionError, match="Schrijver"):
            MatchVector(tuple(full)).validate_regular(n, r)


def test_m2_closed_form():
    for seed in range(20):
        g = gen_regular_bipartite(9, 3, seed=seed)
        e = g.nedges
        expect = comb(e, 2) - 2 * g.n * comb(g.r, 2)
        assert match_poly_full(g).counts[2] == expect


def test_relabeling_invariance():
    from matchdiff.rng import Rng

    g = gen_regular_bipartite(8, 3, seed=3)
    base = match_poly_full(g).counts
    rng = Rng(17)
    for _ in range(5):
        lp = rng.permutation(8)
        rp = rng.permutation(8)
        assert match_poly_full(g.relabel(lp, rp)).counts == base


def test_heawood_counts():
    hw = incidence_pg(2)
    v = match_count_upto(hw, 5)
    assert v.counts[1] == 21
    assert v.counts == match_poly_full(hw).counts[:6]


def test_caps():
    big = BipGraph(23, 1, [[i] for i in range(23)])
    with pytest.raises(CapExceededError):
        match_poly_full(big)
    with pytest.raises(CapExceededError):
        match_count_upto(C4, 8)
    with pytest.raises(CapExceededError):
        match_poly_general_bruteforce(12, complete_graph_edges(12))


@st.composite
def bipartite_graphs(draw, max_side=5):
    """Arbitrary bipartite graphs with at most `max_side` vertices per side:
    any degrees, isolated vertices included."""
    nl = draw(st.integers(0, max_side))
    nr = draw(st.integers(0, max_side))
    edges = draw(st.sets(st.tuples(st.integers(0, nl - 1),
                                   st.integers(0, nr - 1)))
                 if nl and nr else st.just(set()))
    neigh = [sorted(v for u2, v in edges if u2 == u) for u in range(nl)]
    return nl, nr, neigh, sorted(edges)


def _padded(counts, j_max):
    counts = list(counts)[:j_max + 1]
    return counts + [0] * (j_max + 1 - len(counts))


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(), st.integers(0, 6))
def test_frontier_matches_oracles(graph, j_max):
    nl, nr, neigh, edges = graph
    got = frontier_counts(neigh, j_max)
    size = max(nl, nr)
    square = neigh + [[] for _ in range(size - nl)]
    assert got == _padded(_kernels_py.match_poly_counts(square), j_max)
    global_edges = [(u, nl + v) for u, v in edges]
    assert got == _kernels_py.match_upto_counts(global_edges, nl + nr, j_max)
    assert got == _padded(match_poly_general_bruteforce(
        nl + nr, global_edges).counts, j_max)

    if edges:
        # deletion recurrence m(G) = m(G - e) + x m(G - u - v)
        u, v = edges[0]
        minus_e = [[w for w in row if (x, w) != (u, v)]
                   for x, row in enumerate(neigh)]
        minus_uv = [[] if x == u else [w for w in row if w != v]
                    for x, row in enumerate(neigh)]
        shifted = [0] + frontier_counts(minus_uv, j_max)[:j_max]
        assert got == [a + b for a, b in
                       zip(frontier_counts(minus_e, j_max), shifted)]

    if nl:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matchcount, "FRONTIER_STATE_BUDGET", 0)
            with pytest.raises(CapExceededError):
                frontier_counts(neigh, j_max)


@settings(max_examples=100, deadline=None)
@given(bipartite_graphs(max_side=8), st.integers(0, 8), st.data())
def test_frontier_counts_ignore_labels(graph, j_max, data):
    """Permuting the left vertices and relabelling the right ones changes
    the processing order and the state masks, never the counts."""
    nl, nr, neigh, _ = graph
    left = data.draw(st.permutations(range(nl)))
    right = data.draw(st.permutations(range(nr)))
    relabelled = [[right[v] for v in neigh[u]] for u in left]
    assert frontier_counts(relabelled, j_max) == frontier_counts(neigh, j_max)
