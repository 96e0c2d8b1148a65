"""Exact matching counts: fixtures, closed forms, and the frontier kernel
against the independent oracles (subset DP, ordered-edge DFS,
deletion-contraction brute force, the frontier DP keyed by right
vertices), in both of its table layouts."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdiff import _kernels_py, matchcount
from matchdiff.graphs import (BipGraph, builtin_graph, gen_regular_bipartite,
                              incidence_pg)
from matchdiff.matchcount import (CapExceededError, MatchVector, _plan,
                                  frontier_counts, match_count_upto,
                                  match_poly_full, mbar_vector)
from oracles import (complete_graph_edges, frontier_by_vertex,
                     match_poly_general_bruteforce, reference_plan)

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
        # a vector breaking only Newton's inequality at i = 3 is rejected
        # (m_3 has a closed form, so the corruption sits at m_4)
        bad = list(full.counts)
        bad[4] *= 10 ** 6
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


def test_m3_closed_form():
    """m_3 depends on (n, r) alone; a vector wrong only at m_3 is refused
    with the index named."""
    for r, n in ((2, 3), (3, 6), (4, 7), (5, 6), (3, 20)):
        for seed in range(3):
            g = gen_regular_bipartite(n, r, seed=seed)
            m3 = (comb(n * r, 3) - 2 * n * comb(r, 3) - n * r * (r - 1) ** 2
                  - 2 * n * comb(r, 2) * (n * r - 3 * r + 2))
            counts = match_count_upto(g, 3).counts
            assert counts[3] == m3
            bad = counts[:3] + (m3 + 1,)
            with pytest.raises(AssertionError, match="m_3 = "):
                MatchVector(bad).validate_regular(n, r)


def test_relabeling_invariance():
    from matchdiff.rng import Rng

    g = gen_regular_bipartite(8, 3, seed=3)
    base = match_poly_full(g).counts
    rng = Rng(17)
    for _ in range(5):
        lp = rng.permutation(8)
        rp = rng.permutation(8)
        rows = [[] for _ in range(8)]
        for u in range(8):
            rows[lp[u]] = [rp[v] for v in g.adj[u]]
        assert match_poly_full(BipGraph(8, 3, rows)).counts == base


def test_heawood_counts():
    hw = incidence_pg(2)
    v = match_count_upto(hw, 5)
    assert v.counts[1] == 21
    assert v.counts == match_poly_full(hw).counts[:6]


def test_caps(monkeypatch):
    """The frontier budget is the only limit on counting: neither the side
    size nor j is capped.  The brute force keeps its 10-vertex cap."""
    with pytest.raises(CapExceededError):
        match_poly_general_bruteforce(12, complete_graph_edges(12))
    big = BipGraph(23, 1, [[i] for i in range(23)])
    assert match_poly_full(big).counts == tuple(comb(23, i)
                                                for i in range(24))
    assert match_count_upto(C4, 8).counts == (1, 4, 2, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(matchcount, "FRONTIER_STATE_BUDGET", 0)
    with pytest.raises(CapExceededError):
        match_poly_full(big)
    with pytest.raises(CapExceededError):
        match_count_upto(C4, 8)


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


def _refuse(*args):
    raise AssertionError("the other layout was expected")


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(), st.integers(-3, 3))
def test_layouts_agree(graph, extra):
    """The packed and the dict layout give the oracle's counts, with j_max
    below, at or above the number of left vertices.  (A budget of 0
    refuses every graph with a left vertex in either layout:
    `test_frontier_matches_oracles`.)"""
    nl, nr, neigh, _ = graph
    j_max = max(0, nl + extra)
    size = max(nl, nr)
    expect = _padded(_kernels_py.match_poly_counts(
        neigh + [[] for _ in range(size - nl)]), j_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchcount, "DENSE_BITS", 0)
        mp.setattr(matchcount, "_packed_table", _refuse)
        assert frontier_counts(neigh, j_max) == expect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchcount, "DENSE_BITS", 1 << 40)
        if j_max >= nl:
            mp.setattr(matchcount, "_dict_table", _refuse)
        assert frontier_counts(neigh, j_max) == expect


def test_default_grid_counts_packed(monkeypatch):
    """The full polynomials of the default Monte Carlo grid (r = 3,
    n = 6..12) take the packed layout."""
    monkeypatch.setattr(matchcount, "_dict_table", _refuse)
    for n in (6, 8, 10, 12):
        for seed in range(5):
            g = gen_regular_bipartite(n, 3, seed=seed)
            assert match_poly_full(g).counts == tuple(
                frontier_by_vertex(g.adj, n)[0])


def test_budget_decision_matches_vertex_keyed_dp(monkeypatch):
    """Keying the states by frontier slots holds as many states as keying
    them by right vertices: with the reference's peak P as the budget the
    kernel counts, with P - 1 it refuses, for the full polynomial and for
    truncated counts."""
    for n, r, seed in ((10, 3, 1), (16, 3, 2), (9, 4, 3), (12, 4, 4)):
        g = gen_regular_bipartite(n, r, seed=seed)
        for j_max in (n, 3):
            counts, peak = frontier_by_vertex(g.adj, j_max)
            monkeypatch.setattr(matchcount, "FRONTIER_STATE_BUDGET", peak)
            assert frontier_counts(g.adj, j_max) == counts
            monkeypatch.setattr(matchcount, "FRONTIER_STATE_BUDGET",
                                peak - 1)
            with pytest.raises(CapExceededError):
                frontier_counts(g.adj, j_max)


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs(max_side=8))
def test_plan_matches_list_reference(graph):
    """The one-pass bitmask plan takes the list-based reference's order,
    slots and closes, and as many slots."""
    assert _plan(graph[2]) == reference_plan(graph[2])


def test_plan_matches_list_reference_on_regular_graphs():
    """The same on seeded regular graphs up to n = 48 per side and on the
    shipped cages, so every budget decision stays as it was."""
    graphs = [gen_regular_bipartite(n, r, seed=1)
              for r, sizes in ((3, (6, 9, 12, 16, 24, 32, 48)),
                               (4, (6, 9, 12, 16, 24, 32, 48)),
                               (5, (6, 9, 12, 24, 48)))
              for n in sizes]
    graphs += [builtin_graph(name)
               for name in ("heawood", "tutte_coxeter", "tutte_12cage")]
    for g in graphs:
        assert _plan(g.adj) == reference_plan(g.adj), g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda nr: st.lists(
    st.lists(st.integers(0, nr - 1), max_size=4), max_size=5)),
       st.integers(0, 6), st.booleans())
def test_repeated_neighbours_count_as_parallel_edges(neigh, j_max, packed):
    """A row may name a right vertex twice, as two parallel edges.  The
    plan may then order it differently from the reference, but the counts,
    in either layout, are those of deletion-contraction on the edge list."""
    edges = [(u, len(neigh) + v) for u, row in enumerate(neigh) for v in row]
    expect = _padded(match_poly_general_bruteforce(
        len(neigh) + 5, edges).counts, j_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchcount, "DENSE_BITS", 1 << 40 if packed else 0)
        assert frontier_counts(neigh, j_max) == expect
    assert frontier_by_vertex(neigh, j_max)[0] == expect
