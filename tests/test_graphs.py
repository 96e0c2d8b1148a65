"""Graph construction, girth, censuses, lifts, search, and file I/O."""

import math
from itertools import combinations

import pytest

from matchdiff.graphs import (BipGraph, GraphError, builtin_graph,
                              circulant_bipartite, cycle_census,
                              find_circulant, gen_regular_bipartite, girth,
                              girth_search, incidence_pg, load_graph,
                              parse_graph, random_lift, save_graph)

C4 = BipGraph(2, 2, [[0, 1], [0, 1]])
K33 = BipGraph(3, 3, [[0, 1, 2]] * 3)
C6 = BipGraph(3, 2, [[0, 1], [1, 2], [0, 2]])


def brute_force_4cycles(g: BipGraph) -> int:
    """Oracle: choose 2 left + 2 right vertices, check all four edges."""
    count = 0
    for u1, u2 in combinations(range(g.n), 2):
        for v1, v2 in combinations(range(g.n), 2):
            if (v1 in g.adj[u1] and v2 in g.adj[u1]
                    and v1 in g.adj[u2] and v2 in g.adj[u2]):
                count += 1
    return count


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphError):
        BipGraph(2, 2, [[0, 0], [0, 1]])  # repeated neighbor
    with pytest.raises(GraphError):
        BipGraph(2, 2, [[0, 1], [0]])  # wrong degree
    with pytest.raises(GraphError):
        BipGraph(3, 2, [[0, 1], [0, 1], [0, 1]])  # right side not regular


def test_gen_forced_small_cases():
    # n=2, r=2 forces the 4-cycle; n=3, r=3 forces K_{3,3}
    assert gen_regular_bipartite(2, 2, seed=5) == C4
    assert gen_regular_bipartite(3, 3, seed=9) == K33


def test_gen_valid_and_deterministic():
    g = gen_regular_bipartite(10, 3, seed=1)
    assert g.n == 10 and g.r == 3 and g.nedges == 30
    assert g == gen_regular_bipartite(10, 3, seed=1)
    assert g != gen_regular_bipartite(10, 3, seed=2)


def test_girth_fixtures():
    assert girth(K33) == 4
    assert girth(C6) == 6
    assert girth(incidence_pg(2)) == 6
    # a forest: n=2, r=1
    assert girth(BipGraph(2, 1, [[0], [1]])) == math.inf


def test_cycle_census_fixtures():
    assert cycle_census(C4, 4) == {4: 1}
    assert cycle_census(K33, 4) == {4: 9}
    assert cycle_census(K33, 4)[4] == brute_force_4cycles(K33)
    hw = incidence_pg(2)
    assert cycle_census(hw, 4) == {4: 0}
    assert brute_force_4cycles(hw) == 0


def test_cycle_census_matches_bruteforce_on_random_graphs():
    for seed in range(10):
        g = gen_regular_bipartite(8, 3, seed=seed)
        assert cycle_census(g, 4)[4] == brute_force_4cycles(g)


def test_census_cost_guard():
    with pytest.raises(ValueError):
        cycle_census(K33, 14)


def test_census_girth_equivalence():
    for seed in range(8):
        g = gen_regular_bipartite(9, 3, seed=seed)
        assert (cycle_census(g, 4)[4] == 0) == (girth(g) >= 6)


def test_incidence_pg():
    for q, n in ((2, 7), (3, 13), (5, 31)):
        g = incidence_pg(q)
        assert g.n == q * q + q + 1 == n
        assert g.r == q + 1
        assert girth(g) == 6
    with pytest.raises(GraphError):
        incidence_pg(4)  # prime powers excluded
    with pytest.raises(GraphError):
        incidence_pg(6)


def test_random_lift():
    hw = incidence_pg(2)
    triv = random_lift(hw, 1, seed=3)
    assert (triv.n, triv.r) == (hw.n, hw.r)
    lifted = random_lift(hw, 3, seed=42)
    assert (lifted.n, lifted.r) == (21, 3)
    assert lifted.nedges == 3 * hw.nedges
    assert girth(lifted) >= girth(hw)


def test_circulant():
    hw_like = circulant_bipartite(7, (0, 1, 3))
    assert girth(hw_like) == 6
    with pytest.raises(GraphError):
        circulant_bipartite(7, (0, 1, 8))  # collides with 1 mod 7


def test_find_circulant_girth6():
    g = find_circulant(7, 3, 6)
    assert g is not None and girth(g) >= 6


def test_girth_search_targets():
    g4 = girth_search(6, 3, 4, seed=1)
    assert girth(g4) >= 4
    g6 = girth_search(7, 3, 6, seed=1)
    assert g6.n == 7 and girth(g6) >= 6
    g8 = girth_search(15, 3, 8, seed=7)
    assert g8.n == 15 and girth(g8) >= 8


def test_save_load_roundtrip(tmp_path):
    g = gen_regular_bipartite(9, 3, seed=4)
    path = tmp_path / "g.bg"
    save_graph(g, path)
    assert load_graph(path) == g


def test_load_rejects_bad_files():
    with pytest.raises(GraphError):
        parse_graph("not a graph\n0 1\n")
    # non-regular edge list
    with pytest.raises(GraphError):
        parse_graph("bipartite n=2 r=2\n0 0\n0 1\n1 0\n")
    # header without r=, or with a non-integer or bare field
    for header in ("bipartite n=2", "bipartite n=2 r=x", "bipartite n r=2"):
        with pytest.raises(GraphError, match="header"):
            parse_graph(f"{header}\n0 0\n0 1\n1 0\n1 1\n")
    # edge lines with the wrong number of fields or non-integers
    for edge in ("0", "0 1 1", "0 a"):
        with pytest.raises(GraphError, match="edge line"):
            parse_graph(f"bipartite n=2 r=2\n0 0\n{edge}\n1 0\n1 1\n")


def test_builtin_graphs_validate():
    hw = builtin_graph("heawood")
    assert (hw.n, hw.r, girth(hw)) == (7, 3, 6)
    tc = builtin_graph("tutte_coxeter")
    assert (tc.n, tc.r, girth(tc)) == (15, 3, 8)
    cage = builtin_graph("tutte_12cage")
    assert (cage.n, cage.r, girth(cage)) == (63, 3, 12)


def test_short_cycle_means_roughly_n_independent():
    """Short-cycle counts of random cubic graphs have finite, essentially
    n-independent means (the Poisson regime); loose empirical envelope."""
    from matchdiff.rng import derive_seed

    for n in (20, 30):
        tot4 = tot6 = 0
        samples = 120
        for i in range(samples):
            g = gen_regular_bipartite(n, 3, derive_seed(5, i))
            c = cycle_census(g, 6)
            tot4 += c[4]
            tot6 += c[6]
        assert 3.0 <= tot4 / samples <= 7.0
        assert 8.0 <= tot6 / samples <= 15.0
