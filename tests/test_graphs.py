"""Graph construction, girth, censuses, lifts, search, and file I/O."""

import math
import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchdiff
from matchdiff import _kernels_py, graphs
from matchdiff.derive import _swap_shuffle
from matchdiff.graphs import (BipGraph, GenerationBudgetError, GraphError,
                              builtin_graph, circulant_bipartite,
                              cycle_census, find_circulant,
                              gen_regular_bipartite, girth, girth_search,
                              incidence_pg, load_graph, parse_graph,
                              random_lift, save_graph)
from matchdiff.rng import (GOLDEN, MASK, Rng, derive_seed, splitmix64,
                           unmix64)

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


def reference_gen(n: int, r: int, seed: int,
                  max_tries: int = 2_000_000) -> BipGraph:
    """Oracle: the plain permutation-model sampler, drawing every
    permutation in full with `Rng.permutation` before checking it."""
    if r > n:
        raise GraphError(f"need r <= n, got r={r}, n={n}")
    for attempt in range(max_tries):
        rng = Rng(derive_seed(seed, attempt))
        rows = [[] for _ in range(n)]
        ok = True
        for _ in range(r):
            perm = rng.permutation(n)
            for u in range(n):
                if perm[u] in rows[u]:
                    ok = False
                    break
                rows[u].append(perm[u])
            if not ok:
                break
        if ok:
            return BipGraph(n, r, rows)
    raise GenerationBudgetError(
        f"no simple graph after {max_tries} draws (n={n}, r={r})")


@st.composite
def sampler_inputs(draw):
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, min(n, 4)))
    seed = draw(st.one_of(
        st.sampled_from([0, -1, -(2 ** 63), 2 ** 64 - 1, 2 ** 64,
                         2 ** 64 + 7, 3 * 2 ** 70 + 1]),
        st.integers(-(2 ** 80), 2 ** 80)))
    return n, r, seed


@settings(max_examples=200, deadline=None)
@given(sampler_inputs())
def test_gen_matches_reference_sampler(args):
    assert gen_regular_bipartite(*args).adj == reference_gen(*args).adj


# the r=5 draws of derive_with_invariance(5, 2) at the default derivation seed
@pytest.mark.parametrize("n,seed", [(7, 13483562770953319214),
                                    (8, 5042045720238222367),
                                    (9, 12621457273394957343)])
def test_gen_matches_reference_sampler_r5(n, seed):
    assert gen_regular_bipartite(n, 5, seed).adj == \
        reference_gen(n, 5, seed).adj


@settings(max_examples=200, deadline=None)
@given(st.integers(0, MASK))
def test_unmix64_inverts_the_output_mix(x):
    assert unmix64(splitmix64(x)) == (x + GOLDEN) & MASK
    assert splitmix64((unmix64(x) - GOLDEN) & MASK) == x


def _seed_with_top_draw(t: int) -> int:
    """The seed whose attempt 0 has 2^64 - 1 as its draw t (1-based)."""
    s0 = (unmix64(MASK) - t * GOLDEN) & MASK
    seed = ((unmix64(s0) - GOLDEN) & MASK) ^ splitmix64(0)
    rng = Rng(derive_seed(seed, 0))
    assert [rng.next_u64() for _ in range(t)][-1] == MASK
    return seed


def test_gen_redraws_out_of_range_draw():
    """A draw at or above randrange's limit is redrawn, as in the oracle:
    attempt 0 starts with the draw 2^64 - 1."""
    seed = _seed_with_top_draw(1)
    for n in (3, 7, 12):  # 2^64 - 1 is rejected unless n is a power of two
        assert gen_regular_bipartite(n, 1, seed).adj == \
            reference_gen(n, 1, seed).adj


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("n", [5, 7, 9, 11, 12])
def test_gen_redraw_guard_matches_reference(n, r):
    """Attempt 0 draws 2^64 - 1 at the next-to-last (k = 3) or last (k = 2)
    step of shuffle 0, the first step of shuffle 1 (k = n) or the attempt's
    last draw (k = 2).  2^64 - 1 is redrawn unless k is a power of two;
    either way the redraw guard sends the attempt down the sequential
    path."""
    for t in (n - 2, n - 1, n, r * (n - 1)):
        seed = _seed_with_top_draw(t)
        assert gen_regular_bipartite(n, r, seed).adj == \
            reference_gen(n, r, seed).adj, t


@pytest.mark.parametrize("n,r,t", [(9, 2, 9), (9, 3, 7), (7, 2, 5)])
def test_gen_redraw_guard_bites(n, r, t, monkeypatch):
    """With the guard's hot set emptied, the row lockstep reads draw t
    where the stream redraws it, and attempt 0 comes out different."""
    seed = _seed_with_top_draw(t)
    monkeypatch.setattr(graphs, "_hot_draws", lambda n: (1 << 65,))
    assert gen_regular_bipartite(n, r, seed).adj != \
        reference_gen(n, r, seed).adj


def test_gen_errors_match_reference_sampler():
    for sampler in (gen_regular_bipartite, reference_gen):
        with pytest.raises(GenerationBudgetError):
            sampler(7, 5, seed=1, max_tries=50)
        with pytest.raises(GraphError):
            sampler(3, 4, seed=1)


def test_gen_graph_ids_pinned():
    """The sampler's stream contract, pinned independently of the oracle."""
    pinned = {
        (6, 3, 0): "bg-6x3-07091f388aa2b647",
        (8, 3, 1): "bg-8x3-5a5e9e70fece5179",
        (10, 3, -7): "bg-10x3-4e87530841946bbb",
        (12, 4, 2 ** 64 + 5): "bg-12x4-fc78bbc1f38e3a12",
        (9, 5, 3): "bg-9x5-be353138181ec9d8",
        (14, 4, 123456789): "bg-14x4-bbf95c1d8c2ac414",
        (7, 2, 42): "bg-7x2-7fdbd8bd29bad7e2",
        (5, 5, 11): "bg-5x5-bef0036c8116f725",
        # the slowest draw of a cold (r=5, j=2) derivation, and a girth
        # search restart of a cold derive-atable
        (8, 5, 14989779772074328663): "bg-8x5-19318006f29a8497",
        (22, 5, 720701715770117513): "bg-22x5-ddda65baa4e9d939",
    }
    for (n, r, seed), gid in pinned.items():
        assert gen_regular_bipartite(n, r, seed).graph_id() == gid


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
    # known cycle counts of the girth-6 and girth-8 cages
    assert cycle_census(builtin_graph("heawood"), 12) == {
        4: 0, 6: 28, 8: 21, 10: 84, 12: 56}
    assert cycle_census(builtin_graph("tutte_coxeter"), 10) == {
        4: 0, 6: 0, 8: 90, 10: 72}


def test_kernel_benchmark_contract():
    """perfbench compiles the shipped `_kernels.c` out of tree and times it
    against these pure kernels, reporting `KERNEL_BACKEND` as the backend
    its recorded numbers belong to."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert os.path.isfile(os.path.join(root, "src", "matchdiff", "_kernels.c"))
    for name in ("match_poly_counts", "match_upto_counts",
                 "cycle_census_counts"):
        assert callable(getattr(_kernels_py, name))
    assert _kernels_py.BACKEND == matchdiff.KERNEL_BACKEND == "pure-python"


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


_GIRTH_CHECKS_UNDER_O = """
import sys
from matchdiff import graphs
if __debug__:
    sys.exit("expected python -O")
graphs.girth = lambda g: 6 if g.n == 7 else 4
try:
    graphs.random_lift(graphs.incidence_pg(2), 3, seed=1)
except graphs.GraphError as exc:
    print("lift:", exc)
graphs.girth = lambda g: 2
try:
    graphs.girth_search(6, 3, 4, seed=1)
except graphs.GraphError as exc:
    print("search:", exc)
"""


def test_girth_checks_survive_optimize():
    """The girth checks in random_lift and girth_search raise GraphError
    even under `python -O`, which strips assert statements."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchdiff.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-O", "-c", _GIRTH_CHECKS_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "lift: lift decreased girth",
        "search: permutation-model sample has girth 2 < 4"]


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
    # no circulant reaches girth 8 at n=15, so this runs the hill climb
    assert find_circulant(15, 3, 8) is None
    g8 = girth_search(15, 3, 8, seed=7)
    assert g8.n == 15 and girth(g8) >= 8
    assert g8.graph_id() == "bg-15x3-fa1450d7411c9e5f"


def test_swap_shuffle_ids_pinned():
    """`derive._swap_shuffle` draws its 2-edge swaps through
    `propose_swap`, as the girth search's hill climb does."""
    assert _swap_shuffle(circulant_bipartite(9, range(4)),
                         5).graph_id() == "bg-9x4-970940135bcd2e25"
    assert _swap_shuffle(find_circulant(20, 7, 4, seed=3),
                         11).graph_id() == "bg-20x7-8114da482054b61f"


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
