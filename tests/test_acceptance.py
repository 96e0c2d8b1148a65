"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The Monte Carlo grid (criteria 10 and 11) is computed
once and shared; its numbers are compared bit-for-bit with
tests/data/simulate_fixture.csv.  A missing fixture fails the run unless
MATCHDIFF_REFREEZE=1 is set, which writes it from that run.
"""

import os
import time
from fractions import Fraction as F
from math import factorial

import pytest

from matchdiff.atable import a1_builtin
from matchdiff.graphs import BipGraph, gen_regular_bipartite
from matchdiff.matchcount import match_poly_full, mbar_vector
from matchdiff.positivity import rho_vector, trend_report
from matchdiff.rng import Rng, derive_seed
from oracles import (complete_graph_edges, match_poly_general_bruteforce,
                     p_violation_se)

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MC_SEED = 20250809
MC_SAMPLES = 2000
MC_NS = (6, 8, 10, 12)
MC_PAIRS = tuple((i, k) for i in range(4) for k in range(4))


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: {text} PASS")


@pytest.fixture(scope="module")
def mc_grid():
    t0 = time.perf_counter()
    rep = trend_report(3, MC_NS, MC_SAMPLES, MC_PAIRS, MC_SEED)
    rep.elapsed = time.perf_counter() - t0
    return rep


def test_criterion_01_exact_fixtures():
    t0 = time.perf_counter()
    assert match_poly_full(BipGraph(2, 2, [[0, 1], [0, 1]])).counts == (1, 4, 2)
    assert match_poly_full(BipGraph(3, 3, [[0, 1, 2]] * 3)).counts \
        == (1, 9, 18, 6)
    assert match_poly_full(BipGraph(3, 2, [[0, 1], [1, 2], [0, 2]])).counts \
        == (1, 6, 9, 2)
    assert mbar_vector(4).counts == (1, 6, 3)
    for v in (2, 4, 6, 8, 10):
        assert mbar_vector(v).counts == match_poly_general_bruteforce(
            v, complete_graph_edges(v)).counts
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, f"matching fixtures and complete-graph oracle ({dt:.2f}s)")


def test_criterion_02_d0_d1_zero():
    t0 = time.perf_counter()
    rng = Rng(314159)
    for idx in range(100):
        r = 3 if idx % 2 == 0 else 4
        n = 6 + rng.randrange(7)  # 6..12
        g = gen_regular_bipartite(n, r, seed=derive_seed(271828, idx))
        rho = rho_vector(g)
        assert rho[0] == 1 and rho[1] == 1  # hence d(0) = d(1) = 0 exactly
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(2, f"d(0) = d(1) = 0 on 100 random graphs ({dt:.2f}s)")


def test_criterion_03_table_derivation(table, repo_cache_dir):
    from matchdiff.derive import default_table_path, derive_with_invariance

    # the cached batch reproduces the closed form symbolically in j
    assert table.entries[1].sym == a1_builtin()
    # fresh reconstruction from counting data (independent seed), with the
    # two-family invariance enforced inside derive_with_invariance
    for r, expect in ((3, F(-5, 3)), (4, F(-7, 4)), (5, F(-9, 5))):
        vals = derive_with_invariance(r, 2, seed=987654 + r)
        assert vals == {1: expect}
        assert a1_builtin().at(2, r) == expect
    # rerun with cache present: no recomputation, identical file
    path = default_table_path(repo_cache_dir, (3, 4, 5), 20250809, False)
    before = open(path, "rb").read()
    from matchdiff.derive import build_default_table
    build_default_table(root=repo_cache_dir)
    assert open(path, "rb").read() == before
    report(3, "a-table derivation reproduces the closed form at r=3,4,5 "
              "with two-family invariance")


def test_criterion_04_log_coefficients(table):
    from matchdiff.identities import check_log_coefficients

    for h in (1, 2):
        assert check_log_coefficients(table, h).passed
    assert check_log_coefficients(table, 3, at_r=3).passed
    report(4, "log-coefficient identities exact for h <= 2 symbolic, "
              "h = 3 pointwise at r = 3")


def test_criterion_05_top_coefficients(table):
    from matchdiff.identities import check_top_coefficient

    assert check_top_coefficient(table, 2).passed
    assert check_top_coefficient(table, 3).passed  # includes the full k=3 closed form
    report(5, "k=3 closed form and top coefficients k = 2, 3 exact")


def test_criterion_06_first_identity(table):
    from matchdiff.identities import check_first_identity

    for k in (2, 3):
        for i in range(4):
            assert check_first_identity(table, i, k).passed  # symbolic in r
    rep = check_first_identity(table, 0, 4, at_r=3)
    assert rep.passed
    assert F(factorial(2), 3 ** 3) == F(2, 27)
    report(6, "first identity exact: k = 2,3 (i <= 3, all r), "
              "k = 4 at r = 3 (value 2/27)")


def test_criterion_07_alpha0_series(table):
    from matchdiff.identities import check_alpha0_series, check_t_cancellation

    assert check_alpha0_series(table, None, 1).passed
    for k in (2, 3):
        assert check_alpha0_series(table, None, k).passed
    for i in range(4):
        assert check_t_cancellation(table, i, 3).passed
        assert check_t_cancellation(table, i, 4, at_r=3).passed
    report(7, "alpha_0 leading terms and the t+/t- cancellation exact")


def test_criterion_08_second_identity(table):
    from matchdiff.identities import (check_second_identity,
                                      check_second_identity_synthetic)

    for k in (0, 1, 2, 3):
        for i in (0, 1, 2, 3):
            assert check_second_identity(table, i, k, order=2).passed
    assert check_second_identity_synthetic(seed=0xA11CE, trials=50).passed
    report(8, "second identity on table series and 50 random synthetic "
              "series")


def test_criterion_09_conjecture_tester(table):
    from matchdiff.identities import check_extended_expansion, random_conjecture_spec

    t0 = time.perf_counter()
    rng = Rng(MC_SEED)
    ref_vals = None
    for _ in range(100):
        spec = random_conjecture_spec(rng, z_max=2)
        if max(z for z, _ in spec.terms) <= 2:
            rep, _ = check_extended_expansion(table, spec, 2)
            assert rep.passed, rep.line()
        rep3, vals = check_extended_expansion(table, spec, 3, at_r=3)
        assert rep3.passed, rep3.line()
        if ref_vals is None:
            ref_vals = vals
        assert vals == ref_vals  # bit-identical across c choices
    dt = time.perf_counter() - t0
    assert dt < 600
    report(9, f"100 random conjecture specs pass, k=h+1 values "
              f"bit-identical ({dt:.1f}s)")


def test_criterion_10_monte_carlo(mc_grid):
    last = {st_key: mc_grid.rows[-1].stats[st_key] for st_key in MC_PAIRS}
    # leading-term targets at n = 12
    na = float(last[(2, 1)].alpha_hat) * 12
    assert abs(na - 2 / 3) <= 0.15 * (2 / 3), na
    nb = float(last[(1, 2)].alpha_hat) * 12
    assert abs(nb - 1 / 3) <= 0.20 * (1 / 3), nb
    # violation trends and the 5% cap at n = 12
    for (i, k) in MC_PAIRS:
        assert mc_grid.monotone_violation(i, k), (i, k)
        assert float(last[(i, k)].p_violation) <= 0.05, (i, k)
    # empirical Chebyshev sanity
    for row in mc_grid.rows:
        for st in row.stats.values():
            if st.alpha_hat > 0:
                bound = float(st.cheb_bound) + 3 * p_violation_se(st)
                assert float(st.p_violation) <= bound, (st.n, st.i, st.k)
    assert mc_grid.elapsed < 900
    # regression fixture: compare when present; writing a missing one is
    # an explicit opt-in, so deleting the file cannot remove the gate
    fixture = os.path.join(DATA_DIR, "simulate_fixture.csv")
    csv = mc_grid.csv("acceptance r=3 samples=2000 seed=20250809")
    if os.path.exists(fixture):
        with open(fixture) as fh:
            assert fh.read() == csv
        frozen = " (matches frozen fixture)"
    elif os.environ.get("MATCHDIFF_REFREEZE") == "1":
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(fixture, "w") as fh:
            fh.write(csv)
        frozen = " (fixture frozen)"
    else:
        pytest.fail(f"{fixture} is missing; set MATCHDIFF_REFREEZE=1 to "
                    "write it from this run")
    report(10, f"Monte Carlo targets met: n*alpha(2,1)={na:.3f} vs 2/3, "
               f"n*alpha(1,2)={nb:.3f} vs 1/3, all violation trends "
               f"non-increasing, max p_hat at n=12 "
               f"{max(float(last[p].p_violation) for p in MC_PAIRS):.4f} "
               f"<= 5%, runtime {mc_grid.elapsed:.0f}s{frozen}")


def test_criterion_11_positivity_census(mc_grid):
    fracs = [(row.n, float(row.p_graph_positive)) for row in mc_grid.rows]
    assert mc_grid.monotone_positivity(), fracs
    report(11, "positivity fraction trend non-decreasing (2 SE): "
               + ", ".join(f"n={n}: {p:.4f}" for n, p in fracs))
