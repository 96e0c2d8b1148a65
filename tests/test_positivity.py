"""Exact positivity statistics and the Monte Carlo harness."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchdiff
from matchdiff import positivity
from matchdiff.derive import _swap_shuffle
from matchdiff.graphs import (BipGraph, circulant_bipartite, cycle_census,
                              gen_regular_bipartite)
from matchdiff.matchcount import match_poly_full, mbar_vector
from matchdiff.positivity import (_DECIMAL_ERR, _FLOAT_SCALE, _LOG_ERR,
                                  EnsembleStats, TrendReport, TrendRow,
                                  _decimal_leaves, _float_leaves,
                                  _grid_worker, _k_table, _KTable,
                                  _sample_graph, _scaled_alpha0,
                                  _sign_cascade, _triangle, alpha0_exact,
                                  delta_table, ensemble_grid, lsplit,
                                  rho_vector, trend_report)
C4 = BipGraph(2, 2, [[0, 1], [0, 1]])
K33 = BipGraph(3, 3, [[0, 1, 2]] * 3)


def delta_sign(rho, i, k):
    """Reference sign of Delta^k d(i), independent of the package's
    integer constants: cross-multiply the numerators and denominators of
    prod_{L+} rho^C(k,l) and prod_{L-} rho^C(k,l)."""
    lplus, lminus = lsplit(k)
    lhs = rhs = 1
    for ell in lplus:
        q = rho[i + ell]
        lhs *= q.numerator ** math.comb(k, ell)
        rhs *= q.denominator ** math.comb(k, ell)
    for ell in lminus:
        q = rho[i + ell]
        lhs *= q.denominator ** math.comb(k, ell)
        rhs *= q.numerator ** math.comb(k, ell)
    return (lhs > rhs) - (lhs < rhs)


def test_rho_fixtures():
    assert rho_vector(C4) == [F(1), F(1), F(3, 2)]
    assert rho_vector(K33) == [F(1), F(1), F(10, 9), F(50, 27)]


def test_rho_first_two_always_one():
    for seed in range(25):
        n = 6 + seed % 7
        r = 3 + seed % 2
        rho = rho_vector(gen_regular_bipartite(n, r, seed=seed))
        assert rho[0] == 1 and rho[1] == 1
        assert all(q > 0 for q in rho)


def test_delta_table_c4():
    prof = delta_table(C4)
    assert prof.positive()
    assert prof.signs[(0, 0)] == 0 and prof.signs[(1, 0)] == 0
    assert prof.signs[(2, 0)] > 0  # d(2) = ln(3/2) > 0
    assert set(prof.signs) == {(i, k) for k in range(3)
                               for i in range(3 - k)}


def test_delta_table_k33():
    prof = delta_table(K33)
    # d = (0, 0, ln(10/9), ln(50/27)); all meaningful differences known
    assert prof.signs[(2, 0)] > 0
    assert prof.signs[(1, 1)] > 0   # d(2) - d(1) > 0
    assert prof.signs[(0, 2)] > 0   # d(2) - 2 d(1) + d(0) > 0
    # Delta^2 d(1) = d(3) - 2 d(2) + d(1): 50/27 vs (10/9)^2 = 100/81
    assert prof.signs[(1, 2)] == (F(50, 27) > F(100, 81)) - \
        (F(50, 27) < F(100, 81))
    assert prof.positive()  # every difference above is >= 0


def exact_signs(rho):
    n = len(rho) - 1
    return {(i, k): delta_sign(rho, i, k)
            for k in range(n + 1) for i in range(n - k + 1)}


def interval_signs(counts, n, r):
    """Reference signs of Delta^k d(i) on every i + k <= n, without
    `_KTable`: K_i = (v-1)^i / (mbar_i r^i) from its definition, a 512-bit
    mpmath interval triangle for each cell whose interval excludes 0, and
    `delta_sign` for the rest (the exact zeros among them)."""
    from mpmath import iv

    v = 2 * n
    mbar = mbar_vector(v).counts
    K = [F((v - 1) ** i, mbar[i] * r ** i) for i in range(n + 1)]
    rho = [m * q for m, q in zip(counts, K)]
    saved, iv.prec = iv.prec, 512
    try:
        refs = _iv_triangle(counts, K)
    finally:
        iv.prec = saved
    cells = [(i, k) for k in range(n + 1) for i in range(n - k + 1)]
    return {(i, k): 1 if x.a > 0 else -1 if x.b < 0 else delta_sign(rho, i, k)
            for (i, k), x in zip(cells, refs)}


def test_sign_cascade_equals_exact():
    """The sign cascade gives the exact answer on every (i, k): the first
    100 samples per n of the acceptance grid (r=3, n=6..12), 25 per n at
    r=4 for n=6..14, and K33 and C4.  Signs depend on (n, r) and the
    counts alone, so each distinct count vector is decided once."""
    graphs = [K33, C4]
    graphs += [_sample_graph(3, n, 20250809, idx)
               for n in range(6, 13) for idx in range(100)]
    graphs += [_sample_graph(4, n, 20250809, idx)
               for n in range(6, 15) for idx in range(25)]
    distinct = {}
    for g in graphs:
        mvec = match_poly_full(g)
        distinct.setdefault((g.n, g.r, mvec.counts), (g, mvec))
    for (n, r, counts), (g, mvec) in distinct.items():
        prof = delta_table(g, mvec)
        assert prof.signs == interval_signs(counts, n, r), counts


def _iv_triangle(counts, K):
    """mpmath intervals of Delta^k d(i), d(i) = ln m_i + ln K_i, flat in
    the order of `_KTable.cells`."""
    from mpmath import iv

    row = [iv.log(iv.mpf(m)) + iv.log(iv.mpf(q.numerator))
           - iv.log(iv.mpf(q.denominator)) for m, q in zip(counts, K)]
    flat = list(row)
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        flat += row
    return flat


def _unenclosed(cells, values, rads, scale, refs):
    """Cells whose integer enclosure [x - e, x + e], in units of 1/scale,
    misses the mpmath interval of Delta^k d(i)."""
    missed = []
    for cell, x, e, ref in zip(cells, values, rads, refs):
        ref = ref * scale
        if not (x - e <= ref.a and ref.b <= x + e):
            missed.append(cell)
    return missed


def test_log_enclosure_contains_exact_logs():
    """Every math.log the float tier uses lies within its stated budget of
    the mpmath interval, and every float enclosure of the triangle
    contains Delta^k d(i), so each d(i) = ln(rho_i) is enclosed.  The huge
    counts take CPython's path for ints beyond the double range."""
    from mpmath import iv

    cases = [(match_poly_full(g).counts, _k_table(g.n, g.r))
             for g in [K33, C4]]
    huge = [3 ** 2000, 10 ** 400]
    cases.append((huge, _KTable([F(1, 2 ** 1500 + 1), F(1)], huge)))
    cases += [(match_poly_full(g).counts, _k_table(n, r))
              for r, n in ((3, 12), (4, 14)) for idx in range(3)
              for g in [_sample_graph(r, n, 20250809, idx)]]
    saved, iv.prec = iv.prec, 200
    try:
        for counts, tab in cases:
            for m in counts:
                lm = math.log(m)
                ref = iv.log(iv.mpf(m))
                budget = float(_LOG_ERR) * (abs(lm) + 1)
                assert ref.a - budget <= lm <= ref.b + budget, m
            values = _triangle(_float_leaves(counts, tab))
            refs = _iv_triangle(counts, tab.K)
            assert _unenclosed(tab.cells, values, tab.rads, _FLOAT_SCALE,
                               refs) == [], counts
    finally:
        iv.prec = saved


@pytest.mark.parametrize("n", [24, 28])
def test_decimal_tiers_contain_2048_bit_reference(n):
    """Every float enclosure, and every decimal one at 40, 80 and 160
    digits, contains the 2048-bit mpmath interval of Delta^k d(i) on seeded
    r=3 graphs.  At these n the float radius E 2^k is near its limit: one
    without the 2^k misses hundreds of cells."""
    from mpmath import iv

    saved, iv.prec = iv.prec, 2048
    try:
        for idx in range(2):
            g = _sample_graph(3, n, 20250809, idx)
            counts = match_poly_full(g).counts
            tab = _k_table(n, 3)
            refs = _iv_triangle(counts, tab.K)
            tiers = [(_float_leaves(counts, tab), _FLOAT_SCALE, tab.rads)]
            for prec in (40, 80, 160):
                q, _ = tab.decimal(prec)
                tiers.append((_decimal_leaves(counts, tab, prec), 10 ** q,
                              [_DECIMAL_ERR << k for _, k in tab.cells]))
            for leaves, scale, rads in tiers:
                assert _unenclosed(tab.cells, _triangle(leaves), rads, scale,
                                   refs) == [], (idx, scale)
    finally:
        iv.prec = saved


def _synthetic(n, p, q, j, e, sign, ms):
    """rho_i = p^(i^2) q^i (so Delta^3 d = 0 exactly), rho_j scaled by
    1 + sign 10^-e, split as m_i K_i with m_i from `ms`."""
    rho = [p ** (i * i) * q ** i for i in range(n + 1)]
    rho[j] *= 1 + sign * F(1, 10 ** e)
    counts = [ms[i % len(ms)] for i in range(n + 1)]
    return rho, counts, _KTable([x / m for x, m in zip(rho, counts)],
                                counts)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10),
       p=st.fractions(F(1, 30), 30, max_denominator=30),
       q=st.fractions(F(1, 30), 30, max_denominator=30),
       j=st.integers(0, 10), e=st.one_of(st.none(), st.integers(1, 200)),
       sign=st.sampled_from([1, -1]),
       ms=st.lists(st.integers(1, 10 ** 40), min_size=1, max_size=4))
def test_cascade_equals_exact_on_near_zero_differences(n, p, q, j, e, sign,
                                                       ms):
    """Exact zeros (every k >= 3 cell away from j) pass every tier to
    the exact sign; the differences of size 10^-e around rho_j are decided
    by the 40, 80 or 160 digit tier or, past those, by the exact sign."""
    rho, counts, tab = _synthetic(n, p, q, min(j, n), e or 0,
                                  sign if e else 0, ms)
    assert _sign_cascade(counts, tab) == exact_signs(rho)


def test_near_zero_differences_need_the_later_tiers(monkeypatch):
    """A 10^-60 perturbation is too small for 40 digits and within reach
    of 80; a 10^-300 one is left to the exact sign."""
    calls = []
    exact_sign = positivity._exact_sign

    def counted(counts, tab, i, k):
        calls.append((i, k))
        return exact_sign(counts, tab, i, k)

    monkeypatch.setattr(positivity, "_exact_sign", counted)
    n, j = 8, 4
    for e, deciding in ((60, 80), (300, None)):
        rho, counts, tab = _synthetic(n, F(7, 5), F(2, 3), j, e, 1, [1])
        # Delta^k d(i) with i <= j <= i + k is about C(k, j - i) 10^-e
        near = {(i, k) for k in range(3, n + 1) for i in range(n - k + 1)
                if i <= j <= i + k}
        for prec in (40, 80, 160):
            values = dict(zip(tab.cells, _triangle(
                _decimal_leaves(counts, tab, prec))))
            decided = {(i, k) for i, k in near
                       if abs(values[(i, k)]) > _DECIMAL_ERR << k}
            assert decided == (near if deciding and prec >= deciding
                               else set()), (e, prec)
        calls.clear()
        assert _sign_cascade(counts, tab) == exact_signs(rho)
        assert (near <= set(calls)) == (deciding is None)


def test_simulate_n22_needs_no_exact_sign(capsys, monkeypatch):
    """At n = 22 the floats leave cells open, and the 40-digit tier decides
    them all: the exact test is never reached."""
    from matchdiff.cli import main

    calls, tiers = [], []
    decimal_leaves = positivity._decimal_leaves

    def counted(counts, tab, prec):
        tiers.append(prec)
        return decimal_leaves(counts, tab, prec)

    monkeypatch.setattr(positivity, "_decimal_leaves", counted)
    monkeypatch.setattr(positivity, "_exact_sign",
                        lambda *args: calls.append(args))
    code = main(["simulate", "--r", "3", "--n", "22", "--samples", "2"])
    capsys.readouterr()
    assert code in (0, 1)
    assert tiers == [40, 40] and calls == []


def test_grid_counts_each_sample_once(monkeypatch):
    """Each sample is counted once and gets one sign table, each reached
    through the module's globals (where a tracer wraps them), and no rho
    vector: the sign table and the moments work on the counts alone."""
    owners = {"match_poly_full": positivity, "rho_vector": positivity,
              "delta_table": positivity, "rho": _KTable}
    calls = {name: [] for name in owners}

    def counted(name):
        fn = getattr(owners[name], name)

        def wrapper(g, *args):
            calls[name].append(g)
            return fn(g, *args)
        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name))
    ensemble_grid(3, 8, 10, [(1, 1)], seed=5)
    assert {name: len(c) for name, c in calls.items()} == \
        {"match_poly_full": 10, "rho_vector": 0, "delta_table": 10, "rho": 0}


def test_alpha0_exact_fixtures():
    assert alpha0_exact(C4, 1, 0) == 0  # rho_1 - 1
    assert alpha0_exact(K33, 1, 1) == F(1, 9)
    with pytest.raises(ValueError):
        alpha0_exact(K33, 2, 2)
    with pytest.raises(ValueError):
        alpha0_exact(K33, -1, 2)  # not m_n read as m_{-1}


def test_alpha0_sign_equals_delta_sign():
    for seed in range(15):
        g = gen_regular_bipartite(8, 3, seed=seed)
        rho = rho_vector(g)
        for k in range(4):
            for i in range(8 - k + 1):
                a0 = alpha0_exact(rho, i, k)
                s = delta_sign(rho, i, k)
                assert (a0 > 0) - (a0 < 0) == s


def test_exact_signs_agree_with_interval_logs():
    """Interval-log evaluation of Delta^k d(i) (256-bit mpmath) must agree
    with the exact integer cross-multiplication decision on 1000+ random
    (g, i, k) whenever the interval is decisive."""
    from mpmath import iv

    checked = 0
    saved, iv.prec = iv.prec, 256
    try:
        for seed in range(25):
            g = gen_regular_bipartite(7 + seed % 3, 3, seed=seed)
            prof = delta_table(g)
            ds = [iv.log(iv.mpf(q.numerator) / iv.mpf(q.denominator))
                  for q in prof.rho]
            for (i, k), sign in prof.signs.items():
                val = sum((-1) ** (k + ell) * math.comb(k, ell) * ds[i + ell]
                          for ell in range(k + 1))
                if val.a > 0:
                    assert sign > 0, (seed, i, k)
                elif val.b < 0:
                    assert sign < 0, (seed, i, k)
                # an interval straddling zero cannot certify; the exact
                # path decides
                checked += 1
    finally:
        iv.prec = saved
    assert checked >= 1000


def test_d0_d1_zero_on_random_graphs():
    for seed in range(30):
        r = 3 if seed % 2 == 0 else 4
        n = 6 + seed % 5
        rho = rho_vector(gen_regular_bipartite(n, r, seed=seed))
        assert rho[0] == 1 and rho[1] == 1


def test_newton_is_a_window_on_the_second_difference():
    """Newton's inequality at i is exactly
    Delta^2 d(i-1) <= ln((2n-2i+1)/(2n-2i-1)): exp(Delta^2 d(i-1)) over
    that window is the ratio Newton bounds by 1, on seeded r = 3 graphs."""
    for seed in range(12):
        n = 4 + seed
        g = gen_regular_bipartite(n, 3, seed=seed)
        m = match_poly_full(g).counts
        rho = rho_vector(g)
        for i in range(1, n):
            window = F(2 * n - 2 * i + 1, 2 * n - 2 * i - 1)
            newton = F(m[i - 1] * m[i + 1] * (i + 1) * (n - i + 1),
                       m[i] ** 2 * i * (n - i))
            assert rho[i + 1] * rho[i - 1] / rho[i] ** 2 == newton * window
            assert newton <= 1


def test_alpha0_constant_for_low_index():
    """m_1..m_3 depend only on (n, r), so alpha_0 with i + k <= 3 is the
    same for every simple graph at fixed (n, r)."""
    vals = set()
    for seed in range(10):
        g = gen_regular_bipartite(9, 3, seed=seed)
        rho = rho_vector(g)
        vals.add((alpha0_exact(rho, 1, 1), alpha0_exact(rho, 0, 2),
                  alpha0_exact(rho, 1, 2), alpha0_exact(rho, 3, 0)))
    assert len(vals) == 1


def test_ensemble_reproducible_and_exact():
    a = ensemble_grid(3, 8, 60, [(2, 1)], seed=77).stats[(2, 1)]
    b = ensemble_grid(3, 8, 60, [(2, 1)], seed=77).stats[(2, 1)]
    assert a == b
    # exact moments equal brute-force recomputation from per-sample values
    vals = []
    for idx in range(60):
        rho = rho_vector(_sample_graph(3, 8, 77, idx))
        vals.append(alpha0_exact(rho, 2, 1))
    mean = sum(vals, F(0)) / 60
    beta = sum((v * v for v in vals), F(0)) / 60 - mean * mean
    assert a.alpha_hat == mean and a.beta_hat == beta
    assert a.p_violation == F(sum(v < 0 for v in vals), 60)


def test_ensemble_single_sample():
    st = ensemble_grid(3, 8, 1, [(1, 1)], seed=3).stats[(1, 1)]
    assert st.beta_hat == 0
    assert st.p_violation in (F(0), F(1))


def test_ensemble_parallel_agrees_with_serial():
    # jobs=2 cuts 130 samples into chunks of max(64, 130 // 8 + 1) = 64,
    # so three partials are merged
    pairs = [(1, 1), (2, 2), (0, 3), (3, 2), (2, 4)]
    a = ensemble_grid(3, 7, 130, pairs, seed=5, jobs=1)
    b = ensemble_grid(3, 7, 130, pairs, seed=5, jobs=2)
    assert a == b


class _SerialPool:
    """A stand-in for `multiprocessing.Pool` that maps in this process and
    records the size it was opened with."""
    sizes: list[int] = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("samples, jobs, size", [(100, 8, 2), (130, 2, 2),
                                                 (300, 3, 3), (64, 4, 1)])
def test_ensemble_pool_no_larger_than_its_chunks(samples, jobs, size,
                                                 monkeypatch):
    """samples=100, jobs=8 makes two chunks of at most 64, so two processes
    suffice; the results are the serial ones for any jobs."""
    import multiprocessing
    _SerialPool.sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    pairs = [(1, 1), (2, 2)]
    got = ensemble_grid(3, 7, samples, pairs, seed=9, jobs=jobs)
    assert _SerialPool.sizes == [size]
    assert got == ensemble_grid(3, 7, samples, pairs, seed=9, jobs=1)


def test_census_totals_merge_across_jobs():
    """The census totals of the first census_samples samples are the same
    sums whether one worker or three partials produce them."""
    kw = dict(census_smax=8, census_samples=100)
    a = ensemble_grid(3, 7, 130, [(0, 0), (1, 2)], seed=5, jobs=1, **kw)
    b = ensemble_grid(3, 7, 130, [(0, 0), (1, 2)], seed=5, jobs=2, **kw)
    assert a == b
    totals = {4: 0, 6: 0, 8: 0}
    for idx in range(100):
        for s, c in cycle_census(_sample_graph(3, 7, 5, idx), 8).items():
            totals[s] += c
    assert a.cycle_totals == totals


@settings(max_examples=15, deadline=None)
@given(samples=st.integers(1, 12),
       cuts=st.lists(st.integers(0, 12), max_size=4))
def test_tally_merged_from_any_split_equals_one_worker(samples, cuts):
    """The workers' tallies merge associatively: any split of the samples
    into chunks, merged with `Counter.update`, gives the one-worker tally,
    zero entries included."""
    tab = _k_table(6, 3)
    consts = {p: tab.alpha0(*p) for p in [(0, 0), (1, 2), (2, 1), (3, 3)]}
    census = (8, 7)  # cycle census up to s = 8 on samples 0..6
    bounds = [0, *sorted(min(c, samples) for c in cuts), samples]
    merged = Counter()
    for lo, hi in zip(bounds, bounds[1:]):
        merged.update(_grid_worker((3, 6, 11, lo, hi, consts, *census)))
    one = _grid_worker((3, 6, 11, 0, samples, consts, *census))
    assert dict(merged) == dict(one)


def test_merge_keeps_negative_sums(monkeypatch):
    """The merge adds the tallies and keeps their entries <= 0, which a
    `Counter` sum drops: with every D alpha_0 negated, so is the mean."""
    mean = ensemble_grid(3, 7, 20, [(2, 1)], seed=4).stats[(2, 1)].alpha_hat
    scaled = positivity._scaled_alpha0
    monkeypatch.setattr(positivity, "_scaled_alpha0",
                        lambda m, const: -scaled(m, const))
    neg = ensemble_grid(3, 7, 20, [(2, 1)], seed=4).stats[(2, 1)]
    assert neg.alpha_hat == -mean < 0 and neg.p_violation == 1


def test_ensemble_grid_outside_domain_samples_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled with no (i, k) in the domain")

    monkeypatch.setattr(positivity, "_sample_graph", refuse)
    assert ensemble_grid(3, 4, 5, [(3, 3), (0, 5)], seed=1) == \
        TrendRow(n=4, stats={}, p_graph_positive=None)


def test_ensemble_grid_counts_a_repeated_pair_once():
    one = ensemble_grid(3, 8, 20, [(2, 1)], seed=3)
    assert ensemble_grid(3, 8, 20, [(2, 1), (2, 1)], seed=3) == one


def _integer_alpha0_errors(g, consts):
    """(i, k) pairs where the integer D alpha_0 of `_scaled_alpha0`
    disagrees with D `alpha0_exact` or its sign with the reference
    `delta_sign`."""
    mvec = match_poly_full(g)
    rho = rho_vector(g, mvec)
    errors = []
    for (i, k), const in consts.items():
        a = _scaled_alpha0(mvec.counts, const)
        if a != const[-1] * alpha0_exact(rho, i, k) or \
                (a > 0) - (a < 0) != delta_sign(rho, i, k):
            errors.append((i, k))
    return errors


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([3, 4, 5]), n=st.integers(3, 10),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integer_alpha0_equals_exact(r, n, seed):
    n = max(n, r)
    # seeded 2-edge swaps of a circulant: the permutation model takes about
    # a second per graph at r=5
    g = _swap_shuffle(circulant_bipartite(n, range(r)), seed)
    tab = _k_table(n, r)
    consts = {(i, k): tab.alpha0(i, k)
              for k in range(n + 1) for i in range(n - k + 1)}
    assert _integer_alpha0_errors(g, consts) == []


def test_integer_alpha0_check_catches_swapped_constants():
    g = gen_regular_bipartite(8, 3, 4)
    tab = _k_table(8, 3)
    consts = {(i, k): tab.alpha0(i, k) for k in range(9) for i in range(9 - k)}
    swapped = {p: (plus, minus, cminus, cplus, d)
               for p, (plus, minus, cplus, cminus, d) in consts.items()}
    assert _integer_alpha0_errors(g, swapped)


def test_ensemble_grid_computes_no_graph_ids(monkeypatch):
    def refuse(self):
        raise AssertionError("graph_id called on the sampling path")

    monkeypatch.setattr(BipGraph, "graph_id", refuse)
    assert ensemble_grid(3, 6, 5, [(1, 1), (2, 2)], seed=1)


def test_trend_report_does_not_load_hashlib():
    """hashlib loads OpenSSL (megabytes of resident memory); the Monte
    Carlo path has no use for it."""
    src = os.path.dirname(os.path.dirname(matchdiff.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "from matchdiff.positivity import trend_report\n"
            "trend_report(3, [6, 8], 5, [(1, 1), (2, 2)], seed=1).csv()\n"
            "print('hashlib' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_trend_report_structure():
    rep = trend_report(3, [6, 8], 40, [(1, 1), (0, 0)], seed=9)
    assert [row.n for row in rep.rows] == [6, 8]
    csv = rep.csv("cfg")
    assert csv.startswith("# cfg\n")
    assert "p_graph_positive" in csv.splitlines()[2]
    # k=0, i<=1 violation frequency identically 0 (d(0) = d(1) = 0)
    st = rep.rows[0].stats[(0, 0)]
    assert st.p_violation == 0
    assert rep.monotone_violation(0, 0)


def test_positivity_drops_reported():
    def row(n, positive):
        st = EnsembleStats(r=3, n=n, i=0, k=0, samples=100, seed=1,
                           alpha_hat=F(0), beta_hat=F(0), p_violation=F(0))
        return TrendRow(n=n, stats={(0, 0): st},
                        p_graph_positive=F(positive, 100))

    rep = TrendReport(r=3, samples=100, seed=1,
                      rows=[row(6, 90), row(8, 95), row(10, 40), row(12, 45)])
    assert rep.positivity_drops() == [(8, 10)]
    assert not rep.monotone_positivity()
    del rep.rows[2:]
    assert rep.positivity_drops() == [] and rep.monotone_positivity()
    # a row with nothing sampled (no (i, k) in its domain) is skipped
    rep.rows += [TrendRow(n=9, stats={}, p_graph_positive=None), row(10, 40)]
    assert rep.positivity_drops() == [(8, 10)]
