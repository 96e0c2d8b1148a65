"""Complete-graph correction factor: coefficients, the exact finite-n
closed form, and the truncation-error envelope."""

import hashlib
from fractions import Fraction as F

import pytest

from matchdiff.kseries import bernoulli_numbers, build_G
from matchdiff.series import JPoly, NSeries
from oracles import k_exact


def k_series(h_max: int) -> NSeries:
    """K = exp(G) - 1, the correction series itself, through 1/n^h_max."""
    return build_G(h_max).exp() - 1


def eval_at(series: NSeries, i0: int, n0: int) -> F:
    """Exact rational value of the truncated series at integer i, n."""
    return sum((p.subst_j(i0).as_rat() * F(1, n0) ** h
                for h, p in series.terms().items()), F(0))


def test_bernoulli_prefix():
    assert bernoulli_numbers(6) == [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30),
                                    0, F(1, 42)]


def test_g_and_k_reprs_pinned():
    """G through 1/n^10 and K through 1/n^8, exact to the printed digit."""
    text = "\n".join([repr(build_G(h)) for h in range(1, 11)]
                     + [repr(k_series(h)) for h in range(1, 9)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "05c403f29f7baab1391eb55f6730d84b06c9f771fac766e878e91f16eaeb62a2")


def test_g_vanishes_at_zero():
    g = build_G(5)
    assert g.subst_j(0) == NSeries.zero(5)


def test_g_is_proper_zero():
    g = build_G(6)
    # no constant term and no positive powers of n
    assert g.min_exp >= 1


def test_k_first_order_coefficient():
    # [1/n] K = i^2 - i
    k = k_series(4)
    assert k.jpoly(1) == JPoly([0, F(-1), F(1)])
    assert k.jpoly(0).is_zero()


def test_k_vanishes_at_zero_and_one():
    k = k_series(6)
    assert k.subst_j(0) == NSeries.zero(6)
    # 1 + K_1 = 1 exactly, so the truncated series must vanish identically
    assert k.subst_j(1) == NSeries.zero(6)


def test_k_exact_small_values():
    assert k_exact(8, 0) == 1
    assert k_exact(8, 1) == 1
    assert k_exact(8, 2) == F(7 ** 2 * 2 ** 2 * 4 ** 2 * 24, 40320)


def test_k_exact_range_checks():
    with pytest.raises(ValueError):
        k_exact(7, 1)
    with pytest.raises(ValueError):
        k_exact(8, 5)


def test_series_matches_exact_with_fitted_constant():
    """|Delta(n)| <= C n^-(H+1) with C fitted from n in {50, 100} and then
    verified at n = 200, all in rational arithmetic."""
    h = 6
    k = k_series(h)
    for i in range(0, 7):
        errs = {}
        for n0 in (50, 100, 200):
            exact = k_exact(2 * n0, i)
            approx = 1 + eval_at(k, i, n0)
            errs[n0] = abs(exact - approx)
        c = max(errs[50] * F(50) ** (h + 1), errs[100] * F(100) ** (h + 1))
        assert errs[200] <= c * F(1, 200) ** (h + 1)


def test_ln_of_k_rebuilds_g():
    g = build_G(5)
    assert k_series(5).ln1p() == g
