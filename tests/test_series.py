"""Exact series algebra: fixtures from the operation contracts plus
randomized ring/inverse properties."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from matchdiff.atable import a1_builtin
from matchdiff.series import (EXACT_ORDER, ImproperSeriesError, JPoly,
                              NSeries, RLaurent, TruncationError,
                              WindowOverflowError, solve_overdetermined_exact)

W = (-2, 2)
# wide enough that triple products of window-(-2,2) exponents still fit
WIDE = (-8, 8)


def jmono(jpow, coeff=1):
    return JPoly.monomial(jpow, F(coeff), W)


def nterm(h, jpoly, order=4):
    return NSeries({h: jpoly}, order, W)


# -- strategies ----------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def rlaurents(draw):
    coeffs = draw(st.dictionaries(st.integers(-2, 2), rationals, max_size=2))
    return RLaurent(coeffs, WIDE)


@st.composite
def jpolys(draw, max_deg=2):
    deg = draw(st.integers(0, max_deg))
    return JPoly([draw(rlaurents()) for _ in range(deg + 1)])


@st.composite
def nseries(draw, order=3, min_h=0):
    coeffs = {}
    for h in range(min_h, order + 1):
        if draw(st.booleans()):
            coeffs[h] = draw(jpolys())
    return NSeries(coeffs, order, WIDE)


def proper(draw_order=3):
    return nseries(order=draw_order, min_h=1)


# -- addition -------------------------------------------------------------------


def test_add_inverse():
    x = nterm(1, jmono(1))
    assert (x + (-x)) == NSeries.zero(4, W)


def test_add_a1_plus_jsq_minus_j():
    # a_1/n + (j^2 - j)/n = j(j-1)/(2r) / n; re-checked by evaluation
    a1 = NSeries({1: a1_builtin().map_coeffs(lambda c: c.with_window(W))}, 4, W)
    other = nterm(1, jmono(2) - jmono(1))
    total = a1 + other
    half_r = RLaurent({-1: F(1, 2)}, W)
    expected = nterm(1, (jmono(2) - jmono(1)) * half_r)
    assert total == expected
    for j0 in (2, 3, 4, 5):
        got = total.subst_j(j0).coeff(0, 1).eval(3)
        assert got == F(j0 * (j0 - 1), 2 * 3)


@settings(max_examples=25, deadline=None)
@given(nseries())
def test_add_identity(x):
    assert (x + NSeries.zero(x.order, W)) == x


# -- multiplication -------------------------------------------------------------


def test_mul_conjugate():
    one = NSeries.one(4, W)
    jn = nterm(1, jmono(1))
    prod = (one + jn) * (one - jn)
    assert prod == one - nterm(2, jmono(2))


def test_mul_truncates():
    x = NSeries({1: JPoly.const(1, W)}, 1, W)
    assert (x * x) == NSeries.zero(1, W)


@settings(max_examples=12, deadline=None)
@given(nseries(), nseries(), nseries())
def test_mul_associative(a, b, c):
    assert ((a * b) * c) == (a * (b * c))


@settings(max_examples=12, deadline=None)
@given(nseries(), nseries(), nseries())
def test_distributive(a, b, c):
    assert (a * (b + c)) == (a * b + a * c)


@settings(max_examples=25, deadline=None)
@given(nseries(), nseries())
def test_mul_commutative(a, b):
    assert (a * b) == (b * a)


# -- ln / exp -------------------------------------------------------------------


def test_ln1p_scalar_mercator():
    a = F(5)
    x = NSeries({1: JPoly.const(a, W)}, 3, W)
    got = x.ln1p()
    expected = NSeries({1: JPoly.const(a, W),
                        2: JPoly.const(-a * a / 2, W),
                        3: JPoly.const(a ** 3 / 3, W)}, 3, W)
    assert got == expected


def test_ln1p_a1_coefficients():
    # order-3 powers of a_1 reach r^-3, so declare a window that admits them
    a1 = a1_builtin().map_coeffs(lambda c: c.with_window((-3, 0)))
    x = NSeries({1: a1}, 3, (-3, 0))
    lnx = x.ln1p()
    # [j^2/n] = 1/(2r) - 1 and [j^4/n] = 0
    assert lnx.coeff(2, 1) == RLaurent({-1: F(1, 2), 0: F(-1)}, W)
    assert lnx.coeff(4, 1).is_zero()


def test_ln1p_rejects_constant_term():
    x = NSeries({0: JPoly.const(1, W)}, 3, W)
    with pytest.raises(ImproperSeriesError):
        x.ln1p()
    with pytest.raises(ImproperSeriesError):
        x.exp()


def test_exp_zero():
    assert NSeries.zero(4, W).exp() == NSeries.one(4, W)


@settings(max_examples=15, deadline=None)
@given(nseries(min_h=1))
def test_exp_ln_roundtrip(x):
    assert x.ln1p().exp() == (NSeries.one(x.order, W) + x)
    assert (x.exp() - 1).ln1p() == x


# -- coeff ----------------------------------------------------------------------


def test_coeff_const():
    assert NSeries.one(3, W).coeff(0, 0) == RLaurent.const(1)


def test_coeff_beyond_order_raises():
    with pytest.raises(TruncationError):
        NSeries.one(3, W).coeff(0, 4)


@settings(max_examples=30, deadline=None)
@given(nseries(), nseries(), rationals, rationals)
def test_coeff_linear(a, b, al, be):
    lhs = (a * al + b * be).coeff(1, 2)
    rhs = a.coeff(1, 2) * al + b.coeff(1, 2) * be
    assert lhs == rhs


# -- substitutions ---------------------------------------------------------------


def test_subst_j_a1_at_1():
    a1 = NSeries({1: a1_builtin()}, 3, (-1, 0))
    assert a1.subst_j(1) == NSeries.zero(3)


def test_shift_j_zero_is_identity():
    a1 = NSeries({1: a1_builtin()}, 3, (-1, 0))
    assert a1.shift_j(0) == a1


def test_subst_r_a1():
    # a_1(3, 4) = 4*3*(1/6 - 1) = -10
    assert a1_builtin().eval_j(4).eval(3) == F(-10)
    a1 = NSeries({1: a1_builtin()}, 3, (-1, 0))
    assert a1.subst_r(3).subst_j(4).coeff(0, 1) == RLaurent.const(F(-10))


def test_subst_r_zero_rejected():
    a1 = NSeries({1: a1_builtin()}, 3, (-1, 0))
    with pytest.raises(ZeroDivisionError):
        a1.subst_r(0)


@settings(max_examples=25, deadline=None)
@given(nseries(), nseries(), st.integers(-3, 3))
def test_subst_j_ring_morphism(a, b, j0):
    assert (a + b).subst_j(j0) == a.subst_j(j0) + b.subst_j(j0)
    assert (a * b).subst_j(j0) == a.subst_j(j0) * b.subst_j(j0)


@settings(max_examples=25, deadline=None)
@given(nseries(min_h=1), st.integers(-2, 2), st.integers(0, 2))
def test_shift_then_eval(x, z, j0):
    # p(j - z) at j0 equals p at j0 - z
    assert x.shift_j(z).subst_j(j0) == x.subst_j(j0 - z)


# -- integer powers ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(nseries())
def test_pow_int(s):
    one = NSeries.one(s.order, W)
    assert s.pow_int(0) == one
    assert s.pow_int(1) == s
    assert s.pow_int(2) == s * s


# -- windows and serialization ------------------------------------------------------


def test_window_overflow_fails_loudly():
    tight = RLaurent({-2: F(1)}, (-2, 0))
    with pytest.raises(WindowOverflowError):
        tight * tight


def test_explicit_window_widening():
    tight = RLaurent({-2: F(1)}, (-2, 0))
    wide = tight.with_window((-4, 0))
    assert (wide * wide) == RLaurent({-4: F(1)}, (-4, 0))


# -- RLaurent and JPoly arithmetic against evaluation ----------------------------

nonzero_rationals = rationals.filter(lambda x: x != 0)
# ints and zeros among the stored values exercise the constructor's
# conversion and zero filtering
raw_values = st.one_of(rationals, st.integers(-3, 3))


@st.composite
def windowed(draw):
    lo, hi = draw(st.integers(-3, 0)), draw(st.integers(0, 3))
    coeffs = draw(st.dictionaries(st.integers(lo, hi), raw_values,
                                  max_size=3))
    return RLaurent(coeffs, (lo, hi))


@st.composite
def windowed_jpolys(draw):
    return JPoly([draw(windowed()) for _ in range(draw(st.integers(0, 2)))])


def assert_well_formed(x: RLaurent):
    assert all(isinstance(v, F) and v != 0 for v in x.c.values())
    assert all(x.lo <= e <= x.hi for e in x.c)


def assert_jpoly_well_formed(p: JPoly):
    assert not p.c or not p.c[-1].is_zero()
    for x in p.c:
        assert_well_formed(x)


def product_or_raise(a, b):
    """a * b, or None when a product coefficient leaves the joined window
    (in which case the product must raise)."""
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    exact: dict[int, F] = {}
    for e1, v1 in a.c.items():
        for e2, v2 in b.c.items():
            exact[e1 + e2] = exact.get(e1 + e2, F(0)) + v1 * v2
    if any(v != 0 and not lo <= e <= hi for e, v in exact.items()):
        with pytest.raises(WindowOverflowError):
            a * b
        return None
    return a * b


@settings(max_examples=200, deadline=None)
@given(windowed(), windowed(), nonzero_rationals, raw_values)
def test_rlaurent_ops_match_evaluation(a, b, r0, s):
    assert_well_formed(a)
    results = [(a + b, a.eval(r0) + b.eval(r0)),
               (a - b, a.eval(r0) - b.eval(r0)),
               (-a, -a.eval(r0)),
               (a * s, a.eval(r0) * s),
               (s * a, s * a.eval(r0)),
               (a + s, a.eval(r0) + s),
               (s - a, s - a.eval(r0))]
    prod = product_or_raise(a, b)
    if prod is not None:
        results.append((prod, a.eval(r0) * b.eval(r0)))
    for got, want in results:
        assert_well_formed(got)
        assert got.eval(r0) == want
    assert (a - a).c == {}


@settings(max_examples=100, deadline=None)
@given(windowed_jpolys(), windowed_jpolys(), nonzero_rationals, rationals)
def test_jpoly_ops_match_evaluation(p, q, r0, j0):
    def ev(x):
        return x.eval_j(j0).eval(r0)

    for got, want in ((p + q, ev(p) + ev(q)), (p - q, ev(p) - ev(q)),
                      (-p, -ev(p))):
        assert_jpoly_well_formed(got)
        assert ev(got) == want
    assert (p - p).is_zero()
    try:
        prod = p * q
    except WindowOverflowError:
        # some coefficient product left its joined window
        assert any(product_or_raise(a, b) is None for a in p.c for b in q.c)
    else:
        assert_jpoly_well_formed(prod)
        assert ev(prod) == ev(p) * ev(q)


def test_singular_square_system_raises():
    with pytest.raises(ValueError):
        solve_overdetermined_exact([[F(1), F(2)], [F(2), F(4)]],
                                   [F(1), F(2)])
    assert solve_overdetermined_exact([[F(1), F(1)], [F(1), F(-1)]],
                                      [F(3), F(1)]) == [F(2), F(1)]


# -- the fused product against the per-pair product it replaced -----------------
#
# `reference_jpoly_add`, `reference_jpoly_mul` and `reference_mul_capped` are
# JPoly.__add__, JPoly.__mul__ and NSeries.mul_capped as they were before the
# product became one convolution: one checked RLaurent product per pair of
# j-coefficients, summed through RLaurent and JPoly additions.


def reference_jpoly_add(p, q):
    n = max(len(p.c), len(q.c))
    c = [(p.c[i] if i < len(p.c) else RLaurent.zero())
         + (q.c[i] if i < len(q.c) else RLaurent.zero())
         for i in range(n)]
    return JPoly(c, p._merge_bound(q, max))


def reference_jpoly_mul(p, q):
    c = [RLaurent.zero() for _ in range(len(p.c) + len(q.c) - 1)] \
        if p.c and q.c else []
    for i, a in enumerate(p.c):
        for k, b in enumerate(q.c):
            c[i + k] = c[i + k] + a * b
    return JPoly(c, p._merge_bound(q, lambda x, y: x + y))


def reference_mul_capped(a, b, cap):
    cands = [max(a.order, b.order)]
    if b.c:
        cands.append(a.order + min(b.c))
    if a.c:
        cands.append(b.order + min(a.c))
    order = min(min(cands), cap, EXACT_ORDER)
    c = {}
    for h1, p1 in a.c.items():
        for h2, p2 in b.c.items():
            h = h1 + h2
            if h > order:
                continue
            prod = reference_jpoly_mul(p1, p2)
            c[h] = reference_jpoly_add(c[h], prod) if h in c else prod
    return NSeries(c, order, a._join_window(b))


def outcome(f, *args):
    """('ok', value) or ('overflow', message)."""
    try:
        return "ok", f(*args)
    except WindowOverflowError as exc:
        return "overflow", str(exc)


def assert_same_jpoly(got, want):
    assert got.bound == want.bound
    assert len(got.c) == len(want.c)
    for x, y in zip(got.c, want.c):
        assert x.c == y.c
        assert x.window == y.window
        assert_well_formed(x)
    assert not got.c or got.c[-1].c


def assert_same_nseries(got, want):
    assert (got.order, got.window) == (want.order, want.window)
    assert list(got.c) == list(want.c)
    for h in want.c:
        assert_same_jpoly(got.c[h], want.c[h])


# few distinct values, so that sums of products cancel now and then
small_values = st.sampled_from([F(1), F(-1), F(2), F(-1, 2)])


@st.composite
def symbolic_rlaurents(draw, min_size=0):
    """Windows like (-3, 0), sometimes not containing 0; exponents up to
    the window's edges, so that products often leave it."""
    lo = draw(st.integers(-3, 1))
    hi = draw(st.integers(max(lo, -1), 2))
    coeffs = draw(st.dictionaries(st.integers(lo, hi), small_values,
                                  min_size=min_size, max_size=2))
    return RLaurent(coeffs, (lo, hi))


@st.composite
def bounded_jpolys(draw):
    """Nonzero JPolys of degree <= 2 (zero coefficients inside), with a
    degree bound or None."""
    deg = draw(st.integers(0, 2))
    c = [draw(symbolic_rlaurents()) for _ in range(deg)]
    c.append(draw(symbolic_rlaurents(min_size=1)))
    slack = draw(st.integers(-1, 2))  # -1: no bound
    return JPoly(c, None if slack < 0 else deg + slack)


@st.composite
def symbolic_nseries(draw):
    order = draw(st.integers(0, 4))
    hs = draw(st.lists(st.integers(-2, order), min_size=1, max_size=4,
                       unique=True))
    window = (draw(st.integers(-3, 0)), draw(st.integers(0, 2)))
    return NSeries({h: draw(bounded_jpolys()) for h in hs}, order, window)


@settings(max_examples=300, deadline=None)
@given(symbolic_nseries(), symbolic_nseries(), st.integers(-3, 6))
def test_fused_product_equals_per_pair_product(a, b, cap):
    want = outcome(reference_mul_capped, a, b, cap)
    got = outcome(a.mul_capped, b, cap)
    assert got[0] == want[0]
    if want[0] == "overflow":
        assert got[1] == want[1]
    else:
        assert_same_nseries(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(bounded_jpolys(), bounded_jpolys())
def test_fused_jpoly_ops_equal_per_pair_ops(p, q):
    assert_same_jpoly(p + q, reference_jpoly_add(p, q))
    want = outcome(reference_jpoly_mul, p, q)
    got = outcome(JPoly.__mul__, p, q)
    assert got[0] == want[0]
    if want[0] == "overflow":
        assert got[1] == want[1]
    else:
        assert_same_jpoly(got[1], want[1])


def test_fused_product_fixed_cases():
    """Cases the random ones may miss: an overflow that a sum would hide,
    and a top j-coefficient that cancels before a later pair reaches it
    again (its window then restarts at (0, 0), as a JPoly sum did)."""
    tight = JPoly([RLaurent({-2: F(1)}, (-2, 0))])
    x = NSeries({1: tight, 2: -tight}, 4, (-2, 0))
    for s in (x, NSeries({1: tight}, 4, (-2, 0))):
        with pytest.raises(WindowOverflowError, match="r-exponent -4"):
            s * s
    # (r + r^2)(r^2 - r) = r^4 - r^2: the first stray term, r^3, cancels,
    # and the error names r^4 as the per-pair product did
    p = JPoly([RLaurent({1: F(1), 2: F(1)}, (0, 2))])
    q = JPoly([RLaurent({2: F(1), 1: F(-1)}, (0, 2))])
    assert outcome(JPoly.__mul__, p, q) == outcome(reference_jpoly_mul, p, q) \
        == ("overflow", "r-exponent 4 outside window [0, 2]")

    # at 1/n the pairs (0, 1), (1, 0), (2, -1) give [1, u] + [1, -u] + [1, 1]
    u = RLaurent.const(1, (-3, 0))
    one = RLaurent.const(1)
    a = NSeries({0: JPoly([one]), 1: JPoly([one, -u]), 2: JPoly([one])},
                3, (-3, 0))
    b = NSeries({1: JPoly([one, u]), 0: JPoly([one]), -1: JPoly([one, one])},
                3, (-3, 0))
    got, want = a.mul_capped(b, 3), reference_mul_capped(a, b, 3)
    assert_same_nseries(got, want)
    assert got.c[1] == JPoly([F(3), F(1)])
    assert got.c[1].c[1].window == (0, 0)


def _symbolic_series(order=4):
    """1 + a_1/n + (a_1^2 - j)/n^2 at window (-4, 0): several terms, each
    with several r-exponents."""
    w = (-4, 0)
    a1 = a1_builtin().map_coeffs(lambda c: c.with_window(w))
    j = JPoly.monomial(1, 1, w)
    return NSeries({0: JPoly.const(1, w), 1: a1,
                    2: reference_jpoly_mul(a1, a1) - j}, order, w)


def test_fused_product_builds_no_rlaurent_per_term(monkeypatch):
    """No RLaurent product and no checked RLaurent is built on the way:
    the per-pair path must not come back."""
    a = _symbolic_series()
    b = a.shift_j(1)
    want = reference_mul_capped(a, b, 4)
    want_jpoly = reference_jpoly_mul(a.c[1], b.c[2])

    def refuse(*args, **kwargs):
        raise AssertionError("per-term RLaurent built")

    monkeypatch.setattr(RLaurent, "__mul__", refuse)
    monkeypatch.setattr(RLaurent, "__init__", refuse)
    assert_same_nseries(a.mul_capped(b, 4), want)
    assert_same_jpoly(a.c[1] * b.c[2], want_jpoly)
