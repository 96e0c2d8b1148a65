"""Exact series algebra: fixtures from the operation contracts plus
randomized ring/inverse properties."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from matchdiff import series
from matchdiff.atable import a1_builtin
from matchdiff.series import (EXACT_ORDER, ImproperSeriesError, JPoly,
                              NSeries, TruncationError, WindowOverflowError,
                              solve_overdetermined_exact)


def jmono(jpow, coeff=1):
    return JPoly.monomial(jpow, F(coeff))


def nterm(h, jpoly, order=4):
    return NSeries({h: jpoly}, order)


# -- strategies ----------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def rlaurents(draw, h):
    """r-Laurent polynomials (JPolys constant in j) with r-exponents
    within the graded rule at 1/n^h: [-max(h, 0), 0]."""
    coeffs = draw(st.dictionaries(st.integers(-max(h, 0), 0), rationals,
                                  max_size=2))
    return JPoly.laurent(coeffs)


@st.composite
def jpolys(draw, h, max_deg=2):
    deg = draw(st.integers(0, max_deg))
    return JPoly([draw(rlaurents(h)) for _ in range(deg + 1)])


@st.composite
def nseries(draw, order=3, min_h=0):
    coeffs = {}
    for h in range(min_h, order + 1):
        if draw(st.booleans()):
            coeffs[h] = draw(jpolys(h))
    return NSeries(coeffs, order)


def proper(draw_order=3):
    return nseries(order=draw_order, min_h=1)


# -- addition -------------------------------------------------------------------


def test_add_inverse():
    x = nterm(1, jmono(1))
    assert (x + (-x)) == NSeries.zero(4)


def test_add_a1_plus_jsq_minus_j():
    # a_1/n + (j^2 - j)/n = j(j-1)/(2r) / n; re-checked by evaluation
    a1 = NSeries({1: a1_builtin()}, 4)
    other = nterm(1, jmono(2) + -jmono(1))
    total = a1 + other
    half_r = JPoly.laurent({-1: F(1, 2)})
    expected = nterm(1, (jmono(2) + -jmono(1)) * half_r)
    assert total == expected
    for j0 in (2, 3, 4, 5):
        got = total.subst_j(j0).coeff(0, 1).at(0, 3)
        assert got == F(j0 * (j0 - 1), 2 * 3)


@settings(max_examples=25, deadline=None)
@given(nseries())
def test_add_identity(x):
    assert (x + NSeries.zero(x.order)) == x


# -- multiplication -------------------------------------------------------------


def test_mul_conjugate():
    one = NSeries.one(4)
    jn = nterm(1, jmono(1))
    prod = (one + jn) * (one - jn)
    assert prod == one - nterm(2, jmono(2))


def test_mul_truncates():
    x = NSeries({1: JPoly.const(1)}, 1)
    assert (x * x) == NSeries.zero(1)


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
    x = NSeries({1: JPoly.const(a)}, 3)
    got = x.ln1p()
    expected = NSeries({1: JPoly.const(a),
                        2: JPoly.const(-a * a / 2),
                        3: JPoly.const(a ** 3 / 3)}, 3)
    assert got == expected


def test_ln1p_a1_coefficients():
    # the powers of a_1/n reach r^-h at 1/n^h, within the graded rule
    x = NSeries({1: a1_builtin()}, 3)
    lnx = x.ln1p()
    # [j^2/n] = 1/(2r) - 1 and [j^4/n] = 0
    assert lnx.coeff(2, 1) == JPoly.laurent({-1: F(1, 2), 0: F(-1)})
    assert lnx.coeff(4, 1).is_zero()


def test_ln1p_rejects_constant_term():
    x = NSeries({0: JPoly.const(1)}, 3)
    with pytest.raises(ImproperSeriesError):
        x.ln1p()
    with pytest.raises(ImproperSeriesError):
        x.exp()


def test_exp_zero():
    assert NSeries.zero(4).exp() == NSeries.one(4)


def test_ln1p_exp_of_unbounded_order(monkeypatch):
    """A nonzero input of order EXACT_ORDER has an infinite ln1p and exp,
    so both raise; the zero series gives zero and one without a level
    computed."""
    x = NSeries({1: JPoly.const(1)}, EXACT_ORDER)
    with pytest.raises(TruncationError, match="ln1p of a nonzero series"):
        x.ln1p()
    with pytest.raises(TruncationError, match="exp of a nonzero series"):
        x.exp()

    def refuse(pairs):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(series, "_convolve", refuse)
    zero = NSeries.zero(EXACT_ORDER)
    for got, want in ((zero.ln1p(), zero),
                      (zero.exp(), NSeries.one(EXACT_ORDER))):
        assert got == want and got.order == EXACT_ORDER


@settings(max_examples=15, deadline=None)
@given(nseries(min_h=1))
def test_exp_ln_roundtrip(x):
    assert x.ln1p().exp() == (NSeries.one(x.order) + x)
    assert (x.exp() - 1).ln1p() == x


# -- coeff ----------------------------------------------------------------------


def test_coeff_const():
    assert NSeries.one(3).coeff(0, 0) == JPoly.const(1)


def test_coeff_beyond_order_raises():
    with pytest.raises(TruncationError):
        NSeries.one(3).coeff(0, 4)


@settings(max_examples=30, deadline=None)
@given(nseries(), nseries(), rationals, rationals)
def test_coeff_linear(a, b, al, be):
    lhs = (a * al + b * be).coeff(1, 2)
    rhs = a.coeff(1, 2) * al + b.coeff(1, 2) * be
    assert lhs == rhs


# -- substitutions ---------------------------------------------------------------


def test_subst_j_a1_at_1():
    a1 = NSeries({1: a1_builtin()}, 3)
    assert a1.subst_j(1) == NSeries.zero(3)


def test_shift_j_zero_is_identity():
    a1 = NSeries({1: a1_builtin()}, 3)
    assert a1.shift_j(0) == a1


def test_subst_r_a1():
    # a_1(3, 4) = 4*3*(1/6 - 1) = -10
    assert a1_builtin().at(4, 3) == F(-10)
    assert a1_builtin().subst_r(3).subst_j(4) == JPoly.const(F(-10))


def test_subst_r_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        a1_builtin().subst_r(0)


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
    one = NSeries.one(s.order)
    assert s.pow_int(0) == one
    assert s.pow_int(1) == s
    assert s.pow_int(2) == s * s


# -- the graded r-exponent rule ------------------------------------------------------


def r_pow(e, coeff=1):
    return JPoly.laurent({e: coeff})


def test_graded_rule_rejects_stray_exponents():
    """The coefficient of 1/n^h holds only r-exponents in [-max(h, 0), 0];
    construction names the stray exponent and its level."""
    for h in (-2, -1, 0):
        with pytest.raises(WindowOverflowError,
                           match=rf"r-exponent 1 at 1/n\^{h} outside \[0, 0\]"):
            NSeries({h: r_pow(1)}, 4)
    with pytest.raises(WindowOverflowError,
                       match=r"r-exponent -3 at 1/n\^2 outside \[-2, 0\]"):
        NSeries({2: r_pow(-3)}, 4)
    with pytest.raises(WindowOverflowError, match=r"r-exponent -1 at 1/n\^0"):
        NSeries({0: JPoly([1, JPoly.laurent({0: 1, -1: 2})])}, 4)
    # the edges of the rule are admitted; a truncated term is not checked
    edge = NSeries({2: JPoly.laurent({-2: 1, 0: 1}), 5: r_pow(-9)}, 4)
    assert list(edge.terms()) == [2]


def test_window_overflow_fails_loudly():
    """An operation whose result leaves the rule raises: a positive power
    of n times an r-dependent deeper term, n * r^-3/n^3 = r^-3/n^2, and a
    scalar r^-1 at 1/n^0."""
    n = NSeries({-1: JPoly.const(1)}, EXACT_ORDER)
    deep = NSeries({3: r_pow(-3)}, 4)
    with pytest.raises(WindowOverflowError, match=r"r-exponent -3 at 1/n\^2"):
        n * deep
    with pytest.raises(WindowOverflowError, match=r"r-exponent -1 at 1/n\^0"):
        NSeries.one(3) * r_pow(-1)


# -- r-Laurent and JPoly arithmetic against evaluation --------------------------

nonzero_rationals = rationals.filter(lambda x: x != 0)
# ints and zeros among the stored values exercise the constructor's
# conversion and zero filtering
raw_values = st.one_of(rationals, st.integers(-3, 3))


@st.composite
def laurents(draw):
    coeffs = draw(st.dictionaries(st.integers(-3, 3), raw_values,
                                  max_size=3))
    return JPoly.laurent(coeffs)


@st.composite
def laurent_jpolys(draw):
    return JPoly([draw(laurents()) for _ in range(draw(st.integers(0, 2)))])


def jpoly_of_terms(terms) -> JPoly:
    """The JPoly with the {(j-power, r-exponent): coefficient} `terms`."""
    cols = [{} for _ in range(max((j for j, _ in terms), default=-1) + 1)]
    for (j, e), v in terms.items():
        cols[j][e] = v
    return JPoly([JPoly.laurent(col) for col in cols])


def assert_well_formed(x: JPoly):
    """Nonzero Fraction terms, and the normal form: rebuilt from its own
    terms, x is the same value by == and by hash, whatever built it."""
    terms = x.terms()
    assert all(isinstance(v, F) and v != 0 for v in terms.values())
    fresh = jpoly_of_terms(terms)
    assert x == fresh and hash(x) == hash(fresh)


def assert_jpoly_well_formed(p: JPoly):
    assert p.deg == -1 or not p.coeff(p.deg).is_zero()
    for i in range(p.deg + 1):
        assert p.coeff(i).deg <= 0
        assert_well_formed(p.coeff(i))
    assert_well_formed(p)


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents(), nonzero_rationals, raw_values)
def test_rlaurent_ops_match_evaluation(a, b, r0, s):
    """The ring operations on r-Laurent polynomials, JPolys constant in
    j, stay constant in j and agree with evaluation at r0."""
    def ev(x):
        return x.at(0, r0)

    assert_well_formed(a)
    results = [(a + b, ev(a) + ev(b)),
               (a + -b, ev(a) - ev(b)),
               (-a, -ev(a)),
               (a * b, ev(a) * ev(b)),
               (a * s, ev(a) * s),
               (s * a, s * ev(a)),
               (a + s, ev(a) + s),
               (s + -a, s - ev(a))]
    for got, want in results:
        assert got.deg <= 0
        assert_well_formed(got)
        assert ev(got) == want
        assert got.subst_r(r0) == JPoly.const(want)
    assert (a + -a).terms() == {}


def test_negative_r_keeps_the_sign_of_odd_exponents():
    """At a negative r, r^e is negative for odd e, the negative odd e
    included, whether the lowest exponent is odd or even."""
    x = JPoly.laurent({-3: 2, -2: 1, 1: 1})
    r0 = F(-1, 2)
    want = 2 * r0 ** -3 + r0 ** -2 + r0
    assert want == F(-25, 2)
    assert x.at(0, r0) == want
    assert x.subst_r(r0) == JPoly.const(want)
    assert JPoly.laurent({-1: 1}).at(5, -2) == F(-1, 2)
    assert JPoly.laurent({-2: 1, -1: 1}).at(0, -2) == F(-1, 4)
    assert JPoly.monomial(1, JPoly.laurent({-1: 3})).at(2, -3) == -2


@settings(max_examples=100, deadline=None)
@given(laurent_jpolys(), laurent_jpolys(), nonzero_rationals, rationals)
def test_jpoly_ops_match_evaluation(p, q, r0, j0):
    def ev(x):
        return x.at(j0, r0)

    for got, want in ((p + q, ev(p) + ev(q)), (p + -q, ev(p) - ev(q)),
                      (-p, -ev(p)), (p * q, ev(p) * ev(q))):
        assert_jpoly_well_formed(got)
        assert ev(got) == want
    assert (p + -p).is_zero()


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
# product became one convolution: one product per pair of j-coefficients
# (r-Laurent polynomials, JPolys constant in j), summed through JPoly
# additions.


def coeffs(p):
    """The j-coefficients of p, j^0 first, each constant in j."""
    return [p.coeff(i) for i in range(p.deg + 1)]


def reference_jpoly_add(p, q):
    n = max(p.deg, q.deg) + 1
    c = [p.coeff(i) + q.coeff(i) for i in range(n)]
    return JPoly(c)


def reference_jpoly_mul(p, q):
    c = [JPoly.zero() for _ in range(p.deg + q.deg + 1)] \
        if p and q else []
    for i, a in enumerate(coeffs(p)):
        for k, b in enumerate(coeffs(q)):
            c[i + k] = c[i + k] + a * b
    return JPoly(c)


def reference_mul_capped(a, b, cap):
    cands = [max(a.order, b.order)]
    if b.terms():
        cands.append(a.order + b.min_exp)
    if a.terms():
        cands.append(b.order + a.min_exp)
    order = min(min(cands), cap, EXACT_ORDER)
    c = {}
    for h1, p1 in a.terms().items():
        for h2, p2 in b.terms().items():
            h = h1 + h2
            if h > order:
                continue
            prod = reference_jpoly_mul(p1, p2)
            c[h] = reference_jpoly_add(c[h], prod) if h in c else prod
    return NSeries(c, order)


# `reference_ln1p` and `reference_exp` are NSeries.ln1p and NSeries.exp as
# they were before they became graded recurrences: sums of the powers
# u, u^2, ..., each power one more mul_capped.


def reference_ln1p(x):
    """ln(1 + x) for x with all exponents >= 1; exact to the order."""
    if x.terms() and x.min_exp < 1:
        raise ImproperSeriesError(
            "ln1p input must have zero constant term and no positive "
            f"powers of n (min exponent {x.min_exp})")
    order = x.order
    out = NSeries.zero(order)
    power = NSeries.one(order)
    for m in range(1, order + 1):
        power = power.mul_capped(x, order)
        if not power.terms():
            break
        out = out + power * F((-1) ** (m + 1), m)
    return out


def reference_exp(x):
    """exp(x) for x with all exponents >= 1; exact to the order."""
    if x.terms() and x.min_exp < 1:
        raise ImproperSeriesError(
            "exp input must have zero constant term and no positive "
            f"powers of n (min exponent {x.min_exp})")
    order = x.order
    out = NSeries.one(order)
    power = NSeries.one(order)
    fact = 1
    for m in range(1, order + 1):
        power = power.mul_capped(x, order)
        fact *= m
        if not power.terms():
            break
        out = out + power * F(1, fact)
    return out


def outcome(f, *args):
    """('ok', value) or ('overflow', message)."""
    try:
        return "ok", f(*args)
    except WindowOverflowError as exc:
        return "overflow", str(exc)


def assert_same_jpoly(got, want):
    assert got.deg == want.deg
    for x, y in zip(coeffs(got), coeffs(want)):
        assert x.terms() == y.terms()
        assert_well_formed(x)
    assert got.deg == -1 or got.coeff(got.deg)
    assert got == want and hash(got) == hash(want)


def assert_same_nseries(got, want):
    assert got.order == want.order
    assert list(got.terms()) == list(want.terms())
    for h in want.terms():
        assert_same_jpoly(got.jpoly(h), want.jpoly(h))


# few distinct values, so that sums of products cancel now and then
small_values = st.sampled_from([F(1), F(-1), F(2), F(-1, 2)])


@st.composite
def symbolic_rlaurents(draw, lo, hi, min_size=0):
    coeffs = draw(st.dictionaries(st.integers(lo, hi), small_values,
                                  min_size=min_size, max_size=2))
    return JPoly.laurent(coeffs)


@st.composite
def nonzero_jpolys(draw, lo=-3, hi=2):
    """Nonzero JPolys of degree <= 2 (zero coefficients inside) with
    r-exponents in [lo, hi]."""
    deg = draw(st.integers(0, 2))
    c = [draw(symbolic_rlaurents(lo, hi)) for _ in range(deg)]
    c.append(draw(symbolic_rlaurents(lo, hi, min_size=1)))
    return JPoly(c)


@st.composite
def symbolic_nseries(draw):
    """Levels from n^2 down to the order, each within the graded rule, so
    that a positive power of n times a deeper term can break it."""
    order = draw(st.integers(0, 4))
    hs = draw(st.lists(st.integers(-2, order), min_size=1, max_size=4,
                       unique=True))
    return NSeries({h: draw(nonzero_jpolys(-max(h, 0), 0)) for h in hs},
                   order)


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
@given(nonzero_jpolys(), nonzero_jpolys())
def test_fused_jpoly_ops_equal_per_pair_ops(p, q):
    assert_same_jpoly(p + q, reference_jpoly_add(p, q))
    assert_same_jpoly(p * q, reference_jpoly_mul(p, q))


def test_fused_product_fixed_cases():
    """Cases the random ones may miss: a product that leaves the rule, and
    a top j-coefficient that cancels before a later pair reaches it
    again."""
    n = NSeries({-1: JPoly.const(1), 0: JPoly.const(1)}, 4)
    deep = NSeries({3: r_pow(-3), 2: r_pow(-2)}, 4)
    assert outcome(n.mul_capped, deep, 4) \
        == outcome(reference_mul_capped, n, deep, 4) \
        == ("overflow", "r-exponent -3 at 1/n^2 outside [-2, 0]")

    # at 1/n the pairs (0, 1), (1, 0), (2, -1) give [1, u] + [1, -u] + [1, 1]
    u = JPoly.const(1)
    one = JPoly.const(1)
    a = NSeries({0: JPoly([one]), 1: JPoly([one, -u]), 2: JPoly([one])}, 3)
    b = NSeries({1: JPoly([one, u]), 0: JPoly([one]), -1: JPoly([one, one])},
                3)
    got, want = a.mul_capped(b, 3), reference_mul_capped(a, b, 3)
    assert_same_nseries(got, want)
    assert got.jpoly(1) == JPoly([F(3), F(1)])


def _symbolic_series(order=4):
    """1 + a_1/n + (a_1^2 - j)/n^2: several terms, each with several
    r-exponents."""
    a1 = a1_builtin()
    return NSeries({0: JPoly.const(1), 1: a1,
                    2: reference_jpoly_mul(a1, a1) + -JPoly.monomial(1)},
                   order)


def test_fused_product_builds_no_rlaurent_per_term(monkeypatch):
    """No r-Laurent coefficient, no checked JPoly and no Fraction is built
    or multiplied on the way: the per-pair path must not come back, the
    terms of a product are multiplied and summed as ints, and the one
    JPoly built per 1/n level is the level's result."""
    a = _symbolic_series()
    b = a.shift_j(1)
    want = reference_mul_capped(a, b, 4)
    want_jpoly = reference_jpoly_mul(a.jpoly(1), b.jpoly(2))
    levels = {h1 + h2 for h1 in a.terms() for h2 in b.terms()
              if h1 + h2 <= 4}

    def refuse(*args, **kwargs):
        raise AssertionError("per-term coefficient object built")

    built = []
    new = JPoly._new

    def counted(d, n):
        built.append(n)
        return new(d, n)

    with monkeypatch.context() as patch:
        patch.setattr(JPoly, "_new", staticmethod(counted))
        for name in ("__init__", "laurent", "coeff"):
            patch.setattr(JPoly, name, refuse)
        for name in ("__new__", "__mul__", "__rmul__", "__add__", "__radd__"):
            patch.setattr(F, name, refuse)
        got = a.mul_capped(b, 4)
        assert len(built) == len(levels) == 5
        got_jpoly = a.jpoly(1) * b.jpoly(2)
        assert len(built) == len(levels) + 1
    assert_same_nseries(got, want)
    assert_same_jpoly(got_jpoly, want_jpoly)


# -- ln1p and exp by graded recurrences against the power sums ------------------


@st.composite
def ln_exp_inputs(draw):
    """Orders 0..6 with sparse levels within the graded rule (no level at
    all is the zero series, a level past the order is truncated), few
    distinct values so that coefficients cancel, and now and then a level
    below 1/n, which ln1p and exp reject."""
    order = draw(st.integers(0, 6))
    min_h = draw(st.sampled_from([1, 1, 1, 1, 0, -1]))
    hs = draw(st.lists(st.integers(min_h, max(order, 1)), max_size=4,
                       unique=True))
    return NSeries({h: draw(nonzero_jpolys(-max(h, 0), 0)) for h in hs},
                   order)


def improper_or(f, x):
    """('ok', value) or ('improper', message)."""
    try:
        return "ok", f(x)
    except ImproperSeriesError as exc:
        return "improper", str(exc)


@settings(max_examples=200, deadline=None)
@given(ln_exp_inputs())
def test_recurrences_equal_power_sums(x):
    for method, reference in ((NSeries.ln1p, reference_ln1p),
                              (NSeries.exp, reference_exp)):
        got, want = improper_or(method, x), improper_or(reference, x)
        assert got[0] == want[0]
        if want[0] == "improper":
            assert got[1] == want[1]
            continue
        got, want = got[1], want[1]
        assert got.order == want.order
        assert sorted(got.terms()) == sorted(want.terms())
        for h in want.terms():
            assert_same_jpoly(got.jpoly(h), want.jpoly(h))


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_recurrences_convolve_once_per_pair(order, monkeypatch):
    """For a dense order-H proper series, ln1p passes H(H-1)/2 pairs to
    _convolve and exp at most H(H+1)/2, in one call per level from 1/n^2
    on; the power sums passed 14 each at H = 4."""
    x = NSeries({h: JPoly([1, JPoly.laurent({-h: F(1, 2), 0: F(-1)})])
                 for h in range(1, order + 1)}, order)
    want_ln, want_exp = reference_ln1p(x), reference_exp(x)
    counts = []
    convolve = series._convolve

    def counting(pairs):
        pairs = list(pairs)
        counts.append(len(pairs))
        return convolve(pairs)

    monkeypatch.setattr(series, "_convolve", counting)
    assert_same_nseries(x.ln1p(), want_ln)
    assert sum(counts) == order * (order - 1) // 2
    assert len(counts) == order - 1
    counts.clear()
    assert_same_nseries(x.exp(), want_exp)
    assert sum(counts) <= order * (order + 1) // 2
    assert len(counts) == order - 1


# -- no redundant work: a product by one, the r-range checked once -------------


def reference_pow_int(s, e):
    """NSeries.pow_int with every product a `reference_mul_capped`."""
    result, base = NSeries.one(s.order), s
    while e:
        if e & 1:
            result = reference_mul_capped(result, base, EXACT_ORDER)
        base = reference_mul_capped(base, base, EXACT_ORDER) if e > 1 \
            else base
        e >>= 1
    return result.truncate(s.order)


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if want[0] == "overflow":
        assert got[1] == want[1]
    else:
        assert_same_nseries(got[1], want[1])


# lowest exponent < 0, = 0 and >= 1, and the zero series
series_of_every_lowest_exponent = st.one_of(
    symbolic_nseries(), ln_exp_inputs(), st.integers(0, 4).map(NSeries.zero))


@settings(max_examples=300, deadline=None)
@given(series_of_every_lowest_exponent,
       st.one_of(st.integers(0, 6), st.just(EXACT_ORDER)), st.integers(-3, 6))
def test_products_by_one_equal_the_full_product(s, o, cap):
    """A product by exactly one is the other factor at the product's
    validity order: levels and `.order` (which == ignores) as the
    per-pair product gives them, whichever side the one is on."""
    one = NSeries.one(o)
    for a, b in ((one, s), (s, one)):
        assert_same_nseries(a * b, reference_mul_capped(a, b, EXACT_ORDER))
        assert_same_nseries(a.mul_capped(b, cap),
                            reference_mul_capped(a, b, cap))
    for e in (0, 1, 2):
        assert_same_outcome(outcome(s.pow_int, e),
                            outcome(reference_pow_int, s, e))
    for scalar in (1, F(1)):
        for got in (s * scalar, scalar * s):
            assert_same_nseries(got, s)


def test_products_by_one_convolve_nothing(monkeypatch):
    """A product by one, `pow_int(0)`, `pow_int(1)` and `s * 1` make no
    `_convolve` call; `pow_int(2)` and `pow_int(3)` make one and two."""
    s = _symbolic_series()
    want = {e: s.pow_int(e) for e in (2, 3)}
    counts = []
    convolve = series._convolve

    def counting(pairs):
        counts.append(1)
        return convolve(pairs)

    monkeypatch.setattr(series, "_convolve", counting)
    one = NSeries.one(3)
    for got in (one * s, s * one, one.mul_capped(s, 2), s.mul_capped(one, 2),
                s.pow_int(0), s.pow_int(1), s * 1, 1 * s, s * F(1)):
        assert got.terms()
    assert counts == []
    for e, n_calls in ((2, 1), (3, 2)):
        assert_same_nseries(s.pow_int(e), want[e])
        assert len(counts) == n_calls
        counts.clear()


def test_a_checked_coefficient_is_checked_again_at_each_level():
    """The r-range of a coefficient is scanned once, but every placement
    checks it against the window of its own level: a coefficient that
    passed at 1/n^2, also through `truncate` and `+`, still raises with
    the message of a coefficient never checked before."""
    def fresh():
        return JPoly([JPoly.laurent({-1: 1}), JPoly.laurent({-2: 3, 0: 1})])

    p = fresh()
    s = NSeries({2: p, 3: p}, 4)
    t = s.truncate(3) + NSeries({2: p}, 3)
    assert t.jpoly(2) == p * 2 and t.jpoly(3) is p
    for h, message in ((1, "r-exponent -2 at 1/n^1 outside [-1, 0]"),
                       (0, "r-exponent -1 at 1/n^0 outside [0, 0]"),
                       (-1, "r-exponent -1 at 1/n^-1 outside [0, 0]")):
        with pytest.raises(WindowOverflowError) as unchecked:
            NSeries({h: fresh()}, 4)
        assert str(unchecked.value) == message
        with pytest.raises(WindowOverflowError) as checked:
            NSeries({h: p}, 4)
        assert str(checked.value) == message
    # `+` of a bare coefficient places it at 1/n^0
    for x in (s, t):
        with pytest.raises(WindowOverflowError) as checked:
            x + p
        assert str(checked.value) == "r-exponent -1 at 1/n^0 outside [0, 0]"


# -- only int and Fraction enter the exact algebra ----------------------------


@pytest.mark.parametrize("call", [
    lambda: JPoly.laurent({0: 0.1}),
    lambda: JPoly.const(0.5),
    lambda: JPoly([0.5, 0.1]),
    lambda: JPoly.monomial(2, 0.5),
    lambda: NSeries.const(0.1, 2),
    lambda: JPoly.laurent({-1: 1}) * 0.5,
    lambda: JPoly.const(1) + 0.5,
    lambda: NSeries.one(2) * 0.5,
    lambda: NSeries.one(2) - 0.5,
    lambda: JPoly.laurent({-1: 1}).at(0, 0.5),
    lambda: JPoly.monomial(1).at(0.5, 3),
    lambda: JPoly.monomial(1).subst_j(0.5),
    lambda: NSeries.one(2).subst_j(0.5),
    lambda: JPoly.monomial(1).subst_r(0.5),
    lambda: JPoly.monomial(1).shift_j(F(1, 2)),
], ids=["RLaurent", "RLaurent.const", "JPoly", "JPoly.monomial",
        "NSeries.const", "RLaurent-scalar", "JPoly-scalar", "NSeries-scalar",
        "NSeries-minus-scalar", "eval", "eval_j", "JPoly.subst_j",
        "NSeries.subst_j", "JPoly.subst_r", "shift_j"])
def test_floats_are_refused(call):
    """A float once entered as its binary value (0.1 stored as
    3602879701896397/36028797018963968); every entry point raises.  The
    ids name the entry points of the r-Laurent polynomials (JPolys
    constant in j), "eval" and "eval_j" evaluation at a float r and at a
    float j."""
    with pytest.raises(TypeError):
        call()


# -- the fraction-free storage against a Fraction reference --------------------
#
# `Ref` holds a series as {(1/n exponent, j-power, r-exponent): Fraction} and
# does every operation term by term in Fractions, with no common
# denominator and no normal form to keep.


class Ref:
    def __init__(self, terms: dict, order: int):
        self.t = {k: v for k, v in terms.items() if v and k[0] <= order}
        self.order = order

    @classmethod
    def of(cls, s: NSeries) -> "Ref":
        return cls({(h, j, e): v for h, p in s.terms().items()
                    for (j, e), v in p.terms().items()}, s.order)

    def nseries(self) -> NSeries:
        levels: dict = {}
        for (h, j, e), v in self.t.items():
            levels.setdefault(h, {})[j, e] = v
        return NSeries({h: jpoly_of_terms(terms)
                        for h, terms in levels.items()}, self.order)

    def map(self, f) -> "Ref":
        """The series whose terms are the sums of f(h, j, e, v)'s
        (key, value) pairs over the terms of self."""
        out: dict = {}
        for (h, j, e), v in self.t.items():
            for k, w in f(h, j, e, v):
                out[k] = out.get(k, 0) + w
        return Ref(out, self.order)

    def __add__(self, other: "Ref") -> "Ref":
        out = dict(self.t)
        for k, v in other.t.items():
            out[k] = out.get(k, 0) + v
        return Ref(out, min(self.order, other.order))

    def scale(self, s) -> "Ref":
        return self.map(lambda h, j, e, v: [((h, j, e), v * s)])

    def __mul__(self, other: "Ref") -> "Ref":
        hs, ho = [k[0] for k in self.t], [k[0] for k in other.t]
        cands = [max(self.order, other.order)]
        if ho:
            cands.append(self.order + min(ho))
        if hs:
            cands.append(other.order + min(hs))
        out: dict = {}
        for (h1, j1, e1), v1 in self.t.items():
            for (h2, j2, e2), v2 in other.t.items():
                k = (h1 + h2, j1 + j2, e1 + e2)
                out[k] = out.get(k, 0) + v1 * v2
        return Ref(out, min(cands))

    def power_sum(self, weight) -> "Ref":
        """sum_{m=1}^{order} weight(m) self^m."""
        out, power = Ref({}, self.order), Ref({(0, 0, 0): F(1)}, self.order)
        for m in range(1, self.order + 1):
            power = power * self
            out = out + power.scale(weight(m))
        return out


def fact(m):
    return 1 if m == 0 else m * fact(m - 1)


def assert_matches(got: NSeries, want: Ref):
    """got holds exactly want's terms, at its order, in normal form: equal
    values give equal objects and equal hashes."""
    assert got.order == want.order
    assert Ref.of(got).t == want.t
    fresh = want.nseries()
    assert got == fresh and hash(got) == hash(fresh)
    for p in got.terms().values():
        assert_jpoly_well_formed(p)


@settings(max_examples=60, deadline=None)
@given(nseries(), nseries(), proper(), raw_values, st.integers(-3, 3),
       rationals, nonzero_rationals, st.integers(0, 3))
def test_fraction_free_ops_match_fraction_reference(a, b, u, s, z, j0, r0, e):
    ra, rb, ru = Ref.of(a), Ref.of(b), Ref.of(u)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra + rb.scale(-1))
    assert_matches(-a, ra.scale(-1))
    assert_matches(a * b, ra * rb)
    assert_matches(a * s, ra.scale(s))
    assert_matches(s * a, ra.scale(s))
    power = Ref({(0, 0, 0): F(1)}, a.order)
    for _ in range(e):
        power = power * ra
    assert_matches(a.pow_int(e), Ref(power.t, a.order))
    assert_matches(u.ln1p(), ru.power_sum(lambda m: F((-1) ** (m + 1), m)))
    assert_matches(u.exp(), Ref({(0, 0, 0): F(1)}, u.order)
                   + ru.power_sum(lambda m: F(1, fact(m))))
    assert_matches(a.shift_j(z), ra.map(lambda h, j, e, v: [
        ((h, i, e), v * comb(j, i) * (-z) ** (j - i)) for i in range(j + 1)]))
    assert_matches(a.subst_j(j0),
                   ra.map(lambda h, j, e, v: [((h, 0, e), v * j0 ** j)]))
    assert_matches(NSeries({h: p.subst_r(r0) for h, p in a.terms().items()},
                           a.order),
                   ra.map(lambda h, j, e, v: [((h, j, 0), v * r0 ** e)]))


def test_normal_form_is_unique():
    """Values built by different routes, over different denominators, are
    equal objects with equal hashes; zero has the empty normal form."""
    half = JPoly.laurent({-1: F(1, 2), 0: F(3, 4)})
    assert half == JPoly.laurent({-1: F(2, 4), 0: F(6, 8)})
    assert half == JPoly([JPoly.laurent({-1: F(1, 2)}), F(0)]) + F(3, 4)
    assert half * 2 == JPoly.laurent({-1: 1, 0: F(3, 2)})
    assert hash(half * 2) == hash(JPoly.laurent({-1: 1, 0: F(3, 2)}))
    p = JPoly([F(1, 6), F(1, 3)]) + JPoly([F(1, 6), F(2, 3)])
    assert p == JPoly([F(1, 3), 1]) and hash(p) == hash(JPoly([F(1, 3), 1]))
    assert p * F(3, 4) == JPoly([F(1, 4), F(3, 4)])
    zero = p + -p
    assert zero == JPoly.zero() and hash(zero) == hash(JPoly.zero())
    assert zero.terms() == {} and zero.deg == -1
    assert JPoly.laurent({0: F(2, 3)}).terms() == {(0, 0): F(2, 3)}
    assert JPoly.laurent({0: F(2, 3)}) == JPoly.const(F(2, 3))
    assert JPoly.monomial(2, JPoly.laurent({-1: F(3, 9)})).terms() \
        == {(2, -1): F(1, 3)}


def test_jpoly_coefficients_are_constant_in_j():
    """A coefficient of j^i is an int, a Fraction or a JPoly constant in
    j; a JPoly that depends on j is refused, not folded into j^i."""
    assert JPoly([JPoly.const(2), JPoly.zero()]) == JPoly.const(2)
    with pytest.raises(ValueError, match=r"coefficient of j\^1 depends on j"):
        JPoly([1, JPoly.monomial(1)])
