"""Identity checkers against the derived table: parity split, coefficient
extractions, the two product identities, cancellation, and the extended
expansion."""

import hashlib
from fractions import Fraction as F

from matchdiff import identities
from matchdiff.atable import ConjectureSpec
from matchdiff.identities import (CheckReport, alpha0_series, build_F,
                                  build_lnF,
                                  check_log_coefficients, check_alpha0_series,
                                  check_extended_expansion, check_fd_monomial,
                                  check_first_identity, check_second_identity,
                                  check_second_identity_synthetic,
                                  check_t_cancellation, check_top_coefficient,
                                  core_suite, lsplit, random_conjecture_spec)
from matchdiff.kseries import build_G
from matchdiff.rng import Rng
from matchdiff.series import JPoly


def test_lsplit():
    assert lsplit(1) == ((1,), (0,))
    assert lsplit(0) == ((0,), ())
    assert lsplit(3) == ((1, 3), (0, 2))
    assert lsplit(2) == ((0, 2), (1,))


def test_report_pass_iff_no_witness():
    ok = CheckReport("x", {})
    assert ok.passed and "PASS" in ok.line()
    bad = CheckReport("x", {}, witness={(2, 1): "boom"})
    assert not bad.passed and "FAIL" in bad.line()


def test_build_F_small_orders(table):
    f = build_F(table, 1)
    # [1/n](F - 1) = j(j-1)/(2r)
    expect = (JPoly.monomial(2) + -JPoly.monomial(1)) * \
        JPoly.laurent({-1: F(1, 2)})
    assert f.jpoly(1) == expect
    assert f.subst_j(0).jpoly(0) == JPoly.const(1)
    # F at j=1 is exactly 1 to all computed orders
    g = build_F(table, 2).subst_j(1)
    assert g.jpoly(0) == JPoly.const(1)
    assert g.jpoly(1).is_zero() and g.jpoly(2).is_zero()


def test_build_lnF_is_the_log_of_F(table):
    """ln F = ln(1 + H) + G equals ln F taken from F itself, symbolic in r
    through h = 2 and at r = 3 through h = 3."""
    for h, at_r in ((1, None), (2, None), (1, 3), (2, 3), (3, 3)):
        assert build_lnF(table, h, at_r) == (build_F(table, h, at_r) - 1).ln1p()


def test_log_coefficient_identities(table):
    assert check_log_coefficients(table, 1).passed
    assert check_log_coefficients(table, 2).passed
    assert check_log_coefficients(table, 3, at_r=3).passed


def test_top_coefficient(table):
    rep2 = check_top_coefficient(table, 2)
    assert rep2.passed
    rep3 = check_top_coefficient(table, 3)
    assert rep3.passed


def test_cubic_closed_form_values(table):
    """Spot-check the k=3 closed form at specific (s, r)."""
    from matchdiff.identities import _cubic_closed_form

    poly = _cubic_closed_form(None)
    for s in range(0, 6):
        for r in (3, 4, 5):
            expect = -F(1, 12) * F(s) * (3 * r * r * s - 3 * r * r
                                         - 12 * r * s - 2 * s * s
                                         + 12 * r + 9 * s - 7) / (r * r)
            assert poly.at(s, r) == expect
    lnf = (build_F(table, 2) - 1).ln1p()
    assert lnf.jpoly(2) == poly


def test_fd_monomial():
    assert check_fd_monomial(2, 2).passed  # value 2
    assert check_fd_monomial(3, 2).passed  # value 0
    assert check_fd_monomial(4, 4).passed  # value 24
    assert not CheckReport("x", witness={}).witness


def test_first_identity_symbolic(table):
    for k in (2, 3):
        for i in range(4):
            assert check_first_identity(table, i, k).passed


def test_first_identity_k4_value(table):
    """k=4, i=0, r=3: the sum must equal 2/27 exactly."""
    rep = check_first_identity(table, 0, 4, at_r=3)
    assert rep.passed


def test_t_cancellation(table):
    for i in range(4):
        assert check_t_cancellation(table, i, 3).passed
        assert check_t_cancellation(table, i, 4, at_r=3).passed
    assert check_t_cancellation(table, None, 3).passed


def test_verify_checks_read_the_flags_they_name():
    """Each `verify --id` entry names exactly the flags its function takes,
    so the command refuses every flag the check would drop."""
    import inspect

    for flags, reports_of in identities.VERIFY_CHECKS.values():
        params = tuple(inspect.signature(reports_of).parameters)
        assert params == ("table", *flags)


def test_second_identity_table_and_synthetic(table):
    for k in (0, 1, 2, 3):
        for i in (0, 1, 2):
            assert check_second_identity(table, i, k, order=2).passed
    rep = check_second_identity_synthetic(seed=421, trials=10)
    assert rep.passed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_synthetic_second_identity_sides_pinned(monkeypatch):
    """The synthetic check only compares its two sides, so a fault shared
    by both would pass it: the reprs of lhs and rhs in all 50 trials of
    the core suite's run, captured from the Fraction-stored series."""
    sides = []
    both = identities.second_identity_on_series

    def record(us, exps, order):
        lhs, rhs = both(us, exps, order)
        sides.append(f"{lhs!r}\n{rhs!r}")
        return lhs, rhs

    monkeypatch.setattr(identities, "second_identity_on_series", record)
    assert check_second_identity_synthetic(seed=0xA11CE).passed
    assert len(sides) == 50
    assert sha256("\n".join(sides)) == (
        "a188692911767cc3aba4bbbfec1e86daa905e1b194eba61c96c789874c4e627b")


def test_table_series_reprs_pinned(table):
    """F symbolic at h = 2, F at r = 3 through h = 3 and K = exp(G) - 1
    through h = 6, captured from the Fraction-stored series."""
    assert sha256(repr(build_F(table, 2))) == (
        "261865f62edac6027f3f92c85bf810d4a45812cccede79f30e040fd1ef47a013")
    assert sha256(repr(build_F(table, 3, at_r=3))) == (
        "41156da1132cf8326cb20993d5e6160f3130dc6e3d3da1ae39002f307968afdb")
    assert sha256(repr(build_G(6).exp() - 1)) == (
        "2b51e1d18e1f680545eeaa34e5be60594cd0e13de51ba93e1be06526877e45da")


def test_alpha0_leading_terms(table):
    for k in (1, 2, 3):
        assert check_alpha0_series(table, None, k).passed
    rep0 = check_alpha0_series(table, None, 0)
    assert rep0.passed and "1/2*r^-1" in rep0.note
    for i in range(4):
        assert check_alpha0_series(table, i, 4, at_r=3).passed


def test_alpha0_explicit_values(table):
    # k=2: [1/n] alpha_0 = 1/r for every i (constant in the index)
    a0 = alpha0_series(table, None, 2, 1)
    assert a0.jpoly(1) == JPoly.laurent({-1: F(1)})
    # k=1 at i=2: [1/n] = 2/r
    a1 = alpha0_series(table, 2, 1, 1)
    assert a1.jpoly(1) == JPoly.laurent({-1: F(2)})


def test_alpha0_leading_invariant_under_widening(table):
    lead2 = alpha0_series(table, None, 3, 2).jpoly(2)
    lead3 = alpha0_series(table, None, 3, 2, at_r=None).jpoly(2)
    a0_wide = alpha0_series(table, 1, 3, 3, at_r=3)
    assert lead2 == lead3
    assert a0_wide.jpoly(2) == JPoly.const(F(1, 9))


def test_extended_expansion_empty_and_fixed_specs(table):
    rep, _ = check_extended_expansion(table, ConjectureSpec(()), 2)
    assert rep.passed
    rep, _ = check_extended_expansion(table, ConjectureSpec(((1, F(5, 7)),)), 2)
    assert rep.passed
    rep3, vals = check_extended_expansion(
        table, ConjectureSpec(((1, F(5, 7)), (2, F(-3, 11)))), 3, at_r=3)
    assert rep3.passed
    _, vals_b = check_extended_expansion(
        table, ConjectureSpec(((2, F(9, 2)),)), 3, at_r=3)
    assert vals == vals_b  # bit-identical across constant choices
    assert vals[3] == JPoly.const(F(1, 12) * (F(1, 27) - 2))


def test_extended_expansion_detects_corruption(table):
    """Fault injection: a corrupted a_2 must produce a coefficient witness."""
    import copy

    broken = copy.deepcopy(table)
    broken.entries[2].sym = broken.entries[2].sym + JPoly.monomial(4, F(1, 9))
    rep, _ = check_extended_expansion(broken, ConjectureSpec(()), 2)
    assert not rep.passed
    assert any(key == (4, 2) for key in rep.witness)


def test_symbolic_checks_detect_corruption(table):
    """Fault injection: a_2 off by j^4/9 breaks the t-cancellation at k = 4
    (its 1/n^2 level) and the k = 3 cubic closed form of the top-coeff
    check, each with a witness."""
    import copy

    broken = copy.deepcopy(table)
    broken.entries[2].sym = broken.entries[2].sym + JPoly.monomial(4, F(1, 9))
    rep = check_t_cancellation(broken, 0, 4)
    assert list(rep.witness) == [("*", 2)]
    rep = check_top_coefficient(broken, 3)
    assert "cubic-closed-form" in rep.witness
    assert check_t_cancellation(table, 0, 4).passed
    assert check_top_coefficient(table, 3).passed


def test_synthetic_second_identity_detects_a_wrong_exp(monkeypatch):
    """The table-based second identity is pure algebra, so no table fault
    can fail it; an exp that drops its last level fails the synthetic
    trials."""
    from matchdiff.series import NSeries

    exp = NSeries.exp

    def short_exp(self):
        g = exp(self)
        return NSeries({h: g.jpoly(h) for h in range(g.order)}, g.order)

    monkeypatch.setattr(NSeries, "exp", short_exp)
    rep = check_second_identity_synthetic(seed=421, trials=10)
    assert not rep.passed
    assert all(key[0] == "trial" for key in rep.witness)


def test_pointwise_checks_detect_corruption(table):
    """Fault injection at r = 3: a_3(3, 4) off by 1/7 fails every check
    that reads a_3 pointwise, each with a witness, and every witness of the
    form `got != expected` prints both sides as series values."""
    import copy

    broken = copy.deepcopy(table)
    broken.entries[3].points[(3, 4)] += F(1, 7)
    reports = [
        check_log_coefficients(broken, 3, at_r=3),
        check_top_coefficient(broken, 4, at_r=3),
        check_first_identity(broken, 0, 4, at_r=3),
        check_alpha0_series(broken, 0, 4, at_r=3),
        check_extended_expansion(broken, ConjectureSpec(()), 3, at_r=3)[0],
    ]
    for rep in reports:
        assert not rep.passed and rep.witness, rep.line()
    sides = [side for rep in reports for text in rep.witness.values()
             if " != " in text for side in text.split(" != ")]
    assert sides
    assert not [side for side in sides if "Fraction" in side]
    # the clean table passes the same checks
    assert check_log_coefficients(table, 3, at_r=3).passed
    assert check_top_coefficient(table, 4, at_r=3).passed


def test_random_spec_sampler_documented_ranges():
    rng = Rng(7)
    for _ in range(50):
        spec = random_conjecture_spec(rng, z_max=2)
        assert 1 <= len(spec.terms) <= 2
        assert all(1 <= z <= 2 and c != 0 for z, c in spec.terms)


def test_core_suite_all_pass(table):
    reports = core_suite(table)
    failed = [r.line() for r in reports if not r.passed]
    assert not failed, failed
