"""Mechanical verification of the series identities.

Every check is exact (no tolerances); a report passes iff its witness map
is empty, and each witness pins the offending coefficient by (j-power,
n-power).  Checks run symbolically in r where the table allows, otherwise
pointwise at a fixed r (recorded in the report parameters); `at_r_for` is
the one home of that choice.  Each expected value is written once,
symbolic in r, and `series.at_point` gives its pointwise form.

F = (1 + H) exp(G) and ln F = ln(1 + H) + G are each built once per table
instance and key (kind, h_max, at_r, the entries a_1..a_{h_max} read):
every check on the same table reuses them, and a table whose entries
change gets a fresh build.  Only the product routes read F.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ._records import Record
from .atable import (R_POINT, ATable, ConjectureSpec, build_F_conjecture,
                     build_H, root_product)
from .kseries import build_G
from .positivity import lsplit
from .rng import Rng
from .series import JPoly, NSeries, at_point

# Series order of the synthetic second-identity trials
SYNTHETIC_ORDER = 4
# Most terms in a random conjecture spec
SPEC_MAX_TERMS = 2


class CheckReport(Record):
    """One check's result: its id, parameters and witness map (each a
    fresh dict unless given), and a note."""

    __slots__ = __match_args__ = ("id", "params", "witness", "note")

    def __init__(self, id: str, params: dict | None = None,
                 witness: dict | None = None, note: str = ""):
        self.id = id
        self.params = {} if params is None else params
        self.witness = {} if witness is None else witness
        self.note = note

    @property
    def passed(self) -> bool:
        return not self.witness

    def line(self) -> str:
        keys = ("r", "i", "k", "h", "spec")
        parts = [self.id]
        parts += [f"{key}={self.params[key]}" for key in keys
                  if key in self.params]
        parts.append("PASS" if self.passed else "FAIL")
        if self.witness:
            first = next(iter(self.witness.items()))
            parts.append(f"witness {first[0]}: {first[1]}")
        if self.note:
            parts.append(f"({self.note})")
        return " ".join(str(p) for p in parts)


def at_r_for(table: ATable, level: int) -> int | None:
    """The r a check at 1/n-level `level` runs at: None (symbolic in r) when
    a_1..a_level are all symbolic, otherwise the fixed point `R_POINT`."""
    return None if level <= table.sym_max() else R_POINT


def _rparam(at_r) -> str:
    return "sym" if at_r is None else str(at_r)


def build_F(table: ATable, h_max: int, at_r: int | None = None) -> NSeries:
    """F = (1 + H) exp(G), the formal matching-ratio series, built once per
    table and key (see `ATable._memo_series`)."""
    return table._memo_series(
        "F", h_max, at_r,
        lambda: ((NSeries.one(h_max) + build_H(table, h_max, at_r=at_r))
                 * build_G(h_max).exp()))


def build_lnF(table: ATable, h_max: int, at_r: int | None = None) -> NSeries:
    """ln F = ln(1 + H) + G, built once per table and key (see
    `ATable._memo_series`)."""
    return table._memo_series(
        "lnF", h_max, at_r,
        lambda: build_H(table, h_max, at_r=at_r).ln1p() + build_G(h_max))


def _expected_35(h: int, at_r: int | None) -> JPoly:
    """(1/((h+1)h))(1/r^h - 2)."""
    return at_point(JPoly.laurent({0: Fraction(-2, (h + 1) * h),
                                   -h: Fraction(1, (h + 1) * h)}), at_r)


def _check_top(rep: CheckReport, jp: JPoly, h: int,
               expected: JPoly) -> JPoly:
    """[j^d n^-h] of the level `jp` vanishes for d >= h+2 and equals
    `expected` at d = h+1; each coefficient that does not goes into the
    witness map of `rep`.  Returns the d = h+1 coefficient."""
    for d in range(h + 2, jp.deg + 1):
        c = jp.coeff(d)
        if not c.is_zero():
            rep.witness[(d, h)] = repr(c)
    got = jp.coeff(h + 1)
    if got != expected:
        rep.witness[(h + 1, h)] = f"{got!r} != {expected!r}"
    return got


def check_log_coefficients(table: ATable, h: int, at_r: int | None = None) -> CheckReport:
    """[j^k n^-h] ln(1 + H) vanishes for k >= h+2 and equals
    (1/((h+1)h))(1/r^h - 2) at k = h+1."""
    rep = CheckReport("log-coeff", {"r": _rparam(at_r), "h": h})
    lnh = build_H(table, h, at_r=at_r).ln1p()
    _check_top(rep, lnh.jpoly(h), h, _expected_35(h, at_r))
    return rep


def check_top_coefficient(table: ATable, k: int, at_r: int | None = None) -> CheckReport:
    """Top j-power of [n^-(k-1)] ln(F) is j^k with coefficient
    (k-2)!/(k! r^(k-1)); for k = 3 the whole level must match the closed
    cubic form."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rep = CheckReport("top-coeff", {"r": _rparam(at_r), "k": k})
    jp = build_lnF(table, k - 1, at_r=at_r).jpoly(k - 1)
    top = Fraction(factorial(k - 2), factorial(k))
    _check_top(rep, jp, k - 1, at_point(JPoly.laurent({-(k - 1): top}), at_r))
    if k == 3:
        expect_poly = _cubic_closed_form(at_r)
        if jp != expect_poly:
            rep.witness["cubic-closed-form"] = f"{jp!r} != {expect_poly!r}"
    return rep


def _cubic_closed_form(at_r: int | None) -> JPoly:
    """-(1/12) s (3r^2 s - 3r^2 - 12 r s - 2 s^2 + 12 r + 9 s - 7)/r^2."""
    inner = JPoly([
        JPoly.laurent({2: Fraction(-3), 1: Fraction(12), 0: Fraction(-7)}),
        JPoly.laurent({2: Fraction(3), 1: Fraction(-12), 0: Fraction(9)}),
        -2,
    ])
    s = JPoly.monomial(1)
    scale = JPoly.laurent({-2: Fraction(-1, 12)})
    return at_point((s * inner) * scale, at_r)


def check_fd_monomial(k: int, d: int) -> CheckReport:
    """sum_l C(k,l) (-1)^(l+k) l^d = 0 for d < k and k! at d = k."""
    rep = CheckReport("fd-monomial", {"k": k, "h": d})
    total = sum(comb(k, l) * (-1) ** (l + k) * l ** d for l in range(k + 1))
    expected = factorial(k) if d == k else 0
    if total != expected:
        rep.witness[(d, k)] = f"{total} != {expected}"
    return rep


def _at_index(x, i: int | None, ell: int):
    """x, an NSeries or JPoly in the index j, at the index i + ell, or
    symbolic in the index (j -> j + ell) when i is None: F_{i+ell} from F.
    i >= 0 is checked by `_series_at_index`, which every check calls
    first."""
    return x.shift_j(-ell) if i is None else x.subst_j(i + ell)


def _series_at_index(table: ATable, kind: str, order: int,
                     at_r: int | None, i: int | None, ell: int) -> NSeries:
    """F (kind "F", `build_F`) or ln F (kind "lnF", `build_lnF`) of order
    `order` at the index i + ell (`_at_index`), built once per table and
    key: the checks of one sweep ask for each index several times."""
    if i is not None and i < 0:
        raise ValueError(f"need i >= 0, got i={i}")
    build = build_F if kind == "F" else build_lnF
    index = ("j+", ell) if i is None else i + ell
    return table._memo_series(
        (kind, index), order, at_r,
        lambda: _at_index(build(table, order, at_r=at_r), i, ell))


def check_first_identity(table: ATable, i: int, k: int,
                         at_r: int | None = None) -> CheckReport:
    """sum_l C(k,l)(-1)^(l+k) [n^-(k-1)] sum_{m=1}^{k-1} (-1)^(m+1)
    (F_{i+l} - 1)^m / m  =  (k-2)!/r^(k-1)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rep = CheckReport("first-identity", {"r": _rparam(at_r), "i": i, "k": k})
    # (-1)^(l+k) is +1 on L+ and -1 on L-, so the sum over l is t+ - t-
    order = k - 1
    t = (build_t(table, i, k, +1, order, at_r)
         - build_t(table, i, k, -1, order, at_r))
    total = t.coeff(0, order)
    expected = at_point(JPoly.laurent({-(k - 1): factorial(k - 2)}), at_r)
    if total != expected:
        rep.witness[(0, k - 1)] = f"{total!r} != {expected!r}"
    return rep


def build_t(table: ATable, i0: int | None, k: int, sign: int, order: int,
            at_r: int | None = None) -> NSeries:
    """t+- = sum over the parity class of C(k,l) ln F_{i+l}; i0=None keeps
    the index symbolic."""
    lplus, lminus = lsplit(k)
    ells = lplus if sign > 0 else lminus
    t = NSeries.zero(order)
    for ell in ells:
        t = t + (_series_at_index(table, "lnF", order, at_r, i0, ell)
                 * Fraction(comb(k, ell)))
    return t


def check_t_cancellation(table: ATable, i: int | None, k: int,
                         at_r: int | None = None) -> CheckReport:
    """[1/n^s] t+ = [1/n^s] t- for 1 <= s <= k-2 (the cancellation that
    kills all higher powers of t in the alpha_0 expansion); below k = 3
    there is no such s."""
    if k < 3:
        raise ValueError("k must be >= 3")
    rep = CheckReport("t-cancellation", {"r": _rparam(at_r),
                                 "i": "sym" if i is None else i, "k": k})
    order = k - 2
    tp = build_t(table, i, k, +1, order, at_r)
    tm = build_t(table, i, k, -1, order, at_r)
    for s in range(1, k - 1):
        dp = tp.jpoly(s)
        dm = tm.jpoly(s)
        if dp != dm:
            rep.witness[("*", s)] = f"{dp!r} != {dm!r}"
    return rep


def second_identity_on_series(us: dict[int, NSeries], exps: dict[int, int],
                              order: int) -> tuple[NSeries, NSeries]:
    """Both routes of the product identity: prod (1+U_l)^{e_l} versus
    exp(sum e_l ln(1+U_l)), truncated at `order`."""
    lhs = NSeries.one(order)
    t = NSeries.zero(order)
    for ell, u in us.items():
        e = exps[ell]
        lhs = lhs * (NSeries.one(order) + u).pow_int(e)
        t = t + u.ln1p() * Fraction(e)
    return lhs.truncate(order), t.exp().truncate(order)


def check_second_identity(table: ATable, i: int, k: int, order: int,
                          at_r: int | None = None) -> CheckReport:
    """Product form vs t-expansion, on both parity classes."""
    rep = CheckReport("second-identity",
                      {"r": _rparam(at_r), "i": i, "k": k})
    for sign, ells in zip(("+", "-"), lsplit(k)):
        us = {ell: _series_at_index(table, "F", order, at_r, i, ell) - 1
              for ell in ells}
        exps = {ell: comb(k, ell) for ell in ells}
        lhs, rhs = second_identity_on_series(us, exps, order)
        if lhs != rhs:
            for h in range(order + 1):
                if lhs.jpoly(h) != rhs.jpoly(h):
                    rep.witness[(sign, h)] = (
                        f"{lhs.jpoly(h)!r} != {rhs.jpoly(h)!r}")
    return rep


def check_second_identity_synthetic(seed: int,
                                    trials: int = 50) -> CheckReport:
    """The identity is pure algebra, so it must hold on arbitrary proper
    series, not just table-derived ones: random U series of order
    `SYNTHETIC_ORDER`, random binomial exponents."""
    rep = CheckReport("second-identity-synthetic",
                      {"spec": f"trials={trials}"})
    rng = Rng(seed)
    for trial in range(trials):
        k = 1 + rng.randrange(3)
        ells = lsplit(k)[0]
        us = {}
        for ell in ells:
            coeffs = {}
            for h in range(1, SYNTHETIC_ORDER + 1):
                deg = rng.randrange(3)
                poly = [rng.rat(9, 9) for _ in range(deg + 1)]
                coeffs[h] = JPoly(poly)
            us[ell] = NSeries(coeffs, SYNTHETIC_ORDER)
        exps = {ell: comb(k, ell) for ell in ells}
        lhs, rhs = second_identity_on_series(us, exps, SYNTHETIC_ORDER)
        if lhs != rhs:
            rep.witness[("trial", trial)] = f"k={k}"
    return rep


def alpha0_series(table: ATable, i: int | None, k: int, order: int,
                  at_r: int | None = None) -> NSeries:
    """alpha_0 = prod_{L+} F^{C(k,l)} - prod_{L-} F^{C(k,l)} (empty
    products are 1)."""
    lplus, lminus = lsplit(k)

    def product(ells):
        acc = NSeries.one(order)
        for ell in ells:
            f = _series_at_index(table, "F", order, at_r, i, ell)
            acc = acc * f.pow_int(comb(k, ell))
        return acc.truncate(order)

    return product(lplus) - product(lminus)


def check_alpha0_series(table: ATable, i: int | None, k: int,
                        at_r: int | None = None) -> CheckReport:
    """Leading behavior of alpha_0, with all lower orders vanishing:
    j(j-1)/(2rn) at k=0, where the literal product convention leaves
    F_i - 1, so the lead is a_1 + [1/n]G = j(j-1)(1/(2r) - 1) + j(j-1);
    i/(rn) at k=1; (k-2)!/(r^(k-1) n^(k-1)) for k >= 2."""
    rep = CheckReport("alpha0", {"r": _rparam(at_r),
                                 "i": "sym" if i is None else i, "k": k})
    lead_level = max(k - 1, 1)
    a0 = alpha0_series(table, i, k, lead_level, at_r)
    for s in range(lead_level):
        jp = a0.jpoly(s)
        if not jp.is_zero():
            rep.witness[("*", s)] = repr(jp)
    got = a0.jpoly(lead_level)
    if k == 0:
        top = root_product(1) * JPoly.laurent({-1: Fraction(1, 2)})
        rep.note = f"k=0 leading [1/n] = {got!r} (literal product convention)"
    elif k == 1:
        top = JPoly.monomial(1, JPoly.laurent({-1: 1}))
    else:
        top = JPoly.laurent({-(k - 1): factorial(k - 2)})
    expected = _at_index(at_point(top, at_r), i, 0)
    if got != expected:
        rep.witness[("lead", lead_level)] = f"{got!r} != {expected!r}"
    return rep


def check_extended_expansion(table: ATable, spec: ConjectureSpec, h_max: int,
                       at_r: int | None = None
                       ) -> tuple[CheckReport, dict[int, object]]:
    """Extended-expansion test: for ln F with the formal-constant terms
    adjoined, [j^k n^-h] = 0 for k >= h+2 and the k = h+1 value is the
    same closed form, independent of the constants.  Returns the extracted
    k=h+1 values so callers can verify bit-identical agreement across
    constant choices.  The empty spec reports as extended-expansion-empty."""
    rep = CheckReport("extended-expansion" if spec.terms
                      else "extended-expansion-empty",
                      {"r": _rparam(at_r), "h": h_max,
                       "spec": spec.describe()})
    f = build_F_conjecture(table, spec, h_max, at_r=at_r)
    lnf = (f - 1).ln1p()
    values: dict[int, object] = {}
    for h in range(1, h_max + 1):
        values[h] = _check_top(rep, lnf.jpoly(h), h, _expected_35(h, at_r))
    return rep, values


def random_conjecture_spec(rng: Rng, z_max: int = 2) -> ConjectureSpec:
    """Documented sampler: 1..`SPEC_MAX_TERMS` terms, z uniform in
    1..z_max, c a random nonzero rational with numerator/denominator up to
    99."""
    nterms = 1 + rng.randrange(SPEC_MAX_TERMS)
    terms = tuple((1 + rng.randrange(z_max), rng.rat()) for _ in range(nterms))
    return ConjectureSpec(terms)


# -- suites -------------------------------------------------------------------


def core_suite(table: ATable) -> list[CheckReport]:
    """The default verification sweep: symbolic in r wherever the table is
    symbolic, otherwise pointwise (`at_r_for`), per-index checks at
    i = 0..3.  The sweeps a `verify --id` check also runs come from its
    `VERIFY_CHECKS` runner."""
    def sweep(id, **flags):
        return VERIFY_CHECKS[id][1](table, **flags)

    sym_max = table.sym_max()
    # point_max counts symbolic levels too, so h3 >= sym_max
    h3 = table.point_max(R_POINT)
    reports = sweep("log-coeff", hmax=h3)
    reports += sweep("top-coeff", k=[k for k in (2, 3) if k - 1 <= h3])
    for d in range(0, 5):
        for k in range(d, 5):
            reports.append(check_fd_monomial(k, d))
    reports += sweep("first-identity", k=[k for k in (2, 3) if k - 1 <= h3])
    if h3 >= 3:
        reports += sweep("first-identity", k=(4,), i=(0,))
    reports += sweep("t-cancellation", k=[k for k in (3, 4) if k - 2 <= h3])
    reports += sweep("alpha0", k=[k for k in (0, 1, 2, 3)
                                  if max(k - 1, 1) <= sym_max])
    if h3 >= 3:
        for i in range(4):
            reports.append(check_alpha0_series(table, i, 4,
                                               at_r=at_r_for(table, 3)))
    for k in (0, 1, 2, 3):
        for i in (0, 2):
            reports.append(check_second_identity(table, i, k,
                                                 order=min(3, sym_max)))
            if h3 >= 3:
                reports.append(check_second_identity(table, i, k, order=3,
                                                     at_r=R_POINT))
    reports.append(check_second_identity_synthetic(seed=0xA11CE, trials=50))
    reports.append(check_extended_expansion(
        table, ConjectureSpec(()), min(sym_max, 2))[0])
    return reports


def _fd_monomial_rows(table: ATable, k=(2, 3)) -> list[CheckReport]:
    """fd-monomial at d = 0..k for each k >= 0 (the table is not read)."""
    if min(k) < 0:
        raise ValueError("k must be >= 0")
    return [check_fd_monomial(kk, d) for kk in k for d in range(kk + 1)]


# `verify --id`: each check id -> (the flags it reads, its reports on a
# table from those flags' values; a flag not given takes its default here)
VERIFY_CHECKS = {
    "first-identity": (("k", "i"), lambda table, k=(2, 3), i=range(4): [
        check_first_identity(table, ii, kk, at_r=at_r_for(table, kk - 1))
        for kk in k for ii in i]),
    "log-coeff": (("hmax",), lambda table, hmax=2: [
        check_log_coefficients(table, h, at_r=at_r_for(table, h))
        for h in range(1, hmax + 1)]),
    "top-coeff": (("k",), lambda table, k=(2, 3): [
        check_top_coefficient(table, kk, at_r=at_r_for(table, kk - 1))
        for kk in k]),
    "alpha0": (("k",), lambda table, k=(2, 3): [
        check_alpha0_series(table, None, kk, at_r=at_r_for(table, kk - 1))
        for kk in k]),
    "second-identity": (("k", "i"), lambda table, k=(2, 3), i=range(4): [
        check_second_identity(table, ii, kk, order=min(3, table.sym_max()))
        for kk in k for ii in i]),
    "t-cancellation": (("k", "i"), lambda table, k=(3, 4), i=range(4): [
        check_t_cancellation(table, ii, kk, at_r=at_r_for(table, kk - 2))
        for kk in k for ii in i]),
    "fd-monomial": (("k",), _fd_monomial_rows),
}
