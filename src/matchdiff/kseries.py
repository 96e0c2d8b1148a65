"""Complete-graph correction factor 1 + K_i as an exact series in 1/n.

K_i compares i-matching counts of the complete graph K_{2n} against the
leading factor (2n-1)^i 2^i n^i / (2n)!-ratio; its logarithm G decomposes
into five elementary pieces (three logarithms, a linear term, and a
Stirling-series tail), each expandable exactly.

The series variable, the matching index i, lives on the j-slot of NSeries.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .series import EXACT_ORDER, JPoly, NSeries, Rat


def bernoulli_numbers(m_max: int) -> list[Rat]:
    """B_0..B_m_max by the defining recurrence (B_1 = -1/2 convention)."""
    b: list[Rat] = []
    for m in range(m_max + 1):
        if m == 0:
            b.append(Fraction(1))
            continue
        s = sum(Fraction(comb(m + 1, k)) * b[k] for k in range(m))
        b.append(-s / (m + 1))
    return b


def stirling_constants(j_max: int) -> dict[int, Rat]:
    """Constants c_j (odd j <= j_max) of the factorial-tail expansion.

    c_{2m-1} = -B_{2m} / ((2m)(2m-1) 2^{2m-1}); in particular c_1 = -1/24.
    """
    bern = bernoulli_numbers(j_max + 1)
    out = {}
    for j in range(1, j_max + 1, 2):
        m2 = j + 1
        out[j] = -bern[m2] / (m2 * (m2 - 1) * 2 ** j)
    if out[1] != Fraction(-1, 24):
        raise ArithmeticError(
            f"Stirling constant c_1 = {out[1]}, expected -1/24")
    return out


def _ln_one_minus_i_over_n(order: int) -> NSeries:
    """ln(1 - i/n) = -sum_{m>=1} i^m / (m n^m), exact through `order`."""
    coeffs = {m: JPoly.monomial(m, Fraction(-1, m)) for m in range(1, order + 1)}
    return NSeries(coeffs, order)


def build_G(h_max: int) -> NSeries:
    """The five-part logarithm G_i, exact through 1/n^h_max.

    The +2i linear piece must cancel the -2i produced by
    (2n - 2i) ln(1 - i/n); any surviving non-positive power of n is a bug.
    """
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    # i * ln(1 - 1/(2n))
    g1 = NSeries({m: JPoly.monomial(1, Fraction(-1, m) * Fraction(1, 2 ** m))
                  for m in range(1, h_max + 1)}, h_max)
    # (2n - 2i) * ln(1 - i/n): the linear factor carries n^{+1}, so the log
    # needs one extra order for the product to stay exact through h_max.
    lin = NSeries({-1: JPoly.const(2), 0: JPoly.monomial(1, -2)}, EXACT_ORDER)
    g2 = lin * _ln_one_minus_i_over_n(h_max + 1)
    # +2i
    g3 = NSeries({0: JPoly.monomial(1, 2)}, EXACT_ORDER)
    # (1/2) ln(1 - i/n)
    g4 = _ln_one_minus_i_over_n(h_max) * Fraction(1, 2)
    # Stirling tail: sum over odd m of c_m (1/n^m - 1/(n-i)^m), where
    # 1/(n-i)^m = n^-m sum_t C(m-1+t, t) (i/n)^t.
    cs = stirling_constants(max(h_max, 1))
    tail: dict[int, JPoly] = {}
    for m, cm in cs.items():
        for t in range(1, h_max - m + 1):
            h = m + t
            term = JPoly.monomial(t, -cm * comb(m - 1 + t, t))
            tail[h] = tail[h] + term if h in tail else term
    g5 = NSeries(tail, h_max)

    g = g1 + g2 + g3 + g4 + g5
    if any(h <= 0 for h in g.c):
        raise ArithmeticError(
            "positive/constant powers of n failed to cancel in G: "
            f"exponents {sorted(g.c)}")
    return g


def build_K(h_max: int) -> NSeries:
    """K = exp(G) - 1, exact through 1/n^h_max."""
    return build_G(h_max).exp() - 1


def k_exact(v: int, i: int) -> Rat:
    """Finite-n value of 1 + K_i = (v-1)^i 2^i n^i (v-2i)!/v! with n = v/2."""
    if v % 2:
        raise ValueError("v must be even")
    n = v // 2
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= v/2, got i={i}, v={v}")
    return Fraction((v - 1) ** i * 2 ** i * n ** i * factorial(v - 2 * i),
                    factorial(v))
