"""G = ln(1 + K_i), the complete-graph correction, as an exact 1/n series.

K_i compares i-matching counts of the complete graph K_{2n} against a
leading factor.  With v = 2n, 1 + K_i = (v-1)^i 2^i n^i (v-2i)!/v! is the
finite product

    1 + K_i = (1 - 1/(2n))^i / prod_{s<2i} (1 - s/(2n)),

so each 1/n coefficient of G is a power sum over s < 2i, a polynomial in
i by Faulhaber's formula; `identities` reads 1 + K only as exp(G).

The series variable, the matching index i, lives on the j-slot of NSeries.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .series import JPoly, NSeries, Rat


def bernoulli_numbers(m_max: int) -> list[Rat]:
    """B_0..B_m_max by the defining recurrence (B_1 = -1/2 convention)."""
    b: list[Rat] = [Fraction(1)]
    for m in range(1, m_max + 1):
        s = sum(Fraction(comb(m + 1, k)) * b[k] for k in range(m))
        b.append(-s / (m + 1))
    return b


def build_G(h_max: int) -> NSeries:
    """G_i = ln(1 + K_i), exact through 1/n^h_max.

    Expanding the logarithm of the product, [1/n^m] G = (S_m(2i) - i) /
    (m 2^m), where S_m(N) = sum_{s<N} s^m
    = sum_{k<=m} C(m+1, k) B_k N^(m+1-k) / (m+1) with B_1 = -1/2."""
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    bern = bernoulli_numbers(h_max)
    coeffs = {}
    for m in range(1, h_max + 1):
        # c[p] is the coefficient of i^p; N^p = 2^p i^p
        c = [Fraction(0)] * (m + 2)
        for k in range(m + 1):
            p = m + 1 - k
            c[p] = comb(m + 1, k) * bern[k] * 2 ** p / (m + 1)
        c[1] -= 1
        coeffs[m] = JPoly([x / (m * 2 ** m) for x in c])
    return NSeries(coeffs, h_max)

