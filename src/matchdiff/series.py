"""Exact truncated series algebra in 1/n over polynomials in j with Laurent
coefficients in r.

The carrier type is NSeries: a map  h -> JPoly  where h is the exponent of
1/n (negative h means a positive power of n, allowed for intermediates) and
each JPoly is a polynomial in the matching index j whose coefficients are
Laurent polynomials in the degree r with exact rational coefficients.  An
r-Laurent polynomial is a JPoly of j-degree 0 at most: one type carries
every coefficient, a j-coefficient (`coeff`) and a value at a number j
(`subst_j`) included.  A JPoly is a plain sparse value with no declared
r-window or degree bound.

Storage is fraction-free.  A JPoly is one positive integer denominator d
and integer numerators keyed by (j-power, r-exponent), standing for
sum num * j^jpow r^rexp / d; each NSeries level is one JPoly.  Every value
is kept in normal form: gcd(d, numerators) = 1 and no zero numerator, with
zero stored as d = 1 and no numerators.  A rational value has exactly one
normal form, so equality and hashing compare the stored integers.

All arithmetic is exact and runs on Python ints; floating point never
enters this module, and constructors, scalars and evaluation points take
only int and Fraction (anything else raises TypeError).  A sum scales both
operands to the lcm of their denominators, a product's denominator is the
product of its factors', an evaluation point p/q is cleared by
multiplying through by powers of q (and of p, for negative r-exponents),
and each result is brought to normal form once, by one gcd.  Fractions
appear only where a coefficient leaves the type: `at`, `as_rat`, the
read-only `terms` accessors and `repr`.

The one rule on r is the invariant of NSeries, graded by the 1/n level: the
coefficient of 1/n^h holds only r-exponents in [-max(h, 0), 0].  a_h lies in
r^-h..r^0 and K_i has no r; sums, ln1p, exp, shift_j, the substitutions and
products of factors without positive powers of n all preserve the rule.
Every NSeries construction checks it at every level where it places a
coefficient and raises WindowOverflowError naming the exponent and the
level, so deeper levels need no widening and a stray exponent (a
malformed table, or a positive power of n carrying r) fails loudly.  A
JPoly is immutable, so the (min, max) r-exponent of a coefficient is
scanned once, the first time a construction checks it, and kept on the
coefficient; a level passed on unchanged (by `truncate`, `+` or a
product by one) costs two comparisons with the window of its level.

Every product -- `JPoly * JPoly` and each 1/n coefficient of
`NSeries.mul_capped` -- is one fused convolution (`_convolve`), the one
home of the product rule.  It multiplies the integer numerators of every
kept pair of terms once and adds them into one integer accumulator per
1/n exponent, keyed by (j-power, r-exponent), over one common
denominator; each result is normalised once, at the end.  No coefficient
object is built per term.  A product by exactly the constant 1 is the
other factor at the product's validity order, with no convolution;
`mul_capped` is the one home of that rule, so `pow_int` and the
accumulators that start from `one()` get it too, and `s * 1` is s.

`NSeries.ln1p` and `NSeries.exp` are graded recurrences in the Euler
operator theta = -n d/dn, which multiplies the 1/n^h coefficient by h:

    f = ln(1 + u):  h f_h = h u_h - sum_{m=1}^{h-1} m f_m u_{h-m}
    g = exp(t):     h g_h = sum_{m=1}^{h} m t_m g_{h-m},  g_0 = 1

Each 1/n level is one fused convolution over its pairs, with each m an
integer weight of its pair, and dividing by h multiplies the denominator,
so the coefficients are those of the power sums of u and t.  `pow_int` is
repeated squaring.

No series is cached here; a JPoly keeps only its own r-range.
The series built from a coefficient table (H, F and the
extended-expansion base) are memoized by the ATable instance that holds
the table, keyed on (kind, h_max, at_r) and the table entries read;
see `atable.ATable._memo_series`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

Rat = Fraction

# Validity order assigned to values that are exact polynomials in 1/n and n
# (no truncation error at any order).
EXACT_ORDER = 1 << 30


def rat_str(x: Rat) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class WindowOverflowError(ArithmeticError):
    """An r-exponent of a series coefficient broke the graded rule: the
    coefficient of 1/n^h holds only r-exponents in [-max(h, 0), 0]."""


class TruncationError(ArithmeticError):
    """A coefficient beyond the series' validity order was requested."""


class ImproperSeriesError(ValueError):
    """ln/exp input had a nonzero constant term or positive powers of n."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(
        f"exact series values are int or Fraction, not {type(x).__name__}")


def _r_weights(exps, r0) -> tuple[dict[int, int], int]:
    """({e: w_e}, m) with r0^e = w_e / m for every e in `exps`: integer
    weights over one positive integer m."""
    p, q = _ratio(r0)
    lo = min(min(exps, default=0), 0)
    hi = max(max(exps, default=0), 0)
    if p == 0:
        if lo < 0:
            raise ZeroDivisionError("Laurent evaluation at r=0")
        return {e: int(e == 0) for e in exps}, 1
    sign = -1 if p < 0 and lo % 2 else 1
    return ({e: sign * p ** (e - lo) * q ** (hi - e) for e in exps},
            sign * p ** -lo * q ** hi)


def _over_lcm(terms) -> tuple[int, dict]:
    """(d, n) in normal form for the sum of p/q x^key over the (key, p, q)
    in `terms`, each key once.  The terms must come in groups that share q
    and have gcd(q, p of the group) = 1, as a fraction in lowest terms or
    the terms of a normal-form value do; then no prime divides both the
    lcm d of the q and every numerator, so no gcd is needed."""
    terms = [t for t in terms if t[1]]
    d = lcm(*[q for _, _, q in terms])
    return d, {k: p * (d // q) for k, p, q in terms}


def _laurent_repr(terms: dict[int, Rat]) -> str:
    """The r-Laurent polynomial with the nonzero {r-exponent: coefficient}
    `terms`, highest exponent first."""
    parts = []
    for e, v in sorted(terms.items(), reverse=True):
        mono = "" if e == 0 else ("r" if e == 1 else f"r^{e}")
        if mono and abs(v) == 1:
            coef = "-" if v < 0 else ""
        else:
            coef = rat_str(v) + ("*" if mono else "")
        parts.append(coef + mono)
    return " + ".join(parts).replace("+ -", "- ")


def _convolve(pairs) -> dict:
    """{key: sum of w * p1 * p2 over the (key, p1, p2, w) in `pairs`} for
    JPolys p1, p2 and integer weights w.

    The one home of the product rule.  The pairs of a key share one
    denominator, the lcm of their denominator products p1.d * p2.d; each
    pair's factor w * lcm / (p1.d * p2.d) scales the numerators of p1
    once.  Then every pair of terms is one int product added into the
    key's accumulator at (j-power, r-exponent), so the sum is exact without
    a Fraction, and each result JPoly is normalised once, at the end,
    without the values that cancelled.

    No exponent is tested here.  The r-exponents of a product are those of
    its factors added, so the type's invariant -- the coefficient of 1/n^h
    holds only r-exponents in [-max(h, 0), 0] -- is checked once, when the
    NSeries that holds the product is built."""
    groups: dict = {}
    for key, p1, p2, w in pairs:
        group = groups.get(key)
        if group is None:
            groups[key] = [(p1, p2, w)]
        else:
            group.append((p1, p2, w))
    out = {}
    for key, group in groups.items():
        d = lcm(*[p1._d * p2._d for p1, p2, _ in group])
        acc: dict = {}
        get = acc.get
        for p1, p2, w in group:
            s = w * (d // (p1._d * p2._d))
            b = p2._n.items()
            for (j1, e1), v1 in p1._n.items():
                v1 *= s
                for (j2, e2), v2 in b:
                    k = (j1 + j2, e1 + e2)
                    acc[k] = get(k, 0) + v1 * v2
        out[key] = JPoly._make(d, {k: v for k, v in acc.items() if v})
    return out


class JPoly:
    """Polynomial in j with Laurent-in-r coefficients: integer numerators
    keyed by (j-power, r-exponent) over one denominator, in normal form
    (see the module docstring).  A JPoly of j-degree 0 at most is an
    r-Laurent polynomial."""

    # _rr: (min, max) r-exponent, None until an NSeries construction
    # first checks the coefficient (see `NSeries.__init__`); _h: the hash,
    # None until first asked for (a JPoly is never changed once built)
    __slots__ = ("_d", "_n", "_rr", "_h")

    def __init__(self, coeffs):
        """`coeffs[i]`, an int, a Fraction or a JPoly of j-degree 0 at
        most, is the coefficient of j^i."""
        terms = []
        for j, x in enumerate(coeffs):
            if isinstance(x, JPoly):
                if x.deg > 0:
                    raise ValueError(
                        f"the coefficient of j^{j} depends on j: {x!r}")
                terms += [((j, e), v, x._d) for (_, e), v in x._n.items()]
            else:
                terms.append(((j, 0), *_ratio(x)))
        self._d, self._n = _over_lcm(terms)
        self._rr = self._h = None

    @classmethod
    def _new(cls, d: int, n: dict) -> "JPoly":
        """Wrap (d, n) as is; it must already be in normal form."""
        self = object.__new__(cls)
        self._d = d
        self._n = n
        self._rr = self._h = None
        return self

    @classmethod
    def _make(cls, d: int, n: dict) -> "JPoly":
        """(d, n), d > 0 and no zero in n, divided by gcd(d, n)."""
        if d != 1:
            g = gcd(d, *n.values())
            if g != 1:
                d //= g
                n = {k: v // g for k, v in n.items()}
        return cls._new(d, n)

    @staticmethod
    def _coerce(x):
        if isinstance(x, JPoly):
            return x
        if isinstance(x, (int, Fraction)):
            p, q = _ratio(x)
            return JPoly._new(q, {(0, 0): p}) if p else _JZERO
        return None

    @classmethod
    def zero(cls) -> "JPoly":
        return cls([])

    @classmethod
    def const(cls, x) -> "JPoly":
        return cls([x])

    @classmethod
    def laurent(cls, coeffs: dict[int, Rat]) -> "JPoly":
        """The r-Laurent polynomial sum coeffs[e] r^e, constant in j."""
        return cls._new(*_over_lcm(
            [((0, e), *_ratio(v)) for e, v in coeffs.items()]))

    @classmethod
    def monomial(cls, jpow: int, coeff=1) -> "JPoly":
        return cls([0] * jpow + [coeff])

    @property
    def deg(self) -> int:
        return max((j for j, _ in self._n), default=-1)

    def coeff(self, jpow: int) -> "JPoly":
        """The coefficient of j^jpow, an r-Laurent polynomial."""
        return JPoly._make(self._d, {(0, e): v for (j, e), v in self._n.items()
                                     if j == jpow})

    def terms(self) -> dict[tuple[int, int], Rat]:
        """Read-only view: {(j-power, r-exponent): nonzero coefficient},
        by j-power, then r-exponent."""
        return {k: Fraction(self._n[k], self._d) for k in sorted(self._n)}

    def as_rat(self) -> Rat:
        """Value of an element constant in j and r."""
        if any(k != (0, 0) for k in self._n):
            raise ValueError(f"not constant in j and r: {self!r}")
        return Fraction(self._n.get((0, 0), 0), self._d)

    def at(self, j0, r0) -> Rat:
        """Exact value at j = j0, r = r0."""
        return self.subst_j(j0).subst_r(r0).as_rat()

    # -- arithmetic --------------------------------------------------------

    def _scaled(self, p: int, q: int) -> "JPoly":
        """self * p/q for integers p and q > 0."""
        if not p:
            return _JZERO
        return self._make(self._d * q, {k: v * p for k, v in self._n.items()})

    def _plus(self, other: "JPoly") -> "JPoly":
        d1, d2 = self._d, other._d
        d = lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        n = {k: v * s1 for k, v in self._n.items()}
        for k, v in other._n.items():
            v *= s2
            if k in n:
                v += n[k]
                if not v:
                    del n[k]
                    continue
            n[k] = v
        return self._make(d, n)

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other)

    __radd__ = __add__

    def __neg__(self):
        return self._new(self._d, {k: -v for k, v in self._n.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(*_ratio(other))
        if not isinstance(other, JPoly):
            return NotImplemented
        return _convolve(((0, self, other, 1),))[0]

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        h = self._h
        if h is None:
            h = self._h = hash((self._d, frozenset(self._n.items())))
        return h

    # -- substitutions -----------------------------------------------------

    def subst_j(self, j0) -> "JPoly":
        """Exact value at a number j0 = p/q, constant in j: sum v p^j
        q^(deg-j) over the denominator times q^deg."""
        p, q = _ratio(j0)
        deg = self.deg
        if deg < 1:
            return self
        w = [p ** j * q ** (deg - j) for j in range(deg + 1)]
        n: dict = {}
        for (j, e), v in self._n.items():
            n[0, e] = n.get((0, e), 0) + v * w[j]
        return JPoly._make(self._d * q ** deg,
                           {k: v for k, v in n.items() if v})

    def shift_j(self, z: int) -> "JPoly":
        """Substitute j -> j - z for an integer z, by the binomial expansion
        of (j - z)^k.  The map is invertible over the integers (its inverse
        is the shift by -z), so the denominator and the normal form stay."""
        if not isinstance(z, int):
            raise TypeError(f"shift_j takes an int, not {type(z).__name__}")
        if z == 0:
            return self
        rows = [[comb(k, i) * (-z) ** (k - i) for i in range(k + 1)]
                for k in range(self.deg + 1)]
        n: dict = {}
        for (k, e), v in self._n.items():
            for i, c in enumerate(rows[k]):
                n[i, e] = n.get((i, e), 0) + v * c
        return JPoly._new(self._d, {k: v for k, v in n.items() if v})

    def subst_r(self, r0) -> "JPoly":
        w, m = _r_weights({e for _, e in self._n}, r0)
        n: dict = {}
        for (j, e), v in self._n.items():
            n[j, 0] = n.get((j, 0), 0) + v * w[e]
        return JPoly._make(self._d * m, {k: v for k, v in n.items() if v})

    def __repr__(self):
        if not self._n:
            return "0"
        parts = []
        for i in sorted({j for j, _ in self._n}, reverse=True):
            mono = "" if i == 0 else ("j" if i == 1 else f"j^{i}")
            x = _laurent_repr({e: Fraction(v, self._d)
                               for (j, e), v in self._n.items() if j == i})
            parts.append(f"({x}){mono}" if mono else x)
        return " + ".join(parts)


_JZERO = JPoly.zero()
_JONE = JPoly.const(1)
# the levels of the constant 1
_ONE_LEVELS = {0: _JONE}


def _window_error(p: JPoly, h: int, lo: int) -> WindowOverflowError:
    """The error for the first j-coefficient of `p`, by j-power, with an
    r-exponent outside [lo, 0] at 1/n^h: its lowest exponent if that is
    below lo, else its highest."""
    for jpow in sorted({j for j, _ in p._n}):
        es = [e for j, e in p._n if j == jpow]
        e_lo, e_hi = min(es), max(es)
        if e_lo < lo or e_hi > 0:
            return WindowOverflowError(
                f"r-exponent {e_lo if e_lo < lo else e_hi} "
                f"at 1/n^{h} outside [{lo}, 0]")
    raise AssertionError("no exponent outside the window")


class NSeries:
    """Truncated formal series in 1/n.

    The levels map the 1/n exponent h to a nonzero JPoly; h < 0 encodes
    positive powers of n (bounded intermediates only).  `order` is the
    validity order: all coefficients with h <= order are exact, everything
    deeper is unknown.

    Invariant: the coefficient of 1/n^h holds only r-exponents in
    [-max(h, 0), 0]; construction raises WindowOverflowError otherwise.
    """

    __slots__ = ("_c", "order")

    def __init__(self, coeffs: dict[int, JPoly], order: int):
        c = {}
        for h, p in coeffs.items():
            if h > order or not p._n:
                continue
            rr = p._rr
            if rr is None:
                es = [e for _, e in p._n]
                rr = p._rr = (min(es), max(es))
            lo = -h if h > 0 else 0
            if rr[0] < lo or rr[1] > 0:
                raise _window_error(p, h, lo)
            c[h] = p
        self._c = c
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "NSeries":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "NSeries":
        return cls(_ONE_LEVELS, order)

    @classmethod
    def const(cls, x, order: int) -> "NSeries":
        return cls({0: JPoly.const(x)}, order)

    @classmethod
    def term(cls, h: int, jpoly: JPoly, order: int) -> "NSeries":
        return cls({h: jpoly}, order)

    # -- structure ---------------------------------------------------------

    @property
    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def terms(self) -> dict[int, JPoly]:
        """Read-only view: {1/n exponent: nonzero JPoly}, in the order the
        levels were built (the order a WindowOverflowError searches)."""
        return dict(self._c)

    def coeff(self, jpow: int, npow: int) -> JPoly:
        """Exact coefficient of j^jpow / n^npow, an r-Laurent polynomial."""
        return self.jpoly(npow).coeff(jpow)

    def jpoly(self, npow: int) -> JPoly:
        if npow > self.order:
            raise TruncationError(
                f"coefficient at 1/n^{npow} beyond validity order {self.order}")
        return self._c.get(npow, _JZERO)

    def truncate(self, order: int) -> "NSeries":
        return NSeries(self._c, min(self.order, order))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NSeries):
            other = JPoly._coerce(other)
            if other is None:
                return NotImplemented
            other = NSeries.term(0, other, self.order)
        order = min(self.order, other.order)
        c = {h: p for h, p in self._c.items() if h <= order}
        for h, p in other._c.items():
            if h <= order:
                c[h] = c[h] + p if h in c else p
        return NSeries(c, order)

    __radd__ = __add__

    def __neg__(self):
        return NSeries({h: -p for h, p in self._c.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NSeries):
            return self.mul_capped(other, EXACT_ORDER)
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if p == q:
                return self
            return NSeries({h: x._scaled(p, q) for h, x in self._c.items()},
                           self.order)
        other = JPoly._coerce(other)
        if other is None:
            return NotImplemented
        return NSeries(_convolve((h, x, other, 1)
                                 for h, x in self._c.items()), self.order)

    __rmul__ = __mul__

    def mul_capped(self, other: "NSeries", cap: int) -> "NSeries":
        """Product with coefficients computed only through 1/n^cap (no work
        is spent on coefficients beyond the working truncation).  A factor
        that is exactly the constant 1 gives the other factor's levels,
        without a convolution."""
        # Validity: error terms of one factor meet the lowest exponent of
        # the other, so the product is exact through min(Oa+mb, Ob+ma) --
        # but never claim more than the larger operand order (a product of
        # two order-H series is an order-H series).
        cands = [max(self.order, other.order)]
        if other._c:
            cands.append(self.order + min(other._c))
        if self._c:
            cands.append(other.order + min(self._c))
        order = min(min(cands), cap, EXACT_ORDER)
        # a product by one skips the convolution: identities ran 9% faster
        if other._c == _ONE_LEVELS:
            return NSeries(self._c, order)
        if self._c == _ONE_LEVELS:
            return NSeries(other._c, order)
        c = _convolve((h1 + h2, p1, p2, 1)
                      for h1, p1 in self._c.items()
                      for h2, p2 in other._c.items() if h1 + h2 <= order)
        return NSeries(c, order)

    def pow_int(self, e: int) -> "NSeries":
        """s**e for a non-negative integer e, by repeated squaring."""
        if e < 0:
            raise ValueError("negative exponent")
        result = NSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result.truncate(self.order)

    # -- transcendental (graded recurrences, see the module docstring) -------

    def _proper_levels(self, name: str) -> bool:
        """True if there are levels to compute; raise on improper input
        and on a nonzero input of unbounded order (an infinite series)."""
        if self._c and min(self._c) < 1:
            raise ImproperSeriesError(
                f"{name} input must have zero constant term and no positive "
                f"powers of n (min exponent {self.min_exp})")
        if self._c and self.order >= EXACT_ORDER:
            raise TruncationError(
                f"{name} of a nonzero series of unbounded order is an "
                "infinite series")
        return bool(self._c)

    def ln1p(self) -> "NSeries":
        """ln(1 + u) for u with all exponents >= 1; exact to the order.

        f = ln(1 + u) solves (1 + u) theta f = theta u, so level by level
        f_h = u_h - (1/h) sum_{m=1}^{h-1} m f_m u_{h-m}: one convolution of
        the pairs (f_m, u_{h-m}) with weights -m per level, divided by h
        and added to u_h."""
        order = self.order
        if not self._proper_levels("ln1p"):
            return NSeries.zero(order)
        u = self._c
        f: dict[int, JPoly] = {}
        for h in range(1, order + 1):
            fh = u.get(h, _JZERO)
            pairs = [(h, fm, u[h - m], -m)
                     for m, fm in f.items() if h - m in u]
            if pairs:
                fh = fh._plus(_convolve(pairs)[h]._scaled(1, h))
            if fh._n:
                f[h] = fh
        return NSeries(f, order)

    def exp(self) -> "NSeries":
        """exp(t) for t with all exponents >= 1; exact to the order.

        g = exp(t) solves theta g = g theta t, so level by level
        h g_h = sum_{m=1}^{h} m t_m g_{h-m} with g_0 = 1.  The m = h term
        is t_h itself; the others are one convolution of the pairs
        (t_m, g_{h-m}) with weights m per level, divided by h and added to
        t_h."""
        order = self.order
        if not self._proper_levels("exp"):
            return NSeries.one(order)
        t = self._c
        g = {0: _JONE}
        for h in range(1, order + 1):
            gh = t.get(h, _JZERO)
            pairs = [(h, t[m], g[h - m], m)
                     for m in t if m < h and h - m in g]
            if pairs:
                gh = gh._plus(_convolve(pairs)[h]._scaled(1, h))
            if gh._n:
                g[h] = gh
        return NSeries(g, order)

    # -- substitutions -----------------------------------------------------

    def subst_j(self, j0) -> "NSeries":
        return NSeries({h: p.subst_j(j0) for h, p in self._c.items()},
                       self.order)

    def shift_j(self, z: int) -> "NSeries":
        """Substitute j -> j - z."""
        return NSeries({h: p.shift_j(z) for h, p in self._c.items()},
                       self.order)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NSeries.const(other, self.order)
        if not isinstance(other, NSeries):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return f"NSeries(0; order={self.order})"
        parts = [f"({self._c[h]!r})/n^{h}" if h > 0
                 else (f"({self._c[h]!r})" if h == 0
                       else f"({self._c[h]!r})*n^{-h}")
                 for h in sorted(self._c)]
        return " + ".join(parts) + f" + O(n^-{self.order + 1})"


def at_point(x: JPoly, at_r: int | None) -> JPoly:
    """x, written symbolic in r, as it is when at_r is None and at r = at_r
    otherwise: the one home of the pointwise form of a value that is
    written once, symbolic in r."""
    return x if at_r is None else x.subst_r(at_r)


class InconsistentSystemError(ValueError):
    """An overdetermined exact system had a nonzero residual."""


def solve_overdetermined_exact(rows: list[list[Rat]],
                               rhs: list[Rat]) -> list[Rat]:
    """Solve an exact-rational system with at least as many rows as unknowns.

    The system must have full column rank (a singular square system raises
    ValueError) and be exactly consistent; any nonzero residual raises
    InconsistentSystemError (this is how held-out validation rows are
    enforced)."""
    nun = len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(rows)]
    nr = len(a)
    prow = 0
    pivots = []
    for col in range(nun):
        piv = next((r for r in range(prow, nr) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[prow], a[piv] = a[piv], a[prow]
        inv = 1 / a[prow][col]
        a[prow] = [x * inv for x in a[prow]]
        for r in range(nr):
            if r != prow and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
        pivots.append(col)
        prow += 1
    if len(pivots) < nun:
        raise ValueError(
            f"rank deficient: {len(pivots)} independent rows for {nun} unknowns")
    bad = [r for r in range(prow, nr) if a[r][nun] != 0]
    if bad:
        raise InconsistentSystemError(
            f"{len(bad)} residual rows are nonzero (first at index {bad[0]})")
    x = [Fraction(0)] * nun
    for k, col in enumerate(pivots):
        x[col] = a[k][nun]
    return x
