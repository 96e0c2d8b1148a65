"""Exact truncated series algebra in 1/n over polynomials in j with Laurent
coefficients in r.

The carrier type is NSeries: a map  h -> JPoly  where h is the exponent of
1/n (negative h means a positive power of n, allowed for intermediates) and
each JPoly is a polynomial in the matching index j whose coefficients are
Laurent polynomials in the degree r with exact rational coefficients.
RLaurent and JPoly are plain sparse values with no declared r-window or
degree bound.

The one rule on r is the invariant of NSeries, graded by the 1/n level: the
coefficient of 1/n^h holds only r-exponents in [-max(h, 0), 0].  a_h lies in
r^-h..r^0 and K_i has no r; sums, ln1p, exp, shift_j, the substitutions and
products of factors without positive powers of n all preserve the rule.
Every NSeries construction checks it and raises WindowOverflowError naming
the exponent and the level, so deeper levels need no widening and a stray
exponent (a malformed table, or a positive power of n carrying r) fails
loudly.

All arithmetic is exact; floating point never enters this module.

Every product -- `RLaurent * RLaurent` (as two constant JPolys),
`JPoly * JPoly` and each 1/n coefficient of `NSeries.mul_capped` -- is one
fused convolution (`_convolve`), the one home of the product rule.  It runs
over the (1/n, j, r) exponents of every kept pair of terms, multiplies each
pair of rational coefficients once and adds the result into a flat
accumulator keyed by 1/n exponent, then j-power, then r-exponent.  Each
result RLaurent and JPoly is built once, at the end, without the values
that cancelled.  No RLaurent is built per term.

`NSeries.ln1p` and `NSeries.exp` are graded recurrences in the Euler
operator theta = -n d/dn, which multiplies the 1/n^h coefficient by h:

    f = ln(1 + u):  h f_h = h u_h - sum_{m=1}^{h-1} m f_m u_{h-m}
    g = exp(t):     h g_h = sum_{m=1}^{h} m t_m g_{h-m},  g_0 = 1

Each 1/n level is one fused convolution over its pairs, and dividing by h
is exact, so the coefficients are those of the power sums of u and t.
`pow_int` is repeated squaring.

Nothing here is cached.  The series built from a coefficient table (H, F
and the extended-expansion base) are memoized by the ATable instance that
holds the table, keyed on (kind, h_max, at_r) and the table entries read;
see `atable.ATable._memo_series`.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

# Validity order assigned to values that are exact polynomials in 1/n and n
# (no truncation error at any order).
EXACT_ORDER = 1 << 30

DEFAULT_ORDER = 6


def rat_str(x: Rat) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_rat(s: str) -> Rat:
    return Fraction(s)


class WindowOverflowError(ArithmeticError):
    """An r-exponent of a series coefficient broke the graded rule: the
    coefficient of 1/n^h holds only r-exponents in [-max(h, 0), 0]."""


class TruncationError(ArithmeticError):
    """A coefficient beyond the series' validity order was requested."""


class ImproperSeriesError(ValueError):
    """ln/exp input had a nonzero constant term or positive powers of n."""


class RLaurent:
    """Laurent polynomial in r: sparse {exponent: Fraction}, no zero values."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Rat]):
        self.c = {e: v if isinstance(v, Fraction) else Fraction(v)
                  for e, v in coeffs.items() if v != 0}

    @classmethod
    def _trusted(cls, c: dict[int, Rat]) -> "RLaurent":
        """Wrap `c` as is; its values must already be nonzero Fractions."""
        self = object.__new__(cls)
        self.c = c
        return self

    @classmethod
    def zero(cls) -> "RLaurent":
        return cls({})

    @classmethod
    def const(cls, x) -> "RLaurent":
        return cls({0: Fraction(x)})

    @classmethod
    def term(cls, coeff, rpow: int) -> "RLaurent":
        return cls({rpow: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.c

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RLaurent.const(other)
        c = dict(self.c)
        for e, v in other.c.items():
            if e in c:
                v = c[e] + v
                if not v:
                    del c[e]
                    continue
            c[e] = v
        return RLaurent._trusted(c)

    __radd__ = __add__

    def __neg__(self):
        return RLaurent._trusted({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = {e: v * other for e, v in self.c.items()} if other else {}
            return RLaurent._trusted(c)
        return _convolve(((0, JPoly((self,)), JPoly((other,))),))[0].coeff(0)

    __rmul__ = __mul__

    def eval(self, r0) -> Rat:
        r0 = Fraction(r0)
        if r0 == 0 and any(e < 0 for e in self.c):
            raise ZeroDivisionError("Laurent evaluation at r=0")
        return sum((v * r0 ** e for e, v in self.c.items()), Fraction(0))

    def as_rat(self) -> Rat:
        """Value of a constant-in-r element."""
        if any(e != 0 for e in self.c):
            raise ValueError(f"not constant in r: {self!r}")
        return self.c.get(0, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.c == ({0: Fraction(other)} if other != 0 else {})
        if not isinstance(other, RLaurent):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            mono = "" if e == 0 else ("r" if e == 1 else f"r^{e}")
            if mono and abs(v) == 1:
                coef = "-" if v < 0 else ""
            else:
                coef = rat_str(v) + ("*" if mono else "")
            parts.append(coef + mono)
        return " + ".join(parts).replace("+ -", "- ")


def _convolve(pairs) -> dict:
    """{key: sum of p1 * p2 over the (key, p1, p2) in `pairs`} for JPolys.

    The one home of the product rule, RLaurent's included.  For each pair
    of j-powers and each pair of r-exponents it does one Fraction product
    and adds it into the accumulator of its key, j-power and r-exponent;
    each result RLaurent and JPoly is built once, at the end, without the
    values that cancelled.

    No exponent is tested here.  The r-exponents of a product are those of
    its factors added, so the type's invariant -- the coefficient of 1/n^h
    holds only r-exponents in [-max(h, 0), 0] -- is checked once, when the
    NSeries that holds the product is built."""
    acc: dict = {}
    for key, p1, p2 in pairs:
        cols = acc.get(key)
        if cols is None:
            cols = acc[key] = []
        b = p2.c
        for _ in range(len(cols), len(p1.c) + len(b) - 1):
            cols.append({})
        for i, x in enumerate(p1.c):
            xc = x.c.items()
            for m, y in enumerate(b, i):
                col = cols[m]
                yc = y.c.items()
                for e1, v1 in xc:
                    for e2, v2 in yc:
                        e = e1 + e2
                        if e in col:
                            col[e] += v1 * v2
                        else:
                            col[e] = v1 * v2
    return {key: JPoly._trusted(
                [RLaurent._trusted({e: v for e, v in col.items() if v})
                 for col in cols])
            for key, cols in acc.items()}


class JPoly:
    """Polynomial in j with RLaurent coefficients; index = power of j."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = [x if isinstance(x, RLaurent) else RLaurent.const(x)
             for x in coeffs]
        while c and c[-1].is_zero():
            c.pop()
        self.c = tuple(c)

    @classmethod
    def _trusted(cls, c: list[RLaurent]) -> "JPoly":
        """Wrap RLaurent coefficients as is, dropping trailing zeros."""
        while c and not c[-1].c:
            c.pop()
        self = object.__new__(cls)
        self.c = tuple(c)
        return self

    @classmethod
    def zero(cls) -> "JPoly":
        return cls([])

    @classmethod
    def const(cls, x) -> "JPoly":
        return cls([x])

    @classmethod
    def monomial(cls, jpow: int, coeff=1) -> "JPoly":
        return cls([RLaurent.zero()] * jpow + [coeff])

    @property
    def deg(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, jpow: int) -> RLaurent:
        if 0 <= jpow < len(self.c):
            return self.c[jpow]
        return RLaurent.zero()

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            other = JPoly.const(other)
        c = [x + y for x, y in zip(self.c, other.c)]
        longer = self.c if len(self.c) > len(other.c) else other.c
        c.extend(longer[len(c):])
        return JPoly._trusted(c)

    __radd__ = __add__

    def __neg__(self):
        return JPoly._trusted([-x for x in self.c])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            other = JPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            return JPoly._trusted([x * other for x in self.c])
        return _convolve(((0, self, other),))[0]

    __rmul__ = __mul__

    def eval_j(self, j0) -> RLaurent:
        """Exact evaluation at a number j0 (Horner)."""
        acc = RLaurent.zero()
        for x in reversed(self.c):
            acc = acc * Fraction(j0) + x
        return acc

    def subst_j(self, j0) -> "JPoly":
        return JPoly([self.eval_j(j0)])

    def shift_j(self, z: int) -> "JPoly":
        """Substitute j -> j - z."""
        if z == 0:
            return self
        acc = JPoly.zero()
        jmz = JPoly([Fraction(-z), Fraction(1)])
        for x in reversed(self.c):
            acc = acc * jmz + JPoly.const(x)
        return acc

    def subst_r(self, r0) -> "JPoly":
        return JPoly([x.eval(r0) for x in self.c])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            other = JPoly.const(other)
        if not isinstance(other, JPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            if self.c[i].is_zero():
                continue
            mono = "" if i == 0 else ("j" if i == 1 else f"j^{i}")
            parts.append(f"({self.c[i]!r}){mono}" if mono else repr(self.c[i]))
        return " + ".join(parts)


_JZERO = JPoly.zero()


class NSeries:
    """Truncated formal series in 1/n.

    coeffs maps the 1/n exponent h to a JPoly; h < 0 encodes positive powers
    of n (bounded intermediates only).  `order` is the validity order: all
    coefficients with h <= order are exact, everything deeper is unknown.

    Invariant: the coefficient of 1/n^h holds only r-exponents in
    [-max(h, 0), 0]; construction raises WindowOverflowError otherwise.
    """

    __slots__ = ("c", "order")

    def __init__(self, coeffs: dict[int, JPoly], order: int):
        c = {}
        for h, p in coeffs.items():
            if h > order or not p.c:
                continue
            lo = -h if h > 0 else 0
            for x in p.c:
                if x.c:
                    e_lo, e_hi = min(x.c), max(x.c)
                    if e_lo < lo or e_hi > 0:
                        raise WindowOverflowError(
                            f"r-exponent {e_lo if e_lo < lo else e_hi} "
                            f"at 1/n^{h} outside [{lo}, 0]")
            c[h] = p
        self.c = c
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER) -> "NSeries":
        return cls({}, order)

    @classmethod
    def one(cls, order=DEFAULT_ORDER) -> "NSeries":
        return cls({0: JPoly.const(1)}, order)

    @classmethod
    def const(cls, x, order=DEFAULT_ORDER) -> "NSeries":
        return cls({0: JPoly.const(x)}, order)

    @classmethod
    def term(cls, h: int, jpoly: JPoly, order=DEFAULT_ORDER) -> "NSeries":
        return cls({h: jpoly}, order)

    # -- structure ---------------------------------------------------------

    @property
    def min_exp(self) -> int | None:
        return min(self.c) if self.c else None

    def coeff(self, jpow: int, npow: int) -> RLaurent:
        """Exact coefficient of j^jpow / n^npow."""
        return self.jpoly(npow).coeff(jpow)

    def jpoly(self, npow: int) -> JPoly:
        if npow > self.order:
            raise TruncationError(
                f"coefficient at 1/n^{npow} beyond validity order {self.order}")
        return self.c.get(npow, JPoly.zero())

    def truncate(self, order: int) -> "NSeries":
        return NSeries(self.c, min(self.order, order))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JPoly):
            other = NSeries.term(0, other, self.order)
        elif isinstance(other, (int, Fraction, RLaurent)):
            other = NSeries.const(other, self.order)
        order = min(self.order, other.order)
        c = {h: p for h, p in self.c.items() if h <= order}
        for h, p in other.c.items():
            if h <= order:
                c[h] = c[h] + p if h in c else p
        return NSeries(c, order)

    __radd__ = __add__

    def __neg__(self):
        return NSeries({h: -p for h, p in self.c.items()}, self.order)

    def __sub__(self, other):
        if not isinstance(other, NSeries):
            return self + (-Fraction(other) if isinstance(other, (int, Fraction))
                           else -other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RLaurent, JPoly)):
            return NSeries({h: p * other for h, p in self.c.items()},
                           self.order)
        return self.mul_capped(other, EXACT_ORDER)

    __rmul__ = __mul__

    def mul_capped(self, other: "NSeries", cap: int) -> "NSeries":
        """Product with coefficients computed only through 1/n^cap (no work
        is spent on coefficients beyond the working truncation)."""
        # Validity: error terms of one factor meet the lowest exponent of
        # the other, so the product is exact through min(Oa+mb, Ob+ma) --
        # but never claim more than the larger operand order (a product of
        # two order-H series is an order-H series).
        cands = [max(self.order, other.order)]
        if other.c:
            cands.append(self.order + min(other.c))
        if self.c:
            cands.append(other.order + min(self.c))
        order = min(min(cands), cap, EXACT_ORDER)
        c = _convolve((h1 + h2, p1, p2)
                      for h1, p1 in self.c.items()
                      for h2, p2 in other.c.items() if h1 + h2 <= order)
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
        if self.c and min(self.c) < 1:
            raise ImproperSeriesError(
                f"{name} input must have zero constant term and no positive "
                f"powers of n (min exponent {self.min_exp})")
        if self.c and self.order >= EXACT_ORDER:
            raise TruncationError(
                f"{name} of a nonzero series of unbounded order is an "
                "infinite series")
        return bool(self.c)

    def ln1p(self) -> "NSeries":
        """ln(1 + u) for u with all exponents >= 1; exact to the order.

        f = ln(1 + u) solves (1 + u) theta f = theta u, so level by level
        h f_h = h u_h - sum_{m=1}^{h-1} m f_m u_{h-m}: one convolution of
        the pairs (f_m, -(m/h) u_{h-m}) per level, added to u_h."""
        order = self.order
        if not self._proper_levels("ln1p"):
            return NSeries.zero(order)
        u = self.c
        f: dict[int, JPoly] = {}
        for h in range(1, order + 1):
            fh = u.get(h, _JZERO)
            pairs = [(h, fm, u[h - m] * Fraction(-m, h))
                     for m, fm in f.items() if h - m in u]
            if pairs:
                fh = fh + _convolve(pairs)[h]
            if fh.c:
                f[h] = fh
        return NSeries(f, order)

    def exp(self) -> "NSeries":
        """exp(t) for t with all exponents >= 1; exact to the order.

        g = exp(t) solves theta g = g theta t, so level by level
        h g_h = sum_{m=1}^{h} m t_m g_{h-m} with g_0 = 1.  The m = h term
        is t_h itself; the others are one convolution of the pairs
        ((m/h) t_m, g_{h-m}) per level, added to t_h."""
        order = self.order
        if not self._proper_levels("exp"):
            return NSeries.one(order)
        t = self.c
        g = {0: JPoly.const(1)}
        for h in range(1, order + 1):
            gh = t.get(h, _JZERO)
            pairs = [(h, t[m] * Fraction(m, h), g[h - m])
                     for m in t if m < h and h - m in g]
            if pairs:
                gh = gh + _convolve(pairs)[h]
            if gh.c:
                g[h] = gh
        return NSeries(g, order)

    # -- substitutions -----------------------------------------------------

    def subst_j(self, j0) -> "NSeries":
        return NSeries({h: p.subst_j(j0) for h, p in self.c.items()},
                       self.order)

    def subst_r(self, r0) -> "NSeries":
        if Fraction(r0) == 0:
            raise ZeroDivisionError("substitution r=0")
        return NSeries({h: p.subst_r(r0) for h, p in self.c.items()},
                       self.order)

    def shift_j(self, z: int) -> "NSeries":
        """Substitute j -> j - z."""
        return NSeries({h: p.shift_j(z) for h, p in self.c.items()},
                       self.order)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NSeries.const(other, self.order)
        if not isinstance(other, NSeries):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return f"NSeries(0; order={self.order})"
        parts = [f"({self.c[h]!r})/n^{h}" if h > 0
                 else (f"({self.c[h]!r})" if h == 0
                       else f"({self.c[h]!r})*n^{-h}")
                 for h in sorted(self.c)]
        return " + ".join(parts) + f" + O(n^-{self.order + 1})"


def at_point(x, at_r: int | None):
    """x, an RLaurent or JPoly written symbolic in r, as it is when at_r is
    None and at r = at_r otherwise: the one home of the pointwise form of a
    value that is written once, symbolic in r."""
    if at_r is None:
        return x
    if isinstance(x, RLaurent):
        return RLaurent.const(x.eval(at_r))
    return x.subst_r(at_r)


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
