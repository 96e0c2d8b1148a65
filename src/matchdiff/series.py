"""Exact truncated series algebra in 1/n over polynomials in j with Laurent
coefficients in r.

The carrier type is NSeries: a map  h -> JPoly  where h is the exponent of
1/n (negative h means a positive power of n, allowed for intermediates) and
each JPoly is a polynomial in the matching index j whose coefficients are
Laurent polynomials in the degree r with exact rational coefficients.

All arithmetic is exact; floating point never enters this module.  RLaurent
results that provably stay in their window (sums, negation, scalar
multiples) skip the window check; products are always checked.

Every product of JPolys -- `JPoly * JPoly` and each 1/n coefficient of
`NSeries.mul_capped` -- is one fused convolution (`_convolve`).  It runs
over the (1/n, j, r) exponents of every kept pair of terms, multiplies each
pair of rational coefficients once and adds the result into a flat
accumulator keyed by 1/n exponent, then j-power, then r-exponent.  Each
result RLaurent and JPoly is built once, at the end, without the values
that cancelled.  No RLaurent is built per term; the window test still
runs on every product term, against the window of the pair it came from.

Nothing here is cached.  The series built from a coefficient table (H, F
and the extended-expansion base) are memoized by the ATable instance that
holds the table, keyed on (kind, h_max, at_r) and the table entries read;
see `atable.ATable._memo_series`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

Rat = Fraction

# Validity order assigned to values that are exact polynomials in 1/n and n
# (no truncation error at any order).
EXACT_ORDER = 1 << 30

DEFAULT_ORDER = 6


def rat(p, q=1) -> Rat:
    return Fraction(p, q)


def rat_str(x: Rat) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_rat(s: str) -> Rat:
    return Fraction(s)


class WindowOverflowError(ArithmeticError):
    """A Laurent coefficient in r fell outside the declared exponent window."""


class TruncationError(ArithmeticError):
    """A coefficient beyond the series' validity order was requested."""


class ImproperSeriesError(ValueError):
    """ln/exp input had a nonzero constant term or positive powers of n."""


class RLaurent:
    """Laurent polynomial in r: sparse {exponent: Fraction} within a window."""

    __slots__ = ("c", "lo", "hi")

    def __init__(self, coeffs: dict[int, Rat], window: tuple[int, int]):
        lo, hi = window
        c = {e: v if isinstance(v, Fraction) else Fraction(v)
             for e, v in coeffs.items() if v != 0}
        for e in c:
            if not lo <= e <= hi:
                raise WindowOverflowError(
                    f"r-exponent {e} outside window [{lo}, {hi}]")
        self.c = c
        self.lo = lo
        self.hi = hi

    @classmethod
    def _trusted(cls, c: dict[int, Rat], lo: int, hi: int) -> "RLaurent":
        """Wrap `c` as is: nonzero Fraction values, exponents in [lo, hi].

        Only for results that provably satisfy both (sums, negation and
        scalar multiples of checked operands); everything else goes
        through the checked constructor."""
        self = object.__new__(cls)
        self.c = c
        self.lo = lo
        self.hi = hi
        return self

    @classmethod
    def zero(cls, window=(0, 0)) -> "RLaurent":
        return cls({}, window)

    @classmethod
    def const(cls, x, window=(0, 0)) -> "RLaurent":
        return cls({0: Fraction(x)}, window)

    @classmethod
    def term(cls, coeff, rpow: int, window=None) -> "RLaurent":
        if window is None:
            window = (min(rpow, 0), max(rpow, 0))
        return cls({rpow: Fraction(coeff)}, window)

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def is_zero(self) -> bool:
        return not self.c

    def with_window(self, window: tuple[int, int]) -> "RLaurent":
        """Explicit reallocation to a new window (the only sanctioned widening)."""
        return RLaurent(self.c, window)

    def _join(self, other) -> tuple["RLaurent", tuple[int, int]]:
        if isinstance(other, (int, Fraction)):
            other = RLaurent.const(other, self.window)
        w = (min(self.lo, other.lo), max(self.hi, other.hi))
        return other, w

    def __add__(self, other):
        other, (lo, hi) = self._join(other)
        c = dict(self.c)
        for e, v in other.c.items():
            if e in c:
                v = c[e] + v
                if not v:
                    del c[e]
                    continue
            c[e] = v
        return RLaurent._trusted(c, lo, hi)

    __radd__ = __add__

    def __neg__(self):
        return RLaurent._trusted({e: -v for e, v in self.c.items()},
                                 self.lo, self.hi)

    def __sub__(self, other):
        other, _ = self._join(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = {e: v * other for e, v in self.c.items()} if other else {}
            return RLaurent._trusted(c, self.lo, self.hi)
        w = (min(self.lo, other.lo), max(self.hi, other.hi))
        c: dict[int, Rat] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if e in c:
                    c[e] += v1 * v2
                else:
                    c[e] = v1 * v2
        # the product can leave the window: the checked constructor raises
        return RLaurent(c, w)

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


def _as_rlaurent(x, window) -> RLaurent:
    if isinstance(x, RLaurent):
        return x
    return RLaurent.const(x, window)


def _with_zero(x: RLaurent) -> RLaurent:
    """x + RLaurent.zero(): the same values, window joined with (0, 0)."""
    if x.lo <= 0 <= x.hi:
        return x
    return RLaurent._trusted(x.c, min(x.lo, 0), max(x.hi, 0))


def _convolve(pairs) -> dict:
    """{key: sum of p1 * p2 over the (key, p1, p2) in `pairs`} for JPolys.

    The one home of the JPoly product rule.  For each pair of j-powers and
    each pair of r-exponents it does one Fraction product and adds it into
    the accumulator of its key, j-power and r-exponent.  Every product term
    must lie in the window of its coefficient pair (the join of the two
    windows); the first one that does not makes the checked RLaurent
    product of that pair raise its WindowOverflowError.

    The result is what summing the pair products in order gives, window for
    window: a coefficient's window is (0, 0) joined with the windows of its
    contributing coefficient pairs, a JPoly's bound is None if any pair has
    an unbounded factor and else the largest bound sum, and after each pair
    the top j-coefficients that cancelled to zero are dropped (so a later
    pair reaching that j-power starts it again from window (0, 0))."""
    acc: dict = {}
    for key, p1, p2 in pairs:
        bound = p1._merge_bound(p2, add)
        slot = acc.get(key)
        if slot is None:
            cols: list[dict[int, Rat]] = []
            los: list[int] = []
            his: list[int] = []
            acc[key] = [cols, los, his, bound]
        else:
            cols, los, his, prev = slot
            slot[3] = None if prev is None or bound is None \
                else max(prev, bound)
        b = p2.c
        for _ in range(len(cols), len(p1.c) + len(b) - 1):
            cols.append({})
            los.append(0)
            his.append(0)
        for i, x in enumerate(p1.c):
            xc = x.c.items()
            xlo, xhi = x.lo, x.hi
            for m, y in enumerate(b, i):
                lo = xlo if xlo < y.lo else y.lo
                hi = xhi if xhi > y.hi else y.hi
                if lo < los[m]:
                    los[m] = lo
                if hi > his[m]:
                    his[m] = hi
                col = cols[m]
                yc = y.c.items()
                for e1, v1 in xc:
                    for e2, v2 in yc:
                        e = e1 + e2
                        if e < lo or e > hi:
                            # the checked product raises first, naming its
                            # first nonzero stray exponent as it always did
                            x * y
                            raise WindowOverflowError(
                                f"r-exponent {e} outside window [{lo}, {hi}]")
                        if e in col:
                            col[e] += v1 * v2
                        else:
                            col[e] = v1 * v2
        while cols and not any(cols[-1].values()):
            cols.pop()
            los.pop()
            his.pop()
    return {key: JPoly._trusted(
                [RLaurent._trusted({e: v for e, v in col.items() if v}, lo, hi)
                 for col, lo, hi in zip(cols, los, his)], bound)
            for key, (cols, los, his, bound) in acc.items()}


class DegreeBoundError(ValueError):
    """A JPoly exceeded its declared degree bound."""


class JPoly:
    """Polynomial in j with RLaurent coefficients; index = power of j."""

    __slots__ = ("c", "bound")

    def __init__(self, coeffs, bound: int | None = None, window=(0, 0)):
        c = [_as_rlaurent(x, window) for x in coeffs]
        while c and c[-1].is_zero():
            c.pop()
        if bound is not None and len(c) - 1 > bound:
            raise DegreeBoundError(
                f"degree {len(c) - 1} exceeds bound {bound}")
        self.c = tuple(c)
        self.bound = bound

    @classmethod
    def _trusted(cls, c: list[RLaurent], bound: int | None) -> "JPoly":
        """Wrap RLaurent coefficients as is, dropping trailing zeros.

        Only for results whose degree provably stays within `bound` (sums,
        negation, scalar multiples and products of checked operands)."""
        while c and not c[-1].c:
            c.pop()
        self = object.__new__(cls)
        self.c = tuple(c)
        self.bound = bound
        return self

    @classmethod
    def zero(cls) -> "JPoly":
        return cls([])

    @classmethod
    def const(cls, x, window=(0, 0)) -> "JPoly":
        return cls([_as_rlaurent(x, window)])

    @classmethod
    def monomial(cls, jpow: int, coeff=1, window=(0, 0)) -> "JPoly":
        return cls([RLaurent.zero(window)] * jpow
                   + [_as_rlaurent(coeff, window)])

    @property
    def deg(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, jpow: int) -> RLaurent:
        if 0 <= jpow < len(self.c):
            return self.c[jpow]
        return RLaurent.zero()

    def _merge_bound(self, other, combine):
        if self.bound is None or other.bound is None:
            return None
        return combine(self.bound, other.bound)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            other = JPoly.const(other)
        c = [x + y for x, y in zip(self.c, other.c)]
        longer = self.c if len(self.c) > len(other.c) else other.c
        c.extend(_with_zero(x) for x in longer[len(c):])
        return JPoly._trusted(c, self._merge_bound(other, max))

    __radd__ = __add__

    def __neg__(self):
        return JPoly._trusted([-x for x in self.c], self.bound)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            other = JPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            return JPoly._trusted([x * other for x in self.c], self.bound)
        return _convolve(((0, self, other),))[0]

    __rmul__ = __mul__

    def eval_j(self, j0) -> RLaurent:
        """Exact evaluation at a number j0 (Horner)."""
        acc = RLaurent.zero()
        for x in reversed(self.c):
            acc = acc * Fraction(j0) + x
        return acc

    def shift_j(self, z: int) -> "JPoly":
        """Substitute j -> j - z."""
        if z == 0:
            return self
        acc = JPoly.zero()
        jmz = JPoly([_as_rlaurent(Fraction(-z), (0, 0)),
                     RLaurent.const(1)])
        for x in reversed(self.c):
            acc = acc * jmz + JPoly.const(x)
        return JPoly(acc.c, self.bound)

    def subst_r(self, r0) -> "JPoly":
        return JPoly([RLaurent.const(x.eval(r0)) for x in self.c], self.bound)

    def map_coeffs(self, f) -> "JPoly":
        return JPoly([f(x) for x in self.c], self.bound)

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


class NSeries:
    """Truncated formal series in 1/n.

    coeffs maps the 1/n exponent h to a JPoly; h < 0 encodes positive powers
    of n (bounded intermediates only).  `order` is the validity order: all
    coefficients with h <= order are exact, everything deeper is unknown.
    """

    __slots__ = ("c", "order", "window")

    def __init__(self, coeffs: dict[int, JPoly], order: int,
                 window: tuple[int, int] = (0, 0)):
        self.c = {h: p for h, p in coeffs.items()
                  if h <= order and not p.is_zero()}
        self.order = order
        self.window = window

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER, window=(0, 0)) -> "NSeries":
        return cls({}, order, window)

    @classmethod
    def one(cls, order=DEFAULT_ORDER, window=(0, 0)) -> "NSeries":
        return cls({0: JPoly.const(1, window)}, order, window)

    @classmethod
    def const(cls, x, order=DEFAULT_ORDER, window=(0, 0)) -> "NSeries":
        return cls({0: JPoly.const(x, window)}, order, window)

    @classmethod
    def term(cls, h: int, jpoly: JPoly, order=DEFAULT_ORDER,
             window=(0, 0)) -> "NSeries":
        return cls({h: jpoly}, order, window)

    # -- structure ---------------------------------------------------------

    @property
    def min_exp(self) -> int | None:
        return min(self.c) if self.c else None

    def coeff(self, jpow: int, npow: int) -> RLaurent:
        """Exact coefficient of j^jpow / n^npow."""
        if npow > self.order:
            raise TruncationError(
                f"coefficient at 1/n^{npow} beyond validity order {self.order}")
        p = self.c.get(npow)
        if p is None:
            return RLaurent.zero(self.window)
        return p.coeff(jpow)

    def jpoly(self, npow: int) -> JPoly:
        if npow > self.order:
            raise TruncationError(
                f"coefficient at 1/n^{npow} beyond validity order {self.order}")
        return self.c.get(npow, JPoly.zero())

    def is_proper(self, const_term: int | None = None) -> bool:
        """No positive powers of n; constant term 0 or 1 as declared."""
        if any(h < 0 for h in self.c):
            return False
        c0 = self.c.get(0, JPoly.zero())
        if const_term is None:
            return c0.is_zero() or c0 == JPoly.const(1)
        return c0 == (JPoly.const(const_term) if const_term else JPoly.zero())

    def truncate(self, order: int) -> "NSeries":
        return NSeries({h: p for h, p in self.c.items() if h <= order},
                       min(self.order, order), self.window)

    # -- ring operations ---------------------------------------------------

    def _join_window(self, other):
        return (min(self.window[0], other.window[0]),
                max(self.window[1], other.window[1]))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RLaurent, JPoly)):
            other = NSeries.const(other, self.order, self.window) \
                if not isinstance(other, JPoly) \
                else NSeries.term(0, other, self.order, self.window)
        order = min(self.order, other.order)
        c = {h: p for h, p in self.c.items() if h <= order}
        for h, p in other.c.items():
            if h <= order:
                c[h] = c[h] + p if h in c else p
        return NSeries(c, order, self._join_window(other))

    __radd__ = __add__

    def __neg__(self):
        return NSeries({h: -p for h, p in self.c.items()}, self.order,
                       self.window)

    def __sub__(self, other):
        if not isinstance(other, NSeries):
            return self + (-Fraction(other) if isinstance(other, (int, Fraction))
                           else -other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RLaurent)):
            return NSeries({h: p * other for h, p in self.c.items()},
                           self.order, self.window)
        if isinstance(other, JPoly):
            return NSeries({h: p * other for h, p in self.c.items()},
                           self.order, self.window)
        return self.mul_capped(other, EXACT_ORDER)

    __rmul__ = __mul__

    def mul_capped(self, other: "NSeries", cap: int) -> "NSeries":
        """Product with coefficients computed only through 1/n^cap (avoids
        building coefficients beyond the working truncation, which would
        also widen r-windows past their declared bounds)."""
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
        return NSeries(c, order, self._join_window(other))

    def pow_int(self, e: int) -> "NSeries":
        """s**e for a non-negative integer e, by repeated squaring."""
        if e < 0:
            raise ValueError("negative exponent")
        result = NSeries.one(self.order, self.window)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result.truncate(self.order)

    # -- transcendental (terminating on proper inputs) ----------------------

    def ln1p(self) -> "NSeries":
        """ln(1 + x) for x with all exponents >= 1; exact to the order."""
        if self.c and min(self.c) < 1:
            raise ImproperSeriesError(
                "ln1p input must have zero constant term and no positive "
                f"powers of n (min exponent {self.min_exp})")
        order = self.order
        out = NSeries.zero(order, self.window)
        power = NSeries.one(order, self.window)
        for m in range(1, order + 1):
            power = power.mul_capped(self, order)
            if not power.c:
                break
            out = out + power * Fraction((-1) ** (m + 1), m)
        return out

    def exp(self) -> "NSeries":
        """exp(x) for x with all exponents >= 1; exact to the order."""
        if self.c and min(self.c) < 1:
            raise ImproperSeriesError(
                "exp input must have zero constant term and no positive "
                f"powers of n (min exponent {self.min_exp})")
        order = self.order
        out = NSeries.one(order, self.window)
        power = NSeries.one(order, self.window)
        fact = 1
        for m in range(1, order + 1):
            power = power.mul_capped(self, order)
            fact *= m
            if not power.c:
                break
            out = out + power * Fraction(1, fact)
        return out

    # -- substitutions -----------------------------------------------------

    def subst_j(self, j0) -> "NSeries":
        return NSeries({h: JPoly([p.eval_j(j0)]) for h, p in self.c.items()},
                       self.order, self.window)

    def subst_r(self, r0) -> "NSeries":
        if Fraction(r0) == 0:
            raise ZeroDivisionError("substitution r=0")
        return NSeries({h: p.subst_r(r0) for h, p in self.c.items()},
                       self.order, (0, 0))

    def shift_j(self, z: int) -> "NSeries":
        """Substitute j -> j - z (degree bounds preserved)."""
        return NSeries({h: p.shift_j(z) for h, p in self.c.items()},
                       self.order, self.window)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NSeries.const(other, self.order, self.window)
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

    # -- text form (used by the atable cache) --------------------------------

    def to_text(self) -> str:
        lines = [f"nseries H={self.order}"]
        for h in sorted(self.c):
            p = self.c[h]
            for jpow in range(p.deg + 1):
                rl = p.coeff(jpow)
                for rpow in sorted(rl.c):
                    lines.append(f"{h} {jpow} {rpow} {rat_str(rl.c[rpow])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, window=None) -> "NSeries":
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.startswith("#")]
        if not lines or not lines[0].startswith("nseries H="):
            raise ValueError("missing 'nseries H=<order>' header")
        order = int(lines[0].split("=", 1)[1])
        triples = []
        for ln in lines[1:]:
            hs, js, rs, vs = ln.split()
            triples.append((int(hs), int(js), int(rs), parse_rat(vs)))
        if window is None:
            rexps = [t[2] for t in triples] or [0]
            window = (min(min(rexps), 0), max(max(rexps), 0))
        per_h: dict[int, dict[int, dict[int, Rat]]] = {}
        for h, jpow, rpow, v in triples:
            per_h.setdefault(h, {}).setdefault(jpow, {})[rpow] = v
        coeffs = {}
        for h, jmap in per_h.items():
            deg = max(jmap)
            coeffs[h] = JPoly(
                [RLaurent(jmap.get(i, {}), window) for i in range(deg + 1)])
        return cls(coeffs, order, window)


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
