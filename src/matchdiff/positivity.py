"""Per-graph positivity statistics and Monte Carlo estimation.

The central quantities are the exact rational ratios
rho_i = m_i K_i, with K_i = (v-1)^i / (mbar_i r^i) fixed by (n, r), and
the finite differences of d(i) = ln(rho_i) = ln m_i + ln K_i.  The counts
m_i are the only per-graph input: every constant lives in the per-(n, r)
`_KTable`.

`delta_table` takes the sign of every Delta^k d(i), i + k <= n, from one
cascade (`_sign_cascade`).  Rounding never decides a sign without a proven
bound: each tier encloses every difference in an interval and takes the
sign only where the interval excludes 0.
1. Floats.  d(i) = log(m_i) + ln K_i, then the difference triangle
   Delta^k(i) = Delta^(k-1)(i+1) - Delta^(k-1)(i).  The radius of d(i) is
   the log budget `_LOG_ERR` (ln C(nr, i) + 1) (an i-matching is a set of
   i edges, so m_i <= C(nr, i)), plus the error of the float ln K_i, plus
   one rounding; each difference adds the radii of its two operands and
   one rounding, u times a bound on its magnitude.
2. `decimal` at 40, then 80, then 160 digits, for the cells the floats
   leave open: the same triangle, with a half-ulp radius per operation
   (`Context.ln` is correctly rounded).
3. The exact sign, `_exact_sign`, for what is still open: Delta^k d(i) is
   the log of prod_{L+} rho^C(k,l) / prod_{L-} rho^C(k,l), so its sign is
   the sign of alpha_0 = prod_{L+} rho^C(k,l) - prod_{L-} rho^C(k,l), and
   of the integer D alpha_0 (`_KTable.alpha0`, `_scaled_alpha0`).
Every radius depends only on (n, r), not on the graph: it is computed once
per (n, r) in exact rationals (`_KTable`) and rounded up.  The structural
zeros Delta^0 d(0) = Delta^0 d(1) = Delta^1 d(0) = 0 (rho_0 = rho_1 = 1
on every regular graph) read 0 from the float tier, as every true zero
does, and are never sent on to the later tiers.

The Monte Carlo moments are exact too, with no rational per sample: every
graph-dependent factor of rho_i is the integer m_i, so `ensemble_grid`
scales alpha_0 by a per-(n, r, i, k) integer D into an integer (the same
`_KTable.alpha0` constants), sums it and its square as integers, and
divides by D and D^2 once, after the merge.

Layering: the Monte Carlo layer is this module and what it imports
(graphs, matchcount, rng, _kernels_py, series).  It imports nothing from
the identity checks (atable, kseries, identities); they import from it,
as identities takes `lsplit` from here.  So `simulate` and `census` never
load the checks, and a test pins that import closure.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, Context
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, lcm, log, nextafter
from operator import gt, lt, sub

from ._records import Record
from .graphs import BipGraph, cycle_census, gen_regular_bipartite
from .matchcount import MatchVector, match_poly_full, mbar_vector
from .rng import derive_seed
from .series import Rat, rat_str

# Error budget of one math.log(x) on an integer x >= 1, in units of
# |ln x| + 1.  CPython rounds x to the nearest double (relative error
# <= 2^-53, so <= 2^-53 absolute in ln x) or, above the double range, adds
# ln(mantissa) to exponent * ln(2); glibc documents log to within 1 ulp.
# Together the error stays below 2^-51 (|ln x| + 1); the cascade assumes
# 2^-40 (|ln x| + 1), a margin of 2^11.
_LOG_ERR = Fraction(1, 2 ** 40)
_U = Fraction(1, 2 ** 53)  # unit roundoff of a double
# A computed result is at most _GROW times the bound on the exact one
# (which needs 1 + u for a double, 1 + 5 * 10^-prec at prec digits).
_GROW = 1 + Fraction(1, 2 ** 20)
_TINY = Fraction(1, 2 ** 1074)  # below the normal range, rounding is absolute
_DECIMAL_TIERS = (40, 80, 160)  # digits
_CEIL = Context(prec=6, rounding=ROUND_CEILING)
_STRUCTURAL_ZEROS = frozenset({(0, 0), (1, 0), (0, 1)})
# Standard errors of the Wilson interval in the trend rule
WILSON_Z = 2.0


def lsplit(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parity split of {0..k}: L+ holds the indices with the parity of k,
    L- the others."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lplus = tuple(l for l in range(k + 1) if l % 2 == k % 2)
    lminus = tuple(l for l in range(k + 1) if l % 2 != k % 2)
    return lplus, lminus


def _ln_upper(x: int) -> Fraction:
    """An upper bound on ln x for an integer x >= 1 (`_LOG_ERR` budget)."""
    lx = Fraction(log(x))
    return lx + _LOG_ERR * (lx + 1)


def _float_up(q: Fraction) -> float:
    """The least double >= q."""
    f = float(q)
    return f if Fraction(f) >= q else nextafter(f, inf)


def _half_ulp(b: Fraction, prec: int) -> Fraction:
    """At least half an ulp, at `prec` digits, of any value of magnitude
    at most b: 5 * 10^(e - prec), where e >= 0 and 10^(e+1) > b."""
    return Fraction(5, 10 ** prec) * 10 ** max(0, len(str(int(b))) - 1)


class _KTable:
    """Everything positivity needs that depends only on the constants
    K_i = rho_i / m_i and on bounds m_i <= m_max[i], never on the counts:
    the cascade's radii and the integer alpha_0 constants (`alpha0`).

    ln m_i <= LM_i, ln(num K_i) <= LN_i and ln(den K_i) <= LD_i, so
    |d(i)| <= LM_i + LN_i + LD_i + 2 =: B(i, 0) for every computed d(i),
    and the exact difference of two computed cells is at most
    B_a + B_b, its computed value at most B(i, k) = (B_a + B_b) _GROW.
    An operation whose exact result is at most B in magnitude errs by at
    most err(B) = u B as a double and `_half_ulp`(B, prec) in decimal.  So
        rad(i, 0) = (error of ln m_i) + (error of ln K_i) + err(B(i, 0)),
        rad(i, k) = rad(i, k-1) + rad(i+1, k-1) + err(B_a + B_b),
    computed in exact rationals and rounded up once per cell.  The first
    two terms of rad(i, 0) are stated where each tier builds it."""

    def __init__(self, K, m_max, zeros=frozenset()):
        self.K = tuple(K)
        self.m_max = tuple(m_max)
        self.zeros = zeros
        n = len(self.K) - 1
        self.cells = [(i, k) for k in range(n + 1) for i in range(n - k + 1)]
        self._lm = [_ln_upper(m) for m in self.m_max]
        self._lk = [(_ln_upper(q.numerator), _ln_upper(q.denominator))
                    for q in self.K]
        self._bounds = [[lm + ln + ld + 2 for lm, (ln, ld)
                         in zip(self._lm, self._lk)]]
        for _ in range(n):
            b = self._bounds[-1]
            self._bounds.append([(x + y) * _GROW for x, y in zip(b, b[1:])])
        self._decimal = {}
        # float tier: log(m_i) is within _LOG_ERR (LM_i + 1) of ln m_i, and
        # ln K_i is the 40-digit decimal value (itself within e of ln K_i)
        # rounded to the nearest double, within u (LN_i + LD_i + 1) + _TINY
        lnk, krad = self._decimal_lnk(_DECIMAL_TIERS[0])
        self.mid = [float(x) for x in lnk]
        rad0 = [_LOG_ERR * (lm + 1) + _U * (ln + ld + 1) + _TINY + e + _U * b
                for lm, (ln, ld), e, b
                in zip(self._lm, self._lk, krad, self._bounds[0])]
        # one flat list in the order of `cells`, and its negation
        self.rads = [_float_up(q) for row in
                     self._radius_rows(rad0, lambda b: _U * b) for q in row]
        self.neg_rads = [-e for e in self.rads]
        self._pairs = [(q.numerator, q.denominator) for q in self.K]
        self._alpha0 = {}

    def rho(self, counts) -> list[Rat]:
        """rho_i = m_i K_i, exactly."""
        return [Fraction(a * m, b) for (a, b), m in zip(self._pairs, counts)]

    def alpha0(self, i: int, k: int):
        """Integer constants that give D alpha_0 from the counts m.

        alpha_0 = x K+ - y K-, where x and y are the products of
        m_{i+l}^C(k,l) over L+ and L-, and K+ and K- are the same products
        of K, each one Fraction of its numerator and denominator products.
        With D = lcm(den K+, den K-), c+ = K+ D and c- = K- D are integers
        and D alpha_0 = x c+ - y c-.  Returns (plus, minus, c+, c-, D),
        where plus and minus are the (index, exponent) factors of x and y;
        computed on first use."""
        const = self._alpha0.get((i, k))
        if const is None:
            sides = []
            for ells in lsplit(k):
                factors = tuple((i + ell, comb(k, ell)) for ell in ells)
                num = den = 1
                for j, e in factors:
                    num *= self._pairs[j][0] ** e
                    den *= self._pairs[j][1] ** e
                sides.append((factors, Fraction(num, den)))
            (plus, kplus), (minus, kminus) = sides
            d = lcm(kplus.denominator, kminus.denominator)
            const = self._alpha0[(i, k)] = (
                plus, minus, kplus.numerator * (d // kplus.denominator),
                kminus.numerator * (d // kminus.denominator), d)
        return const

    def _decimal_lnk(self, prec: int):
        """ln K_i = ln(num) - ln(den) at `prec` digits, and the radius of
        its three roundings."""
        ctx = Context(prec=prec)
        lnk = [ctx.subtract(ctx.ln(q.numerator), ctx.ln(q.denominator))
               for q in self.K]
        rad = [_half_ulp(ln, prec) + _half_ulp(ld, prec)
               + _half_ulp(ln + ld, prec) for ln, ld in self._lk]
        return lnk, rad

    def _radius_rows(self, rad0, err):
        rows = [rad0]
        for b in self._bounds[:-1]:
            rad = rows[-1]
            rows.append([ra + rb + err(x + y) for ra, rb, x, y
                         in zip(rad, rad[1:], b, b[1:])])
        return rows

    def decimal(self, prec: int):
        """ln K_i at `prec` digits and the tier's radius rows, as Decimals
        rounded up (computed on first use)."""
        if prec not in self._decimal:
            lnk, krad = self._decimal_lnk(prec)
            # Context.ln is correctly rounded: ln m_i within half an ulp
            rad0 = [_half_ulp(lm, prec) + e + _half_ulp(b, prec)
                    for lm, e, b in zip(self._lm, krad, self._bounds[0])]
            rows = self._radius_rows(rad0, lambda b: _half_ulp(b, prec))
            self._decimal[prec] = (lnk, [
                [_CEIL.divide(q.numerator, q.denominator) for q in row]
                for row in rows])
        return self._decimal[prec]


@lru_cache(maxsize=None)
def _k_table(n: int, r: int) -> _KTable:
    """The `_KTable` of r-regular bipartite graphs with n vertices a side:
    K_i = (v-1)^i / (mbar_i r^i), and m_i <= C(nr, i) (an i-matching is a
    set of i edges)."""
    v = 2 * n
    mbar = mbar_vector(v)
    return _KTable([Fraction((v - 1) ** i, mbar[i] * r ** i)
                    for i in range(n + 1)],
                   [comb(n * r, i) for i in range(n + 1)], _STRUCTURAL_ZEROS)


def rho_vector(g: BipGraph, mvec: MatchVector | None = None) -> list[Rat]:
    """Exact rho_0..rho_n; rho_0 = rho_1 = 1 for every regular bipartite
    graph."""
    if mvec is None:
        mvec = match_poly_full(g)
    return _k_table(g.n, g.r).rho(mvec.counts)


def _scaled_alpha0(m, const) -> int:
    """D alpha_0 of the counts m, exactly, for one entry `const` of
    `_KTable.alpha0`; its sign is the sign of alpha_0."""
    plus, minus, cplus, cminus, _ = const
    x = y = 1
    for j, e in plus:
        x *= m[j] ** e
    for j, e in minus:
        y *= m[j] ** e
    return x * cplus - y * cminus


def _exact_sign(counts, tab: _KTable, i: int, k: int) -> int:
    """Exact sign of Delta^k d(i): the sign of D alpha_0."""
    a = _scaled_alpha0(counts, tab.alpha0(i, k))
    return (a > 0) - (a < 0)


def _decimal_triangle(counts, tab: _KTable, prec: int, k_max: int):
    """Rows k = 0..k_max of Delta^k d(i) at `prec` digits, and the radius
    rows that enclose them (`_KTable.decimal`)."""
    lnk, rads = tab.decimal(prec)
    ctx = Context(prec=prec)
    row = [ctx.add(ctx.ln(m), c) for m, c in zip(counts, lnk)]
    rows = [row]
    for _ in range(k_max):
        row = [ctx.subtract(b, a) for a, b in zip(row, row[1:])]
        rows.append(row)
    return rows, rads


def _float_triangle(counts, tab: _KTable) -> list[float]:
    """Delta^k d(i) in doubles, flat in the order of `tab.cells`; each is
    within `tab.rads` of the exact value."""
    if len(counts) != len(tab.K) or any(map(gt, counts, tab.m_max)):
        raise ValueError("counts outside the bounds of their constants")
    row = [log(m) + c for m, c in zip(counts, tab.mid)]
    values = row
    for _ in range(len(row) - 1):
        row = list(map(sub, row[1:], row))
        values += row
    return values


def _sign_cascade(counts, tab: _KTable) -> dict[tuple[int, int], int]:
    """Sign of Delta^k d(i) on every i + k <= n, equal to `_exact_sign`:
    the float triangle, then the decimal tiers on the cells it leaves
    open, then `_exact_sign` (see the module docstring)."""
    values = _float_triangle(counts, tab)
    # +-1 where |x| > rad; 0 where the interval holds 0 (left open)
    flat = list(map(sub, map(gt, values, tab.rads),
                    map(lt, values, tab.neg_rads)))
    signs = dict(zip(tab.cells, flat))
    if flat.count(0) == len(tab.zeros):
        return signs  # a true zero is never decided, so these are the zeros
    cells = [c for c in tab.cells if signs[c] == 0 and c not in tab.zeros]
    for prec in _DECIMAL_TIERS:
        rows, rads = _decimal_triangle(counts, tab, prec,
                                       max(k for _, k in cells))
        left = []
        for i, k in cells:
            x = rows[k][i]
            if x.copy_abs() > rads[k][i]:
                signs[(i, k)] = -1 if x.is_signed() else 1
            else:
                left.append((i, k))
        cells = left
        if not cells:
            return signs
    for i, k in cells:
        signs[(i, k)] = _exact_sign(counts, tab, i, k)
    return signs


def alpha0_exact(g_or_rho, i: int, k: int) -> Rat:
    """alpha_0 = prod_{L+} rho^{C(k,l)} - prod_{L-} rho^{C(k,l)}, exact."""
    rho = g_or_rho if isinstance(g_or_rho, list) else rho_vector(g_or_rho)
    if i + k > len(rho) - 1:
        raise ValueError(f"need i + k <= n, got i={i}, k={k}, n={len(rho)-1}")
    lplus, lminus = lsplit(k)
    p = Fraction(1)
    for ell in lplus:
        p *= rho[i + ell] ** comb(k, ell)
    q = Fraction(1)
    for ell in lminus:
        q *= rho[i + ell] ** comb(k, ell)
    return p - q


class DProfile(Record):
    """Exact positivity profile of one graph: the counts m_0..m_n and the
    sign of Delta^k d(i) per (i, k)."""

    __slots__ = __match_args__ = ("n", "r", "counts", "signs")

    def __init__(self, n: int, r: int, counts: tuple[int, ...],
                 signs: dict[tuple[int, int], int]):
        self.n = n
        self.r = r
        self.counts = counts
        self.signs = signs

    @property
    def rho(self) -> list[Rat]:
        """rho_0..rho_n, exactly (computed on access)."""
        return _k_table(self.n, self.r).rho(self.counts)

    def positive(self) -> bool:
        return min(self.signs.values()) >= 0


def delta_table(g: BipGraph, mvec: MatchVector | None = None) -> DProfile:
    """Exact sign table of Delta^k d(i) over the meaningful domain
    i + k <= n (d(i) is only finite for i <= n)."""
    if mvec is None:
        mvec = match_poly_full(g)
    return DProfile(g.n, g.r, mvec.counts,
                    _sign_cascade(mvec.counts, _k_table(g.n, g.r)))


class EnsembleStats(Record):
    """Per-(r, n, i, k) Monte Carlo summary with exact rational moments.
    `cycle_totals` maps s to the s-cycles summed over the first census
    samples (census only)."""

    __slots__ = __match_args__ = (
        "r", "n", "i", "k", "samples", "seed", "alpha_hat", "beta_hat",
        "p_violation", "p_graph_positive", "cycle_totals")

    def __init__(self, r: int, n: int, i: int, k: int, samples: int,
                 seed: int, alpha_hat: Rat, beta_hat: Rat, p_violation: Rat,
                 p_graph_positive: Rat,
                 cycle_totals: dict[int, int] | None = None):
        self.r = r
        self.n = n
        self.i = i
        self.k = k
        self.samples = samples
        self.seed = seed
        self.alpha_hat = alpha_hat
        self.beta_hat = beta_hat
        self.p_violation = p_violation
        self.p_graph_positive = p_graph_positive
        self.cycle_totals = cycle_totals

    @property
    def cheb_bound(self) -> Rat | None:
        """beta/alpha^2 (None when alpha_hat = 0)."""
        if self.alpha_hat == 0:
            return None
        return self.beta_hat / self.alpha_hat ** 2

    def p_violation_se(self) -> float:
        p = float(self.p_violation)
        return (p * (1 - p) / self.samples) ** 0.5

    def csv_row(self) -> str:
        cheb = self.cheb_bound
        cells = [self.r, self.n, self.samples, self.seed, self.i, self.k,
                 rat_str(self.alpha_hat), f"{float(self.alpha_hat):.6g}",
                 rat_str(self.beta_hat), f"{float(self.beta_hat):.6g}",
                 rat_str(cheb) if cheb is not None else "NA",
                 f"{float(cheb):.6g}" if cheb is not None else "NA",
                 rat_str(self.p_violation), f"{float(self.p_violation):.6g}",
                 rat_str(self.p_graph_positive),
                 f"{float(self.p_graph_positive):.6g}"]
        return ",".join(str(c) for c in cells)


CSV_HEADER = ("r,n,samples,seed,i,k,alpha_hat,alpha_hat_dec,beta_hat,"
              "beta_hat_dec,cheb_bound,cheb_bound_dec,p_violation,"
              "p_violation_dec,p_graph_positive,p_graph_positive_dec")


def _sample_graph(r: int, n: int, seed: int, index: int) -> BipGraph:
    return gen_regular_bipartite(n, r, derive_seed(seed, index))


def _grid_worker(args):
    """Integer partial sums of D alpha_0 and its square, violation and
    positive-graph counts over the samples lo..hi-1, and the s-cycle
    totals (even s <= census_smax) over those of them below census_samples.
    """
    r, n, seed, lo, hi, consts, census_smax, census_samples = args
    sums = dict.fromkeys(consts, 0)
    sqs = dict.fromkeys(consts, 0)
    viol = dict.fromkeys(consts, 0)
    cycles = dict.fromkeys(range(4, census_smax + 1, 2), 0)
    pos = 0
    for idx in range(lo, hi):
        g = _sample_graph(r, n, seed, idx)
        mvec = match_poly_full(g)
        pos += delta_table(g, mvec).positive()
        m = mvec.counts
        for p, const in consts.items():
            a = _scaled_alpha0(m, const)
            sums[p] += a
            sqs[p] += a * a
            viol[p] += a < 0
        if idx < census_samples:
            for s, c in cycle_census(g, census_smax).items():
                cycles[s] += c
    return sums, sqs, viol, pos, cycles


def ensemble_grid(r: int, n: int, samples: int, pairs, seed: int,
                  jobs: int = 1, census_smax: int = 0,
                  census_samples: int = 0
                  ) -> dict[tuple[int, int], EnsembleStats]:
    """Shared-sample ensemble statistics for several (i, k) pairs at once.

    Per-sample seeds come from a splittable counter scheme, so results are
    identical for any `jobs`.  Workers sum the integers D alpha_0 and
    (D alpha_0)^2 (constants from `_KTable.alpha0`); the merge adds those
    integers, and the exact moments come from one division by D and by
    D^2 at the end.  With census_samples > 0, the
    first census_samples samples also get a cycle census up to
    census_smax, and every stat carries the merged totals in
    `cycle_totals`.  Pairs outside the domain
    i + k <= n are dropped; when none is left, nothing is sampled."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    tab = _k_table(n, r)
    consts = {p: tab.alpha0(*p) for p in pairs if p[0] + p[1] <= n}
    if not consts:
        return {}
    census = (census_smax, census_samples)
    if jobs > 1:
        step = max(64, samples // (4 * jobs) + 1)
        chunks = [(r, n, seed, lo, min(lo + step, samples), consts, *census)
                  for lo in range(0, samples, step)]
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            parts = pool.map(_grid_worker, chunks)
    else:
        parts = [_grid_worker((r, n, seed, 0, samples, consts, *census))]

    sums = dict.fromkeys(consts, 0)
    sqs = dict.fromkeys(consts, 0)
    viol = dict.fromkeys(consts, 0)
    cycles = dict.fromkeys(range(4, census_smax + 1, 2), 0)
    pos = 0
    for psums, psqs, pviol, ppos, pcycles in parts:
        for p in consts:
            sums[p] += psums[p]
            sqs[p] += psqs[p]
            viol[p] += pviol[p]
        for s in cycles:
            cycles[s] += pcycles[s]
        pos += ppos
    out = {}
    for (i, k), const in consts.items():
        d = const[-1]
        mean = Fraction(sums[(i, k)], d * samples)
        beta = Fraction(sqs[(i, k)], d * d * samples) - mean * mean
        out[(i, k)] = EnsembleStats(
            r=r, n=n, i=i, k=k, samples=samples, seed=seed,
            alpha_hat=mean, beta_hat=beta,
            p_violation=Fraction(viol[(i, k)], samples),
            p_graph_positive=Fraction(pos, samples),
            cycle_totals=cycles if census_samples else None)
    return out


def wilson_bounds(successes: int, samples: int) -> tuple[float, float]:
    """Wilson score interval at z = `WILSON_Z`; unlike the plug-in standard
    error it stays informative at p_hat in {0, 1}, which boundary
    proportions hit often."""
    z = WILSON_Z
    p = successes / samples
    denom = samples + z * z
    center = (successes + z * z / 2) / denom
    half = z * (p * (1 - p) * samples + z * z / 4) ** 0.5 / denom
    return center - half, center + half


def _wilson_above(x_hi: int, n_hi: int, x_lo: int, n_lo: int) -> bool:
    """The trend rule: the Wilson interval of x_hi/n_hi lies strictly above
    that of x_lo/n_lo, so the two proportions differ beyond noise."""
    lo, _ = wilson_bounds(x_hi, n_hi)
    _, hi = wilson_bounds(x_lo, n_lo)
    return lo > hi


class TrendRow(Record):
    __slots__ = __match_args__ = ("n", "stats")

    def __init__(self, n: int, stats: dict[tuple[int, int], EnsembleStats]):
        self.n = n
        self.stats = stats


class TrendReport(Record):
    """One `ensemble_grid` row per n.  Its instances also take other
    attributes (one report per run, so no slots): callers attach run data
    such as the elapsed time."""

    __match_args__ = ("r", "samples", "seed", "rows")

    def __init__(self, r: int, samples: int, seed: int,
                 rows: list[TrendRow]):
        self.r = r
        self.samples = samples
        self.seed = seed
        self.rows = rows

    def monotone_violation(self, i: int, k: int) -> bool:
        """p_violation non-increasing in n within noise: fails only when a
        later Wilson interval (z = 2 standard errors) lies strictly above
        an earlier one."""
        seq = [row.stats[(i, k)] for row in self.rows
               if (i, k) in row.stats]
        for a, b in zip(seq, seq[1:]):
            if _wilson_above(int(b.p_violation * b.samples), b.samples,
                             int(a.p_violation * a.samples), a.samples):
                return False
        return True

    def positivity_drops(self) -> list[tuple[int, int]]:
        """Consecutive (n_a, n_b) rows whose positivity fraction drops
        beyond noise: the later Wilson interval lies strictly below the
        earlier one.  Rows without stats (no (i, k) in their domain) are
        skipped."""
        seq = []
        for row in self.rows:
            if row.stats:
                st = next(iter(row.stats.values()))
                seq.append((row.n, int(st.p_graph_positive * st.samples),
                            st.samples))
        return [(n_a, n_b)
                for (n_a, xa, na), (n_b, xb, nb) in zip(seq, seq[1:])
                if _wilson_above(xa, na, xb, nb)]

    def monotone_positivity(self) -> bool:
        """Positivity fraction non-decreasing in n within noise."""
        return not self.positivity_drops()

    def csv(self, config_line: str = "") -> str:
        lines = []
        if config_line:
            lines.append(f"# {config_line}")
        lines.append("# model=permutation-union-conditioned-on-simple; "
                     "domain i+k<=n")
        lines.append(CSV_HEADER)
        for row in self.rows:
            for key in sorted(row.stats):
                lines.append(row.stats[key].csv_row())
        return "\n".join(lines) + "\n"


def trend_report(r: int, n_list, samples: int, pairs, seed: int,
                 jobs: int = 1) -> TrendReport:
    rows = []
    for n in n_list:
        stats = ensemble_grid(r, n, samples, pairs, seed, jobs=jobs)
        rows.append(TrendRow(n=n, stats=stats))
    return TrendReport(r=r, samples=samples, seed=seed, rows=rows)
