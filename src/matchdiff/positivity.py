"""Per-graph positivity statistics and Monte Carlo estimation.

The central quantities are the exact rational ratios
rho_i = m_i K_i, with K_i = (v-1)^i / (mbar_i r^i) fixed by (n, r), and
the finite differences of d(i) = ln(rho_i) = ln m_i + ln K_i.  The counts
m_i are the only per-graph input: every constant lives in the per-(n, r)
`_KTable`.

`delta_table` takes the sign of every Delta^k d(i), i + k <= n, from one
cascade (`_sign_cascade`).  Rounding never decides a sign without a proven
bound.  Each tier holds d(i) as an integer leaf, in units of 1/scale,
within E units of scale d(i).  Integer subtraction is exact, so the one
difference triangle `_triangle`, Delta^k(i) = Delta^(k-1)(i+1) -
Delta^(k-1)(i), adds no error: Delta^k d(i) sums the leaves i..i+k with
weights +-C(k, l), so it lies within E 2^k units.  A tier takes the sign
only where |Delta^k(i)| > E 2^k.
1. Floats, unit 2^-40: leaf = int(log(m_i) 2^40) + round(2^40 ln K_i),
   E = ceil(LM) + 3 with LM an upper bound on every ln m_i.
2. `decimal` at 40, then 80, then 160 digits, for the cells the floats
   leave open, unit 10^-q: leaf = int(10^q ln m_i) + round(10^q ln K_i),
   E = 3 (`Context.ln` is correctly rounded).
3. The exact sign, `_exact_sign`, for what is still open: Delta^k d(i) is
   the log of prod_{L+} rho^C(k,l) / prod_{L-} rho^C(k,l), so its sign is
   the sign of alpha_0 = prod_{L+} rho^C(k,l) - prod_{L-} rho^C(k,l), and
   of the integer D alpha_0 (`_KTable.alpha0`, `_scaled_alpha0`).
Every E and every leaf constant round(scale ln K_i) depends only on
(n, r), not on the graph: `_KTable` holds them once per (n, r) and derives
each E.  The structural zeros Delta^0 d(0) = Delta^0 d(1) = Delta^1 d(0)
= 0 (rho_0 = rho_1 = 1 on every regular graph) read 0 from the float
tier, as every true zero does, and are never sent on to the later tiers.

The Monte Carlo moments are exact too, with no rational per sample: every
graph-dependent factor of rho_i is the integer m_i, so `ensemble_grid`
scales alpha_0 by a per-(n, r, i, k) integer D into an integer (the same
`_KTable.alpha0` constants).  Each worker keeps one integer `Counter`,
the tally: per (i, k) the sums of D alpha_0 and of its square and the
violations, the positive graphs, and the census cycle totals.  Tallies
merge by `Counter.update`, which adds and keeps negative sums, so any
split of the samples merges to the one-worker tally.  The moments divide
by D and D^2 once, after the merge.

Newton's inequality m_i^2 i (n-i) >= m_{i-1} m_{i+1} (i+1) (n-i+1), which
`MatchVector.validate_regular` checks, is a bound on d: in a second
difference the (v-1)^i and r^i of K_i cancel, and K_v, v = 2n, has
mbar_{i+1} mbar_{i-1} / mbar_i^2 = i (v-2i) (v-2i-1) / ((i+1) (v-2i+2)
(v-2i+1)).  So it is exactly Delta^2 d(i-1) <= ln((2n-2i+1) / (2n-2i-1))
for 1 <= i <= n-1, and positivity at k = 2 asks Delta^2 d(i-1) to stay
in [0, ln((2n-2i+1) / (2n-2i-1))], a window of width about 1/(n-i).

Layering: the Monte Carlo layer is this module and what it imports
(graphs, matchcount, rng, _kernels_py, series).  It imports nothing from
the identity checks (atable, kseries, identities); they import from it,
as identities takes `lsplit` from here.  So `simulate` and `census` never
load the checks, and a test pins that import closure.
"""

from __future__ import annotations

from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import ceil, comb, lcm, log
from operator import gt, lt, or_, sub

from ._records import Record
from .graphs import (BipGraph, check_census_smax, cycle_census,
                     gen_regular_bipartites)
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
_FLOAT_SCALE = 2.0 ** 40  # the float tier's leaves count units of 2^-40
_DECIMAL_TIERS = (40, 80, 160)  # digits
_DECIMAL_ERR = 3  # E of every decimal tier (see `_KTable`)
_STRUCTURAL_ZEROS = frozenset({(0, 0), (1, 0), (0, 1)})
# The cycle census covers the first min(samples, CENSUS_SAMPLES) samples
CENSUS_SAMPLES = 200
MODEL = "permutation-union-conditioned-on-simple"
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


def _scaled_lnk(pairs, prec: int, scale: Decimal) -> list[int]:
    """round(scale ln K) for each K = num/den in `pairs`, from ln K taken
    at `prec` digits."""
    ctx = Context(prec=prec)
    return [round(ctx.multiply(ctx.subtract(ctx.ln(a), ctx.ln(b)), scale))
            for a, b in pairs]


class _KTable:
    """Everything positivity needs that depends only on the constants
    K_i = rho_i / m_i and on bounds m_i <= m_max[i], never on the counts:
    the cascade's leaf constants and radii, and the integer alpha_0
    constants (`alpha0`).

    A tier's leaf is d(i) = ln m_i + ln K_i as an integer in units of
    1/scale, within E units of scale d(i); Delta^k d(i) is then within
    E 2^k units, the radius of row k.
    Float tier, scale 2^40: leaf = int(log(m_i) 2^40) + lnk[i], with
    lnk[i] = round(2^40 ln K_i) from ln K_i at 60 digits.
    - log(m_i) is within `_LOG_ERR` (ln m_i + 1) of ln m_i, at most LM + 1
      units, where LM = max_i `_ln_upper`(m_max[i]);
    - the product with 2^40 is exact, and int truncates by under 1 unit;
    - lnk[i] is within 1 unit: half a unit of rounding, plus under
      10^(D - 47) units for the four 60-digit roundings behind it (D as
      below).
    So E = ceil(LM) + 3.
    Decimal tier at p digits (`decimal`), scale 10^q with q = p - D, where
    10^D exceeds every ln m_max[i], ln(num K_i) and ln(den K_i):
    leaf = int(scaleb(ln m_i, q)) + L_i, with L_i = round(10^q ln K_i) from
    ln K_i at p + 20 digits.
    - `Context.ln` is correctly rounded, within half an ulp, at most
      10^(D - p): half a unit, and scaleb is exact;
    - int truncates by under 1 unit, and L_i is within 1 unit.
    So E = 3 (`_DECIMAL_ERR`).
    `tiers` lists the float tier (digits None), then the decimal tiers, each
    with its radii E 2^k per cell of `cells` and their negations."""

    def __init__(self, K, m_max, zeros=frozenset()):
        self.K = tuple(K)
        self.m_max = tuple(m_max)
        self.zeros = zeros
        n = len(self.K) - 1
        self.cells = [(i, k) for k in range(n + 1) for i in range(n - k + 1)]
        self._pairs = [(q.numerator, q.denominator) for q in self.K]
        self.lnk = _scaled_lnk(self._pairs, 60, Decimal(_FLOAT_SCALE))
        errs = [ceil(max(map(_ln_upper, self.m_max))) + 3]
        errs += [_DECIMAL_ERR] * len(_DECIMAL_TIERS)
        self.tiers = [(prec, [e << k for _, k in self.cells],
                       [-e << k for _, k in self.cells])
                      for prec, e in zip((None, *_DECIMAL_TIERS), errs)]
        self._decimal = {}
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

    def decimal(self, prec: int) -> tuple[int, list[int]]:
        """The decimal tier at `prec` digits: q and the leaf constants
        round(10^q ln K_i) (computed on first use)."""
        if prec not in self._decimal:
            top = max(map(_ln_upper, chain(self.m_max, *self._pairs)))
            q = prec - len(str(int(top)))
            self._decimal[prec] = q, _scaled_lnk(self._pairs, prec + 20,
                                                 Decimal(f"1e{q}"))
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


def _float_leaves(counts, tab: _KTable) -> list[int]:
    """The float tier's leaves: d(i) in units of 2^-40, each within E of
    2^40 d(i) (`_KTable`)."""
    if len(counts) != len(tab.K) or any(map(gt, counts, tab.m_max)):
        raise ValueError("counts outside the bounds of their constants")
    return [int(log(m) * _FLOAT_SCALE) + c for m, c in zip(counts, tab.lnk)]


def _decimal_leaves(counts, tab: _KTable, prec: int) -> list[int]:
    """The `prec`-digit tier's leaves: d(i) in units of 10^-q, each within
    `_DECIMAL_ERR` of 10^q d(i) (`_KTable.decimal`)."""
    q, lnk = tab.decimal(prec)
    ctx = Context(prec=prec)
    return [int(ctx.scaleb(ctx.ln(m), q)) + c for m, c in zip(counts, lnk)]


def _triangle(leaves: list[int]) -> list[int]:
    """Delta^k of the leaves, exactly, flat in the order of
    `_KTable.cells`."""
    row = values = list(leaves)
    for _ in range(len(row) - 1):
        row = list(map(sub, row[1:], row))
        values += row
    return values


def _sign_cascade(counts, tab: _KTable) -> dict[tuple[int, int], int]:
    """Sign of Delta^k d(i) on every i + k <= n, equal to `_exact_sign`:
    each tier of `_KTable.tiers` in turn on the cells still open, then
    `_exact_sign` (see the module docstring)."""
    signs = None
    for prec, rads, neg_rads in tab.tiers:
        values = _triangle(_float_leaves(counts, tab) if prec is None
                           else _decimal_leaves(counts, tab, prec))
        # +-1 where |x| > rad, 0 where the interval holds 0 (left open)
        flat = map(sub, map(gt, values, rads), map(lt, values, neg_rads))
        # two tiers that decide a cell agree, so `or_` fills the open ones
        signs = list(flat if signs is None else map(or_, signs, flat))
        if signs.count(0) == len(tab.zeros):
            # a true zero is never decided, so these are the zeros
            return dict(zip(tab.cells, signs))
    signs = dict(zip(tab.cells, signs))
    for cell in tab.cells:
        if not signs[cell] and cell not in tab.zeros:
            signs[cell] = _exact_sign(counts, tab, *cell)
    return signs


def alpha0_exact(g_or_rho, i: int, k: int) -> Rat:
    """alpha_0 = prod_{L+} rho^{C(k,l)} - prod_{L-} rho^{C(k,l)}, exact."""
    rho = g_or_rho if isinstance(g_or_rho, list) else rho_vector(g_or_rho)
    if i < 0 or i + k > len(rho) - 1:
        raise ValueError(
            f"need 0 <= i, i + k <= n, got i={i}, k={k}, n={len(rho)-1}")
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


def rat_cells(x: Rat | None) -> str:
    """Two CSV cells: x exactly and to 6 digits (NA,NA for None)."""
    return "NA,NA" if x is None else f"{rat_str(x)},{float(x):.6g}"


class EnsembleStats(Record):
    """Per-(r, n, i, k) Monte Carlo summary with exact rational moments.
    The per-n facts are on the `TrendRow` that holds it."""

    __slots__ = __match_args__ = (
        "r", "n", "i", "k", "samples", "seed", "alpha_hat", "beta_hat",
        "p_violation")

    def __init__(self, r: int, n: int, i: int, k: int, samples: int,
                 seed: int, alpha_hat: Rat, beta_hat: Rat, p_violation: Rat):
        self.r = r
        self.n = n
        self.i = i
        self.k = k
        self.samples = samples
        self.seed = seed
        self.alpha_hat = alpha_hat
        self.beta_hat = beta_hat
        self.p_violation = p_violation

    @property
    def cheb_bound(self) -> Rat | None:
        """beta/alpha^2 (None when alpha_hat = 0)."""
        if self.alpha_hat == 0:
            return None
        return self.beta_hat / self.alpha_hat ** 2

    def csv_row(self) -> str:
        """The cells of `CSV_HEADER` up to p_violation_dec."""
        cells = [self.r, self.n, self.samples, self.seed, self.i, self.k,
                 *map(rat_cells, (self.alpha_hat, self.beta_hat,
                                  self.cheb_bound, self.p_violation))]
        return ",".join(map(str, cells))


CSV_HEADER = ("r,n,samples,seed,i,k,alpha_hat,alpha_hat_dec,beta_hat,"
              "beta_hat_dec,cheb_bound,cheb_bound_dec,p_violation,"
              "p_violation_dec,p_graph_positive,p_graph_positive_dec")


class TrendRow(Record):
    """One n of a run (`ensemble_grid`): the stats of each sampled (i, k),
    the fraction of graphs with no negative sign, and the s-cycle totals
    of the census samples (None without a census).  A row with nothing
    sampled has stats {} and p_graph_positive None."""

    __slots__ = __match_args__ = ("n", "stats", "p_graph_positive",
                                  "cycle_totals")

    def __init__(self, n: int, stats: dict[tuple[int, int], EnsembleStats],
                 p_graph_positive: Rat | None,
                 cycle_totals: dict[int, int] | None = None):
        self.n = n
        self.stats = stats
        self.p_graph_positive = p_graph_positive
        self.cycle_totals = cycle_totals


def _sample_graphs(r: int, n: int, seed: int, lo: int, hi: int):
    """Samples lo..hi-1 of a run seeded with `seed`, in order: sample idx is
    drawn from derive_seed(seed, idx), so any split of a run into chunks
    draws the same graphs."""
    return gen_regular_bipartites(
        n, r, (derive_seed(seed, idx) for idx in range(lo, hi)))


def _grid_worker(args) -> Counter:
    """The tally of the samples lo..hi-1: per (i, k) in `consts` the sums
    of D alpha_0 ("sum", (i, k)) and of its square ("sq", (i, k)) and the
    violations ("viol", (i, k)); the positive graphs ("positive"); and the
    s-cycle totals ("cycles", s), even s <= census_smax, over the samples
    below census_samples.  The chunk's graphs are drawn together
    (`_sample_graphs`), which packs the same attempts of many samples into
    one batch, and are tallied as they come, a group at a time."""
    r, n, seed, lo, hi, consts, census_smax, census_samples = args
    tally = Counter()
    counts = []
    for idx, g in enumerate(_sample_graphs(r, n, seed, lo, hi), lo):
        mvec = match_poly_full(g)
        # every count that reaches a sign or a moment is checked first; a
        # failure is an internal error, never a statistic
        mvec.validate_regular(n, r)
        tally["positive"] += delta_table(g, mvec).positive()
        counts.append(mvec.counts)
        if idx < census_samples:
            for s, c in cycle_census(g, census_smax).items():
                tally["cycles", s] += c
    # one update per cell and chunk: tuple-keyed `Counter` updates per
    # sample doubled the cost of this loop
    for p, const in consts.items():
        alphas = [_scaled_alpha0(m, const) for m in counts]
        tally["sum", p] += sum(alphas)
        tally["sq", p] += sum(a * a for a in alphas)
        tally["viol", p] += sum(a < 0 for a in alphas)
    return tally


def ensemble_grid(r: int, n: int, samples: int, pairs, seed: int,
                  jobs: int = 1, census_smax: int = 0) -> TrendRow:
    """Shared-sample statistics at one n: the `TrendRow` with the stats
    of every (i, k) of `pairs` in the domain i + k <= n.

    Per-sample seeds come from a splittable counter scheme, so results are
    identical for any `jobs`.  Each worker tallies its chunk of the
    samples (`_grid_worker`), the merge adds the tallies, and the exact
    moments come from one division by D and by D^2 at the end (constants
    from `_KTable.alpha0`).  With census_smax > 0, the first
    min(samples, `CENSUS_SAMPLES`) samples also get a cycle census up to
    census_smax, whose totals the row carries.  r < 1, n < r or a pair
    with i < 0 raises ValueError before any sampling.  Pairs outside the
    domain are dropped; when none is left and there is no census, nothing
    is sampled, and the row has stats {} and p_graph_positive None."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if n < r:
        raise ValueError(f"need r <= n, got r={r}, n={n}")
    if any(i < 0 for i, _ in pairs):
        raise ValueError("need i >= 0 in every (i, k) pair")
    tab = _k_table(n, r)
    consts = {p: tab.alpha0(*p) for p in pairs if p[0] + p[1] <= n}
    if not consts and not census_smax:
        return TrendRow(n=n, stats={}, p_graph_positive=None)
    census = (census_smax, min(samples, CENSUS_SAMPLES) if census_smax else 0)
    if jobs > 1:
        step = max(64, samples // (4 * jobs) + 1)
        chunks = [(r, n, seed, lo, min(lo + step, samples), consts, *census)
                  for lo in range(0, samples, step)]
        import multiprocessing as mp
        with mp.Pool(min(jobs, len(chunks))) as pool:
            parts = pool.map(_grid_worker, chunks)
    else:
        parts = [_grid_worker((r, n, seed, 0, samples, consts, *census))]
    tally = Counter()
    for part in parts:
        tally.update(part)  # adds; `+` would drop the entries <= 0
    stats = {}
    for (i, k), const in consts.items():
        d = const[-1]
        mean = Fraction(tally["sum", (i, k)], d * samples)
        beta = Fraction(tally["sq", (i, k)], d * d * samples) - mean * mean
        stats[(i, k)] = EnsembleStats(
            r=r, n=n, i=i, k=k, samples=samples, seed=seed,
            alpha_hat=mean, beta_hat=beta,
            p_violation=Fraction(tally["viol", (i, k)], samples))
    cycles = {s: tally["cycles", s] for s in range(4, census_smax + 1, 2)}
    return TrendRow(n=n, stats=stats,
                    p_graph_positive=Fraction(tally["positive"], samples),
                    cycle_totals=cycles if census_smax else None)


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


def _rises(seq) -> list:
    """The trend rule: the consecutive pairs (a, b) of `seq`, items
    (label, successes, samples), where the Wilson interval of b lies
    strictly above that of a, so the two proportions differ beyond
    noise."""
    return [(a, b) for (a, xa, na), (b, xb, nb) in zip(seq, seq[1:])
            if wilson_bounds(xb, nb)[0] > wilson_bounds(xa, na)[1]]


def _csv_head(config_line: str, model_note: str) -> list[str]:
    """The comment lines above a CSV header: the run's configuration, if
    given, and the sampling model."""
    lines = [f"# {config_line}"] if config_line else []
    return lines + [f"# model={MODEL}{model_note}"]


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
        seq = [(row.n, int(st.p_violation * st.samples), st.samples)
               for row in self.rows if (st := row.stats.get((i, k)))]
        return not _rises(seq)

    def positivity_drops(self) -> list[tuple[int, int]]:
        """Consecutive (n_a, n_b) rows whose positivity fraction drops
        beyond noise: the later Wilson interval lies strictly below the
        earlier one.  Rows with nothing sampled are skipped."""
        size = self.samples
        seq = [(row.n, int(row.p_graph_positive * size), size)
               for row in self.rows if row.p_graph_positive is not None]
        # a drop is a rise read from the last row back
        return [(n_a, n_b) for n_b, n_a in reversed(_rises(seq[::-1]))]

    def monotone_positivity(self) -> bool:
        """Positivity fraction non-decreasing in n within noise."""
        return not self.positivity_drops()

    def csv(self, config_line: str = "") -> str:
        lines = _csv_head(config_line, "; domain i+k<=n") + [CSV_HEADER]
        for row in self.rows:
            positive = rat_cells(row.p_graph_positive)
            for key in sorted(row.stats):
                lines.append(f"{row.stats[key].csv_row()},{positive}")
        return "\n".join(lines) + "\n"

    def census_csv(self, config_line: str = "") -> str:
        """Per n the positive fraction and the mean s-cycle counts of the
        census samples, the first min(samples, `CENSUS_SAMPLES`)."""
        size = min(self.samples, CENSUS_SAMPLES)
        cycles = sorted(self.rows[0].cycle_totals)
        lines = _csv_head(config_line, "") + [
            "r,n,samples,seed,p_graph_positive,p_graph_positive_dec,"
            + ",".join(f"mean_c{s}" for s in cycles)]
        for row in self.rows:
            cells = [self.r, row.n, self.samples, self.seed,
                     rat_cells(row.p_graph_positive)]
            cells += [f"{row.cycle_totals[s] / size:.4f}" for s in cycles]
            lines.append(",".join(map(str, cells)))
        return "\n".join(lines) + "\n"


def trend_report(r: int, n_list, samples: int, pairs, seed: int,
                 jobs: int = 1, census_smax: int = 0) -> TrendReport:
    """One `ensemble_grid` row per n of `n_list`, with a cycle census up
    to census_smax when it is > 0.  A pair with i + k > n at every n would
    get a trend with no data behind it, and an s_max above the census cap
    would sample for nothing, so either raises ValueError before any
    sampling."""
    for i, k in pairs:
        if all(i + k > n for n in n_list):
            raise ValueError(f"(i, k) = ({i}, {k}) has i + k > n at every "
                             f"n in {list(n_list)}")
    check_census_smax(census_smax)
    rows = [ensemble_grid(r, n, samples, pairs, seed, jobs=jobs,
                          census_smax=census_smax)
            for n in n_list]
    return TrendReport(r=r, samples=samples, seed=seed, rows=rows)
