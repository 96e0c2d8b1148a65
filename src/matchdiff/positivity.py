"""Per-graph positivity statistics and Monte Carlo estimation.

The central quantities are the exact rational ratios
rho_i = (m_i / mbar_i) ((v-1)/r)^i and the finite differences of
d(i) = ln(rho_i).  Floating point may *filter* a sign but never decides
one without a proven bound.  `delta_table` encloses each Delta^k d(i) in a
float interval (`_filtered_signs`; the error bound is stated at
`_LOG_ERR`) and takes its sign only when the interval excludes 0.
Otherwise the exact test `delta_sign`, integer cross-multiplication of
binomially exponentiated rho products, decides.

The Monte Carlo moments are exact too, with no rational per sample: every
graph-dependent factor of rho_i is the integer m_i, so `ensemble_grid`
scales alpha_0 by a per-(n, r, i, k) integer D into an integer (see
`_alpha0_constants`), sums it and its square as integers, and divides by
D and D^2 once, after the merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log

from .graphs import BipGraph, gen_regular_bipartite
from .identities import lsplit
from .matchcount import MatchVector, match_poly_full, mbar_vector
from .rng import derive_seed
from .series import Rat, rat_str


def rho_vector(g: BipGraph, mvec: MatchVector | None = None) -> list[Rat]:
    """Exact rho_0..rho_n; rho_0 = rho_1 = 1 for every regular bipartite
    graph."""
    if mvec is None:
        mvec = match_poly_full(g)
    v = 2 * g.n
    mbar = mbar_vector(v)
    out = []
    for i in range(g.n + 1):
        out.append(Fraction(mvec[i] * (v - 1) ** i,
                            mbar[i] * g.r ** i))
    return out


def delta_sign(rho: list[Rat], i: int, k: int) -> int:
    """Exact sign of Delta^k d(i) via the parity-split product comparison."""
    lplus, lminus = lsplit(k)
    lhs = 1
    rhs = 1
    for ell in lplus:
        q = rho[i + ell]
        lhs *= q.numerator ** comb(k, ell)
        rhs *= q.denominator ** comb(k, ell)
    for ell in lminus:
        q = rho[i + ell]
        lhs *= q.denominator ** comb(k, ell)
        rhs *= q.numerator ** comb(k, ell)
    return (lhs > rhs) - (lhs < rhs)


# Error budget of one math.log(x) on an integer x >= 1, in units of
# |ln x| + 1.  CPython rounds x to the nearest double (relative error
# <= 2^-53, so <= 2^-53 absolute in ln x) or, above the double range, adds
# ln(mantissa) to exponent * ln(2); glibc documents log to within 1 ulp.
# Together the error stays below 2^-51 (|ln x| + 1); the filter assumes
# 2^-40 (|ln x| + 1), a margin of 2^11.
_LOG_ERR = 2.0 ** -40
_U = 2.0 ** -53  # unit roundoff of a double
# The radius below is itself computed in doubles, with relative error under
# 2^-44 for k <= _FILTER_K_MAX; this factor covers it.
_SLACK = 1 + 2.0 ** -20
# C(k, l) is exact as a double up to k = 56 (C(57, 28) > 2^53)
_FILTER_K_MAX = 56


def _log_enclosure(rho: list[Rat]) -> tuple[list[float], list[float]]:
    """Float midpoints and radii that enclose d(i) = ln(rho_i): two
    math.log calls within their budget each, plus the rounding of their
    difference (at most u (|ln p| + |ln q|))."""
    mids, rads = [], []
    for q in rho:
        lp = log(q.numerator)
        lq = log(q.denominator)
        mids.append(lp - lq)
        rads.append(_LOG_ERR * (lp + lq + 2) + _U * (lp + lq))
    return mids, rads


def _filtered_signs(rho: list[Rat]) -> dict[tuple[int, int], int]:
    """Sign of Delta^k d(i) on every i + k <= n, equal to `delta_sign`.

    With c_l = (-1)^(k-l) C(k, l), the float sum s of c_l mids[i+l] is
    within  sum |c_l| rads[i+l] + gamma_{k+1} sum |c_l mids[i+l]|  of the
    exact Delta^k d(i): the first term bounds the error of the enclosed
    logs, the second is Higham's bound for a (k+1)-term inner product with
    exact coefficients, gamma_m = m u / (1 - m u) (Accuracy and Stability
    of Numerical Algorithms, 2nd ed., eq. 3.5).  The sign of s decides when
    |s| exceeds that bound; otherwise the exact `delta_sign` does."""
    n = len(rho) - 1
    mids, rads = _log_enclosure(rho)
    signs = {}
    for k in range(n + 1):
        coef = [(-1) ** (k - ell) * comb(k, ell) for ell in range(k + 1)]
        gamma = (k + 1) * _U / (1 - (k + 1) * _U)
        for i in range(n - k + 1):
            s = mag = err = 0.0
            for c, m, e in zip(coef, mids[i:], rads[i:]):
                t = c * m
                s += t
                mag += abs(t)
                err += abs(c) * e
            bound = (err + gamma * mag) * _SLACK
            if k <= _FILTER_K_MAX and abs(s) > bound:
                signs[(i, k)] = 1 if s > 0 else -1
            else:
                signs[(i, k)] = delta_sign(rho, i, k)
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


@dataclass
class DProfile:
    """Exact positivity profile of one graph."""

    n: int
    rho: list[Rat]
    signs: dict[tuple[int, int], int]  # (i, k) -> sign of Delta^k d(i)

    def positive(self) -> bool:
        return all(s >= 0 for s in self.signs.values())


def delta_table(g: BipGraph, mvec: MatchVector | None = None) -> DProfile:
    """Exact sign table of Delta^k d(i) over the meaningful domain
    i + k <= n (d(i) is only finite for i <= n)."""
    rho = rho_vector(g, mvec)
    return DProfile(g.n, rho, _filtered_signs(rho))


@dataclass
class EnsembleStats:
    """Per-(r, n, i, k) Monte Carlo summary with exact rational moments."""

    r: int
    n: int
    i: int
    k: int
    samples: int
    seed: int
    alpha_hat: Rat
    beta_hat: Rat
    p_violation: Rat
    p_graph_positive: Rat

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


def _alpha0_constants(r: int, n: int, pairs) -> dict:
    """Integer constants that give D alpha_0 from the counts of one sample.

    rho_i = m_i K_i, where K_i = (v-1)^i / (mbar_i r^i) is fixed by (n, r).
    So alpha_0 = x K+ - y K-, where x and y are the products of
    m_{i+l}^C(k,l) over L+ and L-, and K+ and K- are the same products of
    K.  With D = lcm(den K+, den K-), c+ = K+ D and c- = K- D are integers
    and D alpha_0 = x c+ - y c-.  Maps each (i, k) to (plus, minus, c+, c-,
    D), where plus and minus are the (index, exponent) factors of x and y."""
    v = 2 * n
    mbar = mbar_vector(v)
    out = {}
    for (i, k) in pairs:
        sides = []
        for ells in lsplit(k):
            factors = tuple((i + ell, comb(k, ell)) for ell in ells)
            const = Fraction(1)
            for j, e in factors:
                const *= Fraction((v - 1) ** j, mbar[j] * r ** j) ** e
            sides.append((factors, const))
        (plus, kplus), (minus, kminus) = sides
        d = lcm(kplus.denominator, kminus.denominator)
        out[(i, k)] = (plus, minus, kplus.numerator * (d // kplus.denominator),
                       kminus.numerator * (d // kminus.denominator), d)
    return out


def _scaled_alpha0(m, const) -> int:
    """D alpha_0 of the sample with counts m, exactly, for one entry of
    `_alpha0_constants`; its sign is the sign of alpha_0."""
    plus, minus, cplus, cminus, _ = const
    x = y = 1
    for j, e in plus:
        x *= m[j] ** e
    for j, e in minus:
        y *= m[j] ** e
    return x * cplus - y * cminus


def _grid_worker(args):
    """Integer partial sums of D alpha_0 and its square, violation and
    positive-graph counts over the samples lo..hi-1."""
    r, n, seed, lo, hi, consts = args
    sums = dict.fromkeys(consts, 0)
    sqs = dict.fromkeys(consts, 0)
    viol = dict.fromkeys(consts, 0)
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
    return sums, sqs, viol, pos


def ensemble_grid(r: int, n: int, samples: int, pairs, seed: int,
                  jobs: int = 1) -> dict[tuple[int, int], EnsembleStats]:
    """Shared-sample ensemble statistics for several (i, k) pairs at once.

    Per-sample seeds come from a splittable counter scheme, so results are
    identical for any `jobs`.  Workers sum the integers D alpha_0 and
    (D alpha_0)^2 (see `_alpha0_constants`, computed once per call); the
    merge adds those integers, and the exact moments come from one
    division by D and by D^2 at the end.  Pairs outside the domain
    i + k <= n are dropped; when none is left, nothing is sampled."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    consts = _alpha0_constants(
        r, n, dict.fromkeys(p for p in pairs if p[0] + p[1] <= n))
    if not consts:
        return {}
    if jobs > 1:
        step = max(64, samples // (4 * jobs) + 1)
        chunks = [(r, n, seed, lo, min(lo + step, samples), consts)
                  for lo in range(0, samples, step)]
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            parts = pool.map(_grid_worker, chunks)
    else:
        parts = [_grid_worker((r, n, seed, 0, samples, consts))]

    sums = dict.fromkeys(consts, 0)
    sqs = dict.fromkeys(consts, 0)
    viol = dict.fromkeys(consts, 0)
    pos = 0
    for psums, psqs, pviol, ppos in parts:
        for p in consts:
            sums[p] += psums[p]
            sqs[p] += psqs[p]
            viol[p] += pviol[p]
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
            p_graph_positive=Fraction(pos, samples))
    return out


def wilson_bounds(successes: int, samples: int,
                  z: float = 2.0) -> tuple[float, float]:
    """Wilson score interval; unlike the plug-in standard error it stays
    informative at p_hat in {0, 1}, which boundary proportions hit often."""
    p = successes / samples
    denom = samples + z * z
    center = (successes + z * z / 2) / denom
    half = z * (p * (1 - p) * samples + z * z / 4) ** 0.5 / denom
    return center - half, center + half


def _wilson_above(x_hi: int, n_hi: int, x_lo: int, n_lo: int,
                  z: float) -> bool:
    """The trend rule: the Wilson interval of x_hi/n_hi lies strictly above
    that of x_lo/n_lo, so the two proportions differ beyond noise."""
    lo, _ = wilson_bounds(x_hi, n_hi, z)
    _, hi = wilson_bounds(x_lo, n_lo, z)
    return lo > hi


@dataclass
class TrendRow:
    n: int
    stats: dict[tuple[int, int], EnsembleStats]


@dataclass
class TrendReport:
    r: int
    samples: int
    seed: int
    rows: list[TrendRow]

    def monotone_violation(self, i: int, k: int, z: float = 2.0) -> bool:
        """p_violation non-increasing in n within noise: fails only when a
        later Wilson interval (z ~ 2 standard errors) lies strictly above
        an earlier one."""
        seq = [row.stats[(i, k)] for row in self.rows
               if (i, k) in row.stats]
        for a, b in zip(seq, seq[1:]):
            if _wilson_above(int(b.p_violation * b.samples), b.samples,
                             int(a.p_violation * a.samples), a.samples, z):
                return False
        return True

    def positivity_drops(self, z: float = 2.0) -> list[tuple[int, int]]:
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
                if _wilson_above(xa, na, xb, nb, z)]

    def monotone_positivity(self, z: float = 2.0) -> bool:
        """Positivity fraction non-decreasing in n within noise."""
        return not self.positivity_drops(z)

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
