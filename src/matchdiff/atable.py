"""The coefficient table a_h(r, j) of the expansion
M_j = (n^j r^j / j!) (1 + H_j),  H_j = sum_h a_h(r, j) / n^h.

Entries are either symbolic in j (JPoly over Laurent-in-r, degree <= 2h,
r-exponents in [-h, 0], forced roots at j = 0..h) or pointwise values at
fixed (r, j).  Tables are reconstructed from exact matching counts of
girth-qualified graphs by exact linear algebra; every fit keeps held-out
rows whose residuals must be exactly zero.

`ATable.set_sym` is the one home of the degree and r-exponent rules of a
symbolic entry; it and `ATable.add_point` are the one home of a_1's closed
form j(j-1)(1/(2r) - 1).  The series built from a table need nothing
declared for r: a_h/n^h already keeps the graded invariant of
`series.NSeries` (r-exponents in [-h, 0] at 1/n^h), so a deeper h_max
widens nothing.

The series built from a table (`build_H`, the base of `build_F_conjecture`,
`identities.build_F` and `identities.build_lnF`, and F and ln F at an index,
`identities._series_at_index`) are memoized on the ATable
instance, keyed on (kind, h_max, at_r) plus every entry a_1..a_{h_max} as
it reads at call time.  Each loaded table has its own memo; nothing is
shared across tables or cached process-wide.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._records import FrozenRecord, Record
from .series import (EXACT_ORDER, InconsistentSystemError, JPoly, NSeries,
                     Rat, at_point, rat_str, solve_overdetermined_exact)


class ATableError(ValueError):
    pass


class QualificationError(ATableError):
    """Counting data inconsistent with the no-short-subgraph model; the
    qualification policy (girth bound) was probably violated."""


class FitError(ATableError):
    pass


def a1_builtin() -> JPoly:
    """a_1(r, j) = j(j-1)(1/(2r) - 1), exact."""
    top = JPoly.laurent({0: Fraction(-1), -1: Fraction(1, 2)})
    return JPoly([0, -top, top])


def root_product(h: int) -> JPoly:
    """j(j-1)...(j-h): the forced roots of a_h at integer j = 0..h."""
    p = JPoly.monomial(1)
    for z in range(1, h + 1):
        p = p * JPoly([Fraction(-z), Fraction(1)])
    return p


class AEntry(Record):
    """The entry a_h: symbolic in j, pointwise at (r, j), or both, with
    where each value came from (a fresh dict and list unless given)."""

    __slots__ = __match_args__ = ("h", "sym", "points", "provenance")

    def __init__(self, h: int, sym: JPoly | None = None,
                 points: dict[tuple[int, int], Rat] | None = None,
                 provenance: list[str] | None = None):
        self.h = h
        self.sym = sym
        self.points = {} if points is None else points
        self.provenance = [] if provenance is None else provenance


class ATable:
    """Write-once coefficient store with provenance and cross-validation.

    The table also owns the memo of the exact series built from it
    (`_memo_series`): H, F = (1 + H) exp(G), its logarithm ln(1 + H) + G
    (kind "lnF"), F and ln F at each index the identity checks ask for,
    and the 1 + H base of the extended expansion with its j-shifts.  A
    memo lives and dies with its table instance; there is no process-wide
    cache, so every freshly loaded table builds each series once."""

    def __init__(self):
        self.entries: dict[int, AEntry] = {}
        self._series: dict = {}

    def entry(self, h: int) -> AEntry:
        if h not in self.entries:
            self.entries[h] = AEntry(h)
        return self.entries[h]

    def sym_max(self) -> int:
        """Largest h with symbolic entries for all levels 1..h."""
        h = 0
        while (h + 1) in self.entries and self.entries[h + 1].sym is not None:
            h += 1
        return h

    def _memo_series(self, kind, h_max: int, at_r: int | None, build):
        """`build()`, computed once per distinct key.

        The key is (kind, h_max, at_r) plus the entry values a build reads:
        for every h <= h_max, the symbolic entry and the sorted pointwise
        values.  Entries are re-read on every call, so a `set_sym`, an
        `add_point` or a direct assignment to `entries[h]` changes the key
        and never serves a stale series."""
        values = []
        for h in range(1, h_max + 1):
            e = self.entries.get(h)
            if e is None:
                values.append(None)
            else:
                values.append((e.sym, tuple(sorted(e.points.items()))))
        key = (kind, h_max, at_r, tuple(values))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = build()
        return series

    def point_max(self, r: int) -> int:
        """Largest h usable at fixed r (symbolic or j-interpolable)."""
        h = 0
        while True:
            nxt = h + 1
            e = self.entries.get(nxt)
            if e is None:
                return h
            if e.sym is None:
                needed = range(nxt + 1, 2 * nxt + 1)
                if not all((r, j) in e.points for j in needed):
                    return h
            h = nxt

    def value(self, h: int, r: int, j: int) -> Rat:
        """a_h(r, j) at integers; 0 at the forced roots j <= h."""
        if j <= h:
            return Fraction(0)
        e = self.entries.get(h)
        if e is None:
            raise ATableError(f"no entry for h={h}")
        if e.sym is not None:
            return e.sym.at(j, r)
        if (r, j) in e.points:
            return e.points[(r, j)]
        raise ATableError(f"no value for a_{h}({r}, {j})")

    def jpoly_at_r(self, h: int, r: int) -> JPoly:
        """The j-polynomial of a_h at fixed r.

        Symbolic entries are evaluated; pointwise entries are interpolated
        through the forced roots 0..h plus the h stored values at
        j = h+1..2h (degree <= 2h pins the polynomial exactly)."""
        e = self.entries.get(h)
        if e is None:
            raise ATableError(f"no entry for h={h}")
        if e.sym is not None:
            return e.sym.subst_r(r)
        js = sorted(j for (rr, j) in e.points if rr == r and j > h)
        if len(js) < h:
            raise ATableError(
                f"need pointwise a_{h}({r}, j) at {h} points beyond the "
                f"roots to interpolate, have j={js}")
        pi = root_product(h)
        # quotient of degree <= h-1; extra points act as held-out rows
        rows = [[Fraction(j) ** t for t in range(h)] for j in js]
        rhs = [e.points[(r, j)] / pi.subst_j(j).as_rat() for j in js]
        q = solve_overdetermined_exact(rows, rhs)
        return pi * JPoly(q)

    def set_sym(self, h: int, jp: JPoly, provenance: str) -> None:
        if jp.deg > 2 * h:
            raise ATableError(f"a_{h} degree {jp.deg} exceeds 2h")
        for _, e in jp.terms():
            if not -h <= e <= 0:
                raise ATableError(
                    f"a_{h} has r-exponent {e} outside [{-h}, 0]")
        for z in range(0, h + 1):
            if not jp.subst_j(z).is_zero():
                raise ATableError(f"a_{h} must vanish at j={z}")
        if h == 1 and jp != a1_builtin():
            raise ATableError("a_1 conflicts with the closed form")
        e = self.entry(h)
        if e.sym is not None and e.sym != jp:
            raise ATableError(f"conflicting symbolic a_{h}")
        for (r, j), v in e.points.items():
            if jp.at(j, r) != v:
                raise ATableError(
                    f"symbolic a_{h} conflicts with stored point ({r}, {j})")
        e.sym = jp
        e.provenance.append(provenance)

    def add_point(self, h: int, r: int, j: int, val: Rat,
                  provenance: str) -> None:
        if h == 1 and a1_builtin().at(j, r) != val:
            raise ATableError(f"a_1({r}, {j}) = {val} conflicts with the "
                              "closed form")
        e = self.entry(h)
        if e.sym is not None and e.sym.at(j, r) != val:
            raise ATableError(
                f"point a_{h}({r}, {j}) = {val} conflicts with symbolic entry")
        old = e.points.get((r, j))
        if old is not None and old != val:
            raise ATableError(
                f"conflicting values for a_{h}({r}, {j}): {old} vs {val}")
        e.points[(r, j)] = Fraction(val)
        e.provenance.append(f"{provenance} (r={r}, j={j})")


# -- reconstruction from counting data --------------------------------------


def derive_M_pointwise(r: int, j: int,
                       samples: list[tuple[int, int]]) -> dict[int, Rat]:
    """Solve  m_j = (n^j r^j / j!)(1 + sum_h a_h / n^h)  for a_1..a_{j-1}.

    `samples` holds (n, m_j) pairs from qualified graphs with distinct n;
    at least j rows are required so the solve keeps a consistency row, and
    any nonzero residual raises QualificationError."""
    ns = [n for n, _ in samples]
    if len(set(ns)) != len(ns):
        raise ATableError("duplicate n in derivation family")
    if len(samples) < j:
        raise ATableError(
            f"need at least {j} distinct n values for j={j}, got {len(samples)}")
    ys = [Fraction(mj * factorial(j), n ** j * r ** j) - 1
          for n, mj in samples]
    if j == 1:
        bad = [n for (n, _), y in zip(samples, ys) if y != 0]
        if bad:
            raise QualificationError(f"m_1 != n r at n={bad}")
        return {}
    rows = [[Fraction(1, n ** h) for h in range(1, j)] for n in ns]
    try:
        sol = solve_overdetermined_exact(rows, ys)
    except InconsistentSystemError as exc:
        raise QualificationError(
            f"inconsistent counts for (r={r}, j={j}) over n={ns}: {exc}; "
            "a family member likely fails the girth policy") from exc
    return {h: sol[h - 1] for h in range(1, j)}


def fit_atable(points: dict[tuple[int, int], Rat], h: int) -> JPoly:
    """Fit the symbolic a_h from pointwise values.

    The forced roots j = 0..h are divided out first, so only the degree
    <= h-1 quotient in j (with Laurent-in-r coefficients over r^-h..r^0)
    remains.  The system must be overdetermined; every extra row is a
    held-out sample whose residual must be exactly zero."""
    if not points:
        raise FitError("empty sample set")
    rpows = list(range(-h, 1))
    unknowns = [(t, e) for t in range(h) for e in rpows]
    if len(points) <= len(unknowns):
        raise FitError(
            f"need more than {len(unknowns)} samples for a held-out row, "
            f"got {len(points)}")
    pi = root_product(h)
    rows, rhs = [], []
    for (r, j), v in sorted(points.items()):
        if j <= h:
            if v != 0:
                raise FitError(f"sample at root j={j} must be zero")
            continue
        rows.append([Fraction(j) ** t * Fraction(r) ** e
                     for (t, e) in unknowns])
        rhs.append(Fraction(v) / pi.subst_j(j).as_rat())
    try:
        sol = solve_overdetermined_exact(rows, rhs)
    except InconsistentSystemError as exc:
        raise FitError(
            f"held-out residual nonzero for a_{h} over r^{-h}..r^0: "
            f"{exc}; check the girth policy") from exc
    pos = {ue: k for k, ue in enumerate(unknowns)}
    quotient = JPoly([JPoly.laurent({e: sol[pos[(t, e)]] for e in rpows})
                      for t in range(h)])
    return pi * quotient


# -- series builders ---------------------------------------------------------


def build_H(table: ATable, h_max: int, at_r: int | None = None) -> NSeries:
    """H = sum_{h=1}^{h_max} a_h(r, j)/n^h as a proper zero-constant series.

    The finite upper limit j-1 of the defining sum is encoded by the roots
    of the a_h, not by truncating in j.  Built once per table and key (see
    `ATable._memo_series`)."""
    return table._memo_series("H", h_max, at_r,
                              lambda: _build_H(table, h_max, at_r))


def _build_H(table: ATable, h_max: int, at_r: int | None) -> NSeries:
    coeffs = {}
    for h in range(1, h_max + 1):
        if at_r is None:
            e = table.entries.get(h)
            if e is None or e.sym is None:
                raise ATableError(f"symbolic a_{h} unavailable (have up to "
                                  f"h={table.sym_max()})")
            jp = e.sym
        else:
            jp = table.jpoly_at_r(h, at_r)
        coeffs[h] = jp
    return NSeries(coeffs, h_max)


class ConjectureSpec(FrozenRecord):
    """Formal-constant terms of the extended expansion: list of (z_i, c_i)."""

    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Rat], ...]):
        for z, _ in terms:
            if z < 1:
                raise ValueError("z_i must be positive integers")
        object.__setattr__(self, "terms", terms)

    def describe(self) -> str:
        if not self.terms:
            return "empty"
        return ",".join(f"(z={z},c={rat_str(c)})" for z, c in self.terms)


def build_F_conjecture(table: ATable, spec: ConjectureSpec, h_max: int,
                       at_r: int | None = None) -> NSeries:
    """F of the extended expansion:

    F = sum_{s>=0} a_s/n^s
        + sum_i c_i j(j-1)..(j-z_i+1) (1/(n r))^{z_i} sum_{s>=0} a_s(r, j-z_i)/n^s

    with a_0 = 1 (forced by the (1 + H) normal form).  Empty spec reduces
    to 1 + H.  The base 1 + H and its j-shifts are built once per table
    and key (see `ATable._memo_series`); only the spec terms are new."""
    for z, _ in spec.terms:
        if z > h_max:
            raise ATableError(
                f"z={z} exceeds truncation h_max={h_max}; the term would be "
                "invisible at this order")
    base = table._memo_series(
        "1+H", h_max, at_r,
        lambda: NSeries.one(h_max) + build_H(table, h_max, at_r=at_r))
    f = base
    for z, c in spec.terms:
        shifted = table._memo_series(
            ("1+H", z), h_max, at_r,
            lambda: base.shift_j(z).truncate(h_max - z))
        # j(j-1)..(j-z+1) c / r^z
        coeff = root_product(z - 1) * at_point(JPoly.laurent({-z: c}), at_r)
        term = NSeries.term(z, coeff, EXACT_ORDER) * shifted
        f = f + term
    return f


# -- persistence --------------------------------------------------------------


def export_atable(table: ATable, path) -> None:
    lines = ["atable version=1"]
    for h in sorted(table.entries):
        e = table.entries[h]
        for p in e.provenance:
            lines.append(f"# {p}")
        if e.sym is not None:
            lines.append(f"a h={h} sym")
            for (jpow, rpow), v in e.sym.terms().items():
                lines.append(f"{jpow} {rpow} {rat_str(v)}")
        for (r, j) in sorted(e.points):
            lines.append(f"a h={h} point r={r} j={j} "
                         f"{rat_str(e.points[(r, j)])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_atable(path) -> ATable:
    """Load a table file; `ATable.set_sym` and `add_point` cross-validate
    each entry (a_1 against its closed form, overlaps exactly)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "atable version=1":
        raise ATableError("missing 'atable version=1' header")
    table = ATable()
    i = 1
    while i < len(lines):
        ln = lines[i].strip()
        i += 1
        if not ln or ln.startswith("#"):
            continue
        if not ln.startswith("a "):
            raise ATableError(f"malformed line: {ln!r}")
        tokens = ln.split()[1:]
        fields = dict(kv.split("=") for kv in tokens if "=" in kv)
        if "h" not in fields:
            raise ATableError(f"entry line without h=: {ln!r}")
        h = int(fields["h"])
        if "sym" in tokens:
            triples = []
            while i < len(lines):
                nxt = lines[i].strip()
                if not nxt or nxt.startswith("#") or nxt.startswith("a "):
                    break
                jp, rp, v = nxt.split()
                if int(jp) < 0:
                    raise ATableError(f"negative j-power in a_{h}: {nxt!r}")
                triples.append((int(jp), int(rp), Fraction(v)))
                i += 1
            if not triples:
                raise ATableError(f"empty symbolic block for h={h}")
            deg = max(t[0] for t in triples)
            coeffs: list[dict[int, Rat]] = [{} for _ in range(deg + 1)]
            for jp, rp, v in triples:
                if rp in coeffs[jp]:
                    raise ATableError(
                        f"a_{h} gives (j-power {jp}, r-exponent {rp}) two "
                        f"values: {rat_str(coeffs[jp][rp])} and {rat_str(v)}")
                coeffs[jp][rp] = v
            jpoly = JPoly([JPoly.laurent(c) for c in coeffs])
            table.set_sym(h, jpoly, "imported")
        else:
            if "r" not in fields or "j" not in fields:
                raise ATableError(f"point line without r= or j=: {ln!r}")
            val = Fraction(tokens[-1])
            table.add_point(h, int(fields["r"]), int(fields["j"]), val,
                            "imported")
    return table
