"""Batch reconstruction of the coefficient table from graph data.

Qualification policy: a graph can supply m_j = M_j when girth > j (the
strict mode demands girth > 2j).  Every entry is derived from two qualified
families, "structured" and "random", and the results must agree exactly;
that reconstruction invariance is the principal guard against a wrong
qualification policy.  The families are not independent everywhere: at
r = 3, j = 4 and 5 (girth 6) both reach `find_circulant`, which is
exhaustive there and ignores its seed, so the random family shares 4 of
its 5 graphs (5 of 6 at j = 5) with the structured one on the default
seeds.  The graphs stay as they are, since `counts.jsonl` is a frozen
output.
"""

from __future__ import annotations

import json
import os
from math import isqrt

from .atable import (ATable, QualificationError, derive_M_pointwise,
                     fit_atable)
from .graphs import (BipGraph, GenerationBudgetError, builtin_graph,
                     find_circulant, gen_regular_bipartite, girth,
                     girth_search, incidence_pg, is_prime, propose_swap,
                     swap_edges)
from .matchcount import match_count_upto
from .rng import DEFAULT_SEED, derive_seed
from .series import Rat

# girth-8 cubic graphs exist on 30 and 34+ vertices but not 32
_SKIP_G8_CUBIC = {16}
# valid 2-edge swaps per edge in `_swap_shuffle`
_SWAP_SWEEPS = 10
# graphs per family beyond the j unknowns of a fit: the held-out rows
_EXTRA_ROWS = 1


def min_girth_for(j: int, strict: bool = False) -> int:
    """Smallest even girth qualifying a graph to supply m_j = M_j."""
    g = 2 * j + 1 if strict else j + 1
    return g if g % 2 == 0 else g + 1


def _count_record(line: bytes) -> tuple[tuple[str, int], int]:
    rec = json.loads(line)
    return (rec["g"], rec["j"]), int(rec["m"])


class _CountCache:
    """Append-only cache of exact m_j values keyed by (graph id, j).

    A final line without its newline that does not parse is a torn append
    from a killed run: loading ignores it, and the next `put` cuts the file
    back to the last complete line first.  Any other line that does not
    parse raises."""

    def __init__(self, root: str | None):
        self.path = os.path.join(root, "counts.jsonl") if root else None
        self.data: dict[tuple[str, int], int] = {}
        self._cut: int | None = None  # file size to restore before appending
        self._lead = ""  # newline the last record lacks
        if self.path and os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                raw = fh.read()
            *lines, tail = raw.split(b"\n")
            for line in lines:
                key, m = _count_record(line)
                self.data[key] = m
            if tail:
                try:
                    key, m = _count_record(tail)
                except ValueError:
                    self._cut = len(raw) - len(tail)
                else:
                    self.data[key] = m
                    self._lead = "\n"

    def get(self, gid: str, j: int) -> int | None:
        return self.data.get((gid, j))

    def put(self, gid: str, j: int, m: int) -> None:
        self.data[(gid, j)] = m
        if self.path:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with open(self.path, "a") as fh:
                if self._cut is not None:
                    fh.truncate(self._cut)
                fh.write(self._lead + json.dumps({"g": gid, "j": j, "m": m})
                         + "\n")
            self._cut, self._lead = None, ""


def count_mj(g: BipGraph, j: int, cache: _CountCache | None = None) -> int:
    """m_j of g, from the cache or freshly counted.  A fresh count vector
    must pass `MatchVector.validate_regular` (the m_0..m_3 closed forms
    and, on a full vector, Newton's inequalities and Schrijver's bound)
    before m_j enters the cache; a failing one raises AssertionError."""
    gid = g.graph_id()
    if cache is not None:
        hit = cache.get(gid, j)
        if hit is not None:
            return hit
    mvec = match_count_upto(g, j)
    mvec.validate_regular(g.n, g.r)
    m = mvec.counts[j]
    if cache is not None:
        cache.put(gid, j, m)
    return m


# -- qualified families -------------------------------------------------------


def _structured_graph(r: int, n: int, min_girth: int, seed: int) -> BipGraph:
    """Deterministic qualified graph at side size n: a known incidence
    construction where it fits a girth above 4, else `girth_search` (a
    circulant, then annealing).  At girth 4 the circulant serves even where
    an incidence graph fits, so the derived graph ids stay fixed."""
    if 4 < min_girth <= 6 and is_prime(r - 1) and n == r * r - r + 1:
        return incidence_pg(r - 1)
    if 4 < min_girth <= 8 and r == 3 and n == 15:
        return builtin_graph("tutte_coxeter")
    return girth_search(n, r, min_girth, seed)


def _swap_shuffle(g: BipGraph, seed: int) -> BipGraph:
    """Randomize a graph by `_SWAP_SWEEPS` valid 2-edge swaps per edge
    (simplicity preserved)."""
    from .rng import Rng

    adj = [set(row) for row in g.global_adj()]
    rows = adj[:g.n]  # the left rows, which hold right vertex v as n + v
    rng = Rng(seed)
    wanted = _SWAP_SWEEPS * g.nedges
    done = 0
    for _ in range(50 * wanted):
        if done >= wanted:
            break
        swap = propose_swap(rows, g.r, rng)
        if swap is None:
            continue
        swap_edges(adj, *swap)
        done += 1
    return BipGraph(g.n, g.r, [[v - g.n for v in row] for row in rows])


def _random_style_graph(r: int, n: int, min_girth: int, seed: int) -> BipGraph:
    """Randomized qualified graph: permutation model when girth 4 suffices
    (swap-shuffled circulant at large r, where rejection sampling stalls),
    annealing from permutation-model starts otherwise."""
    if min_girth <= 4:
        if r <= 5:
            return gen_regular_bipartite(n, r, seed)
        base = find_circulant(n, r, 4, seed=seed)
        if base is None:
            raise GenerationBudgetError(f"no circulant base (n={n}, r={r})")
        return _swap_shuffle(base, derive_seed(seed, 0x5A))
    return girth_search(n, r, min_girth, derive_seed(seed, 0xB))


def candidate_sizes(r: int, j: int, strict: bool = False) -> list[int]:
    """Side sizes to try for a qualified family, smallest first."""
    mg = min_girth_for(j, strict)
    if mg <= 4:
        start = max(r + 1, 6)
        return list(range(start, start + 40))
    if mg == 6:
        start = r * r - r + 1
        sizes = list(range(start, start + 40))
        # At n = r^2 - r + 2, girth >= 6 puts r(r-1) = n - 2 other left
        # vertices at distance 2 from each left vertex, so the biadjacency
        # matrix N has N N^T = (r-1) I - P + J, P a fixed-point-free
        # involution, and det(N)^2 = r^(n/2+2) (r-2)^(n/2-1) must be a
        # square (Bose and Connor, Ann. Math. Statist. 23, 1952).  It is
        # not at r = 5 or 7, for instance: no such graph exists there.
        half = (start + 1) // 2
        det2 = r ** (half + 2) * (r - 2) ** (half - 1)
        if isqrt(det2) ** 2 != det2:
            sizes.remove(start + 1)
        return sizes
    if mg == 8 and r == 3:
        return [n for n in range(15, 40) if n not in _SKIP_G8_CUBIC]
    # no cheap construction known; let the caller's budget decide
    return []


def qualified_family(r: int, j: int, count: int, seed: int,
                     style: str = "structured",
                     strict: bool = False) -> list[BipGraph]:
    """`count` qualified graphs with distinct side sizes.

    style "structured": incidence constructions / circulants / annealing.
    style "random": permutation-model graphs, swap-shuffled circulants or
    annealing from permutation-model starts (independent source of graphs
    for the reconstruction-invariance check).
    """
    mg = min_girth_for(j, strict)
    sizes = candidate_sizes(r, j, strict)
    if style == "random":
        sizes = sizes[1:] + sizes[:1]  # offset so the two families differ
    out: list[BipGraph] = []
    for n in sizes:
        if len(out) >= count:
            break
        try:
            if style == "random":
                g = _random_style_graph(r, n, mg, derive_seed(seed, n))
            else:
                g = _structured_graph(r, n, mg, derive_seed(seed, 7 * n + 1))
        except GenerationBudgetError:
            continue
        if girth(g) >= mg and g.n == n:
            out.append(g)
    if len(out) < count:
        raise GenerationBudgetError(
            f"could not assemble {count} qualified graphs for (r={r}, j={j},"
            f" girth>={mg}); found {len(out)}")
    return out


def derive_entry(r: int, j: int, family: list[BipGraph],
                 cache: _CountCache | None = None) -> dict[int, Rat]:
    samples = [(g.n, count_mj(g, j, cache)) for g in family]
    try:
        return derive_M_pointwise(r, j, samples)
    except QualificationError as exc:
        ids = [g.graph_id() for g in family]
        raise QualificationError(f"{exc}; family: {ids}") from exc


def derive_with_invariance(r: int, j: int, seed: int,
                           cache: _CountCache | None = None,
                           strict: bool = False) -> dict[int, Rat]:
    """Derive a_h(r, j) from two independent families; exact agreement of
    the two reconstructions is required."""
    count = j + _EXTRA_ROWS
    fam_a = qualified_family(r, j, count, seed, "structured", strict)
    fam_b = qualified_family(r, j, count, derive_seed(seed, 0xFA), "random",
                             strict)
    va = derive_entry(r, j, fam_a, cache)
    vb = derive_entry(r, j, fam_b, cache)
    if va != vb:
        raise QualificationError(
            f"reconstruction invariance failed at (r={r}, j={j}): "
            f"{va} vs {vb}")
    return va


# -- the default batch ---------------------------------------------------------


def default_table_path(root: str, rs, seed: int, strict: bool) -> str:
    tag = "".join(str(r) for r in rs) + ("s" if strict else "")
    return os.path.join(root, f"atable_r{tag}_seed{seed}.txt")


# Per girth policy: the levels a_h fitted symbolically; the j values derived
# at each r in `rs`, then the further (r, j) entries, that the fits read; the
# j values at r = 3 whose deeper levels are stored as points; the provenance
# label.  Default (girth > j): a_1 and a_2 with held-out rows at r = 7 and
# j = 5, a_3 pointwise through j = 6 (a_4, a_5 as byproducts).  Strict
# (girth > 2j): j = 2 needs girth >= 6 and j = 3 girth >= 8 (cubic only at
# desk scale); deeper entries are out of reach, so the strict table exists to
# cross-validate the default policy on overlap.
_POLICIES = {
    False: ((1, 2), (2, 3, 4), ((7, 2), (7, 3), (3, 5)), (4, 5, 6), "derived"),
    True: ((1,), (2,), ((3, 3),), (3,), "derived (strict girth)"),
}


def build_default_table(root: str, rs=(3, 4, 5),
                        seed: int = DEFAULT_SEED, strict: bool = False,
                        log=None) -> ATable:
    """Derive the table of the girth policy `strict` (see `_POLICIES`):
    symbolic fits across `rs` plus held-out entries, then pointwise deeper
    levels at r = 3.  The fitted entries must reproduce every derived
    value they cover.  Results are cached; a cached file is returned as-is.
    The strict values must agree with the default policy wherever both
    apply."""
    from .atable import export_atable, import_atable

    path = default_table_path(root, rs, seed, strict)
    if os.path.exists(path):
        return import_atable(path)

    def say(msg):
        if log:
            log(msg)

    cache = _CountCache(root)
    table = ATable()
    derived: dict[tuple[int, int], dict[int, Rat]] = {}

    def derive(r, j):
        if (r, j) not in derived:
            say(f"derive (r={r}, j={j})")
            derived[(r, j)] = derive_with_invariance(
                r, j, derive_seed(seed, 1000 * r + j), cache, strict)
        return derived[(r, j)]

    levels, fit_js, fit_extra, point_js, label = _POLICIES[strict]
    fit_from = [(r, j) for r in rs for j in fit_js] + list(fit_extra)
    for r, j in fit_from:
        derive(r, j)
    for h in levels:
        points = {rj: derived[rj][h] for rj in fit_from if h in derived[rj]}
        table.set_sym(h, fit_atable(points, h),
                      f"{label} from {sorted(points)}")
    for j in point_js:
        for h, v in derive(3, j).items():
            if h > levels[-1]:
                table.add_point(h, 3, j, v, label)
    for (r, j), vals in derived.items():
        for h, v in vals.items():
            if h <= levels[-1] and table.value(h, r, j) != v:
                raise QualificationError(
                    f"symbolic a_{h} disagrees with derived point (r={r}, "
                    f"j={j})")

    os.makedirs(root, exist_ok=True)
    export_atable(table, path)
    say(f"{'strict ' if strict else ''}table written to {path}")
    return table
