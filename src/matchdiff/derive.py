"""Batch reconstruction of the coefficient table from graph data.

Qualification policy: a graph can supply m_j = M_j when girth > j (the
strict mode demands girth > 2j).  Every entry is derived from two
structurally different qualified families and the results must agree
exactly; that reconstruction invariance is the principal guard against a
wrong qualification policy.
"""

from __future__ import annotations

import json
import os

from .atable import (ATable, QualificationError, a1_builtin,
                     derive_M_pointwise, fit_atable)
from .graphs import (BipGraph, GenerationBudgetError, builtin_graph,
                     find_circulant, gen_regular_bipartite, girth,
                     girth_search, incidence_pg, is_prime, propose_swap,
                     random_lift)
from .matchcount import match_count_upto
from .rng import derive_seed
from .series import Rat

DEFAULT_SEED = 20250809

# girth-8 cubic graphs exist on 30 and 34+ vertices but not 32
_SKIP_G8_CUBIC = {16}


def min_girth_for(j: int, strict: bool = False) -> int:
    """Smallest even girth qualifying a graph to supply m_j = M_j."""
    g = 2 * j + 1 if strict else j + 1
    return g if g % 2 == 0 else g + 1


def moore_floor(r: int, min_girth: int) -> int:
    """Bipartite Moore bound on the side size for the given girth."""
    d = min_girth // 2
    return sum((r - 1) ** t for t in range(d))


def cache_dir() -> str:
    return os.environ.get("MATCHDIFF_CACHE", "./cache")


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
    must pass `MatchVector.validate_regular` (the m_0/m_1/m_2 closed forms
    and, on a full vector, Newton's inequalities and Schrijver's bound)
    before m_j enters the cache; a failing one raises AssertionError."""
    gid = g.graph_id()
    if cache is not None:
        hit = cache.get(gid, j)
        if hit is not None:
            return hit
    mvec = match_count_upto(g, j, guard=j)
    mvec.validate_regular(g.n, g.r)
    m = mvec.counts[j]
    if cache is not None:
        cache.put(gid, j, m)
    return m


# -- qualified families -------------------------------------------------------


def _structured_graph(r: int, n: int, min_girth: int, seed: int) -> BipGraph:
    """Deterministic qualified graph at side size n: known incidence
    constructions first, then circulants, then annealing."""
    if min_girth <= 4:
        g = find_circulant(n, r, 4, seed=seed)
        if g is not None:
            return g
    if min_girth <= 6 and is_prime(r - 1) and n == (r - 1) ** 2 + (r - 1) + 1:
        return incidence_pg(r - 1)
    if min_girth <= 8 and r == 3 and n == 15:
        return builtin_graph("tutte_coxeter")
    g = find_circulant(n, r, min_girth, seed=seed)
    if g is not None:
        return g
    return girth_search(n, r, min_girth, seed)


def _swap_shuffle(g: BipGraph, seed: int, sweeps: int = 10) -> BipGraph:
    """Randomize a graph by valid 2-edge swaps (simplicity preserved)."""
    from .rng import Rng

    rows = [set(row) for row in g.adj]
    rng = Rng(seed)
    wanted = sweeps * g.nedges
    done = 0
    for _ in range(50 * wanted):
        if done >= wanted:
            break
        swap = propose_swap(rows, g.r, rng)
        if swap is None:
            continue
        u1, v1, u2, v2 = swap
        rows[u1].discard(v1); rows[u2].discard(v2)
        rows[u1].add(v2); rows[u2].add(v1)
        done += 1
    return BipGraph(g.n, g.r, [sorted(row) for row in rows])


def _random_style_graph(r: int, n: int, min_girth: int, seed: int) -> BipGraph:
    """Randomized qualified graph: permutation model when girth 4 suffices
    (swap-shuffled circulant at large r, where rejection sampling stalls),
    random lifts of a small qualified base otherwise, annealing as a last
    resort."""
    if min_girth <= 4:
        if r <= 5:
            return gen_regular_bipartite(n, r, seed)
        base = find_circulant(n, r, 4, seed=seed)
        if base is None:
            raise GenerationBudgetError(f"no circulant base (n={n}, r={r})")
        return _swap_shuffle(base, derive_seed(seed, 0x5A))
    floor = moore_floor(r, min_girth)
    for bn in (d for d in range(floor, n) if n % d == 0):
        if min_girth >= 8 and r == 3 and bn in _SKIP_G8_CUBIC:
            continue
        try:
            base = _structured_graph(r, bn, min_girth, seed)
        except GenerationBudgetError:
            continue
        if girth(base) >= min_girth:
            lifted = random_lift(base, n // bn, derive_seed(seed, n))
            if girth(lifted) >= min_girth:
                return lifted
    return girth_search(n, r, min_girth, derive_seed(seed, 0xB))


def candidate_sizes(r: int, j: int, strict: bool = False) -> list[int]:
    """Side sizes to try for a qualified family, smallest first."""
    mg = min_girth_for(j, strict)
    if mg <= 4:
        start = max(r + 1, 6)
        return list(range(start, start + 40))
    if mg == 6:
        start = r * r - r + 1
        return list(range(start, start + 40))
    if mg == 8 and r == 3:
        return [n for n in range(15, 40) if n not in _SKIP_G8_CUBIC]
    if mg == 12 and r == 3:
        return [63]
    # no cheap construction known; let the caller's budget decide
    return []


def qualified_family(r: int, j: int, count: int, seed: int,
                     style: str = "structured",
                     strict: bool = False) -> list[BipGraph]:
    """`count` qualified graphs with distinct side sizes.

    style "structured": incidence constructions / circulants / annealing.
    style "random": permutation-model graphs or random lifts (independent
    source of graphs for the reconstruction-invariance check).
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
                           strict: bool = False,
                           extra_rows: int = 1) -> dict[int, Rat]:
    """Derive a_h(r, j) from two independent families; exact agreement of
    the two reconstructions is required."""
    count = j + extra_rows
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


def build_default_table(root: str | None = None, rs=(3, 4, 5),
                        seed: int = DEFAULT_SEED, strict: bool = False,
                        log=None) -> ATable:
    """Derive the default table: a_1 and a_2 symbolic across `rs` (held-out
    validation at r=7 and j=5), a_3 pointwise at r=3 through j=6 (plus the
    a_4, a_5 byproducts).  Results are cached; a cached file is returned
    as-is.

    Strict mode (girth > 2j) restricts the feasible scope to j <= 2 across
    `rs` plus j = 3 at r = 3; its values must agree with the default policy
    wherever both apply."""
    from .atable import export_atable, import_atable

    root = cache_dir() if root is None else root
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

    if strict:
        return _build_strict_table(root, path, rs, table, derive, say)

    # pointwise data for the symbolic fits and their held-out rows
    a1_points: dict[tuple[int, int], Rat] = {}
    a2_points: dict[tuple[int, int], Rat] = {}
    for r in rs:
        for j in (2, 3, 4):
            vals = derive(r, j)
            if 1 in vals:
                a1_points[(r, j)] = vals[1]
            if 2 in vals:
                a2_points[(r, j)] = vals[2]
    for j in (2, 3):
        vals = derive(7, j)  # held-out degree for the r-window
        if 1 in vals:
            a1_points[(7, j)] = vals[1]
        if 2 in vals:
            a2_points[(7, j)] = vals[2]
    vals = derive(3, 5)  # held-out j for the degree bound
    a1_points[(3, 5)] = vals[1]
    a2_points[(3, 5)] = vals[2]

    a1 = fit_atable(a1_points, 1, window=(-1, 0))
    if a1 != a1_builtin():
        raise QualificationError(
            "derived a_1 does not match the closed form j(j-1)(1/(2r) - 1)")
    table.set_sym(1, a1, f"derived from {sorted(a1_points)}")
    a2 = fit_atable(a2_points, 2, window=(-2, 0))
    table.set_sym(2, a2, f"derived from {sorted(a2_points)}")

    # pointwise a_3 at r=3 (j = 4, 5, 6) with the a_4, a_5 byproducts
    r3 = 3
    for j in (4, 5, 6):
        vals = derive(r3, j)
        for h, v in vals.items():
            if h >= 3:
                table.add_point(h, r3, j, v, "derived")
    # consistency: the fitted symbolic entries must reproduce every derived
    # pointwise value they cover
    for (r, j), vals in derived.items():
        for h, v in vals.items():
            if h <= 2 and table.value(h, r, j) != v:
                raise QualificationError(
                    f"symbolic a_{h} disagrees with derived point (r={r}, "
                    f"j={j})")

    os.makedirs(root, exist_ok=True)
    export_atable(table, path)
    say(f"table written to {path}")
    return table


def _build_strict_table(root, path, rs, table, derive, say) -> ATable:
    """The girth > 2j policy: j = 2 needs girth >= 6, j = 3 girth >= 8
    (cubic only at desk scale); deeper entries are out of reach, so the
    strict table exists to cross-validate the default policy on overlap."""
    from .atable import export_atable

    a1_points: dict[tuple[int, int], Rat] = {}
    for r in rs:
        vals = derive(r, 2)
        a1_points[(r, 2)] = vals[1]
    vals = derive(3, 3)
    a1_points[(3, 3)] = vals[1]
    a1 = fit_atable(a1_points, 1, window=(-1, 0))
    if a1 != a1_builtin():
        raise QualificationError(
            "strict-policy a_1 does not match the closed form")
    table.set_sym(1, a1, f"derived (strict girth) from {sorted(a1_points)}")
    table.add_point(2, 3, 3, vals[2], "derived (strict girth)")
    os.makedirs(root, exist_ok=True)
    export_atable(table, path)
    say(f"strict table written to {path}")
    return table
