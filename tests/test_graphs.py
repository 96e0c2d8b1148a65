"""Graph construction, girth, censuses, lifts, search, and file I/O."""

import math
import os
import subprocess
import sys
from bisect import bisect_right
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchdiff
from matchdiff import _kernels_py, graphs
from matchdiff.derive import _swap_shuffle
from matchdiff.graphs import (BipGraph, GenerationBudgetError, GraphError,
                              builtin_graph, circulant_bipartite,
                              cycle_census, find_circulant,
                              gen_regular_bipartite, gen_regular_bipartites,
                              girth, girth_search,
                              incidence_pg, parse_graph, random_lift)
from matchdiff.rng import (GOLDEN, GOLDEN_INV, MASK, Rng, derive_seed,
                           derive_seed_lanes, mul_lanes, splitmix64, unmix64,
                           unpack_lanes)

C4 = BipGraph(2, 2, [[0, 1], [0, 1]])
K33 = BipGraph(3, 3, [[0, 1, 2]] * 3)
C6 = BipGraph(3, 2, [[0, 1], [1, 2], [0, 2]])


def brute_force_4cycles(g: BipGraph) -> int:
    """Oracle: choose 2 left + 2 right vertices, check all four edges."""
    count = 0
    for u1, u2 in combinations(range(g.n), 2):
        for v1, v2 in combinations(range(g.n), 2):
            if (v1 in g.adj[u1] and v2 in g.adj[u1]
                    and v1 in g.adj[u2] and v2 in g.adj[u2]):
                count += 1
    return count


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphError):
        BipGraph(2, 2, [[0, 0], [0, 1]])  # repeated neighbor
    with pytest.raises(GraphError):
        BipGraph(2, 2, [[0, 1], [0]])  # wrong degree
    with pytest.raises(GraphError):
        BipGraph(3, 2, [[0, 1], [0, 1], [0, 1]])  # right side not regular


def reference_attempt(n: int, r: int, s0: int) -> list[list[int]] | None:
    """Oracle for one attempt: the rows of the r permutations that
    `Rng(s0).permutation` draws in full, or None when a row repeats a
    neighbour."""
    rng = Rng(s0)
    rows = [[] for _ in range(n)]
    for _ in range(r):
        perm = rng.permutation(n)
        for u in range(n):
            if perm[u] in rows[u]:
                return None
            rows[u].append(perm[u])
    return rows


def reference_gen(n: int, r: int, seed: int,
                  max_tries: int = 2_000_000) -> BipGraph:
    """Oracle: the plain permutation-model sampler, drawing every
    permutation in full with `Rng.permutation` before checking it."""
    if not 0 <= r <= n:
        raise GraphError(f"need 0 <= r <= n, got r={r}, n={n}")
    for attempt in range(max_tries):
        rows = reference_attempt(n, r, derive_seed(seed, attempt))
        if rows is not None:
            return BipGraph(n, r, rows)
    raise GenerationBudgetError(
        f"no simple graph after {max_tries} draws (n={n}, r={r})")


SEEDS = st.one_of(st.sampled_from([0, -1, -(2 ** 63), 2 ** 64 - 1, 2 ** 64,
                                   2 ** 64 + 7, 3 * 2 ** 70 + 1]),
                  st.integers(-(2 ** 80), 2 ** 80))


@st.composite
def sampler_inputs(draw):
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, min(n, 4)))
    return n, r, draw(SEEDS)


@settings(max_examples=200, deadline=None)
@given(sampler_inputs())
def test_gen_matches_reference_sampler(args):
    assert gen_regular_bipartite(*args).adj == reference_gen(*args).adj


@st.composite
def seed_list_inputs(draw):
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, min(n, 4)))
    seeds = draw(st.lists(SEEDS, max_size=60))
    if seeds:
        seeds += draw(st.lists(st.sampled_from(seeds), max_size=10))
    return n, r, draw(st.permutations(seeds))


@settings(max_examples=25, deadline=None)
@given(seed_list_inputs())
@example((9, 3, list(range(-5, 65))))  # past one group of seeds
def test_gen_many_seeds_matches_one_at_a_time(args):
    """Drawn together, every seed gets the graph it gets alone, duplicates
    and seeds equal mod 2^64 included, and the oracle's graph (checked on
    the first four)."""
    n, r, seeds = args
    got = list(gen_regular_bipartites(n, r, seeds))
    assert got == [gen_regular_bipartite(n, r, s) for s in seeds]
    for g, s in zip(got, seeds[:4]):
        assert g == reference_gen(n, r, s)


@pytest.mark.parametrize("n,r", [(-1, -2), (3, -1), (0, -1), (2, 3),
                                 (-2, 0)])
def test_gen_outside_the_degree_range_raises_before_drawing(n, r,
                                                           monkeypatch):
    """r < 0 or n < r raises GraphError in both samplers, one seed or
    many, before any stream start is derived."""
    def refuse(*args):
        raise AssertionError("drew attempts")

    monkeypatch.setattr(graphs, "derive_seed_lanes", refuse)
    for draw in (gen_regular_bipartite, reference_gen,
                 lambda n, r, seed: list(gen_regular_bipartites(
                     n, r, [seed, seed + 1]))):
        with pytest.raises(GraphError):
            draw(n, r, seed=3)


def test_gen_empty_graph():
    """r = 0 has one graph, the edgeless one, which attempt 0 draws: at
    n = 0 the empty graph, and at n > 0 also for 70 seeds at once, a
    batch large enough to pack rows."""
    empty = BipGraph(0, 0, ())
    for seed in (0, -1, 2 ** 64 + 7):
        assert gen_regular_bipartite(0, 0, seed) == reference_gen(0, 0, seed) \
            == empty
    assert list(gen_regular_bipartites(0, 0, range(70))) == [empty] * 70
    assert list(gen_regular_bipartites(0, 0, [])) == []
    for n in range(1, 6):
        assert gen_regular_bipartite(n, 0, 7) == reference_gen(n, 0, 7) \
            == BipGraph(n, 0, [()] * n)
    assert list(gen_regular_bipartites(6, 0, range(70))) == \
        [BipGraph(6, 0, [()] * 6)] * 70
    for draw in (gen_regular_bipartite, reference_gen,
                 lambda n, r, seed, max_tries: list(gen_regular_bipartites(
                     n, r, [seed], max_tries))):
        with pytest.raises(GenerationBudgetError):
            draw(0, 0, 5, max_tries=0)
        with pytest.raises(GenerationBudgetError):
            draw(6, 0, 5, max_tries=0)


# The r = 5 draws of derive_with_invariance(5, 2, seed): first at
# seed = DEFAULT_SEED, then at derive_seed(DEFAULT_SEED, 5002), the seed a
# cold `derive-atable` gives that entry.  The latter's n = 8 draw (124,912
# attempts) is most of a cold derivation's sampling.
@pytest.mark.parametrize("n,seed", [(7, 13483562770953319214),
                                    (8, 5042045720238222367),
                                    (9, 12621457273394957343),
                                    (7, 16869679975913684044),
                                    (8, 14989779772074328663),
                                    (9, 315532856995851420)])
def test_gen_matches_reference_sampler_r5(n, seed):
    assert gen_regular_bipartite(n, 5, seed).adj == \
        reference_gen(n, 5, seed).adj


def divisions(monkeypatch) -> list[tuple[int, int]]:
    """The (divisor, lanes) of every `mod_lanes` call the sampler makes
    from here on."""
    seen = []
    mod_lanes = graphs.mod_lanes

    def spy(x, k, size):
        seen.append((k, size))
        return mod_lanes(x, k, size)

    monkeypatch.setattr(graphs, "mod_lanes", spy)
    return seen


@pytest.mark.parametrize("r,seeds", [(3, range(40)), (5, [2])])
def test_gen_matches_reference_sampler_n16(r, seeds, monkeypatch):
    """At n = 16 row 15 divides by 16, a power of two, in batches large
    enough to pack rows: 40 seeds share the first rounds at r = 3, and
    seed 2's r = 5 draw reaches rounds of 128 lanes and more."""
    seen = divisions(monkeypatch)
    assert list(gen_regular_bipartites(16, r, seeds)) == \
        [reference_gen(16, r, s) for s in seeds]
    assert any(k == 16 and size > graphs._MAX_UNPACKED for k, size in seen)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, MASK))
def test_unmix64_inverts_the_output_mix(x):
    assert unmix64(splitmix64(x)) == (x + GOLDEN) & MASK
    assert splitmix64((unmix64(x) - GOLDEN) & MASK) == x


def _seed_with_top_draw(t: int, attempt: int = 0) -> int:
    """The seed whose attempt `attempt` has 2^64 - 1 as its draw t
    (1-based)."""
    s0 = (unmix64(MASK) - t * GOLDEN) & MASK
    seed = ((unmix64(s0) - GOLDEN) & MASK) ^ splitmix64(attempt)
    rng = Rng(derive_seed(seed, attempt))
    assert [rng.next_u64() for _ in range(t)][-1] == MASK
    return seed


def test_gen_redraws_out_of_range_draw():
    """A draw at or above randrange's limit is redrawn, as in the oracle:
    attempt 0 starts with the draw 2^64 - 1."""
    seed = _seed_with_top_draw(1)
    for n in (3, 7, 12):  # 2^64 - 1 is rejected unless n is a power of two
        assert gen_regular_bipartite(n, 1, seed).adj == \
            reference_gen(n, 1, seed).adj


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("n", [5, 7, 9, 11, 12])
def test_gen_redraw_guard_matches_reference(n, r):
    """Attempt 0 draws 2^64 - 1 at the next-to-last (k = 3) or last (k = 2)
    step of shuffle 0, the first step of shuffle 1 (k = n) or the attempt's
    last draw (k = 2).  2^64 - 1 is redrawn unless k is a power of two;
    either way the redraw guard sends the attempt down the sequential
    path."""
    for t in (n - 2, n - 1, n, r * (n - 1)):
        seed = _seed_with_top_draw(t)
        assert gen_regular_bipartite(n, r, seed).adj == \
            reference_gen(n, r, seed).adj, t


# Hot attempts past the first batch, so in a packed batch: with each seed,
# attempts 0 .. a-1 are all rejected and attempt a, whose draw t is
# 2^64 - 1, is accepted.  Draws 2 and 10 at n = 9 and draw 5 at n = 12 are
# randrange(8) steps, which keep 2^64 - 1.  Draw 7 at n = 9 (randrange(3))
# is redrawn, which shifts the packed rows of shuffle 1 by one draw.
HOT_IN_BATCH = [(9, 3, 2, 39), (9, 3, 7, 51), (9, 3, 10, 33), (12, 3, 5, 33)]


@pytest.mark.parametrize("n,r,t,attempt", HOT_IN_BATCH)
def test_gen_redraw_guard_in_packed_batch(n, r, t, attempt):
    seed = _seed_with_top_draw(t, attempt)
    with pytest.raises(GenerationBudgetError):
        reference_gen(n, r, seed, max_tries=attempt)
    assert gen_regular_bipartite(n, r, seed).adj == \
        reference_gen(n, r, seed).adj


@pytest.fixture
def unguarded(monkeypatch):
    """The redraw guard's hot set emptied: `_hot_draws` patched, and the
    per-(n, r) tables that hold it rebuilt from the patch, then dropped on
    teardown so no later test reads an emptied guard."""
    graphs._attempt_tables.cache_clear()
    monkeypatch.setattr(graphs, "_hot_draws", lambda n: (1 << 65,))
    yield
    graphs._attempt_tables.cache_clear()


@pytest.mark.parametrize("n,r,t", [(9, 2, 9), (9, 3, 7), (7, 2, 5)])
def test_gen_redraw_guard_bites(n, r, t, unguarded):
    """With the guard's hot set emptied, the row lockstep reads draw t
    where the stream redraws it, and attempt 0 comes out different."""
    seed = _seed_with_top_draw(t)
    assert gen_regular_bipartite(n, r, seed).adj != \
        reference_gen(n, r, seed).adj


def test_gen_redraw_guard_bites_in_packed_batch(unguarded):
    """The packed batches read the guard from the same per-(n, r) tables:
    with it emptied, attempt 51's shifted draws are read unguarded."""
    n, r, t, attempt = HOT_IN_BATCH[1]
    seed = _seed_with_top_draw(t, attempt)
    assert gen_regular_bipartite(n, r, seed).adj != \
        reference_gen(n, r, seed).adj


def test_gen_redraw_guard_hit_across_two_lanes(monkeypatch):
    """The guard looks for its hot words anywhere in the batch's top words,
    so a word that only straddles two lanes is a hit too.  With such a word
    added to the hot words, the first batch of 30 seeds runs the exact
    test on each of its lanes, and every seed still gets the oracle's
    graph."""
    n, r, seeds = 9, 3, list(range(30))
    size = graphs._FIRST_BATCH
    total = len(seeds) * size
    c = mul_lanes(derive_seed_lanes(seeds, 0, size), GOLDEN_INV, total)
    tops = b"".join((ca >> 32).to_bytes(4, "little")
                    for ca in unpack_lanes(c, total))
    word = tops[2:6]  # the top half of lane 0, the bottom half of lane 1
    assert word not in [tops[a:a + 4] for a in range(0, len(tops), 4)]
    tables = graphs._attempt_tables
    monkeypatch.setattr(graphs, "_attempt_tables",
                        lambda n, r: tables(n, r)[:4] + (
                            tables(n, r)[4] + (word,),))
    exact = []
    monkeypatch.setattr(graphs, "bisect_right",
                        lambda hot, ca: exact.append(ca) or bisect_right(
                            hot, ca))
    assert list(gen_regular_bipartites(n, r, seeds)) == \
        [reference_gen(n, r, s) for s in seeds]
    assert exact[:total] == list(unpack_lanes(c, total))


# graphs that the oracle accepts at attempt `accepted`, inside the second
# batch, so the batch has to be cut short at max_tries
@pytest.mark.parametrize("n,r,seed,accepted",
                         [(9, 4, 9, 48), (10, 4, 25, 57), (8, 4, 8, 61)])
def test_gen_budget_boundary_in_packed_batch(n, r, seed, accepted):
    assert gen_regular_bipartite(n, r, seed, max_tries=accepted + 1).adj \
        == reference_gen(n, r, seed, max_tries=accepted + 1).adj
    with pytest.raises(GenerationBudgetError) as want:
        reference_gen(n, r, seed, max_tries=accepted)
    with pytest.raises(GenerationBudgetError) as got:
        gen_regular_bipartite(n, r, seed, max_tries=accepted)
    assert str(got.value) == str(want.value)


def drawn_batches(monkeypatch) -> list[tuple[int, int, list[int]]]:
    """The (first attempt, attempts per seed, seeds) of every batch the
    sampler draws from here on, in order."""
    seen = []
    draw = graphs._draw_batch

    def spy(n, r, tables, seeds, batch, first, size, found):
        seen.append((first, size, [seeds[j] for j in batch]))
        draw(n, r, tables, seeds, batch, first, size, found)

    monkeypatch.setattr(graphs, "_draw_batch", spy)
    return seen


def batch_holding(batches, seed: int, attempt: int) -> list[int]:
    """The seeds of the batch that drew `attempt` of `seed`."""
    return next(seeds for first, size, seeds in batches
                if seed in seeds and first <= attempt < first + size)


def hot_among_ordinary(n: int) -> list[tuple[int, int]]:
    """(seed, hot attempt) of each `HOT_IN_BATCH` case at n, and of a seed
    whose attempt 0 starts with the draw 2^64 - 1."""
    return [(_seed_with_top_draw(t, a), a)
            for m, _, t, a in HOT_IN_BATCH if m == n] + \
        [(_seed_with_top_draw(1), 0)]


def test_gen_redraw_guard_in_cross_sample_batch(monkeypatch):
    """Hot attempts among the attempts of 30 ordinary seeds: the rounds
    that reach them pack them with other seeds' attempts, more than
    `_MAX_UNPACKED` lanes, and the guard still sends them down the stream
    path, so every seed gets the oracle's graph.  No packed row sees a
    flagged lane: a batch that holds one is decided lane by lane."""
    n, r = 9, 3
    hot = hot_among_ordinary(n)
    seeds = list(range(30))
    for k, (seed, _) in enumerate(hot):
        seeds.insert(4 + 9 * k, seed)
    batches = drawn_batches(monkeypatch)
    packed = set()
    pack = graphs._packed_filter

    def spy(states, size, n, r):
        packed.update(unpack_lanes(states, size))
        return pack(states, size, n, r)

    monkeypatch.setattr(graphs, "_packed_filter", spy)
    assert list(gen_regular_bipartites(n, r, seeds)) == \
        [reference_gen(n, r, s) for s in seeds]
    for seed, attempt in hot:
        assert derive_seed(seed, attempt) not in packed
        held = batch_holding(batches, seed, attempt)
        size = next(size for first, size, _ in batches
                    if first <= attempt < first + size)
        assert len(held) > 1 and len(held) * size > graphs._MAX_UNPACKED


def test_gen_redraw_guard_bites_in_cross_sample_batch(unguarded,
                                                      monkeypatch):
    """With the guard emptied, attempt 51's shifted draws are read
    unguarded in a batch shared with other seeds, and only that seed's
    graph comes out different."""
    n, r, t, attempt = HOT_IN_BATCH[1]
    seed = _seed_with_top_draw(t, attempt)
    seeds = list(range(20))
    seeds.insert(7, seed)
    batches = drawn_batches(monkeypatch)
    got = list(gen_regular_bipartites(n, r, seeds))
    assert len(batch_holding(batches, seed, attempt)) > 1
    assert got[7] != reference_gen(n, r, seed)
    assert got[:7] + got[8:] == [reference_gen(n, r, s) for s in range(20)]


# Seeds that the oracle first accepts in the same round as the cases of
# the test above, before `accepted`, so max_tries = accepted + 1 cuts a
# round that several seeds share.  None was found for the first case,
# whose window is one attempt, among seeds 0 .. 299.
BUDGET_NEIGHBOURS = {(9, 4, 9, 48): [], (10, 4, 25, 57): [51, 125],
                     (8, 4, 8, 61): [263, 276]}


@pytest.mark.parametrize("case", BUDGET_NEIGHBOURS)
def test_gen_budget_boundary_among_other_seeds(case, monkeypatch):
    """The budget cases above drawn with other seeds: with max_tries
    cutting the round short they give the graphs they give one at a time,
    and one budget short the same error text."""
    n, r, seed, accepted = case
    first, size = 0, graphs._FIRST_BATCH
    while first + size <= accepted:
        first, size = first + size, min(2 * size, graphs._MAX_BATCH)
    for other in BUDGET_NEIGHBOURS[case]:
        with pytest.raises(GenerationBudgetError):
            gen_regular_bipartite(n, r, other, max_tries=first)
    seeds = [seed, *BUDGET_NEIGHBOURS[case]]
    batches = drawn_batches(monkeypatch)
    assert list(gen_regular_bipartites(n, r, seeds, accepted + 1)) == \
        [gen_regular_bipartite(n, r, s, accepted + 1) for s in seeds]
    assert (first, accepted + 1 - first, seeds) in batches
    with pytest.raises(GenerationBudgetError) as want:
        reference_gen(n, r, seed, max_tries=accepted)
    for order in (seeds, seeds[::-1]):
        with pytest.raises(GenerationBudgetError) as got:
            list(gen_regular_bipartites(n, r, order, accepted))
        assert str(got.value) == str(want.value)


def shuffle_positions(n: int, r: int, s0: int) -> list[int]:
    """The position that each step of the r shuffles of `Rng(s0)` draws,
    redraws included: step n-1 of shuffles 0 .. r-1, then step n-2, and so
    on down to step 1."""
    rng = Rng(s0)
    ks = [[rng.randrange(i + 1) for i in range(n - 1, 0, -1)]
          for _ in range(r)]
    return [k for step in zip(*ks) for k in step]


def reference_packed_filter(states: int, size: int, n: int,
                            r: int) -> list[tuple[int, ...]]:
    """Oracle of `_packed_filter`, on lists: the kept attempts of a batch as
    (lane, stream start, positions drawn).  Row i takes draw p*(n-1) + n-i
    of each shuffle p, swaps position i with k = u % (i+1) in a list that
    starts as the identity, and gets the value at k as its neighbour.  A
    lane whose row repeats a neighbour is dropped.  A batch of at most
    `_MAX_UNPACKED` lanes draws no row; in a larger one the next row is
    drawn while more than `_MIN_LIVE` lanes are live, the row just decided
    dropped at least `_MIN_REJECTED` of its lanes, and it is not past row
    1."""
    s0s = unpack_lanes(states, size)
    live = list(range(size))
    perms = [[list(range(n)) for _ in range(r)] for _ in live]
    drawn = [[] for _ in live]
    for i in range(n - 1, 0, -1):
        if size <= graphs._MAX_UNPACKED or len(live) <= graphs._MIN_LIVE:
            break
        kept = []
        for a in live:
            row = []
            for p, perm in enumerate(perms[a]):
                t = p * (n - 1) + n - i
                k = splitmix64((s0s[a] + (t - 1) * GOLDEN) & MASK) % (i + 1)
                row.append(perm[k])
                perm[i], perm[k] = perm[k], perm[i]
                drawn[a].append(k)
            if len(set(row)) == r:
                kept.append(a)
        entered, live = len(live), kept
        if entered - len(live) < graphs._MIN_REJECTED * entered:
            break
    return [(a, s0s[a], tuple(drawn[a])) for a in live]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.integers(2, 5), st.integers(0, MASK),
       st.integers(0, MASK))
def test_packed_filter_only_rejects(n, r, seed, first):
    """Every attempt the packed rows rule out is one the oracle rejects."""
    r = min(r, n)
    size = 96
    states = derive_seed_lanes([seed], first, size)
    live = [a for a, _, _ in graphs._packed_filter(states, size, n, r)]
    assert live == sorted(set(live))
    for a, s0 in enumerate(unpack_lanes(states, size)):
        if a not in live:
            assert reference_attempt(n, r, s0) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 14), st.sampled_from([3, 40, 1000])),
       st.integers(1, 6), st.integers(0, MASK), st.integers(0, MASK),
       st.one_of(st.sampled_from([1, 2, 3, 31, 32, 33, 100, 1024]),
                 st.integers(1, 300)))
def test_packed_filter_keeps_the_lanes_of_the_list_filter(n, r, seed, first,
                                                          size):
    """The lane-packed filter keeps exactly the lanes of the list-based
    oracle above, and hands on each kept attempt's stream start and the
    positions its packed steps drew, which are those the full shuffles
    draw (checked on the first 20)."""
    r = min(r, n)
    states = derive_seed_lanes([seed], first, size)
    got = list(graphs._packed_filter(states, size, n, r))
    assert got == reference_packed_filter(states, size, n, r)
    for a, s0, drawn in got[:20]:
        assert list(drawn) == shuffle_positions(n, r, s0)[:len(drawn)]


def packed_rows(n: int, r: int, size: int, seed: int = 3) -> set[int]:
    """How many rows `_packed_filter` packs on one batch, per kept lane
    (a batch that keeps no lane reads as the empty set)."""
    states = derive_seed_lanes([seed], 0, size)
    got = list(graphs._packed_filter(states, size, n, r))
    assert got == reference_packed_filter(states, size, n, r)
    for a, s0, drawn in got[:20]:
        assert list(drawn) == shuffle_positions(n, r, s0)[:len(drawn)]
    return {len(drawn) // r for _, _, drawn in got}


def test_packed_filter_carries_rows_past_one_slot():
    """At n = 40, r = 6 the parked positions take 6 bits, 10 to a slot, so
    a third packed row reads 12 of them from two slots."""
    assert min(packed_rows(40, 6, 1024)) >= 3


def test_packed_filter_stop_rule():
    """A batch of at most `_MAX_UNPACKED` = 64 lanes gets no packed row;
    at n = 22, r = 5, where a row rejects about 39% of its lanes, a
    128-lane batch packs row n-1 and a full batch packs past row n-2; at
    n = 1000, r = 4, where row n-1 rejects under 1%, the loop stops after
    it."""
    for size in (5, graphs._MIN_LIVE, 33, graphs._MAX_UNPACKED):
        assert packed_rows(22, 5, size) == {0}, size
    assert packed_rows(12, 3, 5) == {0}
    assert min(packed_rows(22, 5, 2 * graphs._MAX_UNPACKED)) >= 1
    assert min(packed_rows(22, 5, graphs._MAX_BATCH)) > 2
    assert packed_rows(1000, 4, graphs._MAX_BATCH) == {1}


def reference_attempt_rows(n: int, r: int, s0: int) -> list[list[int]]:
    """The neighbours of rows n-1 down to 1 that the full shuffles of
    `Rng(s0)` give, whether or not they repeat."""
    rng = Rng(s0)
    perms = [rng.permutation(n) for _ in range(r)]
    return [[perm[i] for perm in perms] for i in range(n - 1, 0, -1)]


@st.composite
def replay_inputs(draw):
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, min(n, 5)))
    s0 = draw(st.integers(0, MASK))
    rows = reference_attempt_rows(n, r, s0)
    # the rows a packed filter could have passed on: n-1, n-2, ... up to
    # the first that repeats a neighbour
    free = next((d for d, row in enumerate(rows) if len(set(row)) < r),
                len(rows))
    return n, r, s0, draw(st.integers(0, free))


@settings(max_examples=200, deadline=None)
@given(replay_inputs())
def test_lockstep_resumes_after_any_packed_rows(args):
    """On a lane the guard does not flag (a random stream start is hot
    with probability below r n^2 / 2^64), the lockstep that replays the
    positions of any number of repeat-free packed rows decides the attempt
    as `_stream_attempt` does."""
    n, r, s0, packed = args
    rows = [(i, i + 1, [((p * (n - 1) + n - i) * GOLDEN & MASK, p * n)
                        for p in range(r)])
            for i in range(n - 1, 0, -1)]
    drawn = shuffle_positions(n, r, s0)[:packed * r]
    assert graphs._lockstep_attempt(s0, n, r, rows, list(range(n)) * r,
                                    drawn) == graphs._stream_attempt(s0, n, r)


# (n, seed, first simple attempt) at r = 5, for budgets on either side
R5_ACCEPTED = [(7, 208, 563), (9, 2, 150), (12, 15, 878), (20, 45, 1465)]


@st.composite
def r5_sampler_inputs(draw):
    if draw(st.booleans()):
        n, seed, attempt = draw(st.sampled_from(R5_ACCEPTED))
        return n, 5, seed, draw(st.integers(attempt - 2, attempt + 300))
    n = draw(st.integers(5, 12))
    r = draw(st.sampled_from([5, 6]))
    return (n, min(r, n), draw(st.integers(-(2 ** 70), 2 ** 70)),
            draw(st.integers(33, 1200)))


@settings(max_examples=60, deadline=None)
@given(r5_sampler_inputs())
def test_gen_matches_reference_sampler_r5_budget(args):
    """At r = 5 and 6 a small budget mostly runs out, and the seeds of
    `R5_ACCEPTED` reach a graph near it: the packed sampler gives the
    oracle's graph, or raises its message."""
    n, r, seed, max_tries = args
    try:
        want = reference_gen(n, r, seed, max_tries=max_tries).adj
    except GenerationBudgetError as exc:
        with pytest.raises(GenerationBudgetError) as got:
            gen_regular_bipartite(n, r, seed, max_tries=max_tries)
        assert str(got.value) == str(exc)
    else:
        assert gen_regular_bipartite(n, r, seed, max_tries=max_tries).adj \
            == want


def test_gen_errors_match_reference_sampler():
    for sampler in (gen_regular_bipartite, reference_gen):
        with pytest.raises(GenerationBudgetError):
            sampler(7, 5, seed=1, max_tries=50)
        with pytest.raises(GraphError):
            sampler(3, 4, seed=1)


# The sampler's stream contract, pinned independently of the oracle:
# (n, r, seed) -> the id of gen_regular_bipartite(n, r, seed)
PINNED_IDS = {
    (6, 3, 0): "bg-6x3-07091f388aa2b647",
    (8, 3, 1): "bg-8x3-5a5e9e70fece5179",
    (10, 3, -7): "bg-10x3-4e87530841946bbb",
    (12, 4, 2 ** 64 + 5): "bg-12x4-fc78bbc1f38e3a12",
    (9, 5, 3): "bg-9x5-be353138181ec9d8",
    (14, 4, 123456789): "bg-14x4-bbf95c1d8c2ac414",
    (7, 2, 42): "bg-7x2-7fdbd8bd29bad7e2",
    (5, 5, 11): "bg-5x5-bef0036c8116f725",
    # the slowest draw of a cold (r=5, j=2) derivation, and a girth
    # search restart of a cold derive-atable
    (8, 5, 14989779772074328663): "bg-8x5-19318006f29a8497",
    (22, 5, 720701715770117513): "bg-22x5-ddda65baa4e9d939",
    # a large draw: each row is decoded from its set bits
    (1000, 3, 1): "bg-1000x3-769b9aff4e711218",
}


def test_gen_graph_ids_pinned():
    """The sampler's stream contract, pinned independently of the oracle."""
    for (n, r, seed), gid in PINNED_IDS.items():
        assert gen_regular_bipartite(n, r, seed).graph_id() == gid


_IDS_WITHOUT_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from matchdiff.graphs import gen_regular_bipartite, girth_search
for n, r, seed in eval(sys.argv[1]):
    print(gen_regular_bipartite(n, r, seed).graph_id())
print(girth_search(15, 3, 8, seed=7).graph_id())
print("hashlib" in sys.modules)
"""


def test_graph_ids_without_builtin_sha256():
    """With neither built-in SHA-256 module importable, graph_id falls back
    to hashlib and gives the same ids: the sampler's pinned ids and the
    hill-climbed girth-8 graph of `test_girth_search_targets`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchdiff.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", _IDS_WITHOUT_BUILTIN_SHA256,
                          repr(list(PINNED_IDS))],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [*PINNED_IDS.values(),
                                       "bg-15x3-fa1450d7411c9e5f", "True"]


def test_gen_forced_small_cases():
    # n=2, r=2 forces the 4-cycle; n=3, r=3 forces K_{3,3}
    assert gen_regular_bipartite(2, 2, seed=5) == C4
    assert gen_regular_bipartite(3, 3, seed=9) == K33


def test_gen_valid_and_deterministic():
    g = gen_regular_bipartite(10, 3, seed=1)
    assert g.n == 10 and g.r == 3 and g.nedges == 30
    assert g == gen_regular_bipartite(10, 3, seed=1)
    assert g != gen_regular_bipartite(10, 3, seed=2)


def test_girth_fixtures():
    assert girth(K33) == 4
    assert girth(C6) == 6
    assert girth(incidence_pg(2)) == 6
    # a forest: n=2, r=1
    assert girth(BipGraph(2, 1, [[0], [1]])) == math.inf


def test_cycle_census_fixtures():
    assert cycle_census(C4, 4) == {4: 1}
    assert cycle_census(K33, 4) == {4: 9}
    assert cycle_census(K33, 4)[4] == brute_force_4cycles(K33)
    hw = incidence_pg(2)
    assert cycle_census(hw, 4) == {4: 0}
    assert brute_force_4cycles(hw) == 0
    # known cycle counts of the girth-6 and girth-8 cages
    assert cycle_census(builtin_graph("heawood"), 12) == {
        4: 0, 6: 28, 8: 21, 10: 84, 12: 56}
    assert cycle_census(builtin_graph("tutte_coxeter"), 10) == {
        4: 0, 6: 0, 8: 90, 10: 72}


def test_kernel_benchmark_contract():
    """perfbench compiles the shipped `_kernels.c` out of tree and times it
    against these pure kernels, reporting `KERNEL_BACKEND` as the backend
    its recorded numbers belong to."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert os.path.isfile(os.path.join(root, "src", "matchdiff", "_kernels.c"))
    for name in ("match_poly_counts", "match_upto_counts",
                 "cycle_census_counts"):
        assert callable(getattr(_kernels_py, name))
    assert _kernels_py.BACKEND == matchdiff.KERNEL_BACKEND == "pure-python"


def test_cycle_census_matches_bruteforce_on_random_graphs():
    for seed in range(10):
        g = gen_regular_bipartite(8, 3, seed=seed)
        assert cycle_census(g, 4)[4] == brute_force_4cycles(g)


def test_census_cost_guard():
    with pytest.raises(ValueError):
        cycle_census(K33, 14)


def test_census_girth_equivalence():
    for seed in range(8):
        g = gen_regular_bipartite(9, 3, seed=seed)
        assert (cycle_census(g, 4)[4] == 0) == (girth(g) >= 6)


def test_incidence_pg():
    for q, n in ((2, 7), (3, 13), (5, 31)):
        g = incidence_pg(q)
        assert g.n == q * q + q + 1 == n
        assert g.r == q + 1
        assert girth(g) == 6
    with pytest.raises(GraphError):
        incidence_pg(4)  # prime powers excluded
    with pytest.raises(GraphError):
        incidence_pg(6)


def test_random_lift():
    hw = incidence_pg(2)
    triv = random_lift(hw, 1, seed=3)
    assert (triv.n, triv.r) == (hw.n, hw.r)
    lifted = random_lift(hw, 3, seed=42)
    assert (lifted.n, lifted.r) == (21, 3)
    assert lifted.nedges == 3 * hw.nedges
    assert girth(lifted) >= girth(hw)


_GIRTH_CHECKS_UNDER_O = """
import sys
from matchdiff import graphs
if __debug__:
    sys.exit("expected python -O")
graphs.girth = lambda g: 6 if g.n == 7 else 4
try:
    graphs.random_lift(graphs.incidence_pg(2), 3, seed=1)
except graphs.GraphError as exc:
    print("lift:", exc)
graphs.girth = lambda g: 2
try:
    graphs.girth_search(6, 3, 4, seed=1)
except graphs.GenerationBudgetError as exc:
    print("search:", exc)
"""


def test_girth_checks_survive_optimize():
    """The girth checks in random_lift and girth_search raise even under
    `python -O`, which strips assert statements: with girth reading 2, no
    circulant qualifies and the hill climb's final check rejects every
    restart."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchdiff.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-O", "-c", _GIRTH_CHECKS_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "lift: lift decreased girth",
        "search: girth search failed (n=6, r=3, target=4, budget=200000)"]


def test_circulant():
    hw_like = circulant_bipartite(7, (0, 1, 3))
    assert girth(hw_like) == 6
    with pytest.raises(GraphError):
        circulant_bipartite(7, (0, 1, 8))  # collides with 1 mod 7


def test_find_circulant_girth6():
    g = find_circulant(7, 3, 6)
    assert g is not None and girth(g) >= 6


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 30).flatmap(lambda n: st.sets(
    st.integers(0, n - 1), min_size=3, max_size=n).map(lambda s: (n, s))))
def test_circulants_of_degree_3_have_girth_at_most_6(n_offs):
    """Offsets a, b, c close the 6-cycle L0, R a, L a-b, R a-b+c, L c-b,
    R c, which is why `find_circulant` does not search for girth 8."""
    n, offs = n_offs
    assert girth(circulant_bipartite(n, offs)) <= 6


@st.composite
def circulants(draw):
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, min(n, 7)))
    offsets = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=r,
                            max_size=r, unique_by=lambda d: d % n))
    return n, offsets


@settings(max_examples=300, deadline=None)
@given(circulants())
def test_circulant_girth_from_one_root(args):
    """The BFS from left vertex 0 alone reads a circulant's girth."""
    n, offsets = args
    assert graphs._circulant_girth(n, offsets) == \
        girth(circulant_bipartite(n, offsets))


def test_find_circulant_skips_girth8(monkeypatch):
    calls = []
    monkeypatch.setattr(graphs, "girth", lambda g: calls.append(g) or 4)
    for n, r, mg in ((15, 3, 8), (17, 3, 8), (40, 4, 8), (63, 3, 12)):
        assert find_circulant(n, r, mg) is None
    assert calls == []


def test_structured_graph_tries_one_circulant(monkeypatch):
    """The girth-8 ladder reaches `find_circulant` once, inside
    `girth_search`, and the hill climb builds the graph."""
    from matchdiff import derive

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return find_circulant(*args, **kwargs)

    monkeypatch.setattr(graphs, "find_circulant", counted)
    monkeypatch.setattr(derive, "find_circulant", counted)
    g = derive._structured_graph(3, 17, 8, derive_seed(7, 120))
    assert calls == [(17, 3, 8)]
    assert g.n == 17 and girth(g) >= 8


def test_girth_search_targets():
    g4 = girth_search(6, 3, 4, seed=1)
    assert girth(g4) >= 4
    g6 = girth_search(7, 3, 6, seed=1)
    assert g6.n == 7 and girth(g6) >= 6
    # no circulant reaches girth 8, so this runs the hill climb
    g8 = girth_search(15, 3, 8, seed=7)
    assert g8.n == 15 and girth(g8) >= 8
    assert g8.graph_id() == "bg-15x3-fa1450d7411c9e5f"


def test_swap_shuffle_ids_pinned():
    """`derive._swap_shuffle` draws its 2-edge swaps through
    `propose_swap`, as the girth search's hill climb does."""
    assert _swap_shuffle(circulant_bipartite(9, range(4)),
                         5).graph_id() == "bg-9x4-970940135bcd2e25"
    assert _swap_shuffle(find_circulant(20, 7, 4, seed=3),
                         11).graph_id() == "bg-20x7-8114da482054b61f"


def test_save_load_roundtrip():
    g = gen_regular_bipartite(9, 3, seed=4)
    assert parse_graph(g.to_text()) == g


def test_load_rejects_bad_files():
    with pytest.raises(GraphError):
        parse_graph("not a graph\n0 1\n")
    # non-regular edge list
    with pytest.raises(GraphError):
        parse_graph("bipartite n=2 r=2\n0 0\n0 1\n1 0\n")
    # header without r=, or with a non-integer or bare field
    for header in ("bipartite n=2", "bipartite n=2 r=x", "bipartite n r=2"):
        with pytest.raises(GraphError, match="header"):
            parse_graph(f"{header}\n0 0\n0 1\n1 0\n1 1\n")
    # edge lines with the wrong number of fields or non-integers
    for edge in ("0", "0 1 1", "0 a"):
        with pytest.raises(GraphError, match="edge line"):
            parse_graph(f"bipartite n=2 r=2\n0 0\n{edge}\n1 0\n1 1\n")


def test_builtin_graphs_validate():
    hw = builtin_graph("heawood")
    assert (hw.n, hw.r, girth(hw)) == (7, 3, 6)
    tc = builtin_graph("tutte_coxeter")
    assert (tc.n, tc.r, girth(tc)) == (15, 3, 8)
    cage = builtin_graph("tutte_12cage")
    assert (cage.n, cage.r, girth(cage)) == (63, 3, 12)


def test_short_cycle_means_roughly_n_independent():
    """Short-cycle counts of random cubic graphs have finite, essentially
    n-independent means (the Poisson regime); loose empirical envelope."""
    from matchdiff.rng import derive_seed

    for n in (20, 30):
        tot4 = tot6 = 0
        samples = 120
        for i in range(samples):
            g = gen_regular_bipartite(n, 3, derive_seed(5, i))
            c = cycle_census(g, 6)
            tot4 += c[4]
            tot6 += c[6]
        assert 3.0 <= tot4 / samples <= 7.0
        assert 8.0 <= tot6 / samples <= 15.0
