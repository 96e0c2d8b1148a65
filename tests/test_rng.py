"""The lane form of splitmix64 and derive_seed against the scalar forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdiff.rng import (GOLDEN, MASK, MOD_LANES_MAX, Rng, derive_seed,
                           derive_seed_lanes, distinct_lanes, draws_lanes,
                           fill_lanes, gather_lanes, mod_lanes, mul_lanes,
                           select_lanes, splitmix64, splitmix64_lanes,
                           unpack_lanes)

# where x + GOLDEN carries past 2^64, and the two values on either side
CARRY = (1 << 64) - GOLDEN
EDGES = [0, MASK, CARRY - 1, CARRY, CARRY + 1, GOLDEN, 1 << 63]


def pack(values) -> int:
    return sum(v << 128 * a for a, v in enumerate(values))


def test_pack_and_unpack_round_trip():
    values = [MASK, 0, 1, MASK - 1, 1 << 63]
    assert list(unpack_lanes(pack(values), 5)) == values
    # the high half of each 128-bit slot is not part of the lane
    assert list(unpack_lanes(pack(values) | MASK << 64, 5)) == values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, MASK)),
                min_size=1, max_size=40))
def test_splitmix64_lanes_is_splitmix64_in_every_lane(values):
    size = len(values)
    assert list(unpack_lanes(splitmix64_lanes(pack(values), size), size)) \
        == [splitmix64(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2 ** 80), 2 ** 80),
       st.one_of(st.sampled_from([0, MASK, MASK - 2, 2 ** 64, -1]),
                 st.integers(-(2 ** 70), 2 ** 70)),
       st.integers(1, 40))
def test_derive_seed_lanes_is_derive_seed_in_every_lane(master, first, size):
    got = unpack_lanes(derive_seed_lanes(master, first, size), size)
    assert list(got) == [derive_seed(master, first + a) for a in range(size)]


def test_no_carry_between_lanes():
    """Lanes at 0, at 2^64 - 1 and on either side of where adding GOLDEN
    carries past 2^64, next to lanes whose products fill their slots: no
    lane may leak into the next."""
    values = [MASK, CARRY, 0, MASK, CARRY + 1, CARRY - 1, MASK]
    size = len(values)
    assert list(unpack_lanes(splitmix64_lanes(pack(values), size), size)) \
        == [splitmix64(v) for v in values]
    assert list(unpack_lanes(mul_lanes(pack(values), MASK, size), size)) \
        == [v * MASK & MASK for v in values]


@pytest.mark.parametrize("size", [1, 3, 1024])
def test_lane_batch_sizes(size):
    master, first = 0x1234_5678_9ABC_DEF0, MASK - size // 2
    seeds = unpack_lanes(derive_seed_lanes(master, first, size), size)
    assert list(seeds) == [derive_seed(master, first + a)
                           for a in range(size)]
    values = [EDGES[a % len(EDGES)] for a in range(size)]
    assert list(unpack_lanes(splitmix64_lanes(pack(values), size), size)) \
        == [splitmix64(v) for v in values]


@pytest.mark.parametrize("size", [1, 3, 1024, 300])
def test_draw_lanes_follow_each_stream(size):
    states = derive_seed_lanes(7, 0, size)
    rngs = [Rng(s) for s in unpack_lanes(states, size)]
    for t in range(1, 5):
        assert list(unpack_lanes(next(draws_lanes(states, size, t, 1, 1)),
                                 size)) == [rng.next_u64() for rng in rngs]
    # draws 2, 5 and 8; a value parked in the upper half of a state's slot
    # is not part of the state
    parked = states | fill_lanes(MASK >> 2 << 64, size)
    rows = draws_lanes(parked, size, 2, 3, 3)
    for s0, draws in zip(unpack_lanes(states, size),
                         zip(*[unpack_lanes(u, size) for u in rows])):
        rng = Rng(s0)
        assert list(draws) == [rng.next_u64() for _ in range(8)][1::3]


def hardest_lane(k: int) -> int:
    """The u whose folded value v = hi*(2^32 mod k) + lo is the largest
    that is k - 1 mod k, where a quotient rounded too low first shows."""
    hi = (1 << 32) - 1
    lo = hi - (hi * ((1 << 32) % k) + hi - (k - 1)) % k
    return hi << 32 | lo


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, MASK)),
                min_size=1, max_size=40),
       st.one_of(st.sampled_from([1, 2, 3, 7, 8, 1 << 16, MOD_LANES_MAX,
                                  MOD_LANES_MAX - 1, (1 << 30) + 1]),
                 st.integers(1, MOD_LANES_MAX)),
       st.integers(0, MASK))
def test_mod_lanes_is_mod_in_every_lane(values, k, upper):
    """Lanes 0, 2^64 - 1 and the hardest lane for k always among them; the
    upper half of each slot (here `upper`) is not part of the lane."""
    values = [0, MASK, hardest_lane(k)] + values
    size = len(values)
    x = pack(values) | pack([upper] * size) << 64
    assert list(unpack_lanes(mod_lanes(x, k, size), size)) == \
        [v % k for v in values]


def test_mod_lanes_hardest_lanes():
    """One batch per k: every k below 3000 and the 2000 largest up to
    2^31, each on its hardest lane, 2^64 - 1 and 0."""
    for k in [*range(1, 3000), *range(MOD_LANES_MAX - 1999,
                                      MOD_LANES_MAX + 1)]:
        values = [hardest_lane(k), MASK, 0]
        assert list(unpack_lanes(mod_lanes(pack(values), k, 3), 3)) == \
            [v % k for v in values], k


@pytest.mark.parametrize("k", [0, -3, MOD_LANES_MAX + 1, 1 << 40])
def test_mod_lanes_bound(k):
    with pytest.raises(ValueError, match="1 <= k <= 2"):
        mod_lanes(pack([5, 6]), k, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(0, 5),
                                  st.sampled_from([MASK, MASK - 1, 1 << 63])),
                        min_size=1, max_size=6),
                min_size=1, max_size=30),
       st.sampled_from([0, 5, MASK]))
def test_distinct_and_select_lanes(rows, value):
    """rows[a] holds lane a's values across the packed ints."""
    r = min(map(len, rows))
    size = len(rows)
    cols = [pack([row[p] for row in rows]) for p in range(r)]
    assert list(distinct_lanes(cols, size)) == \
        [int(len(set(row[:r])) == r) for row in rows]
    got = select_lanes(cols[0], cols[-1], value, size)
    assert list(unpack_lanes(got, size)) == \
        [value if row[0] == row[r - 1] else row[0] for row in rows]


def test_gather_and_fill_lanes():
    values = [MASK, 0, 1 << 127 | 5, 7, CARRY]
    x = pack(values)
    assert gather_lanes(x, 5, [4, 0, 2]) == pack([CARRY, MASK, 1 << 127 | 5])
    assert gather_lanes(x, 5, []) == 0
    assert fill_lanes(MASK << 64 | 3, 4) == pack([MASK << 64 | 3] * 4)


def test_randrange_domain():
    """k = 2^64 takes every draw as it comes; above it no draw is below
    `range_limit(k)`, so the call raises instead of redrawing forever."""
    rng, ref = Rng(7), Rng(7)
    assert rng.randrange(1 << 64) == ref.next_u64()
    assert rng.randrange(1) == 0
    for k in (0, -3, (1 << 64) + 1, 1 << 65):
        with pytest.raises(ValueError):
            rng.randrange(k)
