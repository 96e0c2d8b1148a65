"""The lane form of splitmix64 and derive_seed against the scalar forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdiff.rng import (GOLDEN, MASK, Rng, derive_seed, derive_seed_lanes,
                           draw_lanes, mul_lanes, splitmix64,
                           splitmix64_lanes, unpack_lanes)

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


@pytest.mark.parametrize("size", [1, 3, 1024])
def test_draw_lanes_follow_each_stream(size):
    states = derive_seed_lanes(7, 0, size)
    rngs = [Rng(s) for s in unpack_lanes(states, size)]
    for t in range(1, 5):
        assert list(unpack_lanes(draw_lanes(states, size, t), size)) == \
            [rng.next_u64() for rng in rngs]
