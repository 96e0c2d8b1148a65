"""Small deterministic PRNG (splitmix64) so runs are bit-stable across
platforms and Python versions.  Statistical quality is ample for graph
sampling; reproducibility is the contract that matters here.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
GOLDEN_INV = pow(GOLDEN, -1, 1 << 64)

# Every command's default --seed, and the master seed of the shipped table
DEFAULT_SEED = 20250809


def splitmix64(x: int) -> int:
    z = (x + GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)  # below 2^64 already


def unmix64(z: int) -> int:
    """Inverse of the splitmix64 output mix: the state x whose draw is z,
    that is `splitmix64((x - GOLDEN) & MASK) == z`.  Each xorshift step is
    undone by iterating it, each multiplication by the inverse constant."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    z = unshift(z & MASK, 31) * pow(MIX2, -1, 1 << 64) & MASK
    z = unshift(z, 27) * pow(MIX1, -1, 1 << 64) & MASK
    return unshift(z, 30)


def range_limit(k: int) -> int:
    """Largest multiple of k not above 2^64: `randrange(k)` keeps a draw u
    only when u < range_limit(k), then returns u % k."""
    return (1 << 64) - ((1 << 64) % k)


def derive_seed(master: int, index: int) -> int:
    """Per-sample seed for a splittable counter scheme: sample `index` of a
    run seeded with `master` gets the same seed in serial and parallel runs."""
    return splitmix64((master & MASK) ^ splitmix64(index & MASK))


# Lane form: a batch of `size` 64-bit values packed into one int, value a in
# bits 128a .. 128a+63 of its 128-bit slot.  The upper half of each slot
# gives a 64-bit by 64-bit product room, so masking every lane to 64 bits
# before each multiply keeps one lane from carrying into the next, and one
# int operation does one step of splitmix64 for the whole batch.  The same
# room holds the products of `mod_lanes` (u % k in every lane) and the carry
# bit by which `distinct_lanes` and `select_lanes` compare lanes.
# `gather_lanes` cuts a batch down to some of its lanes, whole slots, so
# small values parked in the upper halves (the draws mask them off) stay
# with their lanes: the graph sampler carries the positions drawn by each
# row it packs to the attempts that survive that row.

# `mod_lanes` is exact for divisors up to this bound (see there)
MOD_LANES_MAX = 1 << 31


def fill_lanes(value: int, size: int) -> int:
    """`value` (below 2^128) in every one of `size` slots."""
    return int.from_bytes(value.to_bytes(16, "little") * size, "little")


@functools.lru_cache(maxsize=16)
def _full_consts(size: int) -> tuple[int, ...]:
    """(ones, mask, golden, low32) for `size` lanes: 1, MASK, GOLDEN and
    2^32 - 1 in every lane."""
    return tuple(fill_lanes(v, size) for v in (1, MASK, GOLDEN, (1 << 32) - 1))


@functools.lru_cache(maxsize=2)
def _lane_consts(size: int) -> tuple[int, ...]:
    """`_full_consts` for any size: a size that is not a power of two cuts
    the constants of the next one.  Only the last two sizes are kept, as a
    batch cut down to its surviving lanes has a size of its own."""
    full = 1 << (size - 1).bit_length()
    if full == size:
        return _full_consts(size)
    cut = (1 << 128 * size) - 1
    return tuple(c & cut for c in _full_consts(full))


@functools.lru_cache(maxsize=16)
def _lane_ramp(size: int) -> int:
    """a in lane a, for a < size."""
    return int.from_bytes(b"".join(a.to_bytes(16, "little")
                                   for a in range(size)), "little")


def _mix_lanes(z: int, m: int) -> int:
    """splitmix64's output function on every lane of z (each below 2^64);
    m is MASK in every lane."""
    z = ((z ^ (z >> 30)) & m) * MIX1 & m
    z = ((z ^ (z >> 27)) & m) * MIX2 & m
    return (z ^ (z >> 31)) & m


def splitmix64_lanes(x: int, size: int) -> int:
    """`splitmix64` of every lane of x, lanes packed as above.  A lane of x
    may hold any value below 2^127; like the scalar form, it is taken mod
    2^64."""
    _, m, g, _ = _lane_consts(size)
    return _mix_lanes((x + g) & m, m)


def derive_seed_lanes(master: int, first: int, size: int) -> int:
    """`derive_seed(master, first + a)` in lane a, for a < size."""
    ones = _lane_consts(size)[0]
    index = splitmix64_lanes((first & MASK) * ones + _lane_ramp(size), size)
    return splitmix64_lanes(index ^ (master & MASK) * ones, size)


def draws_lanes(states: int, size: int, t: int, step: int,
                count: int) -> Iterator[int]:
    """Draws t, t + step, ..., t + (count-1)*step (1-based) of the
    splitmix64 stream started at each lane's state, one at a time:
    `Rng(state)`'s t-th `next_u64()` and so on, redraws not skipped.  A
    lane of states may hold any value below 2^127; its low 64 bits are the
    state."""
    ones, m, _, _ = _lane_consts(size)
    x = (states + (t * GOLDEN & MASK) * ones) & m
    stride = (step * GOLDEN & MASK) * ones
    for _ in range(count):
        yield _mix_lanes(x, m)
        x = (x + stride) & m


def mul_lanes(x: int, factor: int, size: int) -> int:
    """Each lane of x (below 2^64) times factor (below 2^64), mod 2^64."""
    return x * factor & _lane_consts(size)[1]


@functools.lru_cache(maxsize=64)
def _mod_consts(k: int) -> tuple[int, int, int]:
    """(2^32 mod k, multiplier, shift) of `mod_lanes` for the divisor k."""
    if not 1 <= k <= MOD_LANES_MAX:
        raise ValueError(f"mod_lanes needs 1 <= k <= 2^31, got {k}")
    bits = (k - 1).bit_length()  # ceil(log2 k)
    shift = 32 + 2 * bits
    return (1 << 32) % k, -(-(1 << shift) // k), shift


def mod_lanes(x: int, k: int, size: int) -> int:
    """The low 64 bits u of each lane of x, as u % k.

    With u = hi*2^32 + lo, v = hi*(2^32 mod k) + lo is congruent to u and
    below 2^32*k <= 2^(32+l), where l = ceil(log2 k).  Its quotient by k,
    below 2^32, is (v*M) >> (32 + 2l) with M = ceil(2^(32+2l) / k)
    (Granlund-Montgomery: M*k - 2^(32+2l) < k <= 2^l, so v*M / 2^(32+2l)
    exceeds v/k by less than 1/k).  M <= 2^(33+l), so v*M < 2^(65+2l),
    which fits in the 128-bit slot for l <= 31: k up to MOD_LANES_MAX =
    2^31.  A k outside 1 .. 2^31 raises ValueError."""
    c, mult, shift = _mod_consts(k)
    low32 = _lane_consts(size)[3]
    v = ((x >> 32) & low32) * c + (x & low32)
    return v - ((v * mult >> shift) & low32) * k


def distinct_lanes(values: list[int], size: int) -> bytes:
    """One byte per lane, 1 where the lanes of `values` (each below 2^64)
    hold pairwise distinct values and 0 where two are equal.  x ^ y plus
    2^64 - 1 reaches bit 64 exactly when x != y, so the AND over all pairs
    keeps bit 64, the low bit of byte 8 of the slot, only for distinct
    lanes."""
    m = _lane_consts(size)[1]
    pairs = [(x, y) for p, x in enumerate(values) for y in values[:p]]
    if not pairs:
        return b"\1" * size
    ok = -1
    for x, y in pairs:
        ok &= (x ^ y) + m
    return ok.to_bytes(16 * size, "little")[8::16]


def select_lanes(x: int, y: int, value: int, size: int) -> int:
    """Each lane of x, or `value` (below 2^64) where it equals that lane
    of y (lanes of x and y below 2^64)."""
    ones, m, _, _ = _lane_consts(size)
    differ = ((x ^ y) + m) >> 64 & ones  # 1 where x != y, else 0
    keep = (differ << 64) - differ  # 2^64 - 1 where x != y, else 0
    v = value * ones
    return v ^ ((x ^ v) & keep)


def gather_lanes(x: int, size: int, lanes) -> int:
    """The slots of x at the lane numbers `lanes` (each below size), in
    that order, packed as lanes 0, 1, ... of a new batch."""
    b = x.to_bytes(16 * size, "little")
    return int.from_bytes(b"".join([b[16 * a:16 * a + 16] for a in lanes]),
                          "little")


def unpack_lanes(x: int, size: int) -> memoryview:
    """The low 64 bits of each of the `size` lanes of x, in lane order, as
    a read-only sequence of ints."""
    words = memoryview(x.to_bytes(16 * size, sys.byteorder)).cast("Q")
    # native words: lane a's low word is word 2a from the little end
    return words[::2] if sys.byteorder == "little" else words[::-2]


class Rng:
    """Sequential splitmix64 stream with the few draws the package needs."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        u = splitmix64(self.state)
        self.state = (self.state + GOLDEN) & MASK
        return u

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k) by rejection (no modulo bias)."""
        if k <= 0:
            raise ValueError("empty range")
        if k > 1 << 64:  # range_limit(k) is 0: no draw would ever pass
            raise ValueError(f"randrange needs k <= 2^64, got {k}")
        lim = range_limit(k)
        while True:
            u = self.next_u64()
            if u < lim:
                return u % k

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(xs) - 1, 0, -1):
            k = self.randrange(i + 1)
            xs[i], xs[k] = xs[k], xs[i]

    def permutation(self, n: int) -> list[int]:
        xs = list(range(n))
        self.shuffle(xs)
        return xs

    def rat(self, max_num: int = 99, max_den: int = 99):
        """Random nonzero rational with numerator in [-max_num, max_num]."""
        from fractions import Fraction
        num = self.randrange(2 * max_num) - max_num
        if num >= 0:
            num += 1
        den = self.randrange(max_den) + 1
        return Fraction(num, den)
