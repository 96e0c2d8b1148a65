"""Small deterministic PRNG (splitmix64) so runs are bit-stable across
platforms and Python versions.  Statistical quality is ample for graph
sampling; reproducibility is the contract that matters here.
"""

from __future__ import annotations

import functools
import sys

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
# int operation does one step of splitmix64 for the whole batch.

@functools.lru_cache(maxsize=16)
def _lane_consts(size: int) -> tuple[int, int, int, int]:
    """(ones, ramp, mask, golden) for `size` lanes: 1, a, MASK and GOLDEN
    in lane a."""
    ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
    ramp = int.from_bytes(b"".join(a.to_bytes(16, "little")
                                   for a in range(size)), "little")
    return ones, ramp, MASK * ones, GOLDEN * ones


def splitmix64_lanes(x: int, size: int) -> int:
    """`splitmix64` of every lane of x, lanes packed as above.  A lane of x
    may hold any value below 2^127; like the scalar form, it is taken mod
    2^64."""
    _, _, m, g = _lane_consts(size)
    x = (x + g) & m
    z = ((x ^ (x >> 30)) & m) * MIX1 & m
    z = ((z ^ (z >> 27)) & m) * MIX2 & m
    return (z ^ (z >> 31)) & m


def derive_seed_lanes(master: int, first: int, size: int) -> int:
    """`derive_seed(master, first + a)` in lane a, for a < size."""
    ones, ramp, _, _ = _lane_consts(size)
    index = splitmix64_lanes((first & MASK) * ones + ramp, size)
    return splitmix64_lanes(index ^ (master & MASK) * ones, size)


def draw_lanes(states: int, size: int, t: int) -> int:
    """Draw t (1-based) of the splitmix64 stream started at each lane's
    state: `Rng(state)`'s t-th `next_u64()`, redraws not skipped."""
    ones = _lane_consts(size)[0]
    return splitmix64_lanes(states + ((t - 1) * GOLDEN & MASK) * ones, size)


def mul_lanes(x: int, factor: int, size: int) -> int:
    """Each lane of x (below 2^64) times factor (below 2^64), mod 2^64."""
    return x * factor & _lane_consts(size)[2]


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
