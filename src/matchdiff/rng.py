"""Small deterministic PRNG (splitmix64) so runs are bit-stable across
platforms and Python versions.  Statistical quality is ample for graph
sampling; reproducibility is the contract that matters here.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
GOLDEN_INV = pow(GOLDEN, -1, 1 << 64)


def splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK
    z = x
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return (z ^ (z >> 31)) & MASK


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


class Rng:
    """Sequential splitmix64 stream with the few draws the package needs."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK
        z = ((z ^ (z >> 27)) * MIX2) & MASK
        return (z ^ (z >> 31)) & MASK

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
