"""Deterministic cross-platform PRNG: xoshiro256** seeded by splitmix64.

Corpora and reports must be bit-for-bit reproducible from (seed, stream)
on any platform, so we fix the generator instead of relying on
``random.Random`` internals.  Bounded draws use rejection sampling, which
keeps them unbiased and independent of word size.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def splitmix64(state: int):
    """One splitmix64 step: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256**; substreams are derived by folding the stream index
    into the splitmix64 seeding chain."""

    def __init__(self, seed: int, stream: int = 0):
        state = (seed & _MASK) ^ ((stream * 0xD2B74407B1CE6E93) & _MASK)
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        if not any(s):
            s[0] = 1  # the all-zero state is a fixed point
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Unbiased draw from {0, ..., n-1} by rejection."""
        if n <= 0:
            raise ValueError("empty range")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, a: int, b: int) -> int:
        """Uniform in the closed interval [a, b]."""
        return a + self.randrange(b - a + 1)
