"""Deterministic RNG for reproducible puzzle generation.

SplitMix64 (Steele, Lea & Flood's fixed-increment generator) with rejection
sampling for bounded draws and Fisher-Yates shuffling. The algorithm is
fully specified here, so seeded output is stable across Python versions and
implementations, unlike the stdlib's Mersenne Twister convenience methods.
"""

from __future__ import annotations

_SPAN = 1 << 64
_MASK64 = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n < 1:
            raise ValueError(f"bound must be positive, got {n}")
        limit = _SPAN - _SPAN % n  # largest multiple of n not above 2**64
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down.

        Each index is drawn by `below`'s rejection rule, inline: the same
        `next_u64` values are consumed and the same permutation results.
        """
        next_u64 = self.next_u64
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            limit = _SPAN - _SPAN % n
            while (u := next_u64()) >= limit:
                pass
            j = u % n
            items[i], items[j] = items[j], items[i]

    def choice(self, seq):
        return seq[self.below(len(seq))]
