"""Deterministic RNG for reproducible puzzle generation.

SplitMix64 (Steele, Lea & Flood's fixed-increment generator) with rejection
sampling for bounded draws and Fisher-Yates shuffling. The algorithm is
fully specified here, so seeded output is stable across Python versions and
implementations, unlike the stdlib's Mersenne Twister convenience methods.

Outputs are mixed up to 8 at a time in one packed int: output i of a batch
sits in the 128-bit lane i, every xor-shift and multiply acts on all lanes
at once, and masking each lane back to 64 bits before the next step reads
it keeps each lane's arithmetic exactly the scalar mixer's. A 64-bit value times a 64-bit
constant fits in 128 bits, so no lane carries into the next. The stream is
the same as mixing one output at a time.
"""

from __future__ import annotations

import struct
from typing import Callable

from .core import _bad, _is_int

_SPAN = 1 << 64
_MASK64 = _SPAN - 1  # also the largest seed: the state is 64 bits
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BATCH = 8  # outputs mixed at once: one shuffle of 3x3 cells


def _lanes(k: int) -> tuple[int, int, int, int, Callable[[bytes], tuple[int, ...]]]:
    """Constants that mix k outputs at once: ONES (1 in every lane), STEPS
    (lane i holds (i+1)·GAMMA), LOW (the 64-bit mask in every lane), the
    byte size and the unpacker of the low 8 bytes of each lane."""
    ones = sum(1 << (128 * i) for i in range(k))
    steps = sum((i + 1) * _GAMMA << (128 * i) for i in range(k))
    return ones, steps, _MASK64 * ones, 16 * k, struct.Struct("<" + "Q8x" * k).unpack


_LANES = tuple(_lanes(k) for k in range(_BATCH + 1))


class SplitMix64:
    def __init__(self, seed: int) -> None:
        if not (_is_int(seed) and 0 <= seed <= _MASK64):
            raise _bad("seed", f"an int in 0..{_MASK64}", seed)
        self._state = seed

    def _take(self, k: int) -> tuple[int, ...]:
        """The next k outputs of the stream, 0 <= k <= 8, mixed together."""
        ones, steps, low, size, unpack = _LANES[k]
        state = self._state
        self._state = (state + k * _GAMMA) & _MASK64
        z = (state * ones + steps) & low
        z = (z ^ (z >> 30)) & low
        z = z * _MIX1 & low
        z = (z ^ (z >> 27)) & low
        z = z * _MIX2 & low
        # no mask after the last xor-shift: unpack reads only the low 8
        # bytes of each lane
        return unpack((z ^ (z >> 31)).to_bytes(size, "little"))

    def next_u64(self) -> int:
        return self._take(1)[0]

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if not (_is_int(n) and 1 <= n <= _SPAN):
            raise _bad("bound", f"an int in 1..{_SPAN}", n)
        limit = _SPAN - _SPAN % n  # largest multiple of n not above 2**64
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down.

        Each index is drawn by `below`'s rejection rule, inline: the same
        stream outputs are consumed, in the same order, and the same
        permutation results. Outputs are mixed up to 8 at a time; a rejected
        output leaves the index where it is, and the next output redraws
        it. A batch never holds more outputs than indices left to draw, so
        every output mixed is consumed. The generator shuffles once per draw,
        so `items` is checked by the `try`, not by a call.

        An output below `safe` = 2**64 - len(items) is accepted without the
        exact limit's two big-int operations. The shortcut is exact: every
        bound n drawn is at most len(items), so 2**64 % n <= len(items) - 1
        and the limit 2**64 - 2**64 % n is above `safe`.
        """
        take = self._take
        try:
            i = len(items) - 1
            safe = _SPAN - len(items)
            while i > 0:
                for u in take(i if i < _BATCH else _BATCH):
                    n = i + 1
                    if u < safe or u < _SPAN - _SPAN % n:
                        j = u % n
                        items[i], items[j] = items[j], items[i]
                        i -= 1
        except (TypeError, LookupError):
            raise _bad("items", "a mutable sequence", items) from None

    def choice(self, seq):
        try:
            return seq[self.below(len(seq))]
        except (TypeError, LookupError, ValueError):
            raise _bad("seq", "a non-empty sequence", seq) from None
