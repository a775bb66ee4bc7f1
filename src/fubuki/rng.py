"""Deterministic RNG for reproducible puzzle generation.

SplitMix64 (Steele, Lea & Flood's fixed-increment generator) with rejection
sampling for bounded draws and Fisher-Yates shuffling. The algorithm is
fully specified here, so seeded output is stable across Python versions and
implementations, unlike the stdlib's Mersenne Twister convenience methods.

Outputs are mixed many at a time in one packed int: output i of a batch
sits in the 128-bit lane i, every xor-shift and multiply acts on all lanes
at once, and masking each lane back to 64 bits before the next step reads
it keeps each lane's arithmetic exactly the scalar mixer's. A 64-bit value times a 64-bit
constant fits in 128 bits, so no lane carries into the next. The stream is
the same as mixing one output at a time.

`shuffle` mixes up to 8 outputs at once. The generator's rejection draws
instead read `_shuffles`, a stream of nine-item shuffles that mixes 64
outputs, eight draws' worth, in one pass, and takes every index of the
block with one `map`. SplitMix64 is counter-based: output k of a state is
the mix of state + k·GAMMA, so a block is mixed from the state without
moving it. The state then moves one draw at a time, by 8·GAMMA as each
draw is handed out, so it never runs ahead of the draws read: after the
n-th draw it is the state after n shuffles. A block is used only when every
output in it is below `shuffle`'s `safe` = 2**64 - 9, so that each output
is one index and none is rejected. Otherwise the next draw is `shuffle`
itself, and the block is mixed again from the state that draw leaves. So
the stream adds no rejection rule of its own and is the stream of repeated
shuffles.
"""

from __future__ import annotations

import struct
from operator import mod
from typing import Callable, Iterator

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
_BLOCK = _lanes(64)  # eight nine-item draws of 8 outputs each
_BOUNDS = tuple(range(9, 1, -1)) * 8  # each output's index bound in a block
_DRAW_STEP = _BATCH * _GAMMA  # the state's move per nine-item draw


def _mix(
    state: int, ones: int, steps: int, low: int, size: int,
    unpack: Callable[[bytes], tuple[int, ...]],
) -> tuple[int, ...]:
    """The outputs that follow `state`, one per lane of the constants
    given, mixed together; the state is not moved."""
    z = (state * ones + steps) & low
    z = (z ^ (z >> 30)) & low
    z = z * _MIX1 & low
    z = (z ^ (z >> 27)) & low
    z = z * _MIX2 & low
    # no mask after the last xor-shift: unpack reads only the low 8
    # bytes of each lane
    return unpack((z ^ (z >> 31)).to_bytes(size, "little"))


class SplitMix64:
    def __init__(self, seed: int) -> None:
        if not (_is_int(seed) and 0 <= seed <= _MASK64):
            raise _bad("seed", f"an int in 0..{_MASK64}", seed)
        self._state = seed

    def _take(self, k: int) -> tuple[int, ...]:
        """The next k outputs of the stream, 0 <= k <= 8, mixed together."""
        state = self._state
        self._state = (state + k * _GAMMA) & _MASK64
        return _mix(state, *_LANES[k])

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

    def _shuffles(self, values: tuple) -> Iterator[tuple]:
        """Endless: the n-th item is the tuple that the n-th `shuffle` of
        `list(values)`, nine items, would leave, and the state is then the
        state after n shuffles (see the module docstring). Nothing else may
        draw from this generator while the stream is read."""
        safe = _SPAN - 9
        while True:
            state = self._state
            outputs = _mix(state, *_BLOCK)
            if max(outputs) >= safe:
                items = list(values)
                self.shuffle(items)
                yield tuple(items)
                continue
            indices = map(mod, outputs, _BOUNDS)
            for n, (j8, j7, j6, j5, j4, j3, j2, j1) in enumerate(zip(*[indices] * 8), 1):
                self._state = (state + n * _DRAW_STEP) & _MASK64
                a = list(values)
                a[8], a[j8] = a[j8], a[8]
                a[7], a[j7] = a[j7], a[7]
                a[6], a[j6] = a[j6], a[6]
                a[5], a[j5] = a[j5], a[5]
                a[4], a[j4] = a[j4], a[4]
                a[3], a[j3] = a[j3], a[3]
                a[2], a[j2] = a[j2], a[2]
                a[1], a[j1] = a[j1], a[1]
                yield tuple(a)
