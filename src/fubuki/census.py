"""Exhaustive sweeps over all 362,880 grids, bucketed by clue signature.

Every grid is hashed to the packed signature of the puzzle it answers under
a regime; grids sharing a signature are exactly the solutions of one puzzle,
so one pass over the permutation space yields, per puzzle, its full solution
set. This turns questions like "how many distinct solvable puzzles are
there" or "how many puzzles pin their solution uniquely" into bucket-size
bookkeeping instead of hundreds of thousands of solver calls.

Signature packing (internal layout, not a wire contract): the two leading
row sums and two leading column sums, 5 bits each (a line sum is at most
24), then one 4-bit field per prescribed cell value in regime order. The
third sums are omitted because all nine values always total 45, so they are
forced by the first two and cannot separate two grids. Every regime
prescribes a prefix of the diagonal, so a regime's key is the full-diagonal
key with 4 bits dropped per unprescribed diagonal cell. The first row sum r1
leads every regime's key, so two first row sums never share a key.

The sweep counts each regime's grids in groups that share no key, so each
group's count is final once it is made: the full diagonal per diagonal
ordering (a, e, k) and the first two cells per ordering (a, e), which their
keys hold, by the diagonal count; `top-left` and `none` per first row sum,
by the dense count. Both hold a group's counts in 8-bit lanes of Python
ints, and the nonzero bytes are its buckets' sizes, which `_fold` adds to
the regime's histogram, one C pass of `bytes.count` per size up to the
largest, before the next group is counted. No lane of a true count passes
255 (a bucket holds at most 2, 6, 18 and 80 grids by regime), and one that
did would carry into the next and take 255 off the lanes' total, so each
count checks that total and raises RuntimeError naming the regime and the
group. The full diagonal's buckets of two or more grids are picked from the
same bytes by the mask `_MULTI` and kept. The whole sweep runs in the
calling process. A report is that histogram plus, for the full diagonal
only, those multi-grid buckets, which the companion oracle reads: every
statistic is a function of the histogram, and a key missing from the
multi-grid buckets belongs to a single grid. No field of the packing ever
carries into the next (a line sum is at most 24 < 32, a cell at most 9 <
16), so the key is linear in the cells: it is the sum of each cell times
the key of its unit grid, and dropping low fields distributes over a sum of
partial keys.

The diagonal count: with the diagonal ordering (a, e, k) fixed, a grid (a,
b, c / d, e, f / g, h, k) has r1 = a + (b+c), r2 = e + (d+f), c1 = a +
(d+g) and c2 = e + (b+h), so four sums of two distinct digits, each in
3..17, fix its bucket. Per diagonal digit set, `_diagonal_lanes` keeps a
dict from the key of (b, c, h), fixed by b+c and b+h, to an int of 15 x 15
lanes, one per (d+f, d+g): for each of the 20 splits of the other six
digits into {b, c, h} and {d, f, g}, each ordering of the first adds the
second's row polynomial, the sum of its 6 orderings' lanes. A bucket's key
is its diagonal ordering's key plus its dict key plus its lane's key. Each
of a set's 6 orderings folds the set's lanes, 720 grids, and takes its
multi-grid buckets from the lanes of two or more, found by `bytes.find` on
the mask. A pair {a, e} of the first two cells sums the dicts of its 7 sets
{a, e, k}, 5,040 grids, and (a, e) and (e, a) each fold that sum. Reusing a
set's or a pair's lanes across its orderings is not canonicalisation: no
grid stands for another. The orderings differ in the key fields of a, e
and k, outside the lanes, so each one's buckets are exactly those lanes,
and each runs its own fold, so each histogram still totals 9! through
`CensusReport`'s check.

The dense count: a grid (a, b, c / d, e, f / g, h, k) lies in lane
r2*361 + c1*19 + c2 (row 2's sum, then columns 1 and 2); every sum is
6..24, so each field spans 19 values and none reaches the next. `none`
holds one int per group and `top-left` one per top-left digit a. The lane
is a sum of one term per row, so a count is a product of row polynomials:
an ordering (d, e, f) of a row-2 or row-3 digit set adds 2**(8*(19*d + e)),
so the product of a row-2 set's and a row-3 set's polynomials, moved up 361
lanes per unit of row 2's sum, counts their 36 fillings. The 20 splits of a
first-row set's other six digits add up to its tail, built once per group
for both regimes, and each ordering (a, b, c) of the set adds the tail
moved up 19*a + b lanes: 4,320 grids per first-row digit set. The 84 row
polynomials are built once per sweep.

The generator sweeps no census: it reads the same lanes, one group at a
time, when a draw first lands there, the dense count's per first row sum and
the diagonal count's per pair {a, e}, and keeps each lane's `_MULTI` flag
(see `generate.py`). `_lane_bytes` checks those groups' totals as it checks
the sweep's.

The companion scan is a second route to the full-diagonal count that reads
no bucket: it returns the 22,896 (grid, companion) pairs of the shift
structure as a sorted list of 18-byte values, one byte per cell, and
`verify` counts the puzzles from them. Each entry (shift, required) of
`shift_match_table()` names its candidate grids, and each candidate has
exactly one companion, built from the entry alone (`companion_scan` says
why). The scan builds the 36 (+cell, -cell) orderings of an entry and their
36 shifted twins once, and scatters both below each ordering of the
diagonal, so it runs no Python per grid and calls no `companion_cells`.

The companion oracle checks once that it was given such a list, then
checks the pairs against the census's multi-grid buckets, 2,048 at a time,
laid end to end. Each half of a pair is an 8-byte lane of two ints, as
rng.py mixes its outputs: its cells times `_WEIGHTS`, its key if it is a
permutation (the key is linear), and the sum of 2**v over its cells v,
from byte tables giving 0 outside 1..9. That sum is 2**1 + ... + 2**9 only
for a permutation of 1..9: k powers of two sum to k one-bits only if no
two are equal. No lane carries: 255 in every cell keeps a key under 2**37,
and a bit sum is at most 9 * 512. A byte per pair ORs the XORs of its
halves' cells, 0 when they are equal. Python runs only for a pair these
show faulty, to write its message. Chunks keep the ints small, so the
oracle's peak stays near that of the scan it reads.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Mapping
from itertools import chain, combinations, compress, islice, permutations, repeat
from math import factorial
from operator import add, ge, itemgetter, not_, or_
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

from .core import DIAGONAL_FLAT, MAX_LINE_SUM, MIN_LINE_SUM, PrescriptionRegime
from .core import _Value, _bad, _check_type, _is_int
from . import theory
from .theory import MINUS_FLAT, PLUS_FLAT, build_shift_table, shift_match_table

companion_cells = theory.companion_cells  # unused here: only perfbench's tracer reads it

TOTAL_GRIDS = factorial(9)

EXPECTED_PUZZLE_COUNTS = {
    PrescriptionRegime.FULL_DIAGONAL: 351432,
    PrescriptionRegime.FIRST_TWO_DIAGONAL: 281304,
    PrescriptionRegime.TOP_LEFT: 163387,
    PrescriptionRegime.NONE: 46147,
}


def _pack(cells: tuple[int, ...]) -> int:
    """Full-diagonal signature key of these cells."""
    # rows 1 and 2, then columns 1 and 2, then the diagonal: a, e, k
    a, b, c, d, e, f, g, h, k = cells
    sums = (((a + b + c) << 5 | (d + e + f)) << 5 | (a + d + g)) << 5 | (b + e + h)
    return ((sums << 4 | a) << 4 | e) << 4 | k


# keys are linear in the cells (see the module docstring): the key of each unit grid
_WEIGHTS = tuple(_pack(tuple(int(i == j) for j in range(9))) for i in range(9))


# bits each regime's key drops off the full-diagonal key
_DROP = {r: 4 * (3 - len(r.flat_cells)) for r in PrescriptionRegime}


def signature_key(cells: tuple[int, ...], regime: PrescriptionRegime) -> int:
    """Canonical packed key of the puzzle these cells answer under `regime`.

    Two grids map to the same key exactly when they induce identical clue
    sets under the regime. Raises ValueError for a non-regime.
    """
    # no check before the lookup: the generator calls this once per draw
    try:
        drop = _DROP[regime]
    except (KeyError, TypeError):
        raise _bad("regime", "a PrescriptionRegime", regime) from None
    return _pack(cells) >> drop


def _fault(regime: PrescriptionRegime, where: str, fault: str) -> RuntimeError:
    """The error for a fault found in `regime`'s count of the grids `where` names."""
    return RuntimeError(f"{regime.value} {where} {fault}")


# the regimes the sweep counts as lane-packed ints (see the module docstring)
_DENSE = (PrescriptionRegime.TOP_LEFT, PrescriptionRegime.NONE)
_Tails = list[tuple[tuple[int, ...], int]]  # per first-row digit set, the set and its tail
_MULTI = bytes(n >= 2 for n in range(256))  # 1 for a bucket size of two or more
_DENSE_LANES = 24 * 361 + 24 * 19 + 24 + 1  # the dense count's lanes per int


def _row_polynomials() -> dict[tuple[int, ...], int]:
    """Per digit set of a row below the first, its 6 orderings (d, e, f)
    as one lane-packed int: the sum of 2**(8*(19*d + e)), the lane of d in
    column 1 and e in column 2."""
    return {
        row: sum(1 << 8 * (19 * d + e) for d, e, _ in permutations(row))
        for row in combinations(range(1, 10), 3)
    }


def _group_tails(r1: int, rows: dict[tuple[int, ...], int]) -> _Tails:
    """Per first-row digit set summing to `r1`: the set and the lane-packed
    count of the 720 fillings of the rows below, a filling (d, e, f / g, h,
    k) in lane 361*(d+e+f) + 19*(d+g) + e+h. `rows` is `_row_polynomials()`."""
    digits = range(1, 10)
    tails = []
    for first in combinations(digits, 3):
        if sum(first) != r1:
            continue
        low, *others = rest = [d for d in digits if d not in first]
        # one block of 361 lanes per row-2 sum; each product serves both
        # splits of its two digit sets, as row 2 over row 3 and the reverse
        blocks = [0] * (MAX_LINE_SUM + 1)
        for pair in combinations(others, 2):
            second = (low, *pair)
            third = tuple(d for d in rest if d not in second)
            both = rows[second] * rows[third]
            blocks[sum(second)] += both
            blocks[sum(third)] += both
        tail = b"".join(block.to_bytes(361, "little") for block in blocks)
        tails.append((first, int.from_bytes(tail, "little")))
    return tails


def _dense_lanes(regime: PrescriptionRegime, tails: _Tails) -> dict[int, int]:
    """`top-left`'s or `none`'s signature counts of a group, from its
    `_group_tails`, one lane per key, by slot: `none`'s in one int, slot 0,
    `top-left`'s in one int per top-left digit a, slot a. A first row (a, b,
    c) adds its set's tail moved up 19*a + b lanes."""
    top_left = regime is PrescriptionRegime.TOP_LEFT
    lanes: dict[int, int] = {}
    for first, tail in tails:
        for a, b, _ in permutations(first):
            slot = a if top_left else 0
            lanes[slot] = lanes.get(slot, 0) + (tail << 8 * (19 * a + b))
    return lanes


def _fold(sizes: dict[int, int], vals: bytes) -> dict[int, int]:
    """Add the bucket sizes `vals`, one byte per bucket, to the histogram
    `sizes` and return it: one C pass of `bytes.count` per size up to the
    largest. Raises RuntimeError for a zero byte, a bucket of no grids."""
    if 0 in vals:
        raise RuntimeError("bucket sizes include an empty bucket")
    left, k = len(vals), 0
    while left:
        k += 1
        if n := vals.count(k):
            sizes[k] = sizes.get(k, 0) + n
            left -= n
    return sizes


def _count_dense(sizes: dict[int, int], regime: PrescriptionRegime, r1: int, tails: _Tails) -> None:
    """Fold `regime`'s counts of the group of first row sum `r1`, from its
    `_group_tails`, into the histogram `sizes`. Raises RuntimeError unless
    its lanes hold 4,320 grids per first-row digit set (see `_lane_bytes`)."""
    lanes, wanted = _dense_lanes(regime, tails).values(), factorial(3) * factorial(6) * len(tails)
    group = f"group of first row sum {r1}"
    _fold(sizes, _lane_bytes(lanes, regime, group, wanted, _DENSE_LANES)[1])


# the diagonal count's 15 x 15 lanes (d+f, d+g), each sum in 3..17, and each
# lane's full-diagonal key: d+f and d+g weigh as cells f and g do
_SUMS = 15
_LANES = _SUMS * _SUMS
_LANE_KEYS = [(i // _SUMS + 3) * _WEIGHTS[5] + (i % _SUMS + 3) * _WEIGHTS[6] for i in range(_LANES)]
_Lanes = dict[int, int]  # a group's ints of _LANES lanes, by the key of (b, c, h)


def _sum_polynomials() -> dict[tuple[int, ...], int]:
    """Per digit set of the cells d, f, g, its 6 orderings as one lane-packed
    int: the sum of 2**(8*(15*(d+f-3) + d+g-3)), the lane of (d+f, d+g)."""
    return {
        row: sum(1 << 8 * (_SUMS * (d + f - 3) + d + g - 3) for d, f, g in permutations(row))
        for row in combinations(range(1, 10), 3)
    }


def _diagonal_lanes(diagonal: tuple[int, ...], polynomials: dict[tuple[int, ...], int]) -> _Lanes:
    """The 720 fillings of the off-diagonal cells around any ordering of
    the digit set `diagonal`, in lanes. `polynomials` is `_sum_polynomials()`."""
    rest = [d for d in range(1, 10) if d not in diagonal]
    lanes: _Lanes = {}
    for x in combinations(rest, 3):
        y = polynomials[tuple(d for d in rest if d not in x)]
        for b, c, h in permutations(x):
            key = (b + c) * _WEIGHTS[2] + (b + h) * _WEIGHTS[7]
            lanes[key] = lanes.get(key, 0) + y
    return lanes


def _pair_lanes(pair: tuple[int, ...], sets: dict[tuple[int, ...], _Lanes]) -> _Lanes:
    """The lanes of the first two diagonal cells' digits `pair`: the sum of
    the `_diagonal_lanes` in `sets` of each set holding both."""
    summed: _Lanes = {}
    for diagonal, lanes in sets.items():
        if pair[0] in diagonal and pair[1] in diagonal:
            for key, packed in lanes.items():
                summed[key] = summed.get(key, 0) + packed
    return summed


def _lane_bytes(
    lanes: Iterable[int], regime: PrescriptionRegime, where: str, wanted: int, width: int = _LANES
) -> tuple[bytes, bytes]:
    """The ints `lanes` as bytes end to end, `width` lanes per int, and their
    nonzero bytes, the bucket sizes. Raises RuntimeError unless those hold
    `wanted` grids: a lane that passed 255 carried, and took 255 off that
    total, or carried out of its int's top lane."""
    try:
        blob = b"".join(map(int.to_bytes, lanes, repeat(width), repeat("little")))
    except OverflowError:
        raise _fault(regime, where, "carried out of its top lane") from None
    vals = blob.translate(None, b"\0")
    if (held := sum(vals)) != wanted:
        raise _fault(regime, where, f"holds {held} grids, expected {wanted}")
    return blob, vals


def _is_int_dict(value: object) -> bool:
    """A mapping of ints to ints: what a `multi` argument must be."""
    return isinstance(value, Mapping) and all(map(_is_int, chain(value, value.values())))


class CensusReport(_Value):
    """The histogram of one regime's sweep: a frozen value.

    `sizes[k]` is the number of buckets of exactly k grids, that is of
    puzzles with exactly k solutions, in increasing k. For the full
    diagonal, `multi` maps the signature key of every bucket of two or more
    grids to its size, so a grid whose key is not in `multi` is the only
    solution of its puzzle; the sweep keeps no other regime's buckets, and
    their `multi` is None. Both are read-only views of copies the report
    alone holds, so the checks made at construction hold for its life.
    Every statistic is derived from `sizes`; `solvable_puzzles`, the number
    of distinct clue sets answered by at least one grid, is the quantity the
    published counts refer to.
    Construction raises ValueError unless every size k and count in
    `sizes` is an int of at least 1 and `multi` is None or maps ints to
    ints, and RuntimeError unless the buckets hold all 362,880 grids and,
    where `multi` is given, it holds exactly the buckets that `sizes`
    counts at k >= 2. A report is unhashable, and its repr leaves `multi` out.
    """

    __slots__ = ("regime", "sizes", "multi")
    __hash__ = None  # unhashable, as the dicts its fields view are

    def __init__(
        self,
        regime: PrescriptionRegime,
        sizes: Mapping[int, int],
        multi: Mapping[int, int] | None,
    ) -> None:
        _check_type(regime, PrescriptionRegime, "regime")
        if not (isinstance(sizes, Mapping) and all(
            _is_int(n) and n >= 1 for n in chain(sizes, sizes.values())
        )):
            raise _bad("sizes", "a dict of positive ints to positive ints", sizes)
        if not (multi is None or _is_int_dict(multi)):
            raise _bad("multi", "None or a dict of ints", multi)
        sizes = dict(sorted(sizes.items()))
        name, grids = regime.value, sum(k * n for k, n in sizes.items())
        if grids != TOTAL_GRIDS:
            raise RuntimeError(f"{name} census buckets hold {grids} grids, expected {TOTAL_GRIDS}")
        if multi is not None:
            multi = dict(multi)
            if min(multi.values(), default=2) < 2:
                raise RuntimeError(
                    f"{name} census multi-grid buckets include one of {min(multi.values())} grids"
                )
            multi_sizes = dict(sorted(Counter(multi.values()).items()))
            wanted = {k: n for k, n in sizes.items() if k >= 2}
            if multi_sizes != wanted:
                raise RuntimeError(
                    f"{name} census multi-grid buckets by size are {multi_sizes}, expected {wanted}"
                )
            multi = MappingProxyType(multi)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "sizes", MappingProxyType(sizes))
        object.__setattr__(self, "multi", multi)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(regime={self.regime!r}, sizes={dict(self.sizes)!r})"

    def __reduce__(self) -> tuple:
        # a mappingproxy does not pickle: pass the dicts it views
        multi = None if self.multi is None else dict(self.multi)
        return (type(self), (self.regime, dict(self.sizes), multi))

    @property
    def solvable_puzzles(self) -> int:
        return sum(self.sizes.values())

    @property
    def single_solution_puzzles(self) -> int:
        return self.sizes.get(1, 0)

    @property
    def max_solutions(self) -> int:
        return max(self.sizes)


def _count_diagonals(
    sizes: dict[PrescriptionRegime, dict[int, int]], multi: dict[int, int]
) -> None:
    """Fold the diagonal count of the full diagonal, with its multi-grid
    buckets, and of the first two cells, each if `sizes` holds it."""
    full, two = PrescriptionRegime.FULL_DIAGONAL, PrescriptionRegime.FIRST_TWO_DIAGONAL
    polynomials = _sum_polynomials()
    sets = {d: _diagonal_lanes(d, polynomials) for d in combinations(range(1, 10), 3)}
    for diagonal, lanes in sets.items() if full in sizes else ():
        blob, vals = _lane_bytes(lanes.values(), full, f"diagonal set {diagonal}", factorial(6))
        keys, found, mask = list(lanes), [], blob.translate(_MULTI)
        i = mask.find(1)
        while i >= 0:
            slot, lane = divmod(i, _LANES)
            found.append((keys[slot] + _LANE_KEYS[lane], blob[i]))
            i = mask.find(1, i + 1)
        for a, e, k in permutations(diagonal):
            _fold(sizes[full], vals)
            head = a * _WEIGHTS[0] + e * _WEIGHTS[4] + k * _WEIGHTS[8]
            multi.update((head + key, n) for key, n in found)
    for pair in combinations(range(1, 10), 2) if two in sizes else ():
        lanes = _pair_lanes(pair, sets)
        _, vals = _lane_bytes(lanes.values(), two, f"diagonal pair {pair}", 7 * factorial(6))
        _fold(_fold(sizes[two], vals), vals)  # (a, e) and (e, a)


def _reports(regimes: tuple[PrescriptionRegime, ...]) -> dict[PrescriptionRegime, CensusReport]:
    """One sweep over all grids, folded into each regime's report: the full
    diagonal and the first two cells by diagonal digit set, then `top-left`
    and `none` one first row sum and, within it, one regime at a time. Only
    the full diagonal's report keeps its multi-grid buckets."""
    full = PrescriptionRegime.FULL_DIAGONAL
    sizes: dict[PrescriptionRegime, dict[int, int]] = {r: {} for r in regimes}
    multi: dict[int, int] = {}
    if full in sizes or PrescriptionRegime.FIRST_TWO_DIAGONAL in sizes:
        _count_diagonals(sizes, multi)
    dense = [r for r in regimes if r in _DENSE]
    polynomials = _row_polynomials() if dense else None
    for r1 in range(MIN_LINE_SUM, MAX_LINE_SUM + 1) if dense else ():
        tails = _group_tails(r1, polynomials)
        for regime in dense:
            _count_dense(sizes[regime], regime, r1, tails)
    return {r: CensusReport(r, sizes[r], multi if r is full else None) for r in regimes}


def census(regime: PrescriptionRegime) -> CensusReport:
    """Sweep all grids once and report bucket statistics for one regime.
    Only the full diagonal's report keeps its multi-grid buckets."""
    _check_type(regime, PrescriptionRegime, "regime")
    return _reports((regime,))[regime]


def census_all() -> dict[PrescriptionRegime, CensusReport]:
    """All four regimes from a single shared permutation sweep, as `census`
    reports each: only the full diagonal's report keeps its multi-grid
    buckets, which the companion oracle reads."""
    return _reports(tuple(PrescriptionRegime))


class ClosedFormCount(NamedTuple):
    """Count of distinct solvable full-diagonal puzzles, without enumeration.

    Per diagonal set and placement there are 6! grids. Each admissible shift
    contributes 3!*3! grids whose shifted partner is also among the 6!; the
    partner answers the same puzzle, so each such pair double-counts one clue
    sheet and half of those grids are subtracted. Diagonals split 35/45/4 by
    admitting zero, one, or two shifts, giving the three addends.
    """

    total: int
    addends: tuple[int, int, int]


def closed_form_puzzle_count() -> ClosedFormCount:
    by_shift_count = Counter(len(s) for s in build_shift_table().values())
    n0, n1, n2 = by_shift_count[0], by_shift_count[1], by_shift_count[2]
    placements = factorial(3)
    fillings = factorial(6)
    duplicates_per_shift = factorial(3) * factorial(3)
    addends = (
        n0 * placements * fillings,
        n1 * placements * (fillings - duplicates_per_shift),
        n2 * placements * (fillings - 2 * duplicates_per_shift),
    )
    return ClosedFormCount(total=sum(addends), addends=addends)


# cells of a grid from its diagonal, +cell and -cell values, in that order
_SCATTER = itemgetter(*((DIAGONAL_FLAT + PLUS_FLAT + MINUS_FLAT).index(i) for i in range(9)))


def companion_scan() -> list[bytes]:
    """Every (grid, companion) pair of the shift structure, sorted.

    Each pair is `bytes(grid + companion)`: 18 bytes, one per cell, the
    grid's nine cells first, so pairs sort as the tuple pairs of their
    cells do. A grid has a companion exactly when an entry (shift,
    required) of its diagonal's row in `shift_match_table()` lists its
    sorted +cell values. So each entry names its candidate grids: the
    diagonal's 6 orderings on the diagonal, the 6 orderings of `required`
    on the +cells and the 6 of the other three values on the -cells. The
    106 entries give 22,896 candidates; a grid outside them has no
    companion. A candidate's one companion comes from its own entry: the
    grid with its +cells raised by `shift` and its -cells lowered by it.
    A second entry of the diagonal with the same `required` would need the
    same -cell values, so the same shift. No bucketing is involved, so the
    pairs give a route to the puzzle count that is independent of the
    signature census: counting each puzzle at its smallest solution, it is
    9! less the grids of the pairs whose companion is the smaller.
    """
    pairs: list[bytes] = []
    for diagonal, entries in shift_match_table().items():
        for shift, required in entries:
            minus = set(range(1, 10)).difference(diagonal, required)
            # the 36 (+cell, -cell) orderings below each diagonal ordering,
            # and each one's companion: its +cells raised by the shift, its -cells lowered
            lowers = [p + m for p in permutations(required) for m in permutations(minus)]
            step = (shift,) * 3 + (-shift,) * 3
            moved = [tuple(map(add, low, step)) for low in lowers]
            for d in permutations(diagonal):
                grids = map(_SCATTER, map(add, repeat(d), lowers))
                companions = map(_SCATTER, map(add, repeat(d), moved))
                pairs += map(bytes, map(add, grids, companions))
    pairs.sort()
    return pairs


def companion_oracle_mismatches(multi: dict[int, int], pairs: list[bytes]) -> list[str]:
    """Check the structural companions against the brute-force census.

    `multi` maps the full-diagonal signature key of every bucket of two or
    more grids to its size, so the census puts every other grid alone in
    its bucket, and `pairs` lists every (grid, companion) pair the shift
    structure yields, as `companion_scan` returns them. Write B(p) for
    grid p's bucket, s(p) for its size in the census and C(p) for p's
    companions. (1) Each pair (p, c) holds two permutations of 1..9 with
    c != p and c in B(p). (2) Each pair is below the next, so by
    transitivity below every later pair, and no pair repeats; this also
    rejects an unsorted list. So C(p) is a subset of B(p) - {p}, with one
    pair per companion. (3) A bucket in `multi` of s grids has exactly
    s * (s - 1) pairs, and (4) no pair's key is missing from `multi`, so a
    bucket of one grid has none, 1 * 0. So every bucket gets s * (s - 1)
    pairs; each of its s grids has at most s - 1 companions, so each has
    exactly s - 1. Hence C(p) = B(p) - {p} for all 362,880 grids. Returns
    at most the first 5 violations; empty means the routes agree. Raises
    ValueError unless `multi` is a dict of ints to ints and `pairs` a list
    of 18-byte `bytes` values.
    """
    if not _is_int_dict(multi):
        raise _bad("multi", "a dict of ints", multi)
    # passes in C: a scan holds 22,896 pairs
    if not (
        isinstance(pairs, list)
        and all(map(isinstance, pairs, repeat(bytes)))
        and set(map(len, pairs)) <= {18}
    ):
        raise _bad("pairs", "a list of 18-byte bytes values", pairs)
    return list(islice(_oracle_violations(multi, pairs), 5))


# the low and the high byte of 2**v for a cell v in 1..9, 0 for any other byte
_BIT_LOW = bytes((1 << v & 0xFF) * (1 <= v <= 9) for v in range(256))
_BIT_HIGH = bytes((1 << v >> 8) * (1 <= v <= 9) for v in range(256))
_ALL_BITS = sum(1 << v for v in range(1, 10))  # a permutation's bit sum
_CHUNK = 2048  # pairs checked at once
_DIGITS = list(range(1, 10))


def _chunk_lanes(blob: bytes, n: int) -> tuple[tuple[int, ...], list[int]]:
    """The grid keys of `n` pairs laid end to end in `blob`, 18 bytes each,
    and the indices of the faulty pairs (see the module docstring)."""
    keys, bits, differ = [0, 0], [0, 0], 0
    key_lane, bit_lane = bytearray(8 * n), bytearray(8 * n)
    for i, weight in enumerate(_WEIGHTS):
        halves = blob[i::18], blob[9 + i :: 18]
        for h, cells in enumerate(halves):
            key_lane[::8] = cells
            keys[h] += weight * int.from_bytes(key_lane, "little")
            bit_lane[::8], bit_lane[1::8] = cells.translate(_BIT_LOW), cells.translate(_BIT_HIGH)
            bits[h] += int.from_bytes(bit_lane, "little")
        differ |= int.from_bytes(halves[0], "little") ^ int.from_bytes(halves[1], "little")
    all_bits = int.from_bytes(_ALL_BITS.to_bytes(8, "little") * n, "little")
    wrong = (keys[0] ^ keys[1]) | (bits[0] ^ all_bits) | (bits[1] ^ all_bits)
    lanes = struct.Struct(f"<{n}Q").unpack
    equal = map(not_, differ.to_bytes(n, "little"))
    faulty = compress(range(n), map(or_, lanes(wrong.to_bytes(8 * n, "little")), equal))
    return lanes(keys[0].to_bytes(8 * n, "little")), list(faulty)


def _oracle_violations(multi: dict[int, int], pairs: list[bytes]) -> Iterator[str]:
    # the full diagonal drops no bits, so its signature key is _pack itself
    pairs_per_key: Counter[int] = Counter()
    for start in range(0, len(pairs), _CHUNK):
        chunk = pairs[start : start + _CHUNK]
        keys, faulty = _chunk_lanes(b"".join(chunk), len(chunk))
        counted = bytearray(b"\1" * len(chunk))
        for j in faulty:
            # tuples of ints, as the messages show cells
            cells = tuple(chunk[j])
            p, c = cells[:9], cells[9:]
            # a grid that is a permutation of 1..9 is counted whatever its companion
            grid_ok = counted[j] = sorted(p) == _DIGITS
            if not grid_ok or sorted(c) != _DIGITS:
                yield f"pair {p} -> {c}: not both permutations of 1..9"
            elif c == p:
                yield f"pair {p} -> {c}: companion equals the grid"
            elif _pack(c) != _pack(p):
                yield f"pair {p} -> {c}: companion outside the grid's bucket"
        pairs_per_key.update(compress(keys, counted))
    if any(map(ge, pairs, islice(pairs, 1, None))):
        yield "the (grid, companion) pairs are not strictly increasing"
    for key, size in multi.items():
        found = pairs_per_key.get(key, 0)
        if found != size * (size - 1):
            yield f"bucket {key:#x} of {size} grids has {found} companion pairs"
    for key in sorted(pairs_per_key.keys() - multi.keys()):
        yield f"bucket {key:#x} has companion pairs but one grid in the census"
