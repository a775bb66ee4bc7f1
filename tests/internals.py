"""The one place the tests read fubuki's internals.

Every other test file reads fubuki through its public names, which
`tests/test_api.py` checks. Resource bounds and structure pins read the
internals here, as plain data; fakes and fault injections are installed
here, through `monkeypatch`. A refactor of the internals edits this file,
not the tests. A fresh process imports it with `HERE` on `sys.path`.
"""

import functools
import importlib
import json
import subprocess
import sys
from collections import Counter, _count_elements
from itertools import combinations, islice, permutations, product, repeat, starmap
from operator import add, ge, mul
from pathlib import Path

from fubuki import Grid, PrescriptionRegime, SplitMix64, cli, generate, rng, solver, theory
from fubuki.core import MAX_LINE_SUM, MIN_LINE_SUM

# the package re-exports census() under the submodule's name
census = importlib.import_module("fubuki.census")

HERE = str(Path(__file__).resolve().parent)
SPAN = 1 << 64
GAMMA = 0x9E3779B97F4A7C15


class Scalar(SplitMix64):
    """The published SplitMix64 step, mixing one output at a time: the
    reference the lane-packed mixer is checked against."""

    def _take(self, k):
        outputs = []
        for _ in range(k):
            self._state = z = (self._state + GAMMA) % SPAN
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % SPAN
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % SPAN
            outputs.append(z ^ (z >> 31))
        return tuple(outputs)


class Scripted(SplitMix64):
    """SplitMix64 whose first outputs are scripted, so rejections can be forced.

    Scripted outputs come before the stream's own and do not move its state.
    Every draw, single or batched, takes its outputs from the one step this
    overrides, so `below` and `shuffle` are scripted alike.
    """

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def _take(self, k):
        scripted = tuple(self.script.pop() for _ in range(min(k, len(self.script))))
        return scripted + super()._take(k - len(scripted))


class NoDraws(SplitMix64):
    def _take(self, k):
        raise AssertionError("drew an output")


def take(stream, k):
    """The next k outputs of `stream`: a batch, 0 <= k <= 8, of a
    SplitMix64, or k one-at-a-time steps of a `Scalar`."""
    return stream._take(k)


def mix_block(state):
    """The 64 outputs that follow `state`, mixed as one block of the
    generator's draw stream."""
    return rng._mix(state, *rng._BLOCK)


def shuffles(stream, values):
    """The generator's draw stream on `stream`: the n-th item is the n-th
    shuffle of `list(values)`, nine items."""
    return stream._shuffles(values)


def state(stream):
    return stream._state


def undo_xorshift(u, r):
    """The 64-bit x with x ^ (x >> r) == u: each pass fixes r more top bits."""
    x = u
    for _ in range(64 // r):
        x = u ^ (x >> r)
    return x


def seed_with_output(u, k):
    """The seed whose k-th output (from 1) is `u`: SplitMix64's finalizer
    undone, each xor-shift by repeated xor and each multiply by the inverse
    of its odd constant modulo 2**64."""
    z = undo_xorshift(u, 31) * pow(0x94D049BB133111EB, -1, SPAN) % SPAN
    z = undo_xorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, SPAN) % SPAN
    return (undo_xorshift(z, 30) - k * GAMMA) % SPAN


def clear_views():
    """Empty the solver's view memo, and so drop every row-1 pair table."""
    solver._view.cache_clear()


def views_held():
    return solver._view.cache_info().currsize


def view(s, col=0, digit=0):
    """The solver's ordered row-1 triples of line sum `s` with `digit` in
    1-based column `col` (all when `col` is 0), each as (a, b, c, mask,
    table): `mask` has bit d set per digit d, and `table` maps a pair sum to
    the ordered (top, bottom, mask) pairs outside it. Memoised on first use."""
    return solver._view(s, col, digit)


def emit_from_search(monkeypatch, cells):
    """Make the solver's search find `cells` alone, whatever the clues."""
    monkeypatch.setattr(solver, "_search", lambda clues, limit: [cells])


def memos_at_import(module):
    """The entries each memo of `fubuki.<module>` holds, keyed "module.name",
    in a fresh process that has imported fubuki.cli and nothing else."""
    code = (
        "import importlib, json\n"
        "import fubuki.cli\n"
        f"m = importlib.import_module('fubuki.{module}')\n"
        "print(json.dumps({\n"
        f"    '{module}.' + name: f.cache_info().currsize\n"
        "    for name, f in vars(m).items()\n"
        "    if hasattr(f, 'cache_info') and f.__module__ == m.__name__\n"
        "}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(result.stdout)


def clear_shift_tables():
    theory.shift_match_table.cache_clear()


def wrap_pairings(monkeypatch, wrapper):
    """Route each call of the pairing condition, one per diagonal's
    complement `rest` while the shift table is built, to `wrapper(real, rest)`."""
    real = theory._pairings
    monkeypatch.setattr(theory, "_pairings", lambda rest: wrapper(real, rest))


# The dict count: signature counts by dict, one first row sum's group at a
# time, the reference both lane counts and the generator's flags are checked
# against. The key is linear in the cells, so a grid's key is a first-row
# key plus a lower-rows key; each digit set of a group's first row builds
# the 720 keys of the rows below once, per split of the other six digits
# into rows 2 and 3, and each of the set's 6 row orderings counts head +
# tail over them in C.


@functools.cache
def row_keys():
    """The full-diagonal keys of rows 2 and 3 alone, by their cells: one
    table each over the 504 ordered triples of distinct digits."""
    triples = list(permutations(range(1, 10), 3))
    return tuple(
        {row: sum(map(mul, row, weights)) for row in triples}
        for weights in (census._WEIGHTS[3:6], census._WEIGHTS[6:])
    )


def group_rows(r1):
    """The dict count's rows of first row sum `r1`: per first-row
    digit set, the full-diagonal keys of its 6 orderings (heads) and of the
    720 fillings of the rows below (tails), in order of their split into
    rows 2 and 3. A tail's key is its row 2's key plus its row 3's."""
    second, third = row_keys()
    rows = []
    for first in combinations(range(1, 10), 3):
        if sum(first) != r1:
            continue
        rest = [d for d in range(1, 10) if d not in first]
        tails = []
        for pick in combinations(rest, 3):
            row3 = list(map(third.__getitem__, permutations(d for d in rest if d not in pick)))
            tails += starmap(add, product(map(second.__getitem__, permutations(pick)), row3))
        heads = [sum(map(mul, row, census._WEIGHTS[:3])) for row in permutations(first)]
        rows.append((heads, tails))
    return rows


def group_counts(regime, r1):
    """The dict count's signature counts of `regime` over the grids of first
    row sum `r1`. r1 leads every key, so these are the counts of their keys
    over all 9! grids."""
    drop = census._DROP[regime]
    counts = {}
    for heads, tails in group_rows(r1):
        # the dropped fields of head + tail never carry into the key
        lowers = [tail >> drop for tail in tails]
        for head in heads:
            _count_elements(counts, map(add, repeat(head >> drop), lowers))
    return counts


def tails_by_filling(r1):
    """Per first-row digit set summing to `r1`, the full-diagonal keys of
    the 720 fillings of the rows below, built one filling at a time in the
    order of `permutations`: the reference for the dict count's tails,
    which it builds per split of the six digits into rows 2 and 3."""
    second, third = row_keys()
    digits = range(1, 10)
    return [
        [second[p[:3]] + third[p[3:]] for p in permutations(d for d in digits if d not in first)]
        for first in combinations(digits, 3)
        if sum(first) == r1
    ]


def fold(sizes, vals):
    """The sweep's fold of the bucket sizes `vals`, one byte per bucket,
    into the histogram `sizes`, which it returns."""
    return census._fold(sizes, vals)


def dense_sizes(regime, r1):
    """The histogram of bucket sizes that the sweep's dense count, which
    serves `top-left` and `none`, folds from `regime`'s group of first row
    sum `r1`: {k: buckets of k grids}."""
    sizes = {}
    tails = census._group_tails(r1, census._row_polynomials())
    census._count_dense(sizes, regime, r1, tails)
    return sizes


def group_multi_buckets(regime, r1):
    """The multi-grid buckets of `regime` among the grids of first row sum
    `r1`, by the dict count: {key: grids}."""
    return {key: n for key, n in group_counts(regime, r1).items() if n >= 2}


# the names of the functions that build and count a group, by either lane
# count, for the sweep or the generator, for a profile hook in a fresh process
GROUP_STEPS = tuple(
    step.__name__
    for step in (census._group_tails, census._dense_lanes, census._diagonal_lanes,
                 census._pair_lanes, generate._dense_flags, generate._pair_flags)
)


def before_each_group(monkeypatch, hook):
    """Call `hook(group)` before each group of grids the sweep builds:
    `group` is the first row sum for the dense count, the diagonal digit
    set for the diagonal count."""
    tails, diagonal_lanes = census._group_tails, census._diagonal_lanes

    def hooked_tails(r1, polynomials):
        hook(r1)
        return tails(r1, polynomials)

    def hooked_lanes(diagonal, polynomials):
        hook(diagonal)
        return diagonal_lanes(diagonal, polynomials)

    monkeypatch.setattr(census, "_group_tails", hooked_tails)
    monkeypatch.setattr(census, "_diagonal_lanes", hooked_lanes)


def before_each_held_group(monkeypatch, hook):
    """Call `hook(group)` before the generator builds the flags of a group:
    `group` is the first row sum under `top-left` and `none`, the sorted
    pair of the first two diagonal digits under `first-two-diagonal`."""
    dense, pair = generate._dense_flags, generate._pair_flags

    def hooked_dense(regime, r1):
        hook(r1)
        return dense(regime, r1)

    def hooked_pair(digits):
        hook(digits)
        return pair(digits)

    monkeypatch.setattr(generate, "_dense_flags", hooked_dense)
    monkeypatch.setattr(generate, "_pair_flags", hooked_pair)


def drop_row_orderings(monkeypatch):
    """Drop the lowest term, one ordering, of every row polynomial of the
    dense count, so each of its groups misses grids."""
    polynomials = census._row_polynomials
    monkeypatch.setattr(
        census, "_row_polynomials", lambda: {row: p & (p - 1) for row, p in polynomials().items()}
    )


def carry_dense_lanes(monkeypatch):
    """Move 256 grids of each int of the dense count onto one new lane
    above its top: the int still holds every grid, but that lane carries
    into the next. Each int must hold at least 256 grids."""
    lanes = census._dense_lanes

    def carried(regime, tails):
        moved = {}
        for slot, packed in lanes(regime, tails).items():
            held = bytearray(packed.to_bytes((packed.bit_length() + 7) // 8, "little"))
            left = 256
            for i, n in enumerate(held):
                taken = min(n, left)
                held[i] -= taken
                left -= taken
            moved[slot] = int.from_bytes(held, "little") + (256 << 8 * len(held))
        return moved

    monkeypatch.setattr(census, "_dense_lanes", carried)


def stub_groups(monkeypatch, lanes, rows, counts):
    """Make the sweep take the lanes of each diagonal digit set as
    `lanes(diagonal)`, a dict of keys to lane-packed ints, and for the dense
    count, build the rows of each first row sum as `rows(r1)` and count them
    under a regime as `counts(regime, group)`, given what `rows` returned: a
    dict of keys to sizes, which it gets as the lanes of one int, so each is
    at most 255. The dense count checks that those hold 4,320 grids per item
    of `rows(r1)`."""

    def dense_lanes(regime, group):
        return {0: int.from_bytes(bytes(counts(regime, group).values()), "little")}

    monkeypatch.setattr(census, "_diagonal_lanes", lambda diagonal, polynomials: lanes(diagonal))
    monkeypatch.setattr(census, "_group_tails", lambda r1, polynomials: rows(r1))
    monkeypatch.setattr(census, "_dense_lanes", dense_lanes)


# the diagonal count's lanes per int, one per (d+f, d+g), each sum in 3..17
LANES = census._LANES


def diagonal_lanes(diagonal):
    """The diagonal count's lanes of the digit set `diagonal` (sorted): a
    dict from the key of cells b, c, h to an int with one byte lane per
    (d+f, d+g), lane 15*(d+f-3) + d+g-3, holding its grids' count."""
    return census._diagonal_lanes(diagonal, census._sum_polynomials())


def pair_lanes(pair):
    """The diagonal count's lanes of the first two diagonal cells' digit
    set `pair` (sorted), summed over the third, as `diagonal_lanes`."""
    polynomials = census._sum_polynomials()
    sets = {d: census._diagonal_lanes(d, polynomials) for d in combinations(range(1, 10), 3)}
    return census._pair_lanes(pair, sets)


def lane_counts(lanes, heads, regime):
    """{signature key under `regime`: grids} that `lanes`, as
    `diagonal_lanes` gives them, hold below each ordering of the diagonal
    cells in `heads`, (a, e, k), read lane by lane: the key is the head's
    plus the dict key plus the lane's, as signature keys are linear."""
    counts, heads = {}, list(heads)
    for key, packed in lanes.items():
        for i, n in enumerate(packed.to_bytes(LANES, "little")):
            if n:
                df, dg = divmod(i, 15)
                lane = census._pack((0, 0, 0, 0, 0, df + 3, dg + 3, 0, 0))
                for a, e, k in heads:
                    head = census._pack((a, 0, 0, 0, e, 0, 0, 0, k))
                    slot = head + key + lane >> census._DROP[regime]
                    assert slot not in counts
                    counts[slot] = n
    return counts


def naive_diagonal_counts():
    """The signature counts of all 9! grids, one grid at a time, grouped by
    their diagonal digit set under the full diagonal and by the digit set
    of their first two diagonal cells under the first two:
    {regime: {sorted digits: {key: grids}}}."""
    full, two = PrescriptionRegime.FULL_DIAGONAL, PrescriptionRegime.FIRST_TWO_DIAGONAL
    counts = {full: {}, two: {}}
    for cells in permutations(range(1, 10)):
        key = census._pack(cells)
        a, e, k = cells[0], cells[4], cells[8]
        by_set = counts[full].setdefault(tuple(sorted((a, e, k))), Counter())
        by_set[key] += 1
        counts[two].setdefault(tuple(sorted((a, e))), Counter())[key >> 4] += 1
    return counts


def drop_sum_orderings(monkeypatch):
    """Drop the lowest term, one ordering, of every row polynomial of the
    diagonal count, so each diagonal set's lanes miss grids."""
    polynomials = census._sum_polynomials
    monkeypatch.setattr(
        census, "_sum_polynomials", lambda: {row: p & (p - 1) for row, p in polynomials().items()}
    )


def carry_diagonal_lanes(monkeypatch, lane=0):
    """Move 256 grids of each diagonal set's lanes onto lane `lane` of its
    first int: the set still holds its grids, but that lane carries. Lane
    0, (d+f, d+g) = (3, 3), carries into lane 1; the top lane, LANES - 1 or
    (17, 17), carries out of the int. No grid fills either."""
    diagonal_lanes = census._diagonal_lanes

    def carried(diagonal, polynomials):
        lanes = diagonal_lanes(diagonal, polynomials)
        left = 256
        for key, packed in lanes.items():
            held = bytearray(packed.to_bytes(LANES, "little"))
            for i, n in enumerate(held):
                taken = min(n, left)
                held[i] -= taken
                left -= taken
            lanes[key] = int.from_bytes(held, "little")
        lanes[next(iter(lanes))] += 256 << 8 * lane
        return lanes

    monkeypatch.setattr(census, "_diagonal_lanes", carried)


def forget_groups():
    """Drop every group of flags the generator holds."""
    for groups in generate._GROUPS.values():
        groups.clear()


def hold_every_group(regime):
    """Build every group of flags of a weaker `regime` afresh, through the
    path the generator fills its cache by, and return what the cache then
    holds: {group: flags}. A group is a first row sum under `top-left` and
    `none`, its flags one bytes value; under `first-two-diagonal` it is a
    sorted pair of digits, its flags a dict of bytes values, each of whose
    flags serves both orderings of the pair."""
    groups = generate._GROUPS[regime]
    groups.clear()
    if regime is PrescriptionRegime.FIRST_TWO_DIAGONAL:
        every = combinations(range(1, 10), 2)
    else:
        every = range(MIN_LINE_SUM, MAX_LINE_SUM + 1)
    for group in every:
        groups[group]
    return dict(groups)


def draw_in_order(monkeypatch, grids):
    """Make the generator draw `grids`, in order, and take a draw its flags
    do not reject without solving it. Returns the list the taken draws are
    appended to."""
    monkeypatch.setattr(SplitMix64, "_shuffles", lambda rng, values: iter(grids))
    monkeypatch.setattr(generate, "count_solutions", lambda clue: 1)
    taken = []

    def recorded(cells):
        taken.append(cells)
        return Grid(cells)

    monkeypatch.setattr(generate, "Grid", recorded)
    return taken


def parsed_options(argv):
    """The CLI's options for `argv`, parsed but not run."""
    return vars(cli._build_parser().parse_args(argv))


def reference_oracle(multi, pairs):
    """The companion oracle's messages, found one pair at a time: the check
    the bulk oracle replaced, which it is compared against. Not capped."""
    digits = list(range(1, 10))
    pairs_per_key = Counter()
    for pair in pairs:
        cells = tuple(pair)
        p, c = cells[:9], cells[9:]
        # only a permutation of 1..9 packs; it is counted whatever its companion
        grid_ok = sorted(p) == digits
        if grid_ok:
            key = census._pack(p)
            pairs_per_key[key] += 1
        if not grid_ok or sorted(c) != digits:
            yield f"pair {p} -> {c}: not both permutations of 1..9"
        elif c == p:
            yield f"pair {p} -> {c}: companion equals the grid"
        elif census._pack(c) != key:
            yield f"pair {p} -> {c}: companion outside the grid's bucket"
    if any(map(ge, pairs, islice(pairs, 1, None))):
        yield "the (grid, companion) pairs are not strictly increasing"
    for key, size in multi.items():
        found = pairs_per_key.get(key, 0)
        if found != size * (size - 1):
            yield f"bucket {key:#x} of {size} grids has {found} companion pairs"
    for key in sorted(pairs_per_key.keys() - multi.keys()):
        yield f"bucket {key:#x} has companion pairs but one grid in the census"


def flagged_pairs(pairs):
    """The indices of the 18-byte `pairs` that the oracle's bulk check
    flags as faulty, all read as one chunk; the messages it caps come from
    these alone."""
    return census._chunk_lanes(b"".join(pairs), len(pairs))[1]
