import hashlib
import re
import subprocess
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubuki import (
    Grid,
    PrescriptionRegime,
    classify_diagonal,
    count_solutions,
    generate,
    generate_puzzles,
)
from fubuki.census import signature_key
from fubuki.cli import main
from fubuki.core import MAX_LINE_SUM, MIN_LINE_SUM
from fubuki.rng import SplitMix64
from internals import (
    GAMMA,
    GROUP_STEPS,
    HERE,
    LANES,
    SPAN,
    NoDraws,
    Scalar,
    Scripted,
    before_each_held_group,
    draw_in_order,
    forget_groups,
    hold_every_group,
    mix_block,
    seed_with_output,
    shuffles,
    state,
    take,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)
MAX_SEED = SPAN - 1
# states from which output i (1..64) of a block lands exactly on 2**64, and
# their neighbours: the lanes wrap there
WRAP_STATES = sorted({(-i * GAMMA + d) % SPAN for i in range(1, 65) for d in (-1, 0, 1)})
DIGITS = tuple(range(1, 10))
FIRST_ROW_SUMS = range(MIN_LINE_SUM, MAX_LINE_SUM + 1)
WEAKER = [r for r in PrescriptionRegime if r is not PrescriptionRegime.FULL_DIAGONAL]


def reference_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates from the last index down, each index drawn by `below`."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def assert_same_state(a: SplitMix64, b: SplitMix64) -> None:
    """Two streams are in one state exactly when their next outputs agree:
    SplitMix64's output is a bijection of its state, as its finalizer only
    xor-shifts and multiplies by odd constants. A scripted stream's leftover
    script is compared first, and then spent."""
    if isinstance(a, Scripted):
        assert a.script == b.script
        a.script.clear()
        b.script.clear()
    assert a.next_u64() == b.next_u64()


def assert_shuffles_alike(fast: SplitMix64, reference: SplitMix64, length: int, note=None):
    """`fast.shuffle` permutes as `reference_shuffle` does on `reference`,
    and leaves the two streams in one state."""
    a, b = list(range(length)), list(range(length))
    fast.shuffle(a)
    reference_shuffle(reference, b)
    assert a == b, note
    assert_same_state(fast, reference)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0 of the standard mixer
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_below_is_in_range_and_deterministic(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        draws = [a.below(7) for _ in range(200)]
        assert draws == [b.below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert set(draws) == set(range(7))

    def test_shuffle_permutes(self):
        rng = SplitMix64(9)
        items = list(range(1, 10))
        rng.shuffle(items)
        assert sorted(items) == list(range(1, 10))
        assert items != list(range(1, 10))

    @PROPERTY
    @given(st.integers(0, MAX_SEED), st.integers(0, 20))
    def test_shuffle_is_fisher_yates_on_below(self, seed, length):
        # states agree only after the same number of next_u64 draws
        assert_shuffles_alike(SplitMix64(seed), SplitMix64(seed), length)

    @PROPERTY
    @given(
        st.integers(0, MAX_SEED),
        st.integers(0, 20),
        st.lists(st.integers(MAX_SEED - 40, MAX_SEED), max_size=30),
    )
    def test_shuffle_rejects_as_below_does(self, seed, length, script):
        # draws this close to 2**64 are rejected for most bounds up to 20
        assert_shuffles_alike(Scripted(seed, script), Scripted(seed, script), length)

    @pytest.mark.parametrize("length", [2, 3, 6, 9, 17])
    def test_shuffle_shortcut_is_exact_at_its_edges(self, length):
        # the first index drawn is scripted on each side of the shortcut
        # `safe` = 2**64 - length and of the exact limit. `u <= safe` in place
        # of `u < safe` is an equivalent mutant: every limit is at least
        # 2**64 - length + 1
        limit = SPAN - SPAN % length
        for u in (SPAN - length - 1, SPAN - length, limit - 1, limit):
            assert_shuffles_alike(Scripted(7, [u]), Scripted(7, [u]), length, hex(u))

    @PROPERTY
    @given(st.integers(0, MAX_SEED), st.integers(0, 8))
    def test_take_is_k_scalar_steps(self, seed, k):
        fast, scalar = SplitMix64(seed), Scalar(seed)
        assert take(fast, k) == take(scalar, k)
        assert_same_state(fast, scalar)

    @pytest.mark.parametrize("k", range(9))
    def test_take_is_k_scalar_steps_where_the_state_wraps(self, k):
        for state in WRAP_STATES:
            fast, scalar = SplitMix64(state), Scalar(state)
            assert take(fast, k) == take(scalar, k), hex(state)
            assert_same_state(fast, scalar)

    def test_take_nothing(self):
        rng = SplitMix64(MAX_SEED)
        assert take(rng, 0) == ()
        assert_same_state(rng, SplitMix64(MAX_SEED))

    @pytest.mark.parametrize("length", [9, 17, 64])
    def test_shuffle_past_one_batch_is_scalar_fisher_yates(self, length):
        for seed in (0, 7, MAX_SEED, *WRAP_STATES):
            assert_shuffles_alike(SplitMix64(seed), Scalar(seed), length, hex(seed))

    @pytest.mark.parametrize("seed", [-1, SPAN, True, 1.5, "5", None])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        # -1 and 2**64 would alias 2**64 - 1 and 0
        with pytest.raises(ValueError, match="seed must be an int"):
            SplitMix64(seed)

    @pytest.mark.parametrize("n", [0, -3, SPAN + 1, True, 2.5, "3", None])
    def test_below_rejects_a_bound_outside_1_to_2_64(self, n):
        # above 2**64 no output is below the rejection limit, so it would
        # never return; True would return 0 and 2.5 a float
        with pytest.raises(ValueError, match="bound must be an int"):
            NoDraws(1).below(n)

    def test_below_2_64_is_the_output_itself(self):
        assert SplitMix64(0).below(SPAN) == 0xE220A8397B1DCDAF


def shuffled(rng: SplitMix64) -> tuple:
    items = list(DIGITS)
    rng.shuffle(items)
    return tuple(items)


class TestDrawStream:
    """The generator's draw stream is repeated `shuffle` of 1..9, and its
    state is never ahead of the draws it has handed out."""

    @PROPERTY
    @given(st.integers(0, MAX_SEED))
    def test_block_is_64_scalar_steps(self, seed):
        assert mix_block(seed) == take(Scalar(seed), 64)

    def test_block_is_64_scalar_steps_where_the_state_wraps(self):
        for seed in WRAP_STATES:
            assert mix_block(seed) == take(Scalar(seed), 64), hex(seed)

    @settings(PROPERTY, max_examples=60)
    @given(st.integers(0, MAX_SEED))
    def test_stream_is_repeated_shuffles_and_never_runs_ahead(self, seed):
        # 130 draws cross two blocks of eight; the states agree after each
        stream, twin = SplitMix64(seed), SplitMix64(seed)
        draws = shuffles(stream, DIGITS)
        assert state(stream) == state(twin)
        for n in range(1, 131):
            assert next(draws) == shuffled(twin), n
            assert state(stream) == state(twin), n

    @pytest.mark.parametrize("k", [1, 8, 9, 64, 65])
    @pytest.mark.parametrize("u", [MAX_SEED, SPAN - 9, SPAN - 10])
    def test_an_output_at_or_above_safe_is_drawn_by_shuffle(self, monkeypatch, u, k):
        # a real stream whose k-th output is u: at or above 2**64 - 9 the
        # block holding it is not used and `shuffle` makes the next draw;
        # 2**64 - 1 is rejected for the bounds 9, 7, 6, 5 and 3
        seed = seed_with_output(u, k)
        assert take(Scalar(seed), k)[-1] == u
        stream, twin = SplitMix64(seed), SplitMix64(seed)
        real, calls = SplitMix64.shuffle, []

        def counted(rng, items):
            calls.append(rng is stream)
            real(rng, items)

        monkeypatch.setattr(SplitMix64, "shuffle", counted)
        draws = shuffles(stream, DIGITS)
        for n in range(20):
            assert next(draws) == shuffled(twin), n
        assert_same_state(stream, twin)
        assert any(calls) == (u >= SPAN - 9)


class TestGenerator:
    def test_config_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_puzzles(PrescriptionRegime.NONE, True, 1, 0)

    @pytest.mark.parametrize("count", [True, 2.5, "3", None])
    def test_config_rejects_a_count_that_is_not_an_int(self, count):
        with pytest.raises(ValueError, match="count must be an int"):
            generate_puzzles(PrescriptionRegime.NONE, True, 1, count)

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, MAX_SEED + 6, True, 5.0, "5"])
    def test_config_rejects_a_seed_outside_64_bits(self, seed):
        # -1 and 2**64 + 5 would alias 2**64 - 1 and 5 in SplitMix64's state
        with pytest.raises(ValueError, match="seed must be an int"):
            generate_puzzles(PrescriptionRegime.NONE, False, seed, 1)

    @pytest.mark.parametrize(
        "regime, unique", [("none", True), ("none", False), (None, True), (None, False)]
    )
    def test_config_rejects_a_regime_that_is_not_a_prescription_regime(self, regime, unique):
        # the CLI's name "none" used to get as far as census or ClueSet and
        # raise AttributeError there
        with pytest.raises(ValueError, match="regime must be a PrescriptionRegime"):
            generate_puzzles(regime, unique, 7, 1)

    @pytest.mark.parametrize("unique", ["no", "", 0, 1, None])
    def test_config_rejects_require_unique_that_is_not_a_bool(self, unique):
        # "no" is truthy, so it used to generate unique puzzles quietly
        with pytest.raises(ValueError, match="require_unique must be a bool"):
            generate_puzzles(PrescriptionRegime.NONE, unique, 1, 2)

    def test_deterministic_per_config(self):
        args = (PrescriptionRegime.TOP_LEFT, True, 77, 10)
        assert generate_puzzles(*args) == generate_puzzles(*args)

    def test_different_seeds_differ(self):
        a = generate_puzzles(PrescriptionRegime.NONE, False, 1, 5)
        b = generate_puzzles(PrescriptionRegime.NONE, False, 2, 5)
        assert a != b

    def test_prescribed_cells_match_regime(self):
        for regime in PrescriptionRegime:
            (clue,) = generate_puzzles(regime, False, 3, 1)
            assert tuple((r, c) for r, c, _ in clue.prescribed) == regime.cells

    def test_unique_puzzles_really_are_unique(self):
        for regime in PrescriptionRegime:
            for clue in generate_puzzles(regime, True, 2026, 25):
                assert count_solutions(clue) == 1

    def test_full_diagonal_unique_uses_rigid_diagonals(self):
        puzzles = generate_puzzles(PrescriptionRegime.FULL_DIAGONAL, True, 8, 25)
        for clue in puzzles:
            diagonal = [v for _, _, v in clue.prescribed]
            assert classify_diagonal(diagonal).rigid

    def test_non_unique_generation_is_unfiltered_projection(self):
        (clue,) = generate_puzzles(PrescriptionRegime.NONE, False, 4, 1)
        assert clue.prescribed == ()
        assert sum(clue.row_sums) == 45

    def test_non_unique_draw_raises(self, monkeypatch):
        monkeypatch.setattr(generate, "count_solutions", lambda clue: 2)
        with pytest.raises(RuntimeError, match="non-unique"):
            generate_puzzles(PrescriptionRegime.NONE, True, 7, 1)


# SHA-256 of `fubuki generate ... --seed 7 --count 100` stdout, per regime.
GOLDEN_UNIQUE = {
    "full-diagonal": "7423f6e29644a152fa93bfa0b850d61717a12956320a7c1bddc42d745fb27d15",
    "first-two-diagonal": "432551e639a9efaa68146d22493450c5e0514a1193c0ce2d5893aecda7bfad45",
    "top-left": "6719d9c331be8d821aaee0daf17d6df4bc434cffc54b7fb706f8a6c1e66bc506",
    "none": "4fc41f92c19abdc385d63be5dda384985ac3046385502c720083fe45bc28b2ea",
}
GOLDEN_NOT_UNIQUE = {
    "full-diagonal": "60414fbc64f4e5b9b0fabde9cc85494cabc0afa0060948449925eb7d68795f52",
    "first-two-diagonal": "153295911ff0232d42a0b7ff4b4e81d4fd6c9be96ac80f2b76b5ab7b55e14cba",
    "top-left": "e8d5f26c48a584e4e94d5828cf3a7ea5d923da81325d40440452c1d60f380acf",
    "none": "edf7c13015ef189a17ca9f5b3888689b39b02310fac2c4c3be7ec33e730362a2",
}

# signature_key calls (one per rejection draw) at --seed 7 --count 100
DRAWS_SEED_7 = {
    PrescriptionRegime.FULL_DIAGONAL: 0,
    PrescriptionRegime.FIRST_TWO_DIAGONAL: 167,
    PrescriptionRegime.TOP_LEFT: 593,
    PrescriptionRegime.NONE: 15910,
}


class TestSeededOutput:
    def stdout_digest(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("regime", sorted(GOLDEN_UNIQUE))
    def test_unique_output_is_pinned(self, capsys, regime):
        argv = ["generate", "--regime", regime, "--unique", "--seed", "7", "--count", "100"]
        assert self.stdout_digest(capsys, argv) == GOLDEN_UNIQUE[regime]

    @pytest.mark.parametrize("regime", sorted(GOLDEN_NOT_UNIQUE))
    def test_non_unique_output_is_pinned(self, capsys, regime):
        argv = ["generate", "--regime", regime, "--seed", "7", "--count", "100"]
        assert self.stdout_digest(capsys, argv) == GOLDEN_NOT_UNIQUE[regime]

    def test_pins_and_input_checks_hold_under_optimize(self):
        # under -O every assert is gone, so neither may rest on one
        code = (
            "import contextlib, hashlib, io, sys\n"
            "from fubuki.cli import main\n"
            "from fubuki.rng import SplitMix64\n"
            "print(sys.flags.optimize)\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['generate', '--regime', 'none', '--unique', '--seed', '7',\n"
            "                 '--count', '100'])\n"
            "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "rng = SplitMix64(7)\n"
            "for bad in (lambda: SplitMix64(-1), lambda: SplitMix64(1.5),\n"
            "            lambda: rng.below(True), lambda: rng.below(2.5)):\n"
            "    try:\n"
            "        bad()\n"
            "    except ValueError:\n"
            "        print('ValueError')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        expected = f"1\n0 {GOLDEN_UNIQUE['none']}\n" + "ValueError\n" * 4
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")

    @pytest.mark.parametrize("regime", list(DRAWS_SEED_7), ids=lambda r: r.name)
    def test_one_key_per_draw_and_one_grid_per_puzzle(self, monkeypatch, regime):
        calls = {"key": 0, "grid": 0}
        census_module = sys.modules["fubuki.census"]
        key, post_init = census_module.signature_key, Grid.__post_init__

        def counted_key(cells, regime):
            calls["key"] += 1
            return key(cells, regime)

        def counted_post_init(self):
            calls["grid"] += 1
            post_init(self)

        monkeypatch.setattr(census_module, "signature_key", counted_key)
        monkeypatch.setattr(Grid, "__post_init__", counted_post_init)
        puzzles = generate_puzzles(regime, True, 7, 100)
        assert len(puzzles) == 100
        assert calls == {"key": DRAWS_SEED_7[regime], "grid": 100}


class TestLazyBuckets:
    def test_import_and_config_count_no_group(self):
        # a profile hook sees every call that builds or counts a group, those
        # made while the package imports included; "none" used to raise
        # KeyError from the drop lookup
        code = (
            "import sys\n"
            "calls, rejected = [], 0\n"
            "def hook(frame, event, arg):\n"
            f"    if event == 'call' and frame.f_code.co_name in {GROUP_STEPS!r}:\n"
            "        calls.append(1)\n"
            "sys.setprofile(hook)\n"
            "import fubuki.cli\n"
            "from fubuki import PrescriptionRegime, generate_puzzles\n"
            "configs = [(regime, 0) for regime in PrescriptionRegime]\n"
            "for config in configs + [('none', 1), (None, 1), (3, 1)]:\n"
            "    try:\n"
            "        generate_puzzles(config[0], True, 7, config[1])\n"
            "    except ValueError:\n"
            "        rejected += 1\n"
            "sys.setprofile(None)\n"
            "print(len(calls), rejected)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "0 7\n", "")

    def test_a_call_counts_only_the_groups_its_draws_land_in(self, monkeypatch, capsys):
        # `first-two-diagonal` groups its flags by the pair of its first two cells
        census_module = sys.modules["fubuki.census"]
        key = census_module.signature_key
        built, drawn = [], []

        def recorded_key(cells, regime):
            drawn.append(tuple(sorted((cells[0], cells[4]))))
            return key(cells, regime)

        forget_groups()
        before_each_held_group(monkeypatch, built.append)
        monkeypatch.setattr(census_module, "signature_key", recorded_key)
        argv = ["generate", "--regime", "first-two-diagonal", "--unique", "--seed", "7",
                "--count", "3"]
        assert main(argv) == 0
        first = capsys.readouterr()
        # each group is built once, when a draw first lands in it
        assert drawn and built == list(dict.fromkeys(drawn))
        assert len(built) < len(list(combinations(DIGITS, 2)))
        built.clear()
        drawn.clear()
        assert main(argv) == 0
        assert capsys.readouterr() == first
        assert drawn and built == []


@pytest.fixture(scope="module")
def held_groups():
    """Every group of each weaker regime, built afresh as the generator
    builds a group on a draw's first landing there."""
    return {regime: hold_every_group(regime) for regime in WEAKER}


class TestGroupFlags:
    def test_set_flags_are_the_multi_grid_buckets(self, held_groups, group_buckets):
        for regime, union in group_buckets.items():
            groups = held_groups[regime]
            if regime is PrescriptionRegime.FIRST_TWO_DIAGONAL:
                assert sorted(groups) == list(combinations(DIGITS, 2))
                flags = [row for rows in groups.values() for row in rows.values()]
                assert {len(row) for row in flags} == {LANES}
                orderings = 2  # a flag of {a, e} serves (a, e) and (e, a)
            else:
                assert sorted(groups) == list(FIRST_ROW_SUMS)
                flags, orderings = list(groups.values()), 1
            # every flag is a 0 or a 1, and one is set per multi-grid bucket
            assert all(row.count(0) + row.count(1) == len(row) for row in flags)
            assert orderings * sum(row.count(1) for row in flags) == len(union)

    @pytest.mark.parametrize("regime", WEAKER, ids=lambda r: r.name)
    def test_draws_are_rejected_exactly_in_multi_grid_buckets(
        self, monkeypatch, group_buckets, regime
    ):
        # the draw loop over all 9! grids in order, then one grid it takes, so
        # it tests every grid: it must take exactly those that the dict count
        # puts alone in their bucket, in order
        multi = group_buckets[regime]
        grids = list(permutations(DIGITS))
        unique = [cells for cells in grids if signature_key(cells, regime) not in multi]
        taken = draw_in_order(monkeypatch, grids + unique[:1])
        forget_groups()
        assert len(generate_puzzles(regime, True, 7, len(unique) + 1)) == len(unique) + 1
        assert taken == unique + unique[:1]

    def test_the_full_cache_stays_small(self, held_groups):
        # all 74 groups: about 3.0 MB of flags; the dict count's {key: size}
        # dicts of the 57 first row sum groups held 18.9 MB

        def held(value):
            if isinstance(value, dict):
                return sys.getsizeof(value) + sum(map(held, [*value, *value.values()]))
            return sys.getsizeof(value)

        assert held(held_groups) < 4 * 2**20


def first_group(regime):
    """The group seed 7's first draw lands in under `regime`, and the grids
    it holds."""
    cells = next(shuffles(SplitMix64(7), DIGITS))
    if regime is PrescriptionRegime.FIRST_TWO_DIAGONAL:
        return f"diagonal pair {tuple(sorted((cells[0], cells[4])))}", 5040
    r1 = sum(cells[:3])
    digit_sets = sum(sum(first) == r1 for first in combinations(DIGITS, 3))
    return f"group of first row sum {r1}", 4320 * digit_sets


R = PrescriptionRegime
HOLDS = r"holds \d+ grids, expected {}"


class TestGroupFaults:
    @pytest.mark.parametrize(
        "regime, fault, message",
        [
            pytest.param(R.FIRST_TWO_DIAGONAL, "drop_sum_orderings(monkeypatch)",
                         "holds 4200 grids, expected {}", id="pair-short"),
            pytest.param(R.FIRST_TWO_DIAGONAL, "carry_diagonal_lanes(monkeypatch)", HOLDS,
                         id="pair-carried"),
            pytest.param(R.FIRST_TWO_DIAGONAL,
                         "carry_diagonal_lanes(monkeypatch, internals.LANES - 1)",
                         "carried out of its top lane", id="pair-carried-out"),
            pytest.param(R.TOP_LEFT, "drop_row_orderings(monkeypatch)", HOLDS, id="top-left-short"),
            pytest.param(R.TOP_LEFT, "carry_dense_lanes(monkeypatch)", HOLDS,
                         id="top-left-carried"),
            pytest.param(R.NONE, "drop_row_orderings(monkeypatch)", HOLDS, id="none-short"),
            pytest.param(R.NONE, "carry_dense_lanes(monkeypatch)", HOLDS, id="none-carried"),
        ],
    )
    def test_a_faulty_group_raises_under_optimize(self, regime, fault, message):
        # a real raise, not an assert that -O strips, naming the regime and
        # the group of the first draw: dropped orderings lose grids, and a
        # lane that carries loses 255 of them or leaves its int
        code = (
            "import sys\n"
            f"sys.path.insert(0, {HERE!r})\n"
            "import pytest, internals\n"
            "from fubuki import PrescriptionRegime, generate_puzzles\n"
            "monkeypatch = pytest.MonkeyPatch()\n"
            f"internals.{fault}\n"
            "try:\n"
            f"    generate_puzzles(PrescriptionRegime.{regime.name}, True, 7, 1)\n"
            "except RuntimeError as error:\n"
            "    print(error)\n"
            "else:\n"
            "    raise SystemExit('accepted a faulty group')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        group, grids = first_group(regime)
        wanted = f"{regime.value} {re.escape(group)} {message.format(grids)}\n"
        assert re.fullmatch(wanted, result.stdout), result.stdout
