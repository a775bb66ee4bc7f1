import pytest

from fubuki import (
    GeneratorConfig,
    PrescriptionRegime,
    classify_diagonal,
    count_solutions,
    generate,
    generate_puzzles,
)
from fubuki.rng import SplitMix64


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


class TestGenerator:
    def test_config_rejects_bad_count(self):
        with pytest.raises(ValueError):
            GeneratorConfig(PrescriptionRegime.NONE, True, 1, 0)

    def test_deterministic_per_config(self):
        config = GeneratorConfig(PrescriptionRegime.TOP_LEFT, True, 77, 10)
        assert generate_puzzles(config) == generate_puzzles(config)

    def test_different_seeds_differ(self):
        a = generate_puzzles(GeneratorConfig(PrescriptionRegime.NONE, False, 1, 5))
        b = generate_puzzles(GeneratorConfig(PrescriptionRegime.NONE, False, 2, 5))
        assert a != b

    def test_prescribed_cells_match_regime(self):
        for regime in PrescriptionRegime:
            (clue,) = generate_puzzles(GeneratorConfig(regime, False, 3, 1))
            assert tuple((r, c) for r, c, _ in clue.prescribed) == regime.cells

    def test_unique_puzzles_really_are_unique(self):
        for regime in PrescriptionRegime:
            for clue in generate_puzzles(GeneratorConfig(regime, True, 2026, 25)):
                assert count_solutions(clue) == 1

    def test_full_diagonal_unique_uses_rigid_diagonals(self):
        puzzles = generate_puzzles(
            GeneratorConfig(PrescriptionRegime.FULL_DIAGONAL, True, 8, 25)
        )
        for clue in puzzles:
            diagonal = [v for _, _, v in clue.prescribed]
            assert classify_diagonal(diagonal).rigid

    def test_non_unique_generation_is_unfiltered_projection(self):
        (clue,) = generate_puzzles(GeneratorConfig(PrescriptionRegime.NONE, False, 4, 1))
        assert clue.prescribed == ()
        assert sum(clue.row_sums) == 45

    def test_non_unique_draw_raises(self, monkeypatch):
        monkeypatch.setattr(generate, "count_solutions", lambda clue: 2)
        with pytest.raises(RuntimeError, match="non-unique"):
            generate_puzzles(GeneratorConfig(PrescriptionRegime.NONE, True, 7, 1))
