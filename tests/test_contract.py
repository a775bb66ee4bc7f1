"""The argument contract: a public callable given an argument it cannot use
raises ValueError, never TypeError, AttributeError, IndexError or KeyError.

Every public callable that takes arguments, and the public methods, is
called with every combination of junk values over its required parameters.
A callable with a valid argument tuple below is also called with each junk
value at each position in turn and valid values everywhere else, so every
parameter's check is reached, not only the first; for three or more
parameters that sweep replaces the full product.
"""

import inspect
from itertools import product

import pytest

import fubuki
from fubuki import CensusReport, ClueSet, Grid, PrescriptionRegime, SplitMix64
import internals

# argument-free sweeps: no argument to get wrong, and each takes seconds
SWEEPS = {"census_all", "closed_form_puzzle_count", "companion_scan", "build_shift_table"}


def junk() -> list:
    # built afresh for each call: shuffle mutates its list
    return [None, True, 1.5, "none", "6", b"\x01", [], {}, {1: "x"}, (), float("nan"), -1,
            0, 5, 6.0, 2**70, [1, 2, 3], (1, 2, 3), object(), set()]


SHOWCASE = Grid.from_rows([(1, 4, 5), (7, 2, 6), (8, 9, 3)])

CALLABLES = {
    **{
        name: getattr(fubuki, name)
        for name in fubuki.__all__
        if callable(getattr(fubuki, name)) and name not in SWEEPS
    },
    "Grid.from_rows": Grid.from_rows,
    "Grid.from_dict": Grid.from_dict,
    "ClueSet.from_grid": ClueSet.from_grid,
    "ClueSet.satisfied_by": ClueSet.from_grid(SHOWCASE, PrescriptionRegime.NONE).satisfied_by,
    "ClueSet.from_dict": ClueSet.from_dict,
    "PrescriptionRegime.parse": PrescriptionRegime.parse,
    "SplitMix64.below": SplitMix64(1).below,
    "SplitMix64.choice": SplitMix64(1).choice,
    "SplitMix64.shuffle": SplitMix64(1).shuffle,
    # the generator's group counting, which tests reach through internals
    "internals.group_multi_buckets": internals.group_multi_buckets,
}

VALID = {
    "generate_puzzles": (PrescriptionRegime.NONE, False, 7, 1),
    "ClueSet": ((), (6, 15, 24), (6, 15, 24)),
    "ClueSet.from_grid": (SHOWCASE, PrescriptionRegime.NONE),
    "companion_oracle_mismatches": ({}, []),
    "CensusReport": (PrescriptionRegime.NONE, {1: 362880}, None),
    "internals.group_multi_buckets": (PrescriptionRegime.NONE, 15),
}

# documented errors besides ValueError: a report refuses a well-typed
# histogram that does not hold 9! grids, as junk {} for `sizes` is
ALSO_RAISES = {"CensusReport": RuntimeError}


def required_parameters(func) -> int:
    if isinstance(func, type) and issubclass(func, Exception):
        return 1  # builtin signature: one message argument
    return sum(
        p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        for p in inspect.signature(func).parameters.values()
    )


def argument_lists(name: str, func):
    valid = VALID.get(name, ())
    for i in range(len(valid)):
        for value in junk():
            if name == "generate_puzzles" and i == 3 and value == 2**70:
                continue  # a real count, whose list would never finish
            yield [*valid[:i], value, *valid[i + 1 :]]
    if len(valid) < 3:
        for picks in product(range(len(junk())), repeat=required_parameters(func)):
            values = junk()
            yield [values[i] for i in picks]


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_junk_arguments_raise_only_value_error(name):
    func = CALLABLES[name]
    leaks, checked = [], set()
    for args in argument_lists(name, func):
        try:
            func(*args)
        except ValueError as exc:
            checked.add(str(exc).split()[0])
        except ALSO_RAISES.get(name, ()):
            pass
        except Exception as exc:
            leaks.append(f"{name}{tuple(args)!r}: {type(exc).__name__}: {exc}")
    assert not leaks, f"{len(leaks)} leaks, the first: {leaks[:3]}"
    if name in VALID:
        # each parameter's own check raised at least once
        assert set(inspect.signature(func).parameters) <= checked


def test_the_oracle_refuses_pairs_that_are_not_18_byte_bytes_values():
    # checked once, on entry: junk as the list, a pair that is not bytes, or
    # a bytes pair of another length; an 18-byte pair that is no grid is read
    pair = bytes(range(1, 10)) * 2
    refused = [value for value in junk() if value != []]
    refused += [[pair, value] for value in [*junk(), (1,) * 18, bytearray(pair), memoryview(pair)]]
    refused += [[pair, bytes(length)] for length in (0, 1, 8, 9, 17, 19, 40)]
    for pairs in refused:
        with pytest.raises(ValueError, match="^pairs must be a list of 18-byte bytes values, got "):
            fubuki.companion_oracle_mismatches({}, pairs)
    assert fubuki.companion_oracle_mismatches({}, []) == []
    assert fubuki.companion_oracle_mismatches({}, [bytes(18)]) == [
        f"pair {(0,) * 9} -> {(0,) * 9}: not both permutations of 1..9"
    ]


@pytest.mark.parametrize("key", [None, True, "a", 1.5, (1,)])
def test_a_multi_key_that_is_not_an_int_is_refused(key):
    # a multi of int values but a junk key; True would be read as key 1
    multi = {key: 2}
    with pytest.raises(ValueError) as oracle_error:
        fubuki.companion_oracle_mismatches(multi, [])
    with pytest.raises(ValueError) as report_error:
        CensusReport(PrescriptionRegime.FULL_DIAGONAL, {1: 362878, 2: 1}, multi)
    assert str(oracle_error.value) == f"multi must be a dict of ints, got {multi!r}"
    assert str(report_error.value) == f"multi must be None or a dict of ints, got {multi!r}"


def test_a_long_rejected_value_is_cut_in_the_message(full_scan):
    # shown whole, these two messages ran to 1,671,464 and 1,188,932 characters
    pairs = [*full_scan, b"x"]
    multi = {key: "x" for key in range(100_000)}
    with pytest.raises(ValueError) as scan_error:
        fubuki.companion_oracle_mismatches({}, pairs)
    with pytest.raises(ValueError) as report_error:
        CensusReport(PrescriptionRegime.NONE, {1: 362880}, multi)
    assert str(scan_error.value) == (
        f"pairs must be a list of 18-byte bytes values, got {repr(pairs)[:200]}..."
    )
    assert str(report_error.value) == (
        f"multi must be None or a dict of ints, got {repr(multi)[:200]}..."
    )


@pytest.mark.parametrize("length, cut", [(197, False), (198, True)])
def test_a_repr_is_cut_only_past_200_characters(length, cut):
    value = b"x" * length  # its repr is 3 characters longer
    with pytest.raises(ValueError) as error:
        PrescriptionRegime.parse(value)
    shown = repr(value)[:200] + "..." if cut else repr(value)
    assert str(error.value) == f"regime must be a str, got {shown}"
