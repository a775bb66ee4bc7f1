"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`.

They run the workloads in smoke mode (reduced sizes; about a minute in all)
and feed the answer checks deliberately wrong outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


_runs: dict[tuple, tuple[list[str], dict]] = {}


def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    """Report lines and final JSON of one smoke run, shared between tests."""
    if (workload, trace) not in _runs:
        out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        _runs[workload, trace] = lines[:-1], json.loads(lines[-1])
    return _runs[workload, trace]


@pytest.fixture(scope="module")
def reference():
    return ref.build_reference()


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"][1] == "perfbench/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_unit_and_sample_count(workload, trace):
    lines, result = smoke(workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        printed = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
        assert len(printed) == 1 and printed[0][2] == m["unit"]
        assert printed[0][3].startswith("n=")


def test_end_to_end_metrics_are_never_zero():
    for workload in run.WORKLOADS:
        _, result = smoke(workload, 0)
        assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_issue_named_figures_are_printed():
    names = {
        "verify": ["verify_s", "verify_serial_s", "setup_s", "peak_rss_mb", "failed_frac",
                   "verify_raw_s", "verify_serial_raw_s"],
        "solve": ["solve_p50_ms", "solve_p99_ms", "solve_per_s", "failed_frac",
                  "latency_p50_raw_ms", "solve_p50_raw_ms"],
        "generate": ["generate_per_s", "setup_s", "failed_frac", "setup_raw_s",
                     "generate_raw_per_s"],
    }
    for workload, wanted in names.items():
        lines, _ = smoke(workload, 0)
        printed = {ln.split()[0] for ln in lines if ln.startswith("  ")}
        assert set(wanted) <= printed, workload


def test_a_slow_host_cancels_out():
    harness = run.Harness(seed=0, seconds=1, smoke=True)
    done = {"rss_kb": 1024, "children_rss_kb": 0}

    def ops(slowdown):
        return [{"phase": "timed", "label": f"threads={t}", "round": r,
                 "ns": int(ns * slowdown), "cal_s": 0.005 * slowdown}
                for r, ns in enumerate((4e9, 5e9, 6e9)) for t in (2, 1)]

    fast, fast_named = harness.end_to_end("verify", ops(1.0), done, [0.1], [0.1])
    slow, slow_named = harness.end_to_end("verify", ops(1.7), done, [0.1], [0.17])
    for name in ("latency_p50_ms", "throughput_per_s"):
        assert slow[name].value == pytest.approx(fast[name].value)
    assert fast["latency_p50_ms"].value == pytest.approx(
        10e3 * hostspeed.REFERENCE_SLICE_S / 0.005)
    assert slow_named["latency_p50_raw_ms"].value == pytest.approx(17e3)
    assert fast_named["verify_serial_s"].n == 3


def test_exact_counts_repeat():
    exact = ["solver.solutions_found", "rng.next_u64_per_puzzle",
             *(f"generate.draws_per_puzzle.{r}" for r in W.REGIMES[1:])]
    for workload in ("solve", "generate"):
        _, first = smoke(workload, 1)
        again = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--smoke")
        second = json.loads(again.stdout.splitlines()[-1])
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], name
    _, generate = smoke("generate", 1)
    assert generate["metrics"]["generate.draws_per_puzzle.none"]["value"] > 1


def test_wrong_answers_are_counted(reference):
    from itertools import permutations

    spec = next(
        s for s in W.solve_stream(0) if s[0] == "top-left"
        and reference["top-left"][ref.clue_key(W.line_sums(s[2]), s[2][:1])] > 1
    )
    cells = spec[2]
    source = "".join(map(str, cells))
    answers = [
        "".join(map(str, p)) for p in permutations(range(1, 10))
        if p[0] == cells[0] and W.line_sums(p) == W.line_sums(cells)
    ]
    n = len(answers)
    assert n > 1 and source in answers

    def out(count, truncated, grids):
        return f"{count} {truncated} " + " ".join(grids)

    assert ref.check_solve(spec, out(n, 0, answers), reference) == []
    others = [g for g in answers if g != source]
    broken = source[1] + source[0] + source[2:]
    wrong = [
        out(n - 1, 0, others),                  # the source grid missing
        out(n, 0, others + [broken]),           # a grid that breaks the clues
        out(n, 1, answers),                     # truncated although complete
        out(n, 0, answers[:-1] + answers[:1]),  # a solution listed twice
    ]
    for text in wrong:
        assert ref.check_solve(spec, text, reference), text

    expected = ref.expected_verify_text(reference)
    assert ref.check_verify(0, expected, expected) == []
    assert ref.check_verify(0, expected.replace("PASS", "FAIL", 1), expected)
    assert ref.check_verify(3, expected, expected)

    # the harness counts one failure per wrong operation
    harness = run.Harness(seed=0, seconds=1, smoke=True)
    harness._reference = reference
    op = {"phase": "timed", "label": "threads=1", "rc": 0, "out": expected}
    ops = [op, dict(op, rc=3), dict(op, out=expected[:-1]), op]
    assert len(harness.check("verify", ops, [])) == 2

    sums = W.line_sums(cells)
    puzzle = json.dumps({"prescribed": [{"row": 1, "col": 1, "value": cells[0]}],
                         "row_sums": list(sums[:3]), "col_sums": list(sums[3:])})
    assert ref.check_generate("top-left", 1, 0, puzzle + "\n", reference)  # not unique
    unique = next(p for p in permutations(range(1, 10))
                  if reference["none"][ref.clue_key(W.line_sums(p), ())] == 1)
    sums = W.line_sums(unique)
    puzzle = json.dumps({"prescribed": [], "row_sums": list(sums[:3]),
                         "col_sums": list(sums[3:])})
    assert ref.check_generate("none", 1, 0, puzzle + "\n", reference) == []
    assert ref.check_generate("none", 2, 0, puzzle + "\n", reference)   # one too few
    assert ref.check_generate("top-left", 1, 0, puzzle + "\n", reference)  # wrong regime
    op = {"phase": "timed", "label": "none", "rc": 0, "seed": 1, "count": 1,
          "out": puzzle + "\n"}
    ops = [op, dict(op, seed=2, out=""), dict(op, phase="repeat", out=puzzle + " \n")]
    # an empty output, and a repeat whose output differs from the first run
    assert len(harness.check("generate", ops, [])) == 2


def test_tracer_records_and_restores():
    module = types.ModuleType("m")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module.leaf, module.outer = leaf, outer

    class Counter:
        def tick(self):
            return 1

    tracer = Tracer()
    tracer.wrap(module, "outer", "m.outer")
    tracer.wrap(module, "leaf", "m.leaf", "agg")
    tracer.wrap(Counter, "tick", "m.tick", "count")
    tracer.context = "c"
    assert module.outer(1) == 4 and Counter().tick() == 1
    report = tracer.report()
    (name, context, start, end, parent, own), = report["spans"]
    assert (name, context, parent) == ("m.outer", "c", -1)
    (ctx, leaf_name, calls, total, leaf_own), = report["agg"]
    assert (ctx, leaf_name, calls) == ("c", "m.leaf", 1)
    assert own == pytest.approx(end - start - total)
    assert report["counts"] == [["c", "m.tick", 1]]
    tracer.restore()
    assert module.outer is outer and module.leaf is leaf
    assert Counter.__dict__["tick"].__name__ == "tick"


def test_fails_without_the_program():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = _bench("--workload", "solve", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert not out.stdout.strip()
