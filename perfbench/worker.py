"""Runs one benchmark workload in a fresh interpreter.

The harness (run.py) starts this script with `src` on PYTHONPATH and a JSON
spec on stdin, and reads the lines it prints:

    OP {"phase", "label", "ns", "cal_s", "rc", "out", ...}   one per operation
    DONE {"import_s", "rss_kb", "children_rss_kb", "trace"}

The program's own stdout is captured per call and travels in "out".
Between operations the worker times host-speed calibration slices
(hostspeed.py); "cal_s" is the mean slice time measured just before and just
after the operation's batch, and the harness uses it to normalise "ns". In
"measure" mode operations run until `seconds` have passed; in "fixed" mode a
seed-determined amount of work runs, so that a traced and an untraced pass
do the same operations and their outputs can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from itertools import islice

import hostspeed
import workloads as W
from tracer import Tracer

_REPORT = sys.stdout


def _emit(kind: str, record: dict) -> None:
    _REPORT.write(f"{kind} {json.dumps(record)}\n")


class _Runner:
    def __init__(self, spec: dict, tracer: Tracer | None) -> None:
        self.spec = spec
        self.tracer = tracer
        self.fixed = spec["mode"] == "fixed"
        self.deadline = 0.0
        self.pending: list[dict] = []
        self.last_cal: float | None = None

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.spec["seconds"]

    def more(self) -> bool:
        return time.perf_counter() < self.deadline

    def op(self, record: dict) -> None:
        """Hold an operation's record until the calibration after it is known."""
        self.pending.append(record)

    def calibrate(self, slices: int) -> None:
        """Time host-speed slices; emit the held records with the mean of the
        slices before and after them."""
        cal = hostspeed.calibrate(slices)
        before = cal if self.last_cal is None else self.last_cal
        for record in self.pending:
            record["cal_s"] = (before + cal) / 2
            _emit("OP", record)
        self.pending.clear()
        self.last_cal = cal

    def call(self, phase: str, label: str, name: str, fn, *args, **kwargs):
        """Time one operation; in a traced run it is also a span `name`."""
        if self.tracer is not None:
            self.tracer.context = f"{phase}:{label}"
            fn = self.tracer.wrap_fn(name, fn)
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        return result, time.perf_counter_ns() - start

    def cli(self, phase: str, label: str, argv: list[str], **extra) -> None:
        import fubuki.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc, ns = self.call(phase, label, "cli.main", fubuki.cli.main, argv)
        self.op({"phase": phase, "label": label, "ns": ns, "rc": rc,
                 "out": buf.getvalue(), **extra})

    def verify(self) -> None:
        """Rounds of one call at each thread count, own count first."""
        own, other = self.spec["threads"], self.spec["other_threads"]
        plan = [own] if own == other else [own, other]
        rounds = 0
        self.start_clock()
        self.calibrate(W.CAL_SLICES["verify"])
        while (self.fixed and rounds < 1) or (not self.fixed and self.more()):
            for threads in plan:
                self.cli("timed", f"threads={threads}",
                         ["verify", "--all", "--threads", str(threads)], round=rounds)
                self.calibrate(W.CAL_SLICES["verify"])
            rounds += 1

    def solve(self) -> None:
        from fubuki import ClueSet, Grid, PrescriptionRegime, solve

        def clue_of(spec):
            label, regime, cells, sums = spec
            regime = PrescriptionRegime.parse(regime)
            if sums is None:
                return ClueSet.from_grid(Grid(cells), regime)
            prescribed = tuple((r, c, cells[3 * r + c - 4]) for r, c in regime.cells)
            return ClueSet(prescribed, sums[:3], sums[3:])

        stream = W.solve_stream(self.spec["seed"])
        left = self.spec["solves"] if self.fixed else None
        self.start_clock()
        while (left is None or left > 0) and (self.fixed or self.more()):
            # inputs are built ahead of the timed calls, a batch at a time
            batch = list(islice(stream, W.SOLVE_BATCH if left is None
                                else min(left, W.SOLVE_BATCH)))
            clues = [clue_of(spec) for spec in batch]
            self.calibrate(W.CAL_SLICES["solve"])
            for spec, clue in zip(batch, clues):
                if not self.fixed and not self.more():
                    break
                result, ns = self.call("timed", spec[0], "solver.solve", solve,
                                       clue, limit=W.SOLVE_LIMIT)
                grids = " ".join("".join(map(str, g.cells)) for g in result.solutions)
                self.op({"phase": "timed", "label": spec[0], "ns": ns, "rc": 0,
                         "out": f"{result.count} {int(result.truncated)} {grids}"})
            if left is not None:
                left -= len(batch)
        self.calibrate(W.CAL_SLICES["solve"])

    def generate(self) -> None:
        count = self.spec["generate_count"]
        seeds = W.generate_seeds(self.spec["seed"])

        def run_round(phase: str, seed: int, n: int, round_index: int) -> None:
            for regime in W.REGIMES:
                self.calibrate(W.CAL_SLICES["generate"])
                self.cli(phase, regime,
                         ["generate", "--regime", regime, "--unique",
                          "--seed", str(seed), "--count", str(n)],
                         seed=seed, count=n, round=round_index)

        # set-up: the first call per regime builds that regime's buckets
        run_round("setup", next(seeds), 1, -1)
        first = None
        rounds = 0
        self.start_clock()
        while (self.fixed and rounds < self.spec["generate_rounds"]) or (
            not self.fixed and self.more()
        ):
            seed = next(seeds)
            first = seed if first is None else first
            run_round("timed", seed, count, rounds)
            rounds += 1
        # determinism guard: the first timed round again, untimed
        run_round("repeat", first, count, 0)
        self.calibrate(W.CAL_SLICES["generate"])


def _setup_tracer(tracer: Tracer) -> None:
    from fubuki.core import Grid
    from fubuki.rng import SplitMix64

    cli = sys.modules["fubuki.cli"]
    # `import fubuki.census` would bind the census() function the package
    # re-exports under the submodule's name, so go through sys.modules.
    census = sys.modules["fubuki.census"]
    generate = sys.modules["fubuki.generate"]
    for name in ("census", "census_all", "closed_form_puzzle_count",
                 "companion_scan", "companion_oracle_mismatches"):
        tracer.wrap(cli, name, f"census.{name}")
    tracer.wrap(cli, "generate_puzzles", "generate.generate_puzzles")
    tracer.wrap(census, "companion_cells", "theory.companion_cells", "agg")
    tracer.wrap(census, "signature_key", "census.signature_key", "agg")
    tracer.wrap(generate, "count_solutions", "solver.count_solutions", "agg")
    tracer.wrap(SplitMix64, "shuffle", "rng.shuffle", "agg")
    tracer.wrap(SplitMix64, "next_u64", "rng.next_u64", "count")
    tracer.wrap(Grid, "__post_init__", "core.grid_init", "agg")


def _peak_rss_kb() -> int:
    """This process's peak resident set.

    ru_maxrss would also count the harness's memory, which Linux carries
    across the exec that started this interpreter; VmHWM belongs to this
    address space alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.load(sys.stdin)
    start = time.perf_counter()
    import fubuki.cli  # noqa: F401  (the program's import is what is timed)

    import_s = time.perf_counter() - start
    tracer = Tracer() if spec["trace"] else None
    runner = _Runner(spec, tracer)
    if tracer is not None:
        _setup_tracer(tracer)
    try:
        getattr(runner, spec["workload"])()
    finally:
        if tracer is not None:
            tracer.restore()
    _emit("DONE", {
        "import_s": import_s,
        "rss_kb": _peak_rss_kb(),
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracer.report() if tracer is not None else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
