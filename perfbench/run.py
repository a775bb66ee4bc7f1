"""The fubuki benchmark: one workload per run, checked against an answer key.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    verify    fubuki.cli.main(["verify", "--all", "--threads", T]), in rounds of
              one call at T = min(2, nproc) and one at T = 1
    solve     solve(clue, limit=1000) over a seeded, shuffled puzzle mix
    generate  fubuki.cli.main(["generate", "--unique", ...]) for each regime

With --trace 0 the workload runs untraced for --seconds and the end-to-end
metrics are printed; their times are normalised to a reference host speed
measured beside every operation (hostspeed.py), with the raw wall times
printed next to them. With --trace 1 a fixed, seed-determined amount of the
workload runs twice, untraced then traced (tracer.py), in two fresh
interpreters; the two outputs must match byte for byte, and the per-layer
metrics come from the traced pass. `--workload all` runs every workload in
turn. Human-readable lines come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Every run first builds its own answer key over all 9! grids (reference.py)
and checks every output the program gives against it; a wrong output counts
as a failed operation. The harness writes the run record and the trace to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import hostspeed
import reference as ref
import workloads as W

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

WORKLOADS = ("verify", "solve", "generate")
# Every workload run must end well inside 180 seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "census.census_all_s": "s",
    "census.sweep_grids_per_s": "grids/s",
    "census.parallel_speedup": "ratio",
    "census.companion_scan_s": "s",
    "census.companion_oracle_s": "s",
    "census.bucket_build_s": "s",
    "theory.companion_cells_calls": "count",
    "theory.companion_cells_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    **{f"solver.solve_p50_ms.{r}": "ms" for r in W.REGIMES},
    **{f"solver.solve_p99_ms.{r}": "ms" for r in W.REGIMES},
    "solver.unsat_p50_ms": "ms",
    "solver.solutions_found": "count",
    "solver.count_solutions_s": "s",
    "core.grid_inits_per_op": "count",
    "core.grid_init_s": "s",
    "rng.next_u64_per_puzzle": "count",
    "rng.shuffle_s": "s",
    **{f"generate.draws_per_puzzle.{r}": "count" for r in W.REGIMES[1:]},
    **{f"generate.puzzles_per_s.{r}": "puzzles/s" for r in W.REGIMES},
    "trace.overhead_frac": "ratio",
}

# Fresh-interpreter set-up, timed from outside: import, plus for `generate`
# the first `--count 1` call per regime, which pays that regime's bucket sweep.
# The generate set-up prints each call's exit code and output digest.
_IMPORT_SETUP = "import fubuki.cli"
_GENERATE_SETUP = """
import contextlib, hashlib, io, sys
import fubuki.cli
for regime in sys.argv[2:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fubuki.cli.main(["generate", "--regime", regime, "--unique",
                              "--seed", sys.argv[1], "--count", "1"])
    print(rc, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""
SETUP_SAMPLES = {"verify": 11, "solve": 11, "generate": 3}
# Host-speed slices timed by the harness before and after each set-up.
SETUP_CAL_SLICES = 20


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Metric(NamedTuple):
    value: float
    unit: str
    n: int  # samples behind the value


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Harness:
    def __init__(self, seed: int, seconds: int, smoke: bool) -> None:
        self.seed, self.seconds, self.smoke = seed, seconds, smoke
        self.deadline = 0.0
        self.nproc = _nproc()
        self.parallel = min(2, self.nproc)
        self.processes_started = 0
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self._reference = None

    @property
    def reference(self) -> dict[str, dict[int, int]]:
        if self._reference is None:
            self._reference = ref.build_reference()
        return self._reference

    # -- processes ---------------------------------------------------------

    def _run(self, what: str, argv: list[str], stdin: str = "") -> str:
        """Run a child to completion within the run's budget; return stdout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a process")
        self.processes_started += 1
        with subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self.env, cwd=ROOT, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(stdin, timeout=timeout)
            except subprocess.TimeoutExpired:
                # the group also holds any pool workers the program forked
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{what} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}: {err.strip()[-2000:]}")
        return out

    def measure_setup(self, kind: str, setup_seed: int
                      ) -> tuple[list[float], list[float], list[list[str]]]:
        """Wall times of fresh set-ups, the same normalised to the reference
        host speed, and each generate set-up's output."""
        if kind == "generate":
            argv = [sys.executable, "-c", _GENERATE_SETUP, str(setup_seed), *W.REGIMES]
        else:
            argv = [sys.executable, "-c", _IMPORT_SETUP]
        times, outputs = [], []
        cals = [hostspeed.calibrate(SETUP_CAL_SLICES)]
        for _ in range(1 if self.smoke else SETUP_SAMPLES[kind]):
            start = time.perf_counter()
            out = self._run("set-up", argv)
            times.append(time.perf_counter() - start)
            outputs.append(out.split("\n")[:-1])
            cals.append(hostspeed.calibrate(SETUP_CAL_SLICES))
        normalised = [hostspeed.normalise(t, (before + after) / 2)
                      for t, before, after in zip(times, cals, cals[1:])]
        return times, normalised, outputs

    def run_worker(self, spec: dict) -> tuple[list[dict], dict]:
        out = self._run("the worker", [sys.executable, str(WORKER)], json.dumps(spec))
        ops, done = [], None
        for line in out.splitlines():
            kind, _, payload = line.partition(" ")
            if kind == "OP":
                ops.append(json.loads(payload))
            elif kind == "DONE":
                done = json.loads(payload)
        if done is None:
            raise BenchError("the worker ended without a summary")
        return ops, done

    # -- checks --------------------------------------------------------------

    def check(self, kind: str, ops: list[dict], setup_outputs: list[list[str]]) -> list[str]:
        """Problems found in the workload's outputs, one entry per bad operation."""
        problems: list[str] = []

        def note(op: dict, found: list[str]) -> None:
            if found:
                problems.append(f"{op['phase']} {op['label']}: {'; '.join(found[:3])}")

        if kind == "verify":
            expected = ref.expected_verify_text(self.reference)
            for op in ops:
                note(op, ref.check_verify(op["rc"], op["out"], expected))
        elif kind == "solve":
            specs = islice(W.solve_stream(self.seed), len(ops))
            for spec, op in zip(specs, ops):
                found = ref.check_solve(spec, op["out"], self.reference)
                if op["label"] != spec[0]:
                    found.append(f"ran input {op['label']}, stream has {spec[0]}")
                note(op, found)
        else:
            seen: dict[tuple, set[str]] = {}
            for op in ops:
                note(op, ref.check_generate(op["label"], op["count"], op["rc"], op["out"],
                                            self.reference))
                key = (op["label"], op["seed"], op["count"])
                seen.setdefault(key, set()).add(f"{op['rc']} {_digest(op['out'])}")
            setup_seed = next(W.generate_seeds(self.seed))
            for lines in setup_outputs:
                for regime, line in zip(W.REGIMES, lines):
                    seen.setdefault((regime, setup_seed, 1), set()).add(line)
            for key, digests in seen.items():
                if len(digests) > 1:
                    problems.append(f"generate {key} printed {len(digests)} different outputs")
        return problems

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, workload: str, ops: list[dict], done: dict, setup: list[float],
                   setup_raw: list[float]) -> tuple[dict[str, Metric], dict[str, Metric]]:
        """The metrics BENCHMARK.json names, with times normalised to the
        reference host speed; and, printed but not in the JSON, the raw
        wall-time figures and the figures under the defining issue's names."""
        timed = [op for op in ops if op["phase"] == "timed"]
        rss_kb = max(done["rss_kb"], done["children_rss_kb"])
        figures = {"peak_rss_mb": Metric(rss_kb / 1024, "MB", 1)}
        for suffix, times, op_ns in (("", setup, _norm_ns),
                                     ("_raw", setup_raw, lambda op: op["ns"])):
            latencies, results, busy_ns = _latencies(workload, timed, op_ns)
            p50 = Metric(statistics.median(latencies) / 1e6, "ms", len(latencies))
            rate = results / busy_ns * 1e9
            figures[f"setup{suffix}_s"] = Metric(statistics.median(times), "s", len(times))
            figures[f"latency_p50{suffix}_ms"] = p50
            figures[f"throughput{suffix}_per_s"] = Metric(rate, "1/s", results)
            if workload == "verify":
                for name, threads in (("verify", self.parallel), ("verify_serial", 1)):
                    calls = [op_ns(op) / 1e9 for op in timed
                             if op["label"] == f"threads={threads}"]
                    figures[f"{name}{suffix}_s"] = Metric(statistics.median(calls), "s",
                                                          len(calls))
            elif workload == "solve":
                p99 = _percentile(latencies, 0.99) / 1e6
                figures[f"solve_p50{suffix}_ms"] = p50
                figures[f"solve_p99{suffix}_ms"] = Metric(p99, "ms", p50.n)
                figures[f"solve{suffix}_per_s"] = Metric(rate, "puzzles/s", results)
            else:
                figures[f"generate{suffix}_per_s"] = Metric(rate, "puzzles/s", results)
        metrics = {name: figures.pop(name) for name in END_TO_END}
        return metrics, figures

    def per_layer(self, kind: str, ops: list[dict], done: dict,
                  untraced_ops: list[dict]) -> dict[str, Metric]:
        trace = done["trace"]
        spans = trace["spans"]
        agg: dict[tuple[str, str], list[float]] = {(c, n): v for c, n, *v in trace["agg"]}
        counts = {(c, n): v for c, n, v in trace["counts"]}
        timed = [op for op in ops if op["phase"] == "timed"]
        if kind == "verify":
            timed = [op for op in timed if op["label"] == f"threads={self.parallel}"]
        contexts = {f"timed:{op['label']}" for op in timed}
        results = sum(op.get("count", 1) for op in timed)

        def span_s(name: str, ctxs) -> float:
            return sum(s[3] - s[2] for s in spans if s[0] == name and s[1] in ctxs)

        def agg_sum(name: str, ctxs, field: int) -> float:
            return sum(v[field] for (c, n), v in agg.items() if n == name and c in ctxs)

        def count(name: str, ctxs) -> int:
            return sum(v for (c, n), v in counts.items() if n == name and c in ctxs)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, Metric] = {}

        def put(name: str, value: float, n: int) -> None:
            m[name] = Metric(value, PER_LAYER[name], n)

        census_all = span_s("census.census_all", contexts)
        serial = span_s("census.census_all", {"timed:threads=1"})
        parallel = span_s("census.census_all", {f"timed:threads={self.parallel}"})
        n_verify = len(timed) if kind == "verify" else 0
        put("census.census_all_s", census_all, n_verify)
        put("census.sweep_grids_per_s", ratio(ref.TOTAL_GRIDS * n_verify, census_all), n_verify)
        put("census.parallel_speedup", ratio(serial, parallel), n_verify)
        put("census.companion_scan_s", span_s("census.companion_scan", contexts), n_verify)
        put("census.companion_oracle_s",
            span_s("census.companion_oracle_mismatches", contexts), n_verify)
        weak_setup = {f"setup:{r}" for r in W.REGIMES[1:]}
        put("census.bucket_build_s", span_s("generate.generate_puzzles", weak_setup),
            len(weak_setup) if kind == "generate" else 0)
        put("theory.companion_cells_calls", agg_sum("theory.companion_cells", contexts, 0),
            n_verify)
        put("theory.companion_cells_s", agg_sum("theory.companion_cells", contexts, 1), n_verify)
        put("cli.import_s", done["import_s"], 1)
        cli_spans = [s for s in spans if s[0] == "cli.main" and s[1] in contexts]
        put("cli.self_s", sum(s[5] for s in cli_spans), len(cli_spans))

        solves = timed if kind == "solve" else []
        for regime in W.REGIMES:
            ms = [op["ns"] / 1e6 for op in solves if op["label"] == regime]
            put(f"solver.solve_p50_ms.{regime}", statistics.median(ms) if ms else 0.0, len(ms))
            put(f"solver.solve_p99_ms.{regime}", _percentile(ms, 0.99) if ms else 0.0, len(ms))
        unsat = [op["ns"] / 1e6 for op in solves
                 if op["label"] == W.RANDOM_SUMS and op["out"].startswith("0 ")]
        put("solver.unsat_p50_ms", statistics.median(unsat) if unsat else 0.0, len(unsat))
        put("solver.solutions_found", sum(int(op["out"].split()[0]) for op in solves),
            len(solves))
        put("solver.count_solutions_s", agg_sum("solver.count_solutions", contexts, 1),
            int(agg_sum("solver.count_solutions", contexts, 0)))

        put("core.grid_inits_per_op", ratio(agg_sum("core.grid_init", contexts, 0), results),
            results)
        put("core.grid_init_s", agg_sum("core.grid_init", contexts, 1),
            int(agg_sum("core.grid_init", contexts, 0)))
        puzzles = results if kind == "generate" else 0
        put("rng.next_u64_per_puzzle", ratio(count("rng.next_u64", contexts), puzzles), puzzles)
        put("rng.shuffle_s", agg_sum("rng.shuffle", contexts, 1),
            int(agg_sum("rng.shuffle", contexts, 0)))
        made = {r: sum(op["count"] for op in timed if kind == "generate" and op["label"] == r)
                for r in W.REGIMES}
        for regime in W.REGIMES[1:]:
            draws = agg_sum("census.signature_key", {f"timed:{regime}"}, 0)
            put(f"generate.draws_per_puzzle.{regime}", ratio(draws, made[regime]), made[regime])
        for regime in W.REGIMES:
            busy = sum(op["ns"] for op in timed if op["label"] == regime) / 1e9
            put(f"generate.puzzles_per_s.{regime}",
                ratio(made[regime], busy) if kind == "generate" else 0.0, made[regime])

        traced_ns = sum(_norm_ns(op) for op in ops if op["phase"] == "timed")
        untraced_ns = sum(_norm_ns(op) for op in untraced_ops if op["phase"] == "timed")
        put("trace.overhead_frac", traced_ns / untraced_ns - 1, len(timed))
        return m

    # -- one workload --------------------------------------------------------

    def run(self, workload: str, trace: bool):
        """Metrics, issue-named figures, operations attempted and failed, run record."""
        self.deadline = time.monotonic() + RUN_BUDGET_S
        record = {
            "workload": workload, "seed": self.seed, "seconds": self.seconds,
            "trace": int(trace), "smoke": self.smoke, "nproc": self.nproc,
            "python": platform.python_version(), "git_revision": _git_revision(),
            "source_sha256": _source_digest(), "loadavg_start": _loadavg(),
            "host_slice_ms_start": _host_slice_ms(),
            # the harness waits while its one child runs, so at most
            # min(2, nproc) processes are busy at once
            "max_busy_processes": self.parallel if workload == "verify" else 1,
        }
        if workload == "verify":
            record["verify_threads"] = [self.parallel, 1]
            record["verify_ran_serially"] = self.parallel == 1
        spec = {
            "workload": workload, "seed": self.seed, "seconds": self.seconds,
            "threads": self.parallel, "other_threads": 1,
            "solves": W.SMOKE["solves"] if self.smoke else W.FIXED_SOLVES,
            "generate_rounds": (W.SMOKE["generate_rounds"] if self.smoke
                                else W.FIXED_GENERATE_ROUNDS),
            "generate_count": W.SMOKE["generate_count"] if self.smoke else W.GENERATE_COUNT,
        }
        _ = self.reference  # the answer key is built before anything is timed
        problems: list[str] = []
        named: dict[str, Metric] = {}
        if trace:
            setup_outputs: list[list[str]] = []
            untraced, _ = self.run_worker({**spec, "mode": "fixed", "trace": False})
            ops, done = self.run_worker({**spec, "mode": "fixed", "trace": True})
            fields = ("phase", "label", "rc", "out")
            if [[op[f] for f in fields] for op in ops] != [
                [op[f] for f in fields] for op in untraced
            ]:
                problems.append("traced and untraced outputs differ")
            metrics = self.per_layer(workload, ops, done, untraced)
            _write(f"trace-{workload}-seed{self.seed}.json", done["trace"])
        else:
            setup_seed = next(W.generate_seeds(self.seed))
            setup_raw, setup, setup_outputs = self.measure_setup(workload, setup_seed)
            ops, done = self.run_worker({**spec, "mode": "measure", "trace": False})
            metrics, named = self.end_to_end(workload, ops, done, setup, setup_raw)
        problems += self.check(workload, ops, setup_outputs)
        if not trace:
            attempted = len(ops)
            named["failed_frac"] = Metric(len(problems) / attempted, "ratio", attempted)
        record.update(
            loadavg_end=_loadavg(), host_slice_ms_end=_host_slice_ms(),
            processes_started=self.processes_started,
            operations=len(ops), problems=problems[:20],
        )
        _write(f"run-{workload}-seed{self.seed}-trace{int(trace)}.json", record)
        return metrics, named, len(ops), len(problems), record


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fubuki").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _host_slice_ms() -> float:
    """Milliseconds per host-speed slice now, for the run record."""
    return hostspeed.calibrate(SETUP_CAL_SLICES) * 1e3


def _latencies(workload: str, timed: list[dict], op_ns) -> tuple[list[float], int, float]:
    """Latencies in ns, results produced and busy ns, with `op_ns` giving each
    operation's time. A verify or generate round (one call per thread count
    or per regime) is one latency; a result is a verify call, a solve or a
    generated puzzle."""
    if workload == "solve":
        latencies = [op_ns(op) for op in timed]
        return latencies, len(timed), sum(latencies)
    rounds: dict[int, float] = {}
    for op in timed:
        rounds[op["round"]] = rounds.get(op["round"], 0) + op_ns(op)
    latencies = list(rounds.values())
    results = len(timed) if workload == "verify" else sum(op["count"] for op in timed)
    return latencies, results, sum(latencies)


def _norm_ns(op: dict) -> float:
    """An operation's wall time normalised to the reference host speed."""
    return hostspeed.normalise(op["ns"], op["cal_s"])


def _write(name: str, data) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(data))


def _line(name: str, metric: Metric) -> str:
    return f"  {name:<46} {metric.value:>16.6f} {metric.unit:<10} n={metric.n}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # reduced sizes for the benchmark's own tests; not a program setting
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fubuki" / "__init__.py").is_file():
        print(f"run.py: no fubuki sources under {SRC}", file=sys.stderr)
        return 2

    harness = Harness(args.seed, args.seconds, args.smoke)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    combined: dict[str, Metric] = {}
    try:
        for workload in workloads:
            metrics, named, n_ops, n_failed, record = harness.run(workload, bool(args.trace))
            attempted += n_ops
            failed += n_failed
            print(f"workload {workload} (seed {args.seed}, trace {args.trace}):")
            for name, metric in {**metrics, **named}.items():
                print(_line(name, metric))
            for problem in record["problems"]:
                print(f"  FAILED {problem}")
            print(f"  run record: {json.dumps(record)}")
            prefix = f"{workload}." if args.workload == "all" else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v.value, "unit": v.unit} for k, v in combined.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
