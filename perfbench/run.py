"""End-to-end benchmark of the ``wprec`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``oracle-sweep``, ``shift-series``, ``volume-table``,
``point-queries`` or ``all``. Every command runs as its own process, one at
a time (a closed loop with one client), from the ``src`` tree beside this
directory. Outputs are checked outside the timed region.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it runs the workload once plainly and once under
``tracer.py``, then times each layer alone with ``layers.py``, and reports
the per-layer metrics. The last line of standard output is the result
object; the line before it holds the run's meta block and value digest.
The exit status is 1 when any output check failed, 2 when the tree has no
``src/wprec`` to benchmark.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import layers
import queries
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Whole run, children included, stays under the 180 s a run may take.
RUN_BUDGET_S = 170.0

SETUP_ARGS = ["compute", "-g", "0", "--psi", "0,0,0"]
SETUP_RUNS = 10

TABLE_ROWS = 121
# sha256 of the table's csv output at the commit that introduced the benchmark.
TABLE_DIGEST = "f19c306251d4f8081b62af939ee68235bb74b1ce9946c56e833f3ff6f877f362"


def passes(cases: int):
    return lambda output: output.strip() == f"PASS ({cases} cases)"


def table_check(output: str) -> bool:
    rows = list(csv.reader(io.StringIO(output)))
    if rows[:1] != [["genus", "n", "kappa", "value"]] or len(rows) != TABLE_ROWS + 1:
        return False
    return hashlib.sha256(output.encode()).hexdigest() == TABLE_DIGEST


# Workloads that repeat one fixed command: (arguments, cases, output check).
# The shift identity at cutoff W needs the descendant variables t_0..t_(W+1):
# with the CLI's default of seven (t_0..t_7), cutoff 7 drops the t_8 shift
# and the check reports a mismatch.
FIXED = {
    "oracle-sweep": (["verify", "--suite", "oracle", "--max-dim", "9"], 2521, passes(2521)),
    "shift-series": (
        ["verify", "--shift", "--cutoff", "7", "--t-vars", "8"],
        647,
        passes(647),
    ),
    "volume-table": (
        ["table", "--volumes", "--max-genus", "5", "--max-n", "0"],
        TABLE_ROWS,
        table_check,
    ),
}
# Queries per pass of a traced point-queries run.
TRACE_QUERIES = 60

WORKLOADS = ("oracle-sweep", "shift-series", "volume-table", "point-queries")


class Command:
    """One finished CLI process."""

    def __init__(self, wall: float, code: int, output: str, rss_kb: int):
        self.wall = wall
        self.code = code
        self.output = output
        self.rss_kb = rss_kb

    @property
    def last_line(self) -> str:
        lines = self.output.strip().splitlines()
        return lines[-1] if lines else ""


class Runner:
    """Starts child processes one at a time and kills any past the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "WPREC_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def python(self, argv: list[str]) -> Command:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        killer.daemon = True
        killer.start()
        try:
            output = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
        return Command(wall, proc.returncode, output.decode(errors="replace"), usage.ru_maxrss)

    def cli(self, args: list[str], spans: Path | None = None) -> Command:
        if spans is None:
            return self.python(["-m", "wprec.cli", *args])
        return self.python([str(BENCH / "tracer.py"), str(spans), *args])


class Tally:
    """Operations, failures, timings and a digest of every value produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.cases = 0
        self.rss_kb = 0
        self.digest = hashlib.sha256()
        self.first_failure: str | None = None

    def add(self, args: list[str], cmd: Command, cases: int, ok: bool, value: str) -> None:
        self.attempted += 1
        self.walls.append(cmd.wall)
        self.rss_kb = max(self.rss_kb, cmd.rss_kb)
        self.digest.update(f"{' '.join(args)}\t{value}\n".encode())
        if ok:
            self.cases += cases
            return
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{' '.join(args)}: exit {cmd.code}: {cmd.last_line[:200]}"


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


# --- workloads -------------------------------------------------------------
#
# Each workload function runs its commands through `cli` (a Runner method,
# traced or not) and records them in a Tally. `stop` says whether to start
# another command, given the run's elapsed seconds and the last command.


def run_fixed(name, cli, tally, stop) -> None:
    args, cases, check = FIXED[name]
    started = time.perf_counter()
    while True:
        cmd = cli(args)
        ok = cmd.code == 0 and check(cmd.output)
        tally.add(args, cmd, cases, ok, hashlib.sha256(cmd.output.encode()).hexdigest())
        if stop(time.perf_counter() - started, cmd):
            return


class PointQueries:
    """The seeded query stream, its value cache, and the cross-route check."""

    def __init__(self, seed: int):
        self.stream = queries.point_queries(seed, rounds=200)
        self.cache = OUT / "point-queries.cache"
        self._routes = None

    def run(self, cli, tally, stop, limit: int | None = None) -> None:
        """Run queries until `stop` says so or `limit` have run."""
        self.cache.unlink(missing_ok=True)
        started = time.perf_counter()
        done = []
        for query in self.stream[:limit]:
            args = query.argv(str(self.cache))
            cmd = cli(args)
            done.append((query, args, cmd))
            if stop(time.perf_counter() - started, cmd):
                break
        self.cache.unlink(missing_ok=True)
        for query, args, cmd in done:
            ok = cmd.code == 0 and self.matches(query, cmd.last_line)
            tally.add(args, cmd, 1, ok, cmd.last_line)

    def matches(self, query: queries.Query, text: str) -> bool:
        """Compare a printed value with the package's other route for it."""
        try:
            return Fraction(text) == self.other_route(query)
        except Exception:  # a parse error or a failing route is a failed check
            return False

    def other_route(self, query: queries.Query) -> Fraction:
        if self._routes is None:
            sys.path.insert(0, str(SRC))
            from wprec.correlator import CorrelatorEngine
            from wprec.hodge import HodgeEngine
            from wprec.kmz import KmzOracle
            from wprec.multiindex import MultiIndex

            self._routes = MultiIndex, CorrelatorEngine(), KmzOracle(), HodgeEngine()
        multi_index, engine, oracle, hodge = self._routes
        kappa = multi_index(query.kappa)
        if query.kind == "compute":
            return oracle.kmz_expand(query.genus, kappa, query.psi)
        if query.kind == "volume":
            return engine.correlator(query.genus, kappa, (0,) * query.n)
        other = hodge.correlator_direct if query.route == "primary" else hodge.correlator
        return other(query.genus, query.tag, kappa, query.psi)


# --- measurement -----------------------------------------------------------


def measure_setup(runner: Runner, tally: Tally, runs: int) -> None:
    for _ in range(runs):
        cmd = runner.cli(SETUP_ARGS)
        tally.add(SETUP_ARGS, cmd, 0, cmd.code == 0 and cmd.last_line == "1", cmd.last_line)


def run_workload(name, runner, tally, stop, points, spans=None, limit=None) -> None:
    def cli(args):
        return runner.cli(args, spans)

    if name in FIXED:
        run_fixed(name, cli, tally, stop)
    else:
        points.run(cli, tally, stop, limit)


def end_to_end(name: str, seed: int, seconds: float, runner: Runner):
    # Set-up time is the median of a trivial command, sampled half before
    # and half after the workload; one untimed run first writes bytecode.
    setup = Tally()
    runner.cli(SETUP_ARGS)
    measure_setup(runner, setup, SETUP_RUNS // 2)
    tally = Tally()

    def stop(elapsed: float, cmd: Command) -> bool:
        # Start no fixed command that would end past the run's length; a
        # query stream simply runs until the time is up.
        next_wall = cmd.wall if name in FIXED else 0.0
        return elapsed + next_wall > seconds or runner.expired()

    run_workload(name, runner, tally, stop, PointQueries(seed))
    measure_setup(runner, setup, SETUP_RUNS - SETUP_RUNS // 2)
    command_wall = sum(tally.walls)
    metrics = {
        "setup_s": (statistics.median(setup.walls), "s"),
        "cases_per_s": (tally.cases / command_wall, "1/s"),
        "query_p50_s": (statistics.median(tally.walls), "s"),
        "query_p90_s": (percentile(tally.walls, 0.9), "s"),
        "peak_rss_mb": (tally.rss_kb / 1024, "MB"),
    }
    return metrics, [setup, tally]


def traced(name: str, seed: int, runner: Runner):
    """Plain pass, traced pass over the same commands, then each layer alone."""
    spans_path = OUT / f"spans-{name}.jsonl"
    spans_path.unlink(missing_ok=True)
    points = PointQueries(seed)
    plain, spanned, layer_tally = Tally(), Tally(), Tally()

    # A fixed command runs once per pass; the query stream runs its first
    # TRACE_QUERIES queries in each.
    def stop(elapsed: float, cmd: Command) -> bool:
        return name in FIXED or runner.expired()

    run_workload(name, runner, plain, stop, points, limit=TRACE_QUERIES)
    run_workload(name, runner, spanned, stop, points, spans=spans_path, limit=TRACE_QUERIES)
    metrics = layer_metrics(spans_path)
    metrics["trace.overhead_s"] = (sum(spanned.walls) - sum(plain.walls), "s")

    for layer in layers.LAYERS:
        args = [str(BENCH / "layers.py"), layer]
        cmd = runner.python(args)
        try:
            report = json.loads(cmd.last_line)
        except json.JSONDecodeError:
            report = {"seconds": 0.0, "correct": False, "digest": ""}
        ok = cmd.code == 0 and report["correct"]
        layer_tally.add(args[1:], cmd, report.get("cases", 0), ok, report["digest"])
        metrics[layer] = (report["seconds"], "s")
    return metrics, [plain, spanned, layer_tally]


def layer_metrics(spans_path: Path) -> dict[str, tuple[float, str]]:
    """Self times, counts and memo sizes summed over the traced processes."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    records: dict[str, int] = {}
    memo: dict[str, int] = {}
    imports = []
    if spans_path.exists():
        for line in spans_path.read_text().splitlines():
            record = json.loads(line)
            imports.append(record["import_s"])
            for totals, part in (
                (self_s, tracer.self_times(record["spans"])),
                (calls, record["calls"]),
                (records, record["records"]),
                (memo, record["memo_entries"]),
            ):
                for key, value in part.items():
                    totals[key] = totals.get(key, 0) + value

    def total(table: dict, *keys: str):
        return sum(table.get(key, 0) for key in keys)

    volume_calls = total(calls, "volumes")
    volume_entries = total(memo, "volumes")
    return {
        "correlator.self_s": (total(self_s, "correlator"), "s"),
        "correlator.calls": (total(calls, "correlator"), "count"),
        "correlator.memo_entries": (total(memo, "correlator"), "count"),
        "kmz.self_s": (total(self_s, "kmz"), "s"),
        "kmz.calls": (total(calls, "kmz"), "count"),
        "kmz.memo_entries": (total(memo, "kmz"), "count"),
        "volumes.self_s": (total(self_s, "volumes"), "s"),
        "volumes.calls": (volume_calls, "count"),
        "volumes.memo_entries": (volume_entries, "count"),
        "volumes.calls_per_entry": (
            volume_calls / volume_entries if volume_entries else 0.0,
            "calls/entry",
        ),
        "series.self_s": (total(self_s, "series"), "s"),
        "hodge.primary_self_s": (total(self_s, "hodge.primary"), "s"),
        "hodge.direct_self_s": (total(self_s, "hodge.direct"), "s"),
        "hodge.calls": (total(calls, "hodge.primary", "hodge.direct"), "count"),
        "cache.load_s": (total(self_s, "cache.load"), "s"),
        "cache.save_s": (total(self_s, "cache.save"), "s"),
        "cache.records_read": (total(records, "read"), "count"),
        "cache.records_written": (total(records, "written"), "count"),
        "constants.self_s": (total(self_s, "constants"), "s"),
        "constants.entries": (total(memo, "constants"), "count"),
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
    }


# --- result ----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wprec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    if trace:
        metrics, tallies = traced(name, seed, runner)
    else:
        metrics, tallies = end_to_end(name, seed, seconds, runner)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "value_digest": hashlib.sha256(
            "".join(t.digest.hexdigest() for t in tallies).encode()
        ).hexdigest(),
        "failed_ratio": failed / attempted,
        "first_failure": next((t.first_failure for t in tallies if t.first_failure), None),
        "commands": [len(t.walls) for t in tallies],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wprec" / "cli.py").is_file():
        print(f"perfbench: no wprec sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        meta, result = run_one(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        print(json.dumps({"meta": meta}, sort_keys=True))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
