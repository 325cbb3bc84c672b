"""realbott benchmark: run the real CLI on one workload and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in a fresh interpreter that executes `realbott.cli` from
this checkout's `src/` (through `child.py`, which also reports the process's
own peak resident set).  A workload is a fixed list of commands run back to
back: a closed loop with one client and no extra threads.  One pass over the
list is one sample; passes repeat while another one fits in --seconds.

Every command is checked: it fails if it exits non-zero, writes a traceback,
or prints stdout whose sha256 differs from the digest recorded at the seed
commit in `reference.json` (only `verify`'s "in X.XXs" elapsed time is
masked).  `fail_ratio` is failed commands over commands attempted.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass over the workload's commands (median)
  peak_rss_mb  largest peak resident set of any command process in a pass
  setup_s      wall time of `python -m realbott.cli --help` (median)
--trace 1 runs each pass once untraced and once traced, both in fresh
processes, and reports the per-layer metrics of `PER_LAYER` from the traced
pass (see `tracer.py`), with `trace.wall_s` and `trace.overhead_ratio`
(traced over untraced median pass time).

Human-readable lines (every metric measured, by name and unit, and
`fail_ratio`) and a `record {...}` line (commit, Python version, nproc,
sample count, median and quartiles of every metric) come first; the last
line of stdout is the JSON result, with the metrics of the chosen mode.

BENCHMARK.json lists oracle-grid (the ring engine and the oracle, every
layer) and criteria-tables (arithmetic and cli only, the control that engine
changes should leave flat).  oracle-large (few calls on degree pieces up to
300 wide) and sw-dense (a few products of dense polynomials) stay runnable
here but are not in BENCHMARK.json: with four workloads a run can last only
about 30 s, and on a shared 2-core host their 30-s medians spread by more
than the largest bound allowed.

Left out on purpose:
  - the Tier-1 test suite, whose contents grow with each change;
  - `classify --a 700 --b 10 --q 1 --q-prime 9 --oracle`, which dies with a
    RecursionError today; a fix would turn a fast crash into real work that
    reads as a slowdown;
  - `classify --oracle` at (600, 601, 0, 601), which takes about 22 s, too
    long to repeat in every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

SETUP = "--help"
SETUP_RUNS_PER_PASS = 4  # spread over the run, so drift hits setup_s like wall_s
HARD_LIMIT_S = 170.0  # a run ends well inside 180 s, whatever hangs

# oracle-large adds one pair drawn by the seed from this family; every
# member runs the oracle on a small ring and has a recorded digest.
FAMILY = tuple(
    f"classify --a 10 --b 17 --q {q} --q-prime {q_prime} --oracle"
    for q in range(18)
    for q_prime in range(q, 18)
)

WORKLOADS = {
    "oracle-grid": (
        "verify --a-max 8 --b-max 11",
        "verify --only a=10,b=17 --extended",
    ),
    "oracle-large": (
        "classify --a 300 --b 301 --q 0 --q-prime 301 --oracle",
        "classify --a 128 --b 257 --q 0 --q-prime 257 --oracle",
        "classify --a 32 --b 64 --q 0 --q-prime 1 --oracle",
        "classify --a 10 --b 17 --q 0 --q-prime 16 --oracle",
    ),
    "sw-dense": ("sw --a 255 --b 126 --q 63",),
    "criteria-tables": (
        "table --a 64 --b 513 --format jsonl",
        "counterexamples --a-max 64 --b-max 512",
    ),
}


def workload_commands(name: str, seed: int) -> list[str]:
    """The workload's commands; the exhaustive workloads ignore the seed."""
    commands = list(WORKLOADS[name])
    if name == "oracle-large":
        commands.append(random.Random(seed).choice(FAMILY))
    return commands


ELAPSED = re.compile(rb"(checked \d+ pairs in )\d+\.\d\ds(: mismatches=)")


def stdout_digest(command: str, stdout: bytes) -> str:
    """sha256 of a command's stdout, with verify's elapsed time masked."""
    if command.split()[0] == "verify":
        stdout = ELAPSED.sub(rb"\1X.XXs\2", stdout)
    return hashlib.sha256(stdout).hexdigest()


def load_reference() -> dict[str, str]:
    with open(REFERENCE) as f:
        return json.load(f)


def child_env() -> dict[str, str]:
    """The caller's environment, with this checkout's src/ first on the path.

    Bytecode caching stays on, as in an installed package: the warm-up run
    writes the cache, so no timed command pays for compiling the sources.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    """One command run: its wall time, and why it failed (None if it did not)."""

    command: str
    wall_s: float
    failure: str | None
    peak_rss_kb: int = 0
    bytes_out: int = 0
    trace: dict | None = None


def run_command(command: str, reference: dict, trace: bool = False,
                timeout: float = HARD_LIMIT_S) -> Outcome:
    """Run one command in a fresh process and check its output.

    stdout goes to an unnamed file in the checkout, not a pipe, so the parent
    does not drain megabytes of output while the child runs.  stderr stays a
    pipe: waiting on it ends the moment the child exits, where a bare wait
    with a timeout would poll in steps of up to 50 ms.
    """
    env = child_env()
    read_fd, write_fd = os.pipe()
    argv = [sys.executable, str(CHILD), str(write_fd), str(int(trace)), *command.split()]
    with open(read_fd, "rb") as report_pipe, tempfile.TemporaryFile(dir=ROOT) as out:
        try:
            start = time.perf_counter()
            proc = subprocess.run(argv, pass_fds=(write_fd,), stdout=out, stderr=subprocess.PIPE,
                                  cwd=ROOT, env=env, timeout=timeout)
            wall_s = time.perf_counter() - start
        except subprocess.TimeoutExpired:
            return Outcome(command, timeout, f"timed out after {timeout:.0f}s")
        finally:
            os.close(write_fd)
        # the report is a few kB, within the pipe's buffer, so the child
        # never blocks on it and it can be read after the child has exited
        raw = report_pipe.read()
        out.seek(0)
        stdout = out.read()
    if b"Traceback (most recent call last)" in proc.stderr:
        failure = "traceback on stderr"
    elif proc.returncode != 0:
        failure = f"exit {proc.returncode}"
    elif stdout_digest(command, stdout) != reference.get(command):
        failure = "stdout differs from the reference"
    elif not raw:
        failure = "no report from the child process"
    else:
        failure = None
    report = json.loads(raw) if raw else {}
    return Outcome(command, wall_s, failure, report.get("peak_rss_kb", 0), len(stdout), report.get("trace"))


@dataclass
class Run:
    """Every command outcome of one benchmark run, with its time limit."""

    reference: dict
    deadline: float
    outcomes: list[Outcome] = field(default_factory=list)

    def command(self, command: str, trace: bool = False) -> Outcome:
        timeout = max(1.0, self.deadline - time.perf_counter())
        outcome = run_command(command, self.reference, trace, timeout)
        self.outcomes.append(outcome)
        return outcome

    def workload_pass(self, commands: list[str], trace: bool = False) -> list[Outcome]:
        return [self.command(c, trace) for c in commands]

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes)


# Per-layer metrics: (unit, wrapped functions they rest on, value from the
# summed trace of one pass).  A metric whose function is no longer wrapped is
# reported as absent, never as 0.
MUL = "gf2poly.PolyGF2.__mul__"
POW = "gf2poly.PolyGF2.__pow__"
SUBSTITUTE = "gf2poly.substitute_linear"
NORMAL_FORM = "cohomology.normal_form"
SW = "cohomology.total_sw_class"
PAIRS = "oracle.rings_isomorphic_bruteforce"
HOM = "oracle.induces_homomorphism"
ISO = "oracle.is_graded_isomorphism"
CLASSIFY = "arithmetic.classify"
COUNTEREXAMPLE = "arithmetic.counterexample_pair"
EMIT = "cli.emit_records"
CRITERION = re.compile(r"arithmetic\.\w+_criterion")

PER_LAYER = {
    "gf2poly.self_s": ("s", (), lambda t: t.self_s["gf2poly"]),
    "gf2poly.mul_calls": ("count", (MUL,), lambda t: t.calls[MUL]),
    "gf2poly.mul_term_pairs": ("count", (MUL,), lambda t: t.counts["gf2poly.mul_term_pairs"]),
    "gf2poly.pow_calls": ("count", (POW,), lambda t: t.calls[POW]),
    "gf2poly.substitute_calls": ("count", (SUBSTITUTE,), lambda t: t.calls[SUBSTITUTE]),
    "cohomology.self_s": ("s", (), lambda t: t.self_s["cohomology"]),
    "cohomology.normal_form_calls": ("count", (NORMAL_FORM,), lambda t: t.calls[NORMAL_FORM]),
    "cohomology.terms_in": ("count", (NORMAL_FORM,), lambda t: t.counts["cohomology.terms_in"]),
    "cohomology.terms_out": ("count", (NORMAL_FORM,), lambda t: t.counts["cohomology.terms_out"]),
    "cohomology.sw_calls": ("count", (SW,), lambda t: t.calls[SW]),
    "oracle.self_s": ("s", (), lambda t: t.self_s["oracle"]),
    "oracle.pairs": ("count", (PAIRS,), lambda t: t.calls[PAIRS]),
    "oracle.hom_checks": ("count", (HOM,), lambda t: t.calls[HOM]),
    "oracle.hom_rejects": ("count", (HOM,), lambda t: t.counts["oracle.hom_rejects"]),
    # homomorphisms that go on to the per-degree rank check
    "oracle.rank_checks": ("count", (HOM, ISO),
                           lambda t: t.calls[HOM] - t.counts["oracle.hom_rejects"]),
    "oracle.rank_rejects": ("count", (HOM, ISO),
                            lambda t: t.counts["oracle.iso_rejects"] - t.counts["oracle.hom_rejects"]),
    # witnesses found per homomorphism check; 0 when no check ran
    "oracle.witness_yield": ("ratio", (HOM, ISO),
                             lambda t: t.counts["oracle.witnesses"] / t.calls[HOM] if t.calls[HOM] else 0.0),
    "arithmetic.self_s": ("s", (), lambda t: t.self_s["arithmetic"]),
    "arithmetic.classify_calls": ("count", (CLASSIFY,), lambda t: t.calls[CLASSIFY]),
    "arithmetic.criterion_calls": ("count", (), lambda t: sum(
        n for name, n in t.calls.items() if CRITERION.fullmatch(name))),
    "arithmetic.counterexample_calls": ("count", (COUNTEREXAMPLE,), lambda t: t.calls[COUNTEREXAMPLE]),
    "cli.self_s": ("s", (), lambda t: t.self_s["cli"]),
    "cli.records": ("count", (EMIT,), lambda t: t.counts["cli.records"]),
    "cli.bytes_out": ("bytes", (), lambda t: t.bytes_out),
}


END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
LAYER_METRICS = (*PER_LAYER, "trace.wall_s", "trace.overhead_ratio")


def pass_trace(outcomes: list[Outcome]) -> SimpleNamespace:
    """Sum the child traces of one traced pass."""
    total = SimpleNamespace(self_s=Counter(), calls={}, counts=Counter(), bytes_out=0)
    for outcome in outcomes:
        total.bytes_out += outcome.bytes_out
        for key in ("self_s", "calls", "counts"):
            acc = getattr(total, key)
            for name, value in (outcome.trace or {}).get(key, {}).items():
                acc[name] = acc.get(name, 0) + value
    return total


def layer_values(trace: SimpleNamespace) -> dict[str, float]:
    """Every per-layer metric whose wrapped functions exist."""
    return {
        name: value(trace)
        for name, (unit, needs, value) in PER_LAYER.items()
        if all(fn in trace.calls for fn in needs)
    }


def summary(samples: list[float]) -> dict:
    """Sample count, median and quartiles."""
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return {"samples": len(samples), "median": median, "q1": q1, "q3": q3}


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict, dict]:
    """Run the workload; return the run, the metric samples and their units."""
    run = Run(load_reference(), time.perf_counter() + HARD_LIMIT_S)
    commands = workload_commands(workload, seed)
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def add(name, unit, value):
        units[name] = unit
        samples.setdefault(name, []).append(value)

    run.command(SETUP)  # warm-up: byte-compiles the package once
    cycles = []
    start = time.perf_counter()
    while not run.failed:
        cycle_start = time.perf_counter()
        for _ in range(SETUP_RUNS_PER_PASS):
            add("setup_s", "s", run.command(SETUP).wall_s)
        outcomes = run.workload_pass(commands)
        add("wall_s", "s", sum(o.wall_s for o in outcomes))
        add("peak_rss_mb", "MB", max(o.peak_rss_kb for o in outcomes) * 1024 / 1e6)
        if trace:
            traced = run.workload_pass(commands, trace=True)
            add("trace.wall_s", "s", sum(o.wall_s for o in traced))
            for name, value in layer_values(pass_trace(traced)).items():
                add(name, PER_LAYER[name][0], value)
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            break
    if "trace.wall_s" in samples:
        add("trace.overhead_ratio", "ratio",
            statistics.median(samples["trace.wall_s"]) / statistics.median(samples["wall_s"]))
    return run, samples, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "realbott" / "cli.py").is_file():
        print(f"perfbench: no realbott sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run, samples, units = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = len(run.outcomes), run.failed
    stats = {name: {"unit": units[name], **summary(values)}
             for name, values in samples.items() if values}
    reported = LAYER_METRICS if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": workload_commands(args.workload, args.seed),
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f"{o.command}: {o.failure}" for o in run.outcomes if o.failure][:10],
        "absent": [name for name in reported if name not in stats],
        "metrics": stats,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  nproc {record['nproc']}  commit {record['commit']}")
    print(f"  {'fail_ratio':<34}{record['fail_ratio']:>16.6g} ratio     ({failed}/{attempted})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, s in stats.items():
        print(f"  {name:<34}{s['median']:>16.6g} {s['unit']:<9} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['samples']}")
    for name in record["absent"]:
        print(f"  {name:<34}{'absent':>16}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": stats[name]["unit"]}
                    for name in reported if name in stats},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
