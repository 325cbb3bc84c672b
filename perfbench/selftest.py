"""Self-test of the benchmark's own checks.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Shows that the output check bites (one corrupted reference digest makes
fail_ratio > 0; a non-zero exit and a traceback each fail a command; only
verify's elapsed time is masked), that peak RSS is the child's alone, and
that the tracer rebinds public functions at every name that holds them
without changing the output.  Prints one line per check; exits 1 on the
first failure.
"""

import hashlib
import inspect
import sys
import time

from run import ROOT, WORKLOADS, Run, load_reference, run_command, stdout_digest
from tracer import LAYERS, Tracer


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        sys.exit(1)


def fail_ratio(reference: dict, commands) -> float:
    run = Run(reference, time.perf_counter() + 170)
    run.workload_pass(list(commands))
    return run.failed / len(run.outcomes)


def main() -> None:
    reference = load_reference()

    out = b"a=1 b=1: 4 pairs, 0 mismatches\nchecked 4 pairs in 0.01s: mismatches=0\n"
    check(stdout_digest("verify", out) == stdout_digest("verify", out.replace(b"0.01s", b"12.34s")),
          "verify's elapsed time is masked")
    check(stdout_digest("verify", out) != stdout_digest("verify", out.replace(b"4 pairs", b"5 pairs")),
          "every other verify digit counts")
    check(stdout_digest("table", out) != stdout_digest("table", out.replace(b"0.01s", b"12.34s")),
          "other commands are not masked")

    commands = WORKLOADS["criteria-tables"]
    check(fail_ratio(reference, commands) == 0, "criteria-tables passes against the reference")
    corrupted = {**reference, commands[0]: "0" * 64}
    check(fail_ratio(corrupted, commands) == 0.5, "one corrupted digest gives fail_ratio 1/2")

    crash = "classify --a 700 --b 10 --q 1 --q-prime 9 --oracle"  # RecursionError, exit 1
    outcome = run_command(crash, {crash: hashlib.sha256(b"").hexdigest()})
    check(outcome.failure == "exit 1", f"a non-zero exit fails the command ({outcome.failure})")
    traceback = "verify --only a=0,b=3"  # uncaught ValueError
    outcome = run_command(traceback, reference)
    check(outcome.failure == "traceback on stderr", f"a traceback fails the command ({outcome.failure})")

    ballast = b"x" * (200 * 2**20)  # the parent's pages must not count
    outcome = run_command("--help", reference)
    del ballast
    check(0 < outcome.peak_rss_kb < 100 * 1024, f"peak RSS is the child's own ({outcome.peak_rss_kb} kB)")

    pair = "classify --a 10 --b 17 --q 0 --q-prime 16 --oracle"
    outcome = run_command(pair, reference, trace=True)
    check(outcome.failure is None and outcome.trace["calls"]["oracle.rings_isomorphic_bruteforce"] == 1,
          "traced stdout matches the reference and the oracle call is seen")

    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    tracer.time_imports()
    from realbott import cli  # noqa: F401  (loads every layer)

    tracer.wrap_all()
    missed = [
        f"{modname}.{name}"
        for modname, module in sys.modules.items()
        if modname == "realbott" or modname.startswith("realbott.")
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__.rpartition(".")[2] in LAYERS and not hasattr(value, "__wrapped__")
    ]
    check(not missed, f"every binding of a public function is wrapped {missed or ''}")
    check(tracer.self_s["oracle"] > 0 and tracer.calls["oracle.<import>"] == 1,
          "the import of each lower layer is timed")


if __name__ == "__main__":
    main()
