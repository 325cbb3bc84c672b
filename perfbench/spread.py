"""Check that the benchmark is steady enough for its own bounds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 10] [--sets 2] [--workloads a,b] [--trace 0|1]

Runs BENCHMARK.json's command once per seed (1 to --seeds) and workload,
for each set.  Within a set the workloads are interleaved (the order
rotates with the seed), so machine drift hits every workload alike.  For
every end-to-end metric it prints the spread of the per-run values,
(q3 - q1) / median as `statistics.quantiles(values, n=4)` gives them, next
to the metric's bound, and, with two sets or more, how far each later set's
median moved from the first set's in the metric's worse direction.  With
--trace 1 and two sets or more, it checks that every per-layer count of a
seed is the same in every set.  Exits 1 if a run fails, a spread (other
than setup_s) exceeds its bound, a median moves by more than its bound, or
a count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    if not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    # values[set][workload][metric] = one value per seed
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = i + 1
            for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
                result = run_once(spec, workload, seed, args.trace)
                print(f"set {s + 1} seed {seed} {workload} {json.dumps(result)}", file=sys.stderr, flush=True)
                for name, series in values[s][workload].items():
                    series.append(result.get(name))

    ok = True
    for workload in workloads:
        for m in metrics:
            name = m["name"]
            first = values[0][workload][name]
            if args.trace:
                if m["unit"] == "count" and any(later[workload][name] != first for later in values[1:]):
                    print(f"{workload:16} {name:32} counts differ between sets")
                    ok = False
                continue
            line = f"{workload:16} {name:14} median {statistics.median(first):10.5g}  " \
                   f"spread {spread(first):6.3f}  bound {m['bound']:.3f}"
            if name != "setup_s" and spread(first) > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif spread(first) > m["bound"] / 3:
                line += "  (over a third of bound)"
            for later in values[1:]:
                sign = 1 if m["better"] == "lower" else -1
                moved = sign * (statistics.median(later[workload][name]) / statistics.median(first) - 1)
                line += f"  moved {moved:+.3f}"
                if moved > m["bound"]:
                    ok = False
                    line += " OVER BOUND"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
