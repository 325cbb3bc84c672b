"""Differential run of the command line: this checkout against a git revision.

    python tests/_differential.py REV [--seeds N] [--start S]

REV is any revision of this repository (a commit, a branch, HEAD~1).  Its
tree is exported with `git archive` into a temporary directory.  Then one
child per tree, with PYTHONPATH at that tree's src/, runs the same argv
stream through realbott.cli.main in process and writes, for each argv, its
exit code and the sha256 of its stdout and stderr.  The two children run
side by side.  The stream is:

  * the 180 commands of perfbench/reference.json and the 35 argvs of
    tests/cli_surface.json;
  * for each seed S, S+1, ..., S+N-1 (default 1 to 10), 1000 argvs drawn
    with random.Random(seed): well-formed commands of all five commands at
    bounded sizes, a few of them at sizes up to 10**18 where the command
    answers at once, random edits of the well-formed ones, and random
    token strings.

Before they are compared, verify's "in X.XXs" elapsed time is masked, and a
traceback is cut to its lines that start in the first column (its header,
the exception and "realbott: internal error"), so that file paths and line
numbers do not count.  --out takes only "-" and paths that cannot be
opened, or plain names inside each child's own empty working directory.

A self-check runs first: it plants a one-byte change in the text `sw`
prints, in a copy of this checkout, and expects the harness to report it.
The harness prints the first differing argv with both sides' output, or
"no difference", and the count of each exit code.  It exits 0 when every
argv gave the same exit code, stdout and stderr, 1 otherwise.  Standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGVS_PER_SEED = 1000
MEMORY_LIMIT = 1 << 30  # bytes of address space for each child
PLANT = ('"w(a=', '"W(a=')  # in cli.py: the first byte of sw's text output
PROBE = ["sw", "--a", "2", "--b", "2", "--q", "1"]

# The child: one JSON argv per stdin line in, one JSON result per stdout line
# out.  With "full" as its argument it writes the masked texts, not digests.
CHILD = r"""
import contextlib, hashlib, io, json, re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
from realbott.cli import main

ELAPSED = re.compile(r" in \d+\.\d\ds:")
full = sys.argv[1:] == ["full"]
results = sys.stdout
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(json.loads(line), "realbott")
            code = "returned"
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:
            code = "raised " + type(exc).__name__
    err = err.getvalue()
    if "Traceback (most recent call last):" in err:
        err = "".join(l for l in err.splitlines(True) if not l[:1].isspace())
    texts = [ELAPSED.sub(" in _s:", out.getvalue()), err]
    if not full:
        texts = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    results.write(json.dumps([code, *texts]) + "\n")
""".replace("MEMORY_LIMIT", str(MEMORY_LIMIT))

FORMATS = ("text", "csv", "json", "jsonl")
OPTIONS = ("--a", "--b", "--q", "--q-prime", "--a-max", "--b-max", "--only", "--oracle",
           "--extended", "--format", "--out", "--help")
VOCABULARY = ("classify", "table", "counterexamples", "verify", "sw", *OPTIONS, *FORMATS,
              *map(str, range(-2, 10)), "--", "-", "-h", "--a=", "--q-prime=3", "--only=a=2,b=3",
              "a=2,b=3", "a=1", "b=2,a=3", "a=2,b=3,a=4", "a=x,b=2", "", " 3", "1.5", "0x10",
              "1_0", "٣", "abc", "missing/x", ".", "--form", "--onl", "verify2")


def _options(rng: random.Random, groups: list[tuple[str, str | None]]) -> list[str]:
    """The options in a random order, each value as "--name VALUE" or "--name=VALUE"."""
    rng.shuffle(groups)
    argv = []
    for name, value in groups:
        if value is None:
            argv.append(name)
        elif rng.random() < 0.2:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


def well_formed(rng: random.Random) -> list[str]:
    """A valid command of bounded cost, with options in any order."""
    command = rng.choice(("classify", "table", "counterexamples", "verify", "sw"))
    formats = FORMATS
    if command == "classify":
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        groups = [("--a", a), ("--b", b), ("--q", rng.randint(0, b)), ("--q-prime", rng.randint(0, b))]
        if rng.random() < 0.5:
            groups.append(("--oracle", None))
    elif command == "table":
        groups = [("--a", rng.randint(1, 64)), ("--b", rng.randint(1, 40))]
    elif command == "counterexamples":
        groups = [("--a-max", rng.randint(1, 40)), ("--b-max", rng.randint(1, 64))]
    elif command == "verify":
        formats = ()
        if rng.random() < 0.5:
            groups = [("--only", f"a={rng.randint(1, 16)},b={rng.randint(1, 20)}")]
        else:
            groups = [("--a-max", rng.randint(1, 4)), ("--b-max", rng.randint(1, 6))]
        if rng.random() < 0.2:
            groups.append(("--extended", None))
    else:
        formats = ("text", "json")
        a, b = rng.randint(1, 100), rng.randint(1, 100)
        groups = [("--a", a), ("--b", b), ("--q", rng.randint(0, b))]
    if formats and rng.random() < 0.5:
        groups.append(("--format", rng.choice(formats)))
    if rng.random() < 0.1:
        groups.append(("--out", "-"))
    groups = [(name, None if value is None else str(value)) for name, value in groups]
    return [command, *_options(rng, groups)]


def large(rng: random.Random) -> list[str]:
    """A valid command with sizes up to 10**18 that still answers at once."""
    kind = rng.randrange(4)
    huge = rng.choice((rng.randint(1, 10**18), 2 ** rng.randint(1, 59) + rng.randint(-1, 1)))  # >= 1
    if kind == 0:
        return ["classify", "--a", str(rng.randint(1, 10**18)), "--b", str(huge),
                "--q", str(rng.randint(0, huge)), "--q-prime", str(rng.randint(0, huge))]
    if kind == 1:
        near = rng.randint(0, min(20, huge))
        q = rng.choice((near, huge - near))
        return ["classify", "--a", str(rng.randint(1, 30)), "--b", str(huge), "--q", str(q),
                "--q-prime", str(rng.choice((q, huge - q, rng.randint(0, huge)))), "--oracle"]
    if kind == 2:
        return ["table", "--a", str(huge), "--b", str(rng.randint(1, 12)),
                "--format", rng.choice(FORMATS)]
    return ["counterexamples", "--a-max", str(huge), "--b-max", str(rng.randint(1, 24)),
            "--format", rng.choice(FORMATS)]


def edited(rng: random.Random, argv: list[str]) -> list[str]:
    """argv after one to three random token edits."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv) + 1)
        edit = rng.randrange(6)
        if edit == 0 and argv:
            del argv[min(i, len(argv) - 1)]
        elif edit == 1 and argv:
            argv.insert(i, rng.choice(argv))
        elif edit == 2 and len(argv) > 1:
            j, k = rng.sample(range(len(argv)), 2)
            argv[j], argv[k] = argv[k], argv[j]
        elif edit == 3 and argv:
            argv[min(i, len(argv) - 1)] = rng.choice(VOCABULARY)
        elif edit == 4 and argv:
            token = argv[min(i, len(argv) - 1)]
            argv[min(i, len(argv) - 1)] = token[:rng.randint(0, len(token))]
        else:
            argv.insert(i, rng.choice(VOCABULARY))
    return argv


def stream(seed: int) -> list[list[str]]:
    """The ARGVS_PER_SEED argvs of one seed."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(ARGVS_PER_SEED):
        kind = rng.random()
        if kind < 0.4:
            argvs.append(well_formed(rng))
        elif kind < 0.5:
            argvs.append(large(rng))
        elif kind < 0.85:
            argvs.append(edited(rng, well_formed(rng)))
        else:
            argvs.append([rng.choice(VOCABULARY) for _ in range(rng.randint(0, 6))])
    return argvs


def corpus() -> list[list[str]]:
    """The recorded commands: the benchmark's digests and the help and error screens."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    surface = json.loads((ROOT / "tests" / "cli_surface.json").read_text())
    return [command.split() for command in reference] + [case["argv"] for case in surface]


def export(rev: str, into: Path) -> Path:
    """The src/ of REV's tree, exported with git archive under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def run_children(sources: list[Path], argvs: list[list[str]], work: Path,
                 full: bool = False) -> list[list[list]]:
    """Each source tree's results for argvs, from children that run side by side."""
    feed = work / "argvs.jsonl"
    feed.write_text("".join(json.dumps(argv) + "\n" for argv in argvs))
    children = []
    for n, src in enumerate(sources):
        workdir = work / f"cwd{n}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        # files, not pipes: a pipe that is not read at once would stall its child
        with open(feed) as stdin, open(work / f"out{n}", "w") as out, open(work / f"err{n}", "w") as err:
            children.append(subprocess.Popen(
                [sys.executable, "-c", CHILD, *(["full"] if full else [])], cwd=workdir, env=env,
                stdin=stdin, stdout=out, stderr=err))
    results = []
    for n, child in enumerate(children):
        if child.wait() != 0:
            raise SystemExit(f"a child failed (exit {child.returncode}):\n{(work / f'err{n}').read_text()}")
        results.append([json.loads(line) for line in (work / f"out{n}").read_text().splitlines()])
    return results


def compare(sources: list[Path], argvs: list[list[str]], work: Path) -> tuple[int | None, Counter]:
    """The index of the first argv whose results differ (None if none does),
    and the count of each exit code of the first tree."""
    first, second = run_children(sources, argvs, work)
    if len(first) != len(argvs) or len(second) != len(argvs):
        raise SystemExit(f"{len(argvs)} argvs, but {len(first)} and {len(second)} results")
    differing = next((i for i, (x, y) in enumerate(zip(first, second)) if x != y), None)
    return differing, Counter(str(result[0]) for result in first)


def show(sources: list[Path], argv: list[str], work: Path) -> str:
    """Both trees' exit codes and a diff of their masked stdout and stderr for argv."""
    (code0, *texts0), (code1, *texts1) = (side[0] for side in run_children(sources, [argv], work, True))
    lines = [f"exit {code0} | exit {code1}"]
    for name, x, y in zip(("stdout", "stderr"), texts0, texts1):
        diff = list(difflib.unified_diff(x.splitlines(), y.splitlines(), name, name, lineterm="", n=1))
        lines += diff[:40] + (["..."] if len(diff) > 40 else [])
    return "\n".join(lines)


def self_check(work: Path, argvs: list[list[str]]) -> str:
    """Plant a one-byte change in a copy of this checkout's src/ and return
    the report on the first argv that shows it; exit if none does."""
    planted = work / "planted" / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    cli = planted / "realbott" / "cli.py"
    source = cli.read_text()
    if source.count(PLANT[0]) != 1:
        raise SystemExit(f"self-check: {PLANT[0]!r} must occur once in cli.py")
    cli.write_text(source.replace(*PLANT))
    sample = [*argvs, PROBE]
    differing, _ = compare([ROOT / "src", planted], sample, work)
    if differing is None or sample[differing][0] != "sw":
        raise SystemExit("self-check FAILED: the planted change in sw's output was not reported")
    return " ".join(sample[differing])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    parser.add_argument("--seeds", type=int, default=10, help="how many seeds (default 10)")
    parser.add_argument("--start", type=int, default=1, help="the first seed (default 1)")
    options = parser.parse_args(argv)
    seeds = range(options.start, options.start + options.seeds)
    argvs = corpus()
    fixed = len(argvs)
    for seed in seeds:
        argvs += stream(seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        planted_at = self_check(work, argvs[:200])
        print(f"self-check: the planted change was reported at `{planted_at}`", flush=True)
        sources = [export(options.rev, work / "rev"), ROOT / "src"]
        start = time.perf_counter()
        differing, codes = compare(sources, argvs, work)
        elapsed = time.perf_counter() - start
        print(f"{len(argvs)} argvs ({fixed} recorded, {len(argvs) - fixed} from seeds "
              f"{seeds.start} to {seeds.stop - 1}) in {elapsed:.1f}s: "
              + ("no difference" if differing is None else f"first difference at #{differing}"))
        print("exit codes of " + options.rev + ": "
              + ", ".join(f"{code} x{n}" for code, n in sorted(codes.items())))
        if differing is not None:
            print(f"argv: {argvs[differing]!r}\n{options.rev} | this checkout")
            print(show(sources, argvs[differing], work))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
