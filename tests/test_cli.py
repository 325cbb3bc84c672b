import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realbott import arithmetic, cli, oracle
from realbott.arithmetic import (
    ClassificationVerdict,
    classify,
    counterexample_pair,
)
from realbott.gf2poly import IDENTITY_SUBSTITUTION
from realbott.cli import FORMATS, SCHEMA, emit_records, main

from _oracles import (
    RECORD_KEYS,
    dumps_record,
    record_from_verdict,
    reference_text,
    rejects_identity_between_rings,
    substitutions,
)

EXPECTED_HEADER = (
    "a,b,q,q_prime,h,k,cohomology_isomorphic,diffeomorphic,homotopy_equivalent"
)
REFERENCE_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SURFACE = json.loads((Path(__file__).resolve().parent / "cli_surface.json").read_text())


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them


class _Tee(io.StringIO):
    """A captured stream that also copies every write to a shared log."""

    def __init__(self, log: io.StringIO):
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.write(text)
        return super().write(text)


class Runner:
    """Runs main in this process with stdout and stderr captured."""

    def invoke(self, cli, args: list[str], prog_name: str = "realbott") -> Result:
        log = io.StringIO()
        out, err = _Tee(log), _Tee(log)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args, prog_name)
            except SystemExit as exc:
                code = exc.code
            else:
                raise AssertionError("main returned without exiting")
        return Result(code, out.getvalue(), err.getvalue(), log.getvalue())


@pytest.fixture
def runner():
    return Runner()


def masked_elapsed(output: str) -> str:
    return re.sub(r" in \d+\.\d\ds:", " in _s:", output)


def records_of(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines() if line]


CLI_MAIN = "from realbott.cli import main\nmain(sys.argv[1:])\n"


def bounded_child(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, float]:
    """Run code with argv in a child process that imports this checkout's
    src/, under an address-space limit of 512 MB, and time it.  The limit
    makes a regression that builds a huge integer fail fast in the child
    instead of exhausting the host's memory."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n" + code)
    src = str(Path(arithmetic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=60)
    return result, time.perf_counter() - start


class TestClassify:
    def test_headline_pair_jsonl(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "10", "--b", "17", "--q", "0",
             "--q-prime", "16", "--format", "jsonl"],
        )
        assert result.exit_code == 0
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is True
        assert record["diffeomorphic"] is False
        assert record["homotopy_equivalent"] is False
        assert record["h"] == 4
        assert record["k"] == 5

    def test_complement_pair_all_true(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "2", "--format", "jsonl"],
        )
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is True
        assert record["diffeomorphic"] is True
        assert record["homotopy_equivalent"] is True

    def test_oracle_non_isomorphic_no_witness(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "1", "--oracle", "--format", "jsonl"],
        )
        assert result.exit_code == 0
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is False
        assert "witness" not in record

    def test_oracle_attaches_witness(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "1",
             "--q-prime", "1", "--oracle", "--format", "jsonl"],
        )
        assert result.exit_code == 0
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is True
        assert record["witness"] == str(IDENTITY_SUBSTITUTION)

    def test_oracle_isomorphic_includes_witness(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "3", "--b", "4", "--q", "1",
             "--q-prime", "3", "--oracle", "--format", "jsonl"],
        )
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is True
        assert "->" in record["witness"]

    def test_text_default_is_aligned_table(self, runner):
        result = runner.invoke(
            main, ["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "2"]
        )
        header, row = result.output.splitlines()
        assert header.split() == list(cli.SCHEMA)
        assert row.split() == ["2", "2", "0", "2", "1", "1", "true", "true", "true"]

    def test_csv_header_is_bit_exact(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "2", "--format", "csv"],
        )
        lines = result.output.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert lines[1] == "2,2,0,2,1,1,true,true,true"

    def test_out_of_range_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "3"]
        )
        assert result.exit_code == 2

    def test_nonpositive_a_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["classify", "--a", "0", "--b", "2", "--q", "0", "--q-prime", "1"]
        )
        assert result.exit_code == 2

    def test_jsonl_round_trips_byte_identically(self, runner):
        result = runner.invoke(
            main,
            ["classify", "--a", "10", "--b", "17", "--q", "0",
             "--q-prime", "16", "--format", "jsonl"],
        )
        line = result.output.splitlines()[0]
        record = json.loads(line)
        assert record.pop("homotopy_equivalent") == record["diffeomorphic"]
        assert dumps_record(ClassificationVerdict(**record)) == line

    def test_oracle_disagreement_exits_one(self, runner, monkeypatch):
        # (0, 2) is isomorphic at (2, 2): a search that finds nothing disagrees
        monkeypatch.setattr(cli, "rings_isomorphic_bruteforce", lambda src, dst: None)
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "2", "--oracle"],
        )
        assert result.exit_code == 1
        assert result.stderr == (
            "ring oracle disagrees with the congruence criterion on "
            "(a=2, b=2, q=0, q'=2): oracle says False, criterion says True\n"
        )
        assert result.stdout == ""

    def test_oracle_witness_for_non_isomorphic_pair_exits_one(self, runner, monkeypatch):
        # (0, 1) is not isomorphic at (2, 2): a search that returns a witness disagrees
        monkeypatch.setattr(cli, "rings_isomorphic_bruteforce",
                            lambda src, dst: IDENTITY_SUBSTITUTION)
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "1", "--oracle"],
        )
        assert result.exit_code == 1
        assert result.stderr == (
            "ring oracle disagrees with the congruence criterion on "
            "(a=2, b=2, q=0, q'=1): oracle says True, criterion says False\n"
        )
        assert result.stdout == ""

    @pytest.mark.parametrize("error", [RecursionError, RuntimeError, KeyError])
    def test_internal_error_is_not_a_disagreement(self, runner, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("internal failure")

        monkeypatch.setattr(cli, "classify_pair", broken)
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "1", "--oracle"],
        )
        assert result.exit_code == 3

    def test_inconsistent_verdict_is_internal_error(self, runner, monkeypatch):
        # (0, 3) is not cohomology-isomorphic at (10, 17), so a lying
        # diffeomorphism criterion yields a verdict that refuses itself
        monkeypatch.setattr(arithmetic, "diffeo_criterion", lambda *args: True)
        result = runner.invoke(
            main, ["classify", "--a", "10", "--b", "17", "--q", "0", "--q-prime", "3"]
        )
        assert result.exit_code == 3
        assert "Traceback" in result.stderr
        assert "refusing an inconsistent verdict" in result.stderr
        assert "Usage:" not in result.output

    @pytest.mark.parametrize(
        "a, b, q, q_prime",
        [(700, 10, 1, 9), (600, 601, 0, 601)],
        ids=["a700-b10", "a600-b601"],
    )
    def test_large_a_oracle_has_no_recursion_limit(self, runner, a, b, q, q_prime):
        result = runner.invoke(
            main,
            ["classify", "--a", str(a), "--b", str(b), "--q", str(q),
             "--q-prime", str(q_prime), "--oracle", "--format", "jsonl"],
        )
        assert result.exit_code == 0, result.output
        (record,) = records_of(result.output)
        assert record["cohomology_isomorphic"] is True
        assert record["witness"] == "x->x, y->x+y"

    def test_huge_a_answers_in_bounded_memory(self):
        # 2^k(a) has about a/2 bits; the criterion must never build it
        result, elapsed = bounded_child(CLI_MAIN, "classify", "--a", str(10**12), "--b", "3",
                                        "--q", "0", "--q-prime", "1", "--format", "jsonl")
        assert result.returncode == 0, result.stderr
        (record,) = records_of(result.stdout)
        assert record["k"] == arithmetic.k_of(10**12) and record["h"] == 40
        assert not record["cohomology_isomorphic"] and not record["diffeomorphic"]
        assert elapsed < 2, elapsed

    @pytest.mark.parametrize("a, b, q, q_prime, witness", [
        (3, 2**40 + 2, 2**40 + 1, 1, "x->x, y->y"),
        (10, 10**18, 10**18 - 17, 17, "x->x, y->x+y"),
    ], ids=["a3-q2e40", "a10-b1e18"])
    def test_huge_q_oracle_answers_in_bounded_memory(self, a, b, q, q_prime, witness):
        # the image of the second relation is cut below x^a factor by
        # factor, so the oracle builds no q- or b-bit integer
        result, elapsed = bounded_child(CLI_MAIN, "classify", "--a", str(a), "--b", str(b),
                                        "--q", str(q), "--q-prime", str(q_prime), "--oracle",
                                        "--format", "jsonl")
        assert result.returncode == 0, result.stderr
        (record,) = records_of(result.stdout)
        assert record["cohomology_isomorphic"] and record["witness"] == witness
        assert elapsed < 2, elapsed

    def test_huge_x_power_is_cut_in_bounded_memory(self):
        # x -> x, y -> 0 sends the second relation to x^q 0^(b-q).  A search
        # ends before it reaches such a substitution (its x^a check or an
        # earlier witness ends it), so only a direct call shows that x^q is
        # cut, not built
        code = ("from realbott.cohomology import RingPresentation\n"
                "from realbott.gf2poly import LinearSubstitution\n"
                "from realbott.oracle import induces_homomorphism\n"
                "ring = RingPresentation(3, 2**40 + 2, 2**40 + 1)\n"
                "print(induces_homomorphism(LinearSubstitution(0b10, 0b00), ring, ring))\n")
        result, elapsed = bounded_child(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"
        assert elapsed < 2, elapsed

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "record.csv"
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "2",
             "--format", "csv", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().splitlines()[0] == EXPECTED_HEADER


# 0 and 1 often (1 == True, the trap of a dict-based boolean encoder), and ints far beyond 64 bits
schema_ints = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=2**64, max_value=2**256),
)
witness_text = st.text(st.one_of(st.sampled_from('"\\\u00e9\u2192\n'), st.characters()))
# every consistent (cohomology_isomorphic, diffeomorphic) pair: each field takes both values
consistent_truths = st.sampled_from([(False, False), (True, False), (True, True)])


@st.composite
def schema_verdicts(draw):
    ints = [draw(schema_ints) for _ in range(6)]
    cohomology, diffeo = draw(consistent_truths)
    # any witness is rendered through str(): real substitutions, and text that needs escaping
    witness = draw(st.none() | st.sampled_from(substitutions()) | witness_text)
    return ClassificationVerdict(*ints, cohomology, diffeo, witness)


class TestDumpsRecord:
    @given(schema_verdicts())
    @example(ClassificationVerdict(1, 1, 1, 0, 1, 0, True, False))
    @example(ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False,
                                   'x->"x" \\ y->x+y \u00e9\u2192'))
    def test_matches_json_dumps(self, verdict):
        assert dumps_record(verdict) == json.dumps(record_from_verdict(verdict))


def emitted(verdicts: list[ClassificationVerdict], fmt: str) -> str:
    out = io.StringIO()
    emit_records(verdicts, fmt, out)
    return out.getvalue()


class TestJsonArray:
    @given(st.lists(schema_verdicts(), max_size=6))
    @example([])
    @example([ClassificationVerdict(1, 1, 1, 0, 1, 0, True, False)])
    def test_matches_json_dumps(self, verdicts):
        expected = json.dumps([record_from_verdict(v) for v in verdicts], indent=2) + "\n"
        assert emitted(verdicts, "json") == expected


class TestText:
    def test_reference_columns_are_the_schema(self):
        assert RECORD_KEYS == SCHEMA

    @given(st.lists(schema_verdicts(), max_size=6))
    @example([])
    @example([ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False),
              ClassificationVerdict(10, 17, 0, 3, 4, 5, False, False, "x->x, y->x+y")])
    def test_matches_per_cell_widths(self, verdicts):
        assert emitted(verdicts, "text") == reference_text(verdicts)


def assert_same_output(actual: str, expected: str) -> None:
    """actual == expected, reporting the first differing line first: a diff
    of two long outputs takes pytest minutes to render."""
    actual_lines, expected_lines = actual.splitlines(True), expected.splitlines(True)
    for index, (got, want) in enumerate(zip(actual_lines, expected_lines)):
        assert got == want, f"first difference at line {index}"
    assert len(actual_lines) == len(expected_lines), "one output is a prefix of the other"
    assert actual == expected


def per_pair_table_verdicts(a: int, b: int) -> list[ClassificationVerdict]:
    """table's verdicts built the old way: one classify call per pair."""
    return [
        classify(a, b, q, q_prime)
        for q in range(b + 1)
        for q_prime in range(q, b + 1)
    ]


class TestTable:
    @pytest.mark.parametrize("fmt", FORMATS)
    # (10, 64) and (17, 33) hold rows with all three truth patterns; in
    # (10, 64) and (33, 1), b is a multiple of 2^h(a)
    @pytest.mark.parametrize(
        "a, b",
        [(1, 1), (2, 2), (10, 17), (9, 100), (64, 65), (1, 40), (33, 1), (10, 64), (17, 33)],
    )
    def test_matches_per_pair_records(self, runner, a, b, fmt):
        verdicts = per_pair_table_verdicts(a, b)
        expected = io.StringIO()
        emit_records(verdicts, fmt, expected)
        result = runner.invoke(main, ["table", "--a", str(a), "--b", str(b), "--format", fmt])
        assert result.exit_code == 0
        assert_same_output(result.output, expected.getvalue())
        if fmt == "jsonl":
            assert_same_output(result.output, "".join(
                json.dumps(record_from_verdict(v)) + "\n" for v in verdicts
            ))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_rendered_pattern_is_checked(self, runner, monkeypatch, fmt):
        checked = set()
        original = ClassificationVerdict.__post_init__
        monkeypatch.setattr(
            ClassificationVerdict, "__post_init__",
            lambda v: checked.add((v.q, (v.cohomology_isomorphic, v.diffeomorphic))) or original(v),
        )
        result = runner.invoke(main, ["table", "--a", "10", "--b", "64", "--format", fmt])
        assert result.exit_code == 0
        monkeypatch.undo()
        present = {(v.q, (v.cohomology_isomorphic, v.diffeomorphic))
                   for v in per_pair_table_verdicts(10, 64)}
        assert checked == present

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_inconsistent_verdict_is_internal_error(self, runner, monkeypatch, fmt):
        # k(a) = 0 makes every pair diffeomorphic, so the first row already
        # holds (0, 2): diffeomorphic but not cohomology-isomorphic at (10, 17)
        monkeypatch.setattr(arithmetic, "k_of", lambda a: 0)
        result = runner.invoke(main, ["table", "--a", "10", "--b", "17", "--format", fmt])
        assert result.exit_code == 3
        assert "refusing an inconsistent verdict" in result.stderr
        assert result.stdout == ""

    def test_pair_count_and_order(self, runner):
        result = runner.invoke(
            main, ["table", "--a", "2", "--b", "2", "--format", "jsonl"]
        )
        records = records_of(result.output)
        assert len(records) == 6
        assert [(r["q"], r["q_prime"]) for r in records] == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]

    def test_non_rigid_cell_shows_counterexample(self, runner):
        result = runner.invoke(
            main, ["table", "--a", "10", "--b", "17", "--format", "jsonl"]
        )
        records = records_of(result.output)
        assert any(
            r["cohomology_isomorphic"] and not r["diffeomorphic"] for r in records
        )

    def test_rigid_cell_has_no_counterexample(self, runner):
        result = runner.invoke(
            main, ["table", "--a", "9", "--b", "100", "--format", "jsonl"]
        )
        records = records_of(result.output)
        assert len(records) == 101 * 102 // 2
        assert not any(
            r["cohomology_isomorphic"] and not r["diffeomorphic"] for r in records
        )

    def test_json_array_format(self, runner):
        result = runner.invoke(
            main, ["table", "--a", "2", "--b", "2", "--format", "json"]
        )
        records = json.loads(result.output)
        assert isinstance(records, list) and len(records) == 6

    @pytest.mark.parametrize(
        "args",
        [["--a", "0", "--b", "-1"], ["--a", "5", "--b", "-1", "--format", "csv"]],
    )
    def test_out_of_range_usage_error(self, runner, args):
        # an empty q range used to print a bare header and exit 0
        result = runner.invoke(main, ["table", *args])
        assert result.exit_code == 2
        assert "bounds must be >= 1" in result.output
        assert EXPECTED_HEADER not in result.output


def per_cell_counterexample_verdicts(a_max: int, b_max: int) -> list[ClassificationVerdict]:
    """counterexamples' verdicts built the old way: counterexample_pair and
    classify once per cell."""
    return [
        classify(a, b, *pair)
        for a in range(1, a_max + 1)
        for b in range(1, b_max + 1)
        if (pair := counterexample_pair(a, b)) is not None
    ]


class TestCounterexamples:
    @pytest.mark.parametrize("fmt", FORMATS)
    # (130, 140): earlier rows have cells with q = 1 and the last row has
    # none, so text widths read off the last row hold only because the q
    # column is as wide as its name either way
    @pytest.mark.parametrize(
        "a_max, b_max", [(10, 17), (10, 32), (11, 20), (9, 1000), (64, 130), (130, 140), (128, 129)]
    )
    def test_matches_per_cell_records(self, runner, a_max, b_max, fmt):
        verdicts = per_cell_counterexample_verdicts(a_max, b_max)
        expected = io.StringIO()
        emit_records(verdicts, fmt, expected)
        result = runner.invoke(main, ["counterexamples", "--a-max", str(a_max),
                                      "--b-max", str(b_max), "--format", fmt])
        assert result.exit_code == 0
        assert_same_output(result.output, expected.getvalue())
        if not verdicts:  # the rigid range
            empty = {"text": "  ".join(SCHEMA) + "\n", "csv": EXPECTED_HEADER + "\n",
                     "json": "[]\n", "jsonl": ""}
            assert result.output == empty[fmt]

    def test_single_cell_in_range(self, runner):
        result = runner.invoke(
            main, ["counterexamples", "--a-max", "10", "--b-max", "17",
                   "--format", "jsonl"]
        )
        records = records_of(result.output)
        assert len(records) == 1
        (record,) = records
        assert (record["a"], record["b"]) == (10, 17)
        assert (record["q"], record["q_prime"]) == (0, 16)

    def test_rigid_range_is_empty(self, runner):
        result = runner.invoke(
            main, ["counterexamples", "--a-max", "9", "--b-max", "1000",
                   "--format", "jsonl"]
        )
        assert records_of(result.output) == []

    def test_multiple_of_period_branch(self, runner):
        result = runner.invoke(
            main, ["counterexamples", "--a-max", "10", "--b-max", "32",
                   "--format", "jsonl"]
        )
        records = records_of(result.output)
        by_cell = {(r["a"], r["b"]): r for r in records}
        assert (by_cell[(10, 32)]["q"], by_cell[(10, 32)]["q_prime"]) == (1, 17)

    def test_every_record_is_a_counterexample(self, runner):
        result = runner.invoke(
            main, ["counterexamples", "--a-max", "11", "--b-max", "20",
                   "--format", "jsonl"]
        )
        for record in records_of(result.output):
            assert record["cohomology_isomorphic"] and not record["diffeomorphic"]

    def test_bad_bounds_usage_error(self, runner):
        result = runner.invoke(main, ["counterexamples", "--a-max", "0", "--b-max", "5"])
        assert result.exit_code == 2

    def test_broken_construction_is_internal_error(self, runner, monkeypatch):
        # k(a) = h(a) makes the two moduli equal, so the constructed pair is diffeomorphic
        monkeypatch.setattr(arithmetic, "k_of", arithmetic.h_of)
        result = runner.invoke(main, ["counterexamples", "--a-max", "10", "--b-max", "17"])
        assert result.exit_code == 3
        assert "not a counterexample" in result.stderr

    def test_broken_cohomology_side_is_internal_error(self, runner, monkeypatch):
        # no congruence ever holds, so the constructed pair is not cohomology-isomorphic
        monkeypatch.setattr(arithmetic, "_congruent_to_q_or_complement", lambda *args: False)
        result = runner.invoke(main, ["counterexamples", "--a-max", "10", "--b-max", "17"])
        assert result.exit_code == 3
        assert "not a counterexample" in result.stderr


def near(bound: int):
    """Ints at and around a bound: negatives, 0, 1, the bound and one past it."""
    return st.sampled_from([-(10**18), -1, 0, 1, bound, bound + 1]) | st.integers(-3, abs(bound) + 2)


@st.composite
def criteria_argv(draw) -> list[str]:
    """argv of classify, table or counterexamples over the whole int domain,
    with --b and --b-max kept small so that outputs stay small."""
    command = draw(st.sampled_from(["classify", "table", "counterexamples"]))
    b = draw(near(12))
    if command == "counterexamples":
        a_max = draw(near(40) | st.integers(-(10**18), 10**18))
        argv = [command, "--a-max", str(a_max), "--b-max", str(draw(near(40)))]
    else:
        a = draw(near(12) | st.integers(-(10**18), 10**18))
        argv = [command, "--a", str(a), "--b", str(b)]
    if command == "classify":
        argv += ["--q", str(draw(near(b))), "--q-prime", str(draw(near(b)))]
    return argv + ["--format", draw(st.sampled_from(FORMATS))]


MALFORMED_ONLY = ["", "a", "a=1", "a=1,b", "a=1,b=", "a=x,b=2", "a=1;b=2", "a==1,b=2",
                  "a=1,,b=2", "a=1,a=2", "a=1,b=2,c=3", "A=1,B=2", "a=1.5,b=2", "a=1,b=2,"]


@st.composite
def engine_argv(draw) -> list[str]:
    """argv of verify or sw over the whole int domain, with every grid and
    ring kept small: --a-max, --b-max <= 4, --only cells with a, b <= 12 or
    malformed, and sw with a, b <= 30."""
    if draw(st.booleans()):
        b = draw(near(28))
        return ["sw", "--a", str(draw(near(28))), "--b", str(b), "--q", str(draw(near(b))),
                "--format", draw(st.sampled_from(["text", "json"]))]
    argv = ["verify", "--a-max", str(draw(near(2))), "--b-max", str(draw(near(2)))]
    only = draw(st.none() | st.sampled_from(MALFORMED_ONLY) | st.text(max_size=7)
                | st.builds("a={},b={}".format, near(10), near(10)))
    return argv if only is None else [*argv, "--only", only]


@st.composite
def cut_argv(draw) -> list[str]:
    """argv of any command that ends in one of its options with no value,
    or in a flag given "=value"."""
    argv = draw(criteria_argv() | engine_argv())
    if draw(st.booleans()):
        return [*argv, draw(st.sampled_from([*argv[1::2], "--out"]))]
    flag = {"classify": "--oracle", "verify": "--extended"}.get(argv[0], "--help")
    return [*argv, f"{flag}={draw(st.text(max_size=3))}"]


class TestExitCodes:
    @settings(deadline=None, max_examples=400)
    @given(criteria_argv() | engine_argv() | cut_argv())
    @example(["classify", "--a", str(10**18), "--b", "3", "--q", "0", "--q-prime", "3"])
    @example(["table", "--a", str(10**18), "--b", "12", "--format", "text"])
    @example(["counterexamples", "--a-max", "40", "--b-max", "40", "--format", "json"])
    @example(["counterexamples", "--a-max", str(10**18), "--b-max", "40", "--format", "text"])
    @example(["verify", "--a-max", "4", "--b-max", "4", "--only", "a=12,b=12"])
    @example(["verify", "--a-max", "1", "--b-max", "1", "--only", "b=1,a=0"])
    @example(["sw", "--a", "30", "--b", "30", "--q", "15", "--format", "json"])
    @example(["classify", "--a"])
    @example(["verify", "--extended=1"])
    def test_valid_input_answers_and_invalid_input_is_usage_error(self, argv):
        result = Runner().invoke(main, argv)
        assert result.exit_code in (0, 2), (result.exit_code, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "Usage:" in result.stderr


# imported by none of the runs below, but --help needs textwrap: click is
# gone, and cli imports the others only where a witness, sw, help text, a
# suggestion or a fault needs them
NOT_AT_START_UP = ("click", "json", "textwrap", "difflib", "traceback")


def test_start_up_does_not_import_click():
    # click took about 20 ms and 2 MB of every start-up; nothing may bring it
    # back, nor any of the other modules, into these runs
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from realbott import cli\n"
              "try:\n"
              "    cli.main(args=sys.argv[1:], prog_name='realbott')\n"
              "finally:\n"
              "    print(*sorted(name for name in set(sys.modules) - before\n"
              f"                  if name.split('.')[0] in {NOT_AT_START_UP!r}), file=sys.stderr)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["--help"],
                 ["verify", "--a-max", "8", "--b-max", "11"],
                 ["verify", "--only", "a=10,b=17", "--extended"],
                 ["table", "--a", "10", "--b", "17", "--format", "jsonl"],
                 ["counterexamples", "--a-max", "12", "--b-max", "20"]):
        result = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, (argv, result.stderr)
        added = result.stderr.split()
        if argv == ["--help"]:
            assert result.stdout.startswith("Usage: realbott [OPTIONS] COMMAND [ARGS]...")
            assert "click" not in added
        else:
            assert added == [], argv


def cli_child(argv: list[str], **popen) -> subprocess.Popen:
    """`python -m realbott.cli argv` in a child process that imports this
    checkout's src/ and writes its output unbuffered."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "realbott.cli", *argv], env=env, text=True,
                            **popen)


class TestEndsCleanly:
    """A reader that closes stdout early and an interrupt each end a run
    with their own exit code, not 1 (a mismatch) or 3 (an internal fault),
    and without a traceback."""

    @pytest.mark.parametrize("argv", [
        ["table", "--a", "3", "--b", "200"],
        ["verify", "--a-max", "5", "--b-max", "40"],
        ["classify", "--a", "10", "--b", "17", "--q", "0", "--q-prime", "16"],
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_ends_quietly(self, argv):
        # the read end is closed before the child starts: its first write fails
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            child = cli_child(argv, stdout=write_fd, stderr=subprocess.PIPE)
        finally:
            os.close(write_fd)
        _, err = child.communicate(timeout=60)
        assert child.returncode == cli.CLOSED_PIPE_EXIT == 141, err
        assert err == ""

    def test_reader_that_stops_after_one_line(self):
        # `table --a 3 --b 200 | head -1`: the output is far larger than a
        # pipe's buffer, so the child is still writing when the reader goes
        child = cli_child(["table", "--a", "3", "--b", "200"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith("a  ")
        child.stdout.close()
        with child.stderr:
            err = child.stderr.read()
        assert child.wait(timeout=60) == cli.CLOSED_PIPE_EXIT, err
        assert err == ""

    def test_interrupt_exits_130(self):
        child = cli_child(["verify", "--a-max", "64", "--b-max", "128"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline() == "a=1 b=1: 4 pairs, 0 mismatches\n"  # the run is under way
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
        assert child.returncode == cli.INTERRUPT_EXIT == 130, err
        assert err == "realbott: interrupted\n"
        assert "checked" not in out


class TestReferenceDigests:
    """perfbench/run.py checks each command's stdout against the sha256 in
    perfbench/reference.json; a --help that drifts fails its warm-up, so no
    pass of the benchmark runs at all."""

    @pytest.mark.parametrize("command", [
        "--help", "counterexamples --a-max 64 --b-max 512", "table --a 64 --b 513 --format jsonl",
    ])
    def test_stdout_matches_recorded_digest(self, runner, command):
        digests = json.loads(REFERENCE_DIGESTS.read_text())
        result = runner.invoke(main, command.split(), prog_name="python -m realbott.cli")
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digests[command]

    def test_help_is_78_wide_on_any_terminal(self, monkeypatch):
        # click wrapped help at COLUMNS - 2, so a caller's COLUMNS=60 failed
        # the benchmark's warm-up
        monkeypatch.setenv("COLUMNS", "60")
        child = cli_child(["--help"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        digest = json.loads(REFERENCE_DIGESTS.read_text())["--help"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSurface:
    """tests/cli_surface.json holds the exit code, stdout and stderr of
    `python -m realbott.cli ARGV` for every help screen, one argv of each
    usage error class and a few accepted spellings; main must reproduce
    each byte."""

    @pytest.mark.parametrize("case", SURFACE, ids=lambda case: "_".join(case["argv"]) or "no-arguments")
    def test_replays_recorded_output(self, runner, case):
        result = runner.invoke(main, case["argv"], prog_name="python -m realbott.cli")
        assert (result.exit_code, result.stdout, result.stderr) == (
            case["exit_code"], case["stdout"], case["stderr"])


class TestVerify:
    def test_minimal_grid(self, runner):
        result = runner.invoke(main, ["verify", "--a-max", "1", "--b-max", "1"])
        assert result.exit_code == 0
        assert "a=1 b=1: 4 pairs, 0 mismatches" in result.output
        assert "mismatches=0" in result.output

    def test_small_grid_passes(self, runner):
        result = runner.invoke(main, ["verify", "--a-max", "3", "--b-max", "3"])
        assert result.exit_code == 0
        assert "mismatches=0" in result.output

    def test_only_flag_restricts_grid(self, runner):
        result = runner.invoke(main, ["verify", "--only", "a=2,b=3"])
        assert result.exit_code == 0
        assert "a=2 b=3: 16 pairs, 0 mismatches" in result.output
        assert "checked 16 pairs" in result.output

    def test_extended_sweeps_report(self, runner):
        result = runner.invoke(
            main, ["verify", "--only", "a=1,b=1", "--extended"]
        )
        assert result.exit_code == 0
        assert "nonvanishing sweep a,b<=8: ok" in result.output
        assert "sw swap symmetry a,b<=8: ok" in result.output

    def test_malformed_only_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--only", "a=2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "only", ["a=2,b=3,a=1", "a=2,b=3,c=9", "a=2,b=3,b=3"]
    )
    def test_unknown_or_repeated_only_key_usage_error(self, runner, only):
        result = runner.invoke(main, ["verify", "--only", only])
        assert result.exit_code == 2
        assert "--only expects" in result.output
        assert "checked" not in result.output

    def test_only_value_with_equals_signs(self, runner):
        # an option's value is all that follows its first "="
        result = runner.invoke(main, ["verify", "--only=a=2,b=3"])
        assert result.exit_code == 0
        assert "a=2 b=3: 16 pairs, 0 mismatches" in result.output

    def test_only_keys_in_any_order(self, runner):
        result = runner.invoke(main, ["verify", "--only", "b=3,a=2"])
        assert result.exit_code == 0
        assert "a=2 b=3: 16 pairs, 0 mismatches" in result.output

    @pytest.mark.parametrize("only", ["a=0,b=3", "a=3,b=-1"])
    def test_out_of_range_only_usage_error(self, runner, only):
        result = runner.invoke(main, ["verify", "--only", only])
        assert result.exit_code == 2
        assert "bounds must be >= 1" in result.output
        assert "checked" not in result.output

    def test_identity_rejected_within_an_ideal_is_internal_error(self, runner, monkeypatch):
        # a failed internal check is a fault, not a mismatch
        monkeypatch.setattr(oracle, "is_graded_isomorphism",
                            rejects_identity_between_rings(oracle.is_graded_isomorphism))
        result = runner.invoke(main, ["verify", "--only", "a=10,b=17"])
        assert result.exit_code == 3
        assert "within one ideal" in result.stderr
        assert "MISMATCH" not in result.output

    def test_search_fault_is_a_mismatch(self, runner, monkeypatch):
        # a check that rejects every substitution but the identity splits
        # every class into its ideals: verify reports the pairs it now calls
        # non-isomorphic, not a traceback
        check = oracle.is_graded_isomorphism
        monkeypatch.setattr(oracle, "is_graded_isomorphism", lambda subst, src, dst: (
            subst == IDENTITY_SUBSTITUTION and check(subst, src, dst)))
        result = runner.invoke(main, ["verify", "--only", "a=10,b=17"])
        assert result.exit_code == 1
        assert "MISMATCH a=10 b=17 q=0 q'=17: oracle=False" in result.output
        assert "Traceback" not in result.output + result.stderr

    def test_renamed_classes_are_no_mismatch(self, runner, monkeypatch):
        # the same partition, each class named by its largest member: the lists
        # differ, so every pair is compared, and none mismatches
        classes = cli.cell_classes

        def largest_member_names(a, b):
            labels = classes(a, b)
            return [max(p for p, c in enumerate(labels) if c == label) for label in labels]

        assert largest_member_names(10, 17) != classes(10, 17)
        monkeypatch.setattr(cli, "cell_classes", largest_member_names)
        result = runner.invoke(main, ["verify", "--only", "a=10,b=17"])
        assert result.exit_code == 0
        assert masked_elapsed(result.stdout) == (
            "a=10 b=17: 324 pairs, 0 mismatches\n"
            "checked 324 pairs in _s: mismatches=0\n"
        )

    def test_split_classes_report_every_pair_in_order(self, runner, monkeypatch):
        # at a=3, b=4 the oracle joins q=0 with q=4 and q=1 with q=3; a criterion
        # that splits every class mismatches exactly on those ordered pairs, q-major
        monkeypatch.setattr(cli, "criterion_classes", lambda a, b: list(range(b + 1)))
        result = runner.invoke(main, ["verify", "--only", "a=3,b=4"])
        assert result.exit_code == 1
        assert masked_elapsed(result.stdout) == (
            "MISMATCH a=3 b=4 q=0 q'=4: oracle=True\n"
            "MISMATCH a=3 b=4 q=1 q'=3: oracle=True\n"
            "MISMATCH a=3 b=4 q=3 q'=1: oracle=True\n"
            "MISMATCH a=3 b=4 q=4 q'=0: oracle=True\n"
            "a=3 b=4: 25 pairs, 4 mismatches\n"
            "checked 25 pairs in _s: mismatches=4\n"
        )

    def test_mismatch_exits_one(self, runner, monkeypatch):
        # force a wrong criterion, every q its own class, to exercise the failure path
        monkeypatch.setattr(cli, "criterion_classes", lambda a, b: list(range(b + 1)))
        result = runner.invoke(main, ["verify", "--a-max", "1", "--b-max", "1"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output


class TestOut:
    """--out is opened at the first write; a path that cannot be opened is a
    usage error on every subcommand, and creates nothing."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "1"],
        ["table", "--a", "3", "--b", "2"],
        ["counterexamples", "--a-max", "10", "--b-max", "17"],
        ["verify", "--only", "a=1,b=1"],
        ["sw", "--a", "2", "--b", "2", "--q", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target", ["missing/x", "."], ids=["missing-directory", "directory"])
    def test_unopenable_out_is_usage_error(self, runner, tmp_path, argv, target):
        result = runner.invoke(main, [*argv, "--out", str(tmp_path / target)])
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.stderr
        assert "Could not open file" in result.stderr
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []


def run_quietly(argv: list[str]) -> None:
    """main(argv), which must exit 0."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0


def traced_peaks(*argvs: list[str]) -> list[int]:
    """The peak bytes tracemalloc sees while main runs each argv with --out
    /dev/null (Runner would hold the whole output).  The last argv runs
    once untraced first, so that lazy imports and caches count in none."""
    run_quietly([*argvs[-1], "--out", os.devnull])
    peaks = []
    for argv in argvs:
        tracemalloc.start()
        try:
            run_quietly([*argv, "--out", os.devnull])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestBoundedMemory:
    """A sweep holds one row at a time, never the whole sweep."""

    def test_counterexamples_text_holds_one_row(self):
        # a row of 1024 cells; 8 times as many rows must not raise the peak
        few, many = traced_peaks(*(["counterexamples", "--a-max", a_max, "--b-max", "1024"]
                                   for a_max in ("16", "128")))
        assert many < 1.5 * few, (few, many)

    def test_verify_holds_one_row_of_verdicts(self):
        # the b + 1 rings and class names grow linearly in b, the (b + 1)^2
        # verdicts of a whole cell quadratically: 4 times b, 16 times as many
        small, large = traced_peaks(*(["verify", "--only", f"a=10,b={b}"] for b in (50, 200)))
        assert large < 1.5 * 4 * small, (small, large)

    def test_verify_grid_holds_no_list_of_cells(self, monkeypatch):
        # one cheap class list per cell, so that only the grid itself could grow
        monkeypatch.setattr(cli, "cell_classes", lambda a, b: [0])
        monkeypatch.setattr(cli, "criterion_classes", lambda a, b: [0])
        few, many = traced_peaks(*(["verify", "--a-max", "1", "--b-max", b_max]
                                   for b_max in ("1000", "10000")))
        assert many < 1.5 * few, (few, many)


class TestSW:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["sw", "--a", "2", "--b", "2", "--q", "1"])
        assert result.output.strip() == "w(a=2, b=2, q=1) = 1 + x"

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["sw", "--a", "2", "--b", "2", "--q", "0", "--format", "json"]
        )
        assert json.loads(result.output) == {
            "a": 2, "b": 2, "q": 0, "sw_class": "1",
        }

    def test_invalid_presentation_usage_error(self, runner):
        result = runner.invoke(main, ["sw", "--a", "2", "--b", "2", "--q", "5"])
        assert result.exit_code == 2
