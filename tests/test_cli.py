import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realbott import arithmetic, cli, oracle
from realbott.arithmetic import (
    ClassificationVerdict,
    OracleDisagreement,
    classify,
    counterexample_pair,
)
from realbott.gf2poly import IDENTITY_SUBSTITUTION
from realbott.oracle import IsoVerdict
from realbott.cli import FORMATS, SCHEMA, emit_records, main

from _oracles import (
    RECORD_KEYS,
    dumps_record,
    record_from_verdict,
    reference_text,
    substitutions,
)

EXPECTED_HEADER = (
    "a,b,q,q_prime,h,k,cohomology_isomorphic,diffeomorphic,homotopy_equivalent"
)
REFERENCE_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture
def runner():
    return CliRunner()


def records_of(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines() if line]


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
        assert dumps_record(ClassificationVerdict(**json.loads(line))) == line

    def test_oracle_disagreement_exits_one(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise OracleDisagreement("ring oracle disagrees")

        monkeypatch.setattr(cli, "classify_pair", broken)
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0",
             "--q-prime", "1", "--oracle"],
        )
        assert result.exit_code == 1

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
        # 2^k(a) has about a/2 bits; the criterion must never build it.  The
        # address-space limit makes a regression fail fast in the child
        # instead of exhausting the host's memory.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from realbott.cli import main\n"
            "main(sys.argv[1:])\n"
        )
        argv = ["classify", "--a", str(10**12), "--b", "3", "--q", "0", "--q-prime", "1",
                "--format", "jsonl"]
        src = str(Path(arithmetic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-c", script, *argv],
                                env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        (record,) = records_of(result.stdout)
        assert record["k"] == arithmetic.k_of(10**12) and record["h"] == 40
        assert not record["cohomology_isomorphic"] and not record["diffeomorphic"]
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
    return ClassificationVerdict(*ints, cohomology, diffeo, diffeo, witness)


class TestDumpsRecord:
    @given(schema_verdicts())
    @example(ClassificationVerdict(1, 1, 1, 0, 1, 0, True, False, False))
    @example(ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False, False,
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
    @example([ClassificationVerdict(1, 1, 1, 0, 1, 0, True, False, False)])
    def test_matches_json_dumps(self, verdicts):
        expected = json.dumps([record_from_verdict(v) for v in verdicts], indent=2) + "\n"
        assert emitted(verdicts, "json") == expected


class TestText:
    def test_reference_columns_are_the_schema(self):
        assert RECORD_KEYS == SCHEMA

    @given(st.lists(schema_verdicts(), max_size=6))
    @example([])
    @example([ClassificationVerdict(10, 17, 0, 16, 4, 5, True, False, False),
              ClassificationVerdict(10, 17, 0, 3, 4, 5, False, False, False, "x->x, y->x+y")])
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


class TestExitCodes:
    @settings(deadline=None, max_examples=400)
    @given(criteria_argv() | engine_argv())
    @example(["classify", "--a", str(10**18), "--b", "3", "--q", "0", "--q-prime", "3"])
    @example(["table", "--a", str(10**18), "--b", "12", "--format", "text"])
    @example(["counterexamples", "--a-max", "40", "--b-max", "40", "--format", "json"])
    @example(["counterexamples", "--a-max", str(10**18), "--b-max", "40", "--format", "text"])
    @example(["verify", "--a-max", "4", "--b-max", "4", "--only", "a=12,b=12"])
    @example(["verify", "--a-max", "1", "--b-max", "1", "--only", "b=1,a=0"])
    @example(["sw", "--a", "30", "--b", "30", "--q", "15", "--format", "json"])
    def test_valid_input_answers_and_invalid_input_is_usage_error(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code in (0, 2), (result.exit_code, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "Usage:" in result.stderr


class TestReferenceDigests:
    """perfbench/run.py checks each command's stdout against the sha256 in
    perfbench/reference.json; a --help that drifts fails its warm-up, so no
    pass of the benchmark runs at all."""

    @pytest.mark.parametrize("command", [
        "--help", "counterexamples --a-max 64 --b-max 512", "table --a 64 --b 513 --format jsonl",
    ])
    def test_stdout_matches_recorded_digest(self, runner, command):
        digests = json.loads(REFERENCE_DIGESTS.read_text())
        # click wraps help at 78 columns when stdout is not a terminal, as in
        # the benchmark's child processes; CliRunner alone would force 80
        result = runner.invoke(
            main, command.split(), prog_name="python -m realbott.cli", terminal_width=78
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digests[command]


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

    def test_failed_composed_witness_is_internal_error(self, runner, monkeypatch):
        # a composed witness that fails its check is a fault, not a mismatch
        identity = {subst: IDENTITY_SUBSTITUTION for subst in substitutions()}
        monkeypatch.setattr(oracle, "_ADJUGATE", identity)
        result = runner.invoke(main, ["verify", "--only", "a=10,b=17"])
        assert result.exit_code == 3
        assert "composed witness" in result.stderr
        assert "MISMATCH" not in result.output

    def test_mismatch_exits_one(self, runner, monkeypatch):
        # force a wrong criterion to exercise the failure path
        monkeypatch.setattr(
            cli, "cohomology_criterion", lambda a, b, q, q_prime: False
        )
        result = runner.invoke(main, ["verify", "--a-max", "1", "--b-max", "1"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output


def traced_peaks(*argvs: list[str]) -> list[int]:
    """The peak bytes tracemalloc sees while main runs each argv with --out
    /dev/null (CliRunner would hold the whole output).  The last argv runs
    once untraced first, so that lazy imports and caches count in none."""
    main([*argvs[-1], "--out", os.devnull], standalone_mode=False)
    peaks = []
    for argv in argvs:
        tracemalloc.start()
        try:
            main([*argv, "--out", os.devnull], standalone_mode=False)
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
        # the b + 1 rings and one row grow linearly in b, the (b + 1)^2
        # verdicts of a whole cell quadratically: 4 times b, 16 times as many
        small, large = traced_peaks(*(["verify", "--only", f"a=10,b={b}"] for b in (50, 200)))
        assert large < 1.5 * 4 * small, (small, large)

    def test_verify_grid_holds_no_list_of_cells(self, monkeypatch):
        # one cheap row per cell, so that only the grid itself could grow
        monkeypatch.setattr(cli, "cell_isomorphisms",
                            lambda a, b: iter([[IsoVerdict(True, IDENTITY_SUBSTITUTION)]]))
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
