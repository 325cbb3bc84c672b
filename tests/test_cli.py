import io
import json

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from realbott import arithmetic, cli
from realbott.arithmetic import OracleDisagreement, classify
from realbott.cli import FORMATS, SCHEMA, dumps_record, emit_records, main, record_from_verdict

EXPECTED_HEADER = (
    "a,b,q,q_prime,h,k,cohomology_isomorphic,diffeomorphic,homotopy_equivalent"
)


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
        assert dumps_record(json.loads(line)) == line

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

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "record.csv"
        result = runner.invoke(
            main,
            ["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "2",
             "--format", "csv", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().splitlines()[0] == EXPECTED_HEADER


BOOLEAN_FIELDS = ("cohomology_isomorphic", "diffeomorphic", "homotopy_equivalent")

# 0 and 1 often (1 == True, the trap of a dict-based boolean encoder), and ints far beyond 64 bits
schema_ints = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=2**64, max_value=2**256),
)
witness_text = st.text(st.one_of(st.sampled_from('"\\\u00e9\u2192\n'), st.characters()))


@st.composite
def schema_records(draw):
    record = {
        key: draw(st.booleans() if key in BOOLEAN_FIELDS else schema_ints)
        for key in SCHEMA
    }
    witness = draw(st.none() | witness_text)
    if witness is not None:
        record["witness"] = witness
    return record


class TestDumpsRecord:
    @given(schema_records())
    @example(dict(zip(SCHEMA, (1, 1, 1, 0, 1, 0, True, False, False))))
    @example(dict(zip(SCHEMA, (10, 17, 0, 16, 4, 5, True, False, False)),
                  witness='x->"x" \\ y->x+y \u00e9\u2192'))
    def test_matches_json_dumps(self, record):
        assert dumps_record(record) == json.dumps(record)


def per_pair_table_records(a: int, b: int) -> list[dict]:
    """table's records built the old way: one classify call per pair."""
    return [
        record_from_verdict(classify(a, b, q, q_prime))
        for q in range(b + 1)
        for q_prime in range(q, b + 1)
    ]


class TestTable:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (10, 17), (9, 100), (64, 65)])
    def test_matches_per_pair_records(self, runner, a, b, fmt):
        records = per_pair_table_records(a, b)
        expected = io.StringIO()
        emit_records(records, fmt, expected)
        result = runner.invoke(main, ["table", "--a", str(a), "--b", str(b), "--format", fmt])
        assert result.exit_code == 0
        assert result.output == expected.getvalue()
        if fmt == "jsonl":
            assert result.output == "".join(json.dumps(r) + "\n" for r in records)

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


class TestCounterexamples:
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
        monkeypatch.setattr(arithmetic, "diffeo_criterion", lambda *args: True)
        result = runner.invoke(main, ["counterexamples", "--a-max", "10", "--b-max", "17"])
        assert result.exit_code == 3


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

    def test_mismatch_exits_one(self, runner, monkeypatch):
        # force a wrong criterion to exercise the failure path
        monkeypatch.setattr(
            cli, "cohomology_criterion", lambda a, b, q, q_prime: False
        )
        result = runner.invoke(main, ["verify", "--a-max", "1", "--b-max", "1"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output


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
