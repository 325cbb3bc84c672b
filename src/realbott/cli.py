"""Command-line surface: classify, table, counterexamples, verify, sw.

Machine-readable output comes in three flavors (csv, json, jsonl) next to
the default human-readable table.  Classification records always carry the
same nine scalar fields, in a fixed order; the CSV header is bit-exact so
downstream ingestion can rely on it.  Exit codes: 0 success, 1 the ring
oracle and the congruence criterion disagree, 2 usage error, 3 internal
error (with its traceback on stderr).
"""

from __future__ import annotations

import json
import sys
import time
from operator import attrgetter
from typing import IO, Iterable

import click

from .arithmetic import (
    ClassificationVerdict,
    OracleDisagreement,
    classify as classify_pair,
    classify_row,
    cohomology_criterion,
    counterexample_row,
)
from .cohomology import (
    RingPresentation,
    nonvanishing_failures,
    sw_swap_failures,
    total_sw_class,
)
from .oracle import cell_isomorphisms

SCHEMA = (
    "a",
    "b",
    "q",
    "q_prime",
    "h",
    "k",
    "cohomology_isomorphic",
    "diffeomorphic",
    "homotopy_equivalent",
)

FORMATS = ("text", "csv", "json", "jsonl")

INTERNAL_ERROR_EXIT = 3


_TRUTH = ("false", "true")  # indexed by a bool: how json and csv spell it


def _fields(v: ClassificationVerdict) -> tuple:
    """A verdict's SCHEMA fields in order, ints as they are and booleans as
    true/false, ready for a %s template."""
    return (
        v.a, v.b, v.q, v.q_prime, v.h, v.k,
        _TRUTH[v.cohomology_isomorphic], _TRUTH[v.diffeomorphic], _TRUTH[v.homotopy_equivalent],
    )


_RECORD_TEMPLATE = "{" + ", ".join(f'"{key}": %s' for key in SCHEMA) + "%s}"
# one element of json.dumps(records, indent=2)
_INDENTED_TEMPLATE = "  {\n" + ",\n".join(f'    "{key}": %s' for key in SCHEMA) + "%s\n  }"
_CSV_HEADER = ",".join(SCHEMA) + "\n"
_CSV_TEMPLATE = ",".join(["%s"] * len(SCHEMA)) + "\n"


def _witness_member(witness, separator: str) -> str:
    """A record's witness member after separator, encoded by json.dumps;
    empty when there is no witness."""
    return "" if witness is None else f'{separator}"witness": {json.dumps(str(witness))}'


def dumps_record(verdict: ClassificationVerdict) -> str:
    """The one JSON encoder for records: the SCHEMA fields, in order, filled
    into a fixed template, then the witness, if present, encoded by
    json.dumps.  Gives the same bytes as json.dumps of the record's dict
    without building the dict or an encoder.
    """
    return _RECORD_TEMPLATE % (*_fields(verdict), _witness_member(verdict.oracle_witness, ", "))


def _write_json(verdicts: list[ClassificationVerdict], out: IO[str]) -> None:
    """The records as one indent=2 array, each filled into a fixed template
    like dumps_record's and written as it is made: the same bytes as
    json.dumps(records, indent=2), with no record or output string held."""
    if not verdicts:
        out.write("[]\n")
        return
    separator = "[\n"
    for v in verdicts:
        witness = _witness_member(v.oracle_witness, ",\n    ")
        out.write(separator + _INDENTED_TEMPLATE % (*_fields(v), witness))
        separator = ",\n"
    out.write("\n]\n")


def _witness_cell(witness) -> str:
    return "-" if witness is None else str(witness)


def _write_text(verdicts: list[ClassificationVerdict], out: IO[str]) -> None:
    """An aligned table, written line by line once each column's width is
    known.  The witness column is there only if some verdict has one."""
    names = list(SCHEMA)
    # Every int field of a verdict is >= 0 (classify, classify_row and
    # counterexample_row check a, b >= 1 and 0 <= q, q' <= b; h and k are
    # counts), so an int column's longest cell is str(max(column)).  A
    # boolean column's cells spell the values present in it.
    longest = [str(max(map(attrgetter(key), verdicts), default=0)) for key in SCHEMA[:6]]
    longest += [
        max([_TRUTH[value] for value in set(map(attrgetter(key), verdicts))], key=len, default="")
        for key in SCHEMA[6:]
    ]
    with_witness = any(v.oracle_witness is not None for v in verdicts)
    if with_witness:
        names.append("witness")
        longest.append(max([_witness_cell(v.oracle_witness) for v in verdicts], key=len))
    widths = [max(len(name), len(cell)) for name, cell in zip(names, longest)]
    line = "  ".join(f"%{width}s" for width in widths) + "\n"
    out.write(line % tuple(names))
    for v in verdicts:
        fields = _fields(v)
        out.write(line % ((*fields, _witness_cell(v.oracle_witness)) if with_witness else fields))


def emit_records(
    verdicts: list[ClassificationVerdict], fmt: str, out: IO[str], header: bool = True
) -> None:
    """Write the verdicts' records in the requested format, schema columns
    first.  header=False leaves out the csv header line."""
    if fmt == "jsonl":
        out.write("".join([dumps_record(v) + "\n" for v in verdicts]))
    elif fmt == "csv":
        rows = "".join([_CSV_TEMPLATE % _fields(v) for v in verdicts])
        out.write(_CSV_HEADER + rows if header else rows)
    elif fmt == "json":
        _write_json(verdicts, out)
    else:
        _write_text(verdicts, out)


def _emit_rows(rows: Iterable[list[ClassificationVerdict]], fmt: str, out: IO[str]) -> None:
    """Write rows of verdicts as one output.  jsonl and csv go out a row at a
    time, after csv's fixed header; text and json need every verdict first,
    so they hold the verdicts (never their records)."""
    if fmt in ("jsonl", "csv"):
        if fmt == "csv":
            out.write(_CSV_HEADER)
        for row in rows:
            emit_records(row, fmt, out, header=False)
    else:
        emit_records([v for row in rows for v in row], fmt, out)


def _validated_verdict(a, b, q, q_prime, with_oracle=False) -> ClassificationVerdict:
    # only classify's input checks raise ValueError; an inconsistent verdict
    # raises RuntimeError, an internal error
    try:
        return classify_pair(a, b, q, q_prime, with_oracle=with_oracle)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


format_option = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default="text",
    show_default=True, help="Output format.",
)
out_option = click.option(
    "--out", type=click.File("w"), default="-",
    help="Write output to FILE instead of stdout.",
)


class _Group(click.Group):
    """Exits INTERNAL_ERROR_EXIT on an unexpected exception: 1 means a mismatch."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception:
            import traceback  # here, not at the top: start-up need not pay for it

            traceback.print_exc()
            click.echo("realbott: internal error", err=True)
            ctx.exit(INTERNAL_ERROR_EXIT)


@click.group(cls=_Group)
def main() -> None:
    """Classify projectivized sums of line bundles over real projective space.

    Members are indexed by (a, b, q): the base is RP^(a-1), the bundle has
    rank b with q tautological summands.  Classification of a pair (q, q')
    reports whether the mod-2 cohomology rings are isomorphic, and whether
    the manifolds are diffeomorphic / homotopy equivalent.
    """


@main.command()
@click.option("--a", "a", required=True, type=int, help="Base dimension parameter (>= 1).")
@click.option("--b", "b", required=True, type=int, help="Bundle rank (>= 1).")
@click.option("--q", "q", required=True, type=int, help="Tautological summands, first member.")
@click.option("--q-prime", required=True, type=int, help="Tautological summands, second member.")
@click.option("--oracle", is_flag=True, help="Also run the brute-force ring isomorphism search.")
@format_option
@out_option
def classify(a, b, q, q_prime, oracle, fmt, out) -> None:
    """Classify a single pair (q, q') for fixed (a, b)."""
    try:
        verdict = _validated_verdict(a, b, q, q_prime, with_oracle=oracle)
    except OracleDisagreement as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    emit_records([verdict], fmt, out)


def _check_bounds(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise click.UsageError(f"bounds must be >= 1, got a={a}, b={b}")


@main.command()
@click.option("--a", "a", required=True, type=int)
@click.option("--b", "b", required=True, type=int)
@format_option
@out_option
def table(a, b, fmt, out) -> None:
    """Classify every pair 0 <= q <= q' <= b for fixed (a, b)."""
    _check_bounds(a, b)
    _emit_rows((classify_row(a, b, q) for q in range(b + 1)), fmt, out)


@main.command()
@click.option("--a-max", required=True, type=int)
@click.option("--b-max", required=True, type=int)
@format_option
@out_option
def counterexamples(a_max, b_max, fmt, out) -> None:
    """List, for each (a, b) in range where rigidity fails, a constructed
    pair with isomorphic cohomology but non-diffeomorphic manifolds."""
    _check_bounds(a_max, b_max)
    _emit_rows((counterexample_row(a, b_max) for a in range(1, a_max + 1)), fmt, out)


def _parse_only(text: str) -> tuple[int, int]:
    try:
        fields = [part.split("=", 1) for part in text.split(",")]
        if sorted(key for key, _ in fields) != ["a", "b"]:
            raise ValueError("the keys must be a and b, once each")
        values = dict(fields)
        a, b = int(values["a"]), int(values["b"])
    except ValueError as exc:
        raise click.UsageError(f"--only expects 'a=<int>,b=<int>', got {text!r}") from exc
    _check_bounds(a, b)
    return a, b


@main.command()
@click.option("--a-max", default=6, show_default=True, type=int)
@click.option("--b-max", default=7, show_default=True, type=int)
@click.option("--only", default=None, help="Restrict to one cell, e.g. 'a=10,b=17'.")
@click.option("--extended", is_flag=True,
              help="Also sweep the nonvanishing checks and the Stiefel-Whitney swap symmetry.")
@out_option
def verify(a_max, b_max, only, extended, out) -> None:
    """Machine-check the congruence criterion against the ring oracle on an
    exhaustive (a, b, q, q') grid.  Exits 1 on any mismatch."""
    _check_bounds(a_max, b_max)
    cells = [_parse_only(only)] if only else [
        (a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
    ]
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for a, b in cells:
        cell_mismatches = 0
        for q, row in enumerate(cell_isomorphisms(a, b)):
            for q_prime, verdict in enumerate(row):
                cases += 1
                if verdict.isomorphic != cohomology_criterion(a, b, q, q_prime):
                    cell_mismatches += 1
                    out.write(
                        f"MISMATCH a={a} b={b} q={q} q'={q_prime}: "
                        f"oracle={verdict.isomorphic}\n"
                    )
        mismatches += cell_mismatches
        out.write(f"a={a} b={b}: {(b + 1) ** 2} pairs, {cell_mismatches} mismatches\n")
    if not cases:
        raise click.UsageError("no (a, b, q, q') pair to check")
    if extended:
        out.write(_extended_sweeps())
    elapsed = time.perf_counter() - start
    out.write(f"checked {cases} pairs in {elapsed:.2f}s: mismatches={mismatches}\n")
    if mismatches:
        sys.exit(1)


def _extended_sweeps() -> str:
    sweeps = (
        ("nonvanishing sweep", nonvanishing_failures(8, 8)),
        ("sw swap symmetry", sw_swap_failures(8, 8)),
    )
    return "".join(
        f"{name} a,b<=8: {'ok' if not bad else f'FAILED {bad}'}\n" for name, bad in sweeps
    )


@main.command()
@click.option("--a", "a", required=True, type=int)
@click.option("--b", "b", required=True, type=int)
@click.option("--q", "q", required=True, type=int)
@click.option("--format", "fmt", type=click.Choice(("text", "json")), default="text",
              show_default=True)
@out_option
def sw(a, b, q, fmt, out) -> None:
    """Print the total Stiefel-Whitney class of the member (a, b, q)."""
    try:
        pres = RingPresentation(a, b, q)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    cls = str(total_sw_class(pres))
    if fmt == "json":
        out.write(json.dumps({"a": a, "b": b, "q": q, "sw_class": cls}) + "\n")
    else:
        out.write(f"w(a={a}, b={b}, q={q}) = {cls}\n")


if __name__ == "__main__":  # pragma: no cover
    main()
