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
from typing import IO

import click

from .arithmetic import (
    ClassificationVerdict,
    OracleDisagreement,
    classify as classify_pair,
    classify_row,
    cohomology_criterion,
    counterexample_pair,
)
from .cohomology import (
    RingPresentation,
    nonvanishing_check,
    normal_form,
    total_sw_class,
)
from .gf2poly import COMPLEMENT_SUBSTITUTION, substitute_linear
from .oracle import rings_isomorphic_bruteforce

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


def record_from_verdict(verdict: ClassificationVerdict) -> dict:
    """Flatten a verdict into the fixed output schema (plus witness)."""
    record = {
        "a": verdict.a,
        "b": verdict.b,
        "q": verdict.q,
        "q_prime": verdict.q_prime,
        "h": verdict.h,
        "k": verdict.k,
        "cohomology_isomorphic": verdict.cohomology_isomorphic,
        "diffeomorphic": verdict.diffeomorphic,
        "homotopy_equivalent": verdict.homotopy_equivalent,
    }
    if verdict.oracle_witness is not None:
        record["witness"] = str(verdict.oracle_witness)
    return record


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_RECORD_TEMPLATE = "{" + ", ".join(f'"{key}": %s' for key in SCHEMA) + "%s}"


def dumps_record(record: dict) -> str:
    """The one JSON encoder for records: the SCHEMA fields, in order, filled
    into a fixed template (booleans as true/false, ints in decimal), then the
    witness, if present, encoded by json.dumps.  Gives the same bytes as
    json.dumps(record) on such a record, without building an encoder per call.
    """
    witness = ', "witness": ' + json.dumps(record["witness"]) if "witness" in record else ""
    return _RECORD_TEMPLATE % (*[_cell(record[key]) for key in SCHEMA], witness)


def emit_records(records: list[dict], fmt: str, out: IO[str]) -> None:
    """Write records in the requested format, schema columns first."""
    if fmt == "jsonl":
        out.write("".join([dumps_record(record) + "\n" for record in records]))
    elif fmt == "json":
        out.write(json.dumps(records, indent=2) + "\n")
    elif fmt == "csv":
        out.write(",".join(SCHEMA) + "\n")
        for record in records:
            out.write(",".join(_cell(record[key]) for key in SCHEMA) + "\n")
    else:
        extras = [
            key for key in ("witness", "sw_class")
            if any(key in record for record in records)
        ]
        columns = list(SCHEMA) + extras
        table = [columns] + [
            [_cell(record.get(key, "-")) for key in columns] for record in records
        ]
        widths = [max(len(row[c]) for row in table) for c in range(len(columns))]
        for row in table:
            out.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n")


def _validated_verdict(a, b, q, q_prime, with_oracle=False) -> ClassificationVerdict:
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
    emit_records([record_from_verdict(verdict)], fmt, out)


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
    rows = ([record_from_verdict(v) for v in classify_row(a, b, q)] for q in range(b + 1))
    if fmt == "jsonl":  # streamed one q-row at a time; the others need every record
        for row in rows:
            emit_records(row, fmt, out)
    else:
        emit_records([record for row in rows for record in row], fmt, out)


@main.command()
@click.option("--a-max", required=True, type=int)
@click.option("--b-max", required=True, type=int)
@format_option
@out_option
def counterexamples(a_max, b_max, fmt, out) -> None:
    """List, for each (a, b) in range where rigidity fails, a constructed
    pair with isomorphic cohomology but non-diffeomorphic manifolds."""
    _check_bounds(a_max, b_max)
    records = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            pair = counterexample_pair(a, b)
            if pair is None:
                continue
            records.append(record_from_verdict(_validated_verdict(a, b, *pair)))
    emit_records(records, fmt, out)


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
        # each ring serves as source and target, so it is built once per cell
        rings = [RingPresentation(a, b, q) for q in range(b + 1)]
        for q, src in enumerate(rings):
            for q_prime, dst in enumerate(rings):
                verdict = rings_isomorphic_bruteforce(src, dst)
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
    lines = []
    bad = [
        (a, b, q)
        for a in range(1, 9)
        for b in range(1, 9)
        for q in range(1, b)
        if nonvanishing_check(RingPresentation(a, b, q)) != (True, True)
    ]
    lines.append(f"nonvanishing sweep a,b<=8: {'ok' if not bad else f'FAILED {bad}'}")
    bad = []
    for a in range(1, 9):
        for b in range(1, 9):
            for q in range(b + 1):
                swapped = RingPresentation(a, b, b - q)
                carried = normal_form(
                    substitute_linear(
                        total_sw_class(RingPresentation(a, b, q)).lift(),
                        COMPLEMENT_SUBSTITUTION,
                    ),
                    swapped,
                )
                if carried != total_sw_class(swapped):
                    bad.append((a, b, q))
    lines.append(f"sw swap symmetry a,b<=8: {'ok' if not bad else f'FAILED {bad}'}")
    return "".join(line + "\n" for line in lines)


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
