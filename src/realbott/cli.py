"""Command-line surface: classify, table, counterexamples, verify, sw.

Machine-readable output comes in three flavors (csv, json, jsonl) next to
the default human-readable table.  Classification records always carry the
same nine scalar fields, in a fixed order; the CSV header is bit-exact so
downstream ingestion can rely on it.  No command holds more than one row:
table and counterexamples stream every format a row at a time (text widths
are known before the first row), and verify holds one cell's two partitions,
the oracle's and the criterion's, as b + 1 class names each.  A row is a
few runs of records that share a template, each written with one str.join
over preformatted cells; every template comes from one real, checked
ClassificationVerdict.
classify --oracle and verify compare the ring oracle with the congruence
criterion here; the library only computes each side.
Exit codes: 0 success, 1 the ring oracle and the congruence criterion
disagree, 2 usage error, 3 internal error (with its traceback on stderr),
130 interrupted (128 + SIGINT), 141 stdout closed by its reader (128 +
SIGPIPE, as a shell reports a filter that SIGPIPE ended), with no traceback.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import product, zip_longest
from operator import attrgetter
from typing import IO, Iterable

import click

from .arithmetic import (
    ClassificationVerdict,
    classify as classify_pair,
    counterexample_runs,
    criteria_runs,
    criterion_classes,
    h_of,
    k_of,
)
from .cohomology import (
    RingPresentation,
    nonvanishing_failures,
    sw_swap_failures,
    total_sw_class,
)
from .oracle import cell_classes, rings_isomorphic_bruteforce

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
INTERRUPT_EXIT = 130
CLOSED_PIPE_EXIT = 141


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
_SEPARATOR = {"json": ",\n"}  # between two records; no other format has one


def _witness_member(witness, separator: str) -> str:
    """A record's witness member after separator, encoded by json.dumps;
    empty when there is no witness."""
    if witness is None:
        return ""
    import json  # here, not at the top: only witnesses and sw need it

    return f'{separator}"witness": {json.dumps(str(witness))}'


def _record(v: ClassificationVerdict, fmt: str, columns=(), open_fields=slice(0)) -> str:
    """v's record in fmt (text in the %-columns given), with the SCHEMA
    fields in open_fields left as %s slots for the records that share every
    other field with v.  A text slot keeps its column's width."""
    fields, witness = list(_fields(v)), v.oracle_witness
    if fmt == "text":
        cells = [c % f for c, f in zip(columns, (*fields, "-" if witness is None else witness))]
        cells[open_fields] = columns[open_fields]
        return "  ".join(cells) + "\n"
    fields[open_fields] = ["%s"] * len(fields[open_fields])
    if fmt == "csv":
        return _CSV_TEMPLATE % tuple(fields)
    if fmt == "json":
        return _INDENTED_TEMPLATE % (*fields, _witness_member(witness, ",\n    "))
    return _RECORD_TEMPLATE % (*fields, _witness_member(witness, ", ")) + "\n"


def _slot(fmt: str, columns, field: int) -> str:
    """The slot _record leaves for an open field; in text it keeps its width."""
    return columns[field] if fmt == "text" else "%s"


def _render_runs(runs, fmt: str, columns, field: int, cells: list[str], verdict_at) -> list[str]:
    """Each run (key, start, stop) as one str.join of the records that hold
    cells[start:stop] in SCHEMA field `field`.  A key's records come from the
    template of one real, checked verdict_at(key, start), at its first run."""
    parts = {}
    for key, start, _ in runs:
        if key not in parts:
            template = _record(verdict_at(key, start), fmt, columns, slice(field, field + 1))
            pre, suf = template.split(_slot(fmt, columns, field))
            parts[key] = pre, suf + _SEPARATOR.get(fmt, "") + pre, suf
    return [pre + joint.join(cells[start:stop]) + suf
            for key, start, stop in runs for pre, joint, suf in [parts[key]]]


def _text_columns(maxima: Iterable[int]) -> list[str]:
    """The %-format of each SCHEMA column of a text table, from its int
    columns' maxima.  Every int field is >= 0 (a, b >= 1, 0 <= q, q' <= b,
    and h, k are counts), so str(max(column)) is an int column's longest
    cell; every boolean column's name is longer than "false"."""
    return [f"%{max(len(n), len(str(m)))}s" for n, m in zip_longest(SCHEMA, maxima, fillvalue=0)]


def _stream(rows: Iterable[Iterable[str]], fmt: str, out: IO[str], columns=(), names=SCHEMA):
    """Write rows of records as one output: json as json.dumps(records,
    indent=2) spells it, csv and text after their header.  The head goes out
    with the first record, so a row that fails before then writes nothing."""
    head = ("  ".join(columns) % tuple(names) + "\n" if fmt == "text"
            else {"csv": _CSV_HEADER, "json": "[\n"}.get(fmt, ""))
    separator, started = _SEPARATOR.get(fmt, ""), False
    for row in rows:
        body = separator.join(row)
        if body:
            out.write((separator if started else head) + body)
            started = True
    if fmt == "json":
        out.write("\n]\n" if started else "[]\n")
    elif not started:
        out.write(head)


def emit_records(verdicts: list[ClassificationVerdict], fmt: str, out: IO[str]) -> None:
    """Write the verdicts' records in the requested format, schema columns
    first; text has a witness column only if some verdict has a witness."""
    columns, names = (), SCHEMA
    if fmt == "text":
        columns = _text_columns([max(map(attrgetter(k), verdicts), default=0) for k in SCHEMA[:6]])
        witnesses = [len(str(v.oracle_witness)) for v in verdicts if v.oracle_witness is not None]
        if witnesses:
            names = (*SCHEMA, "witness")
            columns.append(f"%{max(len('witness'), *witnesses)}s")
    _stream([[_record(v, fmt, columns) for v in verdicts]], fmt, out, columns, names)


format_option = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default="text",
    show_default=True, help="Output format.",
)
out_option = click.option(
    "--out", type=click.File("w"), default="-",
    help="Write output to FILE instead of stdout.",
)


class _Group(click.Group):
    """Exits INTERNAL_ERROR_EXIT on an unexpected exception: 1 means a mismatch.
    An --out that cannot be opened is a usage error: click opens it at the
    first write, so no file is made when another usage error comes first.
    A closed stdout and an interrupt each have their own exit code, which
    click would report as 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.FileError as exc:
            raise click.BadParameter(exc.format_message(), ctx, param_hint="'--out'") from exc
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except BrokenPipeError:
            # the reader has gone, as after `| head`: end quietly, and let
            # Python's flush of stdout at exit go to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            ctx.exit(CLOSED_PIPE_EXIT)
        except KeyboardInterrupt:
            click.echo("realbott: interrupted", err=True)
            ctx.exit(INTERRUPT_EXIT)
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
    # only classify's input checks raise ValueError; an inconsistent verdict
    # raises RuntimeError, an internal error
    try:
        verdict = classify_pair(a, b, q, q_prime)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if oracle:
        src, dst = RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
        witness = rings_isomorphic_bruteforce(src, dst)
        if (witness is not None) != verdict.cohomology_isomorphic:
            click.echo(f"ring oracle disagrees with the congruence criterion on (a={a}, b={b}, "
                       f"q={q}, q'={q_prime}): oracle says {witness is not None}, criterion says "
                       f"{verdict.cohomology_isomorphic}", err=True)
            sys.exit(1)
        verdict.oracle_witness = witness
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
    # every column's widest cell is known before the first row: the row q = b holds (b, b)
    columns = _text_columns((a, b, b, b, h_of(a), k_of(a)))

    cells = [_slot(fmt, columns, 3) % q_prime for q_prime in range(b + 1)]

    def rows():
        for q in range(b + 1):
            h, k, runs = criteria_runs(a, b, q)
            yield _render_runs(runs, fmt, columns, 3, cells, lambda truth, q_prime:
                               ClassificationVerdict(a, b, q, q_prime, h, k, *truth))

    _stream(rows(), fmt, out, columns)


@main.command()
@click.option("--a-max", required=True, type=int)
@click.option("--b-max", required=True, type=int)
@format_option
@out_option
def counterexamples(a_max, b_max, fmt, out) -> None:
    """List, for each (a, b) in range where rigidity fails, a constructed
    pair with isomorphic cohomology but non-diffeomorphic manifolds."""
    _check_bounds(a_max, b_max)
    # a row has cells only if 2^h(a) < b_max, and a <= 2^h(a): no a >= b_max has any
    a_range, columns = range(1, min(a_max, b_max - 1) + 1), ()
    if fmt == "text":
        # a, 2^h(a), h and k never fall as a grows, and every row ends at
        # b_max: so the last row with cells holds the widest cell of every
        # column but q, which is 0 or 1 and never wider than its name.  A row
        # without cells has an empty b range, so this scan costs O(b_max).
        maxima = ()
        for a in reversed(a_range):
            h, k, runs = counterexample_runs(a, b_max)
            if runs:
                maxima = (a, b_max, *map(max, zip(*(pair for pair, _, _ in runs))), h, k)
                break
        columns = _text_columns(maxima)

    def rendered():
        cells = []
        for a in a_range:
            h, k, runs = counterexample_runs(a, b_max)
            if not runs:
                continue
            # every row ends at b_max; counterexample_runs has checked every cell
            cells = cells or [_slot(fmt, columns, 1) % b for b in range(b_max + 1)]
            yield _render_runs(runs, fmt, columns, 1, cells, lambda pair, b:
                               ClassificationVerdict(a, b, *pair, h, k, True, False))

    _stream(rendered(), fmt, out, columns)


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
    cells = [_parse_only(only)] if only else (
        (a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
    )
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for a, b in cells:
        by_oracle, by_criterion = cell_classes(a, b), criterion_classes(a, b)
        cell_mismatches = 0
        # both lists name each class by its least member, so equal lists are equal partitions
        if by_oracle != by_criterion:
            for q, q_prime in product(range(b + 1), repeat=2):
                isomorphic = by_oracle[q] == by_oracle[q_prime]
                if isomorphic != (by_criterion[q] == by_criterion[q_prime]):
                    cell_mismatches += 1
                    out.write(f"MISMATCH a={a} b={b} q={q} q'={q_prime}: oracle={isomorphic}\n")
        cases += (b + 1) ** 2
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
        import json  # here, not at the top: only witnesses and sw need it

        out.write(json.dumps({"a": a, "b": b, "q": q, "sw_class": cls}) + "\n")
    else:
        out.write(f"w(a={a}, b={b}, q={q}) = {cls}\n")


if __name__ == "__main__":  # pragma: no cover
    main()
