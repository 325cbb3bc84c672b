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
The command line needs nothing beyond the standard library.  COMMANDS lists
each command's function and its long options (name, kind, default, help),
and one loop (_parse) reads argv against it: "--name VALUE", "--name=VALUE",
flags, repeats (the last wins), "--" and an eager --help.  Help screens and
usage errors keep the layout of click, which this parser replaced: 78
columns wide on every terminal, and every usage error (exit 2) under its
command's usage line.
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
from typing import IO, Iterable, NamedTuple

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
USAGE_EXIT = 2


class UsageError(Exception):
    """Input the commands refuse: main writes the usage of the command at
    fault (of the whole program, if program is true), then the message,
    and exits USAGE_EXIT."""

    def __init__(self, message: str, program: bool = False):
        super().__init__(message)
        self.program = program


_TRUTH = ("false", "true")  # indexed by a bool: how json and csv spell it
_schema_values = attrgetter(*SCHEMA)


def _fields(v: ClassificationVerdict) -> list:
    """A verdict's SCHEMA fields in order, ints as they are and booleans as
    true/false, ready for a %s template."""
    return [_TRUTH[x] if type(x) is bool else x for x in _schema_values(v)]


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
    fields, witness = _fields(v), v.oracle_witness
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


def classify(a, b, q, q_prime, oracle, format, out) -> None:
    """Classify a single pair (q, q') for fixed (a, b)."""
    # only classify's input checks raise ValueError; an inconsistent verdict
    # raises RuntimeError, an internal error
    try:
        verdict = classify_pair(a, b, q, q_prime)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if oracle:
        src, dst = RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
        witness = rings_isomorphic_bruteforce(src, dst)
        if (witness is not None) != verdict.cohomology_isomorphic:
            print(f"ring oracle disagrees with the congruence criterion on (a={a}, b={b}, "
                  f"q={q}, q'={q_prime}): oracle says {witness is not None}, criterion says "
                  f"{verdict.cohomology_isomorphic}", file=sys.stderr)
            sys.exit(1)
        verdict.oracle_witness = witness
    emit_records([verdict], format, out)


def _check_bounds(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise UsageError(f"bounds must be >= 1, got a={a}, b={b}")


def table(a, b, format, out) -> None:
    """Classify every pair 0 <= q <= q' <= b for fixed (a, b)."""
    _check_bounds(a, b)
    # every column's widest cell is known before the first row: the row q = b holds (b, b)
    columns = _text_columns((a, b, b, b, h_of(a), k_of(a)))

    cells = [_slot(format, columns, 3) % q_prime for q_prime in range(b + 1)]

    def rows():
        for q in range(b + 1):
            h, k, runs = criteria_runs(a, b, q)
            yield _render_runs(runs, format, columns, 3, cells, lambda truth, q_prime:
                               ClassificationVerdict(a, b, q, q_prime, h, k, *truth))

    _stream(rows(), format, out, columns)


def counterexamples(a_max, b_max, format, out) -> None:
    """List, for each (a, b) in range where rigidity fails, a constructed
    pair with isomorphic cohomology but non-diffeomorphic manifolds."""
    _check_bounds(a_max, b_max)
    # a row has cells only if 2^h(a) < b_max, and a <= 2^h(a): no a >= b_max has any
    a_range, columns = range(1, min(a_max, b_max - 1) + 1), ()
    if format == "text":
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
            cells = cells or [_slot(format, columns, 1) % b for b in range(b_max + 1)]
            yield _render_runs(runs, format, columns, 1, cells, lambda pair, b:
                               ClassificationVerdict(a, b, *pair, h, k, True, False))

    _stream(rendered(), format, out, columns)


def _parse_only(text: str) -> tuple[int, int]:
    try:
        fields = [part.split("=", 1) for part in text.split(",")]
        if sorted(key for key, _ in fields) != ["a", "b"]:
            raise ValueError("the keys must be a and b, once each")
        values = dict(fields)
        a, b = int(values["a"]), int(values["b"])
    except ValueError as exc:
        raise UsageError(f"--only expects 'a=<int>,b=<int>', got {text!r}") from exc
    _check_bounds(a, b)
    return a, b


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


def sw(a, b, q, format, out) -> None:
    """Print the total Stiefel-Whitney class of the member (a, b, q)."""
    try:
        pres = RingPresentation(a, b, q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cls = str(total_sw_class(pres))
    if format == "json":
        import json  # here, not at the top: only witnesses and sw need it

        out.write(json.dumps({"a": a, "b": b, "q": q, "sw_class": cls}) + "\n")
    else:
        out.write(f"w(a={a}, b={b}, q={q}) = {cls}\n")


class Option(NamedTuple):
    """One long option of a command, as the parser and the help read it.
    kind is "int" (converted by int(); required unless it has a default),
    "text", "flag" (no value; True when given, else False), "file" (an
    --out path; stdout when it is "-" or not given) or the tuple of a
    choice's values (the first when not given).  The command receives the
    value under the option's name without its dashes, "-" read as "_"."""

    name: str
    kind: object
    default: object = None
    help: str = ""

    @property
    def required(self) -> bool:
        return self.kind == "int" and self.default is None

    @property
    def fallback(self):
        """The value of an int, text or choice option that is not given."""
        return self.kind[0] if isinstance(self.kind, tuple) else self.default

    def value(self, raw: str | None):
        """The keyword value of the option given as raw, or not given (None)."""
        if self.kind == "flag":
            return raw is not None
        if self.kind == "file":
            return sys.stdout if raw in (None, "-") else _LazyFile(raw)
        if raw is None:
            if self.required:
                raise UsageError(f"Missing option '{self.name}'.")
            return self.fallback
        if self.kind == "int":
            try:
                return int(raw)
            except ValueError:
                raise UsageError(f"Invalid value for '{self.name}': {raw!r} is not a valid "
                                 f"integer.") from None
        if isinstance(self.kind, tuple) and raw not in self.kind:
            raise UsageError(f"Invalid value for '{self.name}': {raw!r} is not one of "
                             f"{', '.join(map(repr, self.kind))}.")
        return raw

    def help_row(self) -> tuple[str, str]:
        """The option's name and metavar, and its help text, as its command's help lists them."""
        if isinstance(self.kind, tuple):
            term = f"{self.name} [{'|'.join(self.kind)}]"
        else:
            term = self.name + {"int": " INTEGER", "text": " TEXT", "file": " FILENAME"}.get(self.kind, "")
        note = ("[required]" if self.required else
                "" if self.fallback is None else f"[default: {self.fallback}]")
        return term, f"{self.help}  {note}".strip()


HELP = Option("--help", "flag", help="Show this message and exit.")
FORMAT = Option("--format", FORMATS, help="Output format.")
OUT = Option("--out", "file", help="Write output to FILE instead of stdout.")

# Each command's function and its options, in the order its help lists them.
COMMANDS = {
    "classify": (classify, (
        Option("--a", "int", help="Base dimension parameter (>= 1)."),
        Option("--b", "int", help="Bundle rank (>= 1)."),
        Option("--q", "int", help="Tautological summands, first member."),
        Option("--q-prime", "int", help="Tautological summands, second member."),
        Option("--oracle", "flag", help="Also run the brute-force ring isomorphism search."),
        FORMAT, OUT)),
    "table": (table, (
        Option("--a", "int"),
        Option("--b", "int"),
        FORMAT, OUT)),
    "counterexamples": (counterexamples, (
        Option("--a-max", "int"),
        Option("--b-max", "int"),
        FORMAT, OUT)),
    "verify": (verify, (
        Option("--a-max", "int", 6),
        Option("--b-max", "int", 7),
        Option("--only", "text", help="Restrict to one cell, e.g. 'a=10,b=17'."),
        Option("--extended", "flag",
               help="Also sweep the nonvanishing checks and the Stiefel-Whitney swap symmetry."),
        OUT)),
    "sw": (sw, (
        Option("--a", "int"),
        Option("--b", "int"),
        Option("--q", "int"),
        Option("--format", ("text", "json")),
        OUT)),
}

PROGRAM_HELP = """Classify projectivized sums of line bundles over real projective space.

    Members are indexed by (a, b, q): the base is RP^(a-1), the bundle has
    rank b with q tautological summands.  Classification of a pair (q, q')
    reports whether the mod-2 cohomology rings are isomorphic, and whether
    the manifolds are diffeomorphic / homotopy equivalent.
    """
HELP_WIDTH = 78  # on every terminal: perfbench/reference.json holds the --help digest


def _parse(args: list[str], options, interspersed: bool) -> tuple[dict, list[str]]:
    """Each option given in args with its raw value (True for a flag), in
    the order of first use, the last use winning; and the other arguments.
    Every argument after "--" is another argument; so is every argument
    after the first that is not an option, unless interspersed.  An
    option's value is the next argument, whatever it is, or what follows
    its first "=".  Every option is long, so "-x..." can only be "-x", unknown."""
    by_name = {option.name: option for option in options}
    given, rest = {}, []
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            rest.append(arg)
            if interspersed:
                continue
            break
        name, equals, value = arg.partition("=")
        option = by_name.get(name)
        if option is None:
            if arg[:2] != "--":
                raise UsageError(f"No such option '-{arg[1]}'.")
            raise UsageError(f"No such option {name!r}.{_suggestion(name, by_name)}")
        if option.kind == "flag":
            if equals:
                raise UsageError(f"Option {name!r} does not take a value.")
            value = True
        elif not equals:
            if not args:
                raise UsageError(f"Option {name!r} requires an argument.")
            value = args.pop(0)
        given[option] = value
    return given, rest + args


def _suggestion(word: str, names) -> str:
    """" Did you mean ...?" naming the names close to a mistyped word, or ""."""
    from difflib import get_close_matches

    close = sorted(get_close_matches(word, names))
    listed = ", ".join(map(repr, close))
    if len(close) > 1:
        return f" (Did you mean one of: {listed}?)"
    return f" Did you mean {listed}?" if close else ""


def _fill(text: str, width: int, first: str = "", rest: str = "") -> str:
    """text wrapped to width, each blank-line-separated paragraph on its own, lines unindented."""
    from textwrap import TextWrapper

    wrapper = TextWrapper(width, initial_indent=first, subsequent_indent=rest,
                          replace_whitespace=False)
    return "\n\n".join(wrapper.fill(" ".join(map(str.strip, paragraph.split("\n"))))
                        for paragraph in text.split("\n\n"))


def _usage(path: str, command: str | None) -> str:
    """The usage line of a command, or of the program when command is None."""
    prefix = f"Usage: {path} "
    pieces = "[OPTIONS]" if command else "[OPTIONS] COMMAND [ARGS]..."
    return _fill(pieces, HELP_WIDTH, prefix, " " * len(prefix))


def _definitions(rows) -> list[str]:
    """rows of (term, text) as an indented two-column list, text wrapped in
    its column."""
    column = max(len(term) for term, _ in rows) + 2
    return [_fill(text, HELP_WIDTH, f"  {term:<{column}}", " " * (column + 2)) for term, text in rows]


def _summary(doc: str, limit: int) -> str:
    """The first sentence of doc (up to its first word that ends in ".") if
    it fits in limit characters; else as many of its words as fit with "..."."""
    from textwrap import shorten

    words = doc.split()
    end = next(i for i, word in enumerate(words, 1) if word.endswith("."))
    return shorten(" ".join(words[:end]), limit, placeholder="...", break_on_hyphens=False)


def _help(path: str, command: str | None) -> str:
    """The help screen of a command, or of the program when command is None."""
    function, options = COMMANDS[command] if command else (None, ())
    lines = [_usage(path, command), "",
             _fill((function.__doc__ if command else PROGRAM_HELP).strip(), HELP_WIDTH, "  ", "  "),
             "", "Options:", *_definitions([option.help_row() for option in (*options, HELP)])]
    if not command:
        limit = HELP_WIDTH - 6 - max(map(len, COMMANDS))
        lines += ["", "Commands:", *_definitions(
            [(name, _summary(COMMANDS[name][0].__doc__, limit)) for name in sorted(COMMANDS)])]
    return "\n".join(lines) + "\n"


class _LazyFile:
    """An --out path, opened at the first write, so that a usage error that
    comes first makes no file.  A path that cannot be opened is a usage
    error of the whole program, not of the command."""

    def __init__(self, path: str):
        self.path, self.file = path, None

    def write(self, text: str) -> int:
        if self.file is None:
            try:
                self.file = open(self.path, "w")
            except OSError as exc:
                raise UsageError(f"Invalid value for '--out': Could not open file "
                                 f"{self.path!r}: {exc.strerror}", program=True) from exc
        return self.file.write(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def _program_name() -> str:
    """How the program was started: `python -m realbott.cli` under -m, else
    the script's file name."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    if spec is None:
        return os.path.basename(sys.argv[0])
    return "python -m " + spec.name.removesuffix(".__main__")


def _run(args: list[str], prog: str) -> int:
    """Parse args, run the command they name and return the exit code; a
    usage error is written after the usage of the command at fault."""
    command = None
    try:
        if not args:
            sys.stderr.write(_help(prog, None))
            return USAGE_EXIT
        given, rest = _parse(args, (HELP,), interspersed=False)
        if given:
            sys.stdout.write(_help(prog, None))
            return 0
        if not rest:
            raise UsageError("Missing command.")
        if rest[0] not in COMMANDS:
            raise UsageError(f"No such command {rest[0]!r}.{_suggestion(rest[0], COMMANDS)}")
        command = rest[0]
        function, options = COMMANDS[command]
        given, rest = _parse(rest[1:], (*options, HELP), interspersed=True)
        if HELP in given:
            sys.stdout.write(_help(f"{prog} {command}", command))
            return 0
        # options given are converted in the order of their first use, then the others
        kwargs = {o.name[2:].replace("-", "_"): o.value(given.get(o)) for o in
                  [*given, *(o for o in options if o not in given)]}
        if rest:
            raise UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} "
                             f"({' '.join(rest)})")
        try:
            function(**kwargs)
        finally:
            if kwargs["out"] is not sys.stdout:
                kwargs["out"].close()
        return 0
    except UsageError as exc:
        if exc.program:
            command = None
        path = f"{prog} {command}" if command else prog
        sys.stderr.write(f"{_usage(path, command)}\nTry '{path} --help' for help.\n\n"
                         f"Error: {exc}\n")
        return USAGE_EXIT


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the realbott command line on args (default: sys.argv[1:]), with
    prog_name (default: as the program was started) in its usage lines,
    and exit with its code."""
    try:
        try:
            code = _run(sys.argv[1:] if args is None else list(args), prog_name or _program_name())
        finally:
            sys.stdout.flush()  # so that a reader that has gone is seen here
    except BrokenPipeError:
        # the reader has gone, as after `| head`: end quietly, and let
        # Python's flush of stdout at exit go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE_EXIT
    except KeyboardInterrupt:
        print("realbott: interrupted", file=sys.stderr)
        code = INTERRUPT_EXIT
    except Exception:
        import traceback  # here, not at the top: start-up need not pay for it

        traceback.print_exc()
        print("realbott: internal error", file=sys.stderr)
        code = INTERNAL_ERROR_EXIT
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
