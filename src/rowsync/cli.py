"""Command-line front end.

One run produces one report.  Exit status 0 means the run completed, 1 a
usage or input error, 2 a flagged finding (a shortest reset word beyond the
(n-1)^2 bound, or a failed invariant suite).  With --json the report is a
single self-describing document and is byte-identical across runs with the
same configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

from .automaton import (DEFAULT_ENUM_BUDGET, EXACT_SEARCH_LIMIT, Dfa, _enum_lengths, cerny_automaton,
                        cerny_bound, count_dfas, cubic_bound, format_word, greedy_reset_word,
                        is_strongly_connected, parse_word, random_dfa, read_dfa, shortest_reset_word, to_dot,
                        write_dfa_text)
from .errors import CapacityError, RowsyncError
from .probe import allocation_probe, prefix_trace
from .rowmon import is_permutation, matrix_of_word, nonzero_columns, rank
from .suites import run_all

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  Identical configs give identical reports."""

    command: str
    path: str | None = None
    kind: str | None = None
    word: str | None = None
    n: int | None = None
    k: int | None = None
    limit: int = EXACT_SEARCH_LIMIT
    budget: int = DEFAULT_ENUM_BUDGET
    jobs: int = 1
    seed: int = 0
    dot: bool = False
    json_output: bool = False
    output: str | None = None

    def public_fields(self) -> dict:
        fields = dict(vars(self))  # a copy: vars() is this frozen instance's live dict
        del fields["command"], fields["output"], fields["json_output"]
        return fields


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    document: dict
    human: str


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this maps them to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rowsync", description="synchronizing automata through row monomial matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_word=False, with_limit=False):
        if with_word:
            p.add_argument("--word", help="word as letters ('abab') or comma-separated indices")
        if with_limit:
            p.add_argument("--limit", type=int, default=EXACT_SEARCH_LIMIT,
                           help="state-count cap for the exact subset search")
        p.add_argument("--json", action="store_true", dest="json_output", help="emit one JSON document")
        p.add_argument("-o", "--output", help="write the report here instead of stdout")

    p = sub.add_parser("check", help="synchronization test and shortest reset word")
    p.add_argument("path")
    add_common(p, with_limit=True)

    p = sub.add_parser("matrix", help="matrix of a word over an automaton")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true", help="emit the automaton as GraphViz instead; refuses --word")
    add_common(p, with_word=True)

    p = sub.add_parser("trace", help="rank and span dimension along prefixes of a reset word")
    p.add_argument("path")
    add_common(p, with_word=True, with_limit=True)

    p = sub.add_parser("probe", help="allocation procedure probe for one reset word")
    p.add_argument("path")
    add_common(p, with_word=True, with_limit=True)

    p = sub.add_parser("lemmas", help="run the shipped invariant suites")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("gen", help="generate an automaton")
    p.add_argument("kind", choices=("cerny", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", action="store_true", help="emit GraphViz instead of the table format")
    add_common(p)

    p = sub.add_parser("enum", help="enumerate all tables and aggregate bound checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, dealt the row-1 classes round robin; each walks "
                        "and searches the units of its own classes only; at most the CPU count "
                        "and the class count")
    add_common(p, with_limit=True)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args)
    fields = {f: values[f] for f in RunConfig.__dataclass_fields__ if f in values}
    return RunConfig(**fields)


def _document(config: RunConfig, report: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": config.command,
            "config": config.public_fields(), "report": report}


def _word_or_shortest(config: RunConfig, dfa: Dfa):
    if config.word is not None:
        return parse_word(config.word, dfa.k)
    word = shortest_reset_word(dfa, config.limit)
    if word is None:
        raise RowsyncError("automaton is not synchronizing; no reset word exists")
    return word


def _run_check(config: RunConfig) -> RunResult:
    dfa = read_dfa(config.path)
    greedy = greedy_reset_word(dfa)
    sync = greedy is not None
    strong = is_strongly_connected(dfa)
    bound = cerny_bound(dfa.n)
    shortest = None
    note = None
    if sync:
        try:
            shortest = shortest_reset_word(dfa, config.limit)
        except CapacityError as exc:
            note = str(exc)
    report = {
        "n": dfa.n, "k": dfa.k,
        "strongly_connected": strong,
        "synchronizing": sync,
        "shortest_length": len(shortest) if shortest is not None else None,
        "shortest_word": format_word(shortest, dfa.k) if shortest is not None else None,
        "bound": bound,
        "within_bound": (len(shortest) <= bound) if shortest is not None else None,
        "greedy_length": len(greedy) if greedy is not None else None,
        "greedy_word": format_word(greedy, dfa.k) if greedy is not None else None,
        "cubic_reference": cubic_bound(dfa.n),
        "note": note,
    }
    lines = [f"states {dfa.n}, letters {dfa.k}",
             f"strongly connected: {'yes' if strong else 'no'}",
             f"synchronizing: {'yes' if sync else 'no'}"]
    if shortest is not None:
        lines.append(f"shortest reset word: {report['shortest_word'] or '(empty)'} (length {len(shortest)})")
        lines.append(f"bound (n-1)^2 = {bound}: {'within bound' if report['within_bound'] else 'EXCEEDS BOUND'}")
    elif note:
        lines.append(f"exact search skipped: {note}")
    if greedy is not None:
        lines.append(f"greedy reset word length: {len(greedy)} "
                     f"(reference (n^3-n)/6 = {report['cubic_reference']})")
    code = 2 if report["within_bound"] is False else 0
    return RunResult(code, _document(config, report), "\n".join(lines) + "\n")


def _run_matrix(config: RunConfig) -> RunResult:
    if config.dot and config.word is not None:
        raise RowsyncError("--word has no effect with --dot; give one or the other")
    dfa = read_dfa(config.path)
    if config.dot:
        text = to_dot(dfa)
        return RunResult(0, _document(config, {"dot": text}), text)
    word = parse_word(config.word, dfa.k) if config.word is not None else ()
    m = matrix_of_word(dfa, word)
    cols = sorted(nonzero_columns(m))
    report = {
        "word": format_word(word, dfa.k),
        "targets": list(m.targets),
        "grid": m.render_grid().splitlines(),
        "nonzero_columns": cols,
        "rank": rank(m),
        "is_permutation": is_permutation(m),
    }
    human = ("\n".join(report["grid"]) + "\n"
             + f"targets {m.compact()}\n"
             + f"nonzero columns {{{', '.join(str(c) for c in cols)}}}, rank {report['rank']}"
             + (", permutation" if report["is_permutation"] else "") + "\n")
    return RunResult(0, _document(config, report), human)


def _run_trace(config: RunConfig) -> RunResult:
    dfa = read_dfa(config.path)
    word = _word_or_shortest(config, dfa)
    trace = prefix_trace(dfa, word)
    report = {"word": format_word(word, dfa.k), "records": trace.to_json()}
    # The word is printed once and each row shows only its prefix's last letter, so the
    # table grows linearly with the word.
    letters = [format_word((a,), dfa.k) for a in range(dfa.k)]
    width = max((len(letters[a]) for a in word), default=0)
    lines = [f"word: {report['word'] or '(empty)'}", f"{'len':>4}  {'':<{width}}  |R|  dim"]
    for a, r in zip(word, trace.records):
        lines.append(f"{r.length:>4}  {letters[a]:<{width}}  {r.r_size:>3}  {r.dimension:>3}")
    return RunResult(0, _document(config, report), "\n".join(lines) + "\n")


def _run_probe(config: RunConfig) -> RunResult:
    dfa = read_dfa(config.path)
    word = _word_or_shortest(config, dfa)
    shortest = len(word) if config.word is None else None
    rep = allocation_probe(dfa, word, config.limit, shortest)
    report = rep.to_json_dict()
    m = rep.matching
    lines = [
        f"reset word: {report['reset_word']} (length {len(word)}), sink {rep.q}",
        f"prefixes offered: {m.prefix_count}, cells: {m.cell_count}, "
        f"matching: {'full' if m.success else f'short by {len(m.unmatched_prefix_lengths)}'}",
    ]
    if m.success:
        lines.append(f"solutions verified: yes; family rank {rep.independence_rank} of "
                     f"{m.prefix_count + 1} (independent)")
    bad = report["prefix_column_counterexamples"]
    prefixes = len(rep.trace.records)
    lines.append(f"prefix-column claim: {prefixes - bad} of {prefixes} prefixes keep column {rep.q} nonzero"
                 + (f" ({bad} counterexamples)" if bad else ""))
    lines.append(f"bound: length {rep.bound.length} vs (n-1)^2 = {rep.bound.bound}: {rep.bound.status}")
    lines.extend(f"note: {note}" for note in rep.notes)
    code = 2 if rep.bound.status == "exceeds-bound" else 0
    return RunResult(code, _document(config, report), "\n".join(lines) + "\n")


def _run_lemmas(config: RunConfig) -> RunResult:
    results = run_all(seed=config.seed)
    report = {"suites": [r.to_json() for r in results]}
    lines = []
    for r in results:
        status = "ok" if r.ok else f"{len(r.violations)} violations"
        lines.append(f"{r.name}: {r.checks} checks, {status}")
        for v in r.violations[:5]:
            lines.append(f"  {v}")
    code = 0 if all(r.ok for r in results) else 2
    return RunResult(code, _document(config, report), "\n".join(lines) + "\n")


def _run_gen(config: RunConfig) -> RunResult:
    if config.kind == "cerny":
        if config.k != 2:
            raise RowsyncError(f"gen cerny builds a two-letter automaton; --k must be 2, got {config.k}")
        dfa = cerny_automaton(config.n)
    else:
        dfa = random_dfa(config.n, config.k, config.seed)
    text = to_dot(dfa) if config.dot else write_dfa_text(dfa)
    report = {"kind": config.kind, "n": dfa.n, "k": dfa.k,
              "delta": [list(row) for row in dfa.delta], "text": text}
    return RunResult(0, _document(config, report), text)


def _run_enum(config: RunConfig) -> RunResult:
    n, k = config.n, config.k
    hist = _enum_lengths(n, k, config.budget, config.limit, config.jobs)
    total = count_dfas(n, k)
    sync = sum(hist.values())
    bound = cerny_bound(n)
    max_length = max(hist, default=None)
    exceeds = sum(c for length, c in hist.items() if length > bound)
    report = {
        "n": n, "k": k,
        "total_tables": total,
        "synchronizing": sync,
        "length_histogram": {str(length): hist[length] for length in sorted(hist)},
        "max_length": max_length,
        "max_length_count": hist[max_length],
        "bound": bound,
        "exceeds_bound": exceeds,
        "verdict": "exceeds-bound" if exceeds else "within-bound",
    }
    lines = [f"tables: {total} (n={n}, k={k})",
             f"synchronizing: {sync}",
             f"not synchronizing: {total - sync}",
             "shortest reset length histogram:"]
    for length in sorted(hist):
        lines.append(f"  {length}: {hist[length]}")
    if max_length is not None:
        state = "EXCEEDS BOUND" if exceeds else "within bound"
        lines.append(f"max shortest length: {max_length} (bound {bound}): {state}")
    return RunResult(2 if exceeds else 0, _document(config, report), "\n".join(lines) + "\n")


_RUNNERS = {
    "check": _run_check,
    "matrix": _run_matrix,
    "trace": _run_trace,
    "probe": _run_probe,
    "lemmas": _run_lemmas,
    "gen": _run_gen,
    "enum": _run_enum,
}


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and return its exit code and report."""
    return _RUNNERS[config.command](config)


def _encode(value, pad: str) -> str:
    """`value` exactly as json.dumps(value, indent=2) writes it, nested at `pad`.

    The stdlib uses its C encoder only when there is no indent; its
    pure-Python indent path takes about twice as long as writing item by
    item here.  Strings and ints, the bulk of every report, are dispatched
    on their exact type, so a bool never renders as an int.  A list takes no
    call per item in three shapes: all exact ints, and the two bulk shapes
    of _bulk_items, equal-length int lists (solutions, delta) and same-key
    int records (prefix records, a full matching's assignments).  Any other
    list, such as a shortfall's assignments with their None entries, a list
    of tuples or a mixed list, is written item by item.  Every other leaf is
    left to json.dumps, which writes floats as the stdlib does and raises
    TypeError on what it cannot encode.  A document that contains itself
    raises RecursionError, where the stdlib raises ValueError.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # A key that is not a str goes through the stdlib's own key rules.
        items = [(encode_basestring_ascii(key) if type(key) is str else json.dumps({key: 0})[1:-4])
                 + ": " + _encode(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = {*map(type, value)}
        if kinds == {int}:
            body = (",\n" + inner).join(map(int.__repr__, value))
        else:
            body = _bulk_items(value, kinds, inner)
            if body is None:
                body = (",\n" + inner).join([_encode(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


def _bulk_items(value, kinds: set, inner: str) -> str | None:
    """A non-empty list's items, joined at `inner` and filled into one "%d" template, or None.

    The two bulk shapes: every item an exact list of exact ints, all of one
    nonzero length; or every item an exact dict of exact-int values with the
    same str keys in the same order.  Every item then has one layout, which
    is repeated len(value) times and filled with all the ints at once.  The
    shape checks are set builds over map, with no Python call per item.
    """
    if kinds == {list}:
        lengths = {*map(len, value)}
        if len(lengths) != 1:
            return None
        fields = ["%d"] * lengths.pop()
        ints = tuple(chain.from_iterable(value))
        brackets = "[]"
    elif kinds == {dict}:
        keys = {*map(tuple, value)}
        if len(keys) != 1:
            return None
        names = keys.pop()
        if {*map(type, names)} != {str}:
            return None
        fields = [encode_basestring_ascii(name).replace("%", "%%") + ": %d" for name in names]
        ints = tuple(chain.from_iterable(map(dict.values, value)))
        brackets = "{}"
    else:
        return None
    # Empty items leave no int, so they fail this test too.
    if {*map(type, ints)} != {int}:
        return None
    deeper = inner + "  "
    layout = brackets[0] + "\n" + deeper + (",\n" + deeper).join(fields) + "\n" + inner + brackets[1]
    return (",\n" + inner).join([layout] * len(value)) % ints


def render(result: RunResult, config: RunConfig) -> str:
    """The report as text: with --json, the bytes of json.dumps(document, indent=2) plus a newline."""
    if config.json_output:
        return _encode(result.document, "") + "\n"
    return result.human


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        result = run(config)
        text = render(result, config)
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (RowsyncError, OSError) as exc:
        print(f"rowsync: error: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
