"""Byte-identity corpus: hash what every CLI run in a fixed corpus prints.

Usage: python3 tools/report_corpus.py DIR

Writes the corpus's automaton files into DIR, then runs rowsync.cli.main
in-process from DIR, with relative paths, so that no report's config.path
depends on where DIR or the checkout lies.  Prints one line per run, the
sha256 of (argv, exit code, stdout, stderr) and the argv, then the sha256
of all those lines as the total.  Two checkouts whose totals agree printed
the same bytes and exit codes on every run.

The rowsync imported is the one under this checkout's src/, so running
each checkout's copy of this script compares the checkouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rowsync.automaton import Dfa, cerny_automaton, random_dfa, write_dfa
from rowsync.cli import main


def write_inputs(directory: Path) -> list[str]:
    """Write the corpus automata into directory and return their file names."""
    automata = {f"cerny{n:02d}.txt": cerny_automaton(n) for n in range(2, 21)}
    for seed in range(60):
        n, k = 3 + seed % 20, 1 + seed % 3
        automata[f"random{seed:02d}.txt"] = random_dfa(n, k, seed=seed)
    automata["one.txt"] = Dfa(1, 1, ((0,),))
    # Above the default exact-search limit: the probe's bound check is skipped.
    automata["collapse25.txt"] = Dfa(25, 1, (tuple([0] * 25),))
    for name, dfa in automata.items():
        write_dfa(dfa, directory / name)
    # Above the exact-search limit, so probed only with its closed-form word.
    write_dfa(cerny_automaton(34), directory / "cerny34.txt")
    # C_5 on 27 letters: letter 3 rotates, letter 26 merges, the rest fix every
    # state.  Words render as comma-separated indices of one and two digits.
    identity = tuple(range(5))
    delta = [identity] * 27
    delta[3], delta[26] = cerny_automaton(5).delta
    write_dfa(Dfa(5, 27, tuple(delta)), directory / "cerny05_k27.txt")
    # Three letters on 23 and 24 states: the largest pair tables in the corpus.
    for n in (23, 24):
        for seed in (0, 1):
            write_dfa(random_dfa(n, 3, seed=seed), directory / f"pairs{n}_{seed}.txt")
    return list(automata)


def corpus(names: list[str]) -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    runs = []
    for name in names:
        for verb in ("check", "probe", "trace"):
            for limit in ([], ["--limit", "10"]):
                for json_flag in ([], ["--json"]):
                    runs.append([verb, name, *limit, *json_flag])
    for json_flag in ([], ["--json"]):
        runs += [
            ["probe", "cerny04.txt", "--word", "abaaabaaab", *json_flag],
            ["probe", "cerny04.txt", "--word", "baaabaaab", *json_flag],
            # Refused: the sink is where the word lands, and no option restates it.
            ["probe", "cerny04.txt", "--word", "baaabaaab", "--q", "1", *json_flag],
            ["probe", "cerny05.txt", "--word", "ab", *json_flag],
            ["probe", "collapse25.txt", "--word", "a", *json_flag],
            # C_34's shortest word b(a^33 b)^32 offers 1,088 prefixes to the matching.
            ["probe", "cerny34.txt", "--word", "b" + ("a" * 33 + "b") * 32, *json_flag],
            ["trace", "cerny34.txt", "--word", "b" + ("a" * 33 + "b") * 32, *json_flag],
            ["trace", "cerny05_k27.txt", *json_flag],
            # The bound check's length on C_14 and C_20 comes from the backward side.
            ["probe", "cerny14.txt", "--word", "b" + ("a" * 13 + "b") * 12, *json_flag],
            ["probe", "cerny20.txt", "--word", "b" + ("a" * 19 + "b") * 18, *json_flag],
            ["trace", "cerny06.txt", "--word", "abaaaaabaaaaabaaaaabaaaaab", *json_flag],
            ["matrix", "cerny04.txt", *json_flag],
            ["matrix", "cerny04.txt", "--word", "baaab", *json_flag],
            ["matrix", "random07.txt", "--word", "1,0,1", *json_flag],
            ["lemmas", *json_flag],
            ["lemmas", "--seed", "1", *json_flag],
        ]
        runs += [[verb, f"pairs{n}_{seed}.txt", *json_flag]
                 for verb in ("check", "probe") for n in (23, 24) for seed in (0, 1)]
    runs += [["matrix", "cerny04.txt", "--dot", "--json"], ["matrix", "cerny04.txt", "--dot", "--word", "ab"]]
    for n in range(1, 4):
        for k in range(1, 4):
            runs += [["enum", "--n", str(n), "--k", str(k)],
                     ["enum", "--n", str(n), "--k", str(k), "--json", "--jobs", "2"]]
    runs.append(["enum", "--n", "3", "--k", "2", "--limit", "2"])
    # Refused: every enum report gives both the table and the synchronizing count.
    runs.append(["enum", "--n", "2", "--k", "2", "--filter", "sync"])
    # Past n, k <= 3: k >= 4 groups its tails by middle rows, and (4,3) is 4^12 tables.
    # (5,1), (6,1) and (7,1) list 47, 130 and 343 classes; (5,2) floods row-2
    # orbits under centralisers up to S_5.
    for n, k in ((1, 4), (2, 4), (2, 5), (3, 4), (4, 2), (4, 3), (5, 1), (6, 1), (7, 1), (5, 2)):
        for jobs in ("1", "2"):
            runs.append(["enum", "--n", str(n), "--k", str(k), "--json", "--jobs", jobs,
                         "--budget", str(n ** (n * k))])
    return runs


def run_one(argv: list[str]) -> str:
    """sha256 of argv, exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    record = repr((argv, code, out.getvalue(), err.getvalue()))
    return hashlib.sha256(record.encode()).hexdigest()


def run_corpus(directory: str) -> None:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    names = write_inputs(path)
    os.chdir(path)
    total = hashlib.sha256()
    runs = corpus(names)
    for argv in runs:
        line = f"{run_one(argv)} {' '.join(argv)}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()} over {len(runs)} runs")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/report_corpus.py DIR")
    run_corpus(sys.argv[1])
