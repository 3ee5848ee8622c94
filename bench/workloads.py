"""The benchmark's workloads: seeded inputs, timed operations, output checks.

An operation is one CLI verb or suite call, timed from the call into the
package until its output is rendered.  Each check recomputes what it needs
from the generated tables with the code in this file, never with the package
under test, so a wrong answer cannot pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CERNY_SIZES = range(8, 19)
RANDOM_COUNT = 100
# The random tables are drawn once, from this seed, and the workload seed
# relabels their states, as it does for the Cerny automata.  Operation times
# of random tables range over 0.5 ms to 10 ms, so when the seed redrew them
# the median operation moved by 7% to 9% (IQR over median) with the seed
# alone.  Relabelling changes the inputs but neither the reset words nor the
# work of finding them.
RANDOM_DRAW_SEED = 2110
RANDOM_STATES = (13, 24)
RANDOM_LETTERS = (2, 3)
ENUM_SIZES = ((3, 2), (3, 3), (4, 2))
ENUM_3_2_HISTOGRAM = {"1": 153, "2": 324, "3": 48, "4": 24}
# Reduced from the `lemmas` defaults (10000, 10000, 1000, 1000) so that one
# pass takes about two seconds and a run holds many passes.  The sink-equation
# suite is kept the smallest operation: its cost is heavy-tailed in the seed
# (a sample whose image is one state compares each of its (n-1)^(n-1) minimal
# solutions with all n^(n-1) solutions), so as the median operation it would
# make op_p50_ms follow the seed.
LEMMA_SAMPLES = {"rank-monotonicity": 4000, "sum-conditions": 1000,
                 "basis-dimension": 100, "sink-equation": 10}
LEMMA_SUITES = {"rank-monotonicity": "rank_monotonicity_suite",
                "sum-conditions": "sum_conditions_suite",
                "basis-dimension": "basis_dimension_suite",
                "sink-equation": "sink_equation_suite"}
_ALPHA = "abcdefghijklmnopqrstuvwxyz"


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own oracle."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One timed call.  verify(output) raises CheckFailed or returns a digest."""

    name: str
    kind: str
    call: Callable[[], object]
    verify: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    items_per_pass: int


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- automata, built and walked without the package ------------------------

def cerny_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Letter a cycles the states, letter b sends state 0 to 1."""
    return (tuple((i + 1) % n for i in range(n)),
            tuple(1 if i == 0 else i for i in range(n)))


def relabel(delta, perm) -> tuple[tuple[int, ...], ...]:
    """The same automaton with state q renamed perm[q]; reset words are unchanged."""
    out = []
    for row in delta:
        new = [0] * len(row)
        for q, t in enumerate(row):
            new[perm[q]] = perm[t]
        out.append(tuple(new))
    return tuple(out)


def synchronizes(delta, n: int) -> bool:
    """Every pair of states can be merged: backward search in the pair graph."""
    into: dict[tuple[int, int], list[tuple[int, int]]] = {}
    merged = set()
    for p in range(n):
        for q in range(p + 1, n):
            for row in delta:
                a, b = row[p], row[q]
                if a == b:
                    merged.add((p, q))
                else:
                    into.setdefault((min(a, b), max(a, b)), []).append((p, q))
    frontier = list(merged)
    while frontier:
        pair = frontier.pop()
        for src in into.get(pair, ()):
            if src not in merged:
                merged.add(src)
                frontier.append(src)
    return len(merged) == n * (n - 1) // 2


def letters(word: str, k: int) -> list[int]:
    out = [_ALPHA.index(ch) for ch in word]
    require(all(a < k for a in out), f"word {word!r} uses a letter outside {k}")
    return out


def targets_of(delta, n: int, word) -> list[int]:
    """Where the word sends each state."""
    targets = list(range(n))
    for a in word:
        row = delta[a]
        targets = [row[t] for t in targets]
    return targets


def sink_of(delta, n: int, word) -> int:
    image = set(targets_of(delta, n, word))
    require(len(image) == 1, f"word of length {len(word)} leaves {len(image)} states")
    return image.pop()


def table_text(delta, n: int) -> str:
    return f"{n} {len(delta)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in delta)


# --- probe ------------------------------------------------------------------

def _cli_call(cli, config):
    def call():
        result = cli.run(config)
        return result.exit_code, cli.render(result, config)
    return call


def _probe_inputs(seed: int) -> list[tuple[str, int, tuple]]:
    """Relabelled Cerny automata, then relabelled uniform random synchronizing tables.

    The random ones cycle through every (n, k) in turn rather than drawing
    n and k.  A table that does not synchronize is redrawn with the same n
    and k.  Every table has its states renamed by a permutation drawn from
    the seed.
    """
    rng = random.Random(seed)

    def relabelled(delta, n):
        perm = list(range(n))
        rng.shuffle(perm)
        return relabel(delta, perm)

    out = [(f"cerny{n:02d}", n, relabelled(cerny_table(n), n)) for n in CERNY_SIZES]
    draw = random.Random(RANDOM_DRAW_SEED)
    sizes = range(RANDOM_STATES[0], RANDOM_STATES[1] + 1)
    for i in range(RANDOM_COUNT):
        n = sizes[i % len(sizes)]
        k = RANDOM_LETTERS[i // len(sizes) % len(RANDOM_LETTERS)]
        while True:
            delta = tuple(tuple(draw.randrange(n) for _ in range(n)) for _ in range(k))
            if synchronizes(delta, n):
                break
        out.append((f"random{i:03d}", n, relabelled(delta, n)))
    return out


def _check_verifier(name: str, n: int, delta, shortest: dict):
    k = len(delta)

    def verify(output) -> str:
        code, text = output
        rep = json.loads(text)["report"]
        require(code == 0, f"{name}: exit code {code}")
        require(rep["synchronizing"] is True, f"{name}: reported not synchronizing")
        word = letters(rep["shortest_word"], k)
        sink_of(delta, n, word)
        require(rep["shortest_length"] == len(word), f"{name}: length does not match word")
        greedy = letters(rep["greedy_word"], k)
        sink_of(delta, n, greedy)
        require(len(word) <= len(greedy), f"{name}: shortest word longer than greedy word")
        if name.startswith("cerny"):
            require(len(word) == (n - 1) ** 2, f"{name}: shortest length {len(word)} != {(n - 1) ** 2}")
        shortest[name] = len(word)
        return digest(text)

    return verify


def _probe_verifier(name: str, n: int, delta, shortest: dict):
    k = len(delta)

    def verify(output) -> str:
        code, text = output
        rep = json.loads(text)["report"]
        require(code == 0, f"{name}: exit code {code}")
        word = letters(rep["reset_word"], k)
        sink = sink_of(delta, n, word)
        require(rep["q"] == sink, f"{name}: reported sink {rep['q']}, word lands in {sink}")
        require(len(word) == shortest.get(name), f"{name}: probe word is not the shortest")
        verdict = rep["bound_verdict"]
        require(verdict["length"] == len(word), f"{name}: bound length {verdict['length']} != {len(word)}")
        require(verdict["status"] == "within-bound" and len(word) <= (n - 1) ** 2,
                f"{name}: bound verdict {verdict['status']}")
        if name.startswith("cerny"):
            require(verdict["length"] == (n - 1) ** 2, f"{name}: bound length != {(n - 1) ** 2}")
        matching = rep["matching"]
        assigned = [a for a in matching["assignments"] if a is not None]
        if matching["success"]:
            require(len(rep["solutions"]) == len(assigned), f"{name}: one solution per prefix expected")
            require(rep["solutions_ok"] is True, f"{name}: probe reports a failed solution")
        for cell, solution in zip(assigned, rep["solutions"]):
            prefix = word[:cell["prefix_length"]]
            require(all(solution[t] == sink for t in targets_of(delta, n, prefix)),
                    f"{name}: solution for prefix length {cell['prefix_length']} is not M_u L = sink")
            require(solution[cell["row"]] == cell["column"], f"{name}: solution misses its cell")
        return digest(text)

    return verify


def probe_workload(mods, seed: int, workdir: Path) -> Workload:
    """check then probe on relabelled Cerny C_8..C_18 and RANDOM_COUNT random automata."""
    cli, read_dfa = mods.cli, mods.automaton.read_dfa
    workdir.mkdir(parents=True, exist_ok=True)
    shortest: dict[str, int] = {}
    ops = []
    for name, n, delta in _probe_inputs(seed):
        path = workdir / f"{name}.txt"
        path.write_text(table_text(delta, n), encoding="utf-8")
        if read_dfa(path).delta != delta:
            raise CheckFailed(f"{name}: table did not survive the text round trip")
        for verb, make in (("check", _check_verifier), ("probe", _probe_verifier)):
            config = cli.RunConfig(command=verb, path=str(path), json_output=True)
            ops.append(Op(name=f"{verb} {name}", kind=verb,
                          call=_cli_call(cli, config), verify=make(name, n, delta, shortest)))
    return Workload(ops=tuple(ops), items_per_pass=len(ops) // 2)


# --- enum -------------------------------------------------------------------

def _enum_verifier(n: int, k: int):
    def verify(output) -> str:
        code, text = output
        rep = json.loads(text)["report"]
        bound = (n - 1) ** 2
        hist = rep["length_histogram"]
        require(code == 0, f"enum {n} {k}: exit code {code}")
        require(rep["total_tables"] == n ** (n * k), f"enum {n} {k}: {rep['total_tables']} tables")
        require(sum(hist.values()) == rep["synchronizing"], f"enum {n} {k}: histogram does not sum")
        require(all(int(length) <= bound for length in hist), f"enum {n} {k}: length above {bound}")
        # The Cerny automaton, with any extra letters copying its cycle, attains the bound.
        require(rep["max_length"] == bound and rep["exceeds_bound"] == 0,
                f"enum {n} {k}: max length {rep['max_length']}")
        if (n, k) == (3, 2):
            require(hist == ENUM_3_2_HISTOGRAM, f"enum 3 2: histogram {hist}")
        return digest(text)
    return verify


def enum_workload(mods, seed: int, workdir: Path) -> Workload:
    """Exhaustive enum over (3,2), (3,3) and (4,2); the seed does not change it."""
    cli = mods.cli
    ops = []
    for n, k in ENUM_SIZES:
        config = cli.RunConfig(command="enum", n=n, k=k, json_output=True)
        ops.append(Op(name=f"enum {n} {k}", kind="enum",
                      call=_cli_call(cli, config), verify=_enum_verifier(n, k)))
    return Workload(ops=tuple(ops),
                    items_per_pass=sum(n ** (n * k) for n, k in ENUM_SIZES))


# --- lemmas -----------------------------------------------------------------

def expected_checks(suite: str, samples: int) -> int:
    """The check count each suite must report, worked out from its definition."""
    if suite in ("rank-monotonicity", "sum-conditions"):
        return samples
    if suite == "sink-equation":
        return 3 ** 3 + samples
    count = 5  # full-span dimension for n = 1..5
    for n in range(2, 7):
        for k in range(2, n + 1):
            count += 2 + n * (k - 1)
            count += k ** n if n <= 4 else max(1, samples // (n - 1))
    return count


def _suite_call(suites, suite: str, samples: int, seed: int):
    function = LEMMA_SUITES[suite]
    keyword = "random_samples" if suite == "sink-equation" else "samples"

    def call():
        result = getattr(suites, function)(**{keyword: samples}, seed=seed)
        return json.dumps(result.to_json(), indent=2)
    return call


def _suite_verifier(suite: str, samples: int):
    def verify(text) -> str:
        doc = json.loads(text)
        require(doc["name"] == suite, f"{suite}: result named {doc['name']}")
        require(doc["ok"] is True and not doc["violations"], f"{suite}: {len(doc['violations'])} violations")
        want = expected_checks(suite, samples)
        require(doc["checks"] == want, f"{suite}: {doc['checks']} checks, expected {want}")
        return digest(text)
    return verify


def lemmas_workload(mods, seed: int, workdir: Path) -> Workload:
    """The four suites behind `lemmas`, each with the workload seed."""
    ops = []
    for suite, samples in LEMMA_SAMPLES.items():
        ops.append(Op(name=suite, kind="suite", call=_suite_call(mods.suites, suite, samples, seed),
                      verify=_suite_verifier(suite, samples)))
    return Workload(ops=tuple(ops),
                    items_per_pass=sum(expected_checks(s, c) for s, c in LEMMA_SAMPLES.items()))


WORKLOADS = {"probe": probe_workload, "enum": enum_workload, "lemmas": lemmas_workload}
