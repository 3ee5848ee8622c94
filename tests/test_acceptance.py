"""Acceptance gate.

One test per shipped criterion, each logged through acceptance_log so the
terminal summary shows a single pass/fail line per criterion.  Rank
re-checks run against test_exactlin's Fraction elimination oracle, not
against the package's own elimination.
"""

import itertools
import json
import time

from rowsync.automaton import (Dfa, cerny_automaton, random_dfa, shortest_reset_word,
                               write_dfa)
from rowsync.cli import RunConfig, main, run
from rowsync.equation import is_solution, sink_matrix
from rowsync.exactlin import flatten
from rowsync.probe import allocation_probe, prefix_trace
from rowsync.rowmon import matrix_of_word
from rowsync.suites import (basis_dimension_suite, rank_monotonicity_suite,
                            sink_equation_suite, sum_conditions_suite)
from test_exactlin import oracle_rank


def all_synchronizing_three_state():
    for table in itertools.product(range(3), repeat=6):
        dfa = Dfa(3, 2, (table[:3], table[3:]))
        word = shortest_reset_word(dfa)
        if word is not None:
            yield dfa, word


def test_criterion_cerny_series(acceptance_log, tmp_path):
    started = time.perf_counter()
    lengths = []
    for n in range(3, 9):
        path = tmp_path / f"c{n}.txt"
        write_dfa(cerny_automaton(n), str(path))
        result = run(RunConfig(command="check", path=str(path)))
        lengths.append(result.document["report"]["shortest_length"])
    elapsed = time.perf_counter() - started
    expected = [(n - 1) ** 2 for n in range(3, 9)]
    passed = lengths == expected and elapsed < 10.0
    acceptance_log("cerny series n=3..8 exact minimal lengths", passed,
                   f"lengths {lengths}, {elapsed:.2f}s")
    assert lengths == expected
    assert elapsed < 10.0


def test_criterion_exhaustive_three_state(acceptance_log):
    started = time.perf_counter()
    result = run(RunConfig(command="enum", n=3, k=2))
    elapsed = time.perf_counter() - started
    report = result.document["report"]
    passed = (report["total_tables"] == 729 and report["exceeds_bound"] == 0
              and report["max_length"] == 4 and elapsed < 5.0)
    acceptance_log("exhaustive n=3 bound check", passed,
                   f"{report['synchronizing']} synchronizing, max {report['max_length']} "
                   f"attained {report['max_length_count']} times, {elapsed:.2f}s")
    assert report["total_tables"] == 729
    assert report["synchronizing"] == 549
    assert report["exceeds_bound"] == 0 and result.exit_code == 0
    assert report["max_length"] == 4 and report["max_length_count"] == 24
    assert elapsed < 5.0


def test_criterion_exhaustive_four_state(acceptance_log):
    started = time.perf_counter()
    result = run(RunConfig(command="enum", n=4, k=2))
    elapsed = time.perf_counter() - started
    report = result.document["report"]
    passed = (report["total_tables"] == 65536 and report["exceeds_bound"] == 0
              and report["max_length"] == 9 and elapsed < 300.0)
    acceptance_log("exhaustive n=4 bound check", passed,
                   f"{report['synchronizing']} synchronizing, max {report['max_length']} "
                   f"attained {report['max_length_count']} times, {elapsed:.2f}s")
    assert report["total_tables"] == 65536
    assert report["synchronizing"] == 51520
    assert report["exceeds_bound"] == 0 and result.exit_code == 0
    assert report["max_length"] == 9 and report["max_length_count"] == 96
    assert elapsed < 300.0


def test_criterion_rank_monotonicity(acceptance_log):
    result = rank_monotonicity_suite(samples=10_000, seed=0)
    acceptance_log("rank and image invariants over 10000 samples", result.ok,
                   f"{result.checks} checks, {len(result.violations)} violations")
    assert result.checks >= 10_000
    assert result.violations == []


def test_criterion_sum_conditions(acceptance_log):
    result = sum_conditions_suite(samples=10_000, seed=1)
    acceptance_log("coefficient and row sum conditions over 10000 samples", result.ok,
                   f"{result.checks} checks, {len(result.violations)} violations")
    assert result.checks >= 10_000
    assert result.violations == []


def test_criterion_basis_dimension(acceptance_log):
    started = time.perf_counter()
    result = basis_dimension_suite(max_n=6, samples=1_000, seed=2)
    elapsed = time.perf_counter() - started
    passed = result.ok and elapsed < 60.0
    acceptance_log("unit-plus-column bases and span dimensions", passed,
                   f"{result.checks} checks, {len(result.violations)} violations, {elapsed:.2f}s")
    assert result.violations == []
    assert elapsed < 60.0


def test_criterion_sink_equation(acceptance_log):
    result = sink_equation_suite(random_samples=1_000, seed=3)
    acceptance_log("sink equation solution families", result.ok,
                   f"{result.checks} checks, {len(result.violations)} violations")
    assert result.violations == []


def test_criterion_probe_soundness(acceptance_log, tmp_path):
    subjects = list(all_synchronizing_three_state())
    for n in range(2, 7):
        dfa = cerny_automaton(n)
        subjects.append((dfa, shortest_reset_word(dfa)))

    full_matches = 0
    counterexample_automata = 0
    sound = True
    deterministic = True
    for dfa, word in subjects:
        rep = allocation_probe(dfa, word)
        again = allocation_probe(dfa, word)
        if json.dumps(rep.to_json_dict()) != json.dumps(again.to_json_dict()):
            deterministic = False
        if rep.matching.success:
            full_matches += 1
            for assignment, sol in zip(rep.matching.assignments, rep.solutions):
                if assignment is not None:
                    m_u = matrix_of_word(dfa, word[:assignment[0]])
                    if not is_solution(m_u, sol, rep.q):
                        sound = False
            vectors = [flatten(s) for s in rep.solutions]
            vectors.append(flatten(sink_matrix(dfa.n, rep.q)))
            if oracle_rank(vectors) != rep.independence_rank:
                sound = False
            if rep.solutions_ok and rep.independence_rank != len(rep.solutions) + 1:
                sound = False
        if any(not v.holds for v in rep.prefix_column_verdicts):
            counterexample_automata += 1

    path = tmp_path / "c4.txt"
    write_dfa(cerny_automaton(4), str(path))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["probe", str(path), "--json", "-o", str(first)]) == 0
    assert main(["probe", str(path), "--json", "-o", str(second)]) == 0
    cli_identical = first.read_bytes() == second.read_bytes()

    passed = sound and deterministic and cli_identical
    acceptance_log(
        "probe determinism and soundness", passed,
        f"{len(subjects)} automata, full matching on {full_matches}, "
        f"prefix-column counterexamples on {counterexample_automata} (reported, not asserted)")
    assert sound
    assert deterministic
    assert cli_identical
    assert len(subjects) == 549 + 5


def test_criterion_prefix_trace_invariants(acceptance_log):
    found = 0
    seed = 0
    violations = 0
    while found < 1_000:
        seed += 1
        n = 2 + seed % 5
        dfa = random_dfa(n, 2 + seed % 3, seed=seed)
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        found += 1
        trace = prefix_trace(dfa, word)
        sizes = [r.r_size for r in trace.records]
        dims = [r.dimension for r in trace.records]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            violations += 1
        if any(a > b for a, b in zip(dims, dims[1:])):
            violations += 1
        if dims and dims[-1] > n * (n - 1) + 1:
            violations += 1
    acceptance_log("prefix trace monotonicity on 1000 random synchronizing automata",
                   violations == 0, f"{found} traces, {violations} violations")
    assert violations == 0
