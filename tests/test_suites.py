"""Invariant suites at reduced scale; the acceptance gate runs them in full."""

import hashlib
import json
import re

import pytest

import rowsync.suites
from rowsync.equation import sink_matrix
from rowsync.exactlin import _vij_family
from rowsync.rowmon import RowMonomialMatrix
from rowsync.suites import (basis_dimension_suite, rank_monotonicity_suite, run_all,
                            sink_equation_suite, sum_conditions_suite)


def test_run_all_clean_and_ordered():
    results = run_all(samples=300, family_samples=60)
    assert [r.name for r in results] == [
        "rank-monotonicity", "sum-conditions", "basis-dimension", "sink-equation"]
    for r in results:
        assert r.ok and r.violations == [] and r.checks > 0


def test_suites_deterministic_for_fixed_seed():
    a = rank_monotonicity_suite(samples=200, seed=9)
    b = rank_monotonicity_suite(samples=200, seed=9)
    assert a == b
    assert sum_conditions_suite(samples=100, seed=4).ok


def test_result_serialization():
    result = sink_equation_suite(random_samples=20, seed=3)
    doc = result.to_json()
    assert set(doc) == {"name", "checks", "ok", "violations", "extras"}
    assert doc["ok"] is True and doc["violations"] == []


def test_column_family_dimensions_reported():
    extras = basis_dimension_suite(max_n=4, samples=30, seed=2).extras
    fams = extras["column_family_dimensions"]
    for n_text, info in fams.items():
        n = int(n_text)
        assert info["two_column_pairs"] == [n + 1]
        assert info["single_column_family"] == n
        assert info["shared_column_at_most_two"] == n * (n - 1) + 1


def _digest(result):
    return hashlib.sha256(json.dumps(result.to_json(), sort_keys=True).encode()).hexdigest()


def test_exact_suite_documents_pinned():
    # Digests of the documents as first recorded, before the elimination
    # kernel was rewritten; any change to what the suites find shows here.
    assert _digest(sum_conditions_suite(samples=200, seed=0)) == (
        "0f6f0217bb89e68492e04a123ac69a1afe4f87d7f387b90df6b4a25c59e176d7")
    assert _digest(basis_dimension_suite(samples=50, seed=2)) == (
        "f24c143484cc3d0e6bb426178b109f6876b7327428c117c22ee31326e2449002")
    # Recorded before the sink equation's solution builder was merged.
    assert _digest(sink_equation_suite(random_samples=200, seed=3)) == (
        "0fcce01382d4e8f1c072499bd2820fc41d2ed3a1e8a0aab2451648c26ce4aa53")
    # Recorded before matrix_rank handed its rows to the basis unchecked.
    assert _digest(rank_monotonicity_suite(samples=500, seed=0)) == (
        "742d50135cdc8be246100c94ae636d2d73a98d32b869794e683e024f9b547ed8")


def test_sum_conditions_suite_builds_each_family_once(monkeypatch):
    # Each sample builds its target and at most three extras; the spanning
    # families of its (n, k) are built once and shared across samples.
    built = []
    post_init = RowMonomialMatrix.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RowMonomialMatrix, "__post_init__", counting)
    _vij_family.cache_clear()
    sum_conditions_suite(samples=100, seed=0)
    at_100 = len(built)
    _vij_family.cache_clear()
    sum_conditions_suite(samples=200, seed=0)
    assert len(built) - 2 * at_100 <= 4 * 100


def test_sink_equation_suite_checks_every_q(monkeypatch):
    # A fault that mistakes q for column 0 is right on every q = 0 instance;
    # the suite cycles q through the columns, so it reports this one: the
    # minimal family's free rows avoid column 0 in place of q.
    enumerate_solutions = rowsync.suites.enumerate_solutions

    def avoids_column_0(m_u, q=0, minimal=False):
        image = set(m_u.targets)
        for sol in enumerate_solutions(m_u, q):
            if not minimal or all(t != 0 for i, t in enumerate(sol.targets) if i not in image):
                yield sol

    monkeypatch.setattr(rowsync.suites, "enumerate_solutions", avoids_column_0)
    result = sink_equation_suite(random_samples=20, seed=3)
    assert not result.ok and result.violations
    assert all(" q=0:" not in line for line in result.violations)


def _fewer(enumerate_solutions):
    def short(m_u, q=0, minimal=False):
        return list(enumerate_solutions(m_u, q, minimal))[:-1]
    return short


def _doubled(express):
    def doubled(*args):
        coeffs = express(*args)
        return None if coeffs is None else [2 * c for c in coeffs]
    return doubled


SMALL_RUNS = {rank_monotonicity_suite: {"samples": 60}, sum_conditions_suite: {"samples": 60},
              basis_dimension_suite: {"max_n": 4, "samples": 20}, sink_equation_suite: {"random_samples": 20}}

# (suite, name the suite calls, fault made from the original, a message of the
# check the fault must trip).  Each violation branch of each suite is reached.
SUITE_FAULTS = [
    (rank_monotonicity_suite, "matrix_rank", lambda f: lambda m: f(m) + 1,
     r"sample \d+ .*: elimination rank (\d+) != \d+$"),
    (rank_monotonicity_suite, "multiply", lambda f: lambda a, b: f(b, a),
     r": matrix of concatenation disagrees with product$"),
    (rank_monotonicity_suite, "rank", lambda f: lambda m: m.n - f(m), r": appending letter raised rank$"),
    (rank_monotonicity_suite, "nonzero_columns", lambda f: lambda m: frozenset(range(m.n)) - f(m),
     r": prepending letter left the old column set$"),
    (rank_monotonicity_suite, "is_permutation", lambda f: lambda m: True,
     r": permutation letter changed rank on the right$"),
    (rank_monotonicity_suite, "is_permutation", lambda f: lambda m: True,
     r": permutation letter changed columns on the left$"),
    (rank_monotonicity_suite, "is_permutation", lambda f: lambda m: True,
     r": permutation letter changed column unit counts$"),
    (rank_monotonicity_suite, "column_rows", lambda f: lambda m, c: f(m, (c + 1) % m.n),
     r": product column \d+ is not the merge of source columns$"),
    (sum_conditions_suite, "express", lambda f: lambda *args: None,
     r": spanning family failed to express target$"),
    (sum_conditions_suite, "express", _doubled, r": expressed combination does not reproduce target$"),
    (sum_conditions_suite, "express", _doubled, r": coefficient sum 2 != 1"),
    (basis_dimension_suite, "span_dimension", lambda f: lambda family: f(family) - 1,
     r"^n=2, k=2: family size 3, rank 2, expected 3$"),
    (basis_dimension_suite, "span_dimension", lambda f: lambda family: f(family) - 1,
     r"^n=2, k=2: dropping member 0 did not lower rank by one$"),
    (basis_dimension_suite, "span_dimension", lambda f: lambda family: f(family) - 1,
     r"^n=1: full span dimension 0 != 1$"),
    (basis_dimension_suite, "decompose_vij", _doubled, r"^n=2, k=2, t=\(0, 0\): coefficient sum 2 != 1"),
    (sink_equation_suite, "enumerate_solutions", _fewer, r": found \d+ solutions, expected \d+$"),
    (sink_equation_suite, "enumerate_solutions", _fewer, r": found \d+ minimal solutions, expected \d+$"),
    (sink_equation_suite, "is_solution", lambda f: lambda m_u, s, q: False,
     r": \d+ enumerated candidates fail the equation$"),
    (sink_equation_suite, "minimal_solution", lambda f: lambda m_u, q: sink_matrix(m_u.n, q),
     r": default minimal solution is not in the minimal family$"),
    (sink_equation_suite, "leq_q", lambda f: lambda a, b, q: False,
     r": minimal solution \(.*\) not below every solution$"),
]


# The first violation in full, keyed by the fault's message, for faults that
# every sample trips: the tag naming the sample is pinned byte for byte.
FIRST_VIOLATION = {
    r"sample \d+ .*: elimination rank (\d+) != \d+$":
        "sample 0 (n=5, k=4, u=(0, 0, 2, 3), a=0): elimination rank 4 != 3",
    r": spanning family failed to express target$":
        "sample 0 (n=3, k=2, target=(0, 1, 1)): spanning family failed to express target",
}


@pytest.mark.parametrize("suite,name,fault,message", SUITE_FAULTS,
                         ids=[f"{s.__name__}-{name}-{i}" for i, (s, name, _, _) in enumerate(SUITE_FAULTS)])
def test_suite_reports_injected_fault(monkeypatch, suite, name, fault, message):
    monkeypatch.setattr(rowsync.suites, name, fault(getattr(rowsync.suites, name)))
    result = suite(**SMALL_RUNS[suite])
    assert not result.ok and not result.to_json()["ok"]
    assert any(re.search(message, line) for line in result.violations), result.violations[:3]
    if message in FIRST_VIOLATION:
        assert result.violations[0] == FIRST_VIOLATION[message]
