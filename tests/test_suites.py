"""Invariant suites at reduced scale; the acceptance gate runs them in full."""

import hashlib
import json

import rowsync.suites
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
