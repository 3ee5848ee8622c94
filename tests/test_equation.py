"""Solving M_u * L = sink matrix for row monomial L."""

import itertools

import pytest

from rowsync.automaton import Dfa, cerny_automaton, shortest_reset_word
from rowsync.equation import (DEFAULT_SOLUTION_BUDGET, enumerate_solutions, is_solution,
                              leq_q, minimal_solution, sink_matrix, solution_spec)
from rowsync.errors import CapacityError, DomainError
from rowsync.rowmon import RowMonomialMatrix, matrix_of_word, multiply


def brute_solutions(m_u, q):
    """Filter every row monomial matrix by direct multiplication."""
    n = m_u.n
    target = sink_matrix(n, q)
    found = []
    for targets in itertools.product(range(n), repeat=n):
        cand = RowMonomialMatrix(n, targets)
        if multiply(m_u, cand).targets == target.targets:
            found.append(cand)
    return found


def test_sink_matrix():
    assert sink_matrix(3).targets == (0, 0, 0)
    assert sink_matrix(3, 2).targets == (2, 2, 2)
    with pytest.raises(DomainError):
        sink_matrix(3, 3)


def test_solution_spec_frozen_example():
    m = RowMonomialMatrix(4, (1, 1, 1, 1))
    spec = solution_spec(m, 0)
    assert spec.fixed_rows == (1,)
    assert spec.free_rows == (0, 2, 3)
    assert spec.allowed_columns == (0, 1, 2, 3)
    assert spec.solution_count == 64
    assert spec.minimal_solution_count == 27


def test_solution_spec_permutation_has_no_freedom():
    m = RowMonomialMatrix(3, (2, 0, 1))
    spec = solution_spec(m, 1)
    assert spec.fixed_rows == (0, 1, 2)
    assert spec.free_rows == ()
    assert spec.solution_count == 1
    sols = list(enumerate_solutions(m, 1))
    assert len(sols) == 1 and is_solution(m, sols[0], 1)


def test_solution_spec_restriction():
    m = RowMonomialMatrix(3, (1, 1, 2))
    spec = solution_spec(m, 0, restriction=(0, 2))
    assert spec.allowed_columns == (0, 2)
    assert spec.solution_count == 2
    empty = solution_spec(m, 0, restriction=())
    assert empty.solution_count == 0
    assert list(enumerate_solutions(m, 0, restriction=())) == []
    with pytest.raises(DomainError):
        solution_spec(m, 0, restriction=(0, 3))
    with pytest.raises(DomainError):
        solution_spec(m, 3)


def test_enumeration_matches_brute_force_exhaustively():
    for table in itertools.product(range(3), repeat=3):
        m = RowMonomialMatrix(3, table)
        for q in range(3):
            expected = {s.targets for s in brute_solutions(m, q)}
            got = list(enumerate_solutions(m, q))
            assert {s.targets for s in got} == expected
            assert len(got) == solution_spec(m, q).solution_count
            for s in got:
                assert is_solution(m, s, q)


def test_enumeration_order_frozen():
    m = RowMonomialMatrix(4, (1, 1, 1, 2))
    sols = list(enumerate_solutions(m, 0))
    assert sols[0].targets == (0, 0, 0, 0)
    assert sols[1].targets == (0, 0, 0, 1)
    assert sols[-1].targets == (3, 0, 0, 3)
    assert len(sols) == 16


def test_enumeration_budget():
    # 8^7 = 2,097,152 solutions, beyond the budget.
    m = RowMonomialMatrix(8, (1,) * 8)
    with pytest.raises(CapacityError):
        list(enumerate_solutions(m, 0))
    assert DEFAULT_SOLUTION_BUDGET >= 10 ** 6


def test_minimal_solution_frozen():
    m = RowMonomialMatrix(4, (1, 1, 1, 1))
    assert minimal_solution(m, 0).targets == (1, 0, 1, 1)
    assert minimal_solution(m, 2).targets == (0, 2, 0, 0)


def test_minimal_solution_is_minimal_in_order():
    m = RowMonomialMatrix(3, (1, 1, 2))
    for q in range(3):
        base = minimal_solution(m, q)
        assert is_solution(m, base, q)
        for other in enumerate_solutions(m, q):
            assert leq_q(base, other, q)


def test_minimal_count_matches_enumeration():
    m = RowMonomialMatrix(4, (2, 2, 3, 3))
    spec = solution_spec(m, 0)
    minimals = [s for s in enumerate_solutions(m, 0)
                if all(s.targets[r] != 0 for r in spec.free_rows)]
    assert len(minimals) == spec.minimal_solution_count
    base = minimal_solution(m, 0)
    assert base.targets in {s.targets for s in minimals}


def test_leq_q_is_column_subset_order():
    a = RowMonomialMatrix(3, (0, 1, 2))
    b = RowMonomialMatrix(3, (0, 0, 2))
    assert leq_q(a, b, 0)
    assert not leq_q(b, a, 0)
    assert leq_q(a, a, 0)
    with pytest.raises(DomainError):
        leq_q(a, RowMonomialMatrix(2, (0, 0)), 0)


def test_single_state():
    m = RowMonomialMatrix(1, (0,))
    assert minimal_solution(m, 0).targets == (0,)
    assert [s.targets for s in enumerate_solutions(m, 0)] == [(0,)]


def test_reset_word_matrix_always_solvable():
    for n in (3, 4, 5):
        dfa = cerny_automaton(n)
        word = shortest_reset_word(dfa)
        m = matrix_of_word(dfa, word)
        q = m.targets[0]
        sol = minimal_solution(m, q)
        assert is_solution(m, sol, q)
        assert multiply(m, sol).targets == sink_matrix(n, q).targets


def test_sync_word_of_arbitrary_dfa():
    dfa = Dfa(3, 2, ((1, 2, 2), (0, 0, 2)))
    word = shortest_reset_word(dfa)
    m = matrix_of_word(dfa, word)
    q = m.targets[0]
    spec = solution_spec(m, q)
    assert spec.solution_count == len(list(enumerate_solutions(m, q)))
