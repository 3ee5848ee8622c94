"""Solving M_u * L = sink matrix for row monomial L."""

import hashlib
import inspect
import itertools

import pytest

from rowsync.automaton import Dfa, cerny_automaton, shortest_reset_word
from rowsync.equation import (DEFAULT_SOLUTION_BUDGET, enumerate_solutions, is_solution,
                              leq_q, minimal_solution, sink_matrix)
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


def free_rows(m_u):
    """Rows outside the image set of u, computed here rather than by the package."""
    return tuple(i for i in range(m_u.n) if i not in m_u.targets)


def varying_rows(solutions):
    """Rows whose column differs between two of the given solutions."""
    return tuple(i for i in range(solutions[0].n) if len({s.targets[i] for s in solutions}) > 1)


def test_sink_matrix():
    assert sink_matrix(3).targets == (0, 0, 0)
    assert sink_matrix(3, 2).targets == (2, 2, 2)
    with pytest.raises(DomainError):
        sink_matrix(3, 3)


def test_solution_family_frozen_example():
    m = RowMonomialMatrix(4, (1, 1, 1, 1))
    sols = list(enumerate_solutions(m, 0))
    minimal = list(enumerate_solutions(m, 0, minimal=True))
    assert free_rows(m) == varying_rows(sols) == varying_rows(minimal) == (0, 2, 3)
    assert {s.targets[1] for s in sols} == {0}
    assert {s.targets[0] for s in sols} == {0, 1, 2, 3}
    assert {s.targets[0] for s in minimal} == {1, 2, 3}
    assert len(sols) == 64
    assert len(minimal) == 27


def test_permutation_has_no_freedom():
    m = RowMonomialMatrix(3, (2, 0, 1))
    assert free_rows(m) == ()
    sols = list(enumerate_solutions(m, 1))
    assert [s.targets for s in sols] == [(1, 1, 1)]
    assert is_solution(m, sols[0], 1)
    assert list(enumerate_solutions(m, 1, minimal=True)) == sols
    assert minimal_solution(m, 1) == sols[0]


def test_q_out_of_range():
    m = RowMonomialMatrix(3, (1, 1, 2))
    for q in (3, -1):
        for call in (lambda: next(enumerate_solutions(m, q)),
                     lambda: next(enumerate_solutions(m, q, minimal=True)),
                     lambda: minimal_solution(m, q)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"column {q} outside [0, 3)"


def test_enumeration_matches_brute_force_exhaustively():
    for table in itertools.product(range(3), repeat=3):
        m = RowMonomialMatrix(3, table)
        for q in range(3):
            expected = {s.targets for s in brute_solutions(m, q)}
            got = list(enumerate_solutions(m, q))
            assert {s.targets for s in got} == expected
            assert len(got) == len(expected) == 3 ** len(free_rows(m))
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
    # 8^7 = 2,097,152 solutions, beyond the budget; the minimal family has 7^7 = 823,543.
    m = RowMonomialMatrix(8, (1,) * 8)
    solutions = enumerate_solutions(m, 0)
    with pytest.raises(CapacityError) as err:
        next(solutions)
    assert str(err.value) == ("2097152 solutions exceed the budget of 1000000; "
                              "take minimal=True or minimal_solution")
    assert next(enumerate_solutions(m, 0, minimal=True)).targets == (1, 0, 1, 1, 1, 1, 1, 1)
    assert DEFAULT_SOLUTION_BUDGET >= 10 ** 6
    # The q-range error comes before the budget error.
    with pytest.raises(DomainError):
        next(enumerate_solutions(m, 8))
    # Both come on the first next(): the bench's tracer times each next()
    # only for generator functions.
    assert inspect.isgeneratorfunction(enumerate_solutions)


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
    free = free_rows(m)
    minimals = [s for s in enumerate_solutions(m, 0)
                if all(s.targets[r] != 0 for r in free)]
    assert len(minimals) == 3 ** len(free) == 9
    assert list(enumerate_solutions(m, 0, minimal=True)) == minimals
    base = minimal_solution(m, 0)
    assert base.targets in {s.targets for s in minimals}


def test_minimal_family_against_filtered_enumeration():
    # minimal=True is, in order, the full family less every solution that
    # sends a free row to q.
    for n in (3, 4):
        for table in itertools.product(range(n), repeat=n):
            m = RowMonomialMatrix(n, table)
            free = free_rows(m)
            for q in range(n):
                expected = [s for s in enumerate_solutions(m, q) if all(s.targets[r] != q for r in free)]
                assert list(enumerate_solutions(m, q, minimal=True)) == expected
                assert len(expected) == (n - 1) ** len(free)
                assert minimal_solution(m, q) == expected[0]


def _outcome(thunk):
    try:
        return repr(thunk())
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def test_solution_families_pinned():
    # Recorded before the solution builder was merged, with the minimal
    # family then taken as restriction=[c for c in range(n) if c != q]: the
    # full family, the minimal family and the minimal solution of every row
    # monomial matrix with n <= 4, for q = 0..n (q = n is the error path).
    lines = []
    for n in range(1, 5):
        for targets in itertools.product(range(n), repeat=n):
            m = RowMonomialMatrix(n, targets)
            for q in range(n + 1):
                lines.append(f"{targets} {q}"
                             f" | {_outcome(lambda: [s.targets for s in enumerate_solutions(m, q)])}"
                             f" | {_outcome(lambda: [s.targets for s in enumerate_solutions(m, q, minimal=True)])}"
                             f" | {_outcome(lambda: minimal_solution(m, q).targets)}")
    assert len(lines) == 1402
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "5272abebaaa5579d8ca5684a7471afe3862644c1c8695745d075149ef94fdc15")


def test_is_solution_refuses_size_mismatch():
    # multiply checks the sizes; is_solution raises its error unchanged, either way round.
    three, two = RowMonomialMatrix(3, (0, 0, 0)), RowMonomialMatrix(2, (0, 0))
    for m_u, sol, message in ((three, two, "size mismatch: 3 vs 2"), (two, three, "size mismatch: 2 vs 3")):
        with pytest.raises(DomainError) as err:
            is_solution(m_u, sol, 0)
        assert str(err.value) == message


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
    assert [s.targets for s in enumerate_solutions(m, q)] == [s.targets for s in brute_solutions(m, q)]
