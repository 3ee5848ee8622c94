"""Solutions of the sink equation.

Given the matrix of a word u, we study row monomial L with
multiply(M_u, L) equal to the matrix with all units in one column q.
A row monomial L solves the equation exactly when every column index in
the image set of u is sent to q; rows outside the image set are free.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .automaton import _require_int
from .errors import CapacityError, DomainError
from .rowmon import RowMonomialMatrix, column_rows, multiply, nonzero_columns

DEFAULT_SOLUTION_BUDGET = 1_000_000


def sink_matrix(n: int, q: int = 0) -> RowMonomialMatrix:
    """The rank-one matrix with every unit in column q."""
    _require_int("size", n)
    if not 0 <= q < n:
        raise DomainError(f"column {q} outside [0, {n})")
    return RowMonomialMatrix(n=n, targets=tuple([q] * n))


def _free_rows(m_u: RowMonomialMatrix, q: int) -> list[int]:
    """Rows outside the image set of u, which a solution may send anywhere."""
    n = m_u.n
    if not 0 <= q < n:
        raise DomainError(f"column {q} outside [0, {n})")
    image = nonzero_columns(m_u)
    return [i for i in range(n) if i not in image]


def _solution(n: int, q: int, rows: Sequence[int], columns: Sequence[int]) -> RowMonomialMatrix:
    """The sink matrix for q with each of rows sent to its entry of columns."""
    targets = [q] * n
    for row, col in zip(rows, columns):
        targets[row] = col
    return RowMonomialMatrix(n=n, targets=tuple(targets))


def is_solution(m_u: RowMonomialMatrix, sol: RowMonomialMatrix, q: int = 0) -> bool:
    """True iff multiply(m_u, sol) is the sink matrix for column q."""
    return multiply(m_u, sol) == sink_matrix(m_u.n, q)


def minimal_solution(m_u: RowMonomialMatrix, q: int = 0) -> RowMonomialMatrix:
    """The least solution under leq_q: only the forced rows point at q.

    Free rows take the lowest column other than q.  A free row exists only
    when the image set misses a state, so n >= 2 and that column exists.
    """
    free = _free_rows(m_u, q)
    return _solution(m_u.n, q, free, [1 if q == 0 else 0] * len(free))


def leq_q(a: RowMonomialMatrix, b: RowMonomialMatrix, q: int = 0) -> bool:
    """Partial order on solutions: a's q-column rows are a subset of b's."""
    if a.n != b.n:
        raise DomainError(f"size mismatch: {a.n} vs {b.n}")
    return set(column_rows(a, q)) <= set(column_rows(b, q))


def enumerate_solutions(m_u: RowMonomialMatrix, q: int = 0,
                        minimal: bool = False) -> Iterator[RowMonomialMatrix]:
    """All solutions, lexicographic in the free rows' column choices.

    Free rows run in increasing row order, each over the columns in
    increasing order.  With minimal, free rows avoid q: the solutions that
    are minimal under leq_q.  Raises CapacityError before yielding anything
    if the family is larger than DEFAULT_SOLUTION_BUDGET.
    """
    free = _free_rows(m_u, q)
    n = m_u.n
    columns = [c for c in range(n) if c != q] if minimal else range(n)
    count = len(columns) ** len(free)
    if count > DEFAULT_SOLUTION_BUDGET:
        raise CapacityError(f"{count} solutions exceed the budget of {DEFAULT_SOLUTION_BUDGET}; "
                            "take minimal=True or minimal_solution")
    for choice in product(columns, repeat=len(free)):
        yield _solution(n, q, free, choice)
