"""Solutions of the sink equation.

Given the matrix of a word u, we study row monomial L with
multiply(M_u, L) equal to the matrix with all units in one column q.
A row monomial L solves the equation exactly when every column index in
the image set of u is sent to q; rows outside the image set are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import CapacityError, DomainError
from .rowmon import RowMonomialMatrix, column_rows, multiply, nonzero_columns

DEFAULT_SOLUTION_BUDGET = 1_000_000


def sink_matrix(n: int, q: int = 0) -> RowMonomialMatrix:
    """The rank-one matrix with every unit in column q."""
    if not 0 <= q < n:
        raise DomainError(f"column {q} outside [0, {n})")
    return RowMonomialMatrix(n=n, targets=tuple([q] * n))


@dataclass(frozen=True)
class SolutionSpec:
    """Shape of the solution family of one sink equation.

    fixed_rows are the rows every solution must send to q (the image set of
    the word); free_rows may use any column from allowed_columns.
    """

    n: int
    q: int
    fixed_rows: tuple[int, ...]
    free_rows: tuple[int, ...]
    allowed_columns: tuple[int, ...]

    @property
    def solution_count(self) -> int:
        return len(self.allowed_columns) ** len(self.free_rows)

    @property
    def minimal_solution_count(self) -> int:
        off_q = [c for c in self.allowed_columns if c != self.q]
        return len(off_q) ** len(self.free_rows)


def solution_spec(m_u: RowMonomialMatrix, q: int = 0,
                  restriction: Sequence[int] | None = None) -> SolutionSpec:
    """Describe all solutions L of the sink equation for m_u and column q.

    restriction narrows the columns free rows may use; fixed rows always go
    to q regardless.
    """
    n = m_u.n
    if not 0 <= q < n:
        raise DomainError(f"column {q} outside [0, {n})")
    if restriction is None:
        allowed = tuple(range(n))
    else:
        allowed = tuple(sorted(set(restriction)))
        for c in allowed:
            if not 0 <= c < n:
                raise DomainError(f"restricted column {c} outside [0, {n})")
    image = nonzero_columns(m_u)
    free = tuple(i for i in range(n) if i not in image)
    return SolutionSpec(n=n, q=q, fixed_rows=tuple(sorted(image)), free_rows=free, allowed_columns=allowed)


def is_solution(m_u: RowMonomialMatrix, sol: RowMonomialMatrix, q: int = 0) -> bool:
    """True iff multiply(m_u, sol) is the sink matrix for column q."""
    if m_u.n != sol.n:
        raise DomainError(f"size mismatch: {m_u.n} vs {sol.n}")
    return multiply(m_u, sol) == sink_matrix(m_u.n, q)


def minimal_solution(m_u: RowMonomialMatrix, q: int = 0) -> RowMonomialMatrix:
    """The least solution under leq_q: only the forced rows point at q.

    Free rows take the lowest column other than q.  A free row exists only
    when the image set misses a state, so n >= 2 and that column exists.
    """
    spec = solution_spec(m_u, q)
    other = 1 if q == 0 else 0
    targets = [q] * spec.n
    for row in spec.free_rows:
        targets[row] = other
    return RowMonomialMatrix(n=spec.n, targets=tuple(targets))


def leq_q(a: RowMonomialMatrix, b: RowMonomialMatrix, q: int = 0) -> bool:
    """Partial order on solutions: a's q-column rows are a subset of b's."""
    if a.n != b.n:
        raise DomainError(f"size mismatch: {a.n} vs {b.n}")
    return set(column_rows(a, q)) <= set(column_rows(b, q))


def enumerate_solutions(m_u: RowMonomialMatrix, q: int = 0,
                        restriction: Sequence[int] | None = None) -> Iterator[RowMonomialMatrix]:
    """All solutions, lexicographic in the free rows' column choices.

    Free rows run in increasing row order, each over the allowed columns in
    increasing order.  Raises CapacityError before yielding anything if the
    family is larger than DEFAULT_SOLUTION_BUDGET.
    """
    spec = solution_spec(m_u, q, restriction)
    if spec.solution_count > DEFAULT_SOLUTION_BUDGET:
        raise CapacityError(
            f"{spec.solution_count} solutions exceed the budget of {DEFAULT_SOLUTION_BUDGET}; restrict columns"
        )
    base = [spec.q] * spec.n
    for choice in product(spec.allowed_columns, repeat=len(spec.free_rows)):
        targets = list(base)
        for row, col in zip(spec.free_rows, choice):
            targets[row] = col
        yield RowMonomialMatrix(n=spec.n, targets=tuple(targets))
