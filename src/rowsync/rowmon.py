"""Row monomial matrices of words.

The matrix of a word u has a single unit in each row: row i carries its unit
in column j exactly when u sends state i to state j.  Such a matrix is fully
determined by its row-target sequence, which is what we store; products then
reduce to composition of target maps and never leave the representation.
multiply(A, B) matches word order: the matrix of uv is multiply(M_u, M_v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automaton import Dfa, _require_int, check_word
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class RowMonomialMatrix:
    """n x n zero-one matrix with exactly one unit per row.

    targets[i] is the column holding the unit of row i.
    """

    n: int
    targets: tuple[int, ...]

    def __post_init__(self):
        _require_int("size", self.n)
        if self.n < 1:
            raise DomainError(f"size must be positive, got {self.n}")
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != self.n:
            raise DomainError(f"need {self.n} row targets, got {len(self.targets)}")
        for i, t in enumerate(self.targets):
            if type(t) is not int or not 0 <= t < self.n:
                raise DomainError(f"targets[{i}] = {t!r} outside [0, {self.n})")

    def row(self, i: int) -> tuple[int, ...]:
        out = [0] * self.n
        out[self.targets[i]] = 1
        return tuple(out)

    def render_grid(self) -> str:
        """n-line 0/1 grid, columns separated by single spaces."""
        return "\n".join(" ".join(str(v) for v in self.row(i)) for i in range(self.n))

    def compact(self) -> str:
        """Single-line row-target form, e.g. "[1 2 3 0]"."""
        return "[" + " ".join(str(t) for t in self.targets) + "]"


def identity(n: int) -> RowMonomialMatrix:
    _require_int("size", n)
    return RowMonomialMatrix(n=n, targets=tuple(range(n)))


def matrix_of_word(dfa: Dfa, word: Sequence[int]) -> RowMonomialMatrix:
    """Matrix of a word over the given automaton; the empty word gives identity."""
    w = check_word(dfa, word)
    targets = list(range(dfa.n))
    for a in w:
        row = dfa.delta[a]
        targets = [row[t] for t in targets]
    return RowMonomialMatrix(n=dfa.n, targets=tuple(targets))


def multiply(a: RowMonomialMatrix, b: RowMonomialMatrix) -> RowMonomialMatrix:
    """Product in word order: multiply(M_u, M_v) is the matrix of uv."""
    if a.n != b.n:
        raise DomainError(f"size mismatch: {a.n} vs {b.n}")
    return RowMonomialMatrix(n=a.n, targets=tuple(b.targets[t] for t in a.targets))


def nonzero_columns(m: RowMonomialMatrix) -> frozenset[int]:
    """Columns holding at least one unit; this is the image of the full state set."""
    return frozenset(m.targets)


def rank(m: RowMonomialMatrix) -> int:
    """Linear-algebra rank; equals the number of nonzero columns.

    Distinct nonzero columns of a row monomial matrix are distinct standard
    basis patterns on disjoint row sets, hence independent.  Cross-checked
    against exact elimination in the test suite.
    """
    return len(set(m.targets))


def is_permutation(m: RowMonomialMatrix) -> bool:
    """True iff every column holds exactly one unit (the matrix is invertible)."""
    return len(set(m.targets)) == m.n


def column_rows(m: RowMonomialMatrix, column: int) -> tuple[int, ...]:
    """Rows whose unit sits in the given column, ascending."""
    if not 0 <= column < m.n:
        raise DomainError(f"column {column} outside [0, {m.n})")
    return tuple(i for i, t in enumerate(m.targets) if t == column)


def column_unit_counts(m: RowMonomialMatrix) -> tuple[int, ...]:
    """Number of units in each column; sums to n."""
    counts = [0] * m.n
    for t in m.targets:
        counts[t] += 1
    return tuple(counts)
