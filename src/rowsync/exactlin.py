"""Exact rational linear algebra over flattened matrices.

A matrix enters the basis as its n unit positions, {i*n + t: 1} from
units(); flatten() gives the dense row-major n*n vector, and combine adds
up cells from the matrices' targets.  One echelon basis, RationalBasis,
answers every rank, membership and coefficient question with one
fraction-free elimination step on sparse integer rows, {position: nonzero
value}: cross-multiply to clear a pivot entry.  A step scales the residue,
and then divides out its gcd, only when the stored row's leading entry is
not 1; a kept row is divided by its gcd, with its leading entry made
positive, once, when it is stored, and not at all when that entry is 1.
The basis keeps its rows keyed by pivot, and a row monomial matrix has only
n units among its n*n slots, so a step costs the nonzeros of two rows
rather than their width.  insert checks and copies the caller's row; the
functions here that build their rows from validated matrices hand them to
the basis as they are.  _express_rows tags each row with a unit of its own,
so the target's residue carries its coefficients; rationals appear only
when it reads them off.  express hands it the matrices' units and
express_vectors the nonzeros of dense vectors.  The v_ij family of each
(n, k) is built once and kept, at most 32 families at a time; vij_basis
gives every call a new list of the kept matrices.  No floating point
anywhere, so ranks, span membership and coefficients are exact.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import gcd, lcm
from typing import Iterable, Sequence

from .automaton import _require_int
from .errors import DomainError
from .rowmon import RowMonomialMatrix

Vector = tuple[int, ...]
Row = dict[int, int]
RationalCoefficients = tuple[Fraction, ...]


def flatten(m: RowMonomialMatrix) -> Vector:
    """Row-major 0/1 vector of length n*n; carries exactly n units."""
    n = m.n
    vec = [0] * (n * n)
    for i, t in enumerate(m.targets):
        vec[i * n + t] = 1
    return tuple(vec)


def units(m: RowMonomialMatrix) -> Row:
    """The n unit positions of flatten(m), each mapped to 1."""
    n = m.n
    return {i * n + t: 1 for i, t in enumerate(m.targets)}


class RationalBasis:
    """Incrementally maintained exact basis of integer vectors.

    Keeps an integer echelon, one sparse row per pivot position with the
    pivots in a sorted list.  A single writer may interleave insert with
    dimension and membership queries; instances are not safe for concurrent
    mutation.
    """

    def __init__(self, ambient: int):
        _require_int("ambient dimension", ambient)
        if ambient < 1:
            raise DomainError(f"ambient dimension must be positive, got {ambient}")
        self.ambient = ambient
        self._pivots: list[int] = []
        self._rows: dict[int, Row] = {}

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def _copy(self, row: Row) -> Row:
        """A copy of row without its zeros, its positions checked; row is left as it was."""
        if row:
            low, high = min(row), max(row)
            if low < 0 or high >= self.ambient:
                raise DomainError(f"position {low if low < 0 else high} outside [0, {self.ambient})")
        return {p: x for p, x in row.items() if x} if 0 in row.values() else dict(row)

    def _reduce(self, v: Row) -> Row:
        """Sparse v, consumed, less its components along the stored rows.

        One inline elimination step per pivot that v holds, in pivot order.
        """
        rows = self._rows
        for pivot in self._pivots:
            if not v:
                break
            if pivot in v:
                row = rows[pivot]
                c, lead = v[pivot], row[pivot]
                if lead != 1:
                    v = {p: a * lead for p, a in v.items()}
                for p, b in row.items():
                    x = v.get(p, 0) - b * c
                    if x:
                        v[p] = x
                    else:
                        del v[p]
                if lead != 1:
                    g = gcd(*v.values())
                    if g > 1:
                        v = {p: x // g for p, x in v.items()}
        return v

    def _store(self, residue: Row) -> None:
        """Keep a nonzero residue as the echelon row of its least position.

        The row is divided by its gcd, with its leading entry made positive,
        unless that entry is already 1.
        """
        pivot = min(residue)
        lead = residue[pivot]
        if lead != 1:
            g = gcd(*residue.values())
            if lead < 0:
                g = -g
            if g != 1:
                residue = {p: x // g for p, x in residue.items()}
        insort(self._pivots, pivot)
        self._rows[pivot] = residue

    def _add(self, row: Row) -> bool:
        """insert for a row built in range with no zero value; the row is consumed."""
        residue = self._reduce(row)
        if not residue:
            return False
        self._store(residue)
        return True

    def insert(self, row: Row) -> bool:
        """Add a sparse row, {position: value}; True iff it was independent of the span."""
        return self._add(self._copy(row))

    def contains(self, row: Row) -> bool:
        """Whether the sparse row, {position: value}, lies in the span."""
        return not self._reduce(self._copy(row))


def matrix_rank(m: RowMonomialMatrix) -> int:
    """Exact rank of the n x n grid, by elimination over its rows."""
    basis = RationalBasis(m.n)
    for t in m.targets:
        basis._add({t: 1})
    return basis.dimension


def span_dimension(matrices: Iterable[RowMonomialMatrix]) -> int:
    """Dimension of the span of the matrices' unit positions; 0 for an empty family.

    Every matrix must have the size of the first.
    """
    basis: RationalBasis | None = None
    for m in matrices:
        if basis is None:
            n = m.n
            basis = RationalBasis(n * n)
        elif m.n != n:
            raise DomainError(f"size mismatch: {m.n} vs {n}")
        basis._add(units(m))
    return 0 if basis is None else basis.dimension


def _express_rows(target_row: Row, column_rows: Sequence[Row], height: int) -> RationalCoefficients | None:
    """express_vectors on sparse rows with positions below height and no zero value.

    One RationalBasis over height + m + 1 positions.  Column i enters with a
    unit tag at position height + i and is kept only if its residue still
    has an entry below height, that is, only if it is independent of
    columns 0..i-1.  Kept rows combine kept columns only, so a dropped
    column's tag never reaches one and its free variable is zero: equal
    inputs give equal outputs.  The target enters tagged at height + m.
    A residue with no entry below height reads
    t * target + sum_i c_i * columns[i] = 0, with t at height + m and c_i at
    height + i, so x_i = -c_i / t, unique over the kept columns.  Any other
    residue means the target is outside the span, and None is returned.
    The rows are consumed.
    """
    m = len(column_rows)
    basis = RationalBasis(height + m + 1)
    for tag, row in enumerate((*column_rows, target_row), start=height):
        row[tag] = 1
        residue = basis._reduce(row)
        if min(residue) < height and tag < height + m:
            basis._store(residue)
    if min(residue) < height:
        return None
    t = residue[height + m]
    return tuple(Fraction(-residue.get(height + i, 0), t) for i in range(m))


def express_vectors(target: Sequence[int], columns: Sequence[Sequence[int]]) -> RationalCoefficients | None:
    """Solve sum_i x_i * columns[i] = target exactly over the rationals.

    None when the target is outside the columns' span; free variables are
    zero, so the answer is deterministic even when the columns are
    dependent.  The vectors' nonzeros go to _express_rows.
    """
    height = len(target)
    for col in columns:
        if len(col) != height:
            raise DomainError(f"column length {len(col)} does not match target length {height}")
    positions = range(height)
    return _express_rows({r: target[r] for r in compress(positions, target)},
                         [{r: col[r] for r in compress(positions, col)} for col in columns], height)


def express(target: RowMonomialMatrix, matrices: Sequence[RowMonomialMatrix]) -> RationalCoefficients | None:
    """Exact coefficients writing target as a combination of the given matrices.

    None when no exact combination exists.  Free variables are zero, so the
    answer is deterministic even when the family is dependent.  The
    matrices' units go to _express_rows; no matrix is flattened.
    """
    for m in matrices:
        if m.n != target.n:
            raise DomainError(f"size mismatch: {m.n} vs {target.n}")
    return _express_rows(units(target), [units(m) for m in matrices], target.n * target.n)


def common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over their least common denominator, and it."""
    denominator = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (denominator // c.denominator) for c in coeffs], denominator


def combine(numerators: Sequence[int], matrices: Sequence[RowMonomialMatrix], n: int) -> list[int]:
    """Row-major n*n integer cells of sum_i numerators[i] * matrices[i].

    Zero numerators are skipped; every other matrix adds its numerator to
    the n cells that hold its units.
    """
    if len(numerators) != len(matrices):
        raise DomainError(f"{len(numerators)} coefficients for {len(matrices)} matrices")
    cells = [0] * (n * n)
    for c, m in zip(numerators, matrices):
        if m.n != n:
            raise DomainError(f"size mismatch: {m.n} vs {n}")
        if c:
            for i, t in enumerate(m.targets):
                cells[i * n + t] += c
    return cells


def check_sum_conditions(coeffs: Sequence[Fraction],
                         matrices: Sequence[RowMonomialMatrix],
                         target: RowMonomialMatrix | None) -> tuple[str, ...]:
    """The sum conditions a combination breaks, empty when it keeps them; target None means zero.

    For a row monomial target both the coefficient sum and every row sum of
    the combination must equal 1; for the zero matrix they must all be 0.
    The caller asserts that coeffs expresses target over matrices; this only
    audits the sums.  Row sums are accumulated cell by cell rather than
    assumed, so a violation would actually surface; the cells hold integer
    numerators over the coefficients' common denominator, and a sum becomes
    a Fraction only to be written into a violation.
    """
    if matrices:
        n = matrices[0].n
    else:
        n = target.n if target is not None else 1
    if target is not None and target.n != n:
        raise DomainError(f"target size {target.n} does not match {n}")
    expected = 0 if target is None else 1
    numerators, denominator = common_denominator(coeffs)
    cells = combine(numerators, matrices, n)
    scaled = expected * denominator
    violations = []
    total = sum(numerators)
    if total != scaled:
        violations.append(f"coefficient sum {Fraction(total, denominator)} != {expected}")
    for i in range(n):
        total = sum(cells[i * n:(i + 1) * n])
        if total != scaled:
            violations.append(f"row {i} sums to {Fraction(total, denominator)} != {expected}")
    return tuple(violations)


def vij_basis(n: int, k: int) -> list[RowMonomialMatrix]:
    """Independent spanning family for matrices with units in the first k columns.

    For each row i and column j < k-1 one matrix with a unit at (i, j) and
    units at (m, k-1) for every other row m, then one matrix with all units
    in column k-1.  That is n*(k-1) + 1 matrices; their span contains every
    row monomial matrix whose targets stay below k.  The family of each
    (n, k) is built once and kept, at most 32 families at a time; every call
    returns a new list of the kept matrices, which the caller may change.
    """
    _require_int("size", n)
    _require_int("column count", k)
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= k <= n, got k = {k}, n = {n}")
    return list(_vij_family(n, k))


@lru_cache(maxsize=32)
def _vij_family(n: int, k: int) -> tuple[RowMonomialMatrix, ...]:
    """vij_basis(n, k) as a tuple, built once per checked (n, k)."""
    out = []
    for i in range(n):
        for j in range(k - 1):
            targets = [k - 1] * n
            targets[i] = j
            out.append(RowMonomialMatrix(n=n, targets=tuple(targets)))
    out.append(RowMonomialMatrix(n=n, targets=tuple([k - 1] * n)))
    return tuple(out)


def decompose_vij(t: RowMonomialMatrix, k: int) -> RationalCoefficients:
    """Coefficients of t over vij_basis(t.n, k), in basis order.

    Writes t as the sum of the basis matrices matching its units outside
    column k-1, minus (m-1) copies of the all-last-column matrix, where m
    counts those units.  The result is re-evaluated before returning.
    """
    n = t.n
    _require_int("column count", k)
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= k <= n, got k = {k}, n = {n}")
    for i, tgt in enumerate(t.targets):
        if tgt >= k:
            raise DomainError(f"row {i} has its unit in column {tgt}, outside the first {k} columns")
    coeffs = [0] * (n * (k - 1) + 1)
    m_count = 0
    for i, tgt in enumerate(t.targets):
        if tgt < k - 1:
            coeffs[i * (k - 1) + tgt] = 1
            m_count += 1
    coeffs[-1] = -(m_count - 1)
    if tuple(combine(coeffs, _vij_family(n, k), n)) != flatten(t):
        raise DomainError("decomposition failed re-evaluation; input was not row monomial within k columns")
    return tuple(Fraction(c) for c in coeffs)


def all_row_monomial(n: int, columns: Sequence[int] | None = None) -> Iterable[RowMonomialMatrix]:
    """Every row monomial n x n matrix, targets drawn from the given columns.

    Lexicographic in the target sequence.  Default is all n columns, which
    yields n^n matrices; keep n small.  The arguments are checked when it is
    called, not when the matrices are drawn.
    """
    _require_int("size", n)
    cols = tuple(range(n)) if columns is None else tuple(sorted(set(columns)))
    for c in cols:
        if not 0 <= c < n:
            raise DomainError(f"column {c} outside [0, {n})")
    return (RowMonomialMatrix(n=n, targets=targets) for targets in product(cols, repeat=n))


def two_column_span_dimension(n: int, c: int, d: int) -> int:
    """Span dimension of all matrices whose units stay inside columns {c, d}."""
    if c == d:
        raise DomainError("need two distinct columns")
    return span_dimension(all_row_monomial(n, columns=(c, d)))


def common_column_span_dimension(n: int, c: int) -> int:
    """Span dimension of matrices using column c plus at most one other column.

    One candidate reading of the bound on families sharing a nonzero column:
    every member has c among its nonzero columns and at most two nonzero
    columns in total.  Measured, not asserted.
    """
    return span_dimension(m for d in range(n)
                          for m in all_row_monomial(n, columns=(c,) if d == c else (c, d))
                          if c in m.targets)


def sink_family_dimension(n: int) -> int:
    """Span dimension of the n single-column (all-units-in-one-column) matrices.

    The other candidate reading: one matrix per column, each of rank one.
    """
    return span_dimension(m for q in range(n) for m in all_row_monomial(n, columns=(q,)))
