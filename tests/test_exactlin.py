"""Exact linear algebra over flattened matrices.

The package's fraction-free elimination is cross-checked against plain
Fraction-based Gaussian eliminations written here, so the two routes share
no code.  Its inline reduction is also checked, residue by residue, against
the same integer steps run one function call each.
"""

import random
from fractions import Fraction
from math import gcd

from rowsync.automaton import cerny_automaton, random_dfa, shortest_reset_word

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsync.errors import DomainError
from rowsync.exactlin import (RationalBasis, all_row_monomial, check_sum_conditions, combine,
                              common_column_span_dimension, decompose_vij, express,
                              express_vectors, flatten, matrix_rank, sink_family_dimension,
                              span_dimension, two_column_span_dimension, units, vij_basis)
from rowsync.rowmon import RowMonomialMatrix, identity, multiply, rank


def sparse(vec):
    """The basis's {position: value} form of a dense vector, zeros kept."""
    return dict(enumerate(vec))


def oracle_rank(rows):
    """Textbook Gaussian elimination over Fraction, independent of the package."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def oracle_solve(target, columns):
    """Textbook Fraction Gaussian elimination with back-substitution.

    Pivots on the first nonzero row per column, in column order, and fixes
    the free variables to zero; None when the system is inconsistent.
    """
    m = len(columns)
    rows = [[Fraction(col[r]) for col in columns] + [Fraction(t)] for r, t in enumerate(target)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        acc = rows[r][m] - sum(rows[r][j] * x[j] for j in range(c + 1, m))
        x[c] = acc / rows[r][c]
    return tuple(x)


def random_system(rng, kind):
    """A seeded integer system (target, columns) of the given kind.

    "wide" systems have more columns than rows, up to 12, and mix fresh
    columns with zero, repeated and scaled copies of earlier ones.
    """
    if kind == "wide":
        height = rng.randint(1, 6)
        columns = [[rng.randint(-3, 3) for _ in range(height)]]
        for _ in range(rng.randint(height, 11)):
            f = rng.choice((None, 0, 1, -2, 3))
            columns.append([rng.randint(-3, 3) for _ in range(height)] if f is None
                           else [f * x for x in rng.choice(columns)])
    else:
        height = rng.randint(1, 7)
        width = 0 if kind == "empty" else rng.randint(1, 7)
        columns = [[rng.randint(-3, 3) for _ in range(height)] for _ in range(width)]
    if kind == "rank-deficient":
        b, c = rng.randrange(width), rng.randrange(width)
        f, g = rng.randint(-2, 2), rng.randint(-2, 2)
        columns.insert(rng.randrange(width + 1), [f * u + g * v for u, v in zip(columns[b], columns[c])])
        columns.insert(rng.randrange(width + 2), [0] * height)
    if kind == "inconsistent":
        target = [rng.randint(-4, 4) for _ in range(height)]
    else:
        weights = [rng.randint(-3, 3) for _ in columns]
        target = [sum(w * col[r] for w, col in zip(weights, columns)) for r in range(height)]
        if kind == "empty" and rng.random() < 0.5:
            target[rng.randrange(height)] = rng.randint(1, 3)
    return target, columns


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "rank-deficient", "empty", "wide"])
def test_express_vectors_matches_textbook_solver(kind):
    rng = random.Random(f"express-{kind}")
    outcomes = set()
    for _ in range(400):
        target, columns = random_system(rng, kind)
        coeffs = express_vectors(target, columns)
        assert coeffs == oracle_solve(target, columns)
        outcomes.add(coeffs is None)
        if coeffs is not None:
            assert all(isinstance(c, Fraction) for c in coeffs)
            assert [sum(c * col[r] for c, col in zip(coeffs, columns))
                    for r in range(len(target))] == target
    if kind in ("consistent", "rank-deficient", "wide"):
        assert outcomes == {False}
    else:
        assert outcomes == {False, True}


def test_flatten_positions():
    m = RowMonomialMatrix(3, (1, 0, 2))
    assert flatten(m) == (0, 1, 0, 1, 0, 0, 0, 0, 1)
    assert sum(flatten(m)) == 3


def test_basis_insert_and_membership():
    basis = RationalBasis(4)
    assert basis.insert(sparse((1, 0, 0, 0)))
    assert basis.insert(sparse((1, 1, 0, 0)))
    assert not basis.insert(sparse((2, 1, 0, 0)))
    assert basis.dimension == 2
    assert basis.contains(sparse((0, 3, 0, 0)))
    assert not basis.contains(sparse((0, 0, 1, 0)))
    with pytest.raises(DomainError, match=r"position 4 outside \[0, 4\)"):
        basis.insert({4: 1})


def test_basis_insert_matrices():
    basis = RationalBasis(9)
    grew = [basis.insert(sparse(flatten(m))) for m in all_row_monomial(3)]
    assert basis.dimension == 7
    assert sum(grew) == 7
    with pytest.raises(DomainError):
        RationalBasis(4).insert(sparse(flatten(identity(3))))


def test_units_are_the_nonzero_positions_of_flatten():
    for m in all_row_monomial(3):
        assert units(m) == {p: v for p, v in enumerate(flatten(m)) if v}


def test_basis_rejects_positions_outside_ambient():
    basis = RationalBasis(9)
    for row in ({9: 1}, {0: 1, 12: 0}, {-1: 1}):
        with pytest.raises(DomainError, match="outside"):
            basis.insert(row)
        with pytest.raises(DomainError, match="outside"):
            basis.contains(row)
    assert basis.dimension == 0


@pytest.mark.parametrize("ambient", [True, 2.0, 2.5])
def test_basis_refuses_a_non_int_ambient(ambient):
    # Without the type check, 2.5 admits position 2 and True prints
    # as the bound of "outside [0, True)".
    with pytest.raises(DomainError, match="ambient dimension must be an int"):
        RationalBasis(ambient)


def test_basis_leaves_the_callers_row_alone():
    basis = RationalBasis(4)
    assert not basis.insert({0: 0})
    assert basis.dimension == 0
    first = {0: 2, 1: -4, 3: 0}
    assert basis.insert(first)
    assert first == {0: 2, 1: -4, 3: 0}
    second = {0: 3, 1: 1, 2: 5}
    assert basis.insert(second)
    assert second == {0: 3, 1: 1, 2: 5}
    probe = {0: 1, 1: -2}
    assert basis.contains(probe)
    assert probe == {0: 1, 1: -2}
    assert_rows_normalized(basis)


def assert_rows_normalized(basis):
    """Every stored row is primitive, with a positive leading entry at its pivot."""
    for pivot, row in basis._rows.items():
        assert pivot == min(row) and 0 not in row.values()
        assert row[pivot] > 0
        assert gcd(*row.values()) == 1


def oracle_dimensions(vectors):
    """Span dimension after each vector, by a dense Fraction elimination kept here.

    Each kept vector is scaled to have 1 at its pivot, the first nonzero
    column; a new vector is reduced against every kept one in turn.
    """
    kept = []
    dims = []
    for vec in vectors:
        v = [Fraction(x) for x in vec]
        for pivot, row in kept:
            if v[pivot]:
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            kept.append((lead, [x / v[lead] for x in v]))
        dims.append(len(kept))
    return dims


def row_monomial_family(rng, n):
    """Seeded row monomial matrices with repeats, products and swapped pairs among them.

    A swapped pair of m and m2 exchanges the targets of one row, so
    m + m2 - swap(m) = swap(m2) is dependent without being a repeat.
    """
    columns = rng.sample(range(n), rng.randint(1, n))
    family = [RowMonomialMatrix(n, tuple(rng.choice(columns) for _ in range(n)))]
    for _ in range(rng.randint(n, 3 * n)):
        kind = rng.randrange(4)
        if kind == 0:
            family.append(RowMonomialMatrix(n, tuple(rng.randrange(n) for _ in range(n))))
        elif kind == 1:
            family.append(rng.choice(family))
        elif kind == 2:
            family.append(multiply(rng.choice(family), rng.choice(family)))
        else:
            a, b = rng.choice(family).targets, rng.choice(family).targets
            i = rng.randrange(n)
            family.append(RowMonomialMatrix(n, a[:i] + (b[i],) + a[i + 1:]))
            family.append(RowMonomialMatrix(n, b[:i] + (a[i],) + b[i + 1:]))
            family.append(RowMonomialMatrix(n, a))
            family.append(RowMonomialMatrix(n, b))
    return family


@pytest.mark.parametrize("n", range(2, 8))
def test_units_dimensions_against_dense_oracle(n):
    rng = random.Random(f"units-{n}")
    for _ in range(12):
        family = row_monomial_family(rng, n)
        basis = RationalBasis(n * n)
        dims, grew = [], 0
        for m in family:
            grew += basis.insert(units(m))
            dims.append(basis.dimension)
        assert dims == oracle_dimensions([flatten(m) for m in family])
        # span_dimension hands its rows to the basis unchecked; a basis that
        # checks and copies every row must grow on as many members.
        assert dims[-1] == grew == span_dimension(family)
        assert_rows_normalized(basis)
        assert all(basis.contains(units(m)) for m in family)


def test_span_dimension_refuses_mixed_sizes():
    # Worded as express words it: the member's size, then the first's.
    with pytest.raises(DomainError, match="^size mismatch: 2 vs 3$"):
        span_dimension([identity(3), identity(2)])
    with pytest.raises(DomainError, match="^size mismatch: 3 vs 2$"):
        span_dimension([identity(2), identity(3)])
    with pytest.raises(DomainError, match="^size mismatch: 2 vs 3$"):
        span_dimension(iter([identity(3), identity(3), identity(2)]))


def test_rank_against_oracle_on_random_integer_matrices():
    rng = random.Random(5)
    for _ in range(300):
        height = rng.randint(1, 6)
        width = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(height)]
        basis = RationalBasis(width)
        for row in rows:
            basis.insert(sparse(row))
        assert basis.dimension == oracle_rank(rows)


def test_matrix_rank_equals_column_count():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = RowMonomialMatrix(n, tuple(rng.randrange(n) for _ in range(n)))
        assert matrix_rank(m) == rank(m) == oracle_rank(dense_rows(m))
    for n in range(1, 5):
        for m in all_row_monomial(n):
            assert matrix_rank(m) == rank(m)


def dense_rows(m):
    return [list(m.row(i)) for i in range(m.n)]


def test_express_reproduces_target():
    fam = vij_basis(4, 3)
    target = RowMonomialMatrix(4, (0, 2, 1, 2))
    coeffs = express(target, fam)
    assert coeffs is not None
    combo = [Fraction(0)] * 16
    for c, m in zip(coeffs, fam):
        for pos, v in enumerate(flatten(m)):
            combo[pos] += c * v
    assert combo == [Fraction(v) for v in flatten(target)]


def test_express_out_of_span():
    sink = RowMonomialMatrix(3, (0, 0, 0))
    assert express(identity(3), [sink]) is None
    assert express_vectors((0, 0, 0), []) == ()
    assert express_vectors((1, 0, 0), []) is None
    assert express_vectors((), [(), ()]) == (Fraction(0), Fraction(0))


def test_express_sets_free_variables_to_zero():
    m = RowMonomialMatrix(2, (0, 1))
    assert express(m, [m, m]) == (Fraction(1), Fraction(0))


@pytest.mark.parametrize("n", range(2, 6))
def test_express_agrees_with_express_vectors(n):
    # express reads the matrices' units, express_vectors their flattened
    # vectors; both go through one core and must give the same answer on
    # dependent families, on targets outside the span and on no family.
    rng = random.Random(f"express-agree-{n}")
    outcomes = set()
    for _ in range(15):
        family = row_monomial_family(rng, n)[:rng.randint(0, n * n)]
        targets = [RowMonomialMatrix(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(3)]
        if family:
            targets.append(rng.choice(family))
        for target in targets:
            coeffs = express(target, family)
            assert coeffs == express_vectors(flatten(target), [flatten(m) for m in family])
            outcomes.add(coeffs is None)
    assert express(identity(n), []) is None
    assert express_vectors(flatten(identity(n)), []) is None
    assert outcomes == {False, True}


def test_express_size_mismatch(monkeypatch):
    with pytest.raises(DomainError):
        express(identity(3), [identity(2)])

    def no_elimination(*args):
        raise AssertionError("eliminated before the length check")

    monkeypatch.setattr(RationalBasis, "_reduce", no_elimination)
    for columns in ([(1, 0, 0), (1, 0)], [(1, 0, 0), (1, 0, 0), (1, 0)]):
        with pytest.raises(DomainError, match="column length 2 does not match target length 3"):
            express_vectors((1, 0, 0), columns)


def dense_sum(numerators, matrices, n):
    """Sum of c * M over dense n x n grids, every cell multiplied out."""
    total = [[0] * n for _ in range(n)]
    for c, m in zip(numerators, matrices):
        for i, row in enumerate(dense_rows(m)):
            for j, v in enumerate(row):
                total[i][j] += c * v
    return [x for row in total for x in row]


def test_combine_against_dense_sum():
    rng = random.Random(12)
    for n in range(1, 7):
        for _ in range(40):
            count = rng.randint(0, 8)
            matrices = [RowMonomialMatrix(n, tuple(rng.randrange(n) for _ in range(n)))
                        for _ in range(count)]
            numerators = [rng.choice((0, rng.randint(-9, 9), -rng.randint(1, 9)))
                          for _ in range(count)]
            assert combine(numerators, matrices, n) == dense_sum(numerators, matrices, n)
    with pytest.raises(DomainError):
        combine([1], [identity(2)], 3)
    with pytest.raises(DomainError):
        combine([1, 2], [identity(3)], 3)


def test_sum_conditions_good_and_bad():
    m = RowMonomialMatrix(3, (1, 0, 2))
    assert check_sum_conditions((Fraction(1),), [m], m) == ()
    assert check_sum_conditions((Fraction(1), Fraction(-1)), [m, m], None) == ()
    assert check_sum_conditions((Fraction(1, 2),), [m], m) == (
        "coefficient sum 1/2 != 1", "row 0 sums to 1/2 != 1", "row 1 sums to 1/2 != 1",
        "row 2 sums to 1/2 != 1")
    assert check_sum_conditions((Fraction(3),), [m], None) == (
        "coefficient sum 3 != 0", "row 0 sums to 3 != 0", "row 1 sums to 3 != 0", "row 2 sums to 3 != 0")
    assert check_sum_conditions((), [], RowMonomialMatrix(2, (0, 1))) == (
        "coefficient sum 0 != 1", "row 0 sums to 0 != 1", "row 1 sums to 0 != 1")
    assert check_sum_conditions((), [], None) == ()
    with pytest.raises(DomainError):
        check_sum_conditions((Fraction(1),), [], m)


def test_sum_conditions_mixed_denominators():
    fam = [RowMonomialMatrix(3, (0, 1, 2)), RowMonomialMatrix(3, (2, 2, 0)),
           RowMonomialMatrix(3, (1, 0, 1))]
    assert check_sum_conditions((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), fam, fam[0]) == ()
    assert check_sum_conditions((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)), fam, None) == (
        "coefficient sum 7/12 != 0", "row 0 sums to 7/12 != 0", "row 1 sums to 7/12 != 0",
        "row 2 sums to 7/12 != 0")
    assert check_sum_conditions((Fraction(-5, 4), Fraction(2, 3)), fam[:2], fam[0]) == (
        "coefficient sum -7/12 != 1", "row 0 sums to -7/12 != 1", "row 1 sums to -7/12 != 1",
        "row 2 sums to -7/12 != 1")


def test_vij_basis_shapes_frozen():
    fam = vij_basis(3, 2)
    assert [m.targets for m in fam] == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert span_dimension(fam) == 4
    with pytest.raises(DomainError):
        vij_basis(3, 1)
    with pytest.raises(DomainError):
        vij_basis(3, 4)


def test_vij_basis_gives_every_call_its_own_list():
    fam = vij_basis(3, 2)
    first = list(fam)
    fam.insert(1, identity(3))
    fam.append(identity(3))
    del fam[0]
    again = vij_basis(3, 2)
    assert again == first and again is not fam
    assert decompose_vij(RowMonomialMatrix(3, (0, 0, 0)), 2) == (1, 1, 1, -2)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 4), (6, 6)])
def test_vij_basis_rank(n, k):
    fam = vij_basis(n, k)
    assert len(fam) == n * (k - 1) + 1
    assert span_dimension(fam) == n * (k - 1) + 1


def test_vij_leave_one_out():
    fam = vij_basis(4, 3)
    for drop in range(len(fam)):
        assert span_dimension(fam[:drop] + fam[drop + 1:]) == len(fam) - 1


def test_decompose_k_matrix_alone():
    k_matrix = RowMonomialMatrix(3, (1, 1, 1))
    coeffs = decompose_vij(k_matrix, 2)
    assert coeffs == (Fraction(0),) * 3 + (Fraction(1),)


def test_decompose_single_v_matrix():
    fam = vij_basis(3, 2)
    coeffs = decompose_vij(fam[0], 2)
    assert coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_decompose_counts_off_column_units():
    t = RowMonomialMatrix(3, (0, 0, 0))
    coeffs = decompose_vij(t, 2)
    assert coeffs == (Fraction(1), Fraction(1), Fraction(1), Fraction(-2))


def test_decompose_matches_express_exhaustively():
    for n, k in ((3, 2), (3, 3), (4, 3)):
        fam = vij_basis(n, k)
        for t in all_row_monomial(n, columns=tuple(range(k))):
            assert decompose_vij(t, k) == express(t, fam)


def test_decompose_rejects_unit_outside_first_columns():
    with pytest.raises(DomainError):
        decompose_vij(RowMonomialMatrix(3, (0, 2, 0)), 2)
    with pytest.raises(DomainError):
        decompose_vij(identity(3), 1)


def test_full_span_dimensions():
    assert span_dimension(all_row_monomial(2)) == 3
    assert span_dimension(all_row_monomial(3)) == 7
    assert span_dimension(all_row_monomial(4)) == 13


def test_all_row_monomial_checks_columns_when_called():
    with pytest.raises(DomainError) as err:
        all_row_monomial(2, columns=(0, 2))
    assert str(err.value) == "column 2 outside [0, 2)"
    assert [m.targets for m in all_row_monomial(2, columns=(1,))] == [(1, 1)]


def test_column_family_dimensions_frozen():
    assert [two_column_span_dimension(n, 0, 1) for n in (3, 4, 5)] == [4, 5, 6]
    assert two_column_span_dimension(4, 1, 3) == 5
    assert [sink_family_dimension(n) for n in (3, 4, 5)] == [3, 4, 5]
    assert [common_column_span_dimension(n, 0) for n in (3, 4)] == [7, 13]
    with pytest.raises(DomainError):
        two_column_span_dimension(3, 1, 1)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_basis_against_oracle(rows):
    basis = RationalBasis(5)
    for row in rows:
        basis.insert(sparse(row))
    assert basis.dimension == oracle_rank(rows)
    for row in rows:
        assert basis.contains(sparse(row))
    assert basis.dimension <= 5


@given(st.integers(2, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_insert_is_idempotent(n, data):
    targets = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
    m = RowMonomialMatrix(n, targets)
    basis = RationalBasis(n * n)
    assert basis.insert(sparse(flatten(m)))
    assert not basis.insert(sparse(flatten(m)))
    assert basis.dimension == 1


# About 80% zeros, the rest in -3..3, like the few units of a flattened row
# monomial matrix among its n*n slots but with room for cancellation.
SPARSE_ENTRY = st.sampled_from((0,) * 24 + (-3, -2, -1, 1, 2, 3))


@st.composite
def sparse_rows(draw):
    width = draw(st.integers(16, 49))
    row = st.lists(SPARSE_ENTRY, min_size=width, max_size=width)
    return width, draw(st.lists(row, min_size=1, max_size=40))


@given(sparse_rows())
@settings(max_examples=40, deadline=None)
def test_sparse_basis_against_oracle(case):
    width, rows = case
    basis = RationalBasis(width)
    before = 0
    for i, row in enumerate(rows, start=1):
        want = oracle_rank(rows[:i])
        grew = basis.insert(sparse(row))
        assert grew == (want > before)
        assert basis.dimension == want
        before = want
    assert all(basis.contains(sparse(row)) for row in rows)
    assert_rows_normalized(basis)


def call_eliminate(v, row, pivot):
    """One elimination step as a function of its own: the kernel as it stood
    before RationalBasis._reduce ran its steps inline."""
    c = v[pivot]
    lead = row[pivot]
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


def call_reduce(basis, v):
    """basis's reduction of v, one call_eliminate per pivot v holds."""
    for pivot in basis._pivots:
        if not v:
            break
        if pivot in v:
            v = call_eliminate(v, basis._rows[pivot], pivot)
    return v


class CallBasis(RationalBasis):
    """A RationalBasis whose every reduction goes through call_reduce."""

    def _reduce(self, v):
        return call_reduce(self, v)


def assert_same_echelon(rows, ambient):
    """Inserting rows gives the same residues, insert results, pivots and
    stored rows in RationalBasis as in CallBasis."""
    basis, oracle = RationalBasis(ambient), CallBasis(ambient)
    for row in rows:
        assert basis._reduce(basis._copy(row)) == call_reduce(oracle, {p: x for p, x in row.items() if x}), row
        assert basis.insert(row) == oracle.insert(row), row
        assert basis._pivots == oracle._pivots
    assert basis._rows == oracle._rows
    return basis.dimension


def prefix_rows(dfa, word):
    """The unit rows of the prefix matrices of word, shortest first."""
    targets, rows = range(dfa.n), []
    for a in word:
        targets = [dfa.delta[a][t] for t in targets]
        rows.append({r * dfa.n + t: 1 for r, t in enumerate(targets)})
    return rows


def test_inline_reduce_against_call_reduce_on_prefix_families():
    rng = random.Random(29)
    dfas = [*map(cerny_automaton, range(2, 25))]
    dfas += [random_dfa(n, k, seed=100 * n + k) for n in range(13, 25) for k in (2, 3)]
    grown = 0
    for dfa in dfas:
        word = shortest_reset_word(dfa) or [rng.randrange(dfa.k) for _ in range(3 * dfa.n)]
        grown += assert_same_echelon(prefix_rows(dfa, word), dfa.n * dfa.n)
    assert grown > 0


def test_inline_reduce_against_call_reduce_on_integer_rows():
    # Leads other than 1 and negative leads, explicit zeros and empty rows.
    rng = random.Random(2029)
    for _ in range(300):
        width = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(1, 2 * width)):
            size = rng.randint(0, width)
            rows.append({p: rng.choice((-6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 9))
                         for p in rng.sample(range(width), size)})
        assert_same_echelon(rows, width)


def test_express_vectors_reductions_against_call_reduce(monkeypatch):
    inline = RationalBasis._reduce
    checked = []

    def shadow(self, v):
        want = call_reduce(self, dict(v))
        got = inline(self, v)
        assert got == want
        checked.append(got)
        return want

    rng = random.Random(4029)
    cases = []
    for _ in range(300):
        height, m = rng.randint(1, 7), rng.randint(0, 6)
        columns = [[rng.randint(-3, 3) for _ in range(height)] for _ in range(m)]
        if columns and rng.random() < 0.5:
            target = [sum(rng.randint(-2, 2) * col[r] for col in columns) for r in range(height)]
        else:
            target = [rng.randint(-3, 3) for _ in range(height)]
        cases.append((target, columns))
    want = [express_vectors(t, cols) for t, cols in cases]
    monkeypatch.setattr(RationalBasis, "_reduce", shadow)
    assert [express_vectors(t, cols) for t, cols in cases] == want
    assert len(checked) == sum(len(cols) + 1 for _, cols in cases)
    assert any(x is not None for x in want) and any(x is None for x in want)
