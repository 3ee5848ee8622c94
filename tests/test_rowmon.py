"""Row monomial matrices: construction, products, ranks.

Products are cross-checked against a dense 0/1 matrix multiplication that
does not know about the target-sequence representation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsync.automaton import Dfa, cerny_automaton, random_dfa
from rowsync.errors import DomainError
from rowsync.rowmon import (RowMonomialMatrix, column_rows, column_unit_counts, identity,
                            is_permutation, matrix_of_word, multiply, nonzero_columns, rank)
from test_automaton import image


def dense(m):
    return [[1 if m.targets[i] == j else 0 for j in range(m.n)] for i in range(m.n)]


def dense_product(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def test_validation():
    with pytest.raises(DomainError):
        RowMonomialMatrix(2, (0,))
    with pytest.raises(DomainError):
        RowMonomialMatrix(2, (0, 2))
    m = RowMonomialMatrix(2, [1, 0])
    assert m.targets == (1, 0)


@pytest.mark.parametrize("n,targets,message", [
    (3, (0, 1.0, 2), "targets[1] = 1.0 outside [0, 3)"),
    (3, (0, -1, 2), "targets[1] = -1 outside [0, 3)"),
    (3, (0, 1, 3), "targets[2] = 3 outside [0, 3)"),
    (3, (None, 1, 2), "targets[0] = None outside [0, 3)"),
    (3, (0, "1", 2), "targets[1] = '1' outside [0, 3)"),
    (2, (True, 5), "targets[0] = True outside [0, 2)"),
    (2, [1.5, 7], "targets[0] = 1.5 outside [0, 2)"),
    (3, (0, 1), "need 3 row targets, got 2"),
    (3, (0, 1, 2, 0), "need 3 row targets, got 4"),
    (True, (0,), "size must be an int, got True"),
    (2.0, (0, 1), "size must be an int, got 2.0"),
], ids=["float", "negative", "out-of-range", "none", "string", "bool-beside-bad", "first-bad-named",
        "short", "long", "bool-size", "float-size"])
def test_validation_messages(n, targets, message):
    with pytest.raises(DomainError) as err:
        RowMonomialMatrix(n, targets)
    assert str(err.value) == message


def test_validation_rejects_bools():
    # bool is a subclass of int, so an isinstance test would let these through.
    for targets, message in (([True, False], "targets[0] = True outside [0, 2)"),
                             ((2, True, 0), "targets[1] = True outside [0, 3)")):
        with pytest.raises(DomainError) as err:
            RowMonomialMatrix(len(targets), targets)
        assert str(err.value) == message


def test_identity_is_empty_word():
    d = cerny_automaton(4)
    assert matrix_of_word(d, ()) == identity(4)
    assert identity(3).targets == (0, 1, 2)


def test_letter_matrices_frozen():
    d = cerny_automaton(4)
    assert matrix_of_word(d, (0,)).targets == (1, 2, 3, 0)
    assert matrix_of_word(d, (1,)).targets == (1, 1, 2, 3)
    assert matrix_of_word(d, (0, 1)).targets == (1, 2, 3, 1)


def test_product_matches_concatenation():
    d = cerny_automaton(4)
    u, v = (1, 0, 0), (0, 1)
    assert multiply(matrix_of_word(d, u), matrix_of_word(d, v)) == matrix_of_word(d, u + v)


def test_product_against_dense_oracle():
    for seed in range(30):
        d = random_dfa(5, 2, seed=seed)
        a = matrix_of_word(d, (0, 1, 0))
        b = matrix_of_word(d, (1, 1))
        assert dense(multiply(a, b)) == dense_product(dense(a), dense(b))


def test_product_size_mismatch():
    with pytest.raises(DomainError):
        multiply(identity(2), identity(3))


def test_nonzero_columns_is_image_of_full_set():
    d = cerny_automaton(5)
    for word in ((), (1,), (1, 0), (1, 0, 0, 1), (0, 0, 1, 1, 0)):
        m = matrix_of_word(d, word)
        assert nonzero_columns(m) == image(d, range(5), word)


def test_rank_counts_columns():
    m = RowMonomialMatrix(4, (2, 2, 1, 2))
    assert rank(m) == 2
    assert nonzero_columns(m) == frozenset({1, 2})
    assert rank(identity(4)) == 4


def test_rank_one_exactly_for_reset_words():
    d = cerny_automaton(3)
    assert rank(matrix_of_word(d, (1, 0, 0, 1))) == 1
    assert rank(matrix_of_word(d, (1, 0))) == 2


def test_permutation_detection():
    assert is_permutation(identity(3))
    assert is_permutation(RowMonomialMatrix(3, (1, 2, 0)))
    assert not is_permutation(RowMonomialMatrix(3, (1, 1, 0)))


def test_column_rows_and_counts():
    m = RowMonomialMatrix(4, (2, 2, 1, 2))
    assert column_rows(m, 2) == (0, 1, 3)
    assert column_rows(m, 0) == ()
    assert column_unit_counts(m) == (0, 1, 3, 0)
    with pytest.raises(DomainError):
        column_rows(m, 4)


def test_renderings():
    m = RowMonomialMatrix(3, (1, 0, 2))
    assert m.render_grid() == "0 1 0\n1 0 0\n0 0 1"
    assert m.compact() == "[1 0 2]"


@st.composite
def dfa_and_words(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(k))
    u = tuple(draw(st.lists(st.integers(0, k - 1), max_size=10)))
    v = tuple(draw(st.lists(st.integers(0, k - 1), max_size=10)))
    return Dfa(n=n, k=k, delta=delta), u, v


@given(dfa_and_words())
@settings(max_examples=300, deadline=None)
def test_matrix_of_concatenation_is_product(case):
    dfa, u, v = case
    m_u, m_v = matrix_of_word(dfa, u), matrix_of_word(dfa, v)
    m_uv = matrix_of_word(dfa, u + v)
    assert multiply(m_u, m_v) == m_uv
    assert dense(m_uv) == dense_product(dense(m_u), dense(m_v))
    assert rank(m_uv) <= rank(m_u)
    assert nonzero_columns(m_uv) <= nonzero_columns(m_v)
    assert sum(column_unit_counts(m_u)) == dfa.n


@given(dfa_and_words())
@settings(max_examples=200, deadline=None)
def test_permutation_factors_preserve_structure(case):
    dfa, u, v = case
    m_u, m_v = matrix_of_word(dfa, u), matrix_of_word(dfa, v)
    if is_permutation(m_u):
        assert column_unit_counts(multiply(m_u, m_v)) == column_unit_counts(m_v)
        assert nonzero_columns(multiply(m_u, m_v)) == nonzero_columns(m_v)
    if is_permutation(m_v):
        assert rank(multiply(m_u, m_v)) == rank(m_u)
