import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetop.intmat import IntMatrix, kernel_basis, smith_normal_form, solve
from oracles import determinant, determinantal_divisors, random_matrix, rational_rank


def assert_normal_form(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = d.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
    return diag


def test_matrix_construction():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert IntMatrix.zeros(2, 3).entries == ((0, 0, 0), (0, 0, 0))
    assert IntMatrix.identity(2) @ m == m
    assert m.transpose().transpose() == m
    assert m.column(1) == (2, 4)
    assert m.apply((1, 0)) == (1, 3)
    assert m - m == IntMatrix.zeros(2, 2)
    assert m.hstack(m).cols == 4
    assert IntMatrix.from_columns([(1, 2), (3, 4)], rows=2).entries == ((1, 3), (2, 4))


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1]]) @ IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntMatrix([[1]]).hstack(IntMatrix([[1], [2]]))
    with pytest.raises(ValueError):
        IntMatrix([[1]]).apply((1, 2))


def test_empty_shapes_need_explicit_counts():
    z = IntMatrix.zeros(0, 3)
    assert z.rows == 0 and z.cols == 3
    assert z.transpose().rows == 3
    assert IntMatrix.from_columns([], rows=2).cols == 0


def test_known_normal_form():
    d = assert_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert d == (1, 6)


def test_normal_form_of_zero_and_identity():
    assert assert_normal_form(IntMatrix.zeros(3, 2)) == (0, 0)
    assert assert_normal_form(IntMatrix.identity(3)) == (1, 1, 1)


def test_normal_form_rank_two_fixture():
    # gcd of entries 1, gcd of 2x2 minors 3, determinant 0
    d = assert_normal_form(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert d == (1, 3, 0)


def test_normal_form_random():
    rng = random.Random(500)
    for _ in range(500):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        diag = assert_normal_form(m)
        assert sum(1 for x in diag if x != 0) == rational_rank(m)


def test_solve_consistent_systems():
    rng = random.Random(501)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = tuple(rng.randint(-4, 4) for _ in range(m.cols))
        b = m.apply(x)
        y = solve(m, b)
        assert y is not None
        assert m.apply(y) == b


def test_solve_detects_unsolvable():
    assert solve(IntMatrix([[2]]), (1,)) is None
    assert solve(IntMatrix([[1], [1]]), (0, 1)) is None
    assert solve(IntMatrix([[2, 0], [0, 1]]), (3, 5)) is None


def test_solve_matrix_rhs():
    # stacked right-hand sides are solved one column at a time
    m = IntMatrix([[1, 0], [0, 2]])
    rhs = IntMatrix([[1, 0], [4, 2]])
    xs = [solve(m, rhs.column(j)) for j in range(rhs.cols)]
    assert xs == [(1, 2), (0, 1)]
    assert m @ IntMatrix.from_columns(xs, rows=m.cols) == rhs
    unsolvable = IntMatrix([[1, 0], [1, 2]])
    assert [solve(m, unsolvable.column(j)) for j in range(2)] == [None, (0, 1)]


def test_kernel_basis():
    rng = random.Random(502)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        assert k.rows == m.cols
        assert k.cols == m.cols - rational_rank(m)
        if k.cols:
            assert m @ k == IntMatrix.zeros(m.rows, k.cols)
        # the generated subgroup is saturated: solve succeeds on each member
        for j in range(k.cols):
            assert solve(m, m.apply(k.column(j))) is not None


def test_normal_form_is_computed_once_per_matrix():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    first = smith_normal_form(m)
    again = smith_normal_form(m)
    assert again is first
    assert all(x is y for x, y in zip(again, first))
    # an equal matrix built separately factors to the same result
    assert smith_normal_form(IntMatrix(m.entries)) == first


def test_solve_matrix_rhs_with_unsolvable_second_column():
    m = IntMatrix([[2, 0], [0, 3]])
    rhs = IntMatrix([[2, 1], [3, 0]])
    assert solve(m, rhs.column(0)) == (1, 1)
    assert solve(m, rhs.column(1)) is None


def test_solve_without_unknowns():
    # a matrix without columns, the relations of a free group: only zero solves
    m = IntMatrix.zeros(2, 0)
    assert solve(m, (0, 0)) == ()
    assert solve(m, (0, 1)) is None


def test_self_check_rejects_inconsistent_transforms(monkeypatch):
    m = IntMatrix([[2, 1], [0, 3]])
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda a, b: IntMatrix.zeros(a.rows, b.cols))
    with pytest.raises(AssertionError):
        smith_normal_form(m)
    monkeypatch.undo()
    # the failed factorisation was not kept
    assert_normal_form(m)


def test_constructor_checks_outside_data():
    m = IntMatrix([[1, 2], [3, -4]])
    assert m.entries == ((1, 2), (3, -4))
    assert IntMatrix.from_columns([(1,), (2,)], rows=1).entries == ((1, 2),)
    # an entry that is not an integer is refused, not truncated or parsed
    for bad in (1.9, 2.0, "7", True, None):
        with pytest.raises(ValueError) as err:
            IntMatrix([[1, bad]])
        assert str(err.value) == f"matrix entry {bad!r} is not an integer"
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1,), (bad,)], rows=1)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], rows=2)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3, 4]], cols=3)
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2), (3,)], rows=2)
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2, 3)], rows=2)


@st.composite
def small_matrices(draw):
    """Matrices up to 4 x 4, empty shapes included, of small or unit entries."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = draw(st.sampled_from([st.integers(-1, 1), st.integers(0, 1),
                                  st.integers(-9, 9)]))
    return IntMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)],
                     rows, cols)


@settings(max_examples=300, deadline=None)
@given(m=small_matrices())
def test_normal_form_diagonal_is_the_determinantal_divisors(m):
    u, d, v = smith_normal_form(m)
    diag = determinantal_divisors(m)
    assert d == IntMatrix([[diag[i] if i == j else 0 for j in range(m.cols)]
                           for i in range(m.rows)], m.rows, m.cols)
    assert abs(determinant(u)) == abs(determinant(v)) == 1
    assert (u @ m) @ v == d


def test_determinantal_divisors_of_known_matrices():
    assert determinantal_divisors(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert determinantal_divisors(
        IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == (1, 3, 0)
    assert determinantal_divisors(IntMatrix([[0, 0], [0, 0]])) == (0, 0)
    assert determinantal_divisors(IntMatrix([[2, 4, 4]])) == (2,)
    assert determinantal_divisors(IntMatrix.zeros(0, 3)) == ()


def transform_corpus():
    """300 seeded matrices of shapes up to 6 x 6: 200 with entries in
    -3..3, then 100 of zeros and ones."""
    rng = random.Random("snf transforms")
    for k in range(300):
        low, high = (-3, 3) if k < 200 else (0, 1)
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        yield IntMatrix([[rng.randint(low, high) for _ in range(cols)]
                         for _ in range(rows)], rows, cols)


def test_normal_form_transforms_are_pinned():
    # U and V are not unique; `ktheory snf` prints them and the kernel
    # generator witnesses of exactness reports come from V, so a faster
    # elimination must still pick the same pivots in the same order
    digest = hashlib.sha256()
    for m in transform_corpus():
        digest.update(repr(tuple(t.entries for t in smith_normal_form(m))).encode())
    assert digest.hexdigest() == (
        "769d4d14ec873f40796ea1dcfae53178b87c616ae219dc2091ac8e40ac538dca")
