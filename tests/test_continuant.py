import math
import random

from legclus.continuant import (
    BMatrix,
    braid_matrix_product,
    check_determinant_identity,
    continuant,
    continuant_int,
)
from legclus.ring import Coefficients, LaurentPolynomial, VariableTable

Z = Coefficients.integers()


def xvars(n):
    table = VariableTable([f"x{i}" for i in range(1, n + 1)])
    return table, [LaurentPolynomial.variable(table, Z, f"x{i}") for i in range(1, n + 1)]


def test_empty_continuant_is_one():
    table, _ = xvars(1)
    assert continuant([], table, Z) == LaurentPolynomial.constant(table, Z, 1)


def test_k2():
    table, xs = xvars(2)
    assert continuant(xs) == xs[0] * xs[1] - 1


def test_all_ones_k5_vanishes():
    assert continuant_int([1, 1, 1, 1, 1]) == 0
    assert continuant_int([1, 1]) == 0
    assert continuant_int([1, 1, 1]) == -1
    assert continuant_int([1, 1, 1, 1]) == -1


def test_braid_matrix_numeric():
    table, _ = xvars(1)
    m = braid_matrix_product([2, 3], table=table, ring=Z)
    vals = [[5, -2], [3, -1]]
    for (r, c), v in zip(
        [(0, 0), (0, 1), (1, 0), (1, 1)], [m.a, m.b, m.c, m.d]
    ):
        assert v == LaurentPolynomial.constant(table, Z, vals[r][c])
    assert continuant_int([2, 3]) == 5


def test_braid_matrix_single():
    table, xs = xvars(1)
    m = braid_matrix_product(xs)
    assert m.a == xs[0]
    assert m.b == LaurentPolynomial.constant(table, Z, -1)
    assert m.c == LaurentPolynomial.constant(table, Z, 1)
    assert m.d.is_zero


def test_braid_matrix_entry_is_continuant():
    table, xs = xvars(3)
    m = braid_matrix_product(xs)
    assert m.a == continuant(xs)


def test_matrix_model_matches_continuant_table():
    for n in range(1, 9):
        table, xs = xvars(n)
        m = braid_matrix_product(xs)
        assert m.a == continuant(xs, table, Z)
        assert m.b == -continuant(xs[:-1], table, Z)
        assert m.c == continuant(xs[1:], table, Z)
        if n >= 2:
            assert m.d == -continuant(xs[1:-1], table, Z)


def test_determinant_identity():
    for n in range(1, 9):
        assert check_determinant_identity(n)


def test_alternative_recursion():
    for n in range(2, 9):
        table, xs = xvars(n)
        lhs = continuant(xs, table, Z)
        rhs = continuant(xs[:-1], table, Z) * xs[-1] - continuant(xs[:-2], table, Z)
        assert lhs == rhs


def test_palindrome_symmetry():
    for n in range(1, 9):
        table, xs = xvars(n)
        assert continuant(xs, table, Z) == continuant(list(reversed(xs)), table, Z)


def test_coprimality_random_tuples():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 7)
        values = [rng.randint(1, 9) for _ in range(n)]
        kn = continuant_int(values)
        left = continuant_int(values[:-1])
        right = continuant_int(values[1:])
        assert math.gcd(kn, left) == 1
        assert math.gcd(kn, right) == 1


def test_identity_matrix():
    table, _ = xvars(1)
    m = BMatrix.identity(table, Z)
    assert m.det() == LaurentPolynomial.constant(table, Z, 1)
