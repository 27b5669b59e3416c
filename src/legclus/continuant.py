"""Continuant polynomials and their 2x2 matrix model.

The continuants are defined by the recursion

    K_n(x1, ..., xn) = x1 * K_{n-1}(x2, ..., xn) - K_{n-2}(x3, ..., xn)

with K_0 = 1 and K_1(x1) = x1.  We additionally set K_{-1} = 0 so that both
this recursion and the mirrored one hold uniformly at the boundary.  The
(1,1) entry of B(x1)...B(xn) with B(x) = [[x, -1], [1, 0]] recovers K_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .ring import Coefficients, LaurentPolynomial, VariableTable

Entry = Union[LaurentPolynomial, int]


def _as_poly(x: Entry, table: VariableTable, ring: Coefficients) -> LaurentPolynomial:
    if isinstance(x, LaurentPolynomial):
        return x
    return LaurentPolynomial.constant(table, ring, x)


def continuant(
    entries: Sequence[Entry],
    table: VariableTable | None = None,
    ring: Coefficients | None = None,
) -> LaurentPolynomial:
    """K_n of the given entries (variables or scalars).

    For an empty list the result is the constant 1; ``table`` and ``ring``
    are then required unless at least one entry is a polynomial.  Results
    for all-variable inputs are memoized on the table.
    """
    for x in entries:
        if isinstance(x, LaurentPolynomial):
            table, ring = x.table, x.ring
            break
    if table is None or ring is None:
        raise ValueError("continuant of scalars needs an explicit table and ring")

    names = []
    for x in entries:
        name = x.variable_name() if isinstance(x, LaurentPolynomial) else None
        if name is not None:
            names.append(name)
            continue
        names = None
        break

    cache = table.continuant_cache if names is not None else None
    key = (ring, tuple(names)) if names is not None else None
    if cache is not None and key in cache:
        return cache[key]

    polys = [_as_poly(x, table, ring) for x in entries]
    result = _continuant_rec(polys, 0, table, ring, {})
    if cache is not None:
        cache[key] = result
    return result


def _continuant_rec(
    polys: list[LaurentPolynomial],
    start: int,
    table: VariableTable,
    ring: Coefficients,
    memo: dict,
) -> LaurentPolynomial:
    if start in memo:
        return memo[start]
    n = len(polys) - start
    if n == 0:
        r = LaurentPolynomial.constant(table, ring, 1)
    elif n == 1:
        r = polys[start]
    else:
        r = polys[start] * _continuant_rec(polys, start + 1, table, ring, memo) - _continuant_rec(
            polys, start + 2, table, ring, memo
        )
    memo[start] = r
    return r


def continuant_int(values: Sequence[int]) -> int:
    """Integer continuant, by the same recursion."""
    prev, cur = 0, 1  # K_{-1}, K_0 of the reversed tail
    for x in reversed(values):
        prev, cur = cur, x * cur - prev
    return cur


@dataclass(frozen=True)
class BMatrix:
    """A 2x2 matrix of Laurent polynomials; products of generator matrices
    B(x) and D(p) all have determinant 1."""

    a: LaurentPolynomial
    b: LaurentPolynomial
    c: LaurentPolynomial
    d: LaurentPolynomial

    def __matmul__(self, other: "BMatrix") -> "BMatrix":
        return BMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> LaurentPolynomial:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls, table: VariableTable, ring: Coefficients) -> "BMatrix":
        one = LaurentPolynomial.constant(table, ring, 1)
        zero = LaurentPolynomial.zero(table, ring)
        return cls(one, zero, zero, one)

    @classmethod
    def twist(cls, x: LaurentPolynomial) -> "BMatrix":
        """B(x) = [[x, -1], [1, 0]]."""
        table, ring = x.table, x.ring
        one = LaurentPolynomial.constant(table, ring, 1)
        zero = LaurentPolynomial.zero(table, ring)
        return cls(x, -one, one, zero)

    @classmethod
    def scaling(cls, p: LaurentPolynomial) -> "BMatrix":
        """D(p) = [[p, 0], [0, p^-1]]; p must be a unit."""
        table, ring = p.table, p.ring
        zero = LaurentPolynomial.zero(table, ring)
        return cls(p, zero, zero, p.invert_unit())


def braid_matrix_product(
    entries: Sequence[Entry],
    params: Sequence[LaurentPolynomial] | None = None,
    table: VariableTable | None = None,
    ring: Coefficients | None = None,
) -> BMatrix:
    """B(x1)D(p1)...B(xn)D(pn), or the plain product B(x1)...B(xn).

    Without parameters the entries are::

        [[ K_n(x1..xn),    -K_{n-1}(x1..x_{n-1}) ],
         [ K_{n-1}(x2..xn), -K_{n-2}(x2..x_{n-1}) ]]
    """
    for x in entries:
        if isinstance(x, LaurentPolynomial):
            table, ring = x.table, x.ring
            break
    if table is None or ring is None:
        if params:
            table, ring = params[0].table, params[0].ring
        else:
            raise ValueError("braid matrix product of scalars needs a table and ring")
    if params is not None and len(params) != len(entries):
        raise ValueError("parameter list length must match entry list length")

    m = BMatrix.identity(table, ring)
    for i, x in enumerate(entries):
        m = m @ BMatrix.twist(_as_poly(x, table, ring))
        if params is not None:
            m = m @ BMatrix.scaling(params[i])
    return m


def check_determinant_identity(n: int) -> bool:
    """Verify K_{n-1}(x1..x_{n-1}) K_{n-1}(x2..xn) - K_n(x1..xn) K_{n-2}(x2..x_{n-1}) = 1
    as an exact polynomial identity over the integers."""
    if n < 1:
        raise ValueError("n must be positive")
    table = VariableTable([f"x{i}" for i in range(1, n + 1)])
    ring = Coefficients.integers()
    xs = [LaurentPolynomial.variable(table, ring, f"x{i}") for i in range(1, n + 1)]
    if n == 1:
        inner = LaurentPolynomial.zero(table, ring)  # K_{-1} = 0 by convention
    else:
        inner = continuant(xs[1:-1], table, ring)
    lhs = continuant(xs[:-1], table, ring) * continuant(xs[1:], table, ring) - continuant(
        xs, table, ring
    ) * inner
    return lhs == LaurentPolynomial.constant(table, ring, 1)
