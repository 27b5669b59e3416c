"""Continuant polynomials and their 2x2 matrix model.

The continuants are defined by the recursion

    K_n(x1, ..., xn) = x1 * K_{n-1}(x2, ..., xn) - K_{n-2}(x3, ..., xn)

with K_0 = 1 and K_1(x1) = x1.  We additionally set K_{-1} = 0 so that both
this recursion and the mirrored one hold uniformly at the boundary.  The
(1,1) entry of B(x1)...B(xn) with B(x) = [[x, -1], [1, 0]] recovers K_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

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
    """K_n of the given entries (variables or scalars), by one back-to-front
    fold of the defining recursion.

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
        if name is None:
            names = None
            break
        names.append(name)

    key = (ring, tuple(names)) if names is not None else None
    if key in table.continuant_cache:
        return table.continuant_cache[key]

    result = LaurentPolynomial.constant(table, ring, 1)
    if entries:
        # from K_0 = 1 and K_1 = the last entry, so no product by 1
        prev, result = result, _as_poly(entries[-1], table, ring)
        # in characteristic 2, -prev = prev: the sum skips the negation pass
        plus = ring.char == 2
        for x in reversed(entries[:-1]):
            step = _as_poly(x, table, ring) * result
            prev, result = result, step + prev if plus else step - prev
    if key is not None:
        table.continuant_cache[key] = result
    return result


def continuant_int(values: Iterable[int], p: int | None = None) -> int:
    """Integer continuant by the same recursion, reduced mod p when p is
    given.  A continuant reads the same backwards, so the fold runs front
    to back over any iterable."""
    prev, cur = 0, 1  # K_{-1}, K_0
    if p is None:
        for x in values:
            prev, cur = cur, x * cur - prev
    else:
        for x in values:
            prev, cur = cur, (x * cur - prev) % p
    return cur


def continuant_prefixes(values: Iterable[int], p: int) -> Iterator[int]:
    """K_1, K_2, ... of the growing prefixes of ``values``, mod p."""
    prev, cur = 0, 1
    for x in values:
        prev, cur = cur, (x * cur - prev) % p
        yield cur


class BlockContinuants:
    """The window continuants of one block's chords c_1 .. c_n,

        K   = K_n(c_1 .. c_n)          K_M = K_{n-2}(c_2 .. c_{n-1})
        K_L = K_{n-1}(c_1 .. c_{n-1})  K_R = K_{n-1}(c_2 .. c_n)

    each taken by ``window`` (a chord list -> the continuant of its
    entries, in any ring) on first use.  A one-crossing block has
    K_M = K_{-1} = ``zero``: the slice [1:-1] would give K_0 = 1 instead.
    """

    def __init__(
        self, chords: Sequence[int], window: Callable[[Sequence[int]], Any], zero: Any
    ) -> None:
        self.chords = chords
        self.window = window
        self.zero = zero

    @cached_property
    def K(self) -> Any:
        return self.window(self.chords)

    @cached_property
    def K_L(self) -> Any:
        return self.window(self.chords[:-1])

    @cached_property
    def K_M(self) -> Any:
        return self.window(self.chords[1:-1]) if len(self.chords) > 1 else self.zero

    @cached_property
    def K_R(self) -> Any:
        return self.window(self.chords[1:])


@dataclass(frozen=True)
class BMatrix:
    """A 2x2 matrix of Laurent polynomials; products of the generator
    matrices B(x) all have determinant 1."""

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


def braid_matrix_product(
    entries: Sequence[Entry],
    table: VariableTable | None = None,
    ring: Coefficients | None = None,
) -> BMatrix:
    """The product B(x1)...B(xn), whose entries are::

        [[ K_n(x1..xn),    -K_{n-1}(x1..x_{n-1}) ],
         [ K_{n-1}(x2..xn), -K_{n-2}(x2..x_{n-1}) ]]

    ``table`` and ``ring`` are required unless at least one entry is a
    polynomial.
    """
    for x in entries:
        if isinstance(x, LaurentPolynomial):
            table, ring = x.table, x.ring
            break
    if table is None or ring is None:
        raise ValueError("braid matrix product of scalars needs a table and ring")

    m = BMatrix.identity(table, ring)
    for x in entries:
        m = m @ BMatrix.twist(_as_poly(x, table, ring))
    return m


def check_determinant_identity(n: int) -> bool:
    """Verify K_L K_R - K K_M = 1 for the windows of x1..xn, that is
    K_{n-1}(x1..x_{n-1}) K_{n-1}(x2..xn) - K_n(x1..xn) K_{n-2}(x2..x_{n-1}) = 1,
    as an exact polynomial identity over the integers."""
    if n < 1:
        raise ValueError("n must be positive")
    table = VariableTable([f"x{i}" for i in range(1, n + 1)])
    ring = Coefficients.integers()
    xs = [LaurentPolynomial.variable(table, ring, f"x{i}") for i in range(1, n + 1)]

    def window(idx: Sequence[int]) -> LaurentPolynomial:
        return continuant([xs[i] for i in idx], table, ring)

    w = BlockContinuants(range(n), window, LaurentPolynomial.zero(table, ring))
    return w.K_L * w.K_R - w.K * w.K_M == LaurentPolynomial.constant(table, ring, 1)
