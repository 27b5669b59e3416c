"""Exact sparse multivariate Laurent polynomial arithmetic.

Coefficients live in the integers or in a prime field F_p.  A polynomial
maps monomials over a shared :class:`VariableTable` to nonzero
coefficients.  Negative exponents are permitted only at variables flagged
invertible (base points, frozen units), never at ordinary crossing
variables.

Example (table ``a1, a2`` with neither invertible)::

    a1*a2 - 1   ->   terms {(1, 1): 1, (0, 0): -1}

Packed monomials.  Each monomial is stored as one Python int.  Over a
table of n variables, variable i owns the 16-bit field at bit offset
16*(n-1-i), so variable 0 takes the most significant field.  The field of
an invertible variable holds its exponent plus a bias of 2^15; the field of
any other variable holds its exponent, which is never negative, so a key is
no longer than its first occurring ordinary variable needs.  The table's
``bias`` (BIAS below) has 2^15 in the fields of the invertible variables
and is the packed constant monomial.

- Order: comparing two packed ints compares their exponent tuples
  lexicographically in table order.  Printing (highest monomial first) and
  the leading terms of :func:`exact_divide` sort the ints directly.
- Products: the monomial product is ``k1 + k2 - BIAS``.  While every field
  stays in range no carry crosses a field boundary, so this is exact.
  Over F_2 the product kernel toggles membership in a set of packed ints;
  over Z and F_p it accumulates a ``dict[int, int]``.
- Decoding: fields are byte-aligned, so one ``int.to_bytes`` and one
  ``struct.unpack`` turn a key back into its exponent tuple (XOR with
  ``BIAS`` makes every field a two's-complement 16-bit integer).
- Overflow: exponents must satisfy ``|e| <= EXP_LIMIT = 2^15 - 1``.  Each
  polynomial keeps a range ``[lo, hi]`` holding every exponent of every
  term: exact for polynomials built from terms, the union of the operands'
  ranges for a sum and the sums of their ends for a product, so after a
  cancellation, or with extremes at different variables, it can be wider
  than the true range.  A product checks this range first, at O(1) cost.
  Only if it leaves ``[-EXP_LIMIT, EXP_LIMIT]`` does the product compute
  the exact range of each variable from the operands' terms (exact because
  the coefficients form an integral domain), and it raises
  :class:`AlgebraError` if that range leaves the field range too.  So a
  product, power or substitution raises exactly when its result does not
  fit, and no field ever wraps into its neighbour.  :func:`exact_divide`
  works in 32-bit fields and raises only when the quotient does not fit.

The ``terms`` attribute is a read-only ``Mapping[tuple, int]`` view: its
length is O(1), iteration decodes keys one at a time, and indexing packs the
tuple it is given.  It keeps no decoded copy.  ``items()`` yields decoded
``(exponents, coefficient)`` pairs.

All values are immutable after construction, every operation is a pure
function, and results are always canonical (no stored zero coefficient).
"""

from __future__ import annotations

import struct
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, Sequence, Union

from .errors import AlgebraError

FIELD_BITS = 16  # _layout reads each field as a struct "h"
EXP_LIMIT = (1 << (FIELD_BITS - 1)) - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Coefficients:
    """Coefficient ring: integers (``p is None``) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    @classmethod
    def integers(cls) -> "Coefficients":
        return cls(None)

    @classmethod
    def prime_field(cls, p: int) -> "Coefficients":
        return cls(p)

    @property
    def char(self) -> int:
        return self.p or 0

    def reduce(self, c: int) -> int:
        return c % self.p if self.p is not None else c

    def invert(self, c: int) -> int:
        if self.p is not None:
            c %= self.p
            if c == 0:
                raise ZeroDivisionError("inverting 0 in a prime field")
            return pow(c, self.p - 2, self.p)
        if c in (1, -1):
            return c
        raise ZeroDivisionError(f"{c} is not a unit in Z")

    def __str__(self) -> str:
        return "Z" if self.p is None else f"F{self.p}"


def _full_bias(n: int) -> int:
    """The int with 2^15 in each of n fields."""
    return int.from_bytes(b"\x80\0" * n, "big")


@lru_cache(maxsize=None)
def _layout(invertible: tuple[bool, ...]) -> tuple[struct.Struct, int, tuple[int, ...], int]:
    """Codec, bias, non-invertible indices and the mask of their fields."""
    fixed = tuple(i for i, inv in enumerate(invertible) if not inv)
    mask = int.from_bytes(b"".join(b"\0\0" if inv else b"\xff\xff" for inv in invertible), "big")
    return struct.Struct(f">{len(invertible)}h"), _full_bias(len(invertible)) & ~mask, fixed, mask


class VariableTable:
    """Ordered list of distinct variable names with per-variable unit flags.

    The table also fixes the packed-monomial layout of its polynomials
    (see the module docstring).
    """

    __slots__ = (
        "names", "invertible", "_index", "continuant_cache",
        "bias", "_struct", "_fixed", "_fixed_mask",
    )

    def __init__(self, names: Sequence[str], invertible: Iterable[str] = ()) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        inv = frozenset(invertible)
        unknown = inv - set(names)
        if unknown:
            raise ValueError(f"invertible flags for unknown variables: {sorted(unknown)}")
        self.names = names
        self.invertible = tuple(n in inv for n in names)
        self._index = {n: i for i, n in enumerate(names)}
        self.continuant_cache: dict = {}

        self._struct, self.bias, self._fixed, self._fixed_mask = _layout(self.invertible)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent vector with entries within ``EXP_LIMIT``."""
        return int.from_bytes(self._struct.pack(*exps), "big") ^ self.bias

    def unpack(self, key: int) -> tuple[int, ...]:
        return self._struct.unpack((key ^ self.bias).to_bytes(self._struct.size, "big"))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, VariableTable)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self) -> int:
        return hash((self.names, self.invertible))

    def __reduce__(self):
        # rebuilt from its arguments, since the struct codec cannot be pickled
        units = [n for n, inv in zip(self.names, self.invertible) if inv]
        return VariableTable, (self.names, units)

    def __repr__(self) -> str:
        return f"VariableTable({list(self.names)!r})"


def _overflow(lo: int, hi: int) -> AlgebraError:
    return AlgebraError(
        f"exponent range [{lo}, {hi}] leaves the packed field range of +-{EXP_LIMIT}"
    )


def _exponent_range(exps: Sequence[int]) -> tuple[int, int]:
    lo, hi = (min(exps), max(exps)) if exps else (0, 0)
    if lo < -EXP_LIMIT or hi > EXP_LIMIT:
        raise _overflow(lo, hi)
    return lo, hi


def _product_range(f: "LaurentPolynomial", g: "LaurentPolynomial") -> tuple[int, int]:
    """The exact exponent range of ``f * g``; raises if it leaves the field range.

    The coefficients form an integral domain, so in each variable the least
    and greatest exponents of a product are the sums of the operands' own.
    """
    if f.is_zero or g.is_zero:
        return 0, 0
    unpack = f.table.unpack
    lo = hi = 0
    for a, b in zip(zip(*map(unpack, f._packed)), zip(*map(unpack, g._packed))):
        lo, hi = min(lo, min(a) + min(b)), max(hi, max(a) + max(b))
    return _exponent_range((lo, hi))


class Terms(Mapping):
    """Read-only view of a polynomial's terms keyed by exponent tuples."""

    __slots__ = ("_packed", "_table")

    def __init__(self, packed: dict[int, int], table: VariableTable) -> None:
        self._packed = packed
        self._table = table

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(self._table.unpack, self._packed)

    def __getitem__(self, exps: tuple) -> int:
        table = self._table
        if not isinstance(exps, tuple) or len(exps) != len(table):
            raise KeyError(exps)
        try:
            return self._packed[table.pack(exps)]
        except (KeyError, struct.error):
            raise KeyError(exps) from None

    def items(self) -> "_TermItems":
        return _TermItems(self)


class _TermItems(ItemsView):
    def __iter__(self):
        unpack = self._mapping._table.unpack
        for key, c in self._mapping._packed.items():
            yield unpack(key), c


PolyLike = Union["LaurentPolynomial", int]


class LaurentPolynomial:
    """A sparse Laurent polynomial bound to a table and a coefficient ring."""

    __slots__ = ("table", "ring", "_packed", "_lo", "_hi")

    def __init__(
        self,
        table: VariableTable,
        ring: Coefficients,
        terms: Mapping[tuple, int],
    ) -> None:
        """Build from exponent tuples; zero coefficients are dropped."""
        packed: dict[int, int] = {}
        lo = hi = 0
        width = len(table)
        for exps, c in terms.items():
            if len(exps) != width:
                raise ValueError("exponent vector has wrong length")
            c = ring.reduce(c)
            if c == 0:
                continue
            for i in table._fixed:
                if exps[i] < 0:
                    raise ValueError(
                        f"negative exponent at non-invertible variable {table.names[i]!r}"
                    )
            elo, ehi = _exponent_range(exps)
            lo, hi = min(lo, elo), max(hi, ehi)
            packed[table.pack(exps)] = c
        self.table = table
        self.ring = ring
        self._packed = packed
        self._lo, self._hi = lo, hi

    @classmethod
    def _make(
        cls,
        table: VariableTable,
        ring: Coefficients,
        packed: dict[int, int],
        lo: int,
        hi: int,
    ) -> "LaurentPolynomial":
        """Wrap an already canonical packed dict (no copy, no checks).

        Every exponent of every term lies in ``[lo, hi]``, and
        ``lo <= 0 <= hi`` always.
        """
        self = object.__new__(cls)
        self.table = table
        self.ring = ring
        self._packed = packed
        self._lo, self._hi = lo, hi
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, table: VariableTable, ring: Coefficients) -> "LaurentPolynomial":
        return cls._make(table, ring, {}, 0, 0)

    @classmethod
    def constant(cls, table: VariableTable, ring: Coefficients, c: int) -> "LaurentPolynomial":
        c = ring.reduce(c)
        if c == 0:
            return cls.zero(table, ring)
        return cls._make(table, ring, {table.bias: c}, 0, 0)

    @classmethod
    def variable(cls, table: VariableTable, ring: Coefficients, name: str) -> "LaurentPolynomial":
        shift = FIELD_BITS * (len(table) - 1 - table.index(name))
        return cls._make(table, ring, {table.bias + (1 << shift): 1}, 0, 1)

    @classmethod
    def monomial(
        cls,
        table: VariableTable,
        ring: Coefficients,
        coeff: int,
        powers: Mapping[str, int],
    ) -> "LaurentPolynomial":
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index(name)] = e
        return cls(table, ring, {tuple(exps): coeff})

    def _coerce(self, other: PolyLike) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if (other.table is not self.table and other.table != self.table) or (
                other.ring is not self.ring and other.ring != self.ring
            ):
                raise ValueError("operands use different variable tables or rings")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.table, self.ring, other)
        return NotImplemented  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # accessors

    @property
    def terms(self) -> Terms:
        return Terms(self._packed, self.table)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """``(exponents, coefficient)`` pairs, decoded one at a time."""
        return iter(self.terms.items())

    def variable_name(self) -> str | None:
        """The name of the variable this polynomial is, if it is exactly one."""
        if len(self._packed) != 1:
            return None
        (key, c), = self._packed.items()
        unit = key - self.table.bias  # a variable's unit is 1 << (FIELD_BITS * j)
        j, rest = divmod(unit.bit_length() - 1, FIELD_BITS)  # j counts fields from the right
        if c != 1 or unit <= 0 or rest or unit & (unit - 1):
            return None
        return self.table.names[len(self.table) - 1 - j]

    # ------------------------------------------------------------------
    # predicates

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def is_unit(self) -> bool:
        """True for a single term with unit coefficient and only unit variables."""
        if len(self._packed) != 1:
            return False
        (key, c), = self._packed.items()
        if (key ^ self.table.bias) & self.table._fixed_mask:
            return False
        if self.ring.p is None:
            return c in (1, -1)
        return c % self.ring.p != 0

    def invert_unit(self) -> "LaurentPolynomial":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        (key, c), = self._packed.items()
        # a field holding b + e (b its bias) becomes b - e
        inverse = 2 * self.table.bias - key
        return LaurentPolynomial._make(
            self.table, self.ring, {inverse: self.ring.invert(c)}, -self._hi, -self._lo
        )

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        big, small = self._packed, other._packed
        if len(big) < len(small):
            big, small = small, big
        packed = dict(big)
        for key, c in small.items():
            new = ring.reduce(packed.get(key, 0) + c)
            if new:
                packed[key] = new
            else:
                del packed[key]
        return LaurentPolynomial._make(
            self.table, ring, packed, min(self._lo, other._lo), max(self._hi, other._hi)
        )

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        ring = self.ring
        packed = {k: ring.reduce(-c) for k, c in self._packed.items()}
        return LaurentPolynomial._make(self.table, ring, packed, self._lo, self._hi)

    def __sub__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lo, hi = self._lo + other._lo, self._hi + other._hi
        if lo < -EXP_LIMIT or hi > EXP_LIMIT:
            lo, hi = _product_range(self, other)
        ring, bias = self.ring, self.table.bias
        outer, inner = self._packed, other._packed
        if len(outer) > len(inner):
            outer, inner = inner, outer
        if ring.p == 2:
            acc: set[int] = set()
            for k1 in outer:
                acc ^= set(map((k1 - bias).__add__, inner))
            packed = dict.fromkeys(acc, 1)
        else:
            sums: dict[int, int] = {}
            get = sums.get
            for k1, c1 in outer.items():
                base = k1 - bias
                for k2, c2 in inner.items():
                    key = base + k2
                    sums[key] = get(key, 0) + c1 * c2
            reduce = ring.reduce
            packed = {}
            for key, c in sums.items():
                c = reduce(c)
                if c:
                    packed[key] = c
        return LaurentPolynomial._make(self.table, ring, packed, lo, hi)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            return self.invert_unit() ** (-n)
        result = LaurentPolynomial.constant(self.table, self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == LaurentPolynomial.constant(self.table, self.ring, other)
        return (
            isinstance(other, LaurentPolynomial)
            and self.table == other.table
            and self.ring == other.ring
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._packed.items())))

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(self, assignments: Mapping[str, PolyLike]) -> "LaurentPolynomial":
        """Simultaneously substitute polynomials for variables.

        Unassigned variables are kept.  A variable flagged invertible may
        only receive a unit (a single term with unit coefficient supported
        on invertible variables); likewise any variable occurring with a
        negative exponent.
        """
        table, ring = self.table, self.ring
        values: dict[int, LaurentPolynomial] = {}
        for name, val in assignments.items():
            i = table.index(name)
            poly = val if isinstance(val, LaurentPolynomial) else LaurentPolynomial.constant(table, ring, val)
            poly = self._coerce(poly)
            if table.invertible[i] and not poly.is_unit():
                raise ValueError(
                    f"substituting a non-unit for invertible variable {name!r}"
                )
            values[i] = poly
        if not values:
            return self
        out = LaurentPolynomial.zero(table, ring)
        for exps, c in self.items():
            factor = LaurentPolynomial.constant(table, ring, c)
            residual = list(exps)
            for i, poly in values.items():
                e = exps[i]
                if e == 0:
                    continue
                residual[i] = 0
                factor = factor * (poly ** e)
            mono = LaurentPolynomial._make(
                table, ring, {table.pack(residual): 1}, self._lo, self._hi
            )
            out = out + factor * mono
        return out

    def evaluate(self, point: Mapping[str, int], p: int | None = None) -> int:
        """Evaluate at a point with coordinates in F_p.

        ``p`` defaults to the polynomial's own characteristic and must be a
        prime.  Every occurring variable needs a value; invertible variables
        must receive nonzero values.
        """
        if p is None:
            p = self.ring.p
        if p is None:
            raise ValueError("a prime characteristic is required for evaluation")
        field = Coefficients.prime_field(p)
        table = self.table
        terms = list(self.items())
        occurring = set()
        for exps, _ in terms:
            for i, e in enumerate(exps):
                if e != 0:
                    occurring.add(i)
        vals: dict[int, int] = {}
        for i in occurring:
            name = table.names[i]
            if name not in point:
                raise ValueError(f"no value assigned to variable {name!r}")
            v = point[name] % p
            if v == 0 and table.invertible[i]:
                raise ValueError(f"zero assigned to invertible variable {name!r}")
            vals[i] = v
        total = 0
        for exps, c in terms:
            term = c % p
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                base = vals[i] if e > 0 else field.invert(vals[i])
                term = term * pow(base, abs(e), p) % p
            total = (total + term) % p
        return total

    def reduce_mod(self, p: int) -> "LaurentPolynomial":
        """The image of this integer polynomial in F_p (same table)."""
        field = Coefficients.prime_field(p)
        packed = {k: c % p for k, c in self._packed.items() if c % p}
        return LaurentPolynomial._make(self.table, field, packed, self._lo, self._hi)

    # ------------------------------------------------------------------
    # printing

    def _sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Decoded terms, highest monomial first."""
        unpack, packed = self.table.unpack, self._packed
        for key in sorted(packed, reverse=True):
            yield unpack(key), packed[key]

    def canonical_text(self) -> str:
        if not self._packed:
            return "0"
        pieces = []
        for exps, c in self._sorted_terms():
            factors = [
                f"{self.table.names[i]}^{e}" if e != 1 else self.table.names[i]
                for i, e in enumerate(exps)
                if e != 0
            ]
            body = "*".join(factors)
            mag = abs(c)
            if body:
                coeff = "" if mag == 1 else f"{mag}*"
                text = coeff + body
            else:
                text = str(mag)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + text)
            else:
                pieces.append(("- " if c < 0 else "+ ") + text)
        return " ".join(pieces)

    def to_json_terms(self) -> list[dict]:
        out = []
        for exps, c in self._sorted_terms():
            out.append(
                {
                    "exponents": {
                        self.table.names[i]: e for i, e in enumerate(exps) if e != 0
                    },
                    "coefficient": c,
                }
            )
        return out

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"<{self.canonical_text()} over {self.ring}>"


# ----------------------------------------------------------------------
# exact division


@lru_cache(maxsize=None)
def _wide(n: int) -> tuple[struct.Struct, int]:
    """A codec of n 32-bit fields and the int with 2^31 in each field."""
    return struct.Struct(f">{n}i"), int.from_bytes(b"\x80\0\0\0" * n, "big")


def _shifted(
    poly: LaurentPolynomial, codec: struct.Struct, bias: int
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """Strip the monomial content (per-variable minimum exponent).

    Returns the content, each variable's spread (largest minus least
    exponent) and the shifted terms, whose exponents are all nonnegative,
    packed in 32-bit fields that each carry a bias of 2^31.
    """
    rows = list(map(poly.table.unpack, poly._packed))
    columns = list(zip(*rows))
    content = tuple(map(min, columns))
    spread = tuple(max(col) - lo for col, lo in zip(columns, content))
    pack = codec.pack
    shifted = {
        int.from_bytes(pack(*map(sub, exps, content)), "big") ^ bias: c
        for exps, c in zip(rows, poly._packed.values())
    }
    return content, spread, shifted


def exact_divide(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial | None:
    """Return ``q`` with ``q * den == num`` exactly, or None when no Laurent
    quotient exists.

    Division by the zero polynomial raises ``ZeroDivisionError``, and a
    quotient whose exponents leave the field range raises ``AlgebraError``.
    The algorithm strips monomial content from both operands, performs
    leading-term reduction in the ordinary polynomial cone (valid because
    the coefficients form an integral domain), and re-applies the content;
    a quotient with negative exponents at non-invertible variables counts
    as a failure.
    """
    if den.table != num.table or den.ring != num.ring:
        raise ValueError("operands use different variable tables or rings")
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    table, ring = num.table, num.ring
    if num.is_zero:
        return num

    codec, bias = _wide(len(table))
    content_n, spread_n, rem = _shifted(num, codec, bias)
    content_d, spread_d, dterms = _shifted(den, codec, bias)
    # A quotient's spread in each variable is that of num less that of den,
    # so a quotient term outside [0, limit] shows that none exists.  Every
    # exponent in rem then stays in [0, spread_n], at most 2 * EXP_LIMIT,
    # and as every field carries the bias, a field difference never borrows
    # and a field sum never carries.
    limit = tuple(map(sub, spread_n, spread_d))
    lead_d = max(dterms)
    lead_dc = dterms[lead_d]

    quo: list[tuple[tuple[int, ...], int]] = []
    while rem:
        lead_r = max(rem)
        q = lead_r - lead_d + bias
        exps = codec.unpack((q ^ bias).to_bytes(codec.size, "big"))
        if min(exps, default=0) < 0 or min(map(sub, limit, exps), default=0) < 0:
            return None
        c = rem[lead_r]
        if ring.p is None:
            if c % lead_dc != 0:
                return None
            qc = c // lead_dc
        else:
            qc = c * ring.invert(lead_dc) % ring.p
        quo.append((exps, qc))
        base = q - bias
        for dk, dc in dterms.items():
            key = base + dk
            new = ring.reduce(rem.get(key, 0) - qc * dc)
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)

    net = tuple(a - b for a, b in zip(content_n, content_d))
    result: dict[int, int] = {}
    lo = hi = 0
    for exps, c in quo:
        e = tuple(map(add, exps, net))
        for i in table._fixed:
            if e[i] < 0:
                return None
        elo, ehi = _exponent_range(e)
        lo, hi = min(lo, elo), max(hi, ehi)
        result[table.pack(e)] = c
    return LaurentPolynomial._make(table, ring, result, lo, hi)
