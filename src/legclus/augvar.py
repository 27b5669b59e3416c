"""The ungraded augmentation variety of a rational-form word.

After the homotopy quotient the variety keeps one coordinate per crossing
except the first crossing of every block after the first; the defining
system is one window continuant per block:

    K_{n1}(a_1 .. a_{m1}) = 0
    K_{ni-1}(a_{m_{i-1}+2} .. a_{mi}) = 0      for 1 < i < k
    K_{nk-1}(a_{m_{k-1}+2} .. a_{mk}) != 0

A single-block word keeps all n coordinates with the single inequation
K_n != 0 and no equations.  The base-point values t1, t2 are forced by the
coordinates; they are recorded with every enumerated point.

Equations are stored over the integers (signs kept) and reduced mod p at
evaluation time, so the same presentation serves every prime.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bridge import BridgeWord
from .cluster import Quiver, Seed, merge_seeds
from .continuant import continuant
from .dga import DgPresentation, a_name, build_dga, is_augmentation
from .errors import BudgetError, InputError
from .ring import Coefficients, LaurentPolynomial, VariableTable

DEFAULT_BUDGET = 10**8


class Style(enum.Enum):
    INEQUALITY = "inequality"
    EQUATION = "equation"


def avar_table(word: BridgeWord) -> VariableTable:
    return VariableTable([a_name(j) for j in range(1, word.total + 1)])


def _chord_poly(table: VariableTable, ring: Coefficients, chords: Sequence[int]) -> LaurentPolynomial:
    xs = [LaurentPolynomial.variable(table, ring, a_name(c)) for c in chords]
    return continuant(xs, table, ring)


def retained_block_chords(word: BridgeWord, style: Style = Style.INEQUALITY) -> list[list[int]]:
    """Per-block lists of retained crossing indices."""
    if word.k == 1:
        return [word.block_chords(0)]
    out = [word.block_chords(0)]
    for i in range(1, word.k - 1):
        out.append(word.block_chords(i)[1:])
    last = word.block_chords(word.k - 1)
    out.append(last if style is Style.EQUATION else last[1:])
    return out


@dataclass(frozen=True)
class VarietyPresentation:
    word: BridgeWord
    style: Style
    table: VariableTable
    block_chords: tuple[tuple[int, ...], ...]
    equations: tuple[LaurentPolynomial, ...]
    inequations: tuple[LaurentPolynomial, ...]

    @property
    def coordinates(self) -> tuple[str, ...]:
        return tuple(a_name(c) for block in self.block_chords for c in block)

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.block_chords) - len(self.equations)


def presentation(word: BridgeWord, style: Style = Style.INEQUALITY) -> VarietyPresentation:
    word.require_rational_form()
    if style is Style.EQUATION and word.k == 1:
        raise InputError(
            "the equation-style presentation needs at least two blocks; "
            "a single block keeps the inequation K_n != 0"
        )
    table = avar_table(word)
    ring = Coefficients.integers()
    blocks = retained_block_chords(word, style)
    equations = []
    inequations = []
    for i, chords in enumerate(blocks):
        poly = _chord_poly(table, ring, chords)
        last = i == len(blocks) - 1
        if word.k == 1 or (last and style is Style.INEQUALITY):
            inequations.append(poly)
        else:
            equations.append(poly)
    return VarietyPresentation(
        word,
        style,
        table,
        tuple(tuple(b) for b in blocks),
        tuple(equations),
        tuple(inequations),
    )


@dataclass(frozen=True)
class VarietyPoint:
    word: BridgeWord
    p: int
    values: dict[str, int]
    t1: int
    t2: int

    def key(self) -> tuple:
        return tuple(sorted(self.values.items()))


# ----------------------------------------------------------------------
# window evaluation and forced base-point values


def window_value(values: Mapping[str, int], p: int, chords: Sequence[int]) -> int:
    """Continuant of the chord window mod p; absent (free) chords count 0."""
    prev, cur = 0, 1
    for c in reversed(chords):
        x = values.get(a_name(c), 0) % p
        prev, cur = cur, (x * cur - prev) % p
    return cur


def forced_t1(word: BridgeWord, values: Mapping[str, int], p: int) -> int:
    """Product of the per-block window continuants left over from the first
    closure differential; nonzero at every variety point."""
    chords = [word.block_chords(i) for i in range(word.k)]
    if word.k == 1:
        return window_value(values, p, chords[0])
    total = window_value(values, p, chords[0][:-1])  # K_L of block 1
    for i in range(1, word.k - 1):
        total = total * window_value(values, p, chords[i][1:-1]) % p  # K_M
    total = total * window_value(values, p, chords[-1][1:]) % p  # K_R of block k
    return total


def forced_t2(word: BridgeWord, values: Mapping[str, int], p: int) -> int:
    """Value forced on the second base point.

    On the variety the two-boundary disk sums collapse to a product of
    nonvanishing window continuants (the same cancellation that makes the
    second closure equation redundant); the product below evaluates that
    collapsed form, with free chords read as 0, and is therefore valid in
    any characteristic.
    """
    k = word.k
    chords = [word.block_chords(i) for i in range(k)]
    if k == 1:
        return window_value(values, p, chords[0])

    def K_full_free0(i: int) -> int:  # K_{n_i} with the block's first chord 0
        return window_value(values, p, chords[i])

    def K_M(i: int) -> int:
        return window_value(values, p, chords[i][1:-1])

    def chain(top: int) -> int:  # collapsed D_24 over blocks 1..top, top even
        total = 1
        j = top
        while j >= 4:
            total = total * K_full_free0(j - 1) % p * K_M(j - 2) % p
            j -= 2
        if j == 2:
            total = total * K_full_free0(1) % p * window_value(values, p, chords[0][:-1]) % p
        return total

    field = Coefficients.prime_field(p)
    k_r_last = window_value(values, p, chords[-1][1:])
    if k % 2 == 1:
        return k_r_last * chain(k - 1) % p
    lead = window_value(values, p, chords[0][:-1]) if k == 2 else K_M(k - 2)
    return lead * field.invert(k_r_last) % p * chain(k - 2) % p


# ----------------------------------------------------------------------
# enumeration and counting


def _block_solutions(length: int, p: int, nonzero: bool) -> list[tuple[int, ...]]:
    out = []
    for tup in itertools.product(range(p), repeat=length):
        prev, cur = 0, 1
        for x in reversed(tup):
            prev, cur = cur, (x * cur - prev) % p
        if (cur != 0) == nonzero:
            out.append(tup)
    return out


def matrix_distribution(length: int, p: int) -> Counter:
    """Distribution of B(x_1)...B(x_len) mod p over all tuples; the final
    matrix reads [[K_n, -K_L], [K_R, -K_M]] in window continuants."""
    states: Counter = Counter({((1, 0), (0, 1)): 1})
    for _ in range(length):
        nxt: Counter = Counter()
        for ((a, b), (c, d)), cnt in states.items():
            for x in range(p):
                key = (((a * x + b) % p, (-a) % p), ((c * x + d) % p, (-c) % p))
                nxt[key] += cnt
        states = nxt
    return states


def first_row_distribution(length: int, p: int) -> Counter:
    """Distribution of the first row (K_n, -K_L) of B(x_1)...B(x_len) mod p.

    The row's update (a, b) -> (a x + b, -a) never reads the second row, so
    at most p^2 states are kept instead of the p(p^2 - 1) of
    ``matrix_distribution``.
    """
    states: Counter = Counter({(1, 0): 1})
    for _ in range(length):
        nxt: Counter = Counter()
        for (a, b), cnt in states.items():
            minus_a = -a % p
            for x in range(p):
                nxt[(a * x + b) % p, minus_a] += cnt
        states = nxt
    return states


def count_block(length: int, p: int, nonzero: bool) -> int:
    dist = first_row_distribution(length, p)
    return sum(cnt for (k_n, _), cnt in dist.items() if (k_n != 0) == nonzero)


def count_points(pres: VarietyPresentation, p: int) -> int:
    """Exhaustive transfer count of F_p points (no materialization)."""
    total = 1
    blocks = pres.block_chords
    for i, chords in enumerate(blocks):
        last = i == len(blocks) - 1
        nonzero = (pres.word.k == 1) or (last and pres.style is Style.INEQUALITY)
        total *= count_block(len(chords), p, nonzero)
    return total


def verify_forced_units_exhaustive(word: BridgeWord, p: int) -> bool:
    """Check, block by block and over all of F_p, that no solution of a
    defining equation kills a factor of the forced t1 or t2 products."""
    word.require_rational_form()
    if word.k == 1:
        return True  # the only constraint is the inequation itself
    for i in range(word.k - 1):
        chords = retained_block_chords(word)[i]
        for m, cnt in matrix_distribution(len(chords), p).items():
            if m[0][0] == 0 and (m[0][1] == 0 or m[1][0] == 0):
                return False
    return True


def enumerate_points(
    pres: VarietyPresentation, p: int, budget: int = DEFAULT_BUDGET
) -> list[VarietyPoint]:
    """All F_p points with their forced base-point values.

    Candidates factor block by block since the equations are
    variable-disjoint; the budget bounds the total number of candidate
    tuples scanned.
    """
    word = pres.word
    blocks = pres.block_chords
    candidates = 1
    for chords in blocks:
        candidates *= p ** len(chords)
        if candidates > budget:
            raise BudgetError(
                f"enumeration over ~{candidates} candidates exceeds budget {budget}"
            )
    per_block = []
    for i, chords in enumerate(blocks):
        last = i == len(blocks) - 1
        nonzero = (word.k == 1) or (last and pres.style is Style.INEQUALITY)
        per_block.append(_block_solutions(len(chords), p, nonzero))
    points = []
    names = [[a_name(c) for c in chords] for chords in blocks]
    for combo in itertools.product(*per_block):
        values: dict[str, int] = {}
        for block_names, tup in zip(names, combo):
            values.update(zip(block_names, tup))
        points.append(
            VarietyPoint(
                word,
                p,
                values,
                forced_t1(word, values, p),
                forced_t2(word, values, p),
            )
        )
    points.sort(key=VarietyPoint.key)
    return points


# ----------------------------------------------------------------------
# closed-form point count


_QTABLE = VariableTable(["q"])
_ZRING = Coefficients.integers()


def f_poly(n: int) -> LaurentPolynomial:
    """f_n(q) = q^n - q^(n-1) + ... +- 1, the block point count."""
    if n < 0:
        raise InputError("f_n needs n >= 0")
    terms = {(j,): (-1) ** (n - j) for j in range(n + 1)}
    return LaurentPolynomial(_QTABLE, _ZRING, terms)


def point_count_closed_form(word: BridgeWord) -> LaurentPolynomial:
    word.require_rational_form()
    if word.k == 1:
        return f_poly(word.blocks[0])
    out = f_poly(word.blocks[0] - 1)
    for n in word.blocks[1:-1]:
        out = out * f_poly(n - 2)
    return out * f_poly(word.blocks[-1] - 1)


def closed_form_value(word: BridgeWord, p: int) -> int:
    poly = point_count_closed_form(word)
    total = 0
    for (j,), c in poly.items():
        total += c * p**j
    return total


# ----------------------------------------------------------------------
# homotopy quotient


def homotopy_reduce(word: BridgeWord, full: Mapping[str, int], p: int = 2) -> VarietyPoint:
    """Drop the free coordinates of an augmentation (the first crossing of
    every later block and both closure generators)."""
    if p != 2:
        raise InputError("augmentations are checked in characteristic 2")
    dga = build_dga(word)
    if not is_augmentation(dga, full):
        raise InputError("the assignment is not an augmentation")
    values = {
        a_name(c): full[a_name(c)] % p
        for chords in retained_block_chords(word)
        for c in chords
    }
    return VarietyPoint(word, p, values, full["t1"] % p, full["t2"] % p)


def solve_t2_char2(word: BridgeWord, values: Mapping[str, int]) -> int:
    """The t2 value read off the second closure differential directly, with
    free chords and b1 set to 0; agrees with forced_t2 at p = 2."""
    dga = build_dga(word)
    point = {a_name(j): values.get(a_name(j), 0) for j in range(1, word.total + 1)}
    point["b1"] = 0
    point["t1"] = forced_t1(word, values, 2)
    t2v = LaurentPolynomial.variable(dga.table, dga.ring, "t2")
    rhs = dga.differentials["b2"] + t2v  # cancels the t2 term in char 2
    return rhs.evaluate(point, 2)


# ----------------------------------------------------------------------
# the initial cluster seed on the variety


@dataclass(frozen=True)
class WordSeed:
    """Initial seed with its block layout.

    block_mutables[i] lists quiver vertex ids of block i's mutable path (in
    crossing order); block_frozen[i] is the frozen path end.  Mutable
    ordinals are 1-based across the whole word, in path order.
    """

    seed: Seed
    block_mutables: tuple[tuple[int, ...], ...]
    block_frozen: tuple[int, ...]

    @property
    def mutable_vertices(self) -> list[int]:
        return [v for block in self.block_mutables for v in block]

    def ordinal_to_vertex(self, ordinal: int) -> int:
        return self.mutable_vertices[ordinal - 1]

    def vertex_to_ordinal(self, vertex: int) -> int:
        return self.mutable_vertices.index(vertex) + 1


def initial_seed(word: BridgeWord) -> WordSeed:
    """Path seed per block: K_1 -> K_2 -> ... -> [frozen window continuant].

    For k >= 2 the paths have n1-2, ni-3, nk-2 mutable vertices; a single
    block yields the full path K_1 -> ... -> K_{n-1} -> [K_n] whose strata
    and point count match the n-coordinate presentation.
    """
    word.require_rational_form()
    table = avar_table(word)
    ring = Coefficients.integers()
    seeds = []
    block_mutables = []
    block_frozen = []
    offset = 0
    for i in range(word.k):
        chords = word.block_chords(i)
        if word.k == 1:
            prefix = chords
        elif i == 0:
            prefix = chords[:-1]
        elif i == word.k - 1:
            prefix = chords[1:]
        else:
            prefix = chords[1:-1]
        length = len(prefix)  # total path vertices including the frozen end
        variables = tuple(
            _chord_poly(table, ring, prefix[: j + 1]) for j in range(length)
        )
        arrows = [(j, j + 1) for j in range(length - 1)]
        frozen = {length - 1} if length else set()
        seeds.append(Seed(Quiver.from_arrows(length, arrows, frozen), variables))
        block_mutables.append(tuple(range(offset, offset + max(length - 1, 0))))
        if length:
            block_frozen.append(offset + length - 1)
        else:
            block_frozen.append(-1)
        offset += length
    merged = merge_seeds(seeds)
    return WordSeed(merged, tuple(block_mutables), tuple(block_frozen))
