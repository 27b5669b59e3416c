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
from functools import reduce
from operator import mul
from typing import Mapping, Sequence

from .bridge import BridgeWord, a_name
from .cluster import Quiver, Seed, merge_seeds
from .continuant import continuant_int
from .dga import build_dga, is_augmentation, window_continuant
from .errors import BudgetError, InputError
from .ring import Coefficients, LaurentPolynomial, VariableTable

DEFAULT_BUDGET = 10**8


class Style(enum.Enum):
    INEQUALITY = "inequality"
    EQUATION = "equation"


def defining_system(
    word: BridgeWord, style: Style = Style.INEQUALITY
) -> list[tuple[tuple[int, ...], bool]]:
    """Per block: the chords whose window continuant is the block's
    defining polynomial, and whether that polynomial is an inequation
    (nonzero) rather than an equation.

    The chords are the word's ``retained_chords``, except that the last
    block stays whole in equation style.  The polynomial is an inequation
    for a single block and for the last block in inequality style.
    """
    k = word.k
    out = []
    for i, chords in enumerate(word.retained_chords):
        last = i == k - 1
        if last and style is Style.EQUATION:
            chords = tuple(word.block_chords(i))
        out.append((chords, k == 1 or (last and style is Style.INEQUALITY)))
    return out


@dataclass(frozen=True)
class VarietyPresentation:
    word: BridgeWord
    style: Style
    table: VariableTable
    system: tuple[tuple[tuple[int, ...], bool], ...]  # see defining_system
    equations: tuple[LaurentPolynomial, ...]
    inequations: tuple[LaurentPolynomial, ...]

    @property
    def block_chords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(chords for chords, _ in self.system)

    @property
    def coordinates(self) -> tuple[str, ...]:
        return tuple(a_name(c) for block in self.block_chords for c in block)


def presentation(word: BridgeWord, style: Style = Style.INEQUALITY) -> VarietyPresentation:
    word.require_rational_form()
    if style is Style.EQUATION and word.k == 1:
        raise InputError(
            "the equation-style presentation needs at least two blocks; "
            "a single block keeps the inequation K_n != 0"
        )
    table = word.crossing_table
    ring = Coefficients.integers()
    system = defining_system(word, style)
    equations = []
    inequations = []
    for chords, nonzero in system:
        (inequations if nonzero else equations).append(window_continuant(table, ring, chords))
    return VarietyPresentation(
        word,
        style,
        table,
        tuple(system),
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
    return continuant_int((values.get(a_name(c), 0) for c in chords), p)


def forced_t1(word: BridgeWord, values: Mapping[str, int], p: int) -> int:
    """Product of the per-block seed-window continuants left over from the
    first closure differential; nonzero at every variety point."""
    total = 1
    for chords in word.seed_windows:
        total = total * window_value(values, p, chords) % p
    return total


def forced_t2(word: BridgeWord, values: Mapping[str, int], p: int) -> int:
    """Value forced on the second base point.

    On the variety the two-boundary disk sums collapse to a product of
    nonvanishing window continuants (the same cancellation that makes the
    second closure equation redundant): blocks 1, 3, 5, ... contribute
    their seed windows and blocks 2, 4, ... their full windows, read with
    the free first chord 0; for even k, block k divides by its seed window
    instead.  This collapsed form is characteristic-free.  The disk
    recursion ``dga.disk_recursion`` is not: it drops the signs and agrees
    with this form only in characteristic 2 (over the words with m <= 8 at
    p = 3, 5, 7 the two differ at points of words with k = 2 and k = 4),
    so t2 is not evaluated through it here.
    """
    k, windows = word.k, word.seed_windows
    total = 1
    for i in range(k if k % 2 else k - 1):
        chords = windows[i] if i % 2 == 0 else word.block_chords(i)
        total = total * window_value(values, p, chords) % p
    if k % 2 == 0:
        last = window_value(values, p, windows[k - 1])
        total = total * Coefficients.prime_field(p).invert(last) % p
    return total


# ----------------------------------------------------------------------
# enumeration and counting


def _block_solutions(length: int, p: int, nonzero: bool) -> list[tuple[int, ...]]:
    return [
        tup
        for tup in itertools.product(range(p), repeat=length)
        if (continuant_int(tup, p) != 0) == nonzero
    ]


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
    for chords, nonzero in pres.system:
        total *= count_block(len(chords), p, nonzero)
    return total


def verify_forced_units_exhaustive(word: BridgeWord, p: int) -> bool:
    """Check, block by block and over all of F_p, that no solution of a
    defining equation kills a factor of the forced t1 or t2 products."""
    word.require_rational_form()
    for chords, nonzero in defining_system(word):
        if nonzero:
            continue  # only an equation can kill a factor
        for m in matrix_distribution(len(chords), p):
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
    per_block = [_block_solutions(len(chords), p, nonzero) for chords, nonzero in pres.system]
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
    """Product of f_n over the seed-window lengths n of the blocks."""
    word.require_rational_form()
    return reduce(mul, (f_poly(len(chords)) for chords in word.seed_windows))


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
        for chords in word.retained_chords
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
    """The initial seed of a word: the block path seeds merged in block
    order, so block i's vertices follow those of blocks 1..i-1, its mutable
    path in crossing order and then its frozen end."""

    seed: Seed


def initial_seed(word: BridgeWord) -> WordSeed:
    """Path seed per block: K_1 -> K_2 -> ... -> [frozen window continuant].

    For k >= 2 the paths have n1-2, ni-3, nk-2 mutable vertices; a single
    block yields the full path K_1 -> ... -> K_{n-1} -> [K_n] whose strata
    and point count match the n-coordinate presentation.  Every frozen
    variable is a continuant of a nonempty window, never the constant 1.
    """
    word.require_rational_form()
    table = word.crossing_table
    ring = Coefficients.integers()
    seeds = []
    for prefix in word.seed_windows:
        length = len(prefix)  # total path vertices including the frozen end
        variables = tuple(
            window_continuant(table, ring, prefix[: j + 1]) for j in range(length)
        )
        arrows = [(j, j + 1) for j in range(length - 1)]
        frozen = {length - 1} if length else set()
        seeds.append(Seed(Quiver.from_arrows(length, arrows, frozen), variables))
    return WordSeed(merge_seeds(seeds))
