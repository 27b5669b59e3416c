"""Two-bridge words, their fractions, and the unoriented classification.

A word [n1, ..., nk] of positive integers encodes the alternating continued
fraction n1 - 1/(n2 - 1/(... - 1/nk)) and a plat diagram whose i-th block
carries ni crossings.  The word is in rational form when n1 >= 1, nk >= 1
and every interior ni >= 2.
What depends on the word alone is a cached property of ``BridgeWord``,
built once per word object: ``m``, ``crossing_table``, ``retained_chords``,
``seed_windows`` and, for a rational-form word, the per-block polygon
``layouts`` that every pinch walk and block seed reads.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .continuant import continuant_int
from .errors import InputError
from .ring import VariableTable

if TYPE_CHECKING:
    from .polygon import BlockLayout


def a_name(j: int) -> str:
    return f"a{j}"


@dataclass(frozen=True)
class BridgeWord:
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise InputError("a bridge word needs at least one block")
        if any(n < 1 for n in self.blocks):
            raise InputError("block sizes must be positive")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @classmethod
    def parse(cls, text: str) -> "BridgeWord":
        """Accepts '5,4' or '[5,4]'."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            blocks = tuple(int(part) for part in body.split(",") if part.strip())
        except ValueError:
            raise InputError(f"cannot parse bridge word {text!r}") from None
        if not blocks:
            raise InputError(f"cannot parse bridge word {text!r}")
        return cls(blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def m(self) -> tuple[int, ...]:
        """Partial sums m_i = n1 + ... + ni (computed once per word)."""
        out = []
        total = 0
        for n in self.blocks:
            total += n
            out.append(total)
        return tuple(out)

    @property
    def total(self) -> int:
        return sum(self.blocks)

    @property
    def is_rational_form(self) -> bool:
        return all(n >= 2 for n in self.blocks[1:-1])

    def require_rational_form(self) -> None:
        if not self.is_rational_form:
            raise InputError(f"{self} is not in rational form (interior blocks need >= 2)")

    def block_chords(self, i: int) -> list[int]:
        """1-based crossing indices of block i (0-based block index)."""
        start = self.m[i - 1] if i > 0 else 0
        return list(range(start + 1, self.m[i] + 1))

    @cached_property
    def crossing_table(self) -> VariableTable:
        """The a1..am table; every caller shares its continuant cache."""
        return VariableTable([a_name(j) for j in range(1, self.total + 1)])

    @cached_property
    def retained_chords(self) -> tuple[tuple[int, ...], ...]:
        """Per block, the chords the augmentation variety keeps: every block
        after the first drops its free first chord."""
        return tuple(tuple(self.block_chords(i)[1 if i > 0 else 0 :]) for i in range(self.k))

    @cached_property
    def seed_windows(self) -> tuple[tuple[int, ...], ...]:
        """Per block, the chords whose window continuant enters the seed
        and the first closure product: the retained chords, less the last
        one in every block but the last (a single block stays whole)."""
        kept = self.retained_chords
        return tuple(chords[:-1] for chords in kept[:-1]) + kept[-1:]

    @cached_property
    def layouts(self) -> tuple[BlockLayout, ...]:
        """Per block, its ``polygon.BlockLayout``; a word not in rational
        form has none and raises."""
        from .polygon import BlockLayout  # polygon imports this module

        self.require_rational_form()
        return tuple(BlockLayout.of(self, b) for b in range(self.k))

    def block_of(self, chord: int) -> int:
        i = bisect_left(self.m, chord)
        if i == self.k:
            raise InputError(f"chord index {chord} out of range for {self}")
        return i

    def __str__(self) -> str:
        return "[" + ",".join(str(n) for n in self.blocks) + "]"


@dataclass(frozen=True)
class Fraction:
    """A fraction p/q with p >= 0; reduced means gcd(p, q) = 1.

    Nontrivial two-bridge links have p >= 2; p = 1 is the unknot and p = 0
    the two-component unlink (degenerate words like [1,1] reach them).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise InputError("numerator must be nonnegative")

    @property
    def reduced(self) -> bool:
        return math.gcd(self.p, self.q) == 1

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def fraction_value(word: BridgeWord) -> Fraction:
    """p/q with p = K_k(n1..nk) and q = K_{k-1}(n2..nk); automatically reduced."""
    p = continuant_int(word.blocks)
    q = continuant_int(word.blocks[1:])
    if p < 0:
        p, q = -p, -q
    return Fraction(p, q)


def word_from_fraction(f: Fraction) -> BridgeWord:
    """Word with all ni > 0 for a fraction with p >= 2.

    q is first shifted mod p into (0, p); the alternating Euclidean
    division then produces the unique expansion with every ni >= 2.
    """
    p, q = f.p, f.q
    if p <= 1:
        raise InputError("fractions with p <= 1 have no bridge word")
    q %= p
    if q == 0:
        raise InputError(f"{f} is not reduced")
    if math.gcd(p, q) != 1:
        raise InputError(f"{f} is not reduced")
    blocks = []
    while True:
        if q == 1:
            blocks.append(p)
            break
        n = -(-p // q)  # ceil
        blocks.append(n)
        p, q = q, n * q - p
    return BridgeWord(tuple(blocks))


class Move(enum.Enum):
    EXTEND_ONE = "extend-one"    # [..., nk] ~ [..., nk+1, 1]
    PREPEND_ONE = "prepend-one"  # [n1, ...] ~ [1, n1+1, ...]
    REVERSE = "reverse"          # [n1, ..., nk] ~ [nk, ..., n1]


def apply_move(word: BridgeWord, move: Move, inverse: bool = False) -> BridgeWord:
    b = word.blocks
    if move is Move.REVERSE:
        return BridgeWord(tuple(reversed(b)))
    if move is Move.EXTEND_ONE:
        if not inverse:
            return BridgeWord(b[:-1] + (b[-1] + 1, 1))
        if len(b) < 2 or b[-1] != 1 or b[-2] < 2:
            raise InputError(f"{word} does not end in [..., n, 1] with n >= 2")
        return BridgeWord(b[:-2] + (b[-2] - 1,))
    if move is Move.PREPEND_ONE:
        if not inverse:
            return BridgeWord((1, b[0] + 1) + b[1:])
        if len(b) < 2 or b[0] != 1 or b[1] < 2:
            raise InputError(f"{word} does not start with [1, n, ...] with n >= 2")
        return BridgeWord((b[1] - 1,) + b[2:])
    raise InputError(f"unknown move {move}")


def smooth_isotopic(w1: BridgeWord, w2: BridgeWord) -> bool:
    """Unoriented classification: equal p and q' congruent to q or its
    inverse mod p."""
    f1, f2 = fraction_value(w1), fraction_value(w2)
    if f1.p != f2.p:
        return False
    p = f1.p
    if p == 0:
        return f1.q == f2.q or f1.q * f2.q == 1
    q1, q2 = f1.q % p, f2.q % p
    if q1 == q2:
        return True
    return (q1 * q2) % p == 1 % p


def _word_tails(remaining: int) -> Iterator[tuple[int, ...]]:
    """Suffixes (n2, ..., nk): interior blocks >= 2, the final one >= 1."""
    if remaining >= 1:
        yield (remaining,)
    for n in range(2, remaining):
        for rest in _word_tails(remaining - n):
            yield (n,) + rest


def rational_form_words(max_total: int, min_total: int = 1) -> Iterator[BridgeWord]:
    """All rational-form words with block sum between the given bounds."""
    for total in range(min_total, max_total + 1):
        yield BridgeWord((total,))
        for first in range(1, total):
            for tail in _word_tails(total - first):
                yield BridgeWord((first,) + tail)
