"""Normal rulings, the anticlique bijection, and the stratification.

Within each block the crossings away from the block boundaries are
undetermined; a ruling assigns them switches and adjacent
departure-return pairs (a domino tiling, hence the Fibonacci counts).
The crossings a_{m_j} and a_{m_j+1} flanking a block boundary are forced
to a departure and a return.  Pairs correspond to mutable vertices of the
initial seed, so rulings biject with anticliques, and the vanishing
pattern of the initial cluster variables cuts the variety into strata of
size (p-1)^s * p^(r-k+1).

Both left cusps and both ruling disks are fixed for these plat fronts, so
the ruling polynomial is B(z) = sum over rulings of z^(s(R)-1).  Words
with an even number of blocks are handled by the same per-block census
(their nearly-plat stabilization [n1, ..., nk+1, 1] has an isotopic front
and the same counts).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping

from .augvar import (
    VarietyPoint,
    defining_system,
    forced_t1,
    forced_t2,
    point_count_closed_form,
    window_value,
)
from .bridge import BridgeWord, a_name
from .continuant import continuant_prefixes
from .errors import AlgebraError, InputError
from .ring import Coefficients, LaurentPolynomial, VariableTable

SWITCH = "S"
DEPARTURE = "D"
RETURN = "R"


def undetermined_crossings(word: BridgeWord) -> list[list[int]]:
    """Per-block crossing indices whose ruling type is free."""
    word.require_rational_form()
    return [list(chords) for chords in word.seed_windows]


def forced_types(word: BridgeWord) -> dict[int, str]:
    out: dict[int, str] = {}
    for m in word.m[:-1]:
        out[m] = DEPARTURE
        out[m + 1] = RETURN
    return out


@dataclass(frozen=True)
class NormalRuling:
    word: BridgeWord
    types: tuple[tuple[int, str], ...]  # undetermined crossing -> type

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(sorted(self.types)))

    @property
    def type_map(self) -> dict[int, str]:
        return dict(self.types)

    @property
    def switches(self) -> int:
        return sum(1 for _, t in self.types if t == SWITCH)

    @property
    def returns(self) -> int:
        """Returns including the k-1 forced ones."""
        return sum(1 for _, t in self.types if t == RETURN) + (self.word.k - 1)

    @property
    def departures(self) -> int:
        return sum(1 for _, t in self.types if t == DEPARTURE) + (self.word.k - 1)

    def full_types(self) -> dict[int, str]:
        out = forced_types(self.word)
        out.update(self.type_map)
        return out


@dataclass(frozen=True)
class StratumShape:
    switches: int
    returns: int
    torus_rank: int
    affine_rank: int

    @classmethod
    def of(cls, ruling: NormalRuling) -> "StratumShape":
        s, r = ruling.switches, ruling.returns
        return cls(s, r, s, r - ruling.word.k + 1)

    def size(self, p: int) -> int:
        return (p - 1) ** self.torus_rank * p**self.affine_rank


def _block_tilings(length: int) -> list[tuple[str, ...]]:
    """Assignments of S and adjacent DR dominoes to a run of crossings."""
    if length == 0:
        return [()]
    if length == 1:
        return [(SWITCH,)]
    out = [(SWITCH,) + rest for rest in _block_tilings(length - 1)]
    out.extend((DEPARTURE, RETURN) + rest for rest in _block_tilings(length - 2))
    return out


def enumerate_rulings(word: BridgeWord) -> list[NormalRuling]:
    blocks = undetermined_crossings(word)
    per_block = [_block_tilings(len(b)) for b in blocks]
    out = []
    for combo in itertools.product(*per_block):
        types: list[tuple[int, str]] = []
        for chords, tiling in zip(blocks, combo):
            types.extend(zip(chords, tiling))
        out.append(NormalRuling(word, tuple(types)))
    return out


def fibonacci(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def expected_ruling_count(word: BridgeWord) -> int:
    """Domino tilings of every block's run of undetermined crossings."""
    return prod(fibonacci(len(chords) + 1) for chords in word.seed_windows)


# ----------------------------------------------------------------------
# anticlique bijection


def block_pairs(word: BridgeWord) -> list[list[tuple[int, int]]]:
    """Adjacent pairs of undetermined crossings per block, one per mutable
    vertex of the initial seed."""
    out = []
    for chords in undetermined_crossings(word):
        out.append([(chords[i], chords[i + 1]) for i in range(len(chords) - 1)])
    return out


def ruling_from_anticlique(word: BridgeWord, anticlique: Iterable[int]) -> NormalRuling:
    """Mutable ordinals (1-based, across blocks in path order) pick the
    departure-return pairs; everything else undetermined is a switch."""
    pairs = [p for block in block_pairs(word) for p in block]
    chosen = sorted(set(anticlique))
    for v in chosen:
        if not 1 <= v <= len(pairs):
            raise InputError(f"mutable ordinal {v} out of range")
    used: set[int] = set()
    types: dict[int, str] = {}
    for v in chosen:
        a, b = pairs[v - 1]
        if a in used or b in used:
            raise InputError("the chosen vertices are not an anticlique")
        used.update((a, b))
        types[a] = DEPARTURE
        types[b] = RETURN
    for chords in undetermined_crossings(word):
        for c in chords:
            types.setdefault(c, SWITCH)
    return NormalRuling(word, tuple(types.items()))


def anticlique_from_ruling(ruling: NormalRuling) -> frozenset[int]:
    word = ruling.word
    pairs = [p for block in block_pairs(word) for p in block]
    tmap = ruling.type_map
    out = set()
    for i, (a, b) in enumerate(pairs, start=1):
        if tmap.get(a) == DEPARTURE and tmap.get(b) == RETURN:
            out.add(i)
    return frozenset(out)


# ----------------------------------------------------------------------
# stratum parametrization and point classification


def parametrize_stratum(
    word: BridgeWord,
    ruling: NormalRuling,
    units: Mapping[int, int],
    scalars: Mapping[int, int],
    p: int,
) -> VarietyPoint:
    """Point of the stratum from one unit per switch and one scalar per
    undetermined return.

    Per block, left to right (the forced boundary crossings follow the
    same rule, with the forced return opening each later block):

        switch after a switch      u_i + u_prev^-1
        switch otherwise           u_i
        departure after a switch   u_prev^-1
        departure otherwise        0
        return                     z_i (undetermined) or free (forced)
    """
    field = Coefficients.prime_field(p)
    full = ruling.full_types()
    values: dict[str, int] = {}
    for chords in word.retained_chords:
        prev_type: str | None = None
        prev_unit: int | None = None
        for c in chords:
            t = full[c]
            if t == SWITCH:
                u = units.get(c)
                if u is None or u % p == 0:
                    raise InputError(f"switch {c} needs a nonzero unit")
                val = u % p
                if prev_type == SWITCH:
                    val = (val + field.invert(prev_unit)) % p
                values[a_name(c)] = val
                prev_type, prev_unit = SWITCH, u % p
            elif t == DEPARTURE:
                if prev_type == SWITCH:
                    values[a_name(c)] = field.invert(prev_unit)
                else:
                    values[a_name(c)] = 0
                prev_type, prev_unit = DEPARTURE, None
            else:  # return
                values[a_name(c)] = scalars.get(c, 0) % p
                prev_type, prev_unit = RETURN, None
    pt = VarietyPoint(
        word, p, values, forced_t1(word, values, p), forced_t2(word, values, p)
    )
    _check_on_variety(word, pt)
    return pt


def _check_on_variety(word: BridgeWord, pt: VarietyPoint) -> None:
    for chords, nonzero in defining_system(word):
        value = window_value(pt.values, pt.p, chords)
        if nonzero:
            if value == 0:
                raise AlgebraError("parametrized point violates the inequation")
        elif value != 0:
            raise AlgebraError("parametrized point violates an equation")


def classify_point(word: BridgeWord, pt: VarietyPoint) -> frozenset[int]:
    """Mutable ordinals whose initial cluster variable vanishes at the
    point; guaranteed (and checked) to be an anticlique."""
    p = pt.p
    vanishing = set()
    ordinal = 0
    for prefix in word.seed_windows:
        prev_vanished = False
        xs = (pt.values.get(a_name(c), 0) for c in prefix[:-1])  # the full window is frozen
        for cur in continuant_prefixes(xs, p):
            ordinal += 1
            if cur == 0:
                if prev_vanished:
                    raise AlgebraError("vanishing pattern is not an anticlique")
                vanishing.add(ordinal)
            prev_vanished = cur == 0
    return frozenset(vanishing)


# ----------------------------------------------------------------------
# ruling polynomial and the point-count identity

_ZTABLE = VariableTable(["z"], invertible=["z"])
_WTABLE = VariableTable(["w"], invertible=["w"])
_Z = Coefficients.integers()


def ruling_polynomial(word: BridgeWord) -> LaurentPolynomial:
    """B(z) = sum over rulings of z^(s(R)-1); both plat fronts here have
    two left cusps.  Two-component words admit all-domino rulings, so a
    z^-1 term can occur (as it does for the unlink)."""
    shapes = Counter(r.switches for r in enumerate_rulings(word))
    out = LaurentPolynomial.zero(_ZTABLE, _Z)
    for s, count in shapes.items():
        out = out + LaurentPolynomial.monomial(_ZTABLE, _Z, count, {"z": s - 1})
    return out


def stratum_count_polynomial(word: BridgeWord) -> LaurentPolynomial:
    """Sum over rulings of (q-1)^s q^(r-k+1), as a polynomial in q, with
    one term per shape (s, r)."""
    table = VariableTable(["q"])
    q = LaurentPolynomial.variable(table, _Z, "q")
    one = LaurentPolynomial.constant(table, _Z, 1)
    shapes = Counter((r.switches, r.returns) for r in enumerate_rulings(word))
    out = LaurentPolynomial.zero(table, _Z)
    for (s, r), count in shapes.items():
        out = out + count * (q - one) ** s * q ** (r - word.k + 1)
    return out


def kauffman_identity_check(word: BridgeWord) -> bool:
    """Symbolic check, in the ring with w^2 = q, that the stratified count,
    the closed-form point count, and the low-degree Kauffman coefficient
    q^(m/2-k+1) (w - w^-1) B(w - w^-1) all agree."""
    counts = stratum_count_polynomial(word)
    closed = point_count_closed_form(word)
    if counts != closed:
        return False

    w = LaurentPolynomial.variable(_WTABLE, _Z, "w")
    z_val = w - w.invert_unit()
    bz = ruling_polynomial(word)
    # z * B(z) has only nonnegative powers, so evaluate that instead and
    # absorb the loose z factor of the identity into it
    zb = LaurentPolynomial.zero(_WTABLE, _Z)
    for (e,), c in bz.items():
        zb = zb + c * z_val ** (e + 1)
    rhs = w ** (word.total - 2 * word.k + 2) * zb
    lhs = LaurentPolynomial.zero(_WTABLE, _Z)
    for (e,), c in closed.items():
        lhs = lhs + c * (w * w) ** e
    return lhs == rhs
