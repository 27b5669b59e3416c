"""Commutative characteristic-2 presentation of the crossing dg-algebra.

Generators for a rational-form word [n1, ..., nk]: one crossing variable
a_j per crossing, two right-closure variables b1, b2, and two invertible
base-point variables t1, t2.  Every differential of an a-generator and of
b1 lies in the subring generated by the a's and t1; b2's differential also
involves b1 and t1^-1 when k is even.

The window continuants K, K_L, K_M, K_R of every block come from
``continuant.BlockContinuants``.  d(b1) is the product of the per-block
seed windows (``BridgeWord.seed_windows``).  The first block-boundary
differential is K of block 1; each later one is a prefix of the d(b1)
product times the block's K_R.  d(b2) is built from the two-boundary disk
sums D_ab of ``disk_recursion`` (base case at two blocks, one step per
further pair).  The recursion is written once, over any ring with + and
*: ``fillings`` runs it on the chart images of the windows for the forced
t2.  It carries no signs, so it holds in characteristic 2 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .bridge import BridgeWord, a_name
from .continuant import BlockContinuants, continuant
from .errors import InputError
from .ring import Coefficients, LaurentPolynomial, VariableTable


def dga_table(word: BridgeWord) -> VariableTable:
    names = [a_name(j) for j in range(1, word.total + 1)] + ["b1", "b2", "t1", "t2"]
    return VariableTable(names, invertible=("t1", "t2"))


def window_continuant(
    table: VariableTable, ring: Coefficients, chords: Sequence[int]
) -> LaurentPolynomial:
    """K of the crossing variables a_c for c in ``chords``."""
    xs = [LaurentPolynomial.variable(table, ring, a_name(c)) for c in chords]
    return continuant(xs, table, ring)


def block_continuants(
    word: BridgeWord, i: int, table: VariableTable, ring: Coefficients
) -> BlockContinuants:
    """Window continuants of block i (1-based, 1 <= i <= k)."""
    if not 1 <= i <= word.k:
        raise InputError(f"block index {i} out of range")
    return BlockContinuants(
        word.block_chords(i - 1),
        lambda chords: window_continuant(table, ring, chords),
        LaurentPolynomial.zero(table, ring),
    )


def disk_recursion(blocks: Sequence[BlockContinuants]) -> tuple[Any, Any, Any, Any, Any]:
    """Two-boundary disk sums (D13, D14, D23, D24, D34) of an even number
    of blocks (``blocks[0]`` is block 1), in whatever ring the windows
    live: the two-block base case, then one step per further pair."""
    b1, b2 = blocks[0], blocks[1]
    d13 = b2.K_M * b1.K_L
    d14 = b2.K_L * b1.K_L
    d23 = b2.K_R * b1.K_L
    d24 = b2.K * b1.K_L
    d34 = b1.K
    for j in range(3, len(blocks), 2):
        bj, bp = blocks[j], blocks[j - 1]
        cross = bp.K_L * d34 + bp.K_M * d24
        d13, d14, d23, d24, d34 = (
            bj.K_M * bp.K_M * d13,
            bj.K_L * cross + bj.K_M * d14,
            bj.K_R * bp.K_M * d13,
            bj.K_R * d14 + bj.K * cross,
            bp.K * d34 + bp.K_R * d24,
        )
    return d13, d14, d23, d24, d34


@dataclass(frozen=True)
class DgPresentation:
    word: BridgeWord
    table: VariableTable
    ring: Coefficients
    differentials: dict[str, LaurentPolynomial]

    @property
    def generators(self) -> list[str]:
        return [a_name(j) for j in range(1, self.word.total + 1)] + ["b1", "b2"]

    @property
    def units(self) -> list[str]:
        return ["t1", "t2"]


def build_dga(word: BridgeWord) -> DgPresentation:
    """Differentials of all generators over F_2.

    For a single block the right-closure differentials degenerate to
    K_n + t1 and K_n + t2; the product formulas below require k >= 2.
    """
    word.require_rational_form()
    table = dga_table(word)
    ring = Coefficients.prime_field(2)
    zero = LaurentPolynomial.zero(table, ring)
    t1 = LaurentPolynomial.variable(table, ring, "t1")
    t2 = LaurentPolynomial.variable(table, ring, "t2")
    diffs = {a_name(j): zero for j in range(1, word.total + 1)}

    k = word.k
    blocks = [block_continuants(word, i, table, ring) for i in range(1, k + 1)]
    if k == 1:
        diffs["b1"] = blocks[0].K + t1
        diffs["b2"] = blocks[0].K + t2
        return DgPresentation(word, table, ring, diffs)

    m = word.m
    diffs[a_name(m[0] + 1)] = blocks[0].K
    windows = word.seed_windows
    prefix = window_continuant(table, ring, windows[0])
    for i in range(1, k - 1):
        diffs[a_name(m[i] + 1)] = prefix * blocks[i].K_R
        prefix = prefix * window_continuant(table, ring, windows[i])
    diffs["b1"] = prefix * window_continuant(table, ring, windows[k - 1]) + t1

    last = blocks[-1]
    if k % 2 == 1:
        _, _, _, d24, d34 = disk_recursion(blocks[:-1])
        diffs["b2"] = last.K * d34 + last.K_R * d24 + t2
    else:
        d13, d14, _, d24, d34 = disk_recursion(blocks)
        b1v = LaurentPolynomial.variable(table, ring, "b1")
        t1_inv = t1.invert_unit()
        diffs["b2"] = d14 + d34 * b1v * t1_inv * d13 + d24 * t1_inv * d13 + t2

    return DgPresentation(word, table, ring, diffs)


def first_boundary_variants(word: BridgeWord) -> dict[str, LaurentPolynomial]:
    """The textual variants of the first block-boundary differential.

    - "window": the full first-block continuant K_{n1} (the adopted form)
    - "product": the general boundary product formula taken literally at
      the first boundary, where its middle range is empty and only the two
      outer window factors K_L K_R of block 1 remain
    - "window_next": K_{n1} times the second block's right window

    The "product" variant cannot vanish where "window" does: the
    determinant identity forces K_L K_R = 1 on that locus, which is why
    the closed form is the adopted differential.
    """
    word.require_rational_form()
    if word.k < 2:
        raise InputError("boundary differentials need at least two blocks")
    table = dga_table(word)
    ring = Coefficients.prime_field(2)
    b1 = block_continuants(word, 1, table, ring)
    b2 = block_continuants(word, 2, table, ring)
    return {
        "window": b1.K,
        "product": b1.K_L * b1.K_R,
        "window_next": b1.K * b2.K_R,
    }


def is_augmentation(dga: DgPresentation, assignment: Mapping[str, int]) -> bool:
    """True when every differential evaluates to zero in F_2; the base-point
    values must be nonzero."""
    for t in dga.units:
        if t in assignment and assignment[t] % 2 == 0:
            raise InputError(f"zero assigned to invertible generator {t}")
    for poly in dga.differentials.values():
        if poly.evaluate(assignment, 2) != 0:
            return False
    return True


def differential_of(dga: DgPresentation, poly: LaurentPolynomial) -> LaurentPolynomial:
    """Extend the differential as a derivation of the commutative image."""
    table, ring = dga.table, dga.ring
    out = LaurentPolynomial.zero(table, ring)
    for exps, c in poly.items():
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            name = table.names[idx]
            dg = dga.differentials.get(name)
            if dg is None or dg.is_zero:
                continue
            rest = list(exps)
            rest[idx] = e - 1
            coeff = ring.reduce(c * e)
            if coeff == 0:
                continue
            mono = LaurentPolynomial(table, ring, {tuple(rest): coeff})
            out = out + mono * dg
    return out
