"""Commutative characteristic-2 presentation of the crossing dg-algebra.

Generators for a rational-form word [n1, ..., nk]: one crossing variable
a_j per crossing, two right-closure variables b1, b2, and two invertible
base-point variables t1, t2.  Every differential of an a-generator and of
b1 lies in the subring generated by the a's and t1; b2's differential also
involves b1 and t1^-1 when k is even.

Window continuants of block i (crossings c_1 .. c_n of that block):

    K   = K_n(c_1 .. c_n)          K_M = K_{n-2}(c_2 .. c_{n-1})
    K_L = K_{n-1}(c_1 .. c_{n-1})  K_R = K_{n-1}(c_2 .. c_n)

The two-block disk polynomials D_ab(i) (i even) follow the recursion with
base case at i = 2; the D_23 step uses the (i-1)-block middle window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bridge import BridgeWord
from .continuant import continuant
from .errors import InputError
from .ring import Coefficients, LaurentPolynomial, VariableTable


def a_name(j: int) -> str:
    return f"a{j}"


def dga_table(word: BridgeWord) -> VariableTable:
    names = [a_name(j) for j in range(1, word.total + 1)] + ["b1", "b2", "t1", "t2"]
    return VariableTable(names, invertible=("t1", "t2"))


@dataclass(frozen=True)
class BlockContinuants:
    K: LaurentPolynomial
    K_L: LaurentPolynomial
    K_M: LaurentPolynomial
    K_R: LaurentPolynomial


def block_continuants(
    word: BridgeWord,
    i: int,
    table: VariableTable | None = None,
    ring: Coefficients | None = None,
) -> BlockContinuants:
    """Window continuants of block i (1-based, 1 <= i <= k)."""
    if not 1 <= i <= word.k:
        raise InputError(f"block index {i} out of range")
    if table is None:
        table = dga_table(word)
    if ring is None:
        ring = Coefficients.prime_field(2)
    chords = word.block_chords(i - 1)

    def window(lo: int, hi: int) -> LaurentPolynomial:
        if hi - lo + 1 < 0:
            return LaurentPolynomial.zero(table, ring)  # K_{-1} = 0
        xs = [
            LaurentPolynomial.variable(table, ring, a_name(c)) for c in chords[lo : hi + 1]
        ]
        return continuant(xs, table, ring)

    n = len(chords)
    return BlockContinuants(
        K=window(0, n - 1),
        K_L=window(0, n - 2),
        K_M=window(1, n - 2),
        K_R=window(1, n - 1),
    )


@dataclass(frozen=True)
class DiskTable:
    word: BridgeWord
    i: int
    D13: LaurentPolynomial
    D14: LaurentPolynomial
    D23: LaurentPolynomial
    D24: LaurentPolynomial
    D34: LaurentPolynomial


def disk_table(
    word: BridgeWord,
    i: int,
    table: VariableTable | None = None,
    ring: Coefficients | None = None,
) -> DiskTable:
    """Two-boundary disk polynomials for blocks 1 through i (i even)."""
    if word.k < 2:
        raise InputError("disk tables need at least two blocks")
    if i % 2 != 0 or not 2 <= i <= word.k:
        raise InputError(f"block index {i} must be even and within the word")
    if table is None:
        table = dga_table(word)
    if ring is None:
        ring = Coefficients.prime_field(2)
    blocks = {j: block_continuants(word, j, table, ring) for j in range(1, i + 1)}

    b1, b2 = blocks[1], blocks[2]
    current = DiskTable(
        word,
        2,
        D13=b2.K_M * b1.K_L,
        D14=b2.K_L * b1.K_L,
        D23=b2.K_R * b1.K_L,
        D24=b2.K * b1.K_L,
        D34=b1.K,
    )
    for j in range(4, i + 1, 2):
        bj, bp = blocks[j], blocks[j - 1]
        cross = bp.K_L * current.D34 + bp.K_M * current.D24
        current = DiskTable(
            word,
            j,
            D13=bj.K_M * bp.K_M * current.D13,
            D14=bj.K_L * cross + bj.K_M * current.D14,
            D23=bj.K_R * bp.K_M * current.D13,
            D24=bj.K_R * current.D14 + bj.K * cross,
            D34=bp.K * current.D34 + bp.K_R * current.D24,
        )
    return current


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
    if k == 1:
        kn = block_continuants(word, 1, table, ring).K
        diffs["b1"] = kn + t1
        diffs["b2"] = kn + t2
        return DgPresentation(word, table, ring, diffs)

    blocks = {i: block_continuants(word, i, table, ring) for i in range(1, k + 1)}
    m = word.m

    diffs[a_name(m[0] + 1)] = blocks[1].K
    for i in range(2, k):
        prod = blocks[1].K_L
        for j in range(2, i):
            prod = prod * blocks[j].K_M
        diffs[a_name(m[i - 1] + 1)] = prod * blocks[i].K_R

    b1_prod = blocks[1].K_L
    for j in range(2, k):
        b1_prod = b1_prod * blocks[j].K_M
    diffs["b1"] = b1_prod * blocks[k].K_R + t1

    if k % 2 == 1:
        d = disk_table(word, k - 1, table, ring)
        diffs["b2"] = blocks[k].K * d.D34 + blocks[k].K_R * d.D24 + t2
    else:
        d = disk_table(word, k, table, ring)
        b1v = LaurentPolynomial.variable(table, ring, "b1")
        t1_inv = t1.invert_unit()
        diffs["b2"] = d.D14 + d.D34 * b1v * t1_inv * d.D13 + d.D24 * t1_inv * d.D13 + t2

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
