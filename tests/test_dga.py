from collections import namedtuple

import pytest

from legclus.bridge import BridgeWord, rational_form_words
from legclus.continuant import continuant
from legclus.dga import (
    block_continuants,
    build_dga,
    differential_of,
    dga_table,
    disk_recursion,
    is_augmentation,
)
from legclus.errors import InputError
from legclus.ring import Coefficients, LaurentPolynomial

F2 = Coefficients.prime_field(2)


def avar(table, name):
    return LaurentPolynomial.variable(table, F2, name)


def K(table, names):
    return continuant([avar(table, n) for n in names], table, F2)


Disks = namedtuple("Disks", "D13 D14 D23 D24 D34")


def disks(w, i, t):
    """Two-boundary disk polynomials for blocks 1 through i."""
    return Disks(*disk_recursion([block_continuants(w, j, t, F2) for j in range(1, i + 1)]))


def test_block_continuants_33():
    w = BridgeWord((3, 3))
    t = dga_table(w)
    b = block_continuants(w, 1, t, F2)
    assert b.K == K(t, ["a1", "a2", "a3"])
    assert b.K_L == K(t, ["a1", "a2"])
    assert b.K_M == K(t, ["a2"])
    assert b.K_R == K(t, ["a2", "a3"])


def test_block_continuants_small_block():
    w = BridgeWord((2, 2))
    t = dga_table(w)
    b = block_continuants(w, 1, t, F2)
    assert b.K_M == LaurentPolynomial.constant(t, F2, 1)  # K_0


def test_block_continuants_54():
    w = BridgeWord((5, 4))
    t = dga_table(w)
    b = block_continuants(w, 2, t, F2)
    assert b.K_R == K(t, ["a7", "a8", "a9"])


def test_disk_table_base_22():
    w = BridgeWord((2, 2))
    t = dga_table(w)
    d = disks(w, 2, t)
    assert d.D14 == avar(t, "a3") * avar(t, "a1")
    assert d.D34 == K(t, ["a1", "a2"])
    assert d.D24 == K(t, ["a3", "a4"]) * avar(t, "a1")
    assert d.D13 == avar(t, "a1")
    assert d.D23 == avar(t, "a4") * avar(t, "a1")


def test_disk_table_2222_recursion_with_unit_middles():
    w = BridgeWord((2, 2, 2, 2))
    t = dga_table(w)
    d2 = disks(w, 2, t)
    d4 = disks(w, 4, t)
    # K_M of blocks of size 2 is K_0 = 1, so D13 just propagates
    assert d4.D13 == d2.D13


def test_disk_table_d34_base_is_first_block_continuant():
    for blocks in [(2, 2), (3, 3), (5, 4), (2, 3, 2)]:
        w = BridgeWord(blocks)
        t = dga_table(w)
        assert disks(w, 2, t).D34 == block_continuants(w, 1, t, F2).K


def test_disk_table_hand_expansion_k4():
    # one unrolling of the two-block step, written out by hand
    w = BridgeWord((2, 2, 2, 2))
    t = dga_table(w)
    b = {i: block_continuants(w, i, t, F2) for i in (1, 2, 3, 4)}
    d2 = disks(w, 2, t)
    d4 = disks(w, 4, t)
    cross = b[3].K_L * d2.D34 + b[3].K_M * d2.D24
    assert d4.D14 == b[4].K_L * cross + b[4].K_M * d2.D14
    assert d4.D24 == b[4].K_R * d2.D14 + b[4].K * cross
    assert d4.D34 == b[3].K * d2.D34 + b[3].K_R * d2.D24
    assert d4.D23 == b[4].K_R * b[3].K_M * d2.D13


def test_build_dga_22():
    w = BridgeWord((2, 2))
    dga = build_dga(w)
    t = dga.table
    a1, a2, a3, a4 = (avar(t, f"a{i}") for i in range(1, 5))
    b1 = avar(t, "b1")
    t1 = avar(t, "t1")
    t2 = avar(t, "t2")
    assert dga.differentials["a3"] == a1 * a2 + 1
    assert dga.differentials["a1"].is_zero
    assert dga.differentials["b1"] == a1 * a4 + t1
    expected_b2 = (
        a1 * a3
        + (a1 * a2 + 1) * b1 * t1.invert_unit() * a1
        + (a3 * a4 + 1) * a1 * t1.invert_unit() * a1
        + t2
    )
    assert dga.differentials["b2"] == expected_b2


def test_build_dga_33_first_block_differential():
    w = BridgeWord((3, 3))
    dga = build_dga(w)
    assert dga.differentials["a4"] == K(dga.table, ["a1", "a2", "a3"])


def test_build_dga_222_odd_b2():
    w = BridgeWord((2, 2, 2))
    dga = build_dga(w)
    t = dga.table
    expected = (
        K(t, ["a5", "a6"]) * K(t, ["a1", "a2"])
        + avar(t, "a6") * K(t, ["a3", "a4"]) * avar(t, "a1")
        + avar(t, "t2")
    )
    assert dga.differentials["b2"] == expected


def test_build_dga_k1_convention():
    w = BridgeWord((3,))
    dga = build_dga(w)
    t = dga.table
    kn = K(t, ["a1", "a2", "a3"])
    assert dga.differentials["b1"] == kn + avar(t, "t1")
    assert dga.differentials["b2"] == kn + avar(t, "t2")
    assert all(dga.differentials[f"a{i}"].is_zero for i in (1, 2, 3))


def test_zero_differentials_away_from_block_boundaries():
    for w in rational_form_words(9):
        dga = build_dga(w)
        boundary = {m + 1 for m in w.m[:-1]}
        for j in range(1, w.total + 1):
            if j not in boundary:
                assert dga.differentials[f"a{j}"].is_zero


def test_is_augmentation_22():
    w = BridgeWord((2, 2))
    dga = build_dga(w)
    good = {"a1": 1, "a2": 1, "a3": 0, "a4": 1, "b1": 0, "b2": 0, "t1": 1, "t2": 1}
    assert is_augmentation(dga, good)
    bad = dict(good, a1=0, a2=0)
    assert not is_augmentation(dga, bad)
    with pytest.raises(InputError):
        is_augmentation(dga, dict(good, t1=0))


def test_d_squared_vanishes_on_a_and_b1():
    for w in rational_form_words(14):
        dga = build_dga(w)
        for j in range(1, w.total + 1):
            assert differential_of(dga, dga.differentials[f"a{j}"]).is_zero
        assert differential_of(dga, dga.differentials["b1"]).is_zero


def test_one_crossing_block_has_zero_middle_window():
    # K_M = K_{-1} = 0, not the K_0 = 1 of the empty slice [1:-1]
    w = BridgeWord((3, 1))
    t = dga_table(w)
    assert block_continuants(w, 2, t, F2).K_M.is_zero
    assert disks(w, 2, t).D13.is_zero
