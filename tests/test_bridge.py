import math

import pytest

from legclus.augvar import Style, defining_system
from legclus.bridge import (
    BridgeWord,
    Fraction,
    Move,
    apply_move,
    fraction_value,
    rational_form_words,
    smooth_isotopic,
    word_from_fraction,
)
from legclus.continuant import continuant_int
from legclus.errors import InputError


def test_parse_and_format():
    assert BridgeWord.parse("5,4") == BridgeWord((5, 4))
    assert BridgeWord.parse("[5,4]") == BridgeWord((5, 4))
    assert BridgeWord.parse("5, 4") == BridgeWord((5, 4))
    assert str(BridgeWord((5, 4))) == "[5,4]"
    for text in ("5,x", "5,,4", "5,4,"):
        with pytest.raises(InputError, match="cannot parse bridge word"):
            BridgeWord.parse(text)


def test_rational_form_flag():
    assert BridgeWord((1, 3, 1)).is_rational_form
    assert not BridgeWord((2, 1, 2)).is_rational_form
    assert BridgeWord((4,)).is_rational_form


def test_fraction_values():
    assert fraction_value(BridgeWord((2,))) == Fraction(2, 1)
    assert fraction_value(BridgeWord((3, 3))) == Fraction(8, 3)
    assert fraction_value(BridgeWord((2, 2, 2))) == Fraction(4, 3)


def test_word_from_fraction():
    assert word_from_fraction(Fraction(8, 3)) == BridgeWord((3, 3))
    assert word_from_fraction(Fraction(3, 1)) == BridgeWord((3,))
    assert word_from_fraction(Fraction(5, 3)) == BridgeWord((2, 3))
    with pytest.raises(InputError):
        word_from_fraction(Fraction(1, 1))


def test_fraction_roundtrip_small():
    for p in range(2, 200):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            w = word_from_fraction(Fraction(p, q))
            f = fraction_value(w)
            assert f.p == p and f.q % p == q % p


def test_moves():
    assert apply_move(BridgeWord((3,)), Move.EXTEND_ONE) == BridgeWord((4, 1))
    assert apply_move(BridgeWord((2, 2)), Move.PREPEND_ONE) == BridgeWord((1, 3, 2))
    assert apply_move(BridgeWord((2, 3)), Move.REVERSE) == BridgeWord((3, 2))
    assert apply_move(BridgeWord((4, 1)), Move.EXTEND_ONE, inverse=True) == BridgeWord((3,))
    assert apply_move(BridgeWord((1, 3, 2)), Move.PREPEND_ONE, inverse=True) == BridgeWord((2, 2))
    with pytest.raises(InputError):
        apply_move(BridgeWord((3, 2)), Move.EXTEND_ONE, inverse=True)
    with pytest.raises(InputError):
        apply_move(BridgeWord((2, 2)), Move.PREPEND_ONE, inverse=True)


def test_moves_preserve_fraction_class():
    w = BridgeWord((3,))
    assert fraction_value(apply_move(w, Move.EXTEND_ONE)) == Fraction(3, 1)
    f = fraction_value(apply_move(BridgeWord((2, 2)), Move.PREPEND_ONE))
    assert (f.p, f.q) == (3, 5) and 5 % 3 == 2 % 3


def test_smooth_isotopic():
    assert smooth_isotopic(BridgeWord((3,)), BridgeWord((4, 1)))
    assert not smooth_isotopic(BridgeWord((3,)), BridgeWord((2, 2)))
    assert smooth_isotopic(BridgeWord((2, 3)), BridgeWord((3, 2)))


def test_moves_preserve_isotopy_class_sweep():
    for w in rational_form_words(12):
        for move in Move:
            assert smooth_isotopic(w, apply_move(w, move))


def test_reverse_denominators_multiply_to_one():
    for w in rational_form_words(10):
        f = fraction_value(w)
        g = fraction_value(apply_move(w, Move.REVERSE))
        assert f.p == g.p
        if f.p == 0:
            assert f.q * g.q == 1
        else:
            assert (f.q * g.q) % f.p == 1 % f.p


def test_rational_form_words_are_valid_and_distinct():
    words = list(rational_form_words(8))
    assert len(words) == len(set(words))
    assert all(w.is_rational_form for w in words)
    assert BridgeWord((1, 2, 1)) in words
    assert BridgeWord((2, 1, 2)) not in words


def test_block_helpers():
    w = BridgeWord((5, 4))
    assert w.m == (5, 9)
    assert w.block_chords(1) == [6, 7, 8, 9]
    assert w.block_of(6) == 1
    assert continuant_int(w.blocks) == fraction_value(w).p


def test_seed_window():
    w = BridgeWord((3, 4, 2))
    assert w.seed_windows == ((1, 2), (5, 6), (9,))
    assert BridgeWord((3,)).seed_windows == ((1, 2, 3),)
    assert BridgeWord((1, 3)).seed_windows == ((), (3, 4))


def _sliced_seed_windows(w):
    """Reference: the seed windows sliced block by block (first [:-1],
    middle [1:-1], last [1:], a single block whole)."""
    out = []
    for i in range(w.k):
        chords = w.block_chords(i)
        start = 1 if i > 0 else 0
        stop = len(chords) - 1 if i < w.k - 1 else len(chords)
        out.append(tuple(chords[start:stop]))
    return tuple(out)


def _sliced_defining_system(w, style):
    """Reference: every block after the first drops its first chord, except
    the last block in equation style."""
    out = []
    for i in range(w.k):
        chords = w.block_chords(i)
        last = i == w.k - 1
        keep_first = i == 0 or (last and style is Style.EQUATION)
        nonzero = w.k == 1 or (last and style is Style.INEQUALITY)
        out.append((chords if keep_first else chords[1:], nonzero))
    return out


def test_window_rules_live_on_the_word():
    for w in rational_form_words(10):
        assert w.seed_windows == _sliced_seed_windows(w)
        for style in Style:
            system = [(list(chords), nonzero) for chords, nonzero in defining_system(w, style)]
            assert system == _sliced_defining_system(w, style)
        for b, layout in enumerate(w.layouts):
            assert tuple(layout.vertex_of) == w.retained_chords[b]
            assert layout.edge_window(layout.frozen_side) == w.seed_windows[b]
