import itertools

import pytest

from legclus.bridge import BridgeWord
from legclus.cluster import Seed, mutation_class
from legclus.continuant import continuant
from legclus.dga import window_continuant
from legclus.errors import InputError
from legclus.polygon import (
    BlockLayout,
    Triangulation,
    block_seed,
    edges_cross,
    quiver_from_triangulation,
    triangulations,
)
from legclus.ring import Coefficients, LaurentPolynomial

Z = Coefficients.integers()


def edge_continuant(word, layout):
    """The continuant an edge of the block polygon carries."""
    return lambda e: window_continuant(word.crossing_table, Z, layout.edge_window(e))


def catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def test_flip_square():
    t = Triangulation(4, frozenset({(1, 3)}))
    assert t.flip((1, 3)).diagonals == frozenset({(2, 4)})


def test_flip_pentagon_fan():
    t = Triangulation(5, frozenset({(1, 3), (1, 4)}))
    assert t.flip((1, 3)).diagonals == frozenset({(2, 4), (1, 4)})


def test_flip_involution():
    for t in triangulations(7):
        for d in t.diagonals:
            flipped = t.flip(d)
            (new,) = flipped.diagonals - t.diagonals
            assert flipped.flip(new) == t


def test_triangulation_validation():
    with pytest.raises(InputError):
        Triangulation(5, frozenset({(1, 3)}))  # wrong count
    with pytest.raises(InputError):
        Triangulation(6, frozenset({(1, 3), (2, 4), (1, 4)}))  # crossing


def test_triangulation_rejects_exactly_the_crossing_pairs():
    for n in range(4, 10):
        diagonals = [
            (i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)
        ]
        for a, b in itertools.combinations(diagonals, 2):
            # a pair is a triangulation only for n = 5; otherwise the count
            # check rejects it too, after the crossing check
            crossing = False
            try:
                Triangulation(n, frozenset({a, b}))
            except InputError as e:
                crossing = "cross" in str(e)
            assert crossing == edges_cross(a, b), (n, a, b)


def test_triangulation_counts_are_catalan():
    for n in range(3, 10):
        assert len(triangulations(n)) == catalan(n - 2)


def test_fan_triangulation():
    t = Triangulation.fan(6)
    assert t.diagonals == frozenset({(2, 6), (3, 6), (4, 6)})


def test_quiver_from_hexagon_snake_matches_three_cycles():
    # triangulation (1,3), (3,5), (1,5) of the hexagon with all sides kept
    t = Triangulation(6, frozenset({(1, 3), (3, 5), (1, 5)}))
    sides = sorted({(i, i + 1) for i in range(1, 6)} | {(1, 6)})
    q, labels = quiver_from_triangulation(t, sides)
    idx = {e: v for v, e in enumerate(labels)}

    def arrow(a, b):
        return q.matrix[idx[a]][idx[b]]

    # inner counterclockwise cycle
    assert arrow((1, 5), (3, 5)) == 1
    assert arrow((3, 5), (1, 3)) == 1
    assert arrow((1, 3), (1, 5)) == 1
    # corner triangle (1,2,3)
    assert arrow((1, 2), (1, 3)) == 1
    assert arrow((1, 3), (2, 3)) == 1
    assert arrow((2, 3), (1, 2)) == 1
    assert q.frozen == set(range(3, 9))


def test_block_model_sizes():
    w = BridgeWord((5, 4))
    first, last = w.layouts
    assert first.size == 6 and last.size == 5
    mid = BridgeWord((2, 3, 2)).layouts[1]
    assert mid.size == 3
    assert BridgeWord((3,)).layouts[0].size == 5


def test_diagonal_to_continuant_first_block():
    w = BridgeWord((5, 4))
    D = edge_continuant(w, w.layouts[0])
    t = w.crossing_table
    a = {i: LaurentPolynomial.variable(t, Z, f"a{i}") for i in range(1, 10)}
    assert D((2, 6)) == a[1]
    assert D((1, 3)) == a[2]
    assert D((5, 6)) == continuant([a[1], a[2], a[3], a[4]], t, Z)
    # sides other than the frozen one carry 1
    one = LaurentPolynomial.constant(t, Z, 1)
    assert D((1, 2)) == one
    assert D((1, 6)) == one


def test_diagonal_to_continuant_last_block():
    w = BridgeWord((5, 4))
    D = edge_continuant(w, w.layouts[1])
    t = w.crossing_table
    a = {i: LaurentPolynomial.variable(t, Z, f"a{i}") for i in range(1, 10)}
    assert D((4, 5)) == continuant([a[7], a[8], a[9]], t, Z)
    assert D((1, 3)) == a[8]


def test_fan_seed_matches_initial_path():
    w = BridgeWord((5, 4))
    b = w.layouts[0]
    s = block_seed(w, b, Triangulation.fan(b.size))
    t = w.crossing_table
    a = {i: LaurentPolynomial.variable(t, Z, f"a{i}") for i in range(1, 10)}
    expected = [
        continuant([a[1]], t, Z),
        continuant([a[1], a[2]], t, Z),
        continuant([a[1], a[2], a[3]], t, Z),
        continuant([a[1], a[2], a[3], a[4]], t, Z),
    ]
    assert list(s.variables) == expected
    assert s.quiver.frozen == {3}
    assert s.quiver.matrix[0][1] == 1
    assert s.quiver.matrix[1][2] == 1
    assert s.quiver.matrix[2][3] == 1
    assert s.quiver.matrix[0][2] == 0


def test_flip_equals_mutation_small_blocks():
    words = [BridgeWord((5, 2)), BridgeWord((2, 5)), BridgeWord((2, 4, 2)), BridgeWord((4,))]
    for w in words:
        for b in w.layouts:
            if b.size < 4:
                continue
            for t in triangulations(b.size):
                seed = block_seed(w, b, t)
                _, labels = quiver_from_triangulation(t, [b.frozen_side])
                for d in t.diagonals:
                    flipped = t.flip(d)
                    v = labels.index(d)
                    mutated = seed.mutate(v)
                    target = block_seed(w, b, flipped)
                    assert mutated.canonical_key() == target.canonical_key()


def test_plucker_exchange_identity_polynomially():
    # Delta_ik Delta_jl = Delta_ij Delta_kl + Delta_jk Delta_il
    for w in [BridgeWord((7,)), BridgeWord((7, 2)), BridgeWord((2, 7)), BridgeWord((2, 8, 2))]:
        for b in w.layouts:
            n = b.size
            if n < 4:
                continue
            for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
                D = edge_continuant(w, b)
                assert D((i, k)) * D((j, l)) == D((i, j)) * D((k, l)) + D((j, k)) * D((i, l))


def test_degenerate_blocks_have_singleton_or_empty_seeds():
    w = BridgeWord((2, 2))
    first, last = w.layouts
    assert first.size == 3 and last.size == 3
    s = block_seed(w, first, triangulations(3)[0])
    assert s.quiver.size == 1 and s.quiver.frozen == {0}
    w2 = BridgeWord((1, 2, 1))
    models = w2.layouts
    assert [m.size for m in models] == [2, 2, 2]
    for m in models:
        s = block_seed(w2, m, triangulations(2)[0])
        assert s.quiver.size == 1 and s.quiver.frozen == {0}


def test_svg_and_text_render():
    t = Triangulation(5, frozenset({(1, 3), (1, 4)}))
    assert t.to_text() == "T(5): 13,14"
    svg = t.to_svg()
    assert svg.startswith("<svg") and svg.count("<line") == 2


@pytest.mark.parametrize(
    "blocks, block, windows",
    [
        # first block: all crossings label vertices 1..n
        ((3, 2), 0, {(1, 3): (2,), (2, 4): (1,), (3, 4): (1, 2), (1, 2): (), (1, 4): ()}),
        # middle block: the first crossing stays off the polygon
        ((2, 3, 2), 1, {(1, 2): (), (2, 3): (4,), (1, 3): ()}),
        # last block
        ((2, 3), 1, {(1, 3): (5,), (2, 4): (4,), (3, 4): (4, 5), (1, 4): (), (2, 3): ()}),
        # a single block labels every crossing, on an (n+2)-gon
        ((4,), 0, {(1, 3): (2,), (2, 4): (3,), (1, 4): (2, 3), (2, 5): (3, 4), (4, 6): (1, 2, 3),
                   (5, 6): (1, 2, 3, 4), (1, 6): ()}),
    ],
)
def test_edge_window(blocks, block, windows):
    layout = BlockLayout.of(BridgeWord(blocks), block)
    assert layout.edge_window(layout.frozen_side) == windows[layout.frozen_side]
    for (i, j), window in windows.items():
        assert layout.edge_window((i, j)) == layout.edge_window((j, i)) == window


@pytest.mark.parametrize("edge", [(0, 2), (2, 2), (3, 7), (1, 1)])
def test_edge_window_rejects_a_non_edge(edge):
    with pytest.raises(InputError):
        BlockLayout.of(BridgeWord((4,)), 0).edge_window(edge)


BLOCK_SHAPES = (
    [((n, 2), 0) for n in range(1, 8)]  # first block, size n+1
    + [((2, n), 1) for n in range(1, 8)]  # last block, size n+1
    + [((2, n, 2), 1) for n in range(2, 8)]  # middle block, size n
    + [((n,), 0) for n in range(1, 8)]  # single block, size n+2
)


@pytest.mark.parametrize(
    "blocks, block", BLOCK_SHAPES, ids=[f"{list(b)}-{i}".replace(" ", "") for b, i in BLOCK_SHAPES]
)
def test_block_triangulations_reach_every_seed_of_the_fan_class(blocks, block):
    # the per-block surjection: the seeds of the Catalan-many
    # triangulations are exactly the mutation class of the fan at vertex N
    w = BridgeWord(blocks)
    layout = w.layouts[block]
    fan = block_seed(w, layout, Triangulation.fan(layout.size))
    seeds, exceeded = mutation_class(fan)
    assert not exceeded
    reached = {block_seed(w, layout, t).canonical_key() for t in triangulations(layout.size)}
    assert reached == {s.canonical_key() for s in seeds}
