import random
from math import comb

import pytest

import legclus.cluster as cluster
from legclus.augvar import initial_seed
from legclus.bridge import BridgeWord, rational_form_words
from legclus.cluster import Quiver, Seed, merge_seeds, mutation_class
from legclus.errors import AlgebraError, InputError
from legclus.ring import Coefficients, LaurentPolynomial, VariableTable

Z = Coefficients.integers()


def path_quiver(n, frozen=()):
    return Quiver.from_arrows(n, [(i, i + 1) for i in range(n - 1)], frozen)


def xy_seed():
    # initial cluster variables are units of the ambient torus, so the
    # table flags them invertible and mutated variables stay Laurent
    t = VariableTable(["x", "y"], invertible=("x", "y"))
    x = LaurentPolynomial.variable(t, Z, "x")
    y = LaurentPolynomial.variable(t, Z, "y")
    return Seed(Quiver.from_arrows(2, [(0, 1)]), (x, y))


def test_quiver_mutation_sign_flip():
    q = Quiver.from_arrows(2, [(0, 1)])
    assert q.mutate(0).matrix == ((0, -1), (1, 0))


def test_quiver_mutation_composite_arrow():
    q = Quiver.from_arrows(3, [(0, 1), (1, 2)])
    m = q.mutate(1)
    assert m.matrix[0][1] == -1 and m.matrix[1][2] == -1
    assert m.matrix[0][2] == 1  # new composite arrow 1 -> 3


def test_quiver_mutation_involution():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 5)
        arrows = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6))
        ]
        arrows = [(i, j) for i, j in arrows if i != j]
        frozen = {v for v in range(n) if rng.random() < 0.3}
        q = Quiver.from_arrows(n, arrows, frozen)
        for v in q.mutable:
            assert q.mutate(v).mutate(v) == q


def test_quiver_validation():
    for matrix, frozen in [
        (((0, 1), (-1, 0, 0)), ()),  # not square
        (((0, 1), (1, 0)), ()),  # symmetric arrow
        (((1, 0), (0, 0)), ()),  # loop
        (((0, 1, 0), (-1, 0, 2), (0, -1, 0)), ()),  # two arrows 2 -> 3, one back
        (((0, 1), (-1, 0)), (2,)),  # frozen vertex out of range
    ]:
        with pytest.raises(InputError):
            Quiver(matrix, frozenset(frozen))


def test_frozen_vertex_rejected():
    q = Quiver.from_arrows(2, [(0, 1)], frozen={1})
    with pytest.raises(InputError):
        q.mutate(1)


def test_seed_mutation_single_arrow():
    s = xy_seed()
    t = s.variables[0].table
    m = s.mutate(0)
    y = LaurentPolynomial.variable(t, Z, "y")
    assert m.variables[0] * s.variables[0] == y + 1
    x_inv = s.variables[0].invert_unit()
    assert m.variables[0] == (y + 1) * x_inv


def test_seed_mutation_involution():
    s = xy_seed()
    assert s.mutate(0).mutate(0) == s
    assert s.mutate(1).mutate(1) == s


def test_pentagon_relation():
    s = xy_seed()
    t = s
    for v in (0, 1, 0, 1, 0):
        t = t.mutate(v)
    assert t.canonical_key() == s.canonical_key()
    assert t != s  # the pentagon returns the seed only up to relabeling


def test_anticliques_path3():
    q = path_quiver(3)
    cliques = {frozenset(c) for c in q.anticliques()}
    assert cliques == {frozenset(), frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 2})}


def test_anticliques_trivial_and_disjoint():
    assert path_quiver(1, frozen={0}).anticliques() == [frozenset()]
    q = Quiver.from_arrows(2, [])
    assert len(q.anticliques()) == 4


def test_anticliques_fibonacci():
    def fib(n):
        a, b = 1, 1
        for _ in range(n - 1):
            a, b = b, a + b
        return a

    for m in range(1, 9):
        assert len(path_quiver(m).anticliques()) == fib(m + 2)


def test_really_full_rank_cases():
    for n in range(2, 7):
        assert path_quiver(n, frozen={n - 1}).is_really_full_rank()
    assert not Quiver.from_arrows(1, []).is_really_full_rank()
    double = Quiver.from_arrows(2, [(0, 1), (0, 1)], frozen={1})
    assert not double.is_really_full_rank()


def random_quiver(rng):
    n = rng.randint(1, 7)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.choice([0, 0, 1, -1, 2, -2, rng.randint(-5, 5)])
            m[i][j], m[j][i] = x, -x
    return Quiver(m, {v for v in range(n) if rng.random() < 0.4})


def test_really_full_rank_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def oracle(q):
        rows = [q.matrix[v] for v in q.mutable]
        if not rows:
            return True
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        return len(factors) == len(rows) and all(abs(d) == 1 for d in factors)

    # mutable rows [[2,0,1],[0,2,1]] against the frozen vertices: rank 2,
    # but the columns span only an index-2 sublattice of Z^2
    unsaturated = Quiver.from_arrows(5, [(0, 2), (0, 2), (0, 4), (1, 3), (1, 3), (1, 4)], {2, 3, 4})
    assert [unsaturated.matrix[v][2:] for v in unsaturated.mutable] == [(2, 0, 1), (0, 2, 1)]
    assert not unsaturated.is_really_full_rank() and not oracle(unsaturated)
    rng = random.Random(19)
    answers = set()
    for _ in range(300):
        q = random_quiver(rng)
        want = oracle(q)
        assert q.is_really_full_rank() == want, q
        answers.add(want)
    assert answers == {True, False}


def test_really_full_rank_preserved_by_mutation():
    rng = random.Random(9)
    for n in range(3, 6):
        q = path_quiver(n, frozen={n - 1})
        expected = q.is_really_full_rank()
        for _ in range(20):
            v = rng.choice(q.mutable)
            q = q.mutate(v)
            assert q.is_really_full_rank() == expected


def test_mutation_class_counts():
    t = VariableTable(["x", "f"], invertible=("x", "f"))
    x = LaurentPolynomial.variable(t, Z, "x")
    f = LaurentPolynomial.variable(t, Z, "f")
    a1 = Seed(Quiver.from_arrows(2, [(0, 1)], frozen={1}), (x, f))
    seeds, exceeded = mutation_class(a1)
    assert len(seeds) == 2 and not exceeded

    seeds, exceeded = mutation_class(xy_seed())
    assert len(seeds) == 5 and not exceeded


def test_mutation_class_block_a3():
    ws = initial_seed(BridgeWord((5, 2)))
    # keep only the first block's path: vertices 0..3 with frozen 3
    sub = Seed(
        Quiver(tuple(tuple(ws.seed.quiver.matrix[i][j] for j in range(4)) for i in range(4)), frozenset({3})),
        ws.seed.variables[:4],
    )
    seeds, exceeded = mutation_class(sub)
    assert len(seeds) == 14 and not exceeded


def test_mutation_class_bound():
    seeds, exceeded = mutation_class(xy_seed(), bound=2)
    assert exceeded and len(seeds) <= 3


def test_laurent_phenomenon_random_walk():
    rng = random.Random(17)
    for blocks in [(5, 4), (4, 3, 3), (6,)]:
        s = initial_seed(BridgeWord(blocks)).seed
        for _ in range(20):
            v = rng.choice(s.quiver.mutable)
            s = s.mutate(v)  # raises AlgebraError on a division failure


def test_merge_seeds_block_structure():
    a = xy_seed()
    merged = merge_seeds([a, a])
    assert merged.quiver.size == 4
    assert merged.quiver.matrix[0][1] == 1
    assert merged.quiver.matrix[2][3] == 1
    assert merged.quiver.matrix[1][2] == 0


def test_to_dot_shapes():
    q = path_quiver(2, frozen={1})
    dot = q.to_dot(["K1", "K2"])
    assert "shape=circle" in dot and "shape=box" in dot


def test_canonical_key_rejects_equal_mutable_variables():
    t = VariableTable(["x"], invertible=("x",))
    x = LaurentPolynomial.variable(t, Z, "x")
    seed = Seed(path_quiver(3, frozen={2}), (x, x, x * x))
    with pytest.raises(AlgebraError):
        seed.canonical_key()


def bfs_mutation_class(seed, bound=10000):
    """Reference: one breadth-first search over the whole seed, with no
    split into components."""
    seen = {seed.canonical_key(): seed}
    frontier = [seed]
    exceeded = False
    while frontier:
        nxt = []
        for s in frontier:
            for v in s.quiver.mutable:
                t = s.mutate(v)
                key = t.canonical_key()
                if key not in seen:
                    if len(seen) >= bound:
                        exceeded = True
                        continue
                    seen[key] = t
                    nxt.append(t)
        frontier = nxt
        if exceeded:
            break
    return list(seen.values()), exceeded


def is_connected(quiver):
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, e in enumerate(quiver.matrix[i]):
            if e and j not in reached:
                reached.add(j)
                stack.append(j)
    return len(reached) == quiver.size


def assert_matches_bfs(seed):
    new, new_exceeded = mutation_class(seed)
    old, old_exceeded = bfs_mutation_class(seed)
    assert new[0] == seed and not new_exceeded and not old_exceeded
    new_keys = [s.canonical_key() for s in new]
    old_keys = [s.canonical_key() for s in old]
    assert len(set(new_keys)) == len(new_keys)
    if seed.quiver.size and is_connected(seed.quiver):
        assert new_keys == old_keys
    else:
        assert set(new_keys) == set(old_keys)
    for bound in (1, 2, 7):
        seeds, exceeded = mutation_class(seed, bound=bound)
        old_seeds, old_exceeded = bfs_mutation_class(seed, bound=bound)
        assert (len(seeds), exceeded) == (len(old_seeds), old_exceeded)
        assert len(seeds) == min(bound, len(new)) and exceeded == (len(new) > bound)
        assert seeds[0] == seed


def test_mutation_class_matches_breadth_first_search():
    # [7] (429 seeds, one component) alone would take about a second per
    # search; [6] exercises the same one-component path
    words = [w for w in rational_form_words(7) if w.blocks != (7,)]
    for w in words + [BridgeWord((5, 5)), BridgeWord((6, 4))]:
        assert_matches_bfs(initial_seed(w).seed)
    seed = initial_seed(BridgeWord((7,))).seed
    for bound in (1, 2, 7):
        assert mutation_class(seed, bound) == bfs_mutation_class(seed, bound)


def test_mutation_class_two_paths_through_one_frozen_vertex():
    # 0 -> 1 -> [2] <- 4 <- 3: the shared frozen vertex joins both paths
    names = ["x1", "x2", "f", "y1", "y2"]
    t = VariableTable(names, invertible=names)
    xs = tuple(LaurentPolynomial.variable(t, Z, n) for n in names)
    q = Quiver.from_arrows(5, [(0, 1), (1, 2), (3, 4), (4, 2)], frozen={2})
    assert is_connected(q)
    assert_matches_bfs(Seed(q, xs))


def test_mutation_class_with_exponents_two():
    # x1 -> x2 -> x3 with a double arrow x1 => f and an arrow f -> x3, f
    # frozen: the exchange of x1 carries f^2, and its memo key b = +-2
    names = ["x1", "x2", "x3", "f"]
    t = VariableTable(names, invertible=names)
    xs = tuple(LaurentPolynomial.variable(t, Z, n) for n in names)
    q = Quiver.from_arrows(4, [(0, 1), (1, 2), (0, 3), (0, 3), (3, 2)], frozen={3})
    seed = Seed(q, xs)
    assert len(mutation_class(seed)[0]) == 14
    assert_matches_bfs(seed)


def test_mutation_class_divides_each_exchange_binomial_once(monkeypatch):
    # an A_n class on an (n+3)-gon has one exchange binomial per pair of
    # crossing diagonals, C(n+3, 4) of them; a block [n] is A_(n-1)
    calls = []
    divide = cluster.exact_divide
    monkeypatch.setattr(cluster, "exact_divide", lambda *a: calls.append(a) or divide(*a))

    def divisions(blocks):
        seed = initial_seed(BridgeWord(blocks)).seed
        calls.clear()
        mutation_class(seed)
        return len(calls)

    assert [divisions((n,)) for n in range(3, 8)] == [comb(n + 2, 4) for n in range(3, 8)] == [5, 15, 35, 70, 126]
    assert divisions((5, 5)) == 15 + 15
    assert divisions((6, 4)) == 35 + 5


def test_mutation_class_seeds_have_valid_quivers():
    for blocks in [(6,), (6, 4), (6, 5, 6)]:
        for s in mutation_class(initial_seed(BridgeWord(blocks)).seed)[0]:
            # the validating constructor checks squareness, skew-symmetry
            # and the frozen range, and equality checks the field types
            assert Quiver(s.quiver.matrix, s.quiver.frozen) == s.quiver


def test_mutation_class_rejects_equal_mutable_variables():
    t = VariableTable(["x", "f", "g"], invertible=("x", "f", "g"))
    x, f, g = (LaurentPolynomial.variable(t, Z, n) for n in ("x", "f", "g"))
    with pytest.raises(AlgebraError):
        mutation_class(Seed(path_quiver(3, frozen={2}), (x, x, x * x)))
    # the tie spans two components
    two = Quiver.from_arrows(4, [(0, 1), (2, 3)], frozen={1, 3})
    with pytest.raises(AlgebraError):
        mutation_class(Seed(two, (x, f, x, g)))


def test_mutation_class_rejects_bound_below_one():
    with pytest.raises(InputError):
        mutation_class(xy_seed(), bound=0)
