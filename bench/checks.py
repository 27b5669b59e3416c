"""Answer checks that do not use legclus.

Every expected value here is computed from the paper's closed forms or by
a numeric evaluation written for the benchmark alone:

- mutation classes and filling censuses number a product of Catalan
  numbers, rulings a product of Fibonacci numbers, and F_p point counts the
  product of f_n(q) = q^n - q^(n-1) + ... +- 1 at q = p;
- polynomial outputs are evaluated at seeded random points of GF(2^16)
  (Schwartz-Zippel) and of F_2, and compared with the same quantity
  evaluated by integer and GF(2^16) continuant folds;
- a Laurent polynomial over F_2 is a unit monomial exactly when
  f(x*y) = f(x) f(y) as polynomials and f is not 0, which is tested at
  random points the same way.

Polynomials enter as lists of ``{"exponents": {name: e}, "coefficient": c}``
dicts, the public JSON form of the program's output, so nothing here reads
the program's internal representation.
"""

from __future__ import annotations

import math
import operator
import random
import re
from typing import Iterable, Mapping, Sequence


class CheckError(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ----------------------------------------------------------------------
# closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def filling_count(blocks: Sequence[int]) -> int:
    """Filling classes: C(n1-1) * prod C(ni-2) * C(nk-1); C(n-1) for k = 1."""
    if len(blocks) == 1:
        return catalan(blocks[0] - 1)
    total = catalan(blocks[0] - 1) * catalan(blocks[-1] - 1)
    for n in blocks[1:-1]:
        total *= catalan(n - 2)
    return total


def seed_count(blocks: Sequence[int]) -> int:
    """Seeds of the mutation class: a product of A_n cluster types, so the
    filling product for k >= 2, and C(n) (type A_(n-1)) for one block."""
    if len(blocks) == 1:
        return catalan(blocks[0])
    return filling_count(blocks)


def ruling_count(blocks: Sequence[int]) -> int:
    """Normal rulings: F(n+1) for one block, else F(n1) * prod F(ni-1) * F(nk)."""
    if len(blocks) == 1:
        return fibonacci(blocks[0] + 1)
    total = fibonacci(blocks[0]) * fibonacci(blocks[-1])
    for n in blocks[1:-1]:
        total *= fibonacci(n - 1)
    return total


def f_value(n: int, q: int) -> int:
    return sum((-1) ** (n - j) * q**j for j in range(n + 1))


def point_count(blocks: Sequence[int], q: int) -> int:
    """F_q points of the augmentation variety: f_n1-1 * prod f_ni-2 * f_nk-1."""
    if len(blocks) == 1:
        return f_value(blocks[0], q)
    total = f_value(blocks[0] - 1, q) * f_value(blocks[-1] - 1, q)
    for n in blocks[1:-1]:
        total *= f_value(n - 2, q)
    return total


def fold(values: Iterable[int], p: int) -> int:
    """Integer continuant K_n(x1..xn) mod p."""
    prev, cur = 0, 1
    for x in reversed(list(values)):
        prev, cur = cur, (x * cur - prev) % p
    return cur


def defining_windows(blocks: Sequence[int]) -> list[tuple[list[int], bool]]:
    """The defining system of the augmentation variety: per block, the
    crossings of the retained window and whether its continuant must be
    nonzero (True) or zero (False).  Later blocks drop their first
    crossing; only the last window (or a single block's) is an inequation."""
    chords = block_chords(blocks)
    if len(blocks) == 1:
        return [(chords[0], True)]
    return [(chords[0], False)] + [(ch[1:], False) for ch in chords[1:-1]] + [(chords[-1][1:], True)]


BRUTE_FORCE_LIMIT = 20000


def brute_force_count(blocks: Sequence[int], p: int) -> int | None:
    """Point count by scanning every tuple of each block with the integer
    fold; None when a block has more than BRUTE_FORCE_LIMIT tuples."""
    import itertools

    total = 1
    for window, nonzero in defining_windows(blocks):
        length = len(window)
        if p**length > BRUTE_FORCE_LIMIT:
            return None
        hits = sum(
            1
            for tup in itertools.product(range(p), repeat=length)
            if (fold(tup, p) != 0) == nonzero
        )
        total *= hits
    return total


def check_point_count(blocks: Sequence[int], p: int, got: int) -> None:
    want = point_count(blocks, p)
    require(got == want, f"count_points {list(blocks)} over F{p}: {got}, closed form {want}")
    brute = brute_force_count(blocks, p)
    require(brute is None or brute == want, f"brute force {brute} != closed form {want}")


def fraction(blocks: Sequence[int]) -> tuple[int, int]:
    """p/q = K(n1..nk) / K(n2..nk) with p >= 0."""
    def kint(vals):
        prev, cur = 0, 1
        for x in reversed(list(vals)):
            prev, cur = cur, x * cur - prev
        return cur

    p, q = kint(blocks), kint(blocks[1:])
    return (-p, -q) if p < 0 else (p, q)


def isotopic(b1: Sequence[int], b2: Sequence[int]) -> bool:
    (p1, q1), (p2, q2) = fraction(b1), fraction(b2)
    if p1 != p2:
        return False
    if p1 == 0:
        return q1 == q2 or q1 * q2 == 1
    return (q1 - q2) % p1 == 0 or (q1 * q2 - 1) % p1 == 0


# ----------------------------------------------------------------------
# the block layout, re-derived from the paper


def block_chords(blocks: Sequence[int]) -> list[list[int]]:
    out, start = [], 0
    for n in blocks:
        out.append(list(range(start + 1, start + n + 1)))
        start += n
    return out


def polygon_sizes(blocks: Sequence[int]) -> list[int]:
    if len(blocks) == 1:
        return [blocks[0] + 1]
    return [blocks[0] + 1] + [n for n in blocks[1:-1]] + [blocks[-1] + 1]


def polygon_labels(blocks: Sequence[int]) -> list[list[str]]:
    """Crossing variable at each polygon vertex 1.. of each block."""
    chords = block_chords(blocks)
    if len(blocks) == 1:
        return [[f"a{c}" for c in chords[0][1:]]]
    return [[f"a{c}" for c in ch] if b == 0 else [f"a{c}" for c in ch[1:]] for b, ch in enumerate(chords)]


def pinchable(blocks: Sequence[int], survivors: Sequence[Sequence[int]]) -> list[int]:
    """Crossings that may be pinched next (first block: any while two
    remain; later blocks never their first survivor; middle blocks stop at
    two survivors, the last block and a single block at one)."""
    k = len(blocks)
    out: list[int] = []
    for b, block in enumerate(survivors):
        if b == 0 and k > 1:
            if len(block) > 1:
                out.extend(block)
        elif b == k - 1:
            if len(block) > 1:
                out.extend(block[1:])
        elif len(block) > 2:
            out.extend(block[1:])
    return out


def random_sequence(blocks: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """A complete pinching sequence, one uniform choice per step."""
    survivors = block_chords(blocks)
    where = {c: b for b, ch in enumerate(survivors) for c in ch}
    out = []
    while True:
        cands = pinchable(blocks, survivors)
        if not cands:
            return tuple(out)
        c = rng.choice(cands)
        survivors[where[c]].remove(c)
        out.append(c)


def mutable_vertices(blocks: Sequence[int]) -> list[int]:
    """1-based mutable vertices of the initial seed: one path per block of
    length n (k = 1), n1-1, ni-2, nk-1, each ending in a frozen vertex."""
    if len(blocks) == 1:
        lengths = [blocks[0]]
    else:
        lengths = [blocks[0] - 1] + [n - 2 for n in blocks[1:-1]] + [blocks[-1] - 1]
    out, offset = [], 0
    for length in lengths:
        out.extend(range(offset + 1, offset + length))
        offset += length
    return out


# ----------------------------------------------------------------------
# triangulations


def crosses(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (i, j), (k, l) = sorted(a), sorted(b)
    return i < k < j < l or k < i < l < j


def check_triangulation(n: int, diagonals: Iterable[tuple[int, int]]) -> None:
    diags = [tuple(sorted(d)) for d in diagonals]
    want = max(n - 3, 0)
    require(len(set(diags)) == len(diags) == want, f"{n}-gon has {len(diags)} diagonals, needs {want}")
    for i, j in diags:
        side = j - i == 1 or (i == 1 and j == n)
        require(1 <= i < j <= n and not side, f"({i},{j}) is not a diagonal of a {n}-gon")
    for x in range(len(diags)):
        for y in range(x + 1, len(diags)):
            require(not crosses(diags[x], diags[y]), f"diagonals {diags[x]} and {diags[y]} cross")


_TRI_TEXT = re.compile(r"T\((\d+)\):\s*(.*)$")


def parse_triangulation(text: str) -> tuple[int, list[tuple[int, int]]]:
    """'T(6): 13,14,15' or, from 10 vertices on, 'T(10): 1-3,1-4'."""
    m = _TRI_TEXT.match(text.strip())
    require(m is not None, f"unreadable triangulation {text!r}")
    n, body = int(m.group(1)), m.group(2).strip()
    diags = []
    for part in filter(None, body.split(",")):
        if "-" in part:
            i, j = part.split("-")
        else:
            require(len(part) == 2, f"unreadable diagonal {part!r}")
            i, j = part
        diags.append((int(i), int(j)))
    return n, diags


# ----------------------------------------------------------------------
# GF(2^16)


class GF16:
    """GF(2^16) by log tables over the primitive polynomial
    x^16 + x^12 + x^3 + x + 1.  Built on first use."""

    ORDER = 65535
    _exp: list[int] = []
    _log: list[int] = []

    @classmethod
    def tables(cls) -> tuple[list[int], list[int]]:
        if not cls._exp:
            exp = [0] * (2 * cls.ORDER)
            log = [0] * (cls.ORDER + 1)
            x = 1
            for i in range(cls.ORDER):
                exp[i] = exp[i + cls.ORDER] = x
                log[x] = i
                x <<= 1
                if x & 0x10000:
                    x ^= 0x1100B
            cls._exp, cls._log = exp, log
        return cls._exp, cls._log

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        if not a or not b:
            return 0
        exp, log = cls.tables()
        return exp[log[a] + log[b]]

    @classmethod
    def inv(cls, a: int) -> int:
        require(a != 0, "inverting 0 in GF(2^16)")
        exp, log = cls.tables()
        return exp[cls.ORDER - log[a]]


def gf_fold(values: Iterable[int]) -> int:
    """Continuant over GF(2^16) (subtraction is addition in characteristic 2)."""
    prev, cur = 0, 1
    for x in reversed(list(values)):
        prev, cur = cur, GF16.mul(x, cur) ^ prev
    return cur


def random_gf_point(names: Iterable[str], rng: random.Random) -> dict[str, int]:
    return {n: rng.randrange(1, GF16.ORDER + 1) for n in names}


# ----------------------------------------------------------------------
# the dg-algebra differentials


def expected_differentials(blocks: Sequence[int], point: Mapping[str, int]) -> dict[str, int]:
    """Values over GF(2^16) (which holds F_2) of every differential at a
    point, from window continuants and the two-boundary disk recursion."""
    mul, inv = GF16.mul, GF16.inv
    k = len(blocks)
    chords = block_chords(blocks)

    def window(block: int, lo: int, hi: int) -> int:  # 0-based slice [lo, hi)
        if hi - lo < 0:
            return 0  # K_-1
        prev, cur = 0, 1
        for x in reversed([point[f"a{c}"] for c in chords[block][lo:hi]]):
            prev, cur = cur, mul(x, cur) ^ prev
        return cur

    def K(i):  # noqa: N802 - block i is 1-based
        return window(i - 1, 0, blocks[i - 1])

    def KL(i):  # noqa: N802
        return window(i - 1, 0, blocks[i - 1] - 1)

    def KM(i):  # noqa: N802
        return window(i - 1, 1, blocks[i - 1] - 1)

    def KR(i):  # noqa: N802
        return window(i - 1, 1, blocks[i - 1])

    out = {f"a{j}": 0 for j in range(1, sum(blocks) + 1)}
    t1, t2, b1 = point["t1"], point["t2"], point["b1"]
    if k == 1:
        out["b1"] = K(1) ^ t1
        out["b2"] = K(1) ^ t2
        return out
    m = [sum(blocks[: i + 1]) for i in range(k)]
    out[f"a{m[0] + 1}"] = K(1)
    prod = KL(1)
    for i in range(2, k):
        out[f"a{m[i - 1] + 1}"] = mul(prod, KR(i))
        prod = mul(prod, KM(i))
    out["b1"] = mul(prod, KR(k)) ^ t1

    def disk(top: int):
        d13, d14, d24, d34 = mul(KM(2), KL(1)), mul(KL(2), KL(1)), mul(K(2), KL(1)), K(1)
        for j in range(4, top + 1, 2):
            cross = mul(KL(j - 1), d34) ^ mul(KM(j - 1), d24)
            d13, d14, d24, d34 = (
                mul(mul(KM(j), KM(j - 1)), d13),
                mul(KL(j), cross) ^ mul(KM(j), d14),
                mul(KR(j), d14) ^ mul(K(j), cross),
                mul(K(j - 1), d34) ^ mul(KR(j - 1), d24),
            )
        return d13, d14, d24, d34

    if k % 2 == 1:
        _, _, d24, d34 = disk(k - 1)
        out["b2"] = mul(K(k), d34) ^ mul(KR(k), d24) ^ t2
    else:
        d13, d14, d24, d34 = disk(k)
        t1i = inv(t1)
        out["b2"] = d14 ^ mul(mul(mul(d34, b1), t1i), d13) ^ mul(mul(d24, t1i), d13) ^ t2
    return out


def dga_names(blocks: Sequence[int]) -> list[str]:
    return [f"a{j}" for j in range(1, sum(blocks) + 1)] + ["b1", "b2", "t1", "t2"]


class TermRows:
    """The odd terms of a polynomial, kept for fast evaluation at many
    points."""

    def __init__(self, terms: Sequence[Mapping], names: Sequence[str]) -> None:
        bit = {n: 1 << i for i, n in enumerate(names)}
        self.names = list(names)
        self.terms = []
        self.masks = []
        for term in terms:
            exps = term["exponents"]
            require(bit.keys() >= exps.keys(), f"unknown variables {sorted(set(exps) - set(bit))}")
            if term["coefficient"] % 2:
                self.terms.append((tuple(exps), tuple(exps.values())))
                self.masks.append(sum(map(bit.__getitem__, exps)))

    def gf(self, point: Mapping[str, int]) -> int:
        """Value at a GF(2^16) point with every coordinate nonzero."""
        exp, log = GF16.tables()
        logs = {n: log[point[n]] for n in self.names}
        total = 0
        for names, exps in self.terms:
            total ^= exp[sum(map(operator.mul, exps, map(logs.__getitem__, names))) % GF16.ORDER]
        return total

    def f2(self, point: Mapping[str, int]) -> int:
        """Value at an F_2 point (a term is 1 when all its variables are)."""
        zeros = sum(1 << i for i, n in enumerate(self.names) if point[n] % 2 == 0)
        return sum(1 for mask in self.masks if not mask & zeros) & 1


GF_POINTS = 2  # random GF(2^16) points per differential check
F2_POINTS = 2  # random F_2 points per differential check


def check_differentials(blocks: Sequence[int], diffs: Mapping[str, Sequence[Mapping]], rng: random.Random) -> None:
    """Each differential (as JSON terms) must agree with the benchmark's own
    evaluation at GF_POINTS random GF(2^16) points and F2_POINTS random F_2
    points."""
    names = dga_names(blocks)
    gens = [f"a{j}" for j in range(1, sum(blocks) + 1)] + ["b1", "b2"]
    require(sorted(diffs) == sorted(gens), f"generators {sorted(diffs)} != {sorted(gens)}")
    points = [(random_gf_point(names, rng), False) for _ in range(GF_POINTS)]
    for _ in range(F2_POINTS):
        pt = {n: rng.randrange(2) for n in names}
        pt["t1"] = pt["t2"] = 1
        points.append((pt, True))
    rows = {g: TermRows(diffs[g], names) for g in gens}
    for pt, is_f2 in points:
        want = expected_differentials(blocks, pt)
        for g in gens:
            got = rows[g].f2(pt) if is_f2 else rows[g].gf(pt)
            require(got == want[g], f"d({g}) of {list(blocks)} is {got} at {'an F2' if is_f2 else 'a GF(2^16)'} point, expected {want[g]}")


def check_augmentations(
    blocks: Sequence[int], diffs: Mapping[str, Sequence[Mapping]], points: Sequence[Mapping[str, int]]
) -> None:
    """Every point (retained coordinates and the forced t1, t2 in F_2),
    lifted with free chords = 0 and b1 = 0, must kill every differential."""
    names = dga_names(blocks)
    rows = {g: TermRows(terms, names) for g, terms in diffs.items()}
    for pt in points:
        full = {n: pt.get(n, 0) % 2 for n in names}
        require(full["t1"] == full["t2"] == 1, f"forced base points {pt['t1']}, {pt['t2']} are not units")
        for g, r in rows.items():
            require(r.f2(full) == 0, f"d({g}) of {list(blocks)} does not vanish at augmentation {dict(pt)}")


# ----------------------------------------------------------------------
# pinching charts


CHART_TRIALS = 2  # random point pairs (x, y) per chart check


def check_chart(
    blocks: Sequence[int],
    images: Mapping[str, Sequence[Mapping]],
    triangulations: Sequence[tuple[int, Sequence[tuple[int, int]]]],
    units: Sequence[str],
    t1: Sequence[Mapping],
    t2: Sequence[Mapping],
    rng: random.Random,
) -> None:
    """The unit parametrization of one complete pinching sequence.

    ``images`` maps each retained crossing variable to its image (JSON
    terms in the units).  Checks: each block triangulation is valid for its
    polygon; the defining system holds identically (equation windows
    vanish, the inequation window is a unit); every cluster variable of the
    assigned seed and both base points map to unit monomials; t1 equals its
    window-product formula.
    """
    k = len(blocks)
    sizes = polygon_sizes(blocks)
    require(len(triangulations) == k, f"{len(triangulations)} triangulations for {k} blocks")
    for b, (n, diags) in enumerate(triangulations):
        require(n == sizes[b], f"block {b + 1} polygon has {n} vertices, expected {sizes[b]}")
        check_triangulation(n, diags)

    # values at x, y and x*y for each trial; a unit f has f(xy) = f(x) f(y)
    rows = {g: TermRows(t, units) for g, t in images.items()}
    rows["t1"], rows["t2"] = TermRows(t1, units), TermRows(t2, units)
    samples = []
    for _ in range(CHART_TRIALS):
        x = random_gf_point(units, rng)
        y = random_gf_point(units, rng)
        xy = {n: GF16.mul(x[n], y[n]) for n in units}
        samples.append(tuple({g: r.gf(pt) for g, r in rows.items()} for pt in (x, y, xy)))

    def unit(f) -> bool:
        for vx, vy, vxy in samples:
            fx = f(vx)
            if fx == 0 or f(vxy) != GF16.mul(fx, f(vy)):
                return False
        return True

    def window(names):
        return lambda vals: gf_fold(vals[n] for n in names)

    for chord_list, is_unit in defining_windows(blocks):
        w = window([f"a{c}" for c in chord_list])
        if is_unit:
            require(unit(w), f"inequation window {chord_list} is not a unit")
        else:
            require(all(w(v) == 0 for s in samples for v in s), f"equation window {chord_list} does not vanish")

    labels = polygon_labels(blocks)
    for b, (n, diags) in enumerate(triangulations):
        lab = labels[b]
        for i, j in [tuple(sorted(d)) for d in diags] + [(n - 1, n)]:
            names = lab[i : j - 1] if j < n else lab[: i - 1]
            require(unit(window(names)), f"cluster variable of block {b + 1} edge ({i},{j}) is not a unit")

    for name in ("t1", "t2"):
        require(unit(lambda vals, g=name: vals[g]), f"{name} is not a unit")
    chords = block_chords(blocks)
    if k == 1:
        t1_windows = [chords[0]]
    else:
        t1_windows = [chords[0][:-1]] + [ch[1:-1] for ch in chords[1:-1]] + [chords[-1][1:]]
    for vals in samples[0]:
        want = 1
        for ch in t1_windows:
            want = GF16.mul(want, window([f"a{c}" for c in ch])(vals))
        require(vals["t1"] == want, "t1 differs from its window product")


def check_class_tuples(blocks: Sequence[int], per_block: Sequence[Sequence[tuple[int, Sequence[tuple[int, int]]]]]) -> None:
    """The distinct per-block triangulations number the Catalan product."""
    sizes = polygon_sizes(blocks)
    total = 1
    for n, tris in zip(sizes, per_block):
        keys = set()
        for size, diags in tris:
            require(size == n, f"triangulation of a {size}-gon in an {n}-gon block")
            check_triangulation(n, diags)
            keys.add(frozenset(tuple(sorted(d)) for d in diags))
        require(len(keys) == catalan(n - 2), f"{len(keys)} triangulations of the {n}-gon, expected C({n - 2})")
        total *= len(keys)
    require(total == filling_count(blocks), f"class tuples {total} != Catalan product {filling_count(blocks)}")


# ----------------------------------------------------------------------
# canonical text of F_2 polynomials


def parse_f2_text(text: str) -> list[dict]:
    """Terms of a canonical text over F_2 such as 'a1*a2^2*t1^-1 + 1'."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for piece in text.split(" + "):
        require(not piece.startswith("-") and " - " not in piece, f"sign in an F2 polynomial: {piece!r}")
        exps: dict[str, int] = {}
        if piece != "1":
            for factor in piece.split("*"):
                name, _, e = factor.partition("^")
                require(re.fullmatch(r"[a-z]\d+", name) is not None, f"unreadable factor {factor!r}")
                exps[name] = int(e) if e else 1
        out.append({"exponents": exps, "coefficient": 1})
    return out
