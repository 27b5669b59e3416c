"""Admissible pinching sequences and the torus charts they induce.

Pinching a crossing replaces it by a fresh unit s and corrects the two
same-block neighbors: with accumulated gap units u (left) and v (right),
the pinched generator maps to s, the left neighbor gains (u^2 s)^-1, the
right neighbor gains (v^2 s)^-1, and the two gaps merge to u*s*v.  Gaps at
block ends are tracked the same way so later end pinches see the
accumulated units.  Corrections never cross block boundaries, and every
image holds only its own crossing variable and units, so a pinch updates
just the three images it changes.

A complete sequence leaves one crossing in the outer blocks and two in the
middle ones; the terminal link's retained coordinates are the all-zero
point, so surviving generators are sent to 0 (a single-block word instead
keeps a one-parameter terminal circle, swept by one extra unit).  Each
pinch also emits the diagonal joining its polygon-vertex neighbors, reading
off a per-block triangulation and hence a cluster seed.  A single block
pinches any n - 1 of its n crossings and so triangulates its (n+2)-gon:
the (2,n) torus link has C_n filling classes.

Every chart value is the continuant of the chart images of a chord
window: t1 multiplies those of the seed windows, t2 runs the same
``dga.disk_recursion`` as d(b2), and the seed check reads the edge windows
(``BlockLayout.edge_window``) of each block's diagonals and frozen side.

The word owns its block plan: ``BridgeWord.layouts`` holds one
``BlockLayout`` per block (chords, polygon size, crossing -> vertex map,
candidate rule), built once per word object.  One walker,
``BlockWalk.pinch``, rejects a crossing that is not pinchable now, drops
the pinched vertex from the block's ring of active polygon vertices and
emits the neighbor diagonal unless it is a side.  Everything that follows
a sequence steps through it: ``PinchState`` (with the substitution algebra
on top), ``sequence_to_triangulations``, the commutation moves of
``_neighbor_sequences`` and the representatives.  The emitted
triangulations give the seed by ``polygon.block_seed``.  The filling
census checks its Catalan-product size against the budget before it
builds a triangulation, then runs the per-block greedy of
``representative_sequence`` once per triangulation of each block and
checks that order on a walk of its block alone (``_checked_block``): an
order that is not admissible, not complete or does not emit exactly its
target's diagonals raises ``AlgebraError``.  Block walks never read
another block, so the census joins the checked orders in
``itertools.product`` order without walking the joined sequences.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul
from typing import Callable, Iterator, Sequence

from .augvar import defining_system
from .bridge import BridgeWord, a_name
from .cluster import Seed, merge_seeds
from .continuant import BlockContinuants, continuant
from .dga import disk_recursion
from .errors import AlgebraError, BudgetError, InputError
from .polygon import BlockLayout, Edge, Triangulation, block_seed, is_side, triangulations
from .ring import Coefficients, LaurentPolynomial, VariableTable

F2 = Coefficients.prime_field(2)


def unit_count(word: BridgeWord) -> int:
    """Number of base-point units of a complete filling: m_k - 2k + 2."""
    return word.total - 2 * word.k + 2


def pinch_count(word: BridgeWord) -> int:
    """Length of a complete admissible sequence."""
    return sum(len(layout.chords) - layout.keep for layout in word.layouts)


def run_table(word: BridgeWord) -> VariableTable:
    s_names = [f"s{i}" for i in range(1, unit_count(word) + 1)]
    names = [a_name(j) for j in range(1, word.total + 1)] + s_names
    return VariableTable(names, invertible=s_names)


@dataclass
class PinchRecord:
    """``same_component``: the crossing's strands lie on one component of
    the plat closure of the crossings surviving just before the pinch,
    which changes as pinches remove crossings."""

    chord: int
    unit: str
    same_component: bool


class BlockWalk:
    """One block's pinch walk: its surviving crossings, the ring of still
    active polygon vertices, and the diagonals emitted so far."""

    __slots__ = ("layout", "survivors", "active", "emitted")

    def __init__(self, layout: BlockLayout) -> None:
        self.layout = layout
        self.survivors = list(layout.chords)
        self.active = list(range(1, layout.size + 1))
        self.emitted: set[Edge] = set()

    def candidates(self) -> list[int]:
        return self.layout.candidates(self.survivors)

    def diagonal(self, c: int) -> Edge | None:
        """The diagonal that pinching c would emit; None for a side."""
        active = self.active
        i = active.index(self.layout.vertex_of[c])
        left, right = active[i - 1], active[(i + 1) % len(active)]
        edge = (left, right) if left < right else (right, left)
        return None if is_side(self.layout.size, edge) else edge

    def pinch(self, c: int) -> int:
        """Drop c and its polygon vertex and emit the neighbor diagonal;
        returns c's position among the survivors it leaves.  This is the
        one admissibility check of a followed sequence: c must be a
        candidate now."""
        if c not in self.candidates():
            raise InputError(f"crossing {c} is not pinchable now")
        edge = self.diagonal(c)
        if edge is not None:
            self.emitted.add(edge)
        self.active.remove(self.layout.vertex_of[c])
        pos = self.survivors.index(c)
        del self.survivors[pos]
        return pos

    def triangulation(self) -> Triangulation:
        return Triangulation(self.layout.size, frozenset(self.emitted))


def _candidates(walks: Sequence[BlockWalk]) -> list[int]:
    """Currently pinchable crossings of all blocks, in crossing order (the
    rule of each block is ``BlockLayout.candidates``)."""
    return [c for walk in walks for c in walk.candidates()]


def _walk_block(word: BridgeWord, c: int) -> int:
    """The block whose walk pinches c.  A crossing past the last block goes
    to the last one, whose ``BlockWalk.pinch`` rejects it like any other
    crossing that is not pinchable now."""
    return bisect_left(word.m, c, hi=word.k - 1)


def _walk(word: BridgeWord, chords: Sequence[int]) -> list[BlockWalk]:
    """Walk a complete admissible sequence through fresh block walks."""
    walks = [BlockWalk(layout) for layout in word.layouts]
    for c in chords:
        walks[_walk_block(word, c)].pinch(c)
    if _candidates(walks):
        raise InputError("sequence is not complete")
    return walks


class PinchState:
    """Mutable bookkeeping for one pinching run.

    A survivor a_c's image is a_c plus units and a pinched one's holds
    units only, so a pinch changes no image but those of c and of its
    surviving neighbors."""

    def __init__(self, word: BridgeWord) -> None:
        self.word = word
        self.walks = [BlockWalk(layout) for layout in word.layouts]
        self.table = run_table(word)
        one = LaurentPolynomial.constant(self.table, F2, 1)
        self.gaps: list[list[LaurentPolynomial]] = [
            [one] * (len(walk.survivors) + 1) for walk in self.walks
        ]
        self.images: dict[str, LaurentPolynomial] = {
            a_name(j): LaurentPolynomial.variable(self.table, F2, a_name(j))
            for j in range(1, word.total + 1)
        }
        self.records: list[PinchRecord] = []

    # ------------------------------------------------------------------

    @property
    def survivors(self) -> list[list[int]]:
        return [walk.survivors for walk in self.walks]

    def pinchable_chords(self) -> list[int]:
        return _candidates(self.walks)

    @property
    def complete(self) -> bool:
        return not self.pinchable_chords()

    def apply_pinch(self, c: int) -> None:
        b = _walk_block(self.word, c)
        same = self._same_component(b)
        block = self.walks[b].survivors
        pos = self.walks[b].pinch(c)
        u, v = self.gaps[b][pos : pos + 2]
        s = LaurentPolynomial.variable(self.table, F2, f"s{len(self.records) + 1}")
        self.images[a_name(c)] = self.images[a_name(c)].substitute({a_name(c): s})
        if pos > 0:
            self.images[a_name(block[pos - 1])] += (u * u * s).invert_unit()
        if pos < len(block):
            self.images[a_name(block[pos])] += (v * v * s).invert_unit()
        self.gaps[b][pos : pos + 2] = [u * s * v]
        self.records.append(PinchRecord(c, s.canonical_text(), same))

    def _same_component(self, block: int) -> bool:
        """One walk over the blocks holds the left strand end in each of the
        four slots: a crossing of an even (0-based) block swaps slots 2, 3
        and one of an odd block slots 1, 2.  The left cusps pair the ends
        {1, 2} and {3, 4}; the strands of a crossing of ``block`` share a
        component when a right-cusp pair joins the two groups (a knot) or
        they lie in one group."""
        ends = [1, 2, 3, 4]
        for b, walk in enumerate(self.walks):
            i = 1 if b % 2 == 0 else 0
            if b == block:
                strands = ends[i : i + 2]
            if len(walk.survivors) % 2:  # an even count of swaps cancels
                ends[i], ends[i + 1] = ends[i + 1], ends[i]
        right = ((0, 1), (2, 3)) if self.word.k % 2 else ((1, 2), (0, 3))
        if any((ends[x] > 2) != (ends[y] > 2) for x, y in right):
            return True
        return (strands[0] > 2) == (strands[1] > 2)

    # ------------------------------------------------------------------

    def block_triangulations(self) -> tuple[Triangulation, ...]:
        return tuple(walk.triangulation() for walk in self.walks)


def sequence_to_triangulations(word: BridgeWord, seq: Sequence[int]) -> tuple[Triangulation, ...]:
    """Per-block triangulations read off a complete admissible sequence,
    without the substitution algebra."""
    return tuple(walk.triangulation() for walk in _walk(word, seq))


@dataclass(frozen=True)
class RunResult:
    word: BridgeWord
    sequence: tuple[int, ...]
    triangulations: tuple[Triangulation, ...]
    seed: Seed
    parametrization: dict[str, LaurentPolynomial]
    images: dict[str, LaurentPolynomial]
    t1: LaurentPolynomial
    t2: LaurentPolynomial
    records: tuple[PinchRecord, ...]


def run_sequence(word: BridgeWord, seq: Sequence[int]) -> RunResult:
    """Apply a complete admissible sequence; returns the triangulation
    tuple, the assigned seed, the unit parametrization of the retained
    coordinates, and the forced base-point monomials."""
    chords = tuple(seq)
    state = PinchState(word)
    for c in chords:
        state.apply_pinch(c)
    if not state.complete:
        raise InputError(
            f"sequence of length {len(chords)} is not complete for {word}"
        )

    zero = LaurentPolynomial.zero(state.table, F2)
    if word.k == 1:
        value = LaurentPolynomial.variable(state.table, F2, f"s{unit_count(word)}")
    else:
        value = zero
    eps = dict(state.images)
    for c in itertools.chain.from_iterable(state.survivors):
        eps[a_name(c)] = eps[a_name(c)].substitute({a_name(c): value})
    window = _chart_window(eps, state.table)

    # the defining system must hold identically in the units
    for chord_list, nonzero in defining_system(word):
        image = window(chord_list)
        if nonzero:
            if not image.is_unit():
                raise AlgebraError(f"inequation image {image} is not a unit")
        elif not image.is_zero:
            raise AlgebraError(f"equation image {image} does not vanish")

    t1 = reduce(mul, map(window, word.seed_windows))
    blocks = [BlockContinuants(word.block_chords(i), window, zero) for i in range(word.k)]
    t2 = _image_t2(blocks, t1)
    if not (t1.is_unit() and t2.is_unit()):
        raise AlgebraError("forced base-point images are not units")

    tris = state.block_triangulations()
    seed = merge_seeds([block_seed(word, layout, t) for layout, t in zip(word.layouts, tris)])
    retained = sorted(a_name(c) for chords in word.retained_chords for c in chords)
    parametrization = {g: eps[g] for g in retained}
    return RunResult(
        word,
        chords,
        tris,
        seed,
        parametrization,
        eps,
        t1,
        t2,
        tuple(state.records),
    )


def chart_image(res: RunResult, poly: LaurentPolynomial) -> LaurentPolynomial:
    """Image of an integer polynomial in the crossing variables under the
    chart parametrization (coefficients first reduced mod 2)."""
    reduced = poly.reduce_mod(2) if poly.ring.p is None else poly
    table = res.t1.table
    out = LaurentPolynomial.zero(table, F2)
    for exps, c in reduced.items():
        term = LaurentPolynomial.constant(table, F2, c)
        for i, e in enumerate(exps):
            if e:
                term = term * res.images[reduced.table.names[i]] ** e
        out = out + term
    return out


def is_torus_chart(res: RunResult) -> bool:
    """True when every cluster variable of the assigned seed, the edge window
    continuant of a block diagonal or frozen side, maps to a unit monomial."""
    window = _chart_window(res.images, res.t1.table)
    return all(
        window(layout.edge_window(e)).is_unit()
        for layout, t in zip(res.word.layouts, res.triangulations)
        for e in (*t.diagonals, layout.frozen_side)
    )


def _chart_window(images: dict[str, LaurentPolynomial], table: VariableTable) -> Callable:
    """A chord window -> the continuant of its chart images."""
    return lambda chords: continuant([images[a_name(c)] for c in chords], table, F2)


def _image_t2(blocks: Sequence[BlockContinuants], t1: LaurentPolynomial) -> LaurentPolynomial:
    """Chart image of the second closure product: ``dga.disk_recursion``
    on the chart images of the block windows."""
    k = len(blocks)
    if k == 1:
        return blocks[0].K
    if k % 2 == 1:
        _, _, _, d24, d34 = disk_recursion(blocks[:-1])
        return blocks[-1].K * d34 + blocks[-1].K_R * d24
    d13, d14, _, d24, d34 = disk_recursion(blocks)
    if not d34.is_zero:
        raise AlgebraError("two-boundary image D34 should vanish on the chart")
    return d14 + d24 * t1.invert_unit() * d13


# ----------------------------------------------------------------------
# enumeration of sequences and commutation classes


def enumerate_complete_sequences(word: BridgeWord) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of all complete admissible sequences (over
    all interleavings of the blocks)."""
    layouts = word.layouts

    def rec(survivors: list[list[int]], prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        complete = True
        for b, layout in enumerate(layouts):
            for c in layout.candidates(survivors[b]):
                complete = False
                nxt = list(survivors)
                nxt[b] = [x for x in survivors[b] if x != c]
                yield from rec(nxt, prefix + (c,))
        if complete:
            yield prefix

    yield from rec([list(layout.chords) for layout in layouts], ())


def _neighbor_sequences(word: BridgeWord, seq: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Sequences one commutation move away, read off one walk of ``seq``:
    adjacent transpositions of pinches that are not linked-list neighbors
    at the earlier moment, then, for the blocks in order of first
    occurrence, the swap of a block's final pinch for another candidate
    of that moment when it happens on a triangle of active vertices.
    There it emits a side or an already-present diagonal whichever
    candidate it takes, and every later pinch lies in another block, so
    a swap stays complete and admissible and keeps the triangulation
    tuple.  Every final pinch of a word of several blocks happens on a
    triangle; that of a single block happens on a quadrilateral, where
    each candidate emits a different new diagonal, so it has no swap."""
    walks = [BlockWalk(layout) for layout in word.layouts]
    finals: dict[int, tuple[int, list[int]]] = {}
    for r, c in enumerate(seq):
        b = word.block_of(c)
        walk = walks[b]
        if r + 1 < len(seq):
            d = seq[r + 1]
            block = walk.survivors
            if word.block_of(d) != b or abs(block.index(c) - block.index(d)) >= 2:
                yield seq[:r] + (d, c) + seq[r + 2 :]
        finals[b] = (r, walk.candidates() if len(walk.active) == 3 else [])
        walk.pinch(c)
    for r, candidates in finals.values():
        for c in candidates:
            if c != seq[r]:
                yield seq[:r] + (c,) + seq[r + 1 :]


def _orbit(word: BridgeWord, start: tuple[int, ...], cap: int) -> Iterator[tuple[int, ...]]:
    """The commutation orbit of ``start``, breadth first: each sequence is
    yielded when first reached (``start`` first), before the cap check."""
    seen = {start}
    frontier = [start]
    yield start
    while frontier:
        nxt = []
        for s in frontier:
            for t in _neighbor_sequences(word, s):
                if t not in seen:
                    yield t
                    if len(seen) >= cap:
                        raise BudgetError("commutation orbit exceeds the search cap")
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt


def commutation_equivalent(
    word: BridgeWord, s1: Sequence[int], s2: Sequence[int], cap: int = 200000
) -> bool:
    """Reachability under commutation moves, computed by orbit search."""
    a, b = tuple(s1), tuple(s2)
    _walk(word, a)
    _walk(word, b)
    return any(t == b for t in _orbit(word, a, cap))


def canonical_sequence(word: BridgeWord, seq: Sequence[int], cap: int = 200000) -> tuple[int, ...]:
    """Lexicographically least sequence in the commutation orbit."""
    a = tuple(seq)
    _walk(word, a)
    return min(_orbit(word, a, cap))


# ----------------------------------------------------------------------
# filling classes


def _block_greedy(layout: BlockLayout, target: Triangulation) -> tuple[int, ...]:
    """Pinch order of one block whose emitted diagonals stay inside the
    target: at every step the first candidate that emits a side or one of
    the target's diagonals."""
    walk = BlockWalk(layout)
    out = []
    while candidates := walk.candidates():
        for c in candidates:
            edge = walk.diagonal(c)
            if edge is None or edge in target.diagonals:
                break
        else:
            raise AlgebraError(f"no pinch compatible with {target} in block {layout.chords}")
        walk.pinch(c)
        out.append(c)
    return tuple(out)


def _checked_block(layout: BlockLayout, target: Triangulation, order: Sequence[int]) -> tuple[int, ...]:
    """The block's pinch order itself, once a walk of that block alone has
    confirmed that it is admissible, complete and emits exactly the
    target's diagonals."""
    walk = BlockWalk(layout)
    try:
        for c in order:
            walk.pinch(c)
    except InputError as exc:
        raise AlgebraError(f"pinch order {order} of block {layout.chords} is not admissible: {exc}") from None
    if walk.candidates():
        raise AlgebraError(f"pinch order {order} of block {layout.chords} is not complete")
    if walk.emitted != target.diagonals:
        raise AlgebraError(f"pinch order {order} does not reproduce {target}")
    return tuple(order)


def representative_sequence(
    word: BridgeWord, target: Sequence[Triangulation]
) -> tuple[int, ...]:
    """A complete admissible sequence whose emitted diagonals reproduce the
    given per-block triangulations: the checked greedy order of each block,
    blocks pinched left to right."""
    layouts = word.layouts
    if len(target) != len(layouts):
        raise InputError(f"{word} needs {len(layouts)} triangulations, got {len(target)}")
    if any(t.n != layout.size for layout, t in zip(layouts, target)):
        raise InputError("triangulation size mismatch")
    return tuple(
        c for layout, t in zip(layouts, target) for c in _checked_block(layout, t, _block_greedy(layout, t))
    )


@dataclass(frozen=True)
class FillingCensus:
    word: BridgeWord
    count: int
    per_block_counts: tuple[int, ...]
    representatives: tuple[tuple[int, ...], ...]


def catalan(n: int) -> int:
    from math import comb

    return comb(2 * n, n) // (n + 1)


def expected_filling_count(word: BridgeWord) -> int:
    """The Catalan product over the seed windows: C_{n1-1} C_{n2-2} ...
    C_{nk-1}, and C_n for a single block, the C_n fillings of the max-tb
    (2,n) torus link (Y. Pan, Pacific J. Math. 289, 2017)."""
    return prod(catalan(len(window)) for window in word.seed_windows)


def enumerate_filling_classes(word: BridgeWord, budget: int = 100000) -> FillingCensus:
    """Distinct per-block triangulation tuples over all admissible complete
    sequences, each with the representative of ``representative_sequence``:
    the checked greedy order of every block triangulation is computed once,
    and the orders are joined in ``itertools.product`` order."""
    layouts = word.layouts
    # C_{N-2} triangulations per N-gon, counted before any is built
    total = prod(catalan(layout.size - 2) for layout in layouts)
    if total > budget:
        raise BudgetError(f"{total} filling classes exceed the budget {budget}")
    orders = [
        [_checked_block(layout, t, _block_greedy(layout, t)) for t in triangulations(layout.size)]
        for layout in layouts
    ]
    reps = tuple(tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*orders))
    counts = tuple(map(len, orders))
    return FillingCensus(word, prod(counts), counts, reps)
