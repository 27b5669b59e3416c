"""Triangulated polygon models for the per-block cluster structure.

Vertices of an N-gon are labeled 1..N clockwise.  Block polygons attach one
vertex per retained crossing of the block (plus one unlabeled corner, two
in the last block) and retain a single frozen side between vertices N-1
and N; every diagonal or side carries the continuant of a window of the
block's crossing variables, by the one rule of ``BlockLayout.edge_window``:

    (i, j) with j < N   ->  K_{j-i-1}(x_{i+1}, ..., x_{j-1})
    (i, N)              ->  K_{i-1}(x_1, ..., x_{i-1})

so sides other than the frozen one carry the constant 1, and the frozen
side carries the longest window continuant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .bridge import BridgeWord
from .cluster import Quiver, Seed
from .dga import window_continuant
from .errors import InputError
from .ring import Coefficients

Edge = tuple[int, int]


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def polygon_sides(n: int) -> set[Edge]:
    return {(i, i + 1) for i in range(1, n)} | {(1, n)}


def is_side(n: int, e: Edge) -> bool:
    i, j = e
    return j - i == 1 or (i == 1 and j == n)


def edges_cross(a: Edge, b: Edge) -> bool:
    """Strict interior crossing of two chords of a convex polygon."""
    (i, j), (k, l) = a, b
    return (i < k < j < l) or (k < i < l < j)


def _crossing_pair(diagonals: Iterable[Edge]) -> tuple[Edge, Edge] | None:
    """Two diagonals that cross, or None, by one sweep over the left
    endpoints.  Sorted by (i, -j), the open diagonals form a nested stack;
    a new (i, j) crosses the innermost open (a, b) when a < i < b < j,
    and if it does not cross that one it crosses no other."""
    stack: list[Edge] = []
    for d in sorted(diagonals, key=lambda e: (e[0], -e[1])):
        while stack and stack[-1][1] <= d[0]:
            stack.pop()
        if stack and stack[-1][1] < d[1]:
            return stack[-1], d
        stack.append(d)
    return None


@dataclass(frozen=True)
class Triangulation:
    n: int
    diagonals: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonals", frozenset(_norm_edge(*d) for d in self.diagonals))
        if self.n < 3:
            if self.diagonals:
                raise InputError("degenerate polygons have no diagonals")
            return
        for d in self.diagonals:
            if not (1 <= d[0] < d[1] <= self.n) or is_side(self.n, d):
                raise InputError(f"{d} is not a diagonal of a {self.n}-gon")
        crossing = _crossing_pair(self.diagonals)
        if crossing:
            raise InputError(f"diagonals {crossing[0]} and {crossing[1]} cross")
        if len(self.diagonals) != self.n - 3:
            raise InputError(
                f"a triangulation of a {self.n}-gon needs {self.n - 3} diagonals"
            )

    @property
    def edges(self) -> set[Edge]:
        return polygon_sides(self.n) | set(self.diagonals)

    def triangles(self) -> list[tuple[int, int, int]]:
        """All 3-cliques in the edge set; for a convex polygon these are
        exactly the triangles of the subdivision."""
        edges = self.edges
        out = []
        for i, j in sorted(edges):
            for k in range(j + 1, self.n + 1):
                if _norm_edge(i, k) in edges and _norm_edge(j, k) in edges:
                    out.append((i, j, k))
        return out

    def flip(self, d: Edge) -> "Triangulation":
        d = _norm_edge(*d)
        if d not in self.diagonals:
            raise InputError(f"{d} is not present")
        i, j = d
        edges = self.edges
        apexes = [
            x
            for x in range(1, self.n + 1)
            if x not in d and _norm_edge(i, x) in edges and _norm_edge(j, x) in edges
        ]
        if len(apexes) != 2:
            raise InputError(f"diagonal {d} does not bound two triangles")
        new = _norm_edge(*apexes)
        return Triangulation(self.n, (self.diagonals - {d}) | {new})

    @classmethod
    def fan(cls, n: int) -> "Triangulation":
        """The fan at vertex N: the diagonals (i, N) for 2 <= i <= N-2, none
        when N < 4.  ``block_seed`` of a block polygon's fan is the block's
        initial seed."""
        return cls(n, frozenset((i, n) for i in range(2, n - 1)))

    def to_text(self) -> str:
        body = ",".join(f"{i}{j}" if self.n < 10 else f"{i}-{j}" for i, j in sorted(self.diagonals))
        return f"T({self.n}): {body}"

    def to_svg(self) -> str:
        import math

        size = 200
        cx = cy = size / 2
        r = size * 0.42
        pts = {}
        for v in range(1, self.n + 1):
            angle = math.pi / 2 - 2 * math.pi * (v - 1) / self.n  # clockwise from top
            pts[v] = (cx + r * math.cos(angle), cy - r * math.sin(angle))
        lines = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">'
        ]
        ring = " ".join(f"{pts[v][0]:.1f},{pts[v][1]:.1f}" for v in range(1, self.n + 1))
        lines.append(f'<polygon points="{ring}" fill="none" stroke="black"/>')
        for i, j in sorted(self.diagonals):
            (x1, y1), (x2, y2) = pts[i], pts[j]
            lines.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="gray"/>'
            )
        for v in range(1, self.n + 1):
            x, y = pts[v]
            lines.append(f'<text x="{x:.1f}" y="{y:.1f}" font-size="10">{v}</text>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def triangulations(n: int) -> tuple[Triangulation, ...]:
    """All triangulations of the N-gon (Catalan many)."""
    if n < 3:
        return (Triangulation(n, frozenset()),)

    def rec(vertices: tuple[int, ...]) -> list[frozenset[Edge]]:
        if len(vertices) < 3:
            return [frozenset()]
        a, b = vertices[0], vertices[-1]
        out = []
        for idx in range(1, len(vertices) - 1):
            c = vertices[idx]
            left = rec(vertices[: idx + 1])
            right = rec(vertices[idx:])
            extra = set()
            for e in (_norm_edge(a, c), _norm_edge(c, b)):
                if not is_side(n, e):
                    extra.add(e)
            for l in left:
                for r in right:
                    out.append(l | r | extra)
        return out

    return tuple(Triangulation(n, d) for d in rec(tuple(range(1, n + 1))))


def quiver_from_triangulation(
    t: Triangulation, retained_sides: Iterator[Edge] | Sequence[Edge]
) -> tuple[Quiver, list[Edge]]:
    """Quiver with one mutable vertex per diagonal and one frozen vertex per
    retained side; inside each triangle the edge cycle runs (i,k) -> (j,k)
    -> (i,j) -> (i,k) for sorted corners i < j < k.  Non-retained sides are
    deleted.  Returns the quiver and its vertex labeling."""
    retained = [_norm_edge(*e) for e in retained_sides]
    diagonals = sorted(t.diagonals)
    labels = diagonals + sorted(retained)
    index = {e: v for v, e in enumerate(labels)}
    arrows = []
    for i, j, k in t.triangles():
        cycle = [(_norm_edge(i, k), _norm_edge(j, k)), (_norm_edge(j, k), _norm_edge(i, j)), (_norm_edge(i, j), _norm_edge(i, k))]
        for src, dst in cycle:
            if src in index and dst in index:
                arrows.append((index[src], index[dst]))
    frozen = set(range(len(diagonals), len(labels)))
    return Quiver.from_arrows(len(labels), arrows, frozen), labels


# ----------------------------------------------------------------------
# block polygons: a word's ``BridgeWord.layouts`` holds one ``BlockLayout``
# per block, built once per word object; pinch walks follow its candidate
# rule and ``block_seed`` reads its edge windows


@dataclass(frozen=True)
class BlockLayout:
    """Where one block of a rational-form word sits on its polygon, and how
    it pinches.

    Every block labels polygon vertices 1.. with its ``retained_chords``
    (a block after the first keeps its first crossing off the polygon) on
    a polygon of one more vertex than labels, and the last block has one
    more still.  Polygon sizes: n+1 for the first block, n for middle
    blocks, n+1 for the last block and n+2 for a single block.  A crossing
    is pinchable when it labels a vertex and more than ``keep`` crossings
    of its block survive: one in the outer blocks and a single block, two
    in the middle ones.
    """

    chords: tuple[int, ...]
    size: int
    vertex_of: Mapping[int, int]  # crossing -> polygon vertex, in crossing order
    keep: int

    @classmethod
    def of(cls, word: BridgeWord, block: int) -> "BlockLayout":
        labels = word.retained_chords[block]
        last = block == word.k - 1
        return cls(
            tuple(word.block_chords(block)),
            len(labels) + 1 + last,
            {c: v for v, c in enumerate(labels, 1)},
            1 if block == 0 or last else 2,
        )

    def candidates(self, survivors: Sequence[int]) -> list[int]:
        """The crossings of this block pinchable among its survivors."""
        if len(survivors) <= self.keep:
            return []
        # the unlabeled crossings lead the block and are never pinched
        return list(survivors[len(self.chords) - len(self.vertex_of) :])

    @property
    def frozen_side(self) -> Edge:
        return (self.size - 1, self.size)

    def edge_window(self, e: Edge) -> tuple[int, ...]:
        """The crossings whose continuant the edge e carries: for (i, j)
        with j < N the labels strictly between i and j, for (i, N) the
        labels below i."""
        i, j = _norm_edge(*e)
        n = self.size
        if not (1 <= i < j <= n):
            raise InputError(f"{e} is not an edge of a {n}-gon")
        labels = tuple(self.vertex_of)
        return labels[i : j - 1] if j < n else labels[: i - 1]


def block_seed(word: BridgeWord, layout: BlockLayout, t: Triangulation) -> Seed:
    """The seed of a triangulation of the block polygon ``layout``: one
    mutable vertex per diagonal and the frozen side (N-1, N), each carrying
    the continuant of its ``edge_window`` in the word's crossing table.
    The fan at vertex N gives the block's initial seed."""
    if t.n != layout.size:
        raise InputError(f"triangulation size {t.n} does not match polygon size {layout.size}")
    quiver, labels = quiver_from_triangulation(t, [layout.frozen_side])
    table, ring = word.crossing_table, Coefficients.integers()
    return Seed(quiver, tuple(window_continuant(table, ring, layout.edge_window(e)) for e in labels))
