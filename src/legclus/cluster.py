"""Quivers, cluster seeds, mutation, anticliques, and rank conditions.

A quiver is a skew-symmetric integer exchange matrix together with a set of
frozen vertices.  Seeds carry one Laurent polynomial per vertex expressed in
the initial variables; mutation exchanges a variable by the two-term rule
and requires the division to be exact (the Laurent phenomenon guarantees it,
so a failure is reported loudly as a bug).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from operator import add
from typing import Iterable, Sequence

from .errors import AlgebraError, InputError
from .ring import LaurentPolynomial, exact_divide


@dataclass(frozen=True)
class Quiver:
    matrix: tuple[tuple[int, ...], ...]
    frozen: frozenset[int]

    def __post_init__(self) -> None:
        m = tuple(map(tuple, self.matrix))
        n = len(m)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "frozen", frozenset(self.frozen))
        if any(len(row) != n for row in m):
            raise InputError("exchange matrix must be square")
        # every m[i][j] + m[j][i], read row by row and column by column
        flat = itertools.chain.from_iterable
        if any(map(add, flat(m), flat(zip(*m)))):
            raise InputError("exchange matrix must be skew-symmetric")
        if any(v < 0 or v >= n for v in self.frozen):
            raise InputError("frozen vertex out of range")

    @classmethod
    def _unchecked(cls, matrix: tuple[tuple[int, ...], ...], frozen: frozenset[int]) -> "Quiver":
        """A quiver assembled from the parts of already checked quivers: a
        square, skew-symmetric tuple of tuples and a frozenset of vertices
        in range.  Such parts need no second check, so none is made."""
        q = object.__new__(cls)
        object.__setattr__(q, "matrix", matrix)
        object.__setattr__(q, "frozen", frozen)
        return q

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]], frozen: Iterable[int] = ()) -> "Quiver":
        m = [[0] * n for _ in range(n)]
        for i, j in arrows:
            m[i][j] += 1
            m[j][i] -= 1
        return cls(tuple(tuple(row) for row in m), frozenset(frozen))

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def mutable(self) -> list[int]:
        return [v for v in range(self.size) if v not in self.frozen]

    def mutate(self, k: int) -> "Quiver":
        """Matrix mutation at k.  Only row and column k and the entries
        between an in-neighbour and an out-neighbour of k change."""
        if k in self.frozen:
            raise InputError(f"vertex {k} is frozen")
        if not 0 <= k < self.size:
            raise InputError(f"vertex {k} out of range")
        e = self.matrix
        new = [list(row) for row in e]
        ek = e[k]
        nbrs = [j for j, x in enumerate(ek) if x]
        for i in nbrs:
            eik, row = e[i][k], new[i]
            row[k], new[k][i] = -eik, -ek[i]
            for j in nbrs:
                ekj = ek[j]
                if eik > 0 and ekj > 0:
                    row[j] += eik * ekj
                elif eik < 0 and ekj < 0:
                    row[j] -= eik * ekj
        return Quiver._unchecked(tuple(tuple(row) for row in new), self.frozen)

    def anticliques(self) -> list[frozenset[int]]:
        """All subsets of mutable vertices with no exchange arrows inside,
        the empty set included."""
        mut = self.mutable
        out: list[frozenset[int]] = []

        def grow(chosen: tuple[int, ...], rest: list[int]) -> None:
            out.append(frozenset(chosen))
            for idx, v in enumerate(rest):
                if all(self.matrix[v][u] == 0 for u in chosen):
                    grow(chosen + (v,), rest[idx + 1 :])

        grow((), mut)
        return sorted(set(out), key=lambda s: (len(s), sorted(s)))

    def is_really_full_rank(self) -> bool:
        """True when the columns of the mutable-rows submatrix span the full
        integer lattice (rank equals the mutable count and every invariant
        factor is 1).

        Row by row, Euclid's algorithm over the columns that remain leaves
        one column nonzero in that row, its pivot, which is then retired.
        Column operations keep the lattice, and the pivots form a triangular
        basis of it, so the columns span Z^r exactly when every row gets a
        pivot and every pivot is 1 or -1.
        """
        rows = [self.matrix[v] for v in self.mutable]
        r = len(rows)
        cols = [list(col) for col in zip(*rows)]
        for i in range(r):
            live = [col for col in cols if col[i]]
            while len(live) > 1:
                pivot = min(live, key=lambda col: abs(col[i]))
                for col in live:
                    if col is not pivot:
                        q = col[i] // pivot[i]
                        for t in range(i, r):
                            col[t] -= q * pivot[t]
                live = [col for col in live if col[i]]
            if not live or abs(live[0][i]) != 1:
                return False
            cols = [col for col in cols if col is not live[0]]
        return True

    def to_dot(self, labels: Sequence[str] | None = None) -> str:
        lines = ["digraph quiver {"]
        for v in range(self.size):
            label = labels[v] if labels else str(v + 1)
            shape = "box" if v in self.frozen else "circle"
            lines.append(f'  v{v} [label="{label}", shape={shape}];')
        for i in range(self.size):
            for j in range(self.size):
                for _ in range(max(self.matrix[i][j], 0)):
                    lines.append(f"  v{i} -> v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Seed:
    quiver: Quiver
    variables: tuple[LaurentPolynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.quiver.size:
            raise InputError("one cluster variable per quiver vertex is required")

    def mutate(self, k: int) -> "Seed":
        return self._replaced(k, self._exchange(k))

    def _exchange(self, k: int) -> LaurentPolynomial:
        """The variable that replaces x_k: the exchange binomial divided by
        x_k.  It depends only on x_k and on the variables x_j with their
        exponents b_kj over the nonzero entries of row k."""
        q = self.quiver
        if k in q.frozen:
            raise InputError(f"vertex {k} is frozen")
        row = q.matrix[k]
        table, ring = self.variables[k].table, self.variables[k].ring
        plus = LaurentPolynomial.constant(table, ring, 1)
        minus = LaurentPolynomial.constant(table, ring, 1)
        for j, e in enumerate(row):
            if e > 0:
                plus = plus * self.variables[j] ** e
            elif e < 0:
                minus = minus * self.variables[j] ** (-e)
        new_var = exact_divide(plus + minus, self.variables[k])
        if new_var is None:
            raise AlgebraError(
                f"exchange binomial not divisible by cluster variable at vertex {k}"
            )
        return new_var

    def _replaced(self, k: int, new_var: LaurentPolynomial) -> "Seed":
        """This seed mutated at k, given the new variable at k."""
        variables = list(self.variables)
        variables[k] = new_var
        return Seed(self.quiver.mutate(k), tuple(variables))

    def canonical_key(self) -> tuple:
        """Identification up to simultaneous permutation of mutable vertices
        (see ``_canonical_key``)."""
        return _canonical_key(self.quiver, [v.canonical_text() for v in self.variables])


def _canonical_key(quiver: Quiver, text: Sequence[str]) -> tuple:
    """The key of a seed with this quiver whose variables have the given
    canonical texts.

    Mutable vertices are sorted by the canonical text of their variables.
    The variables of one cluster are algebraically independent, hence
    distinct, so a tie raises ``AlgebraError``.
    """
    mutable = sorted(quiver.mutable, key=text.__getitem__)
    for u, v in zip(mutable, mutable[1:]):
        if text[u] == text[v]:
            raise AlgebraError(f"mutable vertices {u} and {v} share the variable {text[u]}")
    order = mutable + sorted(quiver.frozen)
    texts = tuple(text[v] for v in order)
    matrix = tuple(tuple(quiver.matrix[i][j] for j in order) for i in order)
    return (texts, matrix, len(quiver.frozen))


def merge_seeds(seeds: Sequence[Seed]) -> Seed:
    """Disjoint union of seeds (block product), vertex order preserved."""
    total = sum(s.quiver.size for s in seeds)
    matrix = [[0] * total for _ in range(total)]
    frozen: set[int] = set()
    variables: list[LaurentPolynomial] = []
    offset = 0
    for s in seeds:
        n = s.quiver.size
        for i in range(n):
            for j in range(n):
                matrix[offset + i][offset + j] = s.quiver.matrix[i][j]
        frozen.update(offset + v for v in s.quiver.frozen)
        variables.extend(s.variables)
        offset += n
    return Seed(Quiver._unchecked(tuple(tuple(r) for r in matrix), frozenset(frozen)), tuple(variables))


def strip_unit_frozen(seed: Seed) -> Seed:
    """Delete frozen vertices whose variable is the constant 1.

    Setting a frozen variable to 1 commutes with mutation, so degenerate
    polygon blocks (whose only retained side carries the empty window
    continuant) reduce to the bare path seeds this way.
    """
    keep = [
        v
        for v in range(seed.quiver.size)
        if not (
            v in seed.quiver.frozen
            and seed.variables[v] == LaurentPolynomial.constant(
                seed.variables[v].table, seed.variables[v].ring, 1
            )
        )
    ]
    return _restrict(seed, keep)


def mutation_class(seed: Seed, bound: int = 10000) -> tuple[list[Seed], bool]:
    """The seeds mutation-equivalent to ``seed``, identified by canonical
    key.  Returns (seeds, exceeded).

    The vertices split into the connected components of the whole exchange
    matrix, frozen vertices included.  No arrow joins two components, so
    mutation in one leaves the others alone and the class is the product of
    the components' classes.  Each component's class is closed breadth-first
    from its part of ``seed``; the full seeds are then assembled by
    ``itertools.product`` over the components ordered by their first
    vertex, the last component varying fastest.  A one-component seed is
    listed in breadth-first order.  Either way the first seed is ``seed``.

    Within one call each exchange binomial is divided once: the closure
    memoizes the new variable under the canonical text of x_v and the
    sorted pairs (text of x_j, b_vj) over the nonzero entries of row v.
    The new variable is a function of exactly these, and canonical text is
    a faithful form of a polynomial, so the memo changes no answer.

    ``min(bound, |class|)`` seeds are returned, and ``exceeded`` is True
    exactly when the class has more than ``bound`` seeds.
    """
    if bound < 1:
        raise InputError(f"the seed bound must be at least 1, got {bound}")
    components = _components(seed.quiver)
    if len(components) <= 1:
        return _closure(seed, bound)
    # ties between the variables of two components show only in the full key
    seed.canonical_key()
    classes, exceeded = [], False
    for verts in components:
        part = _restrict(seed, verts)
        if exceeded:
            # an earlier factor alone has more than ``bound`` seeds, so the
            # listing below never leaves this one's first seed
            classes.append([part])
        else:
            part_class, exceeded = _closure(part, bound)
            classes.append(part_class)
    if not exceeded:
        exceeded = prod(map(len, classes)) > bound
    # each seed of a factor as (vertex, full-width matrix row, variable)
    n = seed.quiver.size
    factors = []
    for verts, part_class in zip(components, classes):
        members = []
        for part in part_class:
            rows = []
            for src in part.quiver.matrix:
                row = [0] * n
                for j, x in zip(verts, src):
                    row[j] = x
                rows.append(tuple(row))
            members.append(tuple(zip(verts, rows, part.variables)))
        factors.append(members)
    out = []
    for combo in itertools.islice(itertools.product(*factors), bound):
        rows, variables = [()] * n, [None] * n
        for member in combo:
            for i, row, x in member:
                rows[i], variables[i] = row, x
        out.append(Seed(Quiver._unchecked(tuple(rows), seed.quiver.frozen), tuple(variables)))
    return out, exceeded


def _components(quiver: Quiver) -> list[list[int]]:
    """Vertex lists of the connected components of the exchange matrix,
    each sorted, ordered by their first vertex."""
    n = quiver.size
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, verts = [start], []
        while stack:
            i = stack.pop()
            verts.append(i)
            for j, x in enumerate(quiver.matrix[i]):
                if x and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(sorted(verts))
    return out


def _restrict(seed: Seed, verts: Sequence[int]) -> Seed:
    """The full subseed on ``verts`` (vertex order kept)."""
    m = seed.quiver.matrix
    matrix = tuple(tuple(m[i][j] for j in verts) for i in verts)
    frozen = frozenset(a for a, v in enumerate(verts) if v in seed.quiver.frozen)
    return Seed(Quiver._unchecked(matrix, frozen), tuple(seed.variables[v] for v in verts))


def _closure(seed: Seed, bound: int) -> tuple[list[Seed], bool]:
    """Breadth-first closure under mutation, at most ``bound`` seeds.

    Each seed keeps the canonical texts of its variables, so a child
    computes the text of its one new variable only.

    Each exchange binomial is divided once per call.  The variable that
    mutation at v brings in is a function of x_v and of the pairs
    (x_j, b_vj) over the nonzero entries of row v, frozen neighbours
    included, and ``canonical_text`` is a faithful form of a polynomial.
    So the new variable is memoized under the key (text of x_v, sorted
    pairs (text of x_j, b_vj)).  A division also records the reverse
    exchange: mutation negates row v and leaves every other variable as
    it was, so the key (text of the new variable, sorted pairs
    (text of x_j, -b_vj)) gives back x_v.
    """
    texts = [v.canonical_text() for v in seed.variables]
    seen = {_canonical_key(seed.quiver, texts): seed}
    exchanged: dict[tuple, tuple[LaurentPolynomial, str]] = {}
    frontier = [(seed, texts)]
    exceeded = False
    while frontier:
        nxt = []
        for s, text in frontier:
            for v in s.quiver.mutable:
                pairs = sorted((text[j], b) for j, b in enumerate(s.quiver.matrix[v]) if b)
                exchange = (text[v], tuple(pairs))
                if exchange in exchanged:
                    new_var, new_text = exchanged[exchange]
                    t = s._replaced(v, new_var)
                else:
                    t = s.mutate(v)
                    new_var = t.variables[v]
                    new_text = new_var.canonical_text()
                    exchanged[exchange] = (new_var, new_text)
                    back = tuple(sorted((tj, -b) for tj, b in pairs))
                    exchanged[(new_text, back)] = (s.variables[v], text[v])
                child = text[:]
                child[v] = new_text
                key = _canonical_key(t.quiver, child)
                if key not in seen:
                    if len(seen) >= bound:
                        exceeded = True
                        continue
                    seen[key] = t
                    nxt.append((t, child))
        frontier = nxt
        if exceeded:
            break
    return list(seen.values()), exceeded
