"""Quivers, cluster seeds, mutation, anticliques, and rank conditions.

A quiver is a skew-symmetric integer exchange matrix together with a set of
frozen vertices.  Seeds carry one Laurent polynomial per vertex expressed in
the initial variables; mutation exchanges a variable by the two-term rule
and requires the division to be exact (the Laurent phenomenon guarantees it,
so a failure is reported loudly as a bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlgebraError, BudgetError, InputError
from .ring import LaurentPolynomial, exact_divide


@dataclass(frozen=True)
class Quiver:
    matrix: tuple[tuple[int, ...], ...]
    frozen: frozenset[int]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        object.__setattr__(self, "frozen", frozenset(self.frozen))
        if any(len(row) != n for row in self.matrix):
            raise InputError("exchange matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise InputError("exchange matrix must be skew-symmetric")
        if any(v < 0 or v >= n for v in self.frozen):
            raise InputError("frozen vertex out of range")

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
        if k in self.frozen:
            raise InputError(f"vertex {k} is frozen")
        if not 0 <= k < self.size:
            raise InputError(f"vertex {k} out of range")
        n = self.size
        e = self.matrix
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if k in (i, j):
                    new[i][j] = -e[i][j]
                else:
                    new[i][j] = e[i][j] + max(e[i][k], 0) * max(e[k][j], 0) - max(
                        -e[i][k], 0
                    ) * max(-e[k][j], 0)
        return Quiver(tuple(tuple(row) for row in new), self.frozen)

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
        factor is 1)."""
        rows = [list(self.matrix[v]) for v in self.mutable]
        diag = _smith_diagonal(rows)
        if len(diag) < len(rows):
            return False
        return all(d == 1 for d in diag)

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


def _smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of an integer diagonalization by unimodular row and
    column operations (enough to read off rank and lattice saturation)."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        pivot = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                v = m[i][j]
                if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = m[t][t]
            clean = True
            for i in range(t + 1, n_rows):
                q = m[i][t] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                if m[i][t]:
                    clean = False
            for j in range(t + 1, n_cols):
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j]:
                    clean = False
            if clean:
                break
            best = (t, t)
            for i in range(t, n_rows):
                for j in range(t, n_cols):
                    if m[i][j] and abs(m[i][j]) < abs(m[best[0]][best[1]]):
                        best = (i, j)
            bi, bj = best
            m[t], m[bi] = m[bi], m[t]
            for row in m:
                row[t], row[bj] = row[bj], row[t]
        diag.append(abs(m[t][t]))
        t += 1
    return diag


@dataclass(frozen=True)
class Seed:
    quiver: Quiver
    variables: tuple[LaurentPolynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.quiver.size:
            raise InputError("one cluster variable per quiver vertex is required")

    def mutate(self, k: int) -> "Seed":
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
        variables = list(self.variables)
        variables[k] = new_var
        return Seed(q.mutate(k), tuple(variables))

    def canonical_key(self) -> tuple:
        """Identification up to simultaneous permutation of mutable vertices.

        Mutable vertices are sorted by the canonical text of their
        variables.  The variables of one cluster are algebraically
        independent, hence distinct, so a tie raises ``AlgebraError``.
        """
        q = self.quiver
        text = [v.canonical_text() for v in self.variables]
        mutable = sorted(q.mutable, key=text.__getitem__)
        for u, v in zip(mutable, mutable[1:]):
            if text[u] == text[v]:
                raise AlgebraError(f"mutable vertices {u} and {v} share the variable {text[u]}")
        order = mutable + sorted(q.frozen)
        texts = tuple(text[v] for v in order)
        matrix = tuple(tuple(q.matrix[i][j] for j in order) for i in order)
        return (texts, matrix, len(q.frozen))


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
    return Seed(Quiver(tuple(tuple(r) for r in matrix), frozenset(frozen)), tuple(variables))


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
    matrix = tuple(tuple(seed.quiver.matrix[i][j] for j in keep) for i in keep)
    frozen = frozenset(keep.index(v) for v in seed.quiver.frozen if v in keep)
    return Seed(Quiver(matrix, frozen), tuple(seed.variables[v] for v in keep))


def mutation_class(seed: Seed, bound: int = 10000) -> tuple[list[Seed], bool]:
    """Breadth-first closure under mutation, seeds identified by canonical
    key.  Returns (seeds, exceeded); when the bound is hit the partial set
    is returned with exceeded=True."""
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
