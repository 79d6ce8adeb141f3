"""Small extensional posets, covering polynomials and DOT export.

Posets here are stored as an element list plus the full order relation
(bitmask rows), which keeps cover computation and axiom checks trivial for
the desk-scale posets this package deals in.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


class PosetError(ValueError):
    pass


class FinitePoset:
    """A finite poset given extensionally by elements and a comparison."""

    def __init__(self, elements: Sequence[T], leq: Callable[[T, T], bool]):
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise PosetError("duplicate elements")
        self._index = {x: i for i, x in enumerate(self._elements)}
        n = len(self._elements)
        up = [0] * n  # up[i] bit j set iff elements[i] <= elements[j]
        for i, x in enumerate(self._elements):
            for j, y in enumerate(self._elements):
                if leq(x, y):
                    up[i] |= 1 << j
        self._up = up
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1:
                    down[j] |= 1 << i
        self._down = down
        self._check_axioms()

    def _check_axioms(self) -> None:
        n = len(self._elements)
        for i in range(n):
            if not self._up[i] >> i & 1:
                raise PosetError("relation is not reflexive")
            both = self._up[i] & self._down[i]
            if both != 1 << i:
                raise PosetError("relation is not antisymmetric")
        for i in range(n):
            reach = self._up[i]
            j = reach
            acc = 0
            while j:
                low = j & -j
                acc |= self._up[low.bit_length() - 1]
                j ^= low
            if acc & ~reach:
                raise PosetError("relation is not transitive")

    @property
    def elements(self) -> tuple:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def leq(self, x, y) -> bool:
        return bool(self._up[self._index[x]] >> self._index[y] & 1)

    def covers(self) -> list[tuple]:
        """Cover pairs as (upper, lower)."""
        return [(self._elements[u], self._elements[l]) for u, l in self.cover_index_pairs()]

    def cover_index_pairs(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        n = len(self._elements)
        for lo in range(n):
            above = self._up[lo] & ~(1 << lo)
            m = above
            while m:
                low = m & -m
                hi = low.bit_length() - 1
                m ^= low
                # hi covers lo iff nothing else sits strictly between them
                between = above & (self._down[hi] & ~(1 << hi))
                if between == 0:
                    out.append((hi, lo))
        return sorted(out)

    def covering_polynomial(self) -> "IntPolynomial":
        """ck_P(q) = sum over elements of q^(number of elements covered)."""
        kappa = Counter(hi for hi, _ in self.cover_index_pairs())
        return IntPolynomial.from_counts(Counter(kappa.get(i, 0) for i in range(len(self._elements))))


class IntPolynomial:
    """Integer polynomial in one variable q, stored dense without trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def from_counts(cls, counts: Counter) -> "IntPolynomial":
        if not counts:
            return cls()
        top = max(counts)
        return cls(counts.get(k, 0) for k in range(top + 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self, degree: int | None = None) -> bool:
        """Palindromic over the stated degree (defaults to the actual degree)."""
        deg = self.degree if degree is None else degree
        if deg < self.degree:
            return False
        padded = list(self.coeffs) + [0] * (deg + 1 - len(self.coeffs))
        return padded == padded[::-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{'' if c == 1 else c}q")
            else:
                parts.append(f"{'' if c == 1 else c}q^{k}")
        return " + ".join(parts)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    labels: Sequence[str],
    edges: Iterable[tuple[int, int, str | None]],
    *,
    graph_name: str = "poset",
) -> str:
    """Byte-deterministic DOT text: nodes in given order, edges sorted.

    Edges are (upper_index, lower_index, type_label) and are drawn from the
    upper element to the lower one; a non-None type label lands in both the
    `type` attribute and the edge label.
    """
    lines = [f"digraph {graph_name} {{"]
    for i, label in enumerate(labels):
        lines.append(f"  n{i} [label={_dot_quote(label)}];")
    for u, l, t in sorted(edges, key=lambda e: (e[0], e[1], e[2] or "")):
        if t is None:
            lines.append(f"  n{u} -> n{l};")
        else:
            lines.append(f"  n{u} -> n{l} [type={_dot_quote(t)}, label={_dot_quote(t)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
