"""Finite irreducible root systems in the simple-root basis.

Everything is exact: roots are integer coordinate tuples with respect to the
simple roots, and the invariant bilinear form, normalized so that long roots
have squared length 2, is kept as the integer D*(x, y), where D is the
long-root value of the integer lengths e_i = D*(alpha_i, alpha_i)/2.  The
simple-root numbering follows the convention where the E-series is a chain 1..(rank-1) with the last node
attached to the chain (E6 at node 3, E7 at node 4, E8 at node 5) and F4 is
1-2<=3-4 with alpha_1, alpha_2 short.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Sequence

Root = tuple[int, ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class RootSystemError(ValueError):
    """Raised for inadmissible systems or arguments outside the domain."""


@dataclass(frozen=True, order=True)
class RootSystemId:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGE:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise RootSystemError(f"inadmissible rank {self.rank} for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_system_id(spec: str | RootSystemId | tuple[str, int]) -> RootSystemId:
    """Accept 'F4', ('A', 3) or an id and return a validated RootSystemId."""
    if isinstance(spec, RootSystemId):
        return spec
    if isinstance(spec, tuple):
        return RootSystemId(spec[0], int(spec[1]))
    spec = spec.strip()
    if len(spec) < 2 or not spec[0].isalpha():
        raise RootSystemError(f"cannot parse system id {spec!r}")
    family, rank = spec[0].upper(), spec[1:]
    if not rank.isdigit():
        raise RootSystemError(f"cannot parse system id {spec!r}")
    return RootSystemId(family, int(rank))


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _dynkin_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Undirected Dynkin-diagram edges, 0-indexed."""
    if family in "ABCFG":
        return _chain_edges(n)
    if family == "D":
        # chain on 0..n-2, extra node n-1 attached to n-3
        return _chain_edges(n - 1) + [(n - 3, n - 1)]
    # E-series: chain on 0..n-2, last node attached to the branch point
    branch = {6: 2, 7: 3, 8: 4}[n]
    return _chain_edges(n - 1) + [(branch, n - 1)]


def _length_numbers(family: str, n: int) -> tuple[int, ...]:
    """e_i = D*(alpha_i, alpha_i)/2 with long roots normalized to length^2 = 2.

    D = max(e) is the long-root value: 1 for A/D/E, 2 for B/C/F, 3 for G.
    """
    if family in "ADE":
        return (1,) * n
    if family == "B":
        return (2,) * (n - 1) + (1,)
    if family == "C":
        return (1,) * (n - 1) + (2,)
    if family == "F":
        return (1, 1, 2, 2)
    return (3, 1)  # G2: alpha_1 long, alpha_2 short


def cartan_matrix(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee>."""
    e = _length_numbers(family, n)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j in _dynkin_edges(family, n):
        # Adjacent simple roots always satisfy D*(alpha_i, alpha_j) = -max(e_i, e_j),
        # so <alpha_j, alpha_i^vee> = 2(alpha_i,alpha_j)/(alpha_i,alpha_i) = -max(e_i, e_j)/e_i.
        bond = max(e[i], e[j])
        if bond % e[i] or bond % e[j]:
            raise RootSystemError(f"non-integral Cartan entry on the bond {i}-{j}")
        a[i][j] = -(bond // e[i])
        a[j][i] = -(bond // e[j])
    return tuple(tuple(row) for row in a)


class RootSystem:
    """A finite irreducible root system, built once and treated as immutable."""

    def __init__(self, system_id: RootSystemId):
        self.id = system_id
        self.family = system_id.family
        self.rank = system_id.rank
        n = self.rank
        self.cartan = cartan_matrix(self.family, n)
        self._is_long: dict[Root, bool] = {}
        # For `form`: e_i = D*(alpha_i, alpha_i)/2, D = max(e), and the nonzero
        # (j, cartan[i][j]) of each Cartan row.
        # D*(x, y) = sum_i x_i*e_i*y_i for x in weight, y in root coordinates.
        self.form_weights = _length_numbers(self.family, n)
        self.form_denominator = max(self.form_weights)
        self._cartan_support = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in self.cartan
        )
        # D*(alpha_i, alpha_j) = e_i * cartan[i][j] must be symmetric.
        e = self.form_weights
        if any(e[i] * self.cartan[i][j] != e[j] * self.cartan[j][i] for i in range(n) for j in range(n)):
            raise RootSystemError("inconsistent Cartan data")
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        # root_pairings[k][j] = <positive_roots[k], alpha_j^vee>
        self.positive_roots, self.root_pairings = self._generate_positive_roots()
        self.root_index = {r: k for k, r in enumerate(self.positive_roots)}
        if len(self.root_index) != len(self.positive_roots):
            raise RootSystemError("duplicate positive roots")

        self.theta = self.positive_roots[-1]
        top_height = self.height(self.theta)
        if sum(1 for r in self.positive_roots if self.height(r) == top_height) != 1:
            raise RootSystemError("the highest root is not unique")
        if not self.is_dominant(self.theta):
            raise RootSystemError("the highest root is not dominant")
        if self.form(self.theta, self.theta) != 2 * self.form_denominator:
            raise RootSystemError("the highest root is not long")

        self.h = top_height + 1
        if 2 * len(self.positive_roots) != n * self.h:
            raise RootSystemError("2|Δ⁺| differs from rank times the Coxeter number")

        self.exponents = self._exponents()
        # theta^vee = theta in coroot coordinates: coefficients c_i^vee = e_i c_i / D.
        marks = [e[i] * self.theta[i] for i in range(n)]
        if any(m % self.form_denominator for m in marks):
            raise RootSystemError("non-integral coroot marks of theta")
        self.coroot_marks = tuple(m // self.form_denominator for m in marks)
        self.dual_h = 1 + sum(self.coroot_marks)

        self.theta_short = self._dominant_short_root()

    # -- construction -----------------------------------------------------

    def _generate_positive_roots(self) -> tuple[tuple[Root, ...], tuple[tuple[int, ...], ...]]:
        """Closure of the simple roots under root strings, height by height.

        Each root carries its pairings (<beta, alpha_j^vee>)_j, so a step
        beta -> beta + alpha_i adds column i of the Cartan matrix to them.
        Returns the roots sorted by height, then tuple, and their pairings
        in the same order (`root_pairings`).
        """
        n = self.rank
        columns = [tuple(self.cartan[j][i] for j in range(n)) for i in range(n)]
        found: dict[Root, tuple[int, ...]] = dict(zip(self.simple_roots, columns))
        layer: list[Root] = list(self.simple_roots)
        while layer:
            nxt: list[Root] = []
            for beta in layer:
                pairings = found[beta]
                for i in range(n):
                    down = list(beta)
                    p = 0
                    while True:
                        down[i] -= 1
                        if tuple(down) in found:
                            p += 1
                        else:
                            break
                    if p - pairings[i] >= 1:
                        up = list(beta)
                        up[i] += 1
                        cand = tuple(up)
                        if cand not in found:
                            found[cand] = tuple(map(add, pairings, columns[i]))
                            nxt.append(cand)
            layer = nxt
        roots = tuple(sorted(found, key=lambda r: (sum(r), r)))
        return roots, tuple(map(found.__getitem__, roots))

    def _exponents(self) -> tuple[int, ...]:
        """Exponents via the conjugate of the height partition of Δ⁺."""
        counts = [0] * self.h
        for r in self.positive_roots:
            counts[self.height(r)] += 1
        exps = tuple(
            sorted(sum(1 for k in range(1, self.h) if counts[k] >= j) for j in range(1, self.rank + 1))
        )
        if sum(exps) != len(self.positive_roots):
            raise RootSystemError("the exponents do not sum to |Δ⁺|")
        return exps

    def _dominant_short_root(self) -> Root:
        """The dominant short root, read from the carried pairings; theta when simply laced."""
        shorts = [
            r
            for r, pairings in zip(self.positive_roots, self.root_pairings)
            if min(pairings) >= 0 and not self.is_long(r)
        ]
        if not shorts:  # simply laced: every root is long and theta_s = theta
            return self.theta
        if len(shorts) != 1:
            raise RootSystemError(f"expected one dominant short root, got {shorts}")
        return shorts[0]

    # -- pairings ----------------------------------------------------------

    def pairing(self, x: Sequence, i: int):
        """<x, alpha_i^vee> for x in simple-root coordinates."""
        return sum(self.cartan[i][j] * x[j] for j in range(self.rank))

    def form(self, x: Sequence, y: Sequence):
        """D*(x, y) = sum_i x_i*e_i*<y, alpha_i^vee>: an int for integer arguments.

        D = `form_denominator`, so long roots give 2D; the exact (x, y) is this
        value divided by D, for rational arguments (coweights) too.
        """
        total = 0
        for xi, ei, support in zip(x, self.form_weights, self._cartan_support):
            if xi:
                total += xi * ei * sum(a * y[j] for j, a in support)
        return total

    def is_long(self, root: Root) -> bool:
        """Cached per distinct input."""
        key = tuple(root)
        long = self._is_long.get(key)
        if long is None:
            long = self._is_long[key] = self.form(key, key) == 2 * self.form_denominator
        return long

    def height(self, root: Root) -> int:
        return sum(root)

    def is_dominant(self, x: Sequence) -> bool:
        return all(self.pairing(x, i) >= 0 for i in range(self.rank))

    def is_positive_root(self, x: Sequence) -> bool:
        return tuple(x) in self.root_index

    # -- order and ideals helpers ------------------------------------------

    def root_leq(self, beta: Root, gamma: Root) -> bool:
        """beta ⪯ gamma iff gamma - beta has nonnegative integer coordinates."""
        return all(g >= b for b, g in zip(beta, gamma))

    def half_floor(self, gamma: Root) -> Root:
        """Coordinatewise floor of gamma/2; lands in Δ⁺ ∪ {0} for gamma ∈ Δ⁺."""
        if not self.is_positive_root(gamma):
            raise RootSystemError(f"{gamma} is not a positive root")
        half = tuple(c // 2 for c in gamma)
        if half != (0,) * self.rank and not self.is_positive_root(half):
            raise RootSystemError(f"floor({gamma}/2) is neither 0 nor a positive root")
        return half

    # -- diagram data --------------------------------------------------------

    def dynkin_edges(self) -> list[tuple[int, int]]:
        return _dynkin_edges(self.family, self.rank)

    def extended_edges(self) -> list[tuple[int, int]]:
        """Extended diagram on 0..n; node 0 is alpha_0 = delta - theta."""
        edges = [(i + 1, j + 1) for i, j in self.dynkin_edges()]
        for j in range(self.rank):
            if self.form(self.theta, self.simple_roots[j]) != 0:
                edges.append((0, j + 1))
        return sorted(tuple(sorted(e)) for e in edges)

    def extended_form(self, i: int, j: int) -> int:
        """D*(alpha_i, alpha_j) on extended indices 0..n (level parts drop out)."""
        vi = tuple(-c for c in self.theta) if i == 0 else self.simple_roots[i - 1]
        vj = tuple(-c for c in self.theta) if j == 0 else self.simple_roots[j - 1]
        return self.form(vi, vj)

    @property
    def short_simple_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.rank) if self.form_weights[i] != self.form_denominator)

    def __repr__(self) -> str:
        return f"RootSystem({self.id})"


@lru_cache(maxsize=None)
def _cached(system_id: RootSystemId) -> RootSystem:
    return RootSystem(system_id)


def root_system(spec: str | RootSystemId | tuple[str, int], rank: int | None = None) -> RootSystem:
    """Factory with caching: root_system('F4'), root_system('A', 3)."""
    if rank is not None:
        if not isinstance(spec, str):
            raise RootSystemError("rank may only be given with a family letter")
        return _cached(RootSystemId(spec.upper(), rank))
    return _cached(parse_system_id(spec))


def admissible_systems(max_rank: int) -> list[RootSystemId]:
    """All admissible systems of rank ≤ max_rank, in deterministic order."""
    out: list[RootSystemId] = []
    for family, (lo, hi) in _RANK_RANGE.items():
        top = min(max_rank, hi) if hi is not None else max_rank
        out.extend(RootSystemId(family, r) for r in range(lo, top + 1))
    return sorted(out)
