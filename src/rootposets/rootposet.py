"""The root poset (Δ⁺, ⪯): typed Hasse edges and the short-root subdiagram.

Hasse edges of the root poset are exactly the pairs differing by a simple
root, so every edge carries a type in Π.  Per-type counts admit closed forms
in h and h*, which `expected_edge_type_counts` implements and the verify
suite holds the computed diagram against.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import ideals
from .posets import FinitePoset, IntPolynomial
from .rootsystem import Root, RootSystem, RootSystemError


class TypedEdge(NamedTuple):
    upper: Root
    lower: Root
    type_index: int  # upper - lower = alpha_{type_index} (0-based simple index)


def typed_hasse_edges(rs: RootSystem) -> list[TypedEdge]:
    """All Hasse edges of (Δ⁺, ⪯), read off the cover table of `ideals`.

    Uppers come in root order (height, then tuple), and the lowers
    upper - alpha_i of each upper by increasing i, which is increasing tuple.
    """
    pos = rs.positive_roots
    lowers: list[list[int]] = [[] for _ in pos]
    for i, uppers in enumerate(ideals._covers(rs)):
        for j in uppers:
            lowers[j].append(i)
    return [
        TypedEdge(pos[j], pos[i], next(k for k, (a, b) in enumerate(zip(pos[j], pos[i])) if a != b))
        for j, below in enumerate(lowers)
        for i in below
    ]


def edge_type_counts(rs: RootSystem) -> list[int]:
    counts = [0] * rs.rank
    for e in typed_hasse_edges(rs):
        counts[e.type_index] += 1
    return counts


def expected_edge_type_counts(rs: RootSystem) -> list[int]:
    """Closed forms: h-2 per type when simply laced; otherwise h*-2 for long
    types and h-2 (h-3 for G2) for short types."""
    short = rs.short_simple_indices
    if not short:
        return [rs.h - 2] * rs.rank
    short_count = rs.h - 3 if rs.family == "G" else rs.h - 2
    return [
        short_count if i in short else rs.dual_h - 2
        for i in range(rs.rank)
    ]


def delta_covering_polynomial(rs: RootSystem) -> IntPolynomial:
    """Covering polynomial of (Δ⁺, ⪯), computed from the typed edges."""
    kappa = Counter(e.upper for e in typed_hasse_edges(rs))
    return IntPolynomial.from_counts(Counter(kappa.get(r, 0) for r in rs.positive_roots))


# -- short-root subdiagram ---------------------------------------------------


def _component_coxeter_numbers(rs: RootSystem, roots: list[Root]) -> list[int]:
    """Coxeter numbers of the irreducible components spanned by `roots`.

    Components are chained by non-orthogonality; each component of a root
    subsystem satisfies #Δ_component = rank * h, and `roots` holds only the
    positive half.  The rank is the number of simple roots of the component:
    its positive roots that are not the sum of two of its positive roots.
    """
    unseen = set(range(len(roots)))
    hs = []
    while unseen:
        comp = [unseen.pop()]
        queue = list(comp)
        while queue:
            a = queue.pop()
            linked = [b for b in list(unseen) if rs.form(roots[a], roots[b]) != 0]
            for b in linked:
                unseen.remove(b)
                comp.append(b)
                queue.append(b)
        members = {roots[k] for k in comp}
        rank = sum(
            1
            for r in members
            if not any(tuple(x - y for x, y in zip(r, s)) in members for s in members)
        )
        hs.append(2 * len(comp) // rank)
    return hs


def short_root_subdiagram(rs: RootSystem) -> tuple[list[Root], list[TypedEdge]]:
    """Vertices Δ⁺_s and edges joining short roots that differ by a simple root."""
    if not rs.short_simple_indices:
        raise RootSystemError(f"{rs.id} is simply laced: no short-root subdiagram")
    shorts = [r for r in rs.positive_roots if not rs.is_long(r)]
    members = set(shorts)
    return shorts, [e for e in typed_hasse_edges(rs) if e.upper in members and e.lower in members]


def short_subdiagram_type_counts(rs: RootSystem) -> list[int]:
    counts = [0] * rs.rank
    for e in short_root_subdiagram(rs)[1]:
        counts[e.type_index] += 1
    return counts


def expected_short_subdiagram_counts(rs: RootSystem) -> list[int]:
    """Short types get h(Δ_s) - 2 edges; long types get h*(Δ) - h(Δ_l)."""
    short = rs.short_simple_indices
    if not short:
        raise RootSystemError(f"{rs.id} is simply laced: no short-root subdiagram")
    shorts = [r for r in rs.positive_roots if not rs.is_long(r)]
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    hs = set(_component_coxeter_numbers(rs, shorts))
    hl = set(_component_coxeter_numbers(rs, longs))
    if len(hs) != 1 or len(hl) != 1:
        raise RootSystemError("components of equal length classes must share h")
    h_short, h_long = hs.pop(), hl.pop()
    return [
        h_short - 2 if i in short else rs.dual_h - h_long
        for i in range(rs.rank)
    ]


def short_subdiagram_equals_induced(rs: RootSystem) -> bool:
    """Compare the deletion construction with the induced-subposet Hasse diagram.

    Reported by the verify suite rather than assumed anywhere.
    """
    shorts, edges = short_root_subdiagram(rs)
    induced = FinitePoset(shorts, rs.root_leq)
    got = {(e.upper, e.lower) for e in edges}
    want = set(induced.covers())
    return got == want
