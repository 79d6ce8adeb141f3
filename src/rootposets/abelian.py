"""Abelian ideals, commutative roots and their classes, the type-A rotation
tau, long Abelian ideals, and covering polynomials.

An ideal is Abelian when no two of its roots sum to a root.  A positive root
is commutative when its principal ideal is Abelian; its class is the type of
the Hasse edge removing it from that ideal, and the class provably does not
depend on which Abelian ideal the root generates an edge of - here that
independence is re-verified rather than assumed.  Expected class values per
classical family and the full exceptional class tables ship as fixtures
(`data/`), guarding the machinery against convention drift.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources
from typing import Iterable, NamedTuple

from .ideals import (
    UpperIdeal,
    _above,
    _antichain_ideals,
    _order_masks,
    _sums_with,
    generator_count_polynomial,
    generator_types,
    ideal_from_mask,
    principal_ideal,
)
from .posets import FinitePoset, IntPolynomial
from .rootsystem import Root, RootSystem, RootSystemError


@lru_cache(maxsize=None)
def _expected_counts() -> dict:
    with resources.files("rootposets.data").joinpath("expected_counts.json").open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _appendix_classes() -> dict:
    with resources.files("rootposets.data").joinpath("commutative_classes.json").open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def enumerate_abelian_ideals(rs: RootSystem) -> tuple[UpperIdeal, ...]:
    """All Abelian upper ideals (count 2^rank), via pruned antichain search.

    The clash mask of a root gamma holds every root that sums to a root with
    some root above gamma.  An Abelian ideal I stays Abelian when gamma's
    principal ideal U is added iff I | U misses gamma's clash mask: every new
    root lies in U.  `admit(mask, up)` receives U, so each step is one lookup
    and one AND, and the search blocks from the start every root whose
    principal ideal is not Abelian.
    """
    up, _ = _order_masks(rs)
    clash = dict(zip(up, _above(rs, _sums_with(rs))))

    def stays_abelian(mask: int, up: int) -> bool:
        return not clash[up] & (mask | up)

    out = _antichain_ideals(rs, stays_abelian)
    if len(out) != 2**rs.rank:
        raise RootSystemError(f"found {len(out)} Abelian ideals, expected 2^rank")
    return out


def expected_ab_edge_count(rs: RootSystem) -> int:
    n = rs.rank
    return (n + 1) * 2 ** (n - 2) if n >= 2 else 1


def expected_ab_edge_type_counts(rs: RootSystem) -> list[int]:
    """Per type: 2^(n-2) everywhere, except the symplectic pattern.

    For C_n (and A1, which is sp_2): alpha_0 gets 2^(n-1), the short chain
    types 2^(n-2) each, the long end node 0.  B2 is C2 with the two finite
    nodes swapped, so it inherits the transported pattern.
    """
    n = rs.rank
    if rs.family == "C" or (rs.family, n) == ("A", 1):
        if n == 1:
            return [1, 0]
        return [2 ** (n - 1)] + [2 ** (n - 2)] * (n - 1) + [0]
    if (rs.family, n) == ("B", 2):
        return [2, 0, 1]
    return [2 ** (n - 2)] * (n + 1)


# -- commutative roots and classes ------------------------------------------------


class CommutativeRoot(NamedTuple):
    root: Root
    class_index: int
    ideal: UpperIdeal


def abelian_principal_ideals(rs: RootSystem) -> list[UpperIdeal]:
    """The principal ideals that are Abelian, one per commutative root; no typing."""
    principal = (principal_ideal(rs, gamma) for gamma in rs.positive_roots)
    return [ideal for ideal in principal if ideal.is_abelian()]


@lru_cache(maxsize=None)
def commutative_roots(rs: RootSystem) -> tuple[CommutativeRoot, ...]:
    """Roots whose principal ideal is Abelian, with their edge classes."""
    types = generator_types(enumerate_abelian_ideals(rs))
    out = []
    for ideal in abelian_principal_ideals(rs):
        (gamma,) = ideal.generators
        out.append(CommutativeRoot(gamma, types[ideal.mask][gamma], ideal))
    return tuple(out)


def class_map(rs: RootSystem) -> dict[Root, int]:
    return {rec.root: rec.class_index for rec in commutative_roots(rs)}


def expected_commutative_count(rs: RootSystem) -> int:
    """n(n+1)/2, plus the product of branch-tail sizes when the diagram branches."""
    n = rs.rank
    base = n * (n + 1) // 2
    degree = [0] * n
    neighbours = [[] for _ in range(n)]
    for a, b in rs.dynkin_edges():
        degree[a] += 1
        degree[b] += 1
        neighbours[a].append(b)
        neighbours[b].append(a)
    branch = [i for i in range(n) if degree[i] == 3]
    if not branch:
        return base
    (node,) = branch
    product = 1
    for start in neighbours[node]:
        size = 0
        stack, seen = [start], {node, start}
        while stack:
            cur = stack.pop()
            size += 1
            for nb in neighbours[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        product *= size
    return base + product


def _maximal(rs: RootSystem, roots: list[Root]) -> list[Root]:
    """The maximal elements of a set of positive roots, in index order."""
    up, _ = _order_masks(rs)
    index = rs.root_index
    mask = sum(1 << index[g] for g in roots)
    return [g for g in roots if up[index[g]] & mask == 1 << index[g]]


def noncommutative_maximal(rs: RootSystem) -> Root | None:
    """The unique maximal non-commutative root; None when all roots commute."""
    commutative = {rec.root for rec in commutative_roots(rs)}
    rest = [g for g in rs.positive_roots if g not in commutative]
    if not rest:
        return None
    maximal = _maximal(rs, rest)
    if len(maximal) != 1:
        raise RootSystemError(f"expected a unique maximal non-commutative root, got {maximal}")
    return maximal[0]


def hyperplane_meets_double_alcove(rs: RootSystem, gamma: Root) -> bool:
    """Does {x : (x, gamma) = 1} meet the open double fundamental alcove?

    (x, gamma) - 1 is affine on the simplex 2A: it is -1 at the origin vertex
    and 2(v_k, gamma) - 1 at the vertex 2v_k, where v_k is the k-th fundamental
    coweight over the mark theta_k, so (v_k, gamma) = gamma_k/theta_k.  The
    hyperplane meets the open simplex iff some vertex value is positive, that
    is iff 2*gamma_k > theta_k for some k.
    """
    return any(2 * g > t for g, t in zip(gamma, rs.theta))


def check_class_independence(rs: RootSystem) -> dict[Root, int]:
    """Class of a commutative root recomputed in every Abelian ideal it generates."""
    observed: dict[Root, set[int]] = {}
    for types in generator_types(enumerate_abelian_ideals(rs)).values():
        for gamma, t in types.items():
            observed.setdefault(gamma, set()).add(t)
    classes = class_map(rs)
    if set(observed) != set(classes):
        raise RootSystemError("generators of Abelian ideals != commutative roots")
    for gamma, types in observed.items():
        if types != {classes[gamma]}:
            raise RootSystemError(f"class of {gamma} is not independent: {sorted(types)}")
    return classes


def check_adjacent_classes(rs: RootSystem) -> None:
    """Hasse-adjacent commutative roots have adjacent classes in the extended diagram."""
    classes = class_map(rs)
    extended = {tuple(sorted(e)) for e in rs.extended_edges()}
    for gamma, cls in classes.items():
        for i in range(rs.rank):
            upper = tuple(c + (1 if j == i else 0) for j, c in enumerate(gamma))
            if upper in classes:
                pair = tuple(sorted((cls, classes[upper])))
                if pair[0] == pair[1] or pair not in extended:
                    raise RootSystemError(
                        f"classes {pair} of adjacent roots {gamma} < {upper} are not"
                        " adjacent in the extended diagram"
                    )


def check_orthogonal_maximal_classes(rs: RootSystem) -> list[Root]:
    """Commutative maximal roots orthogonal to theta have class alpha_0."""
    classes = class_map(rs)
    orth = [g for g in rs.positive_roots if rs.form(g, rs.theta) == 0]
    witnesses = []
    for gamma in _maximal(rs, orth):
        if gamma in classes:
            if classes[gamma] != 0:
                raise RootSystemError(f"maximal orthogonal root {gamma} has class {classes[gamma]}")
            witnesses.append(gamma)
    return witnesses


def check_cogenerator_orthogonality(rs: RootSystem) -> None:
    """Distinct generators of one Abelian ideal have orthogonal classes."""
    classes = class_map(rs)
    for ideal in enumerate_abelian_ideals(rs):
        gens = ideal.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                c1, c2 = classes[gens[i]], classes[gens[j]]
                if rs.extended_form(c1, c2) != 0:
                    raise RootSystemError(
                        f"co-generators {gens[i]}, {gens[j]} have non-orthogonal"
                        f" classes {c1}, {c2}"
                    )


# -- expected class fixtures --------------------------------------------------------


def _ones(n: int, lo: int, hi: int) -> Root:
    """Coordinates with 1 on [lo, hi) and 0 elsewhere."""
    return tuple(1 if lo <= i < hi else 0 for i in range(n))


def expected_classical_classes(rs: RootSystem) -> dict[Root, int] | None:
    """Per-family coordinate formulas for classes (1-based epsilon indices)."""
    n = rs.rank
    if rs.family == "A":
        out = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                out[_ones(n, i - 1, j - 1)] = (i + j - 1) % (n + 1)
        return out
    if rs.family == "C":
        out = {}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                coords = [0] * n
                for k in range(i - 1, j - 1):
                    coords[k] = 1
                for k in range(j - 1, n - 1):
                    coords[k] = 2
                coords[n - 1] = 1
                out[tuple(coords)] = j - i
        return out
    if rs.family == "B":
        out = {}
        # eps_1 - eps_j, with eps_{n+1} := 0; class alpha_0 for j=2, else alpha_{j-1}
        for j in range(2, n + 2):
            coords = [0] * n
            for k in range(0, min(j - 1, n)):
                coords[k] = 1
            out[tuple(coords)] = 0 if j == 2 else j - 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                coords = [0] * n
                for k in range(i - 1, j - 1):
                    coords[k] = 1
                for k in range(j - 1, n):
                    coords[k] = 2
                out[tuple(coords)] = _eq_i_plus_j_class(i, j)
        return out
    if rs.family == "D":
        out = {}
        for j in range(2, n + 1):  # eps_1 - eps_j
            out[_ones(n, 0, j - 1)] = 0 if j == 2 else (j - 1 if j < n else n)
        for i in range(2, n - 1):  # eps_i - eps_n, 2 <= i <= n-2
            out[_ones(n, i - 1, n - 1)] = n - i
        # eps_{n-1} - eps_n shares the class of eps_{n-1} + eps_n
        out[_ones(n, n - 2, n - 1)] = _eq_i_plus_j_class(n - 1, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                coords = [0] * n
                if j == n:
                    for k in range(i - 1, n - 2):
                        coords[k] = 1
                    coords[n - 1] = 1
                else:
                    for k in range(i - 1, j - 1):
                        coords[k] = 1
                    for k in range(j - 1, n - 2):
                        coords[k] = 2
                    coords[n - 2] = 1
                    coords[n - 1] = 1
                out[tuple(coords)] = _eq_i_plus_j_class(i, j)
        return out
    return None


def _eq_i_plus_j_class(i: int, j: int) -> int:
    if j - i >= 2:
        return j - i
    return 0 if j % 2 == 0 else 1


def expected_exceptional_classes(rs: RootSystem) -> dict[Root, int] | None:
    """The published class tables for E6, E7, E8, F4."""
    key = f"{rs.family}{rs.rank}"
    data = _appendix_classes().get(key)
    if data is None:
        return None
    out = {}
    for cls, roots in data.items():
        for digits in roots:
            out[tuple(int(ch) for ch in digits)] = int(cls)
    return out


def expected_classes(rs: RootSystem) -> dict[Root, int] | None:
    if rs.family in "ABCD":
        return expected_classical_classes(rs)
    return expected_exceptional_classes(rs)


# -- Suter's rotation on type-A Abelian ideals ---------------------------------------


def _pairs_from_ideal(ideal: UpperIdeal) -> list[tuple[int, int]]:
    """Generators eps_a - eps_b as (a, b) pairs, sorted by first index."""
    pairs = []
    for g in ideal.generators:
        support = [i for i, c in enumerate(g) if c]
        pairs.append((support[0] + 1, support[-1] + 2))
    return sorted(pairs)


def _ideal_from_pairs(rs: RootSystem, pairs: Iterable[tuple[int, int]]) -> UpperIdeal:
    n = rs.rank
    mask = 0
    for a, b in pairs:
        mask |= principal_ideal(rs, _ones(n, a - 1, b - 1)).mask
    return ideal_from_mask(rs, mask)


def suter_tau(ideal: UpperIdeal) -> UpperIdeal:
    """Suter's rotation of an Abelian ideal of sl_{n+1}.

    Generators (a_j, b_j) shift to (a_j+1, b_j+1); a pair with b = n+1 is
    dropped; a new pair (1, a_k+2) appears when a_k+1 < b_1, where a_k and
    b_1 refer to the original generators (for the empty ideal a_k = 0 and
    b_1 = infinity, so tau(empty) is the ideal of (1, 2)).
    """
    rs = ideal.rs
    if rs.family != "A":
        raise RootSystemError("the rotation tau is defined for type A only")
    n = rs.rank
    pairs = _pairs_from_ideal(ideal)
    a_last = pairs[-1][0] if pairs else 0
    b_first = pairs[0][1] if pairs else None
    new_pairs = [(a + 1, b + 1) for a, b in pairs if b != n + 1]
    if b_first is None or a_last + 1 < b_first:
        new_pairs.insert(0, (1, a_last + 2))
    result = _ideal_from_pairs(rs, new_pairs)
    if not result.is_abelian():
        raise RootSystemError("tau produced a non-Abelian ideal")
    return result


# -- long Abelian ideals -------------------------------------------------------------


@lru_cache(maxsize=None)
def long_abelian_ideals(rs: RootSystem) -> tuple[UpperIdeal, ...]:
    """The Abelian ideals whose roots are all long: those that miss the mask of
    short roots, built once per system."""
    short = sum(1 << i for i, g in enumerate(rs.positive_roots) if not rs.is_long(g))
    if not short:
        raise RootSystemError("long Abelian ideals are a non-simply-laced notion")
    return tuple(ideal for ideal in enumerate_abelian_ideals(rs) if not ideal.mask & short)


def long_abelian_edge_type_counts(rs: RootSystem) -> list[int]:
    """Typed edges of the Hasse diagram restricted to long Abelian ideals."""
    masks = {ideal.mask for ideal in long_abelian_ideals(rs)}
    types = generator_types(enumerate_abelian_ideals(rs))
    counts = [0] * (rs.rank + 1)
    for mask in masks:
        for gamma, t in types[mask].items():
            if (mask & ~(1 << rs.root_index[gamma])) in masks:
                counts[t] += 1
    return counts


def expected_long_abelian_count(rs: RootSystem) -> int:
    if rs.family == "B":
        return 2 ** (rs.rank - 1)
    return {"C": 2, "G": 3, "F": 4}[rs.family]


# -- covering polynomials -------------------------------------------------------------


def ab_covering_polynomial(rs: RootSystem) -> IntPolynomial:
    return generator_count_polynomial(enumerate_abelian_ideals(rs))


def expected_ab_covering_polynomial(rs: RootSystem) -> IntPolynomial:
    n = rs.rank
    if rs.family in "ABC":
        coeffs = [math.comb(n + 1, 2 * k) for k in range(n // 2 + 2)]
    elif rs.family == "D":
        coeffs = [
            math.comb(n + 2, 2 * k) - (4 * math.comb(n - 1, 2 * k - 2) if k else 0)
            for k in range(n // 2 + 2)
        ]
    else:
        coeffs = _expected_counts()["ab_covering"][f"{rs.family}{n}"]
    return IntPolynomial(coeffs)


def expected_delta_covering_polynomial(rs: RootSystem) -> IntPolynomial:
    n = rs.rank
    if rs.family == "A":
        coeffs = [n, 0, math.comb(n, 2)]
    elif rs.family in "BC":
        coeffs = [n, n - 1, (n - 1) ** 2]
    elif rs.family == "D":
        coeffs = [n, n - 3, math.comb(n, 2) + math.comb(n - 3, 2), n - 3]
    else:
        coeffs = _expected_counts()["delta_covering"][f"{rs.family}{n}"]
    return IntPolynomial(coeffs)


def max_orthogonal_simple_count(rs: RootSystem) -> int:
    """Largest set of pairwise orthogonal simple roots (Dynkin independent set)."""
    n = rs.rank
    edges = rs.dynkin_edges()
    best = 0
    for mask in range(1 << n):
        if any(mask >> a & 1 and mask >> b & 1 for a, b in edges):
            continue
        best = max(best, mask.bit_count())
    return best


def boolean_lattice_covering_polynomial(n: int) -> IntPolynomial:
    """Sanity anchor: the covering polynomial of the Boolean lattice is (1+q)^n."""
    subsets = list(range(1 << n))
    poset = FinitePoset(subsets, lambda a, b: a & ~b == 0)
    return poset.covering_polynomial()
