"""Upper ideals of the positive roots, their minimal affine Weyl elements,
and the typed Hasse edges of the ideal poset.

An upper ideal is upward-closed in the root order and is identified by its
generating antichain (its minimal roots).  Each ideal I determines a unique
affine Weyl element w with inversion set {k*delta - gamma : gamma in I^k},
where I^(k+1) = (I^k + I) cap positive roots; the element is recovered by
peeling that inversion set (`_kernels.peel`, which builds the integer matrix
of w as it goes), and every construction re-verifies the defining conditions:

  (containment)  gamma in I  iff  w(delta - gamma) < 0
  (dominance)    w(alpha) > 0 for every finite simple alpha
  (minimality)   w^{-1}(alpha_i) = k_i*delta + mu_i with k_i >= -1

Hasse edges of the ideal poset carry a type in {0..n}: removing a generator
gamma from I yields an edge whose type is the affine simple root w(gamma -
delta).  The same multiset of types is recovered three more ways (facets of
the point z = w(0), separating walls of w^{-1}*A, left descents of w).  The
facet and descent routes read the same levels of w^{-1}(alpha_i), so they
differ only by the walk of z along the reduced word.

To type a whole lattice, `generator_types` builds the elements along its
covers (`lattice_elements`) instead of one full peel per ideal.  The parent
of I is I minus its first generator; w_I resumes the peel of the parent's
element and peels only the rows of I's inversion set that the parent's
lacks.  A successful peel yields exactly the target inversion set, so the
element is the one `minimal_element` builds; its word is never formed.
The Abelian ideals (`abelian`) share the antichain search and the typing.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import zip_longest
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _kernels
from .affine import (
    AffineRoot,
    AffineWeylElement,
    Wall,
    affine_simple_roots,
    fundamental_alcove_vertices,
    is_positive_affine,
)
from .posets import FinitePoset, IntPolynomial
from .rootsystem import Root, RootSystem, RootSystemError


@dataclass(frozen=True)
class UpperIdeal:
    """An upward-closed subset of the positive roots.

    Ideals of different systems never compare equal; the hash covers only the
    integer fields, not the `powers` cached on first read.
    """

    rs: RootSystem = field(repr=False, hash=False)
    mask: int
    generators: tuple[Root, ...]

    def roots(self) -> list[Root]:
        pos = self.rs.positive_roots
        return [pos[i] for i in _bits(self.mask)]

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, root: Root) -> bool:
        i = self.rs.root_index.get(root)
        return i is not None and self.mask >> i & 1

    def without_generator(self, gamma: Root) -> "UpperIdeal":
        if gamma not in self.generators:
            raise RootSystemError(f"{gamma} is not a generator")
        mask = self.mask & ~(1 << self.rs.root_index[gamma])
        return ideal_from_mask(self.rs, mask)

    def is_abelian(self) -> bool:
        return not _power_mask(self.rs, self.mask, self.mask)

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """Masks of I = I^1, I^2, ... down to the last nonempty power."""
        powers = []
        cur = self.mask
        while cur:
            powers.append(cur)
            cur = _power_mask(self.rs, cur, self.mask)
        return tuple(powers)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _order_masks(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, comp): up[i] = indices above root i; comp[i] = indices comparable to i."""
    pos = rs.positive_roots
    m = len(pos)
    up = [0] * m
    for i in range(m):
        for j in range(m):
            if rs.root_leq(pos[i], pos[j]):
                up[i] |= 1 << j
    comp = list(up)
    for i in range(m):
        for j in _bits(up[i]):
            comp[j] |= 1 << i
    return tuple(up), tuple(comp)


@lru_cache(maxsize=None)
def _sum_table(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """sum_table[i][j] = index of pos[i]+pos[j] among positive roots, or -1."""
    pos = rs.positive_roots
    idx = rs.root_index
    table = []
    for a in pos:
        row = [idx.get(tuple(x + y for x, y in zip(a, b)), -1) for b in pos]
        table.append(tuple(row))
    return tuple(table)


def _power_mask(rs: RootSystem, mask_a: int, mask_b: int) -> int:
    """Bitmask of (A + B) cap positive roots."""
    table = _sum_table(rs)
    b_idx = list(_bits(mask_b))
    out = 0
    for i in _bits(mask_a):
        row = table[i]
        for j in b_idx:
            k = row[j]
            if k >= 0:
                out |= 1 << k
    return out


def ideal_from_mask(rs: RootSystem, mask: int) -> UpperIdeal:
    """Build an ideal from a root bitmask, recomputing its generator antichain."""
    up, comp = _order_masks(rs)
    pos = rs.positive_roots
    for i in _bits(mask):
        if up[i] & ~mask:
            raise RootSystemError("root set is not upward closed")
    gens = [pos[i] for i in _bits(mask) if not (comp[i] & ~up[i]) & mask]
    return UpperIdeal(rs, mask, tuple(sorted(gens)))


def ideal_from_roots(rs: RootSystem, roots: Sequence[Root]) -> UpperIdeal:
    mask = 0
    for r in roots:
        if r not in rs.root_index:
            raise RootSystemError(f"{r} is not a positive root")
        mask |= 1 << rs.root_index[r]
    return ideal_from_mask(rs, mask)


def principal_ideal(rs: RootSystem, gamma: Root) -> UpperIdeal:
    up, _ = _order_masks(rs)
    return UpperIdeal(rs, up[rs.root_index[gamma]], (gamma,))


def full_ideal(rs: RootSystem) -> UpperIdeal:
    return ideal_from_mask(rs, (1 << len(rs.positive_roots)) - 1)


def empty_ideal(rs: RootSystem) -> UpperIdeal:
    return UpperIdeal(rs, 0, ())


def _antichain_ideals(
    rs: RootSystem, admit: Callable[[int, int], bool] | None = None
) -> tuple[UpperIdeal, ...]:
    """Upper ideals by antichain search, sorted by size then generators.

    Generators are added in index order; `admit(mask, new_mask)` may refuse
    the step from one ideal to the next, which prunes every ideal above it.
    """
    pos = rs.positive_roots
    up, comp = _order_masks(rs)
    m = len(pos)
    out: list[UpperIdeal] = []

    def descend(start: int, gens: tuple[int, ...], mask: int, blocked: int) -> None:
        out.append(UpperIdeal(rs, mask, tuple(sorted(pos[g] for g in gens))))
        for i in range(start, m):
            if blocked >> i & 1:
                continue
            new_mask = mask | up[i]
            if admit is None or admit(mask, new_mask):
                descend(i + 1, gens + (i,), new_mask, blocked | comp[i])

    descend(0, (), 0, 0)
    out.sort(key=lambda ideal: (len(ideal), ideal.generators))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_upper_ideals(rs: RootSystem) -> tuple[UpperIdeal, ...]:
    """All upper ideals, one per antichain, sorted by size then generators."""
    return _antichain_ideals(rs)


def expected_ideal_count(rs: RootSystem) -> int:
    """Product formula over the exponents: prod (h + e_i + 1)/(e_i + 1)."""
    num = math.prod(rs.h + e + 1 for e in rs.exponents)
    den = math.prod(e + 1 for e in rs.exponents)
    value, rest = divmod(num, den)
    if rest:
        raise RootSystemError(f"ideal count product formula is not integral: {num}/{den}")
    return value


def ideal_count_closed_form(rs: RootSystem) -> int:
    """The per-family closed forms for the number of upper ideals."""
    n = rs.rank
    if rs.family == "A":
        return math.comb(2 * n + 2, n + 1) // (n + 2)
    if rs.family in ("B", "C"):
        return math.comb(2 * n, n)
    if rs.family == "D":
        return math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1)
    return {("E", 6): 833, ("E", 7): 4160, ("E", 8): 25080, ("F", 4): 105, ("G", 2): 8}[
        (rs.family, n)
    ]


def expected_edge_count(rs: RootSystem) -> int:
    """#edges of the ideal poset = (n/2) * #ideals."""
    two_edges = rs.rank * expected_ideal_count(rs)
    if two_edges % 2:
        raise RootSystemError(f"odd edge count times two: {two_edges}")
    return two_edges // 2


# -- minimal elements -----------------------------------------------------------


class MinimalElement(NamedTuple):
    ideal: UpperIdeal
    element: AffineWeylElement
    word: tuple[int, ...]


def target_inversion_rows(
    ideal: UpperIdeal, parent: UpperIdeal | None = None
) -> list[tuple[int, ...]]:
    """Rows (-gamma, k) for gamma in I^k: the inversion set of w.

    With a `parent` P contained in I, only the rows for gamma in I^k but not
    in P^k: the inversion set of w_I less that of w_P.
    """
    pos = ideal.rs.positive_roots
    below = parent.powers if parent is not None else ()
    return [
        (*(-c for c in pos[i]), k)
        for k, (mask, lower) in enumerate(zip_longest(ideal.powers, below, fillvalue=0), start=1)
        for i in _bits(mask & ~lower)
    ]


def minimal_element(ideal: UpperIdeal) -> MinimalElement:
    rs = ideal.rs
    rows = target_inversion_rows(ideal)
    if not rows:
        return MinimalElement(ideal, AffineWeylElement.identity(rs), ())
    try:
        peeled = _kernels.peel(rows, _kernels.peel_tables(rs))
    except _kernels.PeelError as exc:  # should be impossible for an upper ideal
        raise RootSystemError(f"peeling failed for {ideal.generators}: {exc}") from exc
    if peeled.word[-1] != 0:
        raise RootSystemError("nonempty ideal must end its reduced word with s_0")
    element = AffineWeylElement(rs, peeled.matrix, peeled.inverse)
    return MinimalElement(ideal, element, peeled.word)


def check_minimal_element(me: MinimalElement) -> tuple[int, ...]:
    """Re-verify the defining conditions; returns the levels k_0..k_n.

    w is evaluated once on each positive root gamma, and that one image
    w(gamma) = mu + k*delta serves three conditions: containment (gamma in I
    iff w(delta - gamma) = w(delta) - w(gamma) < 0, with w(delta) read from
    the matrix), dominance (w(gamma) > 0 for simple gamma), and the term
    |k - [mu < 0]| of l(w).  Then the stored inverse (w undoes w^{-1} on the
    simple affine roots), minimality (all k_i >= -1), and length (the word
    length and l(w) both equal the sum of the power sizes).
    """
    rs = me.ideal.rs
    w = me.element
    *delta_finite, delta_level = (row[-1] for row in w.matrix)
    simple_index = {alpha: i for i, alpha in enumerate(rs.simple_roots, start=1)}
    length = 0
    for index, gamma in enumerate(rs.positive_roots):
        image = w.act(AffineRoot(gamma, 0))
        difference = AffineRoot(
            tuple(d - c for d, c in zip(delta_finite, image.finite)), delta_level - image.level
        )
        if (me.ideal.mask >> index & 1) == is_positive_affine(difference):
            raise RootSystemError(f"containment condition fails at {gamma}")
        i = simple_index.get(gamma)
        if i is not None and not is_positive_affine(image):
            raise RootSystemError(f"dominance fails at alpha_{i}")
        length += abs(image.level - (not rs.is_positive_root(image.finite)))
    images = w.inverse().simple_images()
    if any(w.act(v) != a for v, a in zip(images, affine_simple_roots(rs))):
        raise RootSystemError("the stored inverse does not invert the element")
    levels = tuple(v.level for v in images)
    if any(k < -1 for k in levels):
        raise RootSystemError(f"minimality fails: levels {levels}")
    expected_length = sum(m.bit_count() for m in me.ideal.powers)
    if len(me.word) != expected_length or length != expected_length:
        raise RootSystemError("length does not match the sum of ideal power sizes")
    return levels


# -- typed edges, four ways -------------------------------------------------------


class IdealEdge(NamedTuple):
    upper: UpperIdeal
    lower: UpperIdeal
    type_index: int


def generator_edge_types(me: MinimalElement) -> dict[Root, int]:
    """Type of the edge I -> I \\ {gamma} for each generator: w(gamma - delta)."""
    rs = me.ideal.rs
    simples = affine_simple_roots(rs)
    out = {}
    for gamma in me.ideal.generators:
        image = me.element.act(AffineRoot(gamma, -1))
        try:
            out[gamma] = simples.index(image)
        except ValueError:
            raise RootSystemError(
                f"edge image {image} of generator {gamma} is not an affine simple root"
            ) from None
    if len(set(out.values())) != len(out):
        raise RootSystemError("two generators of one ideal received the same type")
    return out


def lattice_elements(
    batch: Iterable[UpperIdeal],
) -> Iterator[tuple[UpperIdeal, AffineWeylElement]]:
    """(I, w_I) for each ideal of a batch of one system, smallest first.

    w_I resumes the peel of w_P, P = I minus its first generator, with the
    rows of I that P lacks: one row when I is Abelian.  Raises if a parent is
    missing from the batch.
    """
    ordered = sorted(batch, key=len)
    parent_masks = {
        ideal.mask: ideal.mask & ~(1 << ideal.rs.root_index[ideal.generators[0]])
        for ideal in ordered
        if ideal.generators
    }
    # a state is dropped after its last child is built: a walk over the
    # 25 080 E8 ideals then holds at most 403 states at once
    children = Counter(parent_masks.values())
    states: dict[int, tuple[UpperIdeal, _kernels.Peeled | None]] = {}
    for ideal in ordered:
        rs = ideal.rs
        parent_mask = parent_masks.get(ideal.mask)
        if parent_mask is None:
            peeled = None
            element = AffineWeylElement.identity(rs)
        else:
            try:
                parent, start = states[parent_mask]
            except KeyError:
                raise RootSystemError(
                    f"the batch lacks the parent of the ideal generated by {ideal.generators}"
                ) from None
            children[parent_mask] -= 1
            if not children[parent_mask]:
                del states[parent_mask]
            rows = target_inversion_rows(ideal, parent)
            try:
                peeled = _kernels.peel(rows, _kernels.peel_tables(rs), start)
            except _kernels.PeelError as exc:  # should be impossible for an upper ideal
                raise RootSystemError(f"peeling failed for {ideal.generators}: {exc}") from exc
            element = AffineWeylElement(rs, peeled.matrix, peeled.inverse)
        if children[ideal.mask]:
            states[ideal.mask] = (ideal, peeled)
        yield ideal, element


def generator_types(batch: Iterable[UpperIdeal]) -> dict[int, dict[Root, int]]:
    """{ideal.mask: generator edge types of w_I} over a batch of one system.

    The elements come from `lattice_elements`, which builds no word;
    `generator_edge_types` reads none.
    """
    return {
        ideal.mask: generator_edge_types(MinimalElement(ideal, element, ()))
        for ideal, element in lattice_elements(batch)
    }


def typed_edges(batch: Sequence[UpperIdeal], types: dict[int, dict[Root, int]]) -> list[IdealEdge]:
    """The edges I -> I \\ {gamma} of a batch, typed by its `generator_types`.

    Each lower ideal is looked up in the batch by its mask, so the batch must
    be closed under removing a generator, as the full and Abelian lattices are.
    """
    by_mask = {ideal.mask: ideal for ideal in batch}
    return [
        IdealEdge(ideal, by_mask[ideal.mask & ~(1 << ideal.rs.root_index[gamma])], t)
        for ideal in batch
        for gamma, t in types[ideal.mask].items()
    ]


def type_counts(rs: RootSystem, types: dict[int, dict[Root, int]]) -> list[int]:
    """Number of edges of each type 0..n, read from `generator_types`."""
    counts = [0] * (rs.rank + 1)
    for ideal_types in types.values():
        for t in ideal_types.values():
            counts[t] += 1
    return counts


def ad_typed_edges(rs: RootSystem) -> list[IdealEdge]:
    batch = enumerate_upper_ideals(rs)
    return typed_edges(batch, generator_types(batch))


def ad_edge_type_counts(rs: RootSystem) -> list[int]:
    return type_counts(rs, generator_types(enumerate_upper_ideals(rs)))


def _affine_values(rs: RootSystem, x: Sequence[int]) -> list[int]:
    """Affine simple roots at x (coroot coordinates): [1 - (x, theta), (x, alpha_1), ...]."""
    theta_value = sum(x[j] * rs.pairing(rs.theta, j) for j in range(rs.rank))
    return [1 - theta_value, *(sum(map(mul, x, column)) for column in zip(*rs.cartan))]


def z_point(me: MinimalElement) -> tuple[int, ...]:
    """z = w(0) in coroot coordinates, from the word acting on 0 right to left.

    s_i (i >= 1) takes (x, alpha_i) from x_i; s_0 takes ((x, theta) - 1)*theta^vee from x.
    Raises unless (z, alpha_i) is the level k_i of w^{-1}(alpha_i) and (z, theta) = 1 - k_0.
    """
    rs = me.ideal.rs
    columns = tuple(zip(*rs.cartan))
    theta = [rs.pairing(rs.theta, j) for j in range(rs.rank)]
    x = [0] * rs.rank
    for i in reversed(me.word):
        if i:
            x[i - 1] -= sum(map(mul, x, columns[i - 1]))
        else:
            shift = sum(map(mul, x, theta)) - 1
            x = [a - shift * c for a, c in zip(x, rs.coroot_marks)]
    levels = [v.level for v in me.element.inverse().simple_images()]
    if _affine_values(rs, x) != levels:
        raise RootSystemError(f"z-point {x} of the word does not give the levels {levels}")
    return tuple(x)


def facet_types(me: MinimalElement) -> set[int]:
    """Facets of {x : (x, alpha_i) >= -1, (x, theta) <= 2} that contain z = w(0)."""
    values = _affine_values(me.ideal.rs, z_point(me))
    if min(values) < -1:
        raise RootSystemError("z-point lies outside the minimal-element region")
    return {i for i, v in enumerate(values) if v == -1}


def alcove_wall_types(me: MinimalElement) -> list[int]:
    """Types of the walls of w^{-1} * A separating that alcove from the origin."""
    rs = me.ideal.rs
    g = me.element.inverse()
    verts = [g.act_point(v) for v in fundamental_alcove_vertices(rs)]
    types = []
    for t, root in enumerate(g.simple_images()):
        image = Wall(root.finite, -root.level)  # wall t of w^{-1} * A: where g(alpha_t) vanishes
        side_values = [image.evaluate(rs, v) for v in verts]
        nonzero = [v for v in side_values if v != 0]
        if len(nonzero) != 1:
            raise RootSystemError(f"alcove wall {image} does not contain all vertices but one")
        at_origin = -image.offset
        if at_origin != 0 and (nonzero[0] > 0) != (at_origin > 0):
            norm = image.normalized()
            if norm.offset != 1 or not rs.is_positive_root(norm.normal):
                raise RootSystemError(f"separating wall {norm} is not at level one")
            types.append(t)
    return sorted(types)


def descent_types(me: MinimalElement) -> set[int]:
    """{i : some reduced word of w starts with s_i} = {i : w^{-1}(alpha_i) < 0}."""
    return me.element.inverse().right_descents()


def generator_count_polynomial(batch: Iterable[UpperIdeal]) -> IntPolynomial:
    """Sum over the batch of q^(number of generators)."""
    return IntPolynomial.from_counts(Counter(len(ideal.generators) for ideal in batch))


def narayana_polynomial(rs: RootSystem) -> IntPolynomial:
    """Generator-count generating function of the ideal poset."""
    return generator_count_polynomial(enumerate_upper_ideals(rs))


def inclusion_poset(batch: Sequence[UpperIdeal]) -> FinitePoset:
    """The ideals of a batch ordered by inclusion."""
    return FinitePoset(batch, lambda a, b: a.mask & ~b.mask == 0)


# fixed so that `verify` reports are byte-identical from run to run
SAMPLE_SEED = 2004


def sample_ideals(rs: RootSystem, count: int) -> list[UpperIdeal]:
    """A deterministic sample always containing the empty, full and principal ideals."""
    ideals = enumerate_upper_ideals(rs)
    if len(ideals) <= count:
        return list(ideals)
    forced_masks = {0, full_ideal(rs).mask}
    forced_masks.update(principal_ideal(rs, g).mask for g in rs.positive_roots)
    forced = [ideal for ideal in ideals if ideal.mask in forced_masks]
    rest = [ideal for ideal in ideals if ideal.mask not in forced_masks]
    rng = random.Random(SAMPLE_SEED)
    extra = max(0, count - len(forced))
    return forced + (rng.sample(rest, extra) if extra else [])
