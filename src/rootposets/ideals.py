"""Upper ideals of the positive roots, their minimal affine Weyl elements,
and the typed Hasse edges of the ideal poset.

An upper ideal is upward-closed in the root order and is identified by its
generating antichain (its minimal roots).  Each ideal I determines a unique
affine Weyl element w with inversion set {k*delta - gamma : gamma in I^k},
where I^(k+1) = (I^k + I) cap positive roots; the element is recovered by
peeling that inversion set (`_kernels.peel`, which yields its word and
w^{-1}(alpha_i)), and every construction re-verifies the defining conditions:

  (containment)  gamma in I  iff  w(delta - gamma) < 0
  (dominance)    w(alpha) > 0 for every finite simple alpha
  (minimality)   w^{-1}(alpha_i) = k_i*delta + mu_i with k_i >= -1

Hasse edges of the ideal poset carry a type in {0..n}: removing a generator
gamma from I yields an edge whose type is the affine simple root w(gamma -
delta).  The same multiset of types is recovered three more ways (facets of
the point z = w(0), separating walls of w^{-1}*A, left descents of w).  The
facet and descent routes read the same levels of w^{-1}(alpha_i), so they
differ only by the walk of z along the reduced word.

To type a whole lattice, `generator_types` walks its covers
(`lattice_images`) instead of one full peel per ideal.  The parent P of I
is I minus its first generator g; the images w_I^{-1}(alpha_i) resume the
peel of the parent's and peel only the rows of I's inversion set that the
parent's lacks, the new masks N_k = I^k minus P^k.  The walk carries the
powers too: I^k = P^k | (N_(k-1) + P) | (I^(k-1) + g) (`_cover_powers`), so
no lattice ideal computes its `powers` from scratch.  A successful peel
yields exactly the target inversion set, so the images are those of the
element `minimal_element` builds, and the type t of gamma, the t with
w^{-1}(alpha_t) = gamma - delta, is the position of gamma - delta among the
n+1 images: no matrix is formed.  A batch holds one system, so the walk
reads its tables (root index, peel tables, sum table, sums masks) once per
batch and refuses a batch that mixes systems; the rows (-gamma, k) are built
from the system's negated roots, cached once.  The Abelian ideals
(`abelian`) share the antichain search and the typing.

Both lattices come from one antichain search (`_antichain_ideals`).  It
adds roots in increasing tuple order, so each generator tuple is built
sorted and the depth-first preorder is generator order; a stable pass into
buckets by size then gives the (size, generators) order that `sample_ideals`'
seeded draw and the DOT node numbers of `export` read, with no sort.  The
Abelian search prunes through `admit(mask, up)`, one AND per step against
the clash mask of the added root.

The per-system tables are bit masks over the root indices: the order is
built along the covers, and the sum table from integer root keys that add
without carries (`_root_keys`).  The search's own table (`_search_slots`)
holds the comparability masks over the tuple-ordered slots instead.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _kernels
from .affine import AffineWeylElement, Wall, fundamental_alcove_vertices, is_positive_affine
from .posets import IntPolynomial
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

    def is_abelian(self) -> bool:
        sums = _sums_with(self.rs)
        return not any(sums[j] & self.mask for j in _bits(self.mask))

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
def _root_keys(rs: RootSystem) -> tuple[tuple[int, ...], dict[int, int], tuple[int, ...]]:
    """(keys, index of each key, key of each simple root).

    A root c is the integer sum of c_k * B**k with B = 2*max(theta) + 1.
    No coefficient of a positive root exceeds theta's, so the key of a sum of
    two positive roots is the sum of their keys: no digit carries.
    """
    base = 2 * max(rs.theta) + 1
    steps = tuple(base**k for k in range(rs.rank))
    keys = tuple(sum(map(mul, root, steps)) for root in rs.positive_roots)
    return keys, {key: i for i, key in enumerate(keys)}, steps


@lru_cache(maxsize=None)
def _covers(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """covers[i] = indices of the roots covering root i, the roots pos[i] + alpha_k."""
    keys, index, steps = _root_keys(rs)
    return tuple(tuple(index[c] for s in steps if (c := key + s) in index) for key in keys)


def _above(rs: RootSystem, seed: Sequence[int]) -> list[int]:
    """For each root, the OR of `seed` over the roots at or above it.

    Every root above beta is reached along the covers beta < beta + alpha_k,
    so this is one pass from the highest root down (the roots are sorted by
    height).
    """
    covers = _covers(rs)
    out = list(seed)
    for i in reversed(range(len(out))):
        for j in covers[i]:
            out[i] |= out[j]
    return out


def _comparable(rs: RootSystem, bit: Sequence[int]) -> tuple[list[int], list[int]]:
    """(up, comp) with root j at bit position bit[j]: up[i] holds the roots at or
    above root i, comp[i] every root comparable to it."""
    up = _above(rs, [1 << b for b in bit])
    down = [1 << b for b in bit]
    for i, cover in enumerate(_covers(rs)):
        for j in cover:
            down[j] |= down[i]
    return up, [u | d for u, d in zip(up, down)]


@lru_cache(maxsize=None)
def _order_masks(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, comp) over the root indices: up[i] = indices above root i; comp[i] =
    indices comparable to i."""
    up, comp = _comparable(rs, range(len(rs.positive_roots)))
    return tuple(up), tuple(comp)


@lru_cache(maxsize=None)
def _search_slots(rs: RootSystem) -> tuple[tuple[Root, int, int], ...]:
    """The antichain search's table: the positive roots in increasing tuple
    order, one slot each, as (root, up, comp).

    up is the root's principal ideal over the root indices, the mask of an
    `UpperIdeal`; comp is the set of comparable roots over the slots, the
    mask the search blocks when it adds the root.
    """
    pos = rs.positive_roots
    order = sorted(range(len(pos)), key=pos.__getitem__)
    slot = [0] * len(pos)
    for s, i in enumerate(order):
        slot[i] = s
    up, _ = _order_masks(rs)
    _, comp = _comparable(rs, slot)
    return tuple((pos[i], up[i], comp[i]) for i in order)


@lru_cache(maxsize=None)
def _sum_table(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """sum_table[i][j] = index of pos[i]+pos[j] among positive roots, or -1.

    The table is symmetric: one pass over the pairs i <= j fills both halves.
    """
    keys, index, _ = _root_keys(rs)
    get = index.get
    table = [[-1] * len(keys) for _ in keys]
    for i, a in enumerate(keys):
        row = table[i]
        for j in range(i, len(keys)):
            k = get(a + keys[j])
            if k is not None:
                row[j] = table[j][i] = k
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def _sums_with(rs: RootSystem) -> tuple[int, ...]:
    """For each positive root index, the mask of the indices it sums with to a root."""
    return tuple(sum(1 << j for j, k in enumerate(row) if k >= 0) for row in _sum_table(rs))


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
    index = rs.root_index.get(gamma)
    if index is None:
        raise RootSystemError(f"{gamma} is not a positive root")
    up, _ = _order_masks(rs)
    return UpperIdeal(rs, up[index], (gamma,))


def full_ideal(rs: RootSystem) -> UpperIdeal:
    return ideal_from_mask(rs, (1 << len(rs.positive_roots)) - 1)


def _antichain_ideals(
    rs: RootSystem, admit: Callable[[int, int], bool] | None = None
) -> tuple[UpperIdeal, ...]:
    """Upper ideals by antichain search, sorted by size then generators.

    Generators are added in increasing tuple order (`_search_slots`), so each
    generator tuple is built sorted and the depth-first preorder visits the
    ideals in generator order; appending each to the bucket of its size sorts
    by size and keeps that order within a size, with no comparison sort.

    `admit(mask, up)` may refuse the step from the ideal `mask` to `mask | up`,
    where up is the principal ideal of the added root.  It must decide a
    property that every sub-ideal inherits: a refused step prunes every ideal
    above it, and a root whose principal ideal is refused (`admit(0, up)`) is
    blocked from the start.
    """
    slots = _search_slots(rs)
    m = len(slots)
    by_size: list[list[UpperIdeal]] = [[] for _ in range(m + 1)]

    def descend(start: int, gens: tuple[Root, ...], mask: int, blocked: int) -> None:
        by_size[mask.bit_count()].append(UpperIdeal(rs, mask, gens))
        free = ~blocked & ((1 << m) - (1 << start))
        while free:
            low = free & -free
            free ^= low
            s = low.bit_length() - 1
            root, up, comp = slots[s]
            if admit is None or admit(mask, up):
                descend(s + 1, gens + (root,), mask | up, blocked | comp)

    refused = 0
    if admit is not None:
        for s, (_, up, _) in enumerate(slots):
            if not admit(0, up):
                refused |= 1 << s
    descend(0, (), 0, refused)
    return tuple(chain.from_iterable(by_size))


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


@lru_cache(maxsize=None)
def _negated_roots(rs: RootSystem) -> tuple[Root, ...]:
    """-gamma for each positive root gamma, in index order."""
    return tuple(tuple(-c for c in root) for root in rs.positive_roots)


def target_inversion_rows(
    ideal: UpperIdeal, powers: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Rows (-gamma, k) for gamma in I^k: the inversion set of w.

    With `powers`, the rows (-gamma, k) for gamma in powers[k - 1] instead:
    the lattice walk passes the masks I^k minus P^k of a parent P, whose rows
    are the inversion set of w_I less that of w_P.
    """
    negated = _negated_roots(ideal.rs)
    return [
        (*negated[i], k)
        for k, mask in enumerate(ideal.powers if powers is None else powers, start=1)
        for i in _bits(mask)
    ]


def minimal_element(ideal: UpperIdeal) -> MinimalElement:
    rs = ideal.rs
    rows = target_inversion_rows(ideal)
    if not rows:
        return MinimalElement(ideal, AffineWeylElement.identity(rs), ())
    tables = _kernels.peel_tables(rs)
    try:
        peeled = _kernels.peel(rows, tables)
    except _kernels.PeelError as exc:  # should be impossible for an upper ideal
        raise RootSystemError(f"peeling failed for {ideal.generators}: {exc}") from exc
    if peeled.word[-1] != 0:
        raise RootSystemError("nonempty ideal must end its reduced word with s_0")
    element = AffineWeylElement(rs, _kernels.word_matrix(peeled.word, tables), peeled.inverse)
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
    delta = [row[-1] for row in w.matrix]
    simple_index = {alpha: i for i, alpha in enumerate(rs.simple_roots, start=1)}
    length = 0
    for index, gamma in enumerate(rs.positive_roots):
        image = w.act((*gamma, 0))
        difference = tuple(d - c for d, c in zip(delta, image))
        if (me.ideal.mask >> index & 1) == is_positive_affine(difference):
            raise RootSystemError(f"containment condition fails at {gamma}")
        i = simple_index.get(gamma)
        if i is not None and not is_positive_affine(image):
            raise RootSystemError(f"dominance fails at alpha_{i}")
        length += abs(image[-1] - (not rs.is_positive_root(image[:-1])))
    images = w.inverse().simple_images()
    if any(w.act(v) != a for v, a in zip(images, _kernels.peel_tables(rs).simples)):
        raise RootSystemError("the stored inverse does not invert the element")
    levels = tuple(v[-1] for v in images)
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
    simples = _kernels.peel_tables(me.ideal.rs).simples
    out = {}
    for gamma in me.ideal.generators:
        image = me.element.act((*gamma, -1))
        try:
            out[gamma] = simples.index(image)
        except ValueError:
            raise RootSystemError(
                f"edge image {image} of generator {gamma} is not an affine simple root"
            ) from None
    if len(set(out.values())) != len(out):
        raise RootSystemError("two generators of one ideal received the same type")
    return out


def _cover_powers(
    table: Sequence[Sequence[int]],
    sums: Sequence[int],
    parent_mask: int,
    parent_powers: Sequence[int],
    g: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Powers of I = P + {root g} and the new masks I^k minus P^k, from P's powers.

    I^k = (I^(k-1) + P) | (I^(k-1) + g), and with N_k = I^k minus P^k,
    I^(k-1) + P = P^k | (N_(k-1) + P).  So only the few new roots and g are
    looked up in the system's `_sum_table` and `_sums_with`, not every root
    of I^(k-1).
    """
    g_row, g_sums = table[g], sums[g]
    powers, news = [], []
    new = 1 << g
    cur = parent_mask | new
    while cur:
        powers.append(cur)
        news.append(new)
        below = parent_powers[len(powers)] if len(powers) < len(parent_powers) else 0
        nxt = below
        for i in _bits(new):
            row = table[i]
            for j in _bits(sums[i] & parent_mask):
                nxt |= 1 << row[j]
        for j in _bits(cur & g_sums):
            nxt |= 1 << g_row[j]
        new = nxt & ~below
        cur = nxt
    return tuple(powers), tuple(news)


def lattice_images(batch: Iterable[UpperIdeal]) -> Iterator[tuple[UpperIdeal, _kernels.Matrix]]:
    """(I, w_I^{-1}(alpha_0..n)) for each ideal of a batch of one system, smallest first.

    The images resume the peel of w_P, P = I minus its first generator, with
    the rows of I that P lacks: one row when I is Abelian.  The powers of I
    come from P's along the cover (`_cover_powers`), so the walk reads no
    `UpperIdeal.powers`.  The system's tables are read once per batch.
    Raises if the batch mixes systems or a parent is missing from it.
    """
    ordered = sorted(batch, key=len)
    if not ordered:
        return
    rs = ordered[0].rs
    root_index = rs.root_index
    parent_masks = {}
    for ideal in ordered:
        if ideal.rs is not rs:
            raise RootSystemError(f"the batch mixes ideals of {rs.id} and {ideal.rs.id}")
        if ideal.generators:
            parent_masks[ideal.mask] = ideal.mask & ~(1 << root_index[ideal.generators[0]])
    tables = _kernels.peel_tables(rs)
    table, sums = _sum_table(rs), _sums_with(rs)
    # a state is dropped after its last child is built: a walk over the
    # 25 080 E8 ideals then holds at most 403 states at once
    children = Counter(parent_masks.values())
    states: dict[int, tuple[tuple[int, ...], _kernels.Peeled]] = {}
    for ideal in ordered:
        parent_mask = parent_masks.get(ideal.mask)
        if parent_mask is None:
            powers: tuple[int, ...] = ()
            peeled = _kernels.Peeled((), tables.simples)
        else:
            try:
                parent_powers, start = states[parent_mask]
            except KeyError:
                raise RootSystemError(
                    f"the batch lacks the parent of the ideal generated by {ideal.generators}"
                ) from None
            children[parent_mask] -= 1
            if not children[parent_mask]:
                del states[parent_mask]
            g = root_index[ideal.generators[0]]
            powers, new = _cover_powers(table, sums, parent_mask, parent_powers, g)
            rows = target_inversion_rows(ideal, new)
            try:
                peeled = _kernels.peel(rows, tables, start)
            except _kernels.PeelError as exc:  # should be impossible for an upper ideal
                raise RootSystemError(f"peeling failed for {ideal.generators}: {exc}") from exc
        if children[ideal.mask]:
            states[ideal.mask] = (powers, peeled)
        yield ideal, peeled.images


@lru_cache(maxsize=None)
def generator_types(batch: tuple[UpperIdeal, ...]) -> dict[int, dict[Root, int]]:
    """{ideal.mask: generator edge types of w_I} over a batch of one system.

    The one typing of a lattice: cached per batch, which both enumerations
    return as cached tuples, so each lattice is walked once per process.  The
    cached dicts are shared: read them, do not mutate them.  Each type is the
    position t of gamma - delta = w_I^{-1}(alpha_t) among the n+1 images of
    `lattice_images`; `generator_edge_types` types by the matrix action.
    Raises, as the walk does, if the batch mixes systems.
    """
    out = {}
    for ideal, images in lattice_images(batch):
        try:
            out[ideal.mask] = {gamma: images.index((*gamma, -1)) for gamma in ideal.generators}
        except ValueError:
            missing = next((*g, -1) for g in ideal.generators if (*g, -1) not in images)
            raise RootSystemError(f"{missing} is no w^-1 image of an affine simple root") from None
    return out


def typed_edges(batch: tuple[UpperIdeal, ...]) -> list[IdealEdge]:
    """The edges I -> I \\ {gamma} of a batch, typed by its `generator_types`.

    Each lower ideal is looked up in the batch by its mask, so the batch must
    be closed under removing a generator, as the full and Abelian lattices are.
    """
    types = generator_types(batch)
    by_mask = {ideal.mask: ideal for ideal in batch}
    return [
        IdealEdge(ideal, by_mask[ideal.mask & ~(1 << ideal.rs.root_index[gamma])], t)
        for ideal in batch
        for gamma, t in types[ideal.mask].items()
    ]


def type_counts(batch: tuple[UpperIdeal, ...]) -> list[int]:
    """Number of edges of each type 0..n of a nonempty batch, from `generator_types`."""
    counts = [0] * (batch[0].rs.rank + 1)
    for ideal_types in generator_types(batch).values():
        for t in ideal_types.values():
            counts[t] += 1
    return counts


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
    levels = [v[-1] for v in me.element.inverse().simple_images()]
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
    verts = g.act_points(fundamental_alcove_vertices(rs))
    types = []
    for t, row in enumerate(g.simple_images()):
        image = Wall(row[:-1], -row[-1])  # wall t of w^{-1} * A: where g(alpha_t) vanishes
        side_values = image.scaled_values(rs, verts)  # D times the values: same signs
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
