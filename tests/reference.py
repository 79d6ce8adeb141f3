"""Slow, direct constructions the tests compare the library against.

The library finds each of these by a faster route: the peel
(`_kernels.peel`) in place of `word_from_inversion_set`, the target rows of
an ideal in place of `inversion_set`, the memoized `weights._dominant_map`
in place of `dominant_representative`, and `AffineWeylElement.act_points`
with `Wall.scaled_values` in place of `act_point` and `wall_value` in
`alcove_wall_types`.  Each reference here follows the definition and does its
work afresh on every call.
"""

from fractions import Fraction as Q
from typing import Iterable, Sequence

from rootposets import _kernels
from rootposets.affine import AffineWeylElement, Wall, fundamental_alcove_vertices, is_positive_affine
from rootposets.ideals import MinimalElement
from rootposets.rootsystem import RootSystem, RootSystemError
from rootposets.weights import Weight, _alpha_in_weight_coords


def inversion_set(w: AffineWeylElement) -> list[tuple[int, ...]]:
    """All positive affine roots that w sends to negative ones, as rows (mu..., k)."""
    rs = w.rs
    negatives = [tuple(-c for c in r) for r in rs.positive_roots]
    out = []
    for mu in (*rs.positive_roots, *negatives):
        # w(mu + k*delta) = w(mu) + k*delta is negative for k <= top
        image = w.act((*mu, 0))
        top = -image[-1] - rs.is_positive_root(image[:-1])
        first = 0 if rs.is_positive_root(mu) else 1
        out.extend((*mu, k) for k in range(first, top + 1))
    out.sort(key=lambda row: (row[-1], row[:-1]))
    return out


def word_from_inversion_set(rs: RootSystem, rows: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Recover a reduced word for the element whose inversion set is given.

    Peels one simple affine root per step (preferring index 0), reflecting the
    remainder; the letters are collected in peel order and reversed, so the
    first peeled generator becomes the final letter of the word.  Raises if
    the set is not an inversion set.  It reflects the whole remaining set at
    every step, which `_kernels.peel` avoids while finding the same word.
    """
    simples = _kernels.peel_tables(rs).simples
    gens = [AffineWeylElement.from_word(rs, (i,)) for i in range(rs.rank + 1)]
    row_list = list(rows)
    active = set(row_list)
    if len(active) != len(row_list):
        raise RootSystemError("inversion set contains duplicates")
    peeled: list[int] = []
    while active:
        for i, a in enumerate(simples):
            if a in active:
                break
        else:
            raise RootSystemError("not an inversion set: no simple affine root present")
        active.discard(simples[i])
        active = {gens[i].act(row) for row in active}
        if any(not is_positive_affine(row) for row in active):
            raise RootSystemError("not an inversion set: reflection produced a negative root")
        peeled.append(i)
    return tuple(reversed(peeled))


def dominant_representative(rs: RootSystem, weight: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit: reflect at the first
    negative coordinate until none is left."""
    w = weight
    while True:
        neg = next((i for i, c in enumerate(w) if c < 0), None)
        if neg is None:
            return w
        alpha = _alpha_in_weight_coords(rs, neg)
        c = w[neg]
        w = tuple(x - c * a for x, a in zip(w, alpha))


def act_point(g: AffineWeylElement, x: Sequence[Q]) -> tuple[Q, ...]:
    """g(x) for one point x in root coordinates; g = L o t_t, and t is found afresh."""
    t = g.translation_root_coords()
    shifted = [Q(a) + b for a, b in zip(x, t)]
    return tuple(Q(sum(a * b for a, b in zip(row, shifted))) for row in g.matrix[:-1])


def wall_value(rs: RootSystem, wall: Wall, x: Sequence[Q]) -> Q:
    """(x, normal) - offset, with the pairing read through the bilinear form."""
    return Q(rs.form(x, wall.normal), rs.form_denominator) - wall.offset


def alcove_wall_types(me: MinimalElement) -> list[int]:
    """Types of the walls of w^{-1} * A separating it from the origin: each alcove
    vertex moved by its own `act_point`, each wall read at each vertex by `wall_value`."""
    rs = me.ideal.rs
    g = me.element.inverse()
    verts = [act_point(g, v) for v in fundamental_alcove_vertices(rs)]
    types = []
    for t, row in enumerate(g.simple_images()):
        image = Wall(row[:-1], -row[-1])
        side_values = [wall_value(rs, image, v) for v in verts]
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
