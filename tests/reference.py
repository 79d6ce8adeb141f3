"""Slow, direct constructions the tests compare the library against.

The library finds each of these by a faster route: the peel
(`_kernels.peel`) in place of `word_from_inversion_set`, the target rows of
an ideal in place of `inversion_set`, and the memoized `weights._dominant_map`
in place of `dominant_representative`.  Each reference here follows the
definition and does its work afresh on every call.
"""

from typing import Iterable

from rootposets import _kernels
from rootposets.affine import AffineWeylElement, is_positive_affine
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
