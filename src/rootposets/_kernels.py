"""Integer kernels on affine-root coordinates: reflections and the peel.

An affine root mu + k*delta is the integer row (mu in simple-root
coordinates..., k).  Generator j acts on a row x as
``x - (h[j] . x) * a[j]``, where a[j] is the affine simple root alpha_j and
h[j] . x = <x, alpha_j^vee>; both vectors are sparse, so reflecting a matrix
(`reflect_rows`, m <- s_j m) touches few rows.

`peel` recovers the element w whose inversion set is a given set of rows.
Rather than reflecting every remaining row at each step, it keeps
v_i = u(alpha_i) for the n+1 affine simple roots, where u is the product of
the letters peeled so far, and removes from the (fixed) row set the v_j of
the lowest j still present.  Peeling s_j changes only v_j and its neighbours
in the extended Dynkin diagram, so a word of length l costs O(l*n).  When
the set is empty, v_i = w^{-1}(alpha_i).

The peel forms no matrix; where a word is needed, `word_matrix` builds
s_word from it.  Given the final images x^{-1}(alpha_i) of an earlier peel
of x, `peel` resumes from them and peels only further rows D: on success
the element is u*x with N(u*x) = N(x) + D, so an ideal's images can be
built from its parent's along a cover.  The word of a resumed peel holds
only the letters it peeled; it is not the lowest-index word of u*x.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .rootsystem import RootSystem

Matrix = tuple[tuple[int, ...], ...]
Support = tuple[tuple[tuple[int, int], ...], ...]


class PeelError(ValueError):
    """The given rows do not form the inversion set of any element."""


class PeelTables(NamedTuple):
    """The n+1 affine generators of one root system, on affine-root rows."""

    simples: Matrix  # a[0] = (-theta, 1); a[j] = (e_j, 0) for j >= 1
    coroots: Matrix  # h[j] . x = <x, alpha_j^vee>; level coordinate 0
    simple_support: Support  # nonzero (coordinate, a[j][coordinate])
    coroot_support: Support  # nonzero (coordinate, h[j][coordinate])
    links: Support  # (i, <alpha_i, alpha_j^vee>) for extended-diagram neighbours i of j


def _support(vec: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((c, x) for c, x in enumerate(vec) if x)


@lru_cache(maxsize=None)
def peel_tables(rs: RootSystem) -> PeelTables:
    n = rs.rank
    cm = rs.coroot_marks
    simples = [tuple(-c for c in rs.theta) + (1,)]
    # <mu, alpha_0^vee> = -<mu, theta^vee>, and theta^vee = sum cm_j alpha_j^vee
    coroots = [tuple(-sum(rs.cartan[j][c] * cm[j] for j in range(n)) for c in range(n)) + (0,)]
    for j in range(n):
        simples.append(tuple(int(c == j) for c in range(n + 1)))
        coroots.append(rs.cartan[j] + (0,))
    links = tuple(
        tuple(
            (i, pairing)
            for i, a in enumerate(simples)
            if i != j and (pairing := sum(x * y for x, y in zip(h, a)))
        )
        for j, h in enumerate(coroots)
    )
    return PeelTables(
        tuple(simples),
        tuple(coroots),
        tuple(_support(a) for a in simples),
        tuple(_support(h) for h in coroots),
        links,
    )


def reflect_rows(m: list[list[int]], j: int, tables: PeelTables) -> None:
    """m <- s_j m in place: m - a[j] (h[j] m)."""
    combo = None
    for c, h in tables.coroot_support[j]:
        row = m[c]
        combo = [h * x for x in row] if combo is None else [y + h * x for x, y in zip(row, combo)]
    for c, a in tables.simple_support[j]:
        m[c] = [x - a * y for x, y in zip(m[c], combo)]


def word_matrix(word: Sequence[int], tables: PeelTables) -> Matrix:
    """s_word on affine-root coordinates, reflected from the last letter leftwards."""
    size = len(tables.simples)
    m = [[int(r == c) for c in range(size)] for r in range(size)]
    for j in reversed(word):
        reflect_rows(m, j, tables)
    return tuple(map(tuple, m))


class Peeled(NamedTuple):
    word: tuple[int, ...]  # the letters this peel found; the first peeled is last
    images: Matrix  # w^{-1}(alpha_0), ..., w^{-1}(alpha_n): where a resumed peel starts

    @property
    def inverse(self) -> Matrix:
        """w^{-1}: columns w^{-1}(alpha_1), ..., w^{-1}(alpha_n), delta."""
        delta = (0,) * (len(self.images) - 1) + (1,)
        return tuple(zip(*self.images[1:], delta))


def peel(
    rows: Sequence[Sequence[int]], tables: PeelTables, start: Peeled | None = None
) -> Peeled:
    """The element whose inversion set is `rows`, peeling the lowest index first.

    With `start` (an earlier peel of x), the element u*x whose inversion set
    is N(x) together with `rows`, which must not meet N(x).  Raises PeelError
    if there is no such element.
    """
    remaining = set(map(tuple, rows))
    if len(remaining) != len(rows):
        raise PeelError("the rows contain duplicates")
    links = tables.links
    images = list(tables.simples if start is None else start.images)  # v_i
    present = [v in remaining for v in images]
    peeled = []
    while remaining:
        try:
            j = present.index(True)
        except ValueError:
            raise PeelError("no simple affine root in the remaining set") from None
        vj = images[j]
        remaining.remove(vj)
        for i, pairing in links[j]:
            vi = images[i] = tuple(x - pairing * y for x, y in zip(images[i], vj))
            present[i] = vi in remaining
        vj = images[j] = tuple(-y for y in vj)
        present[j] = vj in remaining
        peeled.append(j)
    peeled.reverse()
    return Peeled(tuple(peeled), tuple(images))
