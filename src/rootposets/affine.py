"""Affine Weyl group elements and alcove geometry.

An affine root mu + k*delta is the integer row (mu..., k) of `_kernels`,
with ``mu`` in simple-root coordinates; its affine simple roots are
`_kernels.peel_tables(rs).simples`.  The affine Weyl group acts linearly on
these rows, so an element is one integer (n+1)x(n+1) matrix, stored with its
inverse; `act`, inverses and the images of the affine simple roots
(`simple_images`, whose zero sets are the images of the alcove walls) are
integer computations on rows.  Only points of the ambient space
(`act_points`, alcove vertices), the Cartan inverse and the coweights they
are built from have rational coordinates; this is the one module of the
package that uses `Fraction`.  `act_points` moves many points with one
translation, and `Wall.scaled_values` reads a wall at many points from one
integer vector, scaled by D > 0 so that signs and zeros are kept.

The fundamental alcove is the open simplex cut out by (x, alpha_i) > 0 and
(x, theta) < 1; its vertices are 0 and the fundamental coweights divided by
the marks of theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from . import _kernels
from ._kernels import Matrix
from .rootsystem import Root, RootSystem, RootSystemError

Vector = tuple[Q, ...]


def is_positive_affine(row: Sequence[int]) -> bool:
    """mu + k*delta > 0: k > 0, or k = 0 and mu a positive root."""
    level = row[-1]
    if level:
        return level > 0
    return all(c >= 0 for c in row) and any(row)


@lru_cache(maxsize=None)
def cartan_inverse(rs: RootSystem) -> tuple[tuple[Q, ...], ...]:
    """inv(A) for the Cartan matrix A of rs, exact and cached; inv(Aᵀ) = inv(A)ᵀ.

    Fraction-exact Gauss-Jordan elimination on [A | 1].
    """
    n = rs.rank
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(rs.cartan)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def fundamental_coweights(rs: RootSystem) -> tuple[Vector, ...]:
    """Root coordinates of the fundamental coweights; (pi_i^vee, alpha_j) = delta_ij.

    The Gram matrix is diag(e)*A/D, so its inverse is inv(A)*diag(D/e).
    """
    inv = cartan_inverse(rs)
    return tuple(
        tuple(inv[j][i] * rs.form_denominator / rs.form_weights[i] for j in range(rs.rank))
        for i in range(rs.rank)
    )


@dataclass(frozen=True)
class AffineWeylElement:
    """w as an integer matrix on affine-root coordinates (mu..., level).

    Column c < n is the image of the c-th finite simple root, and the last
    column is w(delta) = delta.  The inverse is kept beside the matrix, so `inverse` is a swap; it is not
    part of ==.
    """

    rs: RootSystem = field(repr=False)
    matrix: Matrix
    inverse_matrix: Matrix = field(repr=False, compare=False)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def identity(rs: RootSystem) -> "AffineWeylElement":
        eye = _kernels.word_matrix((), _kernels.peel_tables(rs))
        return AffineWeylElement(rs, eye, eye)

    @staticmethod
    def from_word(rs: RootSystem, word: Sequence[int]) -> "AffineWeylElement":
        """s_word, with its inverse s_(reversed word)."""
        for i in word:
            if not 0 <= i <= rs.rank:
                raise RootSystemError(f"affine generator index {i} out of range 0..{rs.rank}")
        tables = _kernels.peel_tables(rs)
        return AffineWeylElement(
            rs, _kernels.word_matrix(word, tables), _kernels.word_matrix(word[::-1], tables)
        )

    # -- group structure ------------------------------------------------------

    def inverse(self) -> "AffineWeylElement":
        return AffineWeylElement(self.rs, self.inverse_matrix, self.matrix)

    # -- actions ---------------------------------------------------------------

    def act(self, row: Sequence[int]) -> tuple[int, ...]:
        return tuple([sum(map(mul, m, row)) for m in self.matrix])

    def act_points(self, points: Sequence[Sequence[Q]]) -> tuple[Vector, ...]:
        """Affine action on points of the ambient space, in root coordinates.

        w = L o t_t, so w(x) = L(x + t); t is computed once for all points.
        """
        t = self.translation_root_coords()
        rows = self.matrix[:-1]
        images = []
        for x in points:
            shifted = [a + b for a, b in zip(x, t)]
            images.append(tuple(sum(map(mul, row, shifted)) for row in rows))
        return tuple(images)

    def translation_root_coords(self) -> Vector:
        """t with w = L o t_t: (t, alpha_c) is minus entry c of the level row."""
        n = self.rs.rank
        coweights = fundamental_coweights(self.rs)
        level_row = self.matrix[-1]
        return tuple(
            -sum((level_row[c] * coweights[c][r] for c in range(n) if level_row[c]), Q(0))
            for r in range(n)
        )

    def simple_images(self) -> Matrix:
        """w(alpha_0), ..., w(alpha_n): column j - 1 is w(alpha_j) for j >= 1,
        and w(alpha_0) = w(delta) - sum_j theta_j w(alpha_j).
        """
        *columns, zero = zip(*self.matrix)
        for t, column in zip(self.rs.theta, columns):
            zero = [z - t * c for z, c in zip(zero, column)]
        return (tuple(zero), *columns)

    # -- descents ----------------------------------------------------------------

    def right_descents(self) -> set[int]:
        """{i : l(w s_i) < l(w)}, i.e. simple affine roots made negative by w."""
        return {i for i, a in enumerate(self.simple_images()) if not is_positive_affine(a)}


# -- alcove geometry ------------------------------------------------------------


class Wall(NamedTuple):
    """The affine hyperplane {x : (x, normal) = offset}."""

    normal: Root
    offset: int

    def normalized(self) -> "Wall":
        """Flip signs so the normal has positive leading nonzero coordinate."""
        lead = next((c for c in self.normal if c != 0), 0)
        if lead < 0:
            return Wall(tuple(-c for c in self.normal), -self.offset)
        return self

    def scaled_values(self, rs: RootSystem, points: Sequence[Sequence[Q]]) -> list[Q]:
        """D*((x, normal) - offset) at each point x, D = `rs.form_denominator` > 0.

        D*(x, normal) = sum_i c_i*x_i with the integers c_i = e_i*<normal, alpha_i^vee>,
        built once per wall; scaling by D keeps every sign and every zero.
        """
        vector = [(i, c) for i, e in enumerate(rs.form_weights) if (c := e * rs.pairing(self.normal, i))]
        shift = rs.form_denominator * self.offset
        return [sum(c * x[i] for i, c in vector) - shift for x in points]


@lru_cache(maxsize=None)
def fundamental_alcove_vertices(rs: RootSystem) -> tuple[Vector, ...]:
    """0 together with the fundamental coweights scaled by 1/mark."""
    verts = [tuple(Q(0) for _ in range(rs.rank))]
    coweights = fundamental_coweights(rs)
    for i in range(rs.rank):
        verts.append(tuple(c / rs.theta[i] for c in coweights[i]))
    return tuple(verts)
