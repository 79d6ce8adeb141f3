from fractions import Fraction as Q
from functools import reduce

import pytest
from reference import act_point, inversion_set, wall_value, word_from_inversion_set

from rootposets import _kernels
from rootposets.affine import (
    AffineWeylElement,
    Wall,
    fundamental_alcove_vertices,
    is_positive_affine,
)
from rootposets.rootsystem import RootSystemError, root_system

SYSTEMS = ["A2", "A3", "B2", "B3", "C3", "G2", "F4"]


def random_word(rng, rank, length):
    return tuple(rng.randrange(rank + 1) for _ in range(length))


def alcove_walls(rs):
    """The walls of the fundamental alcove: wall 0 is (theta, 1), wall i >= 1 is (alpha_i, 0)."""
    return [Wall(rs.theta, 1), *(Wall(a, 0) for a in rs.simple_roots)]


@pytest.mark.parametrize("name", SYSTEMS)
def test_simple_reflections_are_involutions(name):
    rs = root_system(name)
    for i in range(rs.rank + 1):
        s = AffineWeylElement.from_word(rs, (i,))
        assert AffineWeylElement.from_word(rs, (i, i)) == AffineWeylElement.identity(rs)
        assert s.inverse() == s


@pytest.mark.parametrize("name", SYSTEMS)
def test_reflection_negates_its_own_simple_root(name):
    rs = root_system(name)
    simples = _kernels.peel_tables(rs).simples
    for i, a in enumerate(simples):
        s = AffineWeylElement.from_word(rs, (i,))
        assert s.act(a) == tuple(-c for c in a)
        for j, b in enumerate(simples):
            if j != i:
                assert is_positive_affine(s.act(b))


def test_affine_zero_root_structure():
    rs = root_system("B3")
    a0 = _kernels.peel_tables(rs).simples[0]
    assert a0[-1] == 1
    assert a0[:-1] == tuple(-c for c in rs.theta)


def test_positive_affine_rows():
    # mu + k*delta > 0 iff k > 0, or k = 0 and mu is a positive root
    rs = root_system("B3")
    negatives = [tuple(-c for c in r) for r in rs.positive_roots]
    finite = [*rs.positive_roots, *negatives, (0,) * rs.rank]
    for mu in finite:
        for k in (-1, 0, 1):
            assert is_positive_affine((*mu, k)) == (k > 0 or (k == 0 and rs.is_positive_root(mu)))
    assert not is_positive_affine((0,) * (rs.rank + 1))


def test_generator_index_out_of_range():
    rs = root_system("A2")
    with pytest.raises(RootSystemError, match="index 3 out of range 0..2"):
        AffineWeylElement.from_word(rs, (3,))
    with pytest.raises(RootSystemError, match="index -1 out of range 0..2"):
        AffineWeylElement.from_word(rs, (0, 1, -1))


@pytest.mark.parametrize("name", SYSTEMS)
def test_word_round_trip(name, rng):
    rs = root_system(name)
    for _ in range(12):
        w = AffineWeylElement.from_word(rs, random_word(rng, rs.rank, 14))
        inv = inversion_set(w)
        word = word_from_inversion_set(rs, inv)
        assert AffineWeylElement.from_word(rs, word) == w
        assert len(word) == len(inv)


@pytest.mark.parametrize("name", SYSTEMS)
def test_group_laws(name, rng):
    rs = root_system(name)
    # the element of a concatenated word is the product: u v acts as u after v,
    # and the affine simple roots span the lattice, so the actions fix the elements
    for _ in range(8):
        a, b = random_word(rng, rs.rank, 9), random_word(rng, rs.rank, 9)
        u, v = AffineWeylElement.from_word(rs, a), AffineWeylElement.from_word(rs, b)
        uv = AffineWeylElement.from_word(rs, a + b)
        assert uv.inverse() == AffineWeylElement.from_word(rs, b[::-1] + a[::-1])
        assert AffineWeylElement.from_word(rs, a + a[::-1]) == AffineWeylElement.identity(rs)
        for alpha in _kernels.peel_tables(rs).simples:
            assert uv.act(alpha) == u.act(v.act(alpha))
            assert uv.inverse().act(alpha) == v.inverse().act(u.inverse().act(alpha))
            assert u.inverse().act(u.act(alpha)) == alpha


@pytest.mark.parametrize("name", SYSTEMS)
def test_descents_match_length_drops(name, rng):
    rs = root_system(name)
    for _ in range(8):
        word = random_word(rng, rs.rank, 10)
        w = AffineWeylElement.from_word(rs, word)
        n_len = len(inversion_set(w))
        for i in range(rs.rank + 1):
            drop = len(inversion_set(AffineWeylElement.from_word(rs, word + (i,)))) < n_len
            assert drop == (i in w.right_descents())


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_elements_are_integer_matrices(name, rng):
    rs = root_system(name)
    gens = [AffineWeylElement.from_word(rs, (i,)) for i in range(rs.rank + 1)]
    for _ in range(8):
        word = random_word(rng, rs.rank, 12)
        w = AffineWeylElement.from_word(rs, word)
        for g in (w, w.inverse()):
            assert all(type(x) is int for row in g.matrix for x in row)
        assert w.inverse() == AffineWeylElement.from_word(rs, word[::-1])
        assert AffineWeylElement.from_word(rs, word + word[::-1]) == AffineWeylElement.identity(rs)
        # w is the product of its letters: s_1 ... s_k acts as s_k first
        for alpha in _kernels.peel_tables(rs).simples:
            assert reduce(lambda x, i: gens[i].act(x), reversed(word), alpha) == w.act(alpha)


def test_word_from_non_inversion_set_raises():
    rs = root_system("A2")
    # theta at level 0 alone is not biconvex, hence not an inversion set
    with pytest.raises(RootSystemError):
        word_from_inversion_set(rs, [(*rs.theta, 0)])
    with pytest.raises(RootSystemError):
        word_from_inversion_set(rs, [(*rs.theta, 0), (*rs.theta, 0)])


@pytest.mark.parametrize("name", SYSTEMS)
def test_alcove_walls_and_vertices(name):
    rs = root_system(name)
    walls = alcove_walls(rs)
    vertices = fundamental_alcove_vertices(rs)
    assert len(walls) == rs.rank + 1
    assert len(vertices) == rs.rank + 1
    # each wall contains exactly n of the n+1 vertices, with the remaining
    # vertex strictly on the alcove side
    for wall in walls:
        values = wall.scaled_values(rs, vertices)
        assert values == [rs.form_denominator * wall_value(rs, wall, v) for v in vertices]
        assert values.count(0) == rs.rank
        assert all(v >= 0 for v in values) or all(v <= 0 for v in values)


@pytest.mark.parametrize("name", SYSTEMS)
def test_simple_images_match_act(name, rng):
    rs = root_system(name)
    for _ in range(8):
        w = AffineWeylElement.from_word(rs, random_word(rng, rs.rank, 12))
        for g in (w, w.inverse()):
            assert g.simple_images() == tuple(g.act(a) for a in _kernels.peel_tables(rs).simples)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_wall_action_is_equivariant(name, rng):
    # g maps wall t to the zero set of g(alpha_t); wall 0, (theta, 1), is the
    # zero set of -alpha_0 = theta - delta, hence its sign
    rs = root_system(name)
    signs = [-1] + [1] * rs.rank
    points = [fundamental_alcove_vertices(rs)[1], tuple(Q(1, k + 2) for k in range(rs.rank))]
    for _ in range(6):
        g = AffineWeylElement.from_word(rs, random_word(rng, rs.rank, 8))
        images = [Wall(a[:-1], -a[-1]) for a in g.simple_images()]
        moved = g.act_points(points)
        assert moved == tuple(act_point(g, x) for x in points)
        for wall, sign, image in zip(alcove_walls(rs), signs, images):
            assert image.scaled_values(rs, moved) == [sign * v for v in wall.scaled_values(rs, points)]


def test_wall_normalized_flips_sign():
    w = alcove_walls(root_system("A2"))[0]
    flipped = Wall(tuple(-c for c in w.normal), -w.offset)
    assert flipped.normalized() == w
    assert w.normalized() == w


def test_affine_reflection_translates_origin_to_theta_covector():
    # s_0 maps the origin to the coroot of theta (here theta itself, type A)
    rs = root_system("A2")
    s0 = AffineWeylElement.from_word(rs, (0,))
    origin = (Q(0), Q(0))
    assert s0.act_points([origin]) == ((Q(1), Q(1)),)
    assert s0.translation_root_coords() == (Q(-1), Q(-1))
    assert AffineWeylElement.from_word(rs, (0, 0)).translation_root_coords() == (Q(0), Q(0))
