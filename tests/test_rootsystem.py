from fractions import Fraction as Q

import pytest

from rootposets.affine import fundamental_coweights
from rootposets.rootsystem import (
    RootSystemError,
    _dynkin_edges,
    admissible_systems,
    cartan_matrix,
    root_system,
)

ALL_IDS = [str(sid) for sid in admissible_systems(8)]


def reference_lengths(family, n):
    """d_i = (alpha_i, alpha_i)/2 in Fractions, long roots of length^2 = 2."""
    if family in "ADE":
        return (Q(1),) * n
    if family == "B":
        return (Q(1),) * (n - 1) + (Q(1, 2),)
    if family == "C":
        return (Q(1, 2),) * (n - 1) + (Q(1),)
    if family == "F":
        return (Q(1, 2), Q(1, 2), Q(1), Q(1))
    return (Q(1), Q(1, 3))  # G2: alpha_1 long, alpha_2 short


def reference_cartan(family, n):
    """<alpha_j, alpha_i^vee> = 2(alpha_i, alpha_j)/(alpha_i, alpha_i), with
    (alpha_i, alpha_j) = -max(d_i, d_j) on each bond, in Fractions."""
    d = reference_lengths(family, n)
    a = [[Q(2) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for i, j in _dynkin_edges(family, n):
        a[i][j] = -max(d[i], d[j]) / d[i]
        a[j][i] = -max(d[i], d[j]) / d[j]
    return a


@pytest.mark.parametrize("name", ALL_IDS)
def test_integer_lengths_match_the_fraction_definition(name):
    rs = root_system(name)
    d = reference_lengths(rs.family, rs.rank)
    e, big_d = rs.form_weights, rs.form_denominator
    assert [Q(ei, big_d) for ei in e] == list(d)
    assert reference_cartan(rs.family, rs.rank) == [list(row) for row in rs.cartan]
    assert list(rs.coroot_marks) == [di * t for di, t in zip(d, rs.theta)]
    assert set(rs.short_simple_indices) == {i for i in range(rs.rank) if d[i] != 1}

POSITIVE_ROOT_COUNTS = {
    "A3": 6,
    "B3": 9,
    "C3": 9,
    "D4": 12,
    "E6": 36,
    "E7": 63,
    "E8": 120,
    "F4": 24,
    "G2": 6,
}

COXETER_NUMBERS = {  # (h, h*)
    "A5": (6, 6),
    "B4": (8, 7),
    "C4": (8, 5),
    "D5": (8, 8),
    "E6": (12, 12),
    "E7": (18, 18),
    "E8": (30, 30),
    "F4": (12, 9),
    "G2": (6, 4),
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert len(root_system(name).positive_roots) == count


@pytest.mark.parametrize("name,pair", sorted(COXETER_NUMBERS.items()))
def test_coxeter_numbers(name, pair):
    rs = root_system(name)
    assert (rs.h, rs.dual_h) == pair


def test_cartan_matrix_shape(small_system):
    rs = small_system
    a = cartan_matrix(rs.family, rs.rank)
    for i in range(rs.rank):
        assert a[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


def test_gram_matrix_symmetric_positive(small_system):
    rs = small_system
    simple = rs.simple_roots
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert rs.form(simple[i], simple[j]) == rs.form(simple[j], simple[i])
        assert rs.form(simple[i], simple[i]) == 2 * rs.form_weights[i] > 0


def test_theta_is_dominant_long_and_unique_top(small_system):
    rs = small_system
    assert rs.is_dominant(rs.theta)
    assert rs.form(rs.theta, rs.theta) == 2 * rs.form_denominator
    top = rs.height(rs.theta)
    assert all(rs.height(r) < top for r in rs.positive_roots if r != rs.theta)


def test_height_counts_conjugate_to_exponents(small_system):
    # the number of roots of height k equals the number of exponents >= k
    rs = small_system
    heights = [rs.height(r) for r in rs.positive_roots]
    assert len(heights) == rs.rank * rs.h // 2
    for k in range(1, rs.h):
        assert heights.count(k) == sum(1 for e in rs.exponents if e >= k)


def test_exponents(small_system):
    rs = small_system
    assert sum(rs.exponents) == len(rs.positive_roots)
    assert sorted(rs.exponents) == list(rs.exponents) or rs.family in "DE"
    assert rs.exponents[0] == 1
    assert rs.exponents[-1] == rs.h - 1


def test_short_root_counts():
    assert sum(1 for r in root_system("B3").positive_roots
               if not root_system("B3").is_long(r)) == 3
    assert sum(1 for r in root_system("C3").positive_roots
               if not root_system("C3").is_long(r)) == 6
    assert sum(1 for r in root_system("F4").positive_roots
               if not root_system("F4").is_long(r)) == 12
    assert sum(1 for r in root_system("G2").positive_roots
               if not root_system("G2").is_long(r)) == 3


def test_roots_closed_under_reflection(small_system):
    rs = small_system
    for r in rs.positive_roots:
        for i in range(rs.rank):
            # s_i(r) = r - <r, alpha_i^vee> alpha_i is a positive or a negative root
            image = tuple(c - rs.pairing(r, i) if j == i else c for j, c in enumerate(r))
            assert image in rs.root_index or tuple(-c for c in image) in rs.root_index


def test_form_integrality_of_pairings(small_system):
    rs = small_system
    for r in rs.positive_roots:
        for i in range(rs.rank):
            assert rs.pairing(r, i).denominator == 1


def test_root_leq_is_a_partial_order(small_system):
    rs = small_system
    roots = rs.positive_roots
    for b in roots:
        assert rs.root_leq(b, b)
        assert rs.root_leq(b, rs.theta)
    for b in roots:
        for g in roots:
            if rs.root_leq(b, g) and rs.root_leq(g, b):
                assert b == g


def test_half_floor():
    assert root_system("G2").half_floor((2, 3)) == (1, 1)
    assert root_system("B3").half_floor((1, 2, 2)) == (0, 1, 1)
    assert root_system("A2").half_floor((1, 1)) == (0, 0)
    with pytest.raises(RootSystemError):
        root_system("A2").half_floor((2, 2))


def test_extended_diagram():
    # the affine node attaches to the unique simple not orthogonal to theta
    rs = root_system("A3")  # extended A_n diagram is a cycle
    assert (0, 1) in rs.extended_edges() and (0, 3) in rs.extended_edges()
    rs = root_system("G2")
    assert [e for e in rs.extended_edges() if 0 in e] == [(0, 1)]
    for i, j in rs.extended_edges():
        assert rs.extended_form(i, j) < 0


def test_admissible_systems():
    ids = admissible_systems(8)
    assert len(ids) == 33
    names = {str(s) for s in ids}
    assert {"A1", "B2", "C2", "D3", "E6", "E7", "E8", "F4", "G2"} <= names
    assert "E5" not in names and "F3" not in names
    assert [str(s) for s in admissible_systems(2)] == ["A1", "A2", "B2", "C2", "G2"]


@pytest.mark.parametrize("bad", ["E9", "F5", "G3", "A0", "H3", "B1", "D2", "x"])
def test_inadmissible_systems_raise(bad):
    with pytest.raises(RootSystemError):
        root_system(bad)


def test_factory_accepts_separate_rank():
    assert root_system("B", 3) is root_system("B3")


def test_fundamental_coweights(small_system):
    rs = small_system
    cw = fundamental_coweights(rs)
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert rs.form(cw[i], rs.simple_roots[j]) == (rs.form_denominator if i == j else 0)


def reference_form(rs, x, y):
    """The Gram double sum sum_ij x_i*gram[i][j]*y_j in Fractions, with
    gram[i][j] = d_i*cartan[i][j] built from the Fraction lengths d."""
    n = rs.rank
    d = reference_lengths(rs.family, n)
    gram = [[d[i] * rs.cartan[i][j] for j in range(n)] for i in range(n)]
    return sum((Q(x[i]) * gram[i][j] * y[j] for i in range(n) for j in range(n)), Q(0))


@pytest.mark.parametrize("name", ALL_IDS)
def test_form_matches_gram_double_sum(name):
    rs = root_system(name)
    big_d = rs.form_denominator
    integral = list(rs.simple_roots) + [rs.theta]
    for x in integral:
        for y in integral:
            got = rs.form(x, y)
            assert type(got) is int and got == big_d * reference_form(rs, x, y)
    for cw in fundamental_coweights(rs):
        for root in rs.positive_roots:
            assert rs.form(cw, root) == big_d * reference_form(rs, cw, root)
            assert rs.form(root, cw) == big_d * reference_form(rs, root, cw)


def reference_positive_roots(rs):
    """The closure under root strings with every pairing computed afresh."""
    n = rs.rank
    found = set(rs.simple_roots)
    layers = [list(rs.simple_roots)]
    while layers[-1]:
        nxt = []
        for beta in layers[-1]:
            for i in range(n):
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in found:
                        p += 1
                    else:
                        break
                if p - rs.pairing(beta, i) >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in found:
                        found.add(cand)
                        nxt.append(cand)
        layers.append(nxt)
    return tuple(sorted(found, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize("name", ALL_IDS + ["A12", "B12", "C12", "D12"])
def test_positive_roots_from_carried_pairings_match_the_reference(name):
    rs = root_system(name)
    assert rs.positive_roots == reference_positive_roots(rs)


@pytest.mark.parametrize("name", ALL_IDS)
def test_carried_pairings_and_the_dominant_short_root(name):
    # the construction keeps each root's pairings and reads theta_s from
    # them; the reference computes every pairing afresh
    rs = root_system(name)
    assert len(rs.root_pairings) == len(rs.positive_roots)
    for root, pairings in zip(rs.positive_roots, rs.root_pairings):
        assert pairings == tuple(rs.pairing(root, i) for i in range(rs.rank))
    shorts = [r for r in rs.positive_roots if rs.is_dominant(r) and not rs.is_long(r)]
    assert len(shorts) == (0 if name[0] in "ADE" else 1)
    assert rs.theta_short == (shorts[0] if shorts else rs.theta)
