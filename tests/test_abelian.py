import pytest

from rootposets import _kernels, abelian, verify
from rootposets.abelian import (
    ab_covering_polynomial,
    boolean_lattice_covering_polynomial,
    check_adjacent_classes,
    check_class_independence,
    check_cogenerator_orthogonality,
    check_orthogonal_maximal_classes,
    class_map,
    commutative_roots,
    enumerate_abelian_ideals,
    expected_ab_covering_polynomial,
    expected_ab_edge_count,
    expected_ab_edge_type_counts,
    expected_classes,
    expected_commutative_count,
    expected_delta_covering_polynomial,
    expected_long_abelian_count,
    hyperplane_meets_double_alcove,
    long_abelian_edge_type_counts,
    long_abelian_ideals,
    max_orthogonal_simple_count,
    noncommutative_maximal,
    suter_tau,
)
from rootposets.affine import fundamental_alcove_vertices
from rootposets.ideals import (
    generator_edge_types,
    generator_types,
    ideal_from_mask,
    lattice_elements,
    minimal_element,
    principal_ideal,
    type_counts,
    typed_edges,
)
from rootposets.posets import FinitePoset, IntPolynomial
from rootposets.rootposet import delta_covering_polynomial
from rootposets.rootsystem import RootSystemError, admissible_systems, root_system

ALL_IDS = [str(sid) for sid in admissible_systems(8)]


def test_abelian_counts_are_powers_of_two(small_system):
    ideals = enumerate_abelian_ideals(small_system)
    assert len(ideals) == 2**small_system.rank
    for ideal in ideals:
        assert ideal.is_abelian()


def test_abelian_edge_counts(small_system):
    batch = enumerate_abelian_ideals(small_system)
    assert len(typed_edges(batch)) == expected_ab_edge_count(small_system)
    assert type_counts(batch) == expected_ab_edge_type_counts(small_system)


@pytest.mark.parametrize(
    "name,counts",
    [
        ("A1", [1, 0]),
        ("A3", [2, 2, 2, 2]),
        ("B2", [2, 0, 1]),
        ("C3", [4, 2, 2, 0]),
        ("F4", [4, 4, 4, 4, 4]),
    ],
)
def test_edge_type_fixtures(name, counts):
    assert type_counts(enumerate_abelian_ideals(root_system(name))) == counts


def test_abelian_poset_edges_match_typed_edges(small_system):
    batch = enumerate_abelian_ideals(small_system)
    poset = FinitePoset(batch, lambda a, b: a.mask & ~b.mask == 0)
    assert len(poset.covers()) == len(typed_edges(batch))


def test_commutative_roots_g2():
    rs = root_system("G2")
    assert [rec.root for rec in commutative_roots(rs)] == [(1, 2), (1, 3), (2, 3)]
    assert len(commutative_roots(rs)) == expected_commutative_count(rs)


def test_commutative_counts(small_system):
    rs = small_system
    assert len(commutative_roots(rs)) == expected_commutative_count(rs)
    # every commutative root generates an Abelian principal ideal, and the
    # count is also the q-coefficient of the covering polynomial
    poly = ab_covering_polynomial(rs)
    assert poly.coeffs[1] == len(commutative_roots(rs))


def test_branch_bonus_in_commutative_count():
    # D4 has tails of sizes 1, 1, 1 at the branch node: 10 + 1 = 11
    assert expected_commutative_count(root_system("D4")) == 11
    assert expected_commutative_count(root_system("E6")) == 21 + 1 * 2 * 2


def test_class_maps_match_fixtures(small_system):
    expected = expected_classes(small_system)
    if expected is None:
        return
    assert class_map(small_system) == expected


def test_class_map_fixture_exists_for_classical_and_f4():
    for name in ("A4", "B4", "C4", "D4", "F4"):
        assert expected_classes(root_system(name)) is not None
    assert expected_classes(root_system("G2")) is None


def test_class_independence_and_neighbour_laws(small_system):
    classes = check_class_independence(small_system)
    assert set(classes.values()) <= set(range(small_system.rank + 1))
    check_adjacent_classes(small_system)
    check_cogenerator_orthogonality(small_system)


def test_orthogonal_maximal_witness_in_b3():
    rs = root_system("B3")
    witnesses = check_orthogonal_maximal_classes(rs)
    assert (1, 0, 0) in witnesses
    assert class_map(rs)[(1, 0, 0)] == 0


def test_noncommutative_maximal_is_half_theta(small_system):
    rs = small_system
    gamma = noncommutative_maximal(rs)
    if gamma is None:
        # every root commutes (e.g. rank <= 2 of type A, or D3 = A3)
        assert len(commutative_roots(rs)) == len(rs.positive_roots)
    else:
        assert gamma == rs.half_floor(rs.theta)


@pytest.mark.parametrize("name", ALL_IDS)
def test_maximal_roots_match_root_leq(name):
    # the maximal roots are read off the up masks; the reference compares
    # every pair with root_leq
    rs = root_system(name)
    noncommutative = [g for g in rs.positive_roots if not principal_ideal(rs, g).is_abelian()]
    orthogonal = [g for g in rs.positive_roots if rs.form(g, rs.theta) == 0]
    for roots in (noncommutative, orthogonal, list(rs.positive_roots), rs.positive_roots[::3]):
        reference = [g for g in roots if not any(g != o and rs.root_leq(g, o) for o in roots)]
        assert abelian._maximal(rs, list(roots)) == reference


def test_noncommutative_maximal_fixtures():
    assert noncommutative_maximal(root_system("B3")) == (0, 1, 1)
    assert noncommutative_maximal(root_system("A3")) is None
    assert noncommutative_maximal(root_system("D3")) is None
    assert noncommutative_maximal(root_system("G2")) == (1, 1)


def test_hyperplane_criterion(small_system):
    rs = small_system
    commutative = {rec.root for rec in commutative_roots(rs)}
    for gamma in rs.positive_roots:
        assert hyperplane_meets_double_alcove(rs, gamma) == (gamma in commutative)


@pytest.mark.parametrize("name", ALL_IDS)
def test_hyperplane_criterion_matches_alcove_vertices(name):
    """The coordinate test 2*gamma_k > theta_k against the form at the vertices of A."""
    rs = root_system(name)
    vertices = fundamental_alcove_vertices(rs)
    for gamma in rs.positive_roots:
        values = [2 * rs.form(v, gamma) - rs.form_denominator for v in vertices]
        assert values[0] == -rs.form_denominator
        assert hyperplane_meets_double_alcove(rs, gamma) == (max(values) > 0)


@pytest.mark.parametrize("name", ALL_IDS)
def test_generator_type_table_matches_fresh_typing(name):
    # the lattice resumes the parent's peel; each element must be the one a
    # full peel of the ideal builds, inverse included
    rs = root_system(name)
    ideals = enumerate_abelian_ideals(rs)
    table = generator_types(ideals)
    assert set(table) == {ideal.mask for ideal in ideals}
    for ideal, element in lattice_elements(ideals):
        me = minimal_element(ideal)
        assert element == me.element
        assert element.inverse_matrix == me.element.inverse_matrix
        assert table[ideal.mask] == generator_edge_types(me)


def test_generator_type_table_is_per_system():
    # Some B3 and C3 Abelian ideals share mask and generators but have
    # different minimal words and edge types; they must not compare equal.
    b3, c3 = root_system("B3"), root_system("C3")
    c3_ideals = {(ideal.mask, ideal.generators): ideal for ideal in enumerate_abelian_ideals(c3)}
    shared = [
        (ideal, c3_ideals[ideal.mask, ideal.generators])
        for ideal in enumerate_abelian_ideals(b3)
        if (ideal.mask, ideal.generators) in c3_ideals
    ]
    assert shared
    assert all(b != c for b, c in shared)
    assert any(minimal_element(b).word != minimal_element(c).word for b, c in shared)
    b3_types = generator_types(enumerate_abelian_ideals(b3))
    c3_types = generator_types(enumerate_abelian_ideals(c3))
    assert any(b3_types[b.mask] != c3_types[c.mask] for b, c in shared)
    for b, c in shared:
        assert b3_types[b.mask] == generator_edge_types(minimal_element(b))
        assert c3_types[c.mask] == generator_edge_types(minimal_element(c))


def test_abelian_typing_peels_one_row_per_ideal(monkeypatch):
    rs = root_system("F4")
    built, peeled = [], []
    original = _kernels.peel

    def counted(rows, tables, start=None):
        peeled.append(len(rows))
        return original(rows, tables, start)

    monkeypatch.setattr("rootposets.ideals.minimal_element", built.append)
    monkeypatch.setattr("rootposets._kernels.peel", counted)
    generator_types.cache_clear()
    abelian.commutative_roots.cache_clear()
    try:
        typed_edges(enumerate_abelian_ideals(rs))
        type_counts(enumerate_abelian_ideals(rs))
        commutative_roots(rs)
        check_class_independence(rs)
        long_abelian_edge_type_counts(rs)
    finally:
        generator_types.cache_clear()
        abelian.commutative_roots.cache_clear()
    # each nonempty Abelian ideal I adds the one row delta - gamma to its
    # parent's inversion set, gamma the generator removed
    assert built == []
    assert peeled == [1] * (len(enumerate_abelian_ideals(rs)) - 1) == [1] * 15


def test_covering_suite_builds_no_minimal_element(monkeypatch):
    def refuse(ideal):
        raise AssertionError(f"the covering suite built the minimal element of {ideal}")

    monkeypatch.setattr("rootposets.ideals.minimal_element", refuse)
    generator_types.cache_clear()
    abelian.commutative_roots.cache_clear()
    try:
        assert all(r.passed for r in verify.suite_covering(4))
    finally:
        generator_types.cache_clear()
        abelian.commutative_roots.cache_clear()


def test_abelian_principal_ideals_are_the_commutative_roots(small_system):
    rs = small_system
    principal = abelian.abelian_principal_ideals(rs)
    assert [ideal.generators for ideal in principal] == [
        (rec.root,) for rec in commutative_roots(rs)
    ]
    assert len(principal) == expected_commutative_count(rs)


def test_suter_tau_a2_orbit():
    rs = root_system("A2")
    a1, a2 = rs.simple_roots
    empty = ideal_from_mask(rs, 0)
    first = suter_tau(empty)
    assert first == principal_ideal(rs, a1)
    second = suter_tau(first)
    assert second == principal_ideal(rs, a2)
    assert suter_tau(second) == empty
    top = principal_ideal(rs, rs.theta)
    assert suter_tau(top) == top


def test_suter_tau_is_a_bijection_of_order_n_plus_one():
    for name in ("A3", "A4", "A5"):
        rs = root_system(name)
        ideals = enumerate_abelian_ideals(rs)
        images = [suter_tau(ideal) for ideal in ideals]
        assert sorted(i.mask for i in images) == sorted(i.mask for i in ideals)
        for ideal in ideals:
            cur = ideal
            for _ in range(rs.rank + 1):
                cur = suter_tau(cur)
            assert cur == ideal


def test_suter_tau_rejects_other_families():
    rs = root_system("B2")
    with pytest.raises(RootSystemError):
        suter_tau(ideal_from_mask(rs, 0))


def test_suter_tau_shifts_edge_types():
    # tau is an automorphism of the undirected typed Hasse graph, rotating
    # edge types by 2 mod (n+1); it may reverse inclusion along the way
    rs = root_system("A4")
    edges = typed_edges(enumerate_abelian_ideals(rs))
    typed = {frozenset((e.upper, e.lower)): e.type_index for e in edges}
    for pair, t in typed.items():
        image = frozenset(suter_tau(ideal) for ideal in pair)
        assert typed[image] == (t + 2) % (rs.rank + 1)


def test_long_abelian_counts():
    for name, count in (("B3", 4), ("B5", 16), ("C3", 2), ("G2", 3), ("F4", 4)):
        rs = root_system(name)
        assert len(long_abelian_ideals(rs)) == count
        assert count == expected_long_abelian_count(rs)


def test_long_abelian_rejects_simply_laced():
    with pytest.raises(RootSystemError):
        long_abelian_ideals(root_system("A3"))


def test_long_abelian_edge_types_b4():
    rs = root_system("B4")
    counts = long_abelian_edge_type_counts(rs)
    # 2^(n-3) per long type; the short node contributes nothing
    short = rs.short_simple_indices
    for i, c in enumerate(counts):
        assert c == (0 if (i - 1) in short else 2 ** (rs.rank - 3))


def test_covering_polynomials(small_system):
    rs = small_system
    assert ab_covering_polynomial(rs) == expected_ab_covering_polynomial(rs)
    assert delta_covering_polynomial(rs) == expected_delta_covering_polynomial(rs)


def test_covering_polynomial_fixtures():
    assert expected_ab_covering_polynomial(root_system("F4")) == IntPolynomial([1, 10, 5])
    assert str(ab_covering_polynomial(root_system("G2"))) == "1 + 3q"
    d5 = ab_covering_polynomial(root_system("D5"))
    assert d5.degree == 5 // 2 + 1


def test_sommers_degree_bound(small_system):
    rs = small_system
    assert ab_covering_polynomial(rs).degree == max_orthogonal_simple_count(rs)


def test_max_orthogonal_simple_counts():
    for name, count in (("A3", 2), ("B4", 2), ("D4", 3), ("G2", 1), ("E7", 4), ("E8", 4)):
        assert max_orthogonal_simple_count(root_system(name)) == count


def test_boolean_anchor():
    assert boolean_lattice_covering_polynomial(3) == IntPolynomial([1, 3, 3, 1])
