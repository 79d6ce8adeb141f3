import hashlib

import pytest

from rootposets import _kernels, abelian, ideals, verify
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
    enumerate_upper_ideals,
    generator_edge_types,
    generator_types,
    ideal_from_mask,
    lattice_images,
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


@pytest.mark.parametrize("name", ALL_IDS)
def test_abelian_search_equals_the_definition(name):
    # the search prunes with clash masks built from _sums_with along the
    # covers; is_abelian reads _sums_with root by root.  Uncached, so that a
    # damaged clash table reaches the search.
    rs = root_system(name)
    by_definition = tuple(ideal for ideal in enumerate_upper_ideals(rs) if ideal.is_abelian())
    assert enumerate_abelian_ideals.__wrapped__(rs) == by_definition


def test_a_clash_table_without_one_roots_sums_fails_the_definition(monkeypatch):
    # In D4, (1,1,0,0) + (0,1,1,1) = theta, and no root above (1,1,0,0) sums
    # with (0,1,1,1), which the search adds first.  Without the row of
    # (1,1,0,0), the ideal they generate passes the search: one too many.
    rs = root_system("D4")
    sums = list(ideals._sums_with(rs))
    sums[rs.root_index[(1, 1, 0, 0)]] = 0
    monkeypatch.setattr(abelian, "_sums_with", lambda rs: tuple(sums))
    with pytest.raises(RootSystemError, match="found 17 Abelian ideals"):
        test_abelian_search_equals_the_definition("D4")


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
    # the lattice resumes the parent's peel; its images w^{-1}(alpha_i) must
    # be those of the element a full peel of the ideal builds, and they
    # determine that element
    rs = root_system(name)
    ideals = enumerate_abelian_ideals(rs)
    table = generator_types(ideals)
    assert set(table) == {ideal.mask for ideal in ideals}
    for ideal, images in lattice_images(ideals):
        me = minimal_element(ideal)
        assert images == me.element.inverse().simple_images()
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


def test_abelian_typing_reflects_no_rows(monkeypatch):
    # each type is looked up among the peel's images w^{-1}(alpha_t): the
    # walk builds no matrix
    rs = root_system("F4")
    reflected = []
    original = _kernels.reflect_rows

    def counted(m, j, tables):
        reflected.append(j)
        return original(m, j, tables)

    monkeypatch.setattr(_kernels, "reflect_rows", counted)
    generator_types.cache_clear()
    try:
        table = generator_types(enumerate_abelian_ideals(rs))
    finally:
        generator_types.cache_clear()
    assert len(table) == 16
    assert reflected == []


# sha256 of repr(sorted(generator_types(batch).items())) over each system's
# Abelian lattice: the whole typing table, not only its counts
ABELIAN_TYPE_TABLE_SHA256 = {
    "A1": "2e19b3414406c4e5c0ba7010d8fca3d76a57210b6b44753a7cac11d464ca6d09",
    "A2": "5271dd70f563bd800ab53e2697275894f2f018b3019d1ef42bb12d18afced0dd",
    "A3": "063a15c68755452dee3cefdf96395bd85575d17bbd62bbfb265b09814a222585",
    "A4": "e0c61a3beaad9eb1e219495866bb9259138b0eaa7e02b576ee3d961ea5afecc2",
    "A5": "6ee150656fb5eea66ccf39755a2059d8dc00ebae5ba69b38194394a7db29ee46",
    "A6": "18a217952e6a1866d9b9f8f95363bf02238491c95c49a5505f4dd263b7a92866",
    "A7": "eb55217a01e8d67a8482423468eafcc0be4828d1376ae54182575655f9c3d7bd",
    "A8": "68ff27e55f478f1e81a6a12a9fb4ea8d7f141124b315fc39168fef4dda7d06aa",
    "B2": "138dabbf34c8fc47588d6a0f4c459c7a93eee07c2a26961f6b5249c95b909abd",
    "B3": "5aad0dda19b5648c32a02cc7e5697149cf7e8e8e672af86de1dc5de7c9be2075",
    "B4": "96cc372c6882fd0517fdc739d890f0889789bf02572f47e417aeeb37be66f214",
    "B5": "cdb0d3cdca2b3ac3e4b2d4581a43f6cc31a4e787aed2849d343f5de57fd5b51e",
    "B6": "4b09621a723598900bb3fd7bc3e2cc72607dfbf772b403be131b1e5ef4f7760f",
    "B7": "f25a760a9794e66169722362a868bbd891da430ec575e418e3dc0f3641a70a33",
    "B8": "b646bf2991cb39ed6e8d7374e9f3ee9e359d6f4b0abb42771fcc55fda01705da",
    "C2": "91bf20efd914e72ba2e7a9d26bf444b9fc59e5bb92d90239ecd519213a896893",
    "C3": "3c7b00b6622e7a0721fac7b659e82aff839d9aed7d212366f7ace38a1b135c51",
    "C4": "919b005aad6d32c0380e2c32a983b3089aa92511d5cbca2df7ef2ff4a5f58c35",
    "C5": "2c94d55d3691d221bca025cc89c3bc9aa6e7bfbb710968b9cf2059fe07b401fd",
    "C6": "e2e5bf910ee670a3aedb3209eaa4297246113107c70b53f27a4a2c0dd0e15abe",
    "C7": "5fb06f5cb3b61560823b15990852b268329d065423f4c6bbec12c9384b3f022d",
    "C8": "161c06ee7f64dd9928ef2ae65d216a36b0894178950848badd4d8b50707393d8",
    "D3": "93042ae174c8b6eb92803fc07e2597846514105b0d2f2fedcc6bfccf732726b1",
    "D4": "5e2250ea17537c92f0b191337c47495cef0bb9cdf29a242bc33e8f57090714dd",
    "D5": "6455d706d269d86b9289cc71e67fd63d970e1e122ef6bda2084954c52bfd5c0e",
    "D6": "7b69fa638c9e2e9a19c65c37ae78c9b2e2eb29f67631686b897da4f7ad51c5e6",
    "D7": "e666bb7f37f19355a3259a888edc2fc8979029e218708e8e3f7a3ae10f8933e4",
    "D8": "7b65e18e0698b11a96a4e3ef5421a1d41b02641dfd981ec7f0edb90022baed83",
    "E6": "42c1357a17b2f359224d5b9cb0cd34d784b9593911ebd5d5d7b0200d7e2b29e4",
    "E7": "3eecdab594a5b475368f5eae7132b249f10f872678b57a134bc2ca41430a615c",
    "E8": "ceb8c9057feee4ebdb5287ab06283ab0db5b9d5521dec28c18fd938f71518b1b",
    "F4": "42a6f25bec0b54b47c2bb66780dd7a7ba3aaf8418db7342ba51ecf1b4cd94092",
    "G2": "33df9b2154edd551aeed8e5781add1b38d8188913781532350d6c31a01b6d146",
}


@pytest.mark.parametrize("name", ALL_IDS)
def test_abelian_type_table_is_pinned(name):
    table = generator_types(enumerate_abelian_ideals(root_system(name)))
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == ABELIAN_TYPE_TABLE_SHA256[name]


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


NON_SIMPLY_LACED_IDS = [name for name in ALL_IDS if name[0] in "BCFG"]


@pytest.mark.parametrize("name", NON_SIMPLY_LACED_IDS)
def test_long_abelian_ideals_equal_the_definition(name):
    # the library drops every ideal that meets one short-root mask; the
    # definition asks is_long of every root of every Abelian ideal
    rs = root_system(name)
    want = tuple(
        ideal
        for ideal in enumerate_abelian_ideals(rs)
        if all(rs.is_long(g) for g in ideal.roots())
    )
    assert long_abelian_ideals(rs) == want


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
