import pytest

from rootposets.rootposet import (
    _component_coxeter_numbers,
    delta_covering_polynomial,
    edge_type_counts,
    expected_edge_type_counts,
    expected_short_subdiagram_counts,
    short_root_subdiagram,
    short_subdiagram_equals_induced,
    short_subdiagram_type_counts,
    typed_hasse_edges,
)
from rootposets.posets import FinitePoset
from rootposets.rootsystem import root_system


def test_typed_edges_are_covers(small_system):
    rs = small_system
    edges = {(e.upper, e.lower) for e in typed_hasse_edges(rs)}
    assert edges == set(FinitePoset(rs.positive_roots, rs.root_leq).covers())


def test_edge_difference_is_the_type(small_system):
    rs = small_system
    for e in typed_hasse_edges(rs):
        diff = tuple(u - l for u, l in zip(e.upper, e.lower))
        assert diff == rs.simple_roots[e.type_index]


def test_per_type_counts_match_closed_forms(small_system):
    assert edge_type_counts(small_system) == expected_edge_type_counts(small_system)


def test_f4_has_34_edges():
    assert sum(edge_type_counts(root_system("F4"))) == 34


def test_known_edge_counts():
    assert edge_type_counts(root_system("A2")) == [1, 1]
    assert edge_type_counts(root_system("G2")) == [2, 3]
    assert edge_type_counts(root_system("B3")) == [3, 3, 4]


@pytest.mark.parametrize("name", ["B2", "B4", "C3", "C4", "F4", "G2"])
def test_short_subdiagram_counts(name):
    rs = root_system(name)
    assert short_subdiagram_type_counts(rs) == expected_short_subdiagram_counts(rs)


def test_short_subdiagram_nodes():
    # B3 has three short roots (a chain); C3's six short roots form an A3-shape diagram
    roots_b, edges_b = short_root_subdiagram(root_system("B3"))
    assert len(roots_b) == 3
    roots_c, edges_c = short_root_subdiagram(root_system("C3"))
    assert len(roots_c) == 6
    assert len(edges_c) == sum(expected_short_subdiagram_counts(root_system("C3")))


def test_short_subdiagram_comparison_is_reported(small_system):
    rs = small_system
    if rs.family in ("B", "C", "F", "G"):
        assert short_subdiagram_equals_induced(rs) in (True, False)


def test_delta_covering_polynomial_sums_to_root_count(small_system):
    rs = small_system
    f = delta_covering_polynomial(rs)
    assert f(1) == len(rs.positive_roots)
    assert sum(k * c for k, c in enumerate(f.coeffs)) == sum(edge_type_counts(rs))


def test_delta_covering_examples():
    assert str(delta_covering_polynomial(root_system("F4"))) == "4 + 7q + 12q^2 + q^3"
    assert str(delta_covering_polynomial(root_system("G2"))) == "2 + 3q + q^2"


COMPONENT_COXETER = {
    "B2": ([2, 2], [2, 2]),
    "C2": ([2, 2], [2, 2]),
    **{f"B{n}": ([2] * n, [2 * n - 2]) for n in range(3, 9)},
    **{f"C{n}": ([2 * n - 2], [2] * n) for n in range(3, 9)},
    "F4": ([6], [6]),
    "G2": ([3], [3]),
}


@pytest.mark.parametrize("name", sorted(COMPONENT_COXETER))
def test_component_coxeter_numbers(name):
    rs = root_system(name)
    shorts = [r for r in rs.positive_roots if not rs.is_long(r)]
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    got = (_component_coxeter_numbers(rs, shorts), _component_coxeter_numbers(rs, longs))
    assert got == COMPONENT_COXETER[name]
