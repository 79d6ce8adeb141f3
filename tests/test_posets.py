from collections import Counter

import pytest

from rootposets.posets import FinitePoset, IntPolynomial, PosetError, export_dot


def divides(a, b):
    return b % a == 0


def test_divisor_poset_covers():
    p = FinitePoset([1, 2, 3, 4, 6, 12], divides)
    covers = set(p.covers())
    assert covers == {(2, 1), (3, 1), (4, 2), (6, 2), (6, 3), (12, 4), (12, 6)}
    assert all(p.leq(1, x) for x in p.elements)
    assert sum(1 for hi, _ in covers if hi == 12) == 2
    assert sum(1 for hi, _ in covers if hi == 1) == 0


def test_cover_index_pairs_are_sorted():
    p = FinitePoset([1, 2, 3, 4, 6, 12], divides)
    pairs = p.cover_index_pairs()
    assert pairs == sorted(pairs)
    elems = p.elements
    for hi, lo in pairs:
        assert divides(elems[lo], elems[hi])


def test_covering_polynomial_of_boolean_lattice():
    subsets = [frozenset(s) for s in ({}, {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
    p = FinitePoset(subsets, lambda a, b: a <= b)
    assert p.covering_polynomial() == IntPolynomial([1, 3, 3, 1])


def test_validation_rejects_non_posets():
    with pytest.raises(PosetError):
        FinitePoset([1, 2], lambda a, b: True)  # not antisymmetric
    with pytest.raises(PosetError):
        FinitePoset([1, 2, 4], lambda a, b: b == 2 * a or a == b)  # not transitive


def test_polynomial_basics():
    f = IntPolynomial([1, 10, 5])
    assert f.degree == 2
    assert f(1) == 16
    assert f(2) == 41
    assert sum(k * c for k, c in enumerate(f.coeffs)) == 20
    assert str(f) == "1 + 10q + 5q^2"
    assert str(IntPolynomial([0, 1])) == "q"
    assert str(IntPolynomial([])) == "0"


def test_polynomial_trailing_zeros_are_normalized():
    assert IntPolynomial([1, 2, 0]) == IntPolynomial([1, 2])
    assert IntPolynomial([0, 0]) == IntPolynomial([])
    assert IntPolynomial([0, 0]).degree == -1  # zero polynomial


def test_polynomial_from_counts():
    f = IntPolynomial.from_counts(Counter([0, 1, 1, 3]))
    assert f == IntPolynomial([1, 2, 0, 1])


def test_palindromic():
    assert IntPolynomial([1, 6, 6, 1]).is_palindromic()
    assert IntPolynomial([1, 9, 9, 1]).is_palindromic(degree=3)
    assert not IntPolynomial([1, 2, 3]).is_palindromic()
    # palindromic with respect to a larger ambient degree
    assert not IntPolynomial([2, 1]).is_palindromic()
    assert IntPolynomial([0, 2, 1]).is_palindromic(degree=3) is False


def test_export_dot_golden():
    text = export_dot(["a", "b"], [(0, 1, "2")], graph_name="g")
    assert text == (
        'digraph g {\n'
        '  n0 [label="a"];\n'
        '  n1 [label="b"];\n'
        '  n0 -> n1 [type="2", label="2"];\n'
        '}\n'
    )


def test_export_dot_sorted_and_untyped():
    text = export_dot(["x", "y", "z"], [(2, 1, None), (0, 1, "1")])
    lines = text.splitlines()
    assert lines.index("  n0 -> n1 [type=\"1\", label=\"1\"];") < lines.index("  n2 -> n1;")
    assert text.endswith("}\n")
