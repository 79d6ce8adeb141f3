import pytest
from reference import inversion_set, word_from_inversion_set

from rootposets import _kernels
from rootposets.affine import AffineWeylElement
from rootposets.ideals import (
    _cover_powers,
    _sum_table,
    _sums_with,
    enumerate_upper_ideals,
    ideal_from_mask,
    sample_ideals,
    target_inversion_rows,
)
from rootposets.rootsystem import root_system

# the peel takes any sequence of integer rows: tuples, or an int64 array
ROW_FORMATS = ["tuples", "numpy"]


def as_format(rows, fmt):
    if fmt == "numpy":
        np = pytest.importorskip("numpy")
        return np.array(rows, dtype=np.int64)
    return list(rows)


def test_peel_tables_shapes(small_system):
    rs = small_system
    n = rs.rank
    tables = _kernels.peel_tables(rs)
    for table in (tables.simples, tables.coroots):
        assert len(table) == n + 1
        assert all(len(row) == n + 1 for row in table)
    assert tables.simples[0] == tuple(-c for c in rs.theta) + (1,)
    for j in range(1, n + 1):
        assert tables.coroots[j] == rs.cartan[j - 1] + (0,)
        assert tables.simples[j] == tuple(int(c == j - 1) for c in range(n + 1))
    # h_j . a_i is the extended Cartan matrix; its off-diagonal support is the
    # extended Dynkin diagram
    edges = set()
    for j, h in enumerate(tables.coroots):
        assert h[n] == 0
        for i, a in enumerate(tables.simples):
            pairing = sum(x * y for x, y in zip(h, a))
            if i == j:
                assert pairing == 2
            else:
                assert pairing <= 0
                assert ((i, pairing) in tables.links[j]) == (pairing != 0)
                if pairing:
                    edges.add(tuple(sorted((i, j))))
    assert sorted(edges) == rs.extended_edges()


@pytest.mark.parametrize("fmt", ROW_FORMATS)
def test_peel_matches_reference_word(fmt, small_system):
    rs = small_system
    tables = _kernels.peel_tables(rs)
    for ideal in enumerate_upper_ideals(rs):
        rows = target_inversion_rows(ideal)
        peeled = _kernels.peel(as_format(rows, fmt), tables)
        reference = word_from_inversion_set(rs, rows)
        assert peeled.word == reference
        # the independent oracle: the element of the word has exactly these inversions
        element = AffineWeylElement(rs, _kernels.word_matrix(peeled.word, tables), peeled.inverse)
        inv = inversion_set(element)
        assert len(inv) == len(rows)
        assert set(inv) == set(rows)
        # the tracked images w^{-1}(alpha_i) agree with a rebuild from the word
        rebuilt = AffineWeylElement.from_word(rs, peeled.word)
        assert rebuilt == element
        assert rebuilt.inverse_matrix == peeled.inverse
        assert peeled.images == rebuilt.inverse().simple_images()
        for a in tables.simples:
            assert element.inverse().act(a) == rebuilt.inverse().act(a)
            assert element.act(element.inverse().act(a)) == a


@pytest.mark.parametrize("fmt", ROW_FORMATS)
def test_peel_rejects_non_inversion_set(fmt):
    rs = root_system("A2")
    tables = _kernels.peel_tables(rs)
    # theta alone at level 0: no simple affine root ever appears
    with pytest.raises(_kernels.PeelError):
        _kernels.peel(as_format([(1, 1, 0)], fmt), tables)
    # a repeated row
    with pytest.raises(_kernels.PeelError):
        _kernels.peel(as_format([(1, 0, 0), (1, 0, 0)], fmt), tables)


@pytest.mark.parametrize("fmt", ROW_FORMATS)
def test_peel_does_not_mutate_input(fmt):
    rs = root_system("B3")
    ideal = enumerate_upper_ideals(rs)[5]
    rows = as_format(target_inversion_rows(ideal), fmt)
    before = [tuple(int(x) for x in row) for row in rows]
    _kernels.peel(rows, _kernels.peel_tables(rs))
    assert [tuple(int(x) for x in row) for row in rows] == before


def test_peel_word_matches_pure_python_reference():
    rs = root_system("C3")
    tables = _kernels.peel_tables(rs)
    for ideal in sample_ideals(rs, 20):
        peeled = _kernels.peel(target_inversion_rows(ideal), tables)
        element = AffineWeylElement.from_word(rs, peeled.word)
        reference = word_from_inversion_set(rs, inversion_set(element))
        assert AffineWeylElement.from_word(rs, reference) == element
        assert len(reference) == len(peeled.word)


def test_resumed_peel_extends_the_parent_element():
    # w_I = u * w_P with N(w_I) = N(w_P) + D: resuming P's peel with D
    # builds the element of the full peel of I
    rs = root_system("C3")
    tables = _kernels.peel_tables(rs)
    for ideal in enumerate_upper_ideals(rs)[1:]:
        g = rs.root_index[ideal.generators[0]]
        parent = ideal_from_mask(rs, ideal.mask & ~(1 << g))
        start = _kernels.peel(target_inversion_rows(parent), tables) if len(parent) else None
        # the walk's new masks I^k minus P^k, from the parent's powers
        _, new = _cover_powers(_sum_table(rs), _sums_with(rs), parent.mask, parent.powers, g)
        rows = target_inversion_rows(ideal, new)
        assert set(rows) == set(target_inversion_rows(ideal)) - set(target_inversion_rows(parent))
        resumed = _kernels.peel(rows, tables, start)
        full = _kernels.peel(target_inversion_rows(ideal), tables)
        assert len(resumed.word) == len(rows)
        # the images determine the element; u * w_P is w_I
        assert resumed.images == full.images
        parent_word = start.word if start else ()
        assert _kernels.word_matrix(resumed.word + parent_word, tables) == _kernels.word_matrix(
            full.word, tables
        )


def test_resumed_peel_rejects_a_row_already_inverted():
    rs = root_system("B3")
    tables = _kernels.peel_tables(rs)
    rows = target_inversion_rows(enumerate_upper_ideals(rs)[-1])
    start = _kernels.peel(rows, tables)
    with pytest.raises(_kernels.PeelError):
        _kernels.peel(rows[:1], tables, start)
