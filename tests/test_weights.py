import pytest

from rootposets import verify
from rootposets.affine import cartan_inverse
from rootposets.rootsystem import root_system
from rootposets.weights import (
    _saturate,
    adjoint_weight,
    dominant_representative,
    edge_type_counts,
    fundamental_weight,
    short_dominant_weight,
    sl2_edge_count,
    spin_weight,
    weight_diagram_edges,
    weight_system,
    weyl_dimension,
    zero_deleted_type_counts,
)

ADJOINT_DIMS = {
    "A3": 15,
    "B3": 21,
    "C3": 21,
    "D4": 28,
    "E6": 78,
    "F4": 52,
    "G2": 14,
}


@pytest.mark.parametrize("name,dim", sorted(ADJOINT_DIMS.items()))
def test_weyl_dimension_adjoint(name, dim):
    rs = root_system(name)
    assert weyl_dimension(rs, adjoint_weight(rs)) == dim


def test_weyl_dimension_small_cases():
    a2 = root_system("A2")
    assert weyl_dimension(a2, fundamental_weight(a2, 0)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    b3 = root_system("B3")
    assert weyl_dimension(b3, spin_weight(b3)) == 8
    e6 = root_system("E6")
    assert weyl_dimension(e6, fundamental_weight(e6, 0)) == 27


def test_weight_system_dimension_and_multiplicities():
    rs = root_system("B3")
    ws = weight_system(rs, adjoint_weight(rs))
    assert ws.dim == 21
    zero = (0,) * 3
    assert ws.multiplicity[zero] == 3  # Cartan subalgebra
    spin = weight_system(rs, spin_weight(rs))
    assert spin.dim == 8
    assert all(m == 1 for m in spin.multiplicity.values())


def test_short_module_multiplicities():
    for name, dim, zero_mult in (("C3", 14, 2), ("F4", 26, 2), ("G2", 7, 1), ("B3", 7, 1)):
        rs = root_system(name)
        ws = weight_system(rs, short_dominant_weight(rs))
        assert ws.dim == dim
        assert ws.multiplicity[(0,) * rs.rank] == zero_mult


def test_adjoint_weight_is_theta_in_weight_coordinates():
    rs = root_system("G2")
    ws = weight_system(rs, adjoint_weight(rs))
    # nonzero weights of the adjoint module are exactly the roots
    nonzero = {w for w, m in ws.multiplicity.items() if w != (0, 0)}
    assert len(nonzero) == 12


def test_spin_edge_counts():
    for n in (3, 4, 5):
        rs = root_system(f"B{n}")
        counts = edge_type_counts(weight_system(rs, spin_weight(rs)))
        assert counts == [2 ** (n - 2)] * (n - 1) + [2 ** (n - 1)]


def test_minuscule_27_edge_counts():
    rs = root_system("E6")
    counts = edge_type_counts(weight_system(rs, fundamental_weight(rs, 0)))
    assert counts == [6] * 6


def test_adjoint_long_type_edge_law(small_system):
    rs = small_system
    counts = edge_type_counts(weight_system(rs, adjoint_weight(rs)))
    for i in range(rs.rank):
        if rs.is_long(rs.simple_roots[i]):
            assert counts[i] == 2 * rs.dual_h - 2


def test_zero_deletion_drops_two_edges_per_type(small_system):
    rs = small_system
    ws = weight_system(rs, adjoint_weight(rs))
    counts = edge_type_counts(ws)
    assert zero_deleted_type_counts(ws) == [c - 2 for c in counts]


def test_sl2_oracle(small_system):
    rs = small_system
    for highest in (adjoint_weight(rs), fundamental_weight(rs, 0)):
        ws = weight_system(rs, highest)
        counts = edge_type_counts(ws)
        assert counts == [sl2_edge_count(ws, i) for i in range(rs.rank)]


def test_edges_connect_weights_at_distance_one_simple_root():
    rs = root_system("C3")
    ws = weight_system(rs, adjoint_weight(rs))
    for e in weight_diagram_edges(ws):
        assert e.upper in ws.multiplicity and e.lower in ws.multiplicity
        assert e.multiplicity == min(ws.multiplicity[e.upper], ws.multiplicity[e.lower])


def test_dominant_representative(rng):
    rs = root_system("B3")
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(3))
        dom = dominant_representative(rs, w)
        assert all(dom[i] >= 0 for i in range(3))
        assert dominant_representative(rs, dom) == dom


SATURATION_CASES = [
    *((rs, highest) for rs, highest, _ in verify._weights_corpus(4)),
    (root_system("E6"), fundamental_weight(root_system("E6"), 0)),
]


@pytest.mark.parametrize(
    "rs,highest", SATURATION_CASES, ids=[f"{rs.id}-{h}" for rs, h in SATURATION_CASES]
)
def test_saturation_records_the_root_lattice_difference(rs, highest):
    inv = cartan_inverse(rs)  # the reference: root coordinates of a weight
    below = _saturate(rs, highest)
    assert len(below) == len(weight_system(rs, highest).multiplicity)
    for mu, diff in below.items():
        lam_mu = [h - m for h, m in zip(highest, mu)]
        want = tuple(sum(inv[i][j] * lam_mu[j] for j in range(rs.rank)) for i in range(rs.rank))
        assert diff == want
        assert all(c >= 0 for c in diff)
