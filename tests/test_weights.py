import pytest
from reference import dominant_representative

from rootposets import verify, weights
from rootposets.affine import cartan_inverse
from rootposets.rootsystem import RootSystemError, root_system
from rootposets.weights import (
    _dominant_map,
    _pair,
    _saturate,
    adjoint_weight,
    root_to_weight_coords,
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


def test_weight_system_refuses_a_non_integral_highest_weight():
    # int() would truncate (1.5, 0) to the 3-dimensional module of (1, 0)
    rs = root_system("A2")
    for highest in ((1.5, 0), (1.0, 0), (0, "1")):
        with pytest.raises(RootSystemError, match="not an integer"):
            weight_system(rs, highest)
    with pytest.raises(RootSystemError, match="wrong rank"):
        weight_system(rs, (1, 0, 0))
    with pytest.raises(RootSystemError, match="not dominant"):
        weight_system(rs, (-1, 0))
    assert weight_system(rs, (1, 0)).dim == 3


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


WEIGHTS_CORPUS = verify._weights_corpus(8)
CORPUS_IDS = [f"{rs.id}-{label}" for rs, _, label in WEIGHTS_CORPUS]


def reference_multiplicities(rs, highest):
    """Freudenthal weight by weight: every pairing and dominant weight afresh."""
    below = _saturate(rs, highest)
    dominants = sorted((w for w in below if all(c >= 0 for c in w)), key=lambda w: sum(below[w]))
    mult = {highest: 1}
    for mu in dominants:
        if mu == highest:
            continue
        acc = 0
        for gamma in rs.positive_roots:
            gfw = root_to_weight_coords(rs, gamma)
            k = 1
            while True:
                up = tuple(m + k * a for m, a in zip(mu, gfw))
                if up not in below:
                    break
                acc += mult[dominant_representative(rs, up)] * _pair(rs, up, gamma)
                k += 1
        lam_mu_rho = [h + m + 2 for h, m in zip(highest, mu)]
        value, rest = divmod(2 * acc, _pair(rs, lam_mu_rho, below[mu]))
        assert rest == 0 and value >= 1
        mult[mu] = value
    return {w: mult[dominant_representative(rs, w)] for w in below}


@pytest.mark.parametrize("rs,highest,label", WEIGHTS_CORPUS, ids=CORPUS_IDS)
def test_multiplicities_match_per_weight_freudenthal(rs, highest, label):
    assert weight_system(rs, highest).multiplicity == reference_multiplicities(rs, highest)


@pytest.mark.parametrize("rs,highest,label", WEIGHTS_CORPUS, ids=CORPUS_IDS)
def test_dominant_map_matches_dominant_representative(rs, highest, label):
    below = _saturate(rs, highest)
    dom = _dominant_map(rs, below)
    assert set(dom) == set(below)
    for w in below:
        assert dom[w] == dominant_representative(rs, w)


def test_suite_weights_builds_one_diagram_per_module(monkeypatch):
    built = []

    def counting(ws):
        built.append(ws.highest)
        return weight_diagram_edges(ws)

    monkeypatch.setattr(weights, "weight_diagram_edges", counting)
    results = verify.suite_weights(8)
    assert all(r.passed for r in results)
    assert len(WEIGHTS_CORPUS) == 57
    assert len(built) == 57


def test_edges_are_cached_on_the_module():
    rs = root_system("B3")
    ws = weight_system(rs, adjoint_weight(rs))
    assert ws.edges is ws.edges
    assert ws.edges == weight_diagram_edges(ws)
