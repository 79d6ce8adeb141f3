import hashlib
from itertools import zip_longest

import pytest
import reference

from rootposets import _kernels, ideals, verify
from rootposets.abelian import enumerate_abelian_ideals
from rootposets.affine import AffineWeylElement, cartan_inverse
from rootposets.ideals import (
    MinimalElement,
    alcove_wall_types,
    check_minimal_element,
    descent_types,
    enumerate_upper_ideals,
    expected_edge_count,
    expected_ideal_count,
    facet_types,
    full_ideal,
    generator_edge_types,
    generator_types,
    ideal_count_closed_form,
    ideal_from_mask,
    ideal_from_roots,
    lattice_images,
    minimal_element,
    narayana_polynomial,
    principal_ideal,
    sample_ideals,
    type_counts,
    typed_edges,
    z_point,
)
from rootposets.posets import FinitePoset
from rootposets.rootsystem import RootSystemError, admissible_systems, root_system

ALL_IDS = [str(sid) for sid in admissible_systems(8)]
RANK_6_IDS = [str(sid) for sid in admissible_systems(6)]

IDEAL_COUNTS = {"A2": 5, "A3": 14, "B2": 6, "B3": 20, "C3": 20, "D4": 50, "F4": 105, "G2": 8}


@pytest.mark.parametrize("name,count", sorted(IDEAL_COUNTS.items()))
def test_ideal_counts(name, count):
    rs = root_system(name)
    assert len(enumerate_upper_ideals(rs)) == count
    assert expected_ideal_count(rs) == count
    assert ideal_count_closed_form(rs) == count


def test_large_counts_match_product_formula():
    systems = admissible_systems(8)
    assert len(systems) == 33
    for sid in systems:
        rs = root_system(sid)
        assert expected_ideal_count(rs) == ideal_count_closed_form(rs)


def test_enumeration_is_sorted_and_distinct(small_system):
    ideals = enumerate_upper_ideals(small_system)
    masks = {ideal.mask for ideal in ideals}
    assert len(masks) == len(ideals)
    sizes = [len(ideal) for ideal in ideals]
    assert sizes == sorted(sizes)


# sha256 of repr([(I.mask, I.generators) for I in batch]) for the full and the
# Abelian lattice of each system, recorded from a search that sorted its
# output by (size, generators), so the pins do not take their order from the
# search they check.  `sample_ideals`' seeded draw and the DOT node numbers of
# `export` read this order.
ORDER_SHA256 = {
    "upper": {
        "A1": "2dd5410eb446e36006fbbf1a8ca3d4df46e6018a5af3539ff27f78fa173c44b2",
        "A2": "0f4c235457a58bf85597af4568bf6d1ece2cfc6544dc4ec82ea8c0f830863992",
        "A3": "e7176a1a20a44b81d26f99557a7f0f8fc6cb9e6f036190945f2cf377f208889d",
        "A4": "58cf9ac68c69cbdf1cc61993eac8d06a8522b8897c695ff8424c8b5722fa43fb",
        "A5": "8b28221a1e19f28b095e6b95954a821295a098f1ceeef597a875d26466f7a06a",
        "A6": "29f81afb4ebac593fb4070b03941ecfe4ac13c4946109efd311f798af8fb0674",
        "A7": "ab52f17083e304ce452a01c5e0b5ef006db056a493f35d818373cdb509e54e37",
        "A8": "bf861c939ab2f55f99a701d0b0cecadf2f7c6619e189d5f2b8f8c68afff10b16",
        "B2": "5604ba280731a5afefe54d1c4b9a1945f9e632154bc3aff83a248c247e4ec4a1",
        "B3": "4057582c13188935db003bca4c0a0d31cc678d8c0747d717588e9a430cd124d9",
        "B4": "8d6dea8cc7cf9019532a01c0fbf18a3697faccc4db5a72adaaa9b230ef941f41",
        "B5": "aa83d189b0a7c971353737db42e6b09b0afc4bfbf35a0cf23bf5f6fe303dc2b1",
        "B6": "ade6506c3d21e169492c1698505b860a733b5194e6205c7702de8fb1b7eb3027",
        "B7": "807cef36d8350065f6333feb16333babe7553303ae682ea7790f63b08822d4da",
        "B8": "7b04f1e91f71c6b6656478fa1bc957b5b8ed075dfda1e4f58b7cb94ab2ba0528",
        "C2": "29c19ef9804aeee9a009e0cd10629697808ad1b648eaa1dfb1f83778e987d049",
        "C3": "0eece7411733e8b7035e88fd736c0460070da2de0f13b96542cebc36f06ff983",
        "C4": "920491b785e7b0345e88a8c64c6079c0c5354a4cb8a86b5c08911b3a5b88ddb1",
        "C5": "f5e74ff023676bc51467fccfa6c23a2d59820d49a2e1e52af452e3afdbeb9071",
        "C6": "6c41cb8ff7dd139785104997acaf9d7c8c5328d44d520498a6782bb270b7e09b",
        "C7": "e8c9bac68e244b054b70b38d50d3736d59ee1b12f89c397db2e383efce19a1b5",
        "C8": "0302aca196d983ce3ac6fc37cbb8c93c864b9a2aa282dfd48ab84efe3fa98e46",
        "D3": "0a8bdbf82b69758f8c04cba178381155ecb3f4f92645c2242c5e4603ea3b1309",
        "D4": "d10a81ec2b3f3ef151b941df1f2d1376324a29a8114e84355ca254c1107f29c1",
        "D5": "82ce20e8d08c9031d22f0d061b40fb6c5ca50b26dda82cad28f03af4233dcd23",
        "D6": "a514a60c5aa5498a0dd1afde2cd70501547ae0655f1d07e84cef079913a6ba21",
        "D7": "2803ac5c1e4b84086fbe8fef99a447f9dd979b5207c0af9db925a5e2cd2ad90b",
        "D8": "08d9f608e08943917b99519c64c8caa32445ef6104d8631319ef7a5831ece77f",
        "E6": "842fccfc3ee0f954810a7ae272128a6a571a2cafe49ecdc912d881fa82db2d36",
        "E7": "6d96e720eff3a8078ce7f975b4bae50898ac538288976b253f3f5d0730b1a3ac",
        "E8": "15a7109274333580335bfe062f6de8e6220018c8227d2f5cc5af634a319d38db",
        "F4": "51d00ce27cbff327721e56d75449e56b53dc481f40e5c1c3300995e445ea6b7e",
        "G2": "18c3629d42cce0d79ece6810bbbb0173830a03a0251ade725265950d0ee5aca4",
    },
    "abelian": {
        "A1": "2dd5410eb446e36006fbbf1a8ca3d4df46e6018a5af3539ff27f78fa173c44b2",
        "A2": "82c51b5c0ee4f5978af0cb32b0943b8f7ef6167b576e02b3439c377c42f3af63",
        "A3": "914c57c78672312747449d42631b814177127cf342ae9afea1db4d61a602c27e",
        "A4": "f504655742cac8fc1e8b0b818c306d93f8039d6012bab08730895507c7ed1b5d",
        "A5": "45ea272226569fb0cd23caea14dfa1f36c8533250e1937a3b2cbcf55843cb614",
        "A6": "fa00a8d9a3c249a761266c49a84a0b419d57b82d6d54789b81f121081120a594",
        "A7": "650b24aec4c22d9806596ec895042acb970d51c4b0b0cd0b6849470088ed98c0",
        "A8": "bc0a950112bfb3b1ebbc4b9e8b59317a8e9214449424a729a495b53d792d3f02",
        "B2": "d7feedf3a0265183c0c2516748863288aaf0b0eb2fed4ae487649a174e1f2ab5",
        "B3": "3465115dea845796aa5c773cd8dbe41d011f3df1bed6248418919d8bfa842ab9",
        "B4": "27f2f4cd5be8410e2cd62119542882970b63aab7231030a104bc958dca823520",
        "B5": "cd946dc0199978f86184304dd5694ef5df0ebbea6d8953a17565996baaf79f86",
        "B6": "d39c10ab46650db7f6d8a7700d441a06f68397b90a6d10a84ce33206e8c2f178",
        "B7": "0d54ef2bab1a34e2fe8e3819f61ab3782d84f1f5eb8f278291ef8685c59dd56e",
        "B8": "edb77e24041b5e2aa4d9a2be4fd97ef7e75dfa8e9915aaf9253bb7f73ae728a5",
        "C2": "8b00c9c1a9c09f34f9b1f4ea0850e49c5ae327fd8bd70215ac4f42a1dafb3ed1",
        "C3": "bbabf29b0b16220756f2532adc022e6f5d4a91423c7b418757299da707eab62d",
        "C4": "66d3d750e8e6b3ec1b9a106fd195cdf0bc5431c5853d16390ba82b683fcd6181",
        "C5": "dfbf4a126f4f254427f1aa883e9d501135aeb92f566fcf87edae339ccd60fc8e",
        "C6": "10658e825b30bb0ac1d4ce5535d1ab1ef6c6b00f198b74e31b02169492d639f5",
        "C7": "196868b91fb63d075e2fe9c0b05c6cbc3da09076716020e6da7f3baf0b872de0",
        "C8": "f42ce84094cf56c8dceb396165fb0827f2585ebd3414a4c859d759f7bdb3b94a",
        "D3": "9ac6dc287532f1cb31a97fc62f33fddb05de3be2e88c2c9fa9c75466b0e53ffe",
        "D4": "c37e1de782ea4614068a22d69e314c87c5c13dfb4aa673c68e46bd4ea13fdbe0",
        "D5": "6e2e937bcef03f01003b7b05bd841e68bf14b3ea75fb497f0822370c7f383086",
        "D6": "9889cbe61b4e8bceabaa555ac9119a508b6ae00cbc1cdeb1ea068f450e159d6d",
        "D7": "6227c7a619332d369f55363b90f33047ca9dc051a1e6f8956aea436a5740bcac",
        "D8": "50fbd3f3d9c1962efff5ee471d0d353c77ea89ccad62e12e5d0c61206cd02236",
        "E6": "62d9b3f0e2b33f7c75bd659d049f0f05674c01c4a9dd8c9d749499ba7a2ce77a",
        "E7": "ae97b819fdc594ddd54bf268ad9a5a006ad852ce0c79ce591938810726b74753",
        "E8": "6bf8ef38bb9221970dd6cc14f864d381bd63152eb4afc6cac168672f9e6b1154",
        "F4": "1923c5b93f4198893127c079a3a43e2048fb9ea9e5494075118e4e7020572267",
        "G2": "6dce70b2382ca25d38b700c95b5e3785aea000614788bf91a92c6767e4ed3fd2",
    },
}
LATTICES = {"upper": enumerate_upper_ideals, "abelian": enumerate_abelian_ideals}


@pytest.mark.parametrize("name", ALL_IDS)
@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_enumeration_order_is_pinned(lattice, name):
    # the search sorts nothing: it adds roots in tuple order and buckets by size
    batch = LATTICES[lattice](root_system(name))
    assert list(batch) == sorted(batch, key=lambda ideal: (len(ideal), ideal.generators))
    for ideal in batch:
        assert all(a < b for a, b in zip(ideal.generators, ideal.generators[1:]))
    text = repr([(ideal.mask, ideal.generators) for ideal in batch])
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_SHA256[lattice][name]


def test_generators_form_minimal_antichain(small_system):
    rs = small_system
    for ideal in enumerate_upper_ideals(rs):
        roots = set(ideal.roots())
        assert set(ideal.generators) <= roots
        # generators are exactly the minimal elements of the ideal
        minimal = {
            g for g in roots if not any(r != g and rs.root_leq(r, g) for r in roots)
        }
        assert set(ideal.generators) == minimal
        # upward closure
        for g in roots:
            for p in rs.positive_roots:
                if rs.root_leq(g, p):
                    assert p in ideal


def test_ideal_from_mask_round_trip(small_system):
    for ideal in enumerate_upper_ideals(small_system):
        rebuilt = ideal_from_mask(small_system, ideal.mask)
        assert rebuilt == ideal
        assert rebuilt.generators == ideal.generators


def test_ideal_from_roots_validates():
    rs = root_system("A2")
    with pytest.raises(RootSystemError):
        ideal_from_roots(rs, [(1, 0)])  # missing (1, 1) above it
    with pytest.raises(RootSystemError):
        ideal_from_roots(rs, [(5, 5)])
    ideal = ideal_from_roots(rs, [(1, 0), (1, 1)])
    assert ideal.generators == ((1, 0),)


def test_full_and_empty_and_principal():
    rs = root_system("B3")
    full = full_ideal(rs)
    assert len(full) == len(rs.positive_roots)
    assert set(full.generators) == set(rs.simple_roots)
    assert len(ideal_from_mask(rs, 0)) == 0
    top = principal_ideal(rs, rs.theta)
    assert top.roots() == [rs.theta]
    below = principal_ideal(rs, rs.simple_roots[0])
    assert all(rs.root_leq(rs.simple_roots[0], g) for g in below.roots())


@pytest.mark.parametrize("gamma", [(5, 5), (0, 0), (-1, 0), (1, 1, 0)])
def test_principal_ideal_rejects_a_non_root(gamma):
    # the same error as ideal_from_roots and RootSystem.half_floor give
    with pytest.raises(RootSystemError, match=r"is not a positive root"):
        principal_ideal(root_system("A2"), gamma)


def test_ideal_powers_of_full_ideal():
    rs = root_system("C3")
    powers = full_ideal(rs).powers
    # I^k is the set of roots of height >= k, so there are height(theta) = h-1 powers
    assert len(powers) == rs.h - 1
    for k, mask in enumerate(powers, start=1):
        want = sum(
            1 << i for i, g in enumerate(rs.positive_roots) if rs.height(g) >= k
        )
        assert mask == want


def test_powers_are_kept_outside_equality_and_hash():
    rs = root_system("D4")
    read, fresh = full_ideal(rs), full_ideal(rs)
    assert isinstance(read.powers, tuple) and read.powers is read.powers
    assert read == fresh and hash(read) == hash(fresh)
    assert "powers" not in repr(read)


def test_building_and_checking_reads_the_powers_once(monkeypatch):
    calls = []
    original = ideals._power_mask

    def counting(rs, mask_a, mask_b):
        calls.append(mask_a)
        return original(rs, mask_a, mask_b)

    monkeypatch.setattr(ideals, "_power_mask", counting)
    rs = root_system("D4")
    # fresh ideals, so no power is cached from an earlier test
    batch = [ideal_from_mask(rs, ideal.mask) for ideal in enumerate_upper_ideals(rs)]
    for ideal in batch:
        check_minimal_element(minimal_element(ideal))
    assert len(calls) == 102
    # one call per nonempty power, and one more for each ideal's empty last power
    assert sum(len(ideal.powers) for ideal in batch) == 102


def test_is_abelian():
    rs = root_system("G2")
    assert ideal_from_mask(rs, 0).is_abelian()
    assert principal_ideal(rs, rs.theta).is_abelian()
    assert not full_ideal(rs).is_abelian()
    # the three highest roots commute in G2; adding the next one does not
    by_height = sorted(rs.positive_roots, key=rs.height, reverse=True)
    assert ideal_from_roots(rs, by_height[:3]).is_abelian()
    assert not ideal_from_roots(rs, by_height[:4]).is_abelian()


def test_is_abelian_matches_the_square(small_system):
    # Abelian iff I + I meets no root: the sum table's square of the mask
    rs = small_system
    for ideal in enumerate_upper_ideals(rs):
        assert ideal.is_abelian() == (not ideals._power_mask(rs, ideal.mask, ideal.mask))


def reference_order_masks(rs):
    """The definition: up[i] holds j with pos[i] <= pos[j], comp[i] every j comparable."""
    pos = rs.positive_roots
    up = [sum(1 << j for j, b in enumerate(pos) if rs.root_leq(a, b)) for a in pos]
    comp = [
        sum(1 << j for j, b in enumerate(pos) if rs.root_leq(a, b) or rs.root_leq(b, a))
        for a in pos
    ]
    return tuple(up), tuple(comp)


@pytest.mark.parametrize("name", ALL_IDS)
def test_order_masks_match_root_leq(name):
    # built along the covers beta < beta + alpha_k, not by N^2 comparisons
    rs = root_system(name)
    assert ideals._order_masks(rs) == reference_order_masks(rs)


@pytest.mark.parametrize("name", ALL_IDS)
def test_sum_table_matches_tuple_addition(name):
    # built from integer keys that add without carries
    rs = root_system(name)
    pos, index = rs.positive_roots, rs.root_index
    table, sums = ideals._sum_table(rs), ideals._sums_with(rs)
    assert len(table) == len(sums) == len(pos)
    for i, a in enumerate(pos):
        row = tuple(index.get(tuple(x + y for x, y in zip(a, b)), -1) for b in pos)
        assert table[i] == row
        assert sums[i] == sum(1 << j for j, k in enumerate(row) if k >= 0)


@pytest.mark.parametrize("name", RANK_6_IDS)
def test_walk_powers_match_the_ideal_powers(name, monkeypatch):
    # the walk builds each ideal's powers from its parent's along the cover
    # and peels the new masks I^k minus P^k; UpperIdeal.powers recomputes
    # every power from scratch
    rs = root_system(name)
    # fresh ideals, so that no power is cached before the walk
    batch = tuple(ideal_from_mask(rs, ideal.mask) for ideal in enumerate_upper_ideals(rs))
    passed = {}
    original = ideals.target_inversion_rows

    def recording(ideal, powers=None):
        passed[ideal.mask] = tuple(powers)
        return original(ideal, powers)

    monkeypatch.setattr(ideals, "target_inversion_rows", recording)
    assert len(list(lattice_images(batch))) == len(batch)
    assert not any("powers" in vars(ideal) for ideal in batch)
    assert len(passed) == len(batch) - 1
    by_mask = {ideal.mask: ideal for ideal in batch}
    for ideal in batch[1:]:
        g = rs.root_index[ideal.generators[0]]
        parent = by_mask[ideal.mask & ~(1 << g)]
        powers, new = ideals._cover_powers(
            ideals._sum_table(rs), ideals._sums_with(rs), parent.mask, parent.powers, g
        )
        assert powers == ideal.powers
        want = tuple(a & ~b for a, b in zip_longest(ideal.powers, parent.powers, fillvalue=0))
        assert new == passed[ideal.mask] == want


def test_minimal_element_checks_pass(small_system):
    for ideal in enumerate_upper_ideals(small_system):
        me = minimal_element(ideal)
        levels = check_minimal_element(me)
        assert len(levels) == small_system.rank + 1
        assert all(k >= -1 for k in levels)
        if len(ideal):
            assert me.word[-1] == 0
        else:
            assert me.element == AffineWeylElement.identity(small_system)


def test_minimal_element_levels_of_extremes():
    rs = root_system("B3")
    assert check_minimal_element(minimal_element(ideal_from_mask(rs, 0))) == (1, 0, 0, 0)
    top_levels = check_minimal_element(minimal_element(full_ideal(rs)))
    assert top_levels[1:] == (-1,) * rs.rank


@pytest.mark.parametrize(
    "word,generator,message",
    [
        ((0,), None, "containment condition fails"),
        ((1,), None, "dominance fails at alpha_1"),
        ((1, 2, 0), (1, 0), "minimality fails"),
        ((0, 1, 0, 1, 0, 1), None, "length does not match"),
    ],
)
def test_check_catches_each_broken_condition(word, generator, message):
    rs = root_system("A2")
    ideal = ideal_from_mask(rs, 0) if generator is None else principal_ideal(rs, generator)
    me = MinimalElement(ideal, AffineWeylElement.from_word(rs, word), word)
    with pytest.raises(RootSystemError, match=message):
        check_minimal_element(me)


def test_check_catches_a_wrong_stored_inverse():
    rs = root_system("A2")
    me = minimal_element(full_ideal(rs))
    eye = AffineWeylElement.identity(rs).matrix
    broken = me._replace(element=AffineWeylElement(rs, me.element.matrix, eye))
    with pytest.raises(RootSystemError, match="stored inverse"):
        check_minimal_element(broken)


def test_verify_checks_each_ideal_once(monkeypatch):
    checked = []
    original = check_minimal_element

    def counting(me):
        checked.append(me.ideal)
        return original(me)

    monkeypatch.setattr("rootposets.ideals.check_minimal_element", counting)
    assert all(r.passed for r in verify.suite_ad(4))
    assert len(checked) == 432
    assert sum(len(enumerate_upper_ideals(root_system(s))) for s in admissible_systems(4)) == 432


def test_verify_builds_each_minimal_element_once(monkeypatch):
    built = []
    original = minimal_element

    def counting(ideal):
        built.append(ideal)
        return original(ideal)

    monkeypatch.setattr("rootposets.ideals.minimal_element", counting)
    assert all(r.passed for r in verify.suite_ad(4))
    # 432 ideals of rank <= 4, read again by the four-route lines; the sl4
    # lines build 1 more (their edge counts come from the lattice, which
    # builds no minimal element)
    assert len(built) == 433


def test_verify_exhaustive_checks_every_e7_ideal_once(monkeypatch):
    # `verify --exhaustive` with cheap stand-ins for the build, the check and
    # the four routes: the E7 line covers all 4160 ideals, none sampled
    built, checked, sampled = [], [], []
    original_sample = sample_ideals

    def build(ideal):
        built.append(ideal)
        return MinimalElement(ideal, None, ())

    def check(me):
        checked.append(me.ideal)

    def sample(rs, count):
        sampled.append(str(rs.id))
        return original_sample(rs, count)

    monkeypatch.setattr("rootposets.ideals.minimal_element", build)
    monkeypatch.setattr("rootposets.ideals.check_minimal_element", check)
    monkeypatch.setattr("rootposets.ideals.sample_ideals", sample)
    monkeypatch.setattr("rootposets.verify._assert_edge_type_agreement", lambda *args: None)
    results = verify.suite_ad(7, exhaustive=True)
    line = "E7: minimal elements of 4160 (all) ideals satisfy all conditions"
    assert [r.passed for r in results if r.name == line] == [True]
    assert "E7" not in sampled
    rs = root_system("E7")
    e7 = list(enumerate_upper_ideals(rs))
    assert [ideal for ideal in built if ideal.rs == rs] == e7
    assert [ideal for ideal in checked if ideal.rs == rs] == e7


def test_facet_types_do_not_rerun_the_check(monkeypatch):
    def refuse(me):
        raise AssertionError("facet_types re-ran the check")

    monkeypatch.setattr("rootposets.ideals.check_minimal_element", refuse)
    rs = root_system("C3")
    for ideal in enumerate_upper_ideals(rs):
        me = minimal_element(ideal)
        assert facet_types(me) == set(generator_edge_types(me).values())


def test_z_point_defining_property():
    checked = 0
    for sid in [*admissible_systems(4), "E6"]:
        rs = root_system(sid)
        n = rs.rank
        inv = cartan_inverse(rs)  # the reference: z solves A^T z = k, and inv(A^T) = inv(A)^T
        assert z_point(minimal_element(ideal_from_mask(rs, 0))) == (0,) * n
        for ideal in enumerate_upper_ideals(rs):
            me = minimal_element(ideal)
            levels = check_minimal_element(me)
            z = z_point(me)
            assert z == tuple(sum(inv[j][i] * levels[1 + j] for j in range(n)) for i in range(n))
            for i, alpha in enumerate(rs.simple_roots):
                assert sum(z[j] * rs.pairing(alpha, j) for j in range(n)) == levels[1 + i]
            assert sum(z[j] * rs.pairing(rs.theta, j) for j in range(n)) == 1 - levels[0]
            checked += 1
    assert checked == 432 + 833


def test_z_point_refuses_a_word_of_another_element():
    rs = root_system("C3")
    first, second = (minimal_element(ideal) for ideal in enumerate_upper_ideals(rs)[5:7])
    assert z_point(first) != z_point(second)
    with pytest.raises(RootSystemError, match="does not give the levels"):
        z_point(MinimalElement(first.ideal, first.element, second.word))


@pytest.mark.parametrize("name", ["C3", "E6"])
def test_four_routes_do_not_act_on_affine_simple_roots(name, monkeypatch):
    rs = root_system(name)
    batch = enumerate_upper_ideals(rs) if name == "C3" else sample_ideals(rs, 300)
    elements = [minimal_element(ideal) for ideal in batch]
    simples = set(_kernels.peel_tables(rs).simples)
    on_simples = []
    original = AffineWeylElement.act

    def counting(self, row):
        if row in simples:
            on_simples.append(row)
        return original(self, row)

    monkeypatch.setattr(AffineWeylElement, "act", counting)
    for me in elements:
        generator_edge_types(me)
        facet_types(me)
        alcove_wall_types(me)
        descent_types(me)
    assert len(elements) == (20 if name == "C3" else 300)
    assert on_simples == []


@pytest.mark.parametrize("name", [*(str(sid) for sid in admissible_systems(4)), "E6"])
def test_wall_route_equals_the_per_vertex_reference(name):
    rs = root_system(name)
    batch = sample_ideals(rs, 100) if name == "E6" else enumerate_upper_ideals(rs)
    for ideal in batch:
        me = minimal_element(ideal)
        assert alcove_wall_types(me) == reference.alcove_wall_types(me)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C3", "G2"])
def test_four_type_routes_agree(name):
    rs = root_system(name)
    for ideal in enumerate_upper_ideals(rs):
        me = minimal_element(ideal)
        types = set(generator_edge_types(me).values())
        assert facet_types(me) == types
        assert set(alcove_wall_types(me)) == types
        assert descent_types(me) == types


def test_edge_counts(small_system):
    rs = small_system
    batch = enumerate_upper_ideals(rs)
    edges = typed_edges(batch)
    assert len(edges) == expected_edge_count(rs)
    counts = type_counts(batch)
    assert sum(counts) == len(edges)
    for e in edges:
        assert len(e.lower) == len(e.upper) - 1
        assert e.lower.mask & ~e.upper.mask == 0
        assert 0 <= e.type_index <= rs.rank


@pytest.mark.parametrize("name", [str(sid) for sid in admissible_systems(4)] + ["E6"])
def test_lattice_elements_match_the_full_peel(name):
    rs = root_system(name)
    batch = enumerate_upper_ideals(rs)
    types = generator_types(batch)
    built = list(lattice_images(batch))
    assert [ideal for ideal, _ in built] == list(batch)
    for ideal, images in built:
        me = minimal_element(ideal)
        # w^{-1}(alpha_0), ..., w^{-1}(alpha_n) determine w^{-1}, and so w
        assert images == me.element.inverse().simple_images()
        assert types[ideal.mask] == generator_edge_types(me)


# sha256 of repr(sorted(generator_types(batch).items())) over each system's
# full ideal lattice: the whole typing table, not only its counts
TYPE_TABLE_SHA256 = {
    "A1": "2e19b3414406c4e5c0ba7010d8fca3d76a57210b6b44753a7cac11d464ca6d09",
    "A2": "99725575d201df229d2663f886ea1d88ed96baaf4ee400b36f4cb049403b4482",
    "A3": "9f6eeca9d934d8cd0c7a328985fd1d095b4e9dd9dff5eea6156ca1424edb3c55",
    "A4": "57d2ea3e2faad3c6d0508e02224e87072935f0b3540af3d14ff9f34034a1b9d5",
    "A5": "9d8d82ecb7211b9f1c8089a0e246b2266328755f1dfce950ed7d7e6c8c39cbfe",
    "A6": "e702cca9c937593b9bc2f6bff7cacbd61f5d42bc9e9cd4f4d4a5d18e2502f96d",
    "B2": "0a53d9cc72f654575cff8c533317dc1a5cbcb0acb7f2b57d7caaf91cc8bbf190",
    "B3": "0bcd1d66b439fa871a329339e6b65196588f6b5605b51ae947536e231b8d1ea3",
    "B4": "a57d59e3f97020341b9f979b2d1bd826e1f1993d4608f8bf0259c0cc2e616a4d",
    "B5": "71fb2abb3af8a4a915b19ccc9c99e583308efe94db6494babe3fcce2053aef09",
    "B6": "34dc737c753e45b17e4b7ac214b96489f07424d4dd1d1e63dad01b32983e74a3",
    "C2": "9a3aa9da546c30eb36a61f49e3aee787b0e3128accb56b0db6da46b1adca3390",
    "C3": "6ae608a45ee66a7556431695291c607570d1e35660270b38f7c7be602746bbc9",
    "C4": "daf04fa7979330d743f3fc6f6977b3b588cb10af462cce4d1f2015bdb146a5bc",
    "C5": "e1631f5e1bc86f09a8369b8956526dc7e2b690be979aaf7f8b03c4affa5626d1",
    "C6": "247afa5318f10640649b6df15f6cf51505d0452fc0914fad886f13e8dc5b4deb",
    "D3": "579415f9337b236bc6babf82486296313b2453768aff4b2ced81065af4f8f3ce",
    "D4": "800f9fcd12c4c31aa8f4338e6915bef0e65847647c0f158e72d007f6df8272ca",
    "D5": "83f8bcb266bc3b04c99148104acd4b9e8a82e0a554b4f978243d68dc6b5dfd2f",
    "D6": "588b1cc462d6d9c535b931cc86f3ab4c711db49c4a78cfed9dbf4b0c48a09124",
    "E6": "c9c69cf833cde5db1cf94d415dc6278973e4191d4ac1162ed4e71a1945854319",
    "F4": "8f303ac4b99fd775525682220b3dd7ae83bb106d5017824e85be93d91d68aaac",
    "G2": "8d9c2031c95f0ccebe32ac00c8365be9a189671626dd969c54bcd20a6d4b41ee",
}


@pytest.mark.parametrize("name", RANK_6_IDS)
def test_type_table_is_pinned(name):
    table = generator_types(enumerate_upper_ideals(root_system(name)))
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == TYPE_TABLE_SHA256[name]


def test_typing_refuses_an_image_set_without_the_generator(monkeypatch):
    # the identity's images are the affine simple roots: no gamma - delta among them
    rs = root_system("B3")
    identity = _kernels.peel_tables(rs).simples
    monkeypatch.setattr(ideals, "lattice_images", lambda batch: ((i, identity) for i in batch))
    generator_types.cache_clear()
    try:
        with pytest.raises(RootSystemError, match="no w\\^-1 image of an affine simple root"):
            generator_types(enumerate_upper_ideals(rs))
    finally:
        generator_types.cache_clear()


@pytest.mark.parametrize("first, second", [("A2", "B2"), ("A3", "C3")])
def test_lattice_refuses_a_batch_that_mixes_systems(first, second):
    # the walk reads one system's tables per batch; a mixed batch is refused
    # before any peel, naming both systems
    batch = tuple(
        ideal
        for name in (first, second)
        for ideal in enumerate_abelian_ideals(root_system(name))
    )
    message = f"mixes ideals of {first} and {second}"
    with pytest.raises(RootSystemError, match=message):
        generator_types(batch)
    with pytest.raises(RootSystemError, match=message):
        list(lattice_images(batch))


def test_lattice_refuses_a_batch_without_a_parent():
    rs = root_system("B3")
    batch = enumerate_upper_ideals(rs)
    with pytest.raises(RootSystemError, match="lacks the parent"):
        generator_types((full_ideal(rs),))
    with pytest.raises(RootSystemError, match="lacks the parent"):
        generator_types(batch[1:])  # no empty ideal
    assert generator_types(batch[:1]) == {0: {}}


def test_each_lattice_is_walked_once(monkeypatch):
    # the counts and the edges read one cached typing: one peel per nonempty ideal
    rs = root_system("D4")
    batch = enumerate_upper_ideals(rs)
    peeled = []
    original = _kernels.peel

    def counted(rows, tables, start=None):
        peeled.append(len(rows))
        return original(rows, tables, start)

    monkeypatch.setattr("rootposets._kernels.peel", counted)
    generator_types.cache_clear()
    try:
        counts = type_counts(batch)
        edges = typed_edges(batch)
    finally:
        generator_types.cache_clear()
    assert len(peeled) == len(batch) - 1 == 49
    assert sum(counts) == len(edges) == expected_edge_count(rs)


def test_e7_edge_type_counts():
    # one lattice walk over all 4160 ideals; the edges number (7/2) * 4160
    counts = type_counts(enumerate_upper_ideals(root_system("E7")))
    assert counts == [1011, 902, 1729, 2288, 2804, 2368, 1729, 1729]
    assert sum(counts) == 14560 == 7 * 4160 // 2


def test_golden_sl4_statistics():
    rs = root_system("A3")
    ideals = enumerate_upper_ideals(rs)
    assert len(ideals) == 14
    assert expected_edge_count(rs) == 21
    assert sorted(type_counts(ideals)) == [4, 5, 6, 6]
    me = minimal_element(full_ideal(rs))
    assert len(me.word) == 10
    assert me.element == AffineWeylElement.from_word(rs, (0, 1, 3, 0, 3, 1, 2, 1, 3, 0))


def inclusion_poset(batch):
    """The reference order on a batch of ideals: inclusion of root sets, by mask."""
    return FinitePoset(batch, lambda a, b: a.mask & ~b.mask == 0)


def test_narayana_matches_poset_covering(small_system):
    rs = small_system
    poly = narayana_polynomial(rs)
    assert poly == inclusion_poset(enumerate_upper_ideals(rs)).covering_polynomial()
    assert poly.degree == rs.rank
    assert poly.is_palindromic()
    assert poly(1) == expected_ideal_count(rs)
    assert sum(k * c for k, c in enumerate(poly.coeffs)) == expected_edge_count(rs)


def test_ideal_poset_has_unique_minimum(small_system):
    poset = inclusion_poset(enumerate_upper_ideals(small_system))
    empty = ideal_from_mask(small_system, 0)
    assert all(poset.leq(empty, x) for x in poset.elements)


def test_sample_ideals_deterministic():
    rs = root_system("D4")
    a = sample_ideals(rs, 20)
    b = sample_ideals(rs, 20)
    assert a == b
    masks = {ideal.mask for ideal in a}
    assert 0 in masks
    assert full_ideal(rs).mask in masks
    assert all(principal_ideal(rs, g).mask in masks for g in rs.positive_roots)
    # asking for more than exist returns everything
    small = root_system("A2")
    assert len(sample_ideals(small, 100)) == 5
