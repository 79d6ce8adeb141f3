"""Witnesses: a broken derivation must turn its named verify line into a FAIL.

Each test patches one derivation, runs `verify --suite all --max-rank 4` in
process and requires the named line to FAIL.  The package's caches are
cleared before and after, so that no result computed with the patch in place
outlives the test and none computed without it hides the patch.
"""

import pytest

from rootposets import _kernels, abelian, affine, ideals, rootposet, weights
from rootposets.cli import main
from rootposets.rootsystem import RootSystem, RootSystemError


def clear_caches():
    for module in (_kernels, abelian, affine, ideals, rootposet, weights):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def verify_lines(capsys):
    code = main(["verify", "--suite", "all", "--max-rank", "4"])
    return code, capsys.readouterr().out.splitlines()


def failed(lines, name):
    """The FAIL lines whose check name is exactly `name` (details aside)."""
    return [line for line in lines if line == f"FAIL  {name}" or line.startswith(f"FAIL  {name}  [")]


def test_a_raising_suite_is_one_fail_line_and_the_others_still_run(monkeypatch, capsys, fresh_caches):
    def refuse(rs):
        raise RootSystemError("components of equal length classes must share h")

    monkeypatch.setattr(rootposet, "expected_short_subdiagram_counts", refuse)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert lines.count(
        "FAIL  delta: suite aborted by RootSystemError  [components of equal length classes must share h]"
    ) == 1
    assert not any(line.startswith(("PASS  delta:", "FAIL  delta: A")) for line in lines)
    for suite in ("weights", "ad", "abelian", "covering"):
        assert any(line.startswith(f"PASS  {suite}: ") for line in lines), suite
    assert lines[-1].endswith(" passed, 1 failed")


def test_all_long_roots_fail_the_long_type_count(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(RootSystem, "is_long", lambda self, root: True)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed(lines, "weights: B3 adjoint: every long type has 2h*-2 edges (h* = 5)")


def test_non_orthogonal_classes_fail_the_cogenerator_check(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(RootSystem, "extended_form", lambda self, i, j: 1)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed(lines, "abelian: B3: co-generators of one Abelian ideal have orthogonal classes")


def failed_with_prefix(lines, prefix):
    """The FAIL lines whose check name starts with `prefix`."""
    return [line for line in lines if line.startswith(f"FAIL  {prefix}")]


def test_a_wrong_sl2_oracle_fails_the_oracle_line(monkeypatch, capsys, fresh_caches):
    sl2_edge_count = weights.sl2_edge_count
    monkeypatch.setattr(weights, "sl2_edge_count", lambda ws, i: sl2_edge_count(ws, i) + 1)
    code, lines = verify_lines(capsys)
    assert code == 1
    oracle = [
        line
        for line in failed_with_prefix(lines, "weights: B3 adjoint: per-type edge counts ")
        if "match the sl2 oracle" in line
    ]
    assert oracle


def test_rotated_edge_counts_fail_the_spin_line(monkeypatch, capsys, fresh_caches):
    edge_type_counts = weights.edge_type_counts

    def rotated(ws):
        counts = edge_type_counts(ws)
        return counts[1:] + counts[:1]

    monkeypatch.setattr(weights, "edge_type_counts", rotated)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed(lines, "weights: B3 spin: counts 2^(n-2) per chain type, 2^(n-1) for the short type")


def test_undeleted_counts_fail_the_zero_deletion_line(monkeypatch, capsys, fresh_caches):
    monkeypatch.setattr(weights, "zero_deleted_type_counts", weights.edge_type_counts)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed(lines, "weights: B3 adjoint: deleting the zero weight drops 2 edges per type")


def test_a_wrong_zero_weight_multiplicity_aborts_the_weights_suite(monkeypatch, capsys, fresh_caches):
    freudenthal = weights._freudenthal

    def off_by_one_at_zero(rs, highest, *rest):
        mult = freudenthal(rs, highest, *rest)
        zero = (0,) * rs.rank
        if zero in mult:
            mult[zero] += 1
        return mult

    monkeypatch.setattr(weights, "_freudenthal", off_by_one_at_zero)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert lines.count(
        "FAIL  weights: suite aborted by RootSystemError  [multiplicities disagree with Weyl dimension]"
    ) == 1
    assert not any(line.startswith("PASS  weights:") for line in lines)


def test_a_missing_edge_fails_the_e6_minuscule_line(monkeypatch, capsys, fresh_caches):
    weight_diagram_edges = weights.weight_diagram_edges
    monkeypatch.setattr(weights, "weight_diagram_edges", lambda ws: weight_diagram_edges(ws)[1:])
    code = main(["verify", "--suite", "weights", "--max-rank", "6"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert failed_with_prefix(lines, "weights: E6 minuscule 27: 36 edges, 6 per type (")


def test_rotated_lattice_types_fail_the_abelian_typing_lines(monkeypatch, capsys, fresh_caches):
    generator_types = ideals.generator_types

    def rotated(batch):
        size = batch[0].rs.rank + 1
        return {
            mask: {gamma: (t + 1) % size for gamma, t in types.items()}
            for mask, types in generator_types(batch).items()
        }

    # abelian imports the typing by name; ideals reads its own global
    monkeypatch.setattr(ideals, "generator_types", rotated)
    monkeypatch.setattr(abelian, "generator_types", rotated)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed_with_prefix(lines, "abelian: C3: per-type edge counts ")
    # G2 has no stored class table; F4 is the exceptional system that has one at rank 4
    assert failed(lines, "abelian: F4: classes of all commutative roots match the stored table")


def test_vertices_of_twice_the_alcove_fail_the_four_route_line(monkeypatch, capsys, fresh_caches):
    vertices = affine.fundamental_alcove_vertices

    def doubled(rs):
        return tuple(tuple(2 * c for c in v) for v in vertices(rs))

    # the wall route reads the vertices through the name ideals imports; its return is untouched
    monkeypatch.setattr(ideals, "fundamental_alcove_vertices", doubled)
    code, lines = verify_lines(capsys)
    assert code == 1
    assert failed(
        lines, "ad: A3: edge types agree along all four routes (definition, facet, walls, descents) for every ideal"
    )
