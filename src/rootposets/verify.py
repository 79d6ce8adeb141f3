"""Runtime verification harness.

Each suite re-derives a family of structural facts from scratch and compares
them against independent closed forms or stored tables, producing one
PASS/FAIL line per fact.  Output is deterministic for fixed flags: sampling
is seeded and no timings or environment data leak into the report.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import abelian, ideals, rootposet, weights
from .affine import AffineWeylElement
from .rootsystem import RootSystem, admissible_systems, root_system

SUITES = ("delta", "weights", "ad", "abelian", "covering")

EXHAUSTIVE_MINIMAL_RANK = 6
EXHAUSTIVE_EDGE_RANK = 4
SAMPLE_SIZE = 500


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.suite}: {self.name}{tail}"


class _Recorder:
    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.results: list[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(
            CheckResult(self.suite, name, bool(passed), "" if passed else detail)
        )

    def run(self, name: str, fn: Callable[[], object]) -> None:
        """Record a check that passes iff `fn` returns without raising."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - harness must report, not abort
            self.results.append(CheckResult(self.suite, name, False, str(exc)))
        else:
            self.results.append(CheckResult(self.suite, name, True))


def _systems(max_rank: int) -> list[RootSystem]:
    return [root_system(sid) for sid in admissible_systems(max_rank)]


# -- delta: Hasse diagram of the root poset -------------------------------------------


def suite_delta(max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    rec = _Recorder("delta")
    for rs in _systems(max_rank):
        got = rootposet.edge_type_counts(rs)
        want = rootposet.expected_edge_type_counts(rs)
        rec.check(
            f"{rs.id}: root poset edge counts per type = {got}",
            got == want,
            f"expected {want}",
        )
        if str(rs.id) == "F4":
            rec.check(f"F4: 34 edges in total ({sum(got)})", sum(got) == 34)
    for rs in _systems(max_rank):
        if rs.family not in ("B", "C", "F", "G"):
            continue
        got = rootposet.short_subdiagram_type_counts(rs)
        want = rootposet.expected_short_subdiagram_counts(rs)
        rec.check(
            f"{rs.id}: short-root subdiagram counts = {got}",
            got == want,
            f"expected {want}",
        )
        same = rootposet.short_subdiagram_equals_induced(rs)
        rec.check(
            f"{rs.id}: deletion construction vs induced subposet: "
            f"{'equal' if same else 'different'} (reported, not assumed)",
            True,
        )
    return rec.results


# -- weights: weight diagrams and the sl2 oracle ---------------------------------------


def _weights_corpus(max_rank: int) -> list[tuple[RootSystem, tuple[int, ...], str]]:
    corpus = []
    for rs in _systems(max_rank):
        corpus.append((rs, weights.adjoint_weight(rs), "adjoint"))
        if rs.theta_short != rs.theta:
            corpus.append((rs, weights.short_dominant_weight(rs), "short module"))
        if rs.family == "B":
            corpus.append((rs, weights.spin_weight(rs), "spin"))
    if max_rank >= 6:
        corpus.append((root_system("E6"), weights.fundamental_weight(root_system("E6"), 0), "minuscule"))
    return corpus


def suite_weights(max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    rec = _Recorder("weights")
    for rs, highest, label in _weights_corpus(max_rank):
        ws = weights.weight_system(rs, highest)
        counts = weights.edge_type_counts(ws)
        oracle = [weights.sl2_edge_count(ws, i) for i in range(rs.rank)]
        rec.check(
            f"{rs.id} {label}: per-type edge counts {counts} match the sl2 oracle",
            counts == oracle,
            f"oracle {oracle}",
        )
        if label == "spin":
            n = rs.rank
            want = [2 ** (n - 2)] * (n - 1) + [2 ** (n - 1)]
            rec.check(
                f"{rs.id} spin: counts 2^(n-2) per chain type, 2^(n-1) for the short type",
                counts == want,
                f"expected {want}",
            )
        if label == "adjoint":
            long_ok = all(
                counts[i] == 2 * rs.dual_h - 2
                for i in range(rs.rank)
                if rs.is_long(rs.simple_roots[i])
            )
            rec.check(
                f"{rs.id} adjoint: every long type has 2h*-2 edges "
                f"(h* = {rs.dual_h})",
                long_ok,
                f"counts {counts}",
            )
            deleted = weights.zero_deleted_type_counts(ws)
            rec.check(
                f"{rs.id} adjoint: deleting the zero weight drops 2 edges per type",
                deleted == [c - 2 for c in counts],
                f"got {deleted} from {counts}",
            )
        if label == "minuscule":
            rec.check(
                f"E6 minuscule 27: 36 edges, 6 per type ({counts})",
                sum(counts) == 36 and counts == [6] * 6,
            )
    return rec.results


# -- ad: ad-nilpotent ideals and their minimal elements --------------------------------


def suite_ad(max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    rec = _Recorder("ad")
    for rs in _systems(max_rank):
        all_ideals = ideals.enumerate_upper_ideals(rs)
        rec.check(
            f"{rs.id}: {len(all_ideals)} ideals match the product formula "
            f"and the closed form",
            len(all_ideals) == ideals.expected_ideal_count(rs)
            and len(all_ideals) == ideals.ideal_count_closed_form(rs),
            f"expected {ideals.expected_ideal_count(rs)}",
        )
        n_edges = sum(len(ideal.generators) for ideal in all_ideals)
        rec.check(
            f"{rs.id}: {n_edges} cover edges = (n/2) * #ideals",
            n_edges == ideals.expected_edge_count(rs),
            f"expected {ideals.expected_edge_count(rs)}",
        )
        nara = ideals.narayana_polynomial(rs)
        rec.check(
            f"{rs.id}: generating polynomial of generator counts is palindromic "
            f"of degree {rs.rank}",
            nara.degree == rs.rank and nara.is_palindromic(),
            f"coeffs {nara.coeffs}",
        )

    # By system and mask; kept only where the four-route lines below read
    # them again (rank <= EXHAUSTIVE_EDGE_RANK and E6).
    elements: dict[RootSystem, dict[int, ideals.MinimalElement]] = {}
    for rs in _systems(min(max_rank, EXHAUSTIVE_MINIMAL_RANK)):
        known = {}
        if rs.rank <= EXHAUSTIVE_EDGE_RANK or (rs.family, rs.rank) == ("E", 6):
            elements[rs] = known
        rec.run(
            f"{rs.id}: minimal elements of all {len(ideals.enumerate_upper_ideals(rs))} "
            f"ideals satisfy containment, dominance, minimality and the length formula",
            lambda rs=rs, known=known: [
                ideals.check_minimal_element(
                    known.setdefault(ideal.mask, ideals.minimal_element(ideal))
                )
                for ideal in ideals.enumerate_upper_ideals(rs)
            ],
        )
    for sid in ("E7", "E8"):
        rs = root_system(sid)
        if rs.rank > max_rank:
            continue
        batch = (
            ideals.enumerate_upper_ideals(rs)
            if exhaustive
            else ideals.sample_ideals(rs, SAMPLE_SIZE)
        )
        rec.run(
            f"{sid}: minimal elements of {len(batch)} "
            f"{'(all)' if exhaustive else 'sampled'} ideals satisfy all conditions",
            lambda rs=rs, batch=batch: [
                ideals.check_minimal_element(ideals.minimal_element(ideal))
                for ideal in batch
            ],
        )

    for rs in _systems(min(max_rank, EXHAUSTIVE_EDGE_RANK)):
        rec.run(
            f"{rs.id}: edge types agree along all four routes "
            f"(definition, facet, walls, descents) for every ideal",
            lambda rs=rs: _assert_edge_type_agreement(
                rs, ideals.enumerate_upper_ideals(rs), elements[rs]
            ),
        )
    if max_rank >= 6:
        rs = root_system("E6")
        batch = ideals.enumerate_upper_ideals(rs)
        rec.run(
            f"E6: edge types agree along all four routes for all {len(batch)} ideals",
            lambda: _assert_edge_type_agreement(rs, batch, elements[rs]),
        )

    if max_rank >= 3:
        rs = root_system("A3")
        all_ideals = ideals.enumerate_upper_ideals(rs)
        counts = ideals.type_counts(all_ideals)
        rec.check(
            f"sl4: 14 ideals, 21 edges, per-type multiset {{4,5,6,6}} "
            f"(observed {counts})",
            len(all_ideals) == 14
            and sum(counts) == 21
            and sorted(counts) == [4, 5, 6, 6],
        )
        me = ideals.minimal_element(ideals.full_ideal(rs))
        golden = AffineWeylElement.from_word(rs, (0, 1, 3, 0, 3, 1, 2, 1, 3, 0))
        rec.check(
            "sl4: the minimal element of the full ideal acts as the ten-letter "
            "reference word",
            me.element == golden and len(me.word) == 10,
            f"word {me.word}",
        )
    return rec.results


def _assert_edge_type_agreement(
    rs: RootSystem, batch, known: dict[int, ideals.MinimalElement]
) -> None:
    """`known` holds minimal elements already built, by mask; the rest are built here."""
    for ideal in batch:
        me = known.get(ideal.mask) or ideals.minimal_element(ideal)
        types = sorted(ideals.generator_edge_types(me).values())
        facet = sorted(ideals.facet_types(me))
        walls = sorted(ideals.alcove_wall_types(me))
        descents = sorted(ideals.descent_types(me))
        if not (types == facet == walls == descents):
            raise AssertionError(
                f"{rs.id} {ideal.generators}: {types} / {facet} / {walls} / {descents}"
            )


# -- abelian: Abelian ideals, commutative roots, classes -------------------------------


def suite_abelian(max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    rec = _Recorder("abelian")
    for rs in _systems(max_rank):
        n = rs.rank
        ab = abelian.enumerate_abelian_ideals(rs)
        rec.check(
            f"{rs.id}: 2^n ideals ({len(ab)})",
            len(ab) == 2 ** n,
            f"expected {2 ** n}",
        )
        counts = ideals.type_counts(ab)
        rec.check(
            f"{rs.id}: (n+1)2^(n-2) edges ({sum(counts)})",
            sum(counts) == abelian.expected_ab_edge_count(rs),
            f"expected {abelian.expected_ab_edge_count(rs)}",
        )
        want = abelian.expected_ab_edge_type_counts(rs)
        rec.check(
            f"{rs.id}: per-type edge counts {counts} "
            f"(uniform 2^(n-2) away from the C-family exception)",
            counts == want,
            f"expected {want}",
        )

    for rs in _systems(max_rank):
        comm = abelian.commutative_roots(rs)
        rec.check(
            f"{rs.id}: {len(comm)} commutative roots match the closed form",
            len(comm) == abelian.expected_commutative_count(rs),
            f"expected {abelian.expected_commutative_count(rs)}",
        )
        expected = abelian.expected_classes(rs)
        if expected is not None:
            got = abelian.class_map(rs)
            rec.check(
                f"{rs.id}: classes of all commutative roots match the stored table",
                got == expected,
                f"diff {[g for g in got if expected.get(g) != got[g]]}",
            )
        noncomm = set(rs.positive_roots) - {c.root for c in comm}
        top = abelian.noncommutative_maximal(rs)
        if noncomm:
            rec.check(
                f"{rs.id}: floor(theta/2) is the unique maximal non-commutative root",
                top == rs.half_floor(rs.theta),
                f"got {top}",
            )
        else:
            rec.check(
                f"{rs.id}: every positive root is commutative",
                top is None,
                f"got {top}",
            )

    for rs in _systems(min(max_rank, 6)):
        rec.run(
            f"{rs.id}: the hyperplane criterion matches Abelianness of the "
            f"principal ideal for every positive root",
            lambda rs=rs: _assert_hyperplane_criterion(rs),
        )

    for rs in _systems(min(max_rank, 6)):
        rec.run(
            f"{rs.id}: the class of a commutative root is the same in every "
            f"Abelian ideal having it as a generator",
            lambda rs=rs: abelian.check_class_independence(rs),
        )
        rec.run(
            f"{rs.id}: adjacent commutative roots have adjacent classes",
            lambda rs=rs: abelian.check_adjacent_classes(rs),
        )
        rec.run(
            f"{rs.id}: maximal commutative roots orthogonal to theta have class 0",
            lambda rs=rs: abelian.check_orthogonal_maximal_classes(rs),
        )
        rec.run(
            f"{rs.id}: co-generators of one Abelian ideal have orthogonal classes",
            lambda rs=rs: abelian.check_cogenerator_orthogonality(rs),
        )

    for n in range(1, min(max_rank, 7) + 1):
        rs = root_system(f"A{n}")
        rec.run(
            f"A{n}: the rotation is a bijection of order n+1 shifting edge "
            f"types by 2 mod (n+1)",
            lambda rs=rs, n=n: _assert_rotation_laws(rs, n),
        )

    for rs in _systems(max_rank):
        if rs.family == "B" and rs.rank >= 3:
            la = abelian.long_abelian_ideals(rs)
            counts = abelian.long_abelian_edge_type_counts(rs)
            n = rs.rank
            rec.check(
                f"{rs.id}: {len(la)} long Abelian ideals = 2^(n-1), "
                f"2^(n-3) edges per long type ({counts})",
                len(la) == 2 ** (n - 1)
                and counts[:n] == [2 ** (n - 3)] * n
                and counts[n] == 0,
                f"counts {counts}",
            )
        elif rs.family in ("C", "F", "G"):
            la = abelian.long_abelian_ideals(rs)
            want = abelian.expected_long_abelian_count(rs)
            rec.check(
                f"{rs.id}: {len(la)} ideals consist of long roots only",
                len(la) == want,
                f"expected {want}",
            )
    return rec.results


def _assert_hyperplane_criterion(rs: RootSystem) -> None:
    for gamma in rs.positive_roots:
        want = ideals.principal_ideal(rs, gamma).is_abelian()
        got = abelian.hyperplane_meets_double_alcove(rs, gamma)
        if got != want:
            raise AssertionError(f"{rs.id} {gamma}: criterion {got}, ideal {want}")


def _assert_rotation_laws(rs: RootSystem, n: int) -> None:
    ab = abelian.enumerate_abelian_ideals(rs)
    tau = {ideal: abelian.suter_tau(ideal) for ideal in ab}
    if len(set(tau.values())) != len(ab):
        raise AssertionError("not a bijection")
    cur = dict(tau)
    order = 1
    while any(cur[i] != i for i in ab):
        cur = {i: tau[cur[i]] for i in ab}
        order += 1
        if order > n + 1:
            raise AssertionError("order exceeds n+1")
    if order != n + 1:
        raise AssertionError(f"order {order} != {n + 1}")
    edges = ideals.typed_edges(ab)
    typed = {frozenset((e.upper, e.lower)): e.type_index for e in edges}
    for e in edges:
        image = frozenset((tau[e.upper], tau[e.lower]))
        if typed.get(image) != (e.type_index + 2) % (n + 1):
            raise AssertionError(f"edge {e} maps to type {typed.get(image)}")


# -- covering: the two covering polynomial tables --------------------------------------


def suite_covering(max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    rec = _Recorder("covering")
    for rs in _systems(max_rank):
        got = rootposet.delta_covering_polynomial(rs)
        want = abelian.expected_delta_covering_polynomial(rs)
        rec.check(
            f"{rs.id}: covering polynomial of the root poset = {got}",
            got == want,
            f"expected {want}",
        )
    for rs in _systems(max_rank):
        got = abelian.ab_covering_polynomial(rs)
        want = abelian.expected_ab_covering_polynomial(rs)
        rec.check(
            f"{rs.id}: covering polynomial of the Abelian-ideal poset = {got}",
            got == want,
            f"expected {want}",
        )
        q1 = got.coeffs[1] if len(got.coeffs) > 1 else 0
        commutative = len(abelian.abelian_principal_ideals(rs))
        rec.check(
            f"{rs.id}: its q-coefficient counts the commutative roots ({q1})",
            q1 == commutative,
            f"expected {commutative}",
        )
        rec.check(
            f"{rs.id}: its degree is at most the largest set of pairwise "
            f"non-adjacent simple types",
            got.degree <= abelian.max_orthogonal_simple_count(rs),
            f"degree {got.degree}",
        )
    for rs in _systems(max_rank):
        if rs.family == "D":
            got = abelian.ab_covering_polynomial(rs).degree
            rec.check(
                f"{rs.id}: Abelian covering degree = floor(n/2)+1 ({got})",
                got == rs.rank // 2 + 1,
            )
    for sid in ("E7", "E8"):
        if root_system(sid).rank <= max_rank:
            got = abelian.ab_covering_polynomial(root_system(sid)).degree
            rec.check(f"{sid}: Abelian covering degree = 4 ({got})", got == 4)
    for n in range(1, min(max_rank, 8) + 1):
        got = abelian.boolean_lattice_covering_polynomial(n)
        want = [math.comb(n, k) for k in range(n + 1)]
        rec.check(
            f"Boolean lattice on {n} atoms: covering polynomial = (1+q)^{n}",
            list(got.coeffs) == want,
            f"got {got.coeffs}",
        )
    rec.check(
        "binomial convolution identity holds for all a,b,c <= 20 with a >= b+c",
        _binomial_identity_holds(20),
    )
    return rec.results


def _binomial_identity_holds(bound: int) -> bool:
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1 - b):
                if a < b + c:
                    continue
                lhs = sum(
                    math.comb(x, c) * math.comb(a - x, b) for x in range(c, a - b + 1)
                )
                if lhs != math.comb(a + 1, b + c + 1):
                    return False
    return True


# -- entry points ----------------------------------------------------------------------

_SUITE_FUNCTIONS: dict[str, Callable[[int, bool], list[CheckResult]]] = {
    "delta": suite_delta,
    "weights": suite_weights,
    "ad": suite_ad,
    "abelian": suite_abelian,
    "covering": suite_covering,
}


def _guarded(suite: str, max_rank: int, exhaustive: bool) -> list[CheckResult]:
    """The suite's lines, or one FAIL line naming the error that aborted it."""
    try:
        return _SUITE_FUNCTIONS[suite](max_rank, exhaustive)
    except Exception as exc:  # noqa: BLE001 - one aborted suite must not hide the others
        return [CheckResult(suite, f"suite aborted by {type(exc).__name__}", False, str(exc))]


def run_suite(name: str, max_rank: int = 8, exhaustive: bool = False) -> list[CheckResult]:
    if name != "all" and name not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES + ('all',)}")
    names = SUITES if name == "all" else (name,)
    return [result for suite in names for result in _guarded(suite, max_rank, exhaustive)]


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"
