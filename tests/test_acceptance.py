"""Acceptance gate: one test per required behavior, each read from the single verify report.

``verify --suite all --max-rank 8`` runs once per module, and each ``test_cNN`` expects its report lines to
be present and PASS (``…`` stands for observed or elided text).  Per-suite line counts, the summary line and
the sha256 of the whole report are pinned, so no check can silently disappear and no byte can silently
change.  Only the timing bounds call the library in-process.
"""

import hashlib
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

from rootposets import ideals, root_system, rootposet, verify

SYSTEMS = "A1 A2 A3 A4 A5 A6 A7 A8 B2 B3 B4 B5 B6 B7 B8 C2 C3 C4 C5 C6 C7 C8 D3 D4 D5 D6 D7 D8 E6 E7 E8 F4 G2"
SUITE_LINES = {"delta": 66, "weights": 131, "ad": 141, "abelian": 334, "covering": 149}
# sha256 of the whole report; a change that alters the report by design updates this pin and says why.
REPORT_SHA256 = "fdc563feb6d0a1bf49b0b17bdc11c7c3eef5c5a9e3d252a0c924abeafc3b1e2e"


def each(*templates: str, families: str = "ABCDEFG", ranks=range(1, 9)) -> list[str]:
    """Each template once per admissible system of these families and ranks."""
    ids = [sid for sid in SYSTEMS.split() if sid[0] in families and int(sid[1:]) in ranks]
    return [template.format(sid) for template in templates for sid in ids]


def run_verify(max_rank: int, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "rootposets.cli", "verify", "--suite", "all", "--max-rank", str(max_rank)]
    start = time.perf_counter()
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)
    return run, time.perf_counter() - start


@pytest.fixture(scope="module")
def full_run() -> tuple[subprocess.CompletedProcess, float]:
    return run_verify(8, timeout=660)


def gate(*lines: str, timed=()):
    """A test that runs each timed (seconds, work) pair within its bound, then expects each line to match
    exactly one report line, and that line to PASS."""
    def test(full_run):
        for seconds, work in timed:
            start = time.perf_counter()
            work()
            assert time.perf_counter() - start < seconds
        problems = []
        for text in lines:
            pattern = re.compile("(PASS|FAIL)  " + ".+".join(map(re.escape, text.split("…"))) + r"(  \[.*\])?")
            found = list(filter(pattern.fullmatch, full_run[0].stdout.splitlines()))
            if len(found) != 1 or not found[0].startswith("PASS"):
                problems.append(f"{text!r} matches {found}")
        assert not problems, "\n".join(problems)
    return test


test_c01_root_poset_edge_counts_match_closed_forms = gate(
    *each("delta: {}: root poset edge counts per type = …"), "delta: F4: 34 edges in total (34)",
    timed=[(1.0, lambda: [rootposet.edge_type_counts(root_system(sid)) for sid in SYSTEMS.split()])])
test_c02_short_root_subdiagram_counts = gate(
    *each("delta: {}: short-root subdiagram counts = …", families="BCFG"))
test_c03_weight_diagram_edge_counts_and_sl2_oracle = gate(
    *each("weights: {} adjoint: … match the sl2 oracle", "weights: {} adjoint: every long type …"),
    *each("weights: {} short module: … match the sl2 oracle", families="BCFG"),
    *each("weights: {} spin: … match the sl2 oracle", "weights: {} spin: counts 2^(n-2) …", families="B"),
    "weights: E6 minuscule: … match the sl2 oracle", "weights: E6 minuscule 27: 36 edges, 6 per type …",
    timed=[(30.0, lambda: verify.suite_weights(8))])
test_c04_ideal_counts_product_formula_and_edge_totals = gate(
    *each("ad: {}: … ideals match the product formula and the closed form", "ad: {}: … cover edges …"),
    "ad: E8: 25080 ideals …", "ad: E8: 100320 cover edges …",
    timed=[(60.0, lambda sid=sid: ideals.enumerate_upper_ideals.__wrapped__(root_system(sid)))  # uncached
           for sid in SYSTEMS.split()])
test_c05_minimal_elements_satisfy_all_conditions = gate(
    *each("ad: {}: minimal elements of all … ideals satisfy …", ranks=range(7)),
    "ad: E7: minimal elements of 500 sampled ideals …", "ad: E8: minimal elements of 500 sampled ideals …")
test_c06_edge_types_agree_along_all_four_routes = gate(
    *each("ad: {}: edge types agree along all four routes … for every ideal", ranks=range(5)),
    "ad: E6: edge types agree … for all 833 ideals")
test_c07_sl4_golden_case = gate(
    "ad: sl4: 14 ideals, 21 edges, per-type multiset {4,5,6,6} (observed [5, 6, 4, 6])",
    "ad: sl4: the minimal element of the full ideal acts as the ten-letter reference word")
test_c08_abelian_counts_and_typed_edges = gate(*each(
    "abelian: {}: 2^n ideals (…)", "abelian: {}: (n+1)2^(n-2) edges (…)",
    "abelian: {}: per-type edge counts … (uniform 2^(n-2) away from the C-family exception)"))
test_c09_commutative_roots_and_geometric_criterion = gate(
    *each("abelian: {}: … commutative roots match the closed form"),
    *each("abelian: {}: every positive root is commutative", families="A"), "abelian: D3: every positive …",
    *each("abelian: {}: floor(theta/2) is the unique maximal non-commutative root", families="BCEFG"),
    *each("abelian: {}: floor(theta/2) is the unique maximal …", families="D", ranks=range(4, 9)),
    *(f"abelian: E{n}: {count} commutative roots …" for n, count in ((6, 25), (7, 34), (8, 44))),
    *each("abelian: {}: the hyperplane criterion matches Abelianness …", ranks=range(7)))
test_c10_classes_independence_fixtures_and_neighbour_laws = gate(
    *each("abelian: {}: the class of a commutative root is the same in every Abelian ideal …",
          "abelian: {}: adjacent commutative roots have adjacent classes",
          "abelian: {}: maximal commutative roots orthogonal to theta have class 0",
          "abelian: {}: co-generators of one Abelian ideal have orthogonal classes", ranks=range(7)),
    *each("abelian: {}: classes of all commutative roots match the stored table", families="EF"))
test_c11_rotation_is_a_typed_graph_automorphism = gate(*each(
    "abelian: {}: the rotation is a bijection of order n+1 shifting edge types by 2 mod (n+1)",
    families="A", ranks=range(8)))
test_c12_long_abelian_ideal_counts = gate(
    *(f"abelian: B{n}: {2 ** (n - 1)} long Abelian ideals … ({[2 ** (n - 3)] * n + [0]})" for n in range(3, 9)),
    "abelian: C3: 2 ideals consist of long roots only", "abelian: G2: 3 ideals …", "abelian: F4: 4 ideals …")
test_c13_covering_polynomial_tables = gate(
    *each("covering: {}: covering polynomial of the root poset = …",
          "covering: {}: covering polynomial of the Abelian-ideal poset = …",
          "covering: {}: its q-coefficient counts the commutative roots (…)",
          "covering: {}: its degree is at most the largest set of pairwise non-adjacent …"),
    *(f"covering: D{n}: Abelian covering degree = floor(n/2)+1 ({n // 2 + 1})" for n in range(3, 9)),
    "covering: E7: Abelian covering degree = 4 (4)", "covering: E8: Abelian covering degree = 4 (4)",
    "covering: E8: covering polynomial of the Abelian-ideal poset = 1 + 44q + 118q^2 + 76q^3 + 17q^4",
    *(f"covering: Boolean lattice on {n} atoms: covering polynomial = (1+q)^{n}" for n in range(1, 9)))
test_c14_binomial_convolution_identity = gate("covering: binomial convolution identity … <= 20 with a >= b+c")


def test_c15_verification_cli_performance_envelope(full_run):
    run, elapsed = full_run
    assert run.returncode == 0 and run.stdout.splitlines()[-1] == "821 passed, 0 failed", run.stderr[-2000:]
    assert elapsed <= 600.0 and Counter(re.findall(r"^(?:PASS|FAIL)  (\w+):", run.stdout, re.M)) == SUITE_LINES
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == REPORT_SHA256
    quick, elapsed = run_verify(4, timeout=60)
    assert quick.returncode == 0 and quick.stdout.splitlines()[-1].endswith(", 0 failed"), quick.stderr[-2000:]
    assert elapsed <= 30.0
