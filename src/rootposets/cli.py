"""Command-line front end: report tables, export DOT diagrams, run verification.

Exit codes: 0 success, 1 failed verification or unwritable output, 2 bad flags
or unknown system.
All output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import abelian, ideals, rootposet, verify
from .posets import export_dot
from .rootsystem import RootSystem, RootSystemError, root_system

def _coeff_str(root) -> str:
    return "".join(str(c) for c in root)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _dump_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# -- report ----------------------------------------------------------------------------


def _report_roots(rs: RootSystem, fmt: str) -> str:
    rows = [
        (list(r), rs.height(r), rs.is_long(r))
        for r in rs.positive_roots
    ]
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "n_roots": len(rows),
                "roots": [
                    {"coeffs": c, "height": h, "long": lng} for c, h, lng in rows
                ],
            }
        )
    if fmt == "csv":
        return _dump_csv(
            [["coeffs", "height", "long"]]
            + [[" ".join(map(str, c)), h, int(lng)] for c, h, lng in rows]
        )
    lines = [f"{rs.id}: {len(rows)} positive roots"]
    for c, h, lng in rows:
        lines.append(f"  {_coeff_str(c)}  height {h:2d}  {'long' if lng else 'short'}")
    return "\n".join(lines) + "\n"


def _report_hasse(rs: RootSystem, fmt: str) -> str:
    counts = rootposet.edge_type_counts(rs)
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "n_edges": sum(counts),
                "per_type_counts": counts,
            }
        )
    if fmt == "csv":
        return _dump_csv(
            [["type_index", "count"]] + [[i + 1, c] for i, c in enumerate(counts)]
        )
    pieces = ", ".join(f"a{i + 1}: {c}" for i, c in enumerate(counts))
    return f"{rs.id}: {sum(counts)} edges ({pieces})\n"


def _report_ideals(rs: RootSystem, fmt: str) -> str:
    all_ideals = ideals.enumerate_upper_ideals(rs)
    n_edges = sum(len(ideal.generators) for ideal in all_ideals)
    nara = ideals.narayana_polynomial(rs)
    typed = ideals.type_counts(all_ideals)
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "n_ideals": len(all_ideals),
                "n_edges": n_edges,
                "per_type_counts": typed,
                "narayana_coeffs": list(nara.coeffs),
            }
        )
    if fmt == "csv":
        rows = [
            ["key", "value"],
            ["n_ideals", len(all_ideals)],
            ["n_edges", n_edges],
            ["narayana_coeffs", " ".join(map(str, nara.coeffs))],
        ]
        rows += [[f"type_{i}", c] for i, c in enumerate(typed)]
        return _dump_csv(rows)
    lines = [f"{rs.id}: {len(all_ideals)} ideals, {n_edges} edges"]
    lines.append(f"  generator-count polynomial: {nara}")
    lines.append(
        "  per-type edges: " + ", ".join(f"a{i}: {c}" for i, c in enumerate(typed))
    )
    return "\n".join(lines) + "\n"


def _report_abelian(rs: RootSystem, fmt: str) -> str:
    ab = abelian.enumerate_abelian_ideals(rs)
    counts = ideals.type_counts(ab)
    cov = abelian.ab_covering_polynomial(rs)
    comm = abelian.commutative_roots(rs)
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "n_abelian": len(ab),
                "n_edges": sum(counts),
                "per_type_counts": counts,
                "covering_coeffs": list(cov.coeffs),
                "commutative_roots": [
                    {"coeffs": list(c.root), "class": c.class_index} for c in comm
                ],
            }
        )
    if fmt == "csv":
        rows = [
            ["key", "value"],
            ["n_abelian", len(ab)],
            ["n_edges", sum(counts)],
            ["covering_coeffs", " ".join(map(str, cov.coeffs))],
        ]
        rows += [[f"type_{i}", c] for i, c in enumerate(counts)]
        return _dump_csv(rows)
    lines = [f"{rs.id}: {len(ab)} ideals, {sum(counts)} edges"]
    lines.append(
        "  per-type edges: " + ", ".join(f"a{i}: {c}" for i, c in enumerate(counts))
    )
    lines.append(f"  covering polynomial: {cov}")
    lines.append(f"  commutative roots: {len(comm)}")
    return "\n".join(lines) + "\n"


def _report_classes(rs: RootSystem, fmt: str) -> str:
    comm = abelian.commutative_roots(rs)
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "commutative_roots": [
                    {"coeffs": list(c.root), "class": c.class_index} for c in comm
                ],
            }
        )
    if fmt == "csv":
        return _dump_csv(
            [["coeffs", "class"]]
            + [[" ".join(map(str, c.root)), c.class_index] for c in comm]
        )
    lines = [f"{rs.id}: classes of the {len(comm)} commutative roots"]
    for c in comm:
        lines.append(f"  {_coeff_str(c.root)}  ->  a{c.class_index}")
    return "\n".join(lines) + "\n"


def _report_covering(rs: RootSystem, fmt: str) -> str:
    delta = rootposet.delta_covering_polynomial(rs)
    ab = abelian.ab_covering_polynomial(rs)
    if fmt == "json":
        return _dump_json(
            {
                "type": str(rs.id),
                "rank": rs.rank,
                "delta_coeffs": list(delta.coeffs),
                "ab_coeffs": list(ab.coeffs),
            }
        )
    if fmt == "csv":
        rows = [["poset", "coeffs"]]
        rows.append(["delta", " ".join(map(str, delta.coeffs))])
        rows.append(["abelian", " ".join(map(str, ab.coeffs))])
        return _dump_csv(rows)
    return f"{rs.id}: Delta+ {delta}; Abelian {ab}\n"


# `report --what` kind -> renderer(rs, format); the keys are the argparse choices
REPORTS = {
    "roots": _report_roots,
    "hasse": _report_hasse,
    "ideals": _report_ideals,
    "abelian": _report_abelian,
    "classes": _report_classes,
    "covering": _report_covering,
}


def cmd_report(args: argparse.Namespace) -> int:
    rs = root_system(args.type, args.rank)
    return _emit(REPORTS[args.what](rs, args.format), args.out)


# -- export ----------------------------------------------------------------------------


def _export_delta(rs: RootSystem) -> str:
    labels = [_coeff_str(r) for r in rs.positive_roots]
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    edges = [
        (index[e.upper], index[e.lower], str(e.type_index + 1))
        for e in rootposet.typed_hasse_edges(rs)
    ]
    return export_dot(labels, edges, graph_name="delta")


def _ideal_label(ideal) -> str:
    if not ideal.generators:
        return "empty"
    return "+".join(_coeff_str(g) for g in ideal.generators)


def _export_ideals(batch: tuple[ideals.UpperIdeal, ...], graph_name: str) -> str:
    index = {ideal: i for i, ideal in enumerate(batch)}
    labels = [_ideal_label(ideal) for ideal in batch]
    edges = [
        (index[e.upper], index[e.lower], str(e.type_index))
        for e in ideals.typed_edges(batch)
    ]
    return export_dot(labels, edges, graph_name=graph_name)


# `export --what` kind -> renderer(rs); the keys are the argparse choices
EXPORTS = {
    "delta": _export_delta,
    "ad": lambda rs: _export_ideals(ideals.enumerate_upper_ideals(rs), "ad_ideals"),
    "ab": lambda rs: _export_ideals(abelian.enumerate_abelian_ideals(rs), "abelian_ideals"),
}


def cmd_export(args: argparse.Namespace) -> int:
    rs = root_system(args.type, args.rank)
    return _emit(EXPORTS[args.what](rs), args.out)


# -- verify ----------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(
        args.suite, max_rank=args.max_rank, exhaustive=args.exhaustive
    )
    code = _emit(verify.format_report(results), args.out)
    if code != 0:
        return code
    return 0 if all(r.passed for r in results) else 1


# -- plumbing --------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootposets",
        description="Root posets, ideal lattices and their typed Hasse diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", required=True, help="system like B3, F4, or a family letter")
        p.add_argument("--rank", type=int, default=None, help="rank when --type is a family letter")
        p.add_argument("--out", default=None, help="write output to this file")

    rep = sub.add_parser("report", help="print a table for one root system")
    add_system_flags(rep)
    rep.add_argument("--what", required=True, choices=REPORTS)
    rep.add_argument("--format", default="text", choices=("text", "json", "csv"))
    rep.set_defaults(func=cmd_report)

    exp = sub.add_parser("export", help="write a DOT diagram for one root system")
    add_system_flags(exp)
    exp.add_argument("--what", required=True, choices=EXPORTS)
    exp.set_defaults(func=cmd_export)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--suite", default="all", choices=verify.SUITES + ("all",))
    ver.add_argument("--max-rank", type=int, default=8, choices=range(1, 9),
                     metavar="N", help="largest classical rank to include (1-8)")
    ver.add_argument("--exhaustive", action="store_true",
                     help="check every ideal even for the largest systems")
    ver.add_argument("--out", default=None, help="write the report to this file")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RootSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
