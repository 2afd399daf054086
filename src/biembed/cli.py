"""Command-line entry point.

Exit codes: 0 when every report stage passes (or the requested output was
produced), 1 when verification fails or a search comes up empty, 2 for
usage, IO, and parse errors.  Reports go to stdout (or --out); diagnostics
go to stderr.  All commands are deterministic: identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import family, selfcomp
from .currents import derive_embedding, parse_current_graph_file
from .embeddings import parse_rotation_file, serialize_rotation
from .graphs import parse_graph_file
from .verify import (
    bichromatic_upper_bound,
    bigenus_lower_bound,
    render_report,
)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _auto_form(n: int) -> str:
    # the full cycle exists only for even n; odd orders park a fixed point
    return selfcomp.FULL_CYCLE if n % 2 == 0 else selfcomp.CYCLE_PLUS_FIXED_POINT


def cmd_verify_table(path: str, form: str | None, out: str | None) -> int:
    rs = parse_rotation_file(Path(path).read_text())
    kind = form or _auto_form(rs.graph.n)
    report = selfcomp.verify_table(rs, selfcomp.AntimorphismForm(kind, rs.graph.n))
    _emit(render_report(report), out)
    return 0 if report.passed else 1


def cmd_family(mode: str, s: int, budget: int, out: str | None) -> int:
    p = family.FamilyParameter(s)
    if mode == "verify":
        report = family.verify_pair(family.build_pair(p), p)
    else:
        x1, x2 = family.current_sets(p)
        pair = family.search_pair(x1, x2, budget)
        if pair is None:
            print(f"no pair found within budget {budget}", file=sys.stderr)
            return 1
        report = family.verify_pair(pair, p)
    _emit(render_report(report), out)
    return 0 if report.passed else 1


def cmd_bounds(n: int | None, g: int | None, out: str | None) -> int:
    lines = []
    if n is not None:
        lines.append(f"n: {n}")
        lines.append(f"bigenus lower bound: {bigenus_lower_bound(n)}")
        residue = "yes" if n % 24 in (0, 13, 16, 21) else "no"
        lines.append(f"residue class 0/13/16/21 mod 24: {residue}")
    if g is not None:
        lines.append(f"g: {g}")
        lines.append(f"bichromatic upper bound: {bichromatic_upper_bound(g)}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_selfcomp_search(path: str, budget: int, out: str | None) -> int:
    g = parse_graph_file(Path(path).read_text())
    rs = selfcomp.search_triangular(g, budget)
    if rs is None:
        print(f"no triangular embedding found within budget {budget}", file=sys.stderr)
        return 1
    _emit(serialize_rotation(rs), out)
    return 0


def cmd_derive(path: str, out: str | None) -> int:
    rs = derive_embedding(parse_current_graph_file(Path(path).read_text()))
    _emit(serialize_rotation(rs), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biembed",
        description="verify and search triangular biembeddings of complete graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forms = [selfcomp.FULL_CYCLE, selfcomp.CYCLE_PLUS_FIXED_POINT]

    vt = sub.add_parser("verify-table", help="verify a self-complementary rotation table")
    vt.add_argument("--rotation", required=True, help="rotation file path")
    vt.add_argument("--form", choices=forms, default=None,
                    help="antimorphism shape (default: by parity of n)")
    vt.add_argument("--out", default=None)

    fam = sub.add_parser("family", help="the K_{24s+13} current-graph family")
    fam_sub = fam.add_subparsers(dest="mode", required=True)
    for mode in ("verify", "search"):
        fp = fam_sub.add_parser(mode)
        fp.add_argument("--s", type=int, required=True)
        fp.add_argument("--budget", type=int, default=10_000_000)
        fp.add_argument("--out", default=None)

    b = sub.add_parser("bounds", help="bigenus and bichromatic bound formulas")
    b.add_argument("--n", type=int, default=None, help="order of the complete graph")
    b.add_argument("--g", type=int, default=None, help="genus of the surface")
    b.add_argument("--out", default=None)

    sc = sub.add_parser("selfcomp", help="self-complementary graph tools")
    sc_sub = sc.add_subparsers(dest="mode", required=True)
    scv = sc_sub.add_parser("verify")
    scv.add_argument("--table", required=True, help="rotation file path")
    scv.add_argument("--form", choices=forms, default=None)
    scv.add_argument("--out", default=None)
    scs = sc_sub.add_parser("search")
    scs.add_argument("--graph", required=True, help="graph file path")
    scs.add_argument("--budget", type=int, default=200_000)
    scs.add_argument("--out", default=None)

    d = sub.add_parser("derive", help="derived embedding of a current graph")
    d.add_argument("--current-graph", required=True, dest="current_graph")
    d.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify-table":
            return cmd_verify_table(args.rotation, args.form, args.out)
        if args.command == "family":
            if args.s < 1:
                print("error: --s must be at least 1", file=sys.stderr)
                return 2
            if args.budget < 1:
                print("error: --budget must be positive", file=sys.stderr)
                return 2
            return cmd_family(args.mode, args.s, args.budget, args.out)
        if args.command == "bounds":
            if args.n is None and args.g is None:
                print("error: pass --n and/or --g", file=sys.stderr)
                return 2
            return cmd_bounds(args.n, args.g, args.out)
        if args.command == "selfcomp":
            if args.mode == "verify":
                return cmd_verify_table(args.table, args.form, args.out)
            return cmd_selfcomp_search(args.graph, args.budget, args.out)
        if args.command == "derive":
            return cmd_derive(args.current_graph, args.out)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def run() -> None:
    sys.exit(main())
