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
from .currents import derived_text, parse_current_graph_file
from .embeddings import parse_rotation_file, serialize_rotation
from .graphs import parse_graph_file
from .verify import (
    BiembeddingReport,
    bichromatic_upper_bound,
    bigenus_lower_bound,
    render_report,
)


def _emit(chunks, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as f:
            f.writelines(chunks)


def _emit_report(report: BiembeddingReport, out: str | None) -> int:
    _emit((render_report(report),), out)
    return 0 if report.passed else 1


def cmd_verify_table(args) -> int:
    rs = parse_rotation_file(Path(args.rotation).read_text())
    n = len(rs.rotation)
    form = selfcomp.AntimorphismForm(args.form, n) if args.form else selfcomp.standard_form(n)
    return _emit_report(selfcomp.verify_table(rs, form), args.out)


def cmd_family_verify(args) -> int:
    p = family.FamilyParameter(args.s)
    return _emit_report(family.verify_pair(family.build_pair(p), p), args.out)


def cmd_family_search(args) -> int:
    p = family.FamilyParameter(args.s)
    pair = family.search_pair(*family.current_sets(p), args.budget)
    if pair is None:
        print(f"no pair found within budget {args.budget}", file=sys.stderr)
        return 1
    return _emit_report(family.verify_pair(pair, p), args.out)


def cmd_bounds(args) -> int:
    n, g = args.n, args.g
    if n is None and g is None:
        raise ValueError("pass --n and/or --g")
    lines = []
    if n is not None:
        lines.append(f"n: {n}")
        lines.append(f"bigenus lower bound: {bigenus_lower_bound(n)}")
        residue = "yes" if n % 24 in (0, 13, 16, 21) else "no"
        lines.append(f"residue class 0/13/16/21 mod 24: {residue}")
    if g is not None:
        lines.append(f"g: {g}")
        lines.append(f"bichromatic upper bound: {bichromatic_upper_bound(g)}")
    _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def cmd_selfcomp_search(args) -> int:
    g = parse_graph_file(Path(args.graph).read_text())
    # checked before any work per vertex, whose count the file alone sets
    isolated = g.n - len({v for e in g.edges for v in e})
    if isolated:
        raise ValueError(
            f"{isolated} of {g.n} vertices lie on no edge; "
            "a triangulated surface has every vertex on a triangle"
        )
    rs = selfcomp.search_triangular(g, args.budget)
    if rs is None:
        print(f"no triangular embedding found within budget {args.budget}", file=sys.stderr)
        return 1
    _emit((serialize_rotation(rs),), args.out)
    return 0


def cmd_derive(args) -> int:
    # certified before a byte is written, so a failure leaves no --out file
    _emit(derived_text(parse_current_graph_file(Path(args.current_graph).read_text())), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biembed",
        description="verify and search triangular biembeddings of complete graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-table", help="verify a self-complementary rotation table")
    vt.add_argument("--rotation", required=True, help="rotation file path")
    vt.add_argument("--form", choices=[selfcomp.FULL_CYCLE, selfcomp.CYCLE_PLUS_FIXED_POINT],
                    default=None, help="antimorphism shape (default: by parity of n)")

    fam = sub.add_parser("family", help="the K_{24s+13} current-graph family")
    fam_sub = fam.add_subparsers(dest="mode", required=True)
    fam_verify = fam_sub.add_parser("verify")
    fam_search = fam_sub.add_parser("search")
    for fp in (fam_verify, fam_search):
        fp.add_argument("--s", type=int, required=True)

    b = sub.add_parser("bounds", help="bigenus and bichromatic bound formulas")
    b.add_argument("--n", type=int, default=None, help="order of the complete graph")
    b.add_argument("--g", type=int, default=None, help="genus of the surface")

    sc = sub.add_parser("selfcomp", help="self-complementary graph tools")
    sc_sub = sc.add_subparsers(dest="mode", required=True)
    scs = sc_sub.add_parser("search")
    scs.add_argument("--graph", required=True, help="graph file path")
    scs.add_argument("--budget", type=int, default=200_000)

    d = sub.add_parser("derive", help="derived embedding of a current graph")
    d.add_argument("--current-graph", required=True, dest="current_graph")

    for leaf, run in ((vt, cmd_verify_table), (fam_verify, cmd_family_verify),
                      (fam_search, cmd_family_search), (b, cmd_bounds),
                      (scs, cmd_selfcomp_search), (d, cmd_derive)):
        leaf.add_argument("--out", default=None)
        leaf.set_defaults(run=run)
    # listed after --out, as `family search -h` always has
    fam_search.add_argument("--budget", type=int, default=10_000_000)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
