"""Bound formulas and the end-to-end biembedding certificate.

A biembedding of K_n is a pair of spanning subgraphs, each with its own
embedding, whose edge sets partition E(K_n).  The report produced here is a
flat record of every stage checked, rendered as stable key-value text so the
CLI output doubles as a test snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

from .embeddings import HalfStats, RotationSystem


def bigenus_lower_bound(n: int) -> int:
    """⌈(n² − 13n + 24)/24⌉, floored at 0.

    Least genus of an orientable surface that could host a biembedding of
    K_n; negative formula values (n ≤ 10) clamp to the sphere.
    """
    if n < 3:
        raise ValueError(f"bound defined for n >= 3, got {n}")
    value = -((-(n * n - 13 * n + 24)) // 24)
    return max(0, value)


def bichromatic_upper_bound(g: int) -> int:
    """⌊(13 + √(73 + 96g))/2⌋ for g ≥ 1, in exact integer arithmetic.

    g = 1 lands exactly on √169, so floating-point evaluation is not safe;
    isqrt keeps the boundary cases exact.
    """
    if g < 1:
        raise ValueError("g must be at least 1; the sphere is excluded")
    return (13 + isqrt(73 + 96 * g)) // 2


def biembedding_edge_bound(v: int, g: int) -> int:
    """Edge count bound 6v − 12 + 12g for a graph biembedded in genus g."""
    if v < 3:
        raise ValueError(f"bound defined for v >= 3, got {v}")
    return 6 * v - 12 + 12 * g


@dataclass(frozen=True)
class BiembeddingReport:
    n: int
    residue_ok: bool
    bound_value: int
    halves: tuple[HalfStats, HalfStats]
    partition_ok: bool
    achieves_bound: bool
    stages: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.stages)


def verify_biembedding(r1: RotationSystem, r2: RotationSystem, n: int) -> BiembeddingReport:
    """Certify a candidate triangular biembedding of K_n.

    Stages: both rotation systems valid; edge sets partition E(K_n); both
    halves connected; both triangular; both genera equal the lower bound.
    Halves with isolated vertices are not rejected outright, but they can
    never pass the connectivity stage (n ≥ 2); the count is recorded.
    """
    n1, n2 = len(r1.rotation), len(r2.rotation)
    if n1 != n or n2 != n:
        raise ValueError(f"rotation systems on {n1} and {n2} vertices, expected {n}")
    # every pair needs an entry in some row, so rows holding fewer entries
    # than pairs fail the partition without the n * n table
    partition_ok = sum(map(len, r1.rotation + r2.rotation)) >= n * (n - 1) // 2
    if partition_ok:
        # halves[u * n + v] has bit 1 (2) set when half 1 (2) lists the pair
        # {u, v} at either end, as its ``graph`` does; self entries are
        # skipped, so the n cells u = v stay 0, and a partition sets one bit
        # in every other
        halves = bytearray(n * n)
        for bit, r in ((1, r1), (2, r2)):
            for v, row in enumerate(r.rotation):
                base = v * n
                for w in row:
                    if w != v and 0 <= w < n:
                        halves[base + w] |= bit
                        halves[w * n + v] |= bit
        partition_ok = halves.count(0) == n and 3 not in halves
    return biembedding_report(n, r1.certificate, r2.certificate, partition_ok)


def biembedding_report(
    n: int, h1: HalfStats, h2: HalfStats, partition_ok: bool
) -> BiembeddingReport:
    """The report on two certified halves whose edge sets do (or do not)
    partition E(K_n)."""
    bound = bigenus_lower_bound(n)
    achieves = (
        partition_ok
        and h1.triangular
        and h2.triangular
        and h1.genus == bound
        and h2.genus == bound
    )
    stages = (
        ("rotations valid", h1.valid and h2.valid),
        ("edge partition", partition_ok),
        ("halves connected", h1.connected and h2.connected),
        ("halves triangular", h1.triangular and h2.triangular),
        ("achieves bound", achieves),
    )
    return BiembeddingReport(
        n=n,
        residue_ok=n % 24 in (0, 13, 16, 21),
        bound_value=bound,
        halves=(h1, h2),
        partition_ok=partition_ok,
        achieves_bound=achieves,
        stages=stages,
    )


def with_stages(report: BiembeddingReport, extra: list[tuple[str, bool]]) -> BiembeddingReport:
    """Prepend caller-specific stages (antimorphism checks, genus formulas...)."""
    return replace(report, stages=tuple(extra) + report.stages)


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def render_report(report: BiembeddingReport) -> str:
    """Stable key-value text form of a report."""
    lines = [
        f"n: {report.n}",
        f"residue class 0/13/16/21 mod 24: {_yn(report.residue_ok)}",
        f"bound value: {report.bound_value}",
    ]
    for i, h in enumerate(report.halves, start=1):
        lines.append(f"half {i} edges: {h.edges}")
        lines.append(f"half {i} faces: {'-' if h.faces is None else h.faces}")
        lines.append(f"half {i} genus: {'-' if h.genus is None else h.genus}")
        lines.append(f"half {i} triangular: {_yn(h.triangular)}")
        lines.append(f"half {i} connected: {_yn(h.connected)}")
        lines.append(f"half {i} isolated vertices: {h.isolated_vertices}")
    lines.append(f"partition ok: {_yn(report.partition_ok)}")
    lines.append(f"achieves bound: {_yn(report.achieves_bound)}")
    for name, ok in report.stages:
        lines.append(f"stage {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
