"""Current graphs over Z_n and their derived embeddings.

A current graph here is an embedded graph (rotation per vertex) whose arcs
carry elements of Z_n, with reverse arcs carrying negated values.  The ones
of interest satisfy four properties:

  (a) the embedding has exactly one face,
  (b) every vertex has degree 3,
  (c) the currents entering each vertex sum to 0 mod n (Kirchhoff),
  (d) no two edges carry the same current up to sign.

Reading the currents along the single face gives the circuit log; taking it
as the rotation of vertex 0 and shifting by +k for vertex k produces a
rotation system for the circulant C(n, X) on the currents X, and properties
(a)-(d) force every face of that derived embedding to be a triangle.

Storage: ``rows[v]`` lists ``(neighbor, current)`` pairs in rotation order,
where ``current`` in 1..n-1 is the value carried by the arc leaving v.  The
same edge therefore shows up at its other endpoint with the negated current.
Arcs are addressed as (vertex, slot) pairs, so parallel edges are fine.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .embeddings import RotationSystem
from .graphs import (
    DifferenceSet,
    circulant_is_connected,
    cycles,
    make_circulant,
    rows_in_label_order,
)

Dart = tuple[int, int]


@dataclass(frozen=True)
class CurrentGraph:
    n: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"modulus must be at least 2, got {self.n}")
        for v, row in enumerate(self.rows):
            for w, c in row:
                if not (0 <= w < len(self.rows)):
                    raise ValueError(f"vertex {v} lists unknown neighbor {w}")
                if not (1 <= c <= self.n - 1):
                    raise ValueError(
                        f"current {c} at vertex {v} outside 1..{self.n - 1}"
                    )
        self.faces  # raises if arcs do not pair up with negated reverses

    @cached_property
    def faces(self) -> list[list[Dart]]:
        """The faces as darts, traced once, as frozen tuples cannot change."""
        return _face_orbits(self)

    @cached_property
    def report(self) -> CurrentGraphReport:
        """validate_current_graph(self), computed once."""
        return validate_current_graph(self)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.rows) // 2


@dataclass(frozen=True)
class CircuitLog:
    n: int
    currents: tuple[int, ...]


@dataclass(frozen=True)
class CurrentGraphReport:
    one_face: bool
    cubic: bool
    kirchhoff: bool
    distinct_currents: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.one_face and self.cubic and self.kirchhoff and self.distinct_currents


def _twin_map(cg: CurrentGraph) -> dict[Dart, Dart]:
    """Pair every arc (v, slot) with its reverse arc carrying the negation."""
    twins: dict[Dart, Dart] = {}
    for v, row in enumerate(cg.rows):
        for i, (w, c) in enumerate(row):
            if (v, i) in twins:
                continue
            want = (cg.n - c) % cg.n
            match = None
            for j, (u, d) in enumerate(cg.rows[w]):
                if u == v and d == want and (w, j) not in twins and (w, j) != (v, i):
                    match = (w, j)
                    break
            if match is None:
                raise ValueError(
                    f"arc {v}->{w} with current {c} has no reverse arc "
                    f"carrying {want}"
                )
            twins[(v, i)] = match
            twins[match] = (v, i)
    return twins


def _face_orbits(cg: CurrentGraph) -> list[list[Dart]]:
    """Faces of the embedding: after an arc, take the rotation successor of
    its reverse at the head vertex."""
    twins = _twin_map(cg)
    darts = sorted(twins)
    index = {d: i for i, d in enumerate(darts)}
    phi = [index[w, (j + 1) % len(cg.rows[w])] for w, j in map(twins.get, darts)]
    return [[darts[i] for i in orbit] for orbit in cycles(phi, range(len(phi)))]


def validate_current_graph(cg: CurrentGraph) -> CurrentGraphReport:
    failures: list[str] = []

    cubic = all(len(row) == 3 for row in cg.rows)
    if not cubic:
        bad = [v for v, row in enumerate(cg.rows) if len(row) != 3]
        failures.append(f"vertices {bad} do not have degree 3")

    one_face = len(cg.faces) == 1
    if not one_face:
        failures.append(f"embedding has {len(cg.faces)} faces, expected 1")

    kirchhoff = True
    for v, row in enumerate(cg.rows):
        entering = sum((cg.n - c) % cg.n for _, c in row) % cg.n
        if entering != 0:
            kirchhoff = False
            failures.append(f"currents entering vertex {v} sum to {entering}, not 0")

    classes = Counter(min(c, cg.n - c) for row in cg.rows for _, c in row)
    # every edge contributes twice (once per endpoint), so each class should
    # appear exactly twice overall
    dup = sorted(x for x, count in classes.items() if count != 2)
    if dup:
        failures.append(f"currents {dup} repeat across edges (up to sign)")

    return CurrentGraphReport(one_face, cubic, kirchhoff, not dup, tuple(failures))


def current_classes(cg: CurrentGraph) -> DifferenceSet:
    """The set of currents used, reported as residues in 1..⌊n/2⌋."""
    return DifferenceSet(
        cg.n, frozenset(min(c, cg.n - c) for row in cg.rows for _, c in row)
    )


def circuit_log(cg: CurrentGraph) -> CircuitLog:
    """Currents read along the single face, starting from the arc with the
    least current."""
    if len(cg.faces) != 1:
        raise ValueError(f"current graph embedding has {len(cg.faces)} faces, expected 1")
    orbit = cg.faces[0]
    currents = [cg.rows[v][i][1] for v, i in orbit]
    k = currents.index(min(currents))
    log = currents[k:] + currents[:k]
    return CircuitLog(cg.n, tuple(log))


def derive_embedding(cg: CurrentGraph) -> RotationSystem:
    """Rotation system of the derived embedding on vertex set Z_n.

    Vertex k's rotation is the circuit log shifted by +k.  Asserts that the
    result is a valid rotation system of the circulant on the current set and
    that every face is a triangle, so a mis-transcribed current graph fails
    loudly instead of deriving garbage.
    """
    if not cg.report.ok:
        raise ValueError(
            "current graph fails validation: " + "; ".join(cg.report.failures)
        )
    x = current_classes(cg)
    if not circulant_is_connected(x):
        raise ValueError(
            f"derived graph disconnected (the currents share a factor with {cg.n}): "
            "the result would be more than one triangulated surface"
        )
    log = circuit_log(cg).currents
    rows = tuple(tuple((k + d) % cg.n for d in log) for k in range(cg.n))
    rs = RotationSystem(make_circulant(x), rows)
    if not rs.certificate.triangular:  # false too when the rows are not C(n, X)'s
        raise AssertionError(f"derived embedding not triangular ({rs.certificate})")
    return rs


_ENTRY = re.compile(r"\((-?\d+),(-?\d+)\)")


def parse_current_graph_file(text: str) -> CurrentGraph:
    """Parse the current-graph format: header `n <modulus>`, then one line
    per vertex `<v>: (<neighbor>,<signed current>) ...` in rotation order.
    A positive current means the reference arc leaves the row's vertex."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty current-graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"bad header line: {lines[0]!r}")
    n = int(head[1])
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    for line in lines[1:]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"malformed line (no ':'): {line!r}")
        v = int(head)
        if v in rows:
            raise ValueError(f"duplicate row for vertex {v}")
        entries = []
        for tok in rest.split():
            m = _ENTRY.fullmatch(tok)
            if not m:
                raise ValueError(f"bad entry {tok!r} in row for vertex {v}")
            w, t = int(m.group(1)), int(m.group(2))
            if t % n == 0:
                raise ValueError(f"zero current on arc {v}->{w}")
            entries.append((w, t % n))
        rows[v] = tuple(entries)
    return CurrentGraph(n, rows_in_label_order(rows))


def serialize_current_graph(cg: CurrentGraph) -> str:
    """Inverse of parse_current_graph_file.  Each edge's reference arc is the
    endpoint whose leaving current is at most n/2, printed positive there and
    negative at the other end."""
    lines = [f"n {cg.n}"]
    for v, row in enumerate(cg.rows):
        parts = []
        for w, c in row:
            t = c if c <= cg.n // 2 else c - cg.n
            parts.append(f"({w},{t})")
        lines.append(f"{v}: " + " ".join(parts))
    return "\n".join(lines) + "\n"
