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

That embedding is Z_n-invariant, so it is certified from the log alone
(Gross & Tucker, *Topological Graph Theory* §4.4): after an arc of
difference d, the face goes on with difference phi(d) = next_log(-d), and a
phi-orbit of length L whose differences sum to S gives gcd(n, S) faces of
length L·n/gcd(n, S).  ``certify_log`` counts them in O(|log|), kept as
``CurrentGraph.certificate``; the rows are built only by ``derive_embedding``.

Storage: ``rows[v]`` lists ``(neighbor, current)`` pairs in rotation order,
where ``current`` in 1..n-1 is the value carried by the arc leaving v.  The
same edge therefore shows up at its other endpoint with the negated current.
Arcs are int darts: dart ``off[v] + i`` is arc i of row v, so parallel edges
are fine.  The k-th arc v->w carrying c, in row order, pairs with the k-th
arc w->v carrying -c; an arc left over has no reverse and is an error.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .embeddings import HalfStats, RotationSystem
from .graphs import DifferenceSet, cycles, rows_in_label_order


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
    def faces(self) -> list[list[int]]:
        """The faces as darts, traced once, as frozen tuples cannot change."""
        return _face_orbits(self)

    @cached_property
    def report(self) -> CurrentGraphReport:
        """validate_current_graph(self), computed once."""
        return validate_current_graph(self)

    @cached_property
    def classes(self) -> DifferenceSet:
        """The set of currents used, as residues in 1..⌊n/2⌋, computed once."""
        return DifferenceSet(
            self.n, frozenset(min(c, self.n - c) for row in self.rows for _, c in row)
        )

    @cached_property
    def certificate(self) -> HalfStats:
        """certify_log(n, circuit_log(self)): the derived half's certificate."""
        return certify_log(self.n, circuit_log(self))


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


def _face_orbits(cg: CurrentGraph) -> list[list[int]]:
    """Faces of the embedding as darts: after an arc, take the rotation
    successor of its reverse at the head vertex."""
    n, off, phi = cg.n, [0], [0] * sum(map(len, cg.rows))
    # arcs still waiting for their reverse, oldest first, by (tail, head, current)
    waiting: dict[tuple[int, int, int], list[int]] = {}
    for v, row in enumerate(cg.rows):
        off.append(off[v] + len(row))
        for d, (w, c) in enumerate(row, off[v]):
            key = (w, v, n - c)
            twins = waiting.get(key)
            if twins:
                t = twins.pop(0)
                if not twins:
                    del waiting[key]
                phi[d] = t + 1 if t + 1 < off[w + 1] else off[w]
                phi[t] = d + 1 if d + 1 < off[v + 1] else off[v]
            else:
                waiting.setdefault((v, w, c), []).append(d)
    if waiting:
        (v, w, c), _ = min(waiting.items(), key=lambda item: item[1][0])
        raise ValueError(f"arc {v}->{w} with current {c} has no reverse arc carrying {n - c}")
    return list(cycles(phi, range(len(phi))))


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
    return cg.classes


def circuit_log(cg: CurrentGraph) -> tuple[int, ...]:
    """Currents read along the single face, starting from the arc with the
    least current."""
    if len(cg.faces) != 1:
        raise ValueError(f"current graph embedding has {len(cg.faces)} faces, expected 1")
    current = [c for row in cg.rows for _, c in row]
    currents = [current[d] for d in cg.faces[0]]
    k = currents.index(min(currents))
    return tuple(currents[k:] + currents[:k])


def certify_log(n: int, log: tuple[int, ...]) -> HalfStats:
    """``RotationSystem(rows).certificate`` for the rows (k + d) % n, d in the
    log, k in Z_n, in O(|log|) and without building them.

    The rows are valid exactly when the log has no repeat, no 0 and is closed
    under negation; their graph is the circulant on the classes {d, -d} of
    the log, connected iff gcd(classes ∪ {n}) = 1.
    """
    k = len(log)
    pos = {d: i for i, d in enumerate(log)}
    classes = {min(d, n - d) for d in log if d}
    g = n
    for c in classes:
        g = gcd(g, c)
    connected, isolated = g == 1, 0 if classes else n
    if len(pos) != k or 0 in pos or any((-d) % n not in pos for d in log):
        # a class c holds the n pairs {v, v + c}, or n/2 when c = n/2
        edges = sum(n // 2 if 2 * c == n else n for c in classes)
        return HalfStats(edges, None, None, False, connected, isolated, False)
    phi = [(pos[(-d) % n] + 1) % k for d in log]
    faces, triangular = 0, True
    for orbit in cycles(phi, range(k)):
        m = gcd(n, sum(log[i] for i in orbit))
        faces += m
        triangular = triangular and len(orbit) * n == 3 * m  # m faces of length L·n/m
    edges = n * k // 2
    genus = (2 - (n - edges + faces)) // 2 if connected else None
    return HalfStats(edges, faces, genus, triangular, connected, isolated, True)


def certify_derived(cg: CurrentGraph) -> HalfStats:
    """The certificate of cg's derived embedding, once cg validates, its
    currents generate Z_n, and every face is a triangle.  The last fails too
    when the rows would not be valid (a log with a repeat, or not closed
    under negation), so a mis-transcribed current graph fails loudly instead
    of certifying garbage."""
    if not cg.report.ok:
        raise ValueError(
            "current graph fails validation: " + "; ".join(cg.report.failures)
        )
    if not cg.certificate.connected:
        raise ValueError(
            f"derived graph disconnected (the currents share a factor with {cg.n}): "
            "the result would be more than one triangulated surface"
        )
    if not cg.certificate.triangular:  # false too when the rows are not C(n, X)'s
        raise AssertionError(f"derived embedding not triangular ({cg.certificate})")
    return cg.certificate


def derive_embedding(cg: CurrentGraph) -> RotationSystem:
    """Rotation system of the derived embedding on vertex set Z_n: vertex
    k's rotation is the circuit log shifted by +k.  Checked first by
    ``certify_derived``."""
    certify_derived(cg)
    log = circuit_log(cg)
    return RotationSystem(tuple(tuple((k + d) % cg.n for d in log) for k in range(cg.n)))


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
