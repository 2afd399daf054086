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
``CurrentGraph.certificate``.  ``derived_text`` renders the rows as text from
the log, in chunks; only ``derive_embedding`` builds them as ints.

Storage: flat int lists.  Dart ``off[v] + i`` is arc i of row v in rotation
order, to ``head[d]``, carrying ``current[d]`` in 1..n-1 as it leaves v (the
other end carries the negation).  ``CurrentGraph(n, rows)`` flattens rows of
``(neighbor, current)`` pairs; ``from_arcs`` keeps the lists it is given.  The
k-th arc v->w carrying c pairs with the k-th arc w->v carrying -c (row order),
so parallel edges are fine.  ``faces`` holds the currents read along each face.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .embeddings import HalfStats, RotationSystem
from .graphs import DifferenceSet, cycles, rows_in_label_order


@dataclass(init=False)
class CurrentGraph:
    n: int
    off: list[int]
    head: list[int]
    current: list[int]

    def __init__(self, n: int, rows) -> None:
        off, arcs = [0], []
        for row in rows:
            arcs += row
            off.append(len(arcs))
        self._set(n, off, [w for w, _ in arcs], [c for _, c in arcs])

    @classmethod
    def from_arcs(cls, n: int, off: list[int], head: list[int], current: list[int]) -> CurrentGraph:
        """The current graph on these flat lists, kept without a copy."""
        cg = cls.__new__(cls)
        cg._set(n, off, head, current)
        return cg

    def _set(self, n: int, off: list[int], head: list[int], current: list[int]) -> None:
        if n < 2:
            raise ValueError(f"modulus must be at least 2, got {n}")
        self.n, self.off, self.head, self.current = n, off, head, current
        self.faces, self._uncubic, self._unbalanced, self._classes, self._repeated = _arc_pass(self)

    @property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``(neighbor, current)`` pairs per vertex, built on each call."""
        off, head, current = self.off, self.head, self.current
        return tuple(tuple(zip(head[lo:hi], current[lo:hi])) for lo, hi in zip(off, off[1:]))

    @cached_property
    def classes(self) -> DifferenceSet:
        """The set of currents used, as residues in 1..⌊n/2⌋, computed once."""
        return DifferenceSet(self.n, self._classes)

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


def _arc_pass(cg: CurrentGraph):
    """The one pass over the darts, which every check reads; raises on an arc
    out of range or with no reverse.  Returns the faces as currents (phi takes
    an arc to the rotation successor of its reverse), the vertices not of
    degree 3, (vertex, entering sum) where Kirchhoff fails, the edges' classes
    min(c, n - c), and the classes of more than one edge."""
    n, off, head, current = cg.n, cg.off, cg.head, cg.current
    nv, phi = len(off) - 1, [0] * off[-1]
    uncubic, unbalanced, classes, repeated = [], [], set(), set()
    waiting: dict[tuple[int, int, int], list[int]] = {}  # by (tail, head, current), oldest first
    for v in range(nv):
        lo, hi = off[v], off[v + 1]
        total = 0
        for d in range(lo, hi):
            w, c = head[d], current[d]
            total += c
            if not 0 <= w < nv:
                raise ValueError(f"vertex {v} lists unknown neighbor {w}")
            if not 0 < c < n:
                raise ValueError(f"current {c} at vertex {v} outside 1..{n - 1}")
            twins = waiting.pop((w, v, n - c), None)
            if not twins:
                waiting.setdefault((v, w, c), []).append(d)
                continue
            t = twins.pop(0)
            if twins:
                waiting[w, v, n - c] = twins
            phi[d] = t + 1 if t + 1 < off[w + 1] else off[w]
            phi[t] = d + 1 if d + 1 < hi else lo
            x = c if c + c <= n else n - c  # the edge's class
            (repeated if x in classes else classes).add(x)
        if hi - lo != 3:
            uncubic.append(v)
        if total % n:
            unbalanced.append((v, -total % n))
    if waiting:
        (v, w, c), _ = min(waiting.items(), key=lambda item: item[1][0])
        raise ValueError(f"arc {v}->{w} with current {c} has no reverse arc carrying {n - c}")
    faces = [list(map(current.__getitem__, orbit)) for orbit in cycles(phi, range(len(phi)))]
    return faces, uncubic, unbalanced, frozenset(classes), repeated


def validate_current_graph(cg: CurrentGraph) -> CurrentGraphReport:
    uncubic, unbalanced, dup = cg._uncubic, cg._unbalanced, sorted(cg._repeated)
    one_face = len(cg.faces) == 1
    failures = [f"vertices {uncubic} do not have degree 3"] if uncubic else []
    if not one_face:
        failures.append(f"embedding has {len(cg.faces)} faces, expected 1")
    failures += [f"currents entering vertex {v} sum to {e}, not 0" for v, e in unbalanced]
    if dup:  # classes of more than one edge
        failures.append(f"currents {dup} repeat across edges (up to sign)")
    return CurrentGraphReport(one_face, not uncubic, not unbalanced, not dup, tuple(failures))


def current_classes(cg: CurrentGraph) -> DifferenceSet:
    """The set of currents used, reported as residues in 1..⌊n/2⌋."""
    return cg.classes


def circuit_log(cg: CurrentGraph) -> tuple[int, ...]:
    """Currents read along the single face, starting from the arc with the
    least current."""
    if len(cg.faces) != 1:
        raise ValueError(f"current graph embedding has {len(cg.faces)} faces, expected 1")
    face = cg.faces[0]
    k = face.index(min(face))
    return (*face[k:], *face[:k])


def certify_log(n: int, log: tuple[int, ...]) -> HalfStats:
    """``RotationSystem(rows).certificate`` for the rows (k + d) % n, d in the
    log, k in Z_n, in O(|log|) and without building them.

    The rows are valid exactly when the log has no repeat, no 0 and is closed
    under negation; their graph is the circulant on the classes {d, -d} of
    the log, connected iff gcd(classes ∪ {n}) = 1, and gcd(n, d) = gcd(n, -d).
    """
    k = len(log)
    after = dict(zip(log, [*range(1, k), 0]))  # the log position after each value
    phi = [after.get(-d % n, -1) for d in log]
    connected, isolated = gcd(n, *log) == 1, 0 if any(log) else n
    if len(after) != k or 0 in after or -1 in phi:
        classes = {min(d, n - d) for d in log if d}
        # a class c holds the n pairs {v, v + c}, or n/2 when c = n/2
        edges = sum(n // 2 if 2 * c == n else n for c in classes)
        return HalfStats(edges, None, None, False, connected, isolated, False)
    faces, triangular, seen = 0, True, bytearray(k)
    for i in range(k):
        if seen[i]:
            continue
        j, length, total = i, 0, 0
        while not seen[j]:
            seen[j] = 1
            length += 1
            total += log[j]
            j = phi[j]
        m = gcd(n, total)
        faces += m
        triangular = triangular and length * n == 3 * m  # m faces of length L·n/m
    edges = n * k // 2
    genus = (2 - (n - edges + faces)) // 2 if connected else None
    return HalfStats(edges, faces, genus, triangular, connected, isolated, True)


def certify_derived(cg: CurrentGraph) -> HalfStats:
    """The certificate of cg's derived embedding, once cg validates, its
    currents generate Z_n, and every face is a triangle.  The last fails too
    when the rows would not be valid (a log with a repeat, or not closed
    under negation), so a mis-transcribed current graph fails loudly instead
    of certifying garbage."""
    report = validate_current_graph(cg)
    if not report.ok:
        raise ValueError("current graph fails validation: " + "; ".join(report.failures))
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


_BLOCK = 2**16  # entries per chunk of derived_text
# derived_text holds about 84 B a vertex on 64-bit CPython 3.11 (102 MB peak
# RSS at n = 1,000,003), so at N_MAX it peaks near family verify at S_MAX
N_MAX = 5_000_000


def derived_text(cg: CurrentGraph):
    """``serialize_rotation(derive_embedding(cg))`` as chunks of text, checked
    by ``certify_derived`` before this returns.  Read down the rows, log entry
    d's column is Z_n rotated by d, so each chunk of about _BLOCK entries is
    sliced from one list of the n names, with no int row built."""
    if cg.n > N_MAX:
        raise ValueError(f"modulus must be at most {N_MAX} to derive, got {cg.n} "
                         "(memory grows by about 84 B per vertex)")
    certify_derived(cg)
    log, n = circuit_log(cg), cg.n
    names = list(map(str, range(n)))
    twice, rows = names + names, max(1, _BLOCK // len(log))
    return ("".join(map("{}. {}\n".format, names[k:k + rows],  # the labels end the last chunk
                        map(" ".join, zip(*[twice[k + d:k + d + rows] for d in log]))))
            for k in range(0, n, rows))


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
