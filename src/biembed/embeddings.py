"""Rotation systems, face tracing, and the one-pass certificate.

A rotation system assigns to each vertex a cyclic order of its neighbors,
which encodes a cellular embedding of the graph in an orientable surface.
The rows are the data: ``RotationSystem`` holds only ``rotation``, and its
``graph`` is derived from the rows (every pair they list at either end),
built only when something asks for it.  The rows are valid when they list
exactly the neighbors of each vertex in that graph: no repeat, no self, no
vertex out of range, and w in row v exactly when v is in row w.
Internally the map is in permutation form (Lando & Zvonkin 2004, ch. 1):
the darts are the ints ``off[v] + i``, dart ``off[v] + i`` being the arc
v -> rotation[v][i], and the faces are the cycles of one flat list ``phi``:

    after traversing the arc u -> v, the next arc leaves v toward the
    successor of u in the rotation at v.

Any consistent convention gives the same face count; this one is fixed so
that embeddings verify deterministically.  Genus then follows from the
Euler polyhedral equation v - e + f = 2 - 2g, which only makes sense for
connected graphs (a disconnected "embedding" is several surfaces).
``certify_half`` validates, counts faces and checks connectivity in one
pass, kept as ``RotationSystem.certificate``; ``trace_faces`` walks the same
``phi`` and materialises each face as arcs.

The file format mirrors the way rotation tables are usually printed: one
row per vertex, `<v>. <n1> <n2> ... <nk>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, cycles, is_connected, rows_in_label_order, spans_all

Arc = tuple[int, int]
Face = tuple[Arc, ...]


@dataclass(frozen=True)
class RotationSystem:
    rotation: tuple[tuple[int, ...], ...]

    @cached_property
    def graph(self) -> Graph:
        """The pairs the rows list at either end, skipping self and
        out-of-range entries; built once, on first use."""
        n = len(self.rotation)
        return Graph(n, frozenset(
            (v, w) if v < w else (w, v)
            for v, row in enumerate(self.rotation) for w in row if w != v and 0 <= w < n
        ))

    @cached_property
    def certificate(self) -> HalfStats:
        """certify_half(self), computed once, as frozen tuples cannot change."""
        return certify_half(self)


@dataclass(frozen=True)
class HalfStats:
    """``valid``: the rows list exactly each vertex's neighbors.  Faces are
    counted only then (else None, not triangular); ``genus`` also needs
    ``connected``, which comes from the rows if valid, else from ``graph``."""

    edges: int
    faces: int | None
    genus: int | None
    triangular: bool
    connected: bool
    isolated_vertices: int
    valid: bool


@dataclass(frozen=True)
class Violation:
    vertex: int
    kind: str
    detail: str


@dataclass(frozen=True)
class RotationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FaceSet:
    faces: tuple[Face, ...]

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def lengths(self) -> list[int]:
        return [len(f) for f in self.faces]


@dataclass(frozen=True)
class SurfaceStats:
    v: int
    e: int
    f: int
    genus: int


def validate_rotation(r: RotationSystem) -> RotationReport:
    """Check each rotation row against the neighbor set; never raises.

    Reported violation kinds: "self in rotation", "duplicate neighbor",
    "non-neighbor present" (a vertex out of range, as ``graph`` holds every
    other pair the rows list), "missing neighbor".  ``certificate.valid`` is
    the same check without the list.
    """
    adjacency: list[set[int]] = [set() for _ in range(r.graph.n)]
    for a, b in r.graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    out: list[Violation] = []
    for v in range(r.graph.n):
        row = r.rotation[v]
        nbrs = adjacency[v]
        seen: set[int] = set()
        for w in row:
            if w == v:
                out.append(Violation(v, "self in rotation", f"vertex {v} lists itself"))
            elif w in seen:
                out.append(Violation(v, "duplicate neighbor", f"{w} repeated at {v}"))
            elif w not in nbrs:
                out.append(
                    Violation(v, "non-neighbor present", f"{w} is not adjacent to {v}")
                )
            seen.add(w)
        for w in sorted(nbrs - seen):
            out.append(Violation(v, "missing neighbor", f"{w} missing from row {v}"))
    return RotationReport(tuple(out))


def _face_permutation(r: RotationSystem) -> list[int] | None:
    """phi, or None unless the rows list exactly each vertex's neighbors:
    no row repeats an entry, lists its vertex or one out of range, and v is
    in row w for each w in row v (the lookup of ``succ[w][v]`` below)."""
    n = len(r.rotation)
    # after[w] in row v: the dart leaving v toward the successor of w there
    succ: list[dict[int, int]] = []
    off = 0
    for v, row in enumerate(r.rotation):
        k = len(row)
        after = dict(zip(row, range(off + 1, off + k + 1)))
        if len(after) != k or v in after or k and (min(row) < 0 or max(row) >= n):
            return None
        if k:
            after[row[-1]] = off
        succ.append(after)
        off += k
    try:
        return [succ[w][v] for v, row in enumerate(r.rotation) for w in row]
    except KeyError:
        return None


def _invalid(r: RotationSystem) -> ValueError:
    violations = validate_rotation(r).violations
    first = violations[0]
    return ValueError(
        "cannot trace an invalid rotation system "
        f"({len(violations)} violations, first: {first.kind} at vertex "
        f"{first.vertex}); see validate_rotation"
    )


def certify_half(r: RotationSystem) -> HalfStats:
    """Validate the rows, count faces and check connectivity in one pass
    over the darts; read it as ``r.certificate``, which keeps it."""
    phi = _face_permutation(r)
    if phi is None:
        g = r.graph
        isolated = g.n - len({v for edge in g.edges for v in edge})
        return HalfStats(len(g.edges), None, None, False, is_connected(g), isolated, False)
    edges = len(phi) // 2
    lengths = [len(orbit) for orbit in cycles(phi, range(len(phi)))]
    faces, triangular = len(lengths), all(k == 3 for k in lengths)
    connected = spans_all(r.rotation)
    genus = (2 - (len(r.rotation) - edges + faces)) // 2 if connected else None
    isolated = sum(not row for row in r.rotation)
    return HalfStats(edges, faces, genus, triangular, connected, isolated, True)


def trace_faces(r: RotationSystem) -> FaceSet:
    """Every face as its arcs, faces ordered by least arc, each face starting
    at its least arc.  Raises ValueError for an invalid rotation system."""
    phi = _face_permutation(r)
    if phi is None:
        raise _invalid(r)
    arcs = [(v, w) for v, row in enumerate(r.rotation) for w in row]
    # starting each trace at the least unused arc makes it the least arc of
    # its own face
    starts = sorted(range(len(arcs)), key=arcs.__getitem__)
    return FaceSet(tuple(tuple(arcs[d] for d in orbit) for orbit in cycles(phi, starts)))


def surface_stats(r: RotationSystem) -> SurfaceStats:
    cert = r.certificate
    if not cert.connected:
        raise ValueError("genus undefined for disconnected embedding")
    if not cert.valid:
        raise _invalid(r)
    v = len(r.rotation)
    e = cert.edges
    chi = v - e + cert.faces
    if chi % 2 != 0:
        raise AssertionError(f"odd Euler characteristic {chi}")
    if cert.genus < 0:
        raise AssertionError(f"negative genus {cert.genus}")
    return SurfaceStats(v, e, cert.faces, cert.genus)


def parse_rotation_file(text: str) -> RotationSystem:
    """Parse rows `<v>. <n1> <n2> ...` into a rotation system.

    Every pair must be listed at both ends, or the text does not describe
    a rotation system at all; a row may still list its own vertex or repeat
    an entry, which the certificate then reports.
    """
    rows: dict[int, tuple[int, ...]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(".")
        if not _:
            raise ValueError(f"malformed line (no '.'): {raw!r}")
        try:
            v = int(head)
            nbrs = tuple(int(tok) for tok in rest.split())
        except ValueError:
            raise ValueError(f"malformed line: {raw!r}") from None
        if v in rows:
            raise ValueError(f"duplicate row for vertex {v}")
        rows[v] = nbrs

    rotation = rows_in_label_order(rows)
    n = len(rotation)
    listed = [set(row) for row in rotation]
    for v, row in enumerate(rotation):
        for w in row:
            if not (0 <= w < n and v in listed[w]):
                raise ValueError(
                    f"rotation inconsistent with implied edge set: {v} lists {w} "
                    f"but {w} does not list {v}"
                )
    return RotationSystem(rotation)


def serialize_rotation(r: RotationSystem) -> str:
    lines = []
    for v, row in enumerate(r.rotation):
        entries = " ".join(str(w) for w in row)
        lines.append(f"{v}. {entries}".rstrip())
    return "\n".join(lines) + "\n"
