"""Rotation systems, face tracing, and the one-pass certificate.

A rotation system assigns to each vertex a cyclic order of its neighbors,
which encodes a cellular embedding of the graph in an orientable surface.
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

from .graphs import Graph, cycles, is_connected, make_graph, rows_in_label_order, spans_all

Arc = tuple[int, int]
Face = tuple[Arc, ...]


@dataclass(frozen=True)
class RotationSystem:
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rotation) != self.graph.n:
            raise ValueError(
                f"rotation has {len(self.rotation)} rows for {self.graph.n} vertices"
            )

    @cached_property
    def certificate(self) -> HalfStats:
        """certify_half(self), computed once, as frozen tuples cannot change."""
        return certify_half(self)


@dataclass(frozen=True)
class HalfStats:
    """``valid``: the rows list exactly each vertex's neighbors.  Faces are
    counted only then (else None, not triangular); ``genus`` also needs
    ``connected``, which comes from the rows if valid, else from the graph."""

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


def make_rotation_system(graph: Graph, rows) -> RotationSystem:
    return RotationSystem(graph, tuple(tuple(row) for row in rows))


def validate_rotation(r: RotationSystem) -> RotationReport:
    """Check each rotation row against the neighbor set; never raises.

    Reported violation kinds: "self in rotation", "duplicate neighbor",
    "non-neighbor present", "missing neighbor".  ``certificate.valid`` is
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
    no row repeats an entry or lists its vertex, the rows hold 2|E| entries,
    and both arcs of every edge are listed (so those are all the entries)."""
    # after[w] in row v: the dart leaving v toward the successor of w there
    succ: list[dict[int, int]] = []
    off = 0
    for v, row in enumerate(r.rotation):
        k = len(row)
        after = dict(zip(row, range(off + 1, off + k + 1)))
        if len(after) != k or v in after:
            return None
        if k:
            after[row[-1]] = off
        succ.append(after)
        off += k
    if off != 2 * len(r.graph.edges):
        return None
    for u, v in r.graph.edges:
        if v not in succ[u] or u not in succ[v]:
            return None
    return [succ[w][v] for v, row in enumerate(r.rotation) for w in row]


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
    g = r.graph
    phi = _face_permutation(r)
    if phi is None:
        isolated = g.n - len({v for edge in g.edges for v in edge})
        return HalfStats(len(g.edges), None, None, False, is_connected(g), isolated, False)
    lengths = [len(orbit) for orbit in cycles(phi, range(len(phi)))]
    faces, triangular = len(lengths), all(k == 3 for k in lengths)
    connected = spans_all(r.rotation)
    genus = (2 - (g.n - len(g.edges) + faces)) // 2 if connected else None
    isolated = sum(not row for row in r.rotation)
    return HalfStats(len(g.edges), faces, genus, triangular, connected, isolated, True)


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


def is_triangular(fs: FaceSet) -> bool:
    return all(len(f) == 3 for f in fs.faces)


def surface_stats(r: RotationSystem) -> SurfaceStats:
    cert = r.certificate
    if not cert.connected:
        raise ValueError("genus undefined for disconnected embedding")
    if not cert.valid:
        raise _invalid(r)
    v = r.graph.n
    e = len(r.graph.edges)
    chi = v - e + cert.faces
    if chi % 2 != 0:
        raise AssertionError(f"odd Euler characteristic {chi}")
    if cert.genus < 0:
        raise AssertionError(f"negative genus {cert.genus}")
    return SurfaceStats(v, e, cert.faces, cert.genus)


def parse_rotation_file(text: str) -> RotationSystem:
    """Parse rows `<v>. <n1> <n2> ...` into a rotation system.

    The edge set is implied by the rows; every edge must be listed at both
    endpoints or the text does not describe a rotation system at all.
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
    arcs = {(v, w) for v in range(n) for w in rotation[v]}
    for v, w in arcs:
        if (w, v) not in arcs:
            raise ValueError(
                f"rotation inconsistent with implied edge set: {v} lists {w} "
                f"but {w} does not list {v}"
            )
    graph = make_graph(n, ((v, w) for v, w in arcs if v < w))
    return RotationSystem(graph, rotation)


def serialize_rotation(r: RotationSystem) -> str:
    lines = []
    for v in range(r.graph.n):
        entries = " ".join(str(w) for w in r.rotation[v])
        lines.append(f"{v}. {entries}".rstrip())
    return "\n".join(lines) + "\n"
