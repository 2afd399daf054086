"""Simple graphs on vertex set 0..n-1, circulants, complements, permutations.

Edges are stored canonically as (u, v) with u < v so that graphs compare
and serialize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of vertex pairs, normalizing order."""
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        canon.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(canon))


def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


@dataclass(frozen=True)
class DifferenceSet:
    """A set of differences X ⊆ {1, ..., ⌊n/2⌋} over the cyclic group Z_n.

    For even n the value n/2 is rejected: the pairs i ± n/2 coincide, which
    would silently halve the degree of the circulant it generates.
    """

    n: int
    x: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        x, half = self.x, self.n // 2
        if x and (min(x) < 1 or max(x) > half):
            d = min(x) if min(x) < 1 else max(x)
            raise ValueError(f"difference {d} outside 1..{half} for modulus {self.n}")
        if self.n % 2 == 0 and half in x:
            raise ValueError(
                f"difference {half} equals n/2 for even modulus {self.n}; "
                "the two directions coincide"
            )


def partition_overlap(x1: DifferenceSet, x2: DifferenceSet) -> list[int] | None:
    """None when X₁ and X₂, over one modulus n, partition {1..⌊n/2⌋}; else
    the labels they share, sorted, which is empty when they are disjoint but
    leave a label out."""
    shared = x1.x & x2.x
    if not shared and len(x1.x) + len(x2.x) == x1.n // 2:
        return None
    return sorted(shared)


def make_circulant(d: DifferenceSet) -> Graph:
    """The circulant graph C(n, X): vertex i adjacent to i ± x mod n, x ∈ X."""
    n = d.n
    # i ~ i + x without wrapping, and j ~ j + n - x for the pairs that wrap;
    # no two coincide, since every x is below n/2
    return Graph(n, frozenset(
        [(i, i + x) for x in d.x for i in range(n - x)]
        + [(j, j + n - x) for x in d.x for j in range(x)]
    ))


def complement(g: Graph) -> Graph:
    all_pairs = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)}
    return Graph(g.n, frozenset(all_pairs - g.edges))


def spans_all(adj) -> bool:
    """True iff a search from vertex 0 along the lists adj[v] of neighbors
    reaches all len(adj) vertices (vacuously true for none)."""
    if not adj:
        return True
    seen = bytearray(len(adj))
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    return reached == len(adj)


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (vacuously true for n = 0)."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return spans_all(adj)


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images do not form a bijection on 0..n-1")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]


def cycles(phi: list[int], starts):
    """The cycles of the permutation phi of 0..len(phi)-1 as lists, each
    begun at its first element in ``starts``, in that order."""
    seen = bytearray(len(phi))
    for d in starts:
        if seen[d]:
            continue
        orbit = []
        while not seen[d]:
            seen[d] = 1
            orbit.append(d)
            d = phi[d]
        yield orbit


def is_antimorphism(g: Graph, p: Permutation) -> bool:
    """True iff p maps g onto its edge-complement: as p permutes the pairs,
    iff E holds half of them and no edge's image is an edge, in O(|E|)."""
    if p.n != g.n:
        raise ValueError(f"permutation size {p.n} does not match graph order {g.n}")
    images, edges = p.images, g.edges
    return 4 * len(edges) == g.n * (g.n - 1) and edges.isdisjoint(
        (a, b) if a < b else (b, a) for u, v in edges for a, b in [(images[u], images[v])]
    )


def parse_graph_file(text: str) -> Graph:
    """Parse the graph text format: first line n, then one `u v` edge per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
    return make_graph(n, edges)


def rows_in_label_order(rows: dict[int, tuple]) -> tuple[tuple, ...]:
    """The rows of a parsed file, which must be labelled 0..len(rows)-1;
    names the first missing labels in time bounded by len(rows)."""
    if not rows:
        raise ValueError("no vertex rows")
    n, top = len(rows), max(rows)
    if min(rows) < 0:
        raise ValueError(f"negative vertex label {min(rows)}")
    if top >= n:
        # distinct labels >= 0, so 0..n+2 holds at least three missing ones
        shown = [str(v) for v in range(min(top, n + 2) + 1) if v not in rows][:3]
        more = ", ..." if top + 1 - n > len(shown) else ""
        raise ValueError(
            f"missing rows for {top + 1 - n} of vertices 0..{top}: {', '.join(shown)}{more}"
        )
    return tuple(rows[v] for v in range(n))


def serialize_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
