"""Self-complementary graphs and biembeddings by complement reuse.

A triangular embedding of a self-complementary graph G on n vertices gives
a triangular biembedding of K_n for free: relabel the same embedding
through an antimorphism σ (an isomorphism G → complement of G) and the two
copies partition the edges of K_n.

The antimorphisms used here have one of two cyclic shapes, and under either
one the whole graph is determined by the neighborhood of vertex 0: the rule
edge(u,v) ⟺ not-edge(σu, σv) alternates membership around each orbit of
vertex pairs, and every orbit passes through a pair {0, x}.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .embeddings import RotationSystem, parse_rotation_file
from .graphs import Graph, Permutation, is_antimorphism, make_graph
from .verify import BiembeddingReport, verify_biembedding, with_stages

FULL_CYCLE = "full-cycle"
CYCLE_PLUS_FIXED_POINT = "cycle-plus-fixed-point"


@dataclass(frozen=True)
class AntimorphismForm:
    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in (FULL_CYCLE, CYCLE_PLUS_FIXED_POINT):
            raise ValueError(f"unknown antimorphism form {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")


@dataclass(frozen=True)
class SeedNeighborhood:
    neighbors: frozenset[int]

    def __post_init__(self) -> None:
        if not self.neighbors:
            raise ValueError("seed neighborhood is empty")


def standard_antimorphism(form: AntimorphismForm) -> Permutation:
    n = form.n
    if form.kind == FULL_CYCLE:
        return Permutation(tuple((i + 1) % n for i in range(n)))
    images = tuple((i + 1) % (n - 1) for i in range(n - 1)) + (n - 1,)
    return Permutation(images)


def build_from_seed(form: AntimorphismForm, seed: SeedNeighborhood) -> Graph:
    """The unique graph with the given vertex-0 neighborhood that σ maps
    onto its own complement.

    Membership propagates around each pair orbit with alternating sign; an
    odd obstruction anywhere means no graph realizes the seed.
    """
    n = form.n
    if (n * (n - 1) // 2) % 2 != 0:
        raise ValueError(
            f"no self-complementary graph on {n} vertices: "
            f"{n * (n - 1) // 2} edges cannot split in half"
        )
    for x in seed.neighbors:
        if not (1 <= x <= n - 1):
            raise ValueError(f"seed vertex {x} outside 1..{n - 1}")

    sigma = standard_antimorphism(form)
    state: dict[tuple[int, int], bool] = {}
    queue: list[tuple[int, int]] = []
    for x in range(1, n):
        state[(0, x)] = x in seed.neighbors
        queue.append((0, x))

    while queue:
        u, v = queue.pop()
        value = state[(u, v)]
        iu, iv = sigma(u), sigma(v)
        image = (min(iu, iv), max(iu, iv))
        if image in state:
            if state[image] == value:
                raise ValueError(
                    f"inconsistent seed: the orbit of pair {image} under σ "
                    "forces an edge to be both present and absent"
                )
            continue
        state[image] = not value
        queue.append(image)

    undetermined = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in state
    ]
    if undetermined:
        raise AssertionError(f"propagation left pairs undetermined: {undetermined}")

    g = make_graph(n, (p for p, present in state.items() if present))
    if not is_antimorphism(g, sigma):
        raise AssertionError("propagated graph is not self-complementary under σ")
    return g


def relabel(r: RotationSystem, p: Permutation) -> RotationSystem:
    """Rename every vertex v to p(v), carrying rotations along."""
    if p.n != r.graph.n:
        raise ValueError(f"permutation size {p.n} does not match {r.graph.n}")
    rows = [()] * r.graph.n
    for v in range(r.graph.n):
        rows[p(v)] = tuple(p(w) for w in r.rotation[v])
    graph = make_graph(r.graph.n, ((p(u), p(v)) for u, v in r.graph.edges))
    return RotationSystem(graph, tuple(rows))


def biembed_from_selfcomp(
    r: RotationSystem, p: Permutation
) -> tuple[RotationSystem, RotationSystem]:
    """Double a self-complementary embedding into a biembedding of K_n."""
    if not is_antimorphism(r.graph, p):
        raise ValueError("permutation is not an antimorphism of the embedded graph")
    return r, relabel(r, p)


def verify_table(r: RotationSystem, form: AntimorphismForm) -> BiembeddingReport:
    """Full certificate for a self-complementary triangular embedding.

    Checks the rotation system, self-complementarity under the standard
    antimorphism of the given form, and then the doubled biembedding of K_n
    (connectivity, triangularity, edge partition, genus = lower bound).
    """
    sigma = standard_antimorphism(form)
    rotation_ok = r.certificate.valid
    anti_ok = r.graph.n == sigma.n and is_antimorphism(r.graph, sigma)
    second = relabel(r, sigma) if r.graph.n == sigma.n else r
    report = verify_biembedding(r, second, r.graph.n)
    return with_stages(
        report,
        [("rotation valid", rotation_ok), ("self-complementary under σ", anti_ok)],
    )


def search_triangular(g: Graph, budget: int = 200_000) -> RotationSystem | None:
    """Backtracking search for a triangular embedding of g.

    Faces are grown as oriented triangles; each placement fixes three
    rotation corners, and a corner chain at a vertex may only close into a
    cycle once it uses the full degree.  Arcs are attacked in a fixed order
    (vertices sorted by descending degree), so runs are deterministic.
    Returns None when the node budget runs out — that is not a proof of
    nonexistence.  Raises immediately when 2|E| is not divisible by 3,
    since a triangular embedding needs exactly 2|E|/3 faces.
    """
    arc_total = 2 * len(g.edges)
    if arc_total % 3 != 0:
        raise ValueError(
            f"no triangular embedding of a graph with {len(g.edges)} edges: "
            f"{arc_total} arcs is not divisible by 3"
        )
    if not g.edges:
        return RotationSystem(g, tuple(() for _ in range(g.n)))

    rank = {
        v: i
        for i, v in enumerate(sorted(range(g.n), key=lambda v: (-g.degree(v), v)))
    }
    adj = {v: sorted(g.neighbors(v), key=lambda w: (rank[w], w)) for v in range(g.n)}
    deg = {v: g.degree(v) for v in range(g.n)}

    arcs = [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    arcs.sort(key=lambda a: (rank[a[0]], rank[a[1]]))

    succ: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    pred: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    nodes = 0

    def covered(u: int, v: int) -> bool:
        return u in succ[v]

    def closes_early(v: int, u: int, w: int) -> bool:
        # would corner u->w at v finish a rotation cycle prematurely?
        length = 1
        x = w
        while x in succ[v]:
            x = succ[v][x]
            length += 1
        return x == u and length < deg[v]

    def place(u: int, v: int, w: int) -> bool:
        corners = ((v, u, w), (w, v, u), (u, w, v))
        for vert, a, b in corners:
            if a in succ[vert] or b in pred[vert] or closes_early(vert, a, b):
                return False
        for vert, a, b in corners:
            succ[vert][a] = b
            pred[vert][b] = a
        return True

    def unplace(u: int, v: int, w: int) -> None:
        for vert, a, b in ((v, u, w), (w, v, u), (u, w, v)):
            del succ[vert][a]
            del pred[vert][b]

    def dfs() -> bool:
        nonlocal nodes
        target = None
        for a in arcs:
            if not covered(*a):
                target = a
                break
        if target is None:
            return True
        u, v = target
        for w in adj[v]:
            if w == u or not g.has_edge(w, u):
                continue
            nodes += 1
            if nodes > budget:
                return False
            if place(u, v, w):
                if dfs():
                    return True
                unplace(u, v, w)
            if nodes > budget:
                return False
        return False

    if not dfs():
        return None

    rows = []
    for v in range(g.n):
        start = adj[v][0] if adj[v] else None
        row: list[int] = []
        if start is not None:
            x = start
            while True:
                row.append(x)
                x = succ[v][x]
                if x == start:
                    break
        rows.append(tuple(row))
    return RotationSystem(g, tuple(rows))


_TABLE_FORMS = {
    16: FULL_CYCLE,
    21: CYCLE_PLUS_FIXED_POINT,
    24: FULL_CYCLE,
}


def load_bundled_table(n: int) -> tuple[RotationSystem, AntimorphismForm]:
    """One of the shipped triangular self-complementary embeddings (n in
    {16, 21, 24})."""
    if n not in _TABLE_FORMS:
        raise ValueError(f"no bundled table for n={n}; have {sorted(_TABLE_FORMS)}")
    text = resources.files("biembed.data").joinpath(f"table{n}.rot").read_text()
    return parse_rotation_file(text), AntimorphismForm(_TABLE_FORMS[n], n)
