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
from .graphs import Chains, Graph, Permutation, backtrack, cycles, is_antimorphism, make_graph
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
    rotation corners.  The rotation is a ``graphs.Chains`` on the darts,
    grouped by vertex, so a corner chain at a vertex may only close into a
    cycle once it uses the full degree.  The driver is ``graphs.backtrack``,
    shared with ``family.search_pair``.  Arcs are attacked in a fixed order
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

    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    by_rank = sorted(range(g.n), key=lambda v: (-len(nbrs[v]), v))
    rank = {v: i for i, v in enumerate(by_rank)}
    adj = [sorted(nbrs[v], key=rank.__getitem__) for v in range(g.n)]

    # the darts v -> w, numbered by v and then in adj[v] order
    owner = [v for v, row in enumerate(adj) for _ in row]
    head = [w for row in adj for w in row]
    dart: list[dict[int, int]] = [{} for _ in adj]
    for d, v in enumerate(owner):
        dart[v][head[d]] = d
    chains = Chains(owner, [len(row) for row in adj])

    def moves(d: int):
        # d is v -> u, with no rotation successor yet: close a face u -> v -> w
        v, u = owner[d], head[d]
        at_u, at_v = dart[u], dart[v]
        return [
            ((d, at_v[w]), (dart[w][v], dart[w][u]), (at_u[w], at_u[v]))
            for w in adj[v]
            if w != u and w in nbrs[u]
        ]

    # arcs (u, v) by rank of u, then of v; arc (u, v) is covered once the
    # dart v -> u has a successor at v
    order = [dart[v][u] for u in by_rank for v in adj[u]]
    if backtrack(chains, order, moves, budget) is None:
        return None
    rows = [()] * g.n
    for orbit in cycles(chains.succ, range(len(owner))):
        rows[owner[orbit[0]]] = tuple(head[d] for d in orbit)
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
