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
from functools import partial
from importlib import resources
from typing import TYPE_CHECKING

from .embeddings import RotationSystem, parse_rotation_file
from .graphs import Graph, Permutation, cycles, is_antimorphism, make_graph
from .verify import BiembeddingReport, biembedding_report, with_stages

if TYPE_CHECKING:
    from .search import SearchStats

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
    n = len(r.rotation)
    if p.n != n:
        raise ValueError(f"permutation size {p.n} does not match {n}")
    rows = [()] * n
    for v, row in enumerate(r.rotation):
        if row and (min(row) < 0 or max(row) >= n):
            w = next(w for w in row if not 0 <= w < n)
            raise ValueError(f"row {v} lists {w}, outside 0..{n - 1}")
        rows[p(v)] = tuple(p(w) for w in row)
    return RotationSystem(tuple(rows))


def verify_table(r: RotationSystem, form: AntimorphismForm) -> BiembeddingReport:
    """Full certificate for a self-complementary triangular embedding.

    The second half is r relabelled through the standard antimorphism σ of
    the given form: an isomorphic embedding, so r's certificate serves for
    both halves, and the two partition E(K_n) exactly when σ maps r's graph
    onto its complement, which is the σ stage.
    """
    sigma = standard_antimorphism(form)
    cert = r.certificate
    anti_ok = len(r.rotation) == sigma.n and is_antimorphism(r.graph, sigma)
    return with_stages(
        biembedding_report(len(r.rotation), cert, cert, anti_ok),
        [("rotation valid", cert.valid), ("self-complementary under σ", anti_ok)],
    )


def search_triangular(
    g: Graph, budget: int = 200_000, stats: SearchStats | None = None
) -> RotationSystem | None:
    """Backtracking search for a triangular embedding of g.

    Faces are grown as oriented triangles; each placement fixes three
    rotation corners.  The rotation is a ``search.Chains`` on the darts,
    grouped by vertex, so a corner chain at a vertex may only close into a
    cycle once it uses the full degree.  The driver is ``search.backtrack``,
    shared with ``family.search_pair``: it closes next a face at the dart
    with the fewest candidate successors left, where the candidates of
    v -> u are the darts v -> w with w adjacent to both.  Its faces are
    tried with w by descending degree, so runs are deterministic, and only
    those whose three corners are all free: no node is spent on a face
    that ``Chains.place`` would refuse as taken.  Returns None when the
    node budget runs out — that is not a proof of nonexistence.  Raises
    immediately when 2|E| is not divisible by 3, since a triangular
    embedding needs exactly 2|E|/3 faces.  The run's counters are added to
    ``stats`` when it is given.
    """
    arc_total = 2 * len(g.edges)
    if arc_total % 3 != 0:
        raise ValueError(
            f"no triangular embedding of a graph with {len(g.edges)} edges: "
            f"{arc_total} arcs is not divisible by 3"
        )
    if not g.edges:
        return RotationSystem(tuple(() for _ in range(g.n)))

    from .search import Chains, backtrack, indicator

    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    by_rank = sorted(range(g.n), key=lambda v: (-len(nbrs[v]), v))
    rank = {v: i for i, v in enumerate(by_rank)}
    adj = [sorted(nbrs[v], key=rank.__getitem__) for v in range(g.n)]

    # the darts v -> u, numbered by the rank of u and then of v: among the
    # darts of least count, the search takes the lowest numbered
    head = [u for u in by_rank for _ in adj[u]]
    owner = [v for u in by_rank for v in adj[u]]
    dart: list[dict[int, int]] = [{} for _ in adj]
    for d, v in enumerate(owner):
        dart[v][head[d]] = d
    counts = [len(nbrs[v] & nbrs[u]) for v, u in zip(owner, head)]

    def hit(width: int, y: int) -> int:
        # y is v -> w, a candidate of each v -> u with u adjacent to w
        v, w = owner[y], head[y]
        return indicator((dart[v][u] for u in nbrs[v] & nbrs[w]), len(owner), width)

    chains = Chains(owner, [len(row) for row in adj], counts, lambda width: partial(hit, width))
    succ, pred = chains.succ, chains.pred

    def moves(d: int):
        # d is v -> u, with no rotation successor yet: close a face u -> v -> w
        # if its five other dart ends are free, as place would refuse it else
        v, u = owner[d], head[d]
        at_u, at_v, uv = dart[u], dart[v], dart[u][v]
        return [] if pred[uv] >= 0 else [
            ((d, vw), (wv, wu), (uw, uv))
            for w in adj[v] if w in nbrs[u]
            for vw, wv, wu, uw in [(at_v[w], dart[w][v], dart[w][u], at_u[w])]
            if pred[vw] < 0 and succ[wv] < 0 and pred[wu] < 0 and succ[uw] < 0
        ]

    if backtrack(chains, moves, budget, stats) is None:
        return None
    rows = [()] * g.n
    for orbit in cycles(chains.succ, range(len(owner))):
        rows[owner[orbit[0]]] = tuple(head[d] for d in orbit)
    return RotationSystem(tuple(rows))


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
