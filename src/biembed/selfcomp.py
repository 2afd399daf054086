"""Self-complementary graphs and biembeddings by complement reuse.

A triangular embedding of a self-complementary graph G on n vertices gives
a triangular biembedding of K_n for free: relabel the same embedding
through an antimorphism σ (an isomorphism G → complement of G) and the two
copies partition the edges of K_n.

The antimorphisms used here have one of two cyclic shapes: σ = i ↦ i + 1
mod m on 0..m−1, with m = n (the full cycle) or m = n − 1 and the fixed
point n − 1.  Under either, the whole graph is a formula in the
neighborhood N(0) of vertex 0: the rule edge(u,v) ⟺ not-edge(σu, σv)
alternates membership around each orbit of vertex pairs, σ^i maps {0, x}
to {i, i + x mod m}, and so {i, i + x} is an edge iff (x ∈ N(0)) ≠ (i odd).
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

    @property
    def cycle(self) -> int:
        # σ cycles 0..cycle − 1; a vertex left over is its fixed point
        return self.n if self.kind == FULL_CYCLE else self.n - 1


def standard_form(n: int) -> AntimorphismForm:
    """The full cycle for even n; odd orders park a fixed point."""
    return AntimorphismForm(FULL_CYCLE if n % 2 == 0 else CYCLE_PLUS_FIXED_POINT, n)


@dataclass(frozen=True)
class SeedNeighborhood:
    neighbors: frozenset[int]

    def __post_init__(self) -> None:
        if not self.neighbors:
            raise ValueError("seed neighborhood is empty")


def standard_antimorphism(form: AntimorphismForm) -> Permutation:
    m = form.cycle
    return Permutation(tuple((i + 1) % m for i in range(m)) + tuple(range(m, form.n)))


def build_from_seed(form: AntimorphismForm, seed: SeedNeighborhood) -> Graph:
    """The unique graph with vertex-0 neighborhood N(0) = seed that σ maps
    onto its own complement, m being the length of σ's cycle: {i, i + x mod
    m} is an edge iff (x ∈ N(0)) ≠ (i odd), and {i, m} with the fixed point
    iff (m ∈ N(0)) ≠ (i odd).  σ^(m−x) maps {0, x} to {0, m − x}, so the
    seed is consistent iff m is even and (x ∈ N(0)) = ((m − x ∈ N(0)) ≠
    (x odd)) for every x in 1..m−1.
    """
    n = form.n
    if (n * (n - 1) // 2) % 2 != 0:
        raise ValueError(
            f"no self-complementary graph on {n} vertices: "
            f"{n * (n - 1) // 2} edges cannot split in half"
        )
    s = seed.neighbors
    for x in s:
        if not (1 <= x <= n - 1):
            raise ValueError(f"seed vertex {x} outside 1..{n - 1}")

    m = form.cycle
    if m % 2:
        raise ValueError(f"inconsistent seed: σ has an odd cycle, of length {m}")
    for x in range(1, m):
        if (x in s) != ((m - x in s) != x % 2):
            rule = "exactly one" if x % 2 else "both or neither"
            raise ValueError(f"inconsistent seed: σ^{m - x} maps {{0, {x}}} to {{0, {m - x}}}, "
                             f"so {rule} of {x} and {m - x} must neighbor 0")
    edges = [(i, (i + x) % m) for x in range(1, m // 2 + 1) for i in range(m)
             if (x in s) != i % 2]
    if m < n:
        edges += [(i, m) for i in range(m) if (m in s) != i % 2]
    g = make_graph(n, edges)
    if not is_antimorphism(g, standard_antimorphism(form)):
        raise AssertionError("seeded graph is not self-complementary under σ")
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


_TABLES = (16, 21, 24)


def load_bundled_table(n: int) -> tuple[RotationSystem, AntimorphismForm]:
    """One of the shipped triangular self-complementary embeddings (n in
    {16, 21, 24})."""
    if n not in _TABLES:
        raise ValueError(f"no bundled table for n={n}; have {list(_TABLES)}")
    text = resources.files("biembed.data").joinpath(f"table{n}.rot").read_text()
    return parse_rotation_file(text), standard_form(n)
