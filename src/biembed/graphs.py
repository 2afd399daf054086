"""Simple graphs on vertex set 0..n-1, circulants, complements, permutations.

Edges are stored canonically as (u, v) with u < v so that graphs compare
and serialize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


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

    def neighbors(self, v: int) -> set[int]:
        out: set[int] = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


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
        for d in self.x:
            if not (1 <= d <= self.n // 2):
                raise ValueError(
                    f"difference {d} outside 1..{self.n // 2} for modulus {self.n}"
                )
            if self.n % 2 == 0 and d == self.n // 2:
                raise ValueError(
                    f"difference {d} equals n/2 for even modulus {self.n}; "
                    "the two directions coincide"
                )


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

    def compose(self, other: Permutation) -> Permutation:
        """self ∘ other: first apply other, then self."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


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


class Chains:
    """A partial permutation on the items 0..len(group)-1, grown one link at
    a time and undone last link first.

    Item i lies in group ``group[i]``, and group g has ``size[g]`` items.  A
    link that would close a cycle is refused unless the cycle holds all
    items of its group, so a group is paths until it is one full cycle.
    ``succ``/``pred`` are -1 where unset; at each end of a path, ``end``
    holds the item at its other end.
    """

    def __init__(self, group: list[int], size: list[int]) -> None:
        self.succ = [-1] * len(group)
        self.pred = [-1] * len(group)
        self.end = list(range(len(group)))
        self.group = group
        self.free = list(size)  # links each group can still take
        self.log: list[tuple[int, int, int, int]] = []

    def link(self, a: int, b: int) -> bool:
        """Make b the successor of a; False, changing nothing, if a already
        has a successor, b a predecessor, or the link closes a cycle that
        leaves out part of the group."""
        if self.succ[a] >= 0 or self.pred[b] >= 0:
            return False
        end = self.end
        s, e = end[a], end[b]  # the start of a's path, the end of b's
        if s == b and self.free[self.group[a]] > 1:
            return False
        self.succ[a] = b
        self.pred[b] = a
        end[s] = e
        end[e] = s
        self.free[self.group[a]] -= 1
        self.log.append((a, b, s, e))
        return True

    def unlink(self) -> None:
        """Undo the latest link that is still in place."""
        a, b, s, e = self.log.pop()
        self.succ[a] = self.pred[b] = -1
        self.end[s] = a
        self.end[e] = b
        self.free[self.group[a]] += 1


def backtrack(chains: Chains, order: list[int], moves, budget: int):
    """Depth-first search for a full set of links, without recursion.

    The target is the first item of ``order`` without a successor; each of
    ``moves(target)``, a sequence of (a, b) links, is tried in turn and
    applied all or none.  Every move tried costs one node.  Returns the moves
    made, in order, once every item of ``order`` has a successor; None when
    the search is exhausted or would spend more than ``budget`` nodes.
    """
    succ, log, link, unlink = chains.succ, chains.log, chains.link, chains.unlink
    made: list = []
    frames: list = []  # (untried moves, target position) below each move made
    nodes = pos = 0
    while True:
        while pos < len(order) and succ[order[pos]] >= 0:
            pos += 1
        if pos == len(order):
            return made
        tries = iter(moves(order[pos]))
        while True:
            move = next(tries, None)
            if move is None:
                if not made:
                    return None
                tries, pos = frames.pop()
                for _ in made.pop():
                    unlink()
                continue
            nodes += 1
            if nodes > budget:
                return None
            mark = len(log)
            for a, b in move:
                if not link(a, b):
                    while len(log) > mark:
                        unlink()
                    break
            else:
                break
        frames.append((tries, pos))
        made.append(move)


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    if p.n != g.n:
        raise ValueError(f"permutation size {p.n} does not match graph order {g.n}")
    return make_graph(g.n, ((p(u), p(v)) for u, v in g.edges))


def is_antimorphism(g: Graph, p: Permutation) -> bool:
    """True iff p maps g onto its edge-complement."""
    if p.n != g.n:
        raise ValueError(f"permutation size {p.n} does not match graph order {g.n}")
    return apply_permutation(g, p) == complement(g)


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


def circulant_is_connected(d: DifferenceSet) -> bool:
    """gcd test: C(n, X) is connected iff gcd(X ∪ {n}) = 1."""
    g = d.n
    for x in d.x:
        g = gcd(g, x)
    return g == 1
