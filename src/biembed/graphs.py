"""Simple graphs on vertex set 0..n-1, circulants, complements, permutations.

Edges are stored canonically as (u, v) with u < v so that graphs compare
and serialize deterministically.
"""

from __future__ import annotations

import sys
from array import array
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


def field_width(top: int) -> int:
    """The fewest of 8, 16, 32, 64 bits whose top bit is above ``top``."""
    return next(w for w in (8, 16, 32, 64) if top < 1 << (w - 1))


def pack(values, width: int) -> int:
    """One int holding values[i] in the ``width``-bit field i."""
    fields = array(_TYPECODES[width], values)
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields, "little")


def unpack(packed: int, count: int, width: int) -> array:
    """The ``count`` fields of ``pack``, as an array."""
    fields = array(_TYPECODES[width], packed.to_bytes(count * width // 8, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


_TYPECODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def indicator(items, count: int, width: int) -> int:
    """``pack`` of ``count`` fields: 1 for each of ``items``, 0 elsewhere."""
    size = width // 8
    flags = bytearray(count * size)
    for i in items:
        flags[i * size] = 1  # the low byte of field i
    return int.from_bytes(flags, "little")


def translates(items, count: int, width: int):
    """y -> the ``indicator`` of items + y mod ``count``: the ``Chains.hit``
    of a relation on Z_count that is invariant under translation."""
    one = indicator(items, count, width)
    twice = one | one << width * count
    mask = (1 << width * count) - 1
    return lambda y: twice >> width * (count - y) & mask


class Chains:
    """A partial permutation on the items 0..len(group)-1, grown one link at
    a time and undone last link first.

    Item i lies in group ``group[i]``, and group g has ``size[g]`` items.  A
    link that would close a cycle is refused unless the cycle holds all
    items of its group, so a group is paths until it is one full cycle.
    ``succ``/``pred`` are -1 where unset; at each end of a path, ``end``
    holds the item at its other end.  ``taken`` and ``early`` count links
    refused as taken and as closing a cycle early.

    Each item has a count: at first ``counts[i]``, the number of its
    candidate successors, less one for each candidate that takes a
    predecessor.  ``self.counts`` packs them in ``width``-bit fields, with
    the top bit ``cover`` set in the field of each item that has a successor
    or is listed in ``covered``, so ``least`` passes over those items.  The
    caller sets ``hit(b)`` to the ``indicator`` of the items that have b as
    a candidate, in fields ``width`` bits wide (``translates`` builds it for
    a relation invariant under translation), so a link moves every count in
    O(1) int operations.
    """

    def __init__(self, group: list[int], size: list[int], counts, covered=()) -> None:
        self.succ = [-1] * len(group)
        self.pred = [-1] * len(group)
        self.end = list(range(len(group)))
        self.group = group
        self.free = list(size)  # links each group can still take
        self.log: list[tuple[int, int, int, int]] = []
        self.width = field_width(max(counts, default=0))
        self.cover = 1 << (self.width - 1)
        covers = indicator(covered, len(group), self.width) << self.width - 1
        self.counts = pack(counts, self.width) + covers
        self.hit = None
        self.taken = self.early = 0

    def link(self, a: int, b: int) -> bool:
        """Make b the successor of a; False, changing nothing, if a already
        has a successor, b a predecessor, or the link closes a cycle that
        leaves out part of the group."""
        if self.succ[a] >= 0 or self.pred[b] >= 0:
            self.taken += 1
            return False
        end = self.end
        s, e = end[a], end[b]  # the start of a's path, the end of b's
        if s == b and self.free[self.group[a]] > 1:
            self.early += 1
            return False
        self.succ[a] = b
        self.pred[b] = a
        end[s] = e
        end[e] = s
        self.free[self.group[a]] -= 1
        self.counts += (self.cover << self.width * a) - self.hit(b)
        self.log.append((a, b, s, e))
        return True

    def unlink(self) -> None:
        """Undo the latest link that is still in place."""
        a, b, s, e = self.log.pop()
        self.succ[a] = self.pred[b] = -1
        self.end[s] = a
        self.end[e] = b
        self.free[self.group[a]] += 1
        self.counts -= (self.cover << self.width * a) - self.hit(b)

    def least(self) -> tuple[int, int]:
        """The first item whose field is least, and that field: at least
        ``cover`` once every item has a successor."""
        if self.width == 8:  # a byte a field: find each value from 0 up, in C
            data = self.counts.to_bytes(len(self.succ), "little")
            for low in range(self.cover):
                at = data.find(low)
                if at >= 0:
                    return at, low
            return 0, self.cover
        fields = unpack(self.counts, len(self.succ), self.width)
        low = min(fields)
        return fields.index(low), low


@dataclass
class SearchStats:
    """Counters of ``backtrack`` runs, summed: moves tried, links refused
    (``Chains.taken``, ``Chains.early``), targets with a count of 0, the
    most moves held at once, and whether a run hit its budget."""

    nodes: int = 0
    taken: int = 0
    early: int = 0
    dead_ends: int = 0
    max_depth: int = 0
    budget_hit: bool = False


def backtrack(chains: Chains, moves, budget: int, stats: SearchStats | None = None):
    """Depth-first search for a full set of links, without recursion.

    The target is the first item without a successor whose count is least
    (Knuth's fewest-options rule, Dancing Links).  Each of
    ``moves(target)``, a sequence of (a, b) links, is tried in turn and
    applied all or none.  Every move tried costs one node; a count of 0 is
    a dead end that costs none.  No solution is lost while each count bounds
    the item's moves whose links can all be made.  Returns the moves made,
    in order, once every item has a successor; None when the search is
    exhausted or would spend more than ``budget`` nodes; raises ValueError
    unless ``budget`` is positive.  Adds the run's counters to ``stats``.
    """
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    log, link, unlink, least = chains.log, chains.link, chains.unlink, chains.least
    made: list = []
    frames: list = []  # the untried moves below each move made
    nodes = dead_ends = depth = 0
    over = False
    try:
        while True:
            target, count = least()
            if count >= chains.cover:
                return made
            if count:
                tries = iter(moves(target))
            else:
                dead_ends += 1
                tries = iter(())
            while True:
                move = next(tries, None)
                if move is None:
                    if not made:
                        return None
                    tries = frames.pop()
                    for _ in made.pop():
                        unlink()
                    continue
                if nodes == budget:
                    over = True
                    return None
                nodes += 1
                mark = len(log)
                for a, b in move:
                    if not link(a, b):
                        while len(log) > mark:
                            unlink()
                        break
                else:
                    break
            frames.append(tries)
            made.append(move)
            if len(made) > depth:
                depth = len(made)
    finally:
        if stats is not None:
            stats.nodes += nodes
            stats.taken += chains.taken
            stats.early += chains.early
            stats.dead_ends += dead_ends
            stats.max_depth = max(stats.max_depth, depth)
            stats.budget_hit = stats.budget_hit or over


def is_antimorphism(g: Graph, p: Permutation) -> bool:
    """True iff p maps g onto its edge-complement."""
    if p.n != g.n:
        raise ValueError(f"permutation size {p.n} does not match graph order {g.n}")
    return make_graph(g.n, ((p(u), p(v)) for u, v in g.edges)) == complement(g)


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
