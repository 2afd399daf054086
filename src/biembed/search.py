"""The backtracking core of ``family.search_pair`` and
``selfcomp.search_triangular``, imported only when a search runs."""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache


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
    """y -> the ``indicator`` of items + y mod ``count``: the hit of a
    relation on Z_count that is invariant under translation (see ``Chains``)."""
    one = indicator(items, count, width)
    twice = one | one << width * count
    mask = (1 << width * count) - 1
    return lambda y: twice >> width * (count - y) & mask


class Chains:
    """A partial permutation on the items 0..len(group)-1, grown one move at
    a time and undone last move first.

    A move is a sequence of links (a, b), each making b the successor of a;
    ``place`` makes all of them or none, and ``lift`` undoes the latest move
    in place.  Item i lies in group ``group[i]``, and group g has ``size[g]``
    items.  A link that would close a cycle is refused unless the cycle holds
    all items of its group, so a group is paths until it is one full cycle.
    ``succ``/``pred`` are -1 where unset; at each end of a path, ``end``
    holds the item at its other end.  ``taken`` and ``early`` count links
    refused as taken and as closing a cycle early.

    Each item has a count: at first ``counts[i]``, the number of its
    candidate successors, less one for each candidate that takes a
    predecessor.  ``self.counts`` packs them in ``width``-bit fields, with
    the top bit ``cover`` set in the field of each item that has a successor
    or is listed in ``covered``, so ``least`` passes over those items.
    ``hits(width)`` maps b to the ``indicator`` of the items that have b as
    a candidate (``translates`` builds it for a relation invariant under
    translation); its ints are cached, about 1 MB of them, so a move changes
    every count in O(1) int operations a link.
    """

    def __init__(self, group: list[int], size: list[int], counts, hits, covered=()) -> None:
        self.succ = [-1] * len(group)
        self.pred = [-1] * len(group)
        self.end = list(range(len(group)))
        self.group = group
        self.free = list(size)  # links each group can still take
        self.log: list[tuple] = []  # (move, the ends joined by each link) per move
        self.width = field_width(max(counts, default=0))
        self.cover = 1 << (self.width - 1)
        covers = indicator(covered, len(group), self.width) << self.width - 1
        self.counts = pack(counts, self.width) + covers
        self.hit = lru_cache(max(1, (1 << 23) // (len(group) * self.width or 1)))(hits(self.width))
        self.taken = self.early = 0

    def place(self, move) -> bool:
        """Make every link of ``move``, in order; False, changing nothing
        but ``taken`` or ``early``, if a link is taken or closes early."""
        succ, pred, end, free, group = self.succ, self.pred, self.end, self.free, self.group
        ends: list[int] = []
        for a, b in move:
            if succ[a] >= 0 or pred[b] >= 0:
                self.taken += 1
            elif end[a] == b and free[group[a]] > 1:
                self.early += 1
            else:
                s, e = end[a], end[b]  # the start of a's path, the end of b's
                succ[a], pred[b] = b, a
                end[s], end[e] = e, s
                free[group[a]] -= 1
                ends += s, e
                continue
            self._unlink(move[: len(ends) // 2], ends)
            return False
        hit, width, cover = self.hit, self.width, self.cover
        delta = 0
        for a, b in move:
            delta += (cover << width * a) - hit(b)
        self.counts += delta
        self.log.append((move, ends))
        return True

    def lift(self) -> None:
        """Undo the latest move still in place."""
        move, ends = self.log.pop()
        self._unlink(move, ends)
        # recomputed from the cache: a logged delta is O(n) bytes per move held
        hit, width, cover = self.hit, self.width, self.cover
        delta = 0
        for a, b in move:
            delta += (cover << width * a) - hit(b)
        self.counts -= delta

    def _unlink(self, links, ends: list[int]) -> None:
        """Undo ``links``, made in order with ``ends``, last first."""
        succ, pred, end, free, group = self.succ, self.pred, self.end, self.free, self.group
        i = len(ends)
        for a, b in reversed(links):
            i -= 2
            succ[a] = pred[b] = -1
            end[ends[i]], end[ends[i + 1]] = a, b
            free[group[a]] += 1

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
    most moves held at once, whether a run hit its budget, and the moves
    tried with d moves held, at index d."""

    nodes: int = 0
    taken: int = 0
    early: int = 0
    dead_ends: int = 0
    max_depth: int = 0
    budget_hit: bool = False
    per_depth: list[int] = field(default_factory=list, compare=False)


def backtrack(chains: Chains, moves, budget: int, stats: SearchStats | None = None):
    """Depth-first search for a full set of links, without recursion.

    The target is the first item without a successor whose count is least
    (Knuth's fewest-options rule, Dancing Links).  Each of
    ``moves(target)``, a sequence of moves, is tried in turn: one
    ``Chains.place`` a node, and one ``Chains.lift`` to take a move back.
    A count of 0 is a dead end that costs no node.  No solution is lost
    while each count bounds the item's moves that ``place`` would make.
    Returns the moves made, in order, once every item has a successor; None
    when the search is exhausted or would spend more than ``budget`` nodes;
    raises ValueError unless ``budget`` is positive.  Adds the run's
    counters to ``stats``.
    """
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    place, lift, least = chains.place, chains.lift, chains.least
    frames: list = []  # the untried moves below each move made
    per_depth = [0]
    nodes = dead_ends = 0
    over = False
    try:
        while True:
            target, count = least()
            if count >= chains.cover:
                return [move for move, _ in chains.log]
            tries = iter(moves(target) if count else ())  # a count of 0: a dead end
            dead_ends += not count
            while True:
                move = next(tries, None)
                if move is None:
                    if not frames:
                        return None
                    tries = frames.pop()
                    lift()
                    continue
                if nodes == budget:
                    over = True
                    return None
                nodes += 1
                per_depth[len(frames)] += 1
                if place(move):
                    break
            frames.append(tries)
            if len(frames) == len(per_depth):
                per_depth.append(0)
    finally:
        if stats is not None:
            stats.nodes += nodes
            stats.taken += chains.taken
            stats.early += chains.early
            stats.dead_ends += dead_ends
            stats.max_depth = max(stats.max_depth, len(per_depth) - 1)
            stats.budget_hit = stats.budget_hit or over
            stats.per_depth.extend([0] * (len(per_depth) - len(stats.per_depth)))
            for depth, tried in enumerate(per_depth):
                stats.per_depth[depth] += tried
