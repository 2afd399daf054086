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


def widen(data, width: int) -> int:
    """``pack`` of the byte values ``data``, with no Python-level loop."""
    size = width // 8
    fields = bytearray(len(data) * size)
    fields[::size] = data  # the low byte of each field
    return int.from_bytes(fields, "little")


def indicator(items, count: int, width: int) -> int:
    """``pack`` of ``count`` fields: 1 for each of ``items``, 0 elsewhere."""
    flags = bytearray(count)
    for i in items:
        flags[i] = 1
    return widen(flags, width)


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
    refused as taken and as closing a cycle early.  Once every link of a
    move holds, ``place`` asks ``_admit`` before any count changes; a
    subclass refuses a move there, and counts it in ``starved``.

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
        # 1 in every field, and the top bit of every field
        self.ones = int.from_bytes((1).to_bytes(self.width // 8, "little") * len(group), "little")
        self.highs = self.ones << self.width - 1
        covers = indicator(covered, len(group), self.width) << self.width - 1
        self.counts = pack(counts, self.width) + covers
        self.hit = lru_cache(max(1, (1 << 23) // (len(group) * self.width or 1)))(hits(self.width))
        self.taken = self.early = self.starved = 0

    def place(self, move) -> bool:
        """Make every link of ``move``, in order, and change the counts;
        False, changing nothing but ``taken``, ``early`` or what ``_admit``
        counts, if a link is taken or closes early or ``_admit`` refuses."""
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
            break
        else:
            if self._admit(move):
                self.counts += self._delta(move)
                self.log.append((move, ends))
                return True
        self._unlink(move[: len(ends) // 2], ends)
        return False

    def _admit(self, move) -> bool:
        """Whether to keep ``move``, its links made and no count changed yet."""
        return True

    def _delta(self, move) -> int:
        """What ``move`` adds to ``counts``: the cover bit of each link's
        tail, less the hit of its head."""
        hit, width, cover = self.hit, self.width, self.cover
        delta = 0
        for a, b in move:
            delta += (cover << width * a) - hit(b)
        return delta

    def lift(self) -> None:
        """Undo the latest move still in place."""
        move, ends = self.log.pop()
        # recomputed from the cache: a logged delta is O(n) bytes per move held
        self.counts -= self._delta(move)
        self._unlink(move, ends)

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
        ``cover`` once every item has a successor.

        A byte a field: each value from 0 up is looked for in C.  Wider:
        ``(counts - t * ones) & ~counts & highs`` flags the fields below t,
        for t up to ``cover``.  Only a borrow from a flagged field can flag
        the field above it wrongly, so the lowest flag is exact, and t is
        bisected over [0, cover]: ``width`` int operations a call, where a
        pass over the fields would unpack and scan every one.
        """
        counts = self.counts
        if self.width == 8:
            data = counts.to_bytes(len(self.succ), "little")
            for low in range(self.cover):
                at = data.find(low)
                if at >= 0:
                    return at, low
            return 0, self.cover
        clear = ~counts & self.highs  # the fields below cover
        if not clear:
            return 0, self.cover
        ones = self.ones
        # no field is below lo; the lowest of ``flags`` is the first below hi
        lo, hi, flags = 0, self.cover, clear
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fewer := (counts - mid * ones) & clear:
                hi, flags = mid, fewer
            else:
                lo = mid
        return (flags ^ flags - 1).bit_length() // self.width - 1, lo


class ZeroSumChains(Chains):
    """``Chains`` on the items Z_n, n odd, whose moves place zero-sum
    triples of ``elements``, a set closed under negation; a move's link
    tails are the three elements it places.  Items outside ``elements``
    start covered.  ``counts`` are the candidate counts, which for a triple
    search are the autocorrelation of ``elements``; a link to y lowers the
    counts of y + ``elements``.

    ``live`` packs, in the chains' fields, the live pairs of each unplaced
    element a: the pairs {b, c} of unplaced elements with a + b + c ≡ 0,
    b ≠ c, and b, c ≠ a.  Placing triples only takes pairs away, so an
    element left with none can never be placed: ``_admit`` refuses such a
    move inside ``Chains.place``, before it changes a count, so it is never
    lifted, and counts it in ``starved`` (forward checking; Haralick and
    Elliott, 1980).  The fields of the other items hold the cover bit.
    """

    def __init__(self, n: int, elements, counts) -> None:
        member = bytearray(n)
        for e in elements:
            member[e] = 1
        super().__init__(bytearray(n), [len(elements)], counts,  # one group
                         lambda width: translates(elements, n, width))
        w, half = self.width, (n + 1) // 2  # 2 * half ≡ 1
        self.n, self.member, self.half = n, member, half
        unplaced = widen(member, w)  # U, the elements without a successor
        # the ordered pairs of elements with b + c ≡ -a are counted at -a,
        # which is counts[a] as E = -E; less b = c = -a/2, and b or c = a
        # with the other -2a.  When 3a ≡ 0 these three are the one pair (a, a)
        pairs = self.counts & unplaced * ((1 << w) - 1)
        doubled = bytearray(n)  # 2E = -2E: field 2e is e's
        doubled[::2], doubled[1::2] = member[:half], member[half:]
        pairs -= widen(doubled, w) & unplaced
        pairs -= 2 * (widen(member[::2] + member[1::2], w) & unplaced)  # E / 2
        if n % 3 == 0:
            for a in (n // 3, 2 * n // 3):
                pairs += 2 * member[a] << w * a
        outside = self.highs - (unplaced << w - 1)  # the cover bit
        self.counts += outside
        self.live = (pairs >> 1) + outside

    def _admit(self, move) -> bool:
        """False, counting it in ``starved``, if the links leave an unplaced
        element with no live pair."""
        live = self.live - self._loss(move)
        if (live - self.ones) & ~live & self.highs:  # a field is 0
            self.starved += 1
            return False
        self.live = live
        return True

    def lift(self) -> None:
        self.live += self._loss(self.log[-1][0])  # recomputed, as Chains.lift's delta
        super().lift()

    def _loss(self, move) -> int:
        """The live pairs that the elements ``move`` places take from U
        after the move, less their own cover bits: the same with its links
        made, before its counts change or after."""
        w, n, member, succ = self.width, self.n, self.member, self.succ
        covers = 0
        for a, _ in move:
            covers += self.cover << w * a
        u = (~(self.counts | covers) & self.highs) >> w - 1  # U after the move
        # -U: reversed, field i is 1 << w - 8 when n - 1 - i is in U; << 8 makes it field i + 1
        neg = int.from_bytes(u.to_bytes(w // 8 * n, "little")[::-1], "little") << 8
        twice = neg | neg << w * n
        # x in U loses {a, -x-a} when -x-a is in U: -U rotated by a.  No such
        # -x-a is another of the triple, so one U serves for all three
        lost = -covers
        for a, _ in move:
            lost += twice >> w * a & u
            x = (n - a) * self.half % n  # -x-a is x itself: no pair
            if member[x] and succ[x] < 0:
                lost -= 1 << w * x
        return lost


@dataclass
class SearchStats:
    """Counters of ``backtrack`` runs, summed: moves tried, links refused
    (``Chains.taken``, ``Chains.early``), targets with a count of 0, the
    most moves held at once, whether a run hit its budget, moves refused
    before any count changed as they would starve an item
    (``Chains.starved``), and the moves tried with d moves held, at index d."""

    nodes: int = 0
    taken: int = 0
    early: int = 0
    dead_ends: int = 0
    max_depth: int = 0
    budget_hit: bool = False
    starved: int = 0
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
            stats.starved += chains.starved
            stats.dead_ends += dead_ends
            stats.max_depth = max(stats.max_depth, len(per_depth) - 1)
            stats.budget_hit = stats.budget_hit or over
            stats.per_depth.extend([0] * (len(per_depth) - len(stats.per_depth)))
            for depth, tried in enumerate(per_depth):
                stats.per_depth[depth] += tried
