"""The infinite family of triangular biembeddings of K_{24s+13}.

For every s ≥ 1 the labels {1, ..., 12s+6} split into two sets of size 6s+3,
and each set is realized as the current set of a one-face cubic current
graph over Z_{24s+13}.  The two derived embeddings are triangular embeddings
of complementary circulants, so together they biembed K_{24s+13} in genus
24s² + 13s + 1, which meets the lower bound exactly.

The current-graph pair comes from a parameterized template, ``_template``:
a rim cycle on 4s+2 slots plus value-matched chords.  ``search_pair``
reconstructs a valid pair from scratch by backtracking, an independent
witness that such pairs exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .currents import CurrentGraph, certify_derived
from .graphs import DifferenceSet, partition_overlap
from .verify import BiembeddingReport, biembedding_report, with_stages

if TYPE_CHECKING:
    from .search import SearchStats

# peak memory is linear in s, under 6 KB per unit on 64-bit CPython 3.11:
# at s = S_MAX, family verify peaks at 414 MB and family search --budget 1
# at 331 MB
S_MAX = 75_000


@dataclass(frozen=True)
class FamilyParameter:
    s: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(
                f"family parameter s must be at least 1, got {self.s} "
                "(K_13 is known but below the template range)"
            )
        if self.s > S_MAX:
            raise ValueError(
                f"family parameter s must be at most {S_MAX}, got {self.s} "
                "(memory grows by about 6 KB per unit of s)"
            )

    @property
    def n(self) -> int:
        return 24 * self.s + 13


@dataclass(frozen=True)
class CurrentPair:
    first: CurrentGraph
    second: CurrentGraph

    def __post_init__(self) -> None:
        if self.first.n != self.second.n:
            raise ValueError(
                f"moduli differ: {self.first.n} vs {self.second.n}"
            )


def family_genus(s: int) -> int:
    """Genus of each half of the K_{24s+13} biembedding: 24s² + 13s + 1."""
    return 24 * s * s + 13 * s + 1


def current_sets(p: FamilyParameter) -> tuple[DifferenceSet, DifferenceSet]:
    """Split {1..12s+6} into the two current sets.

    The first set takes residues 2, 3, 5 mod 6 plus the exceptional labels
    1 and 6; the second takes residues 0, 1, 4 mod 6 plus the exceptional
    labels 6s+2 and 12s+5.  Each set gets 6s+3 labels, and the first keeps
    the generator 1 while the second keeps 4, so both circulants C(n, X)
    are connected.
    """
    s, n = p.s, p.n
    top = 12 * s + 6
    swapped = frozenset((6 * s + 2, 12 * s + 5))  # residues 2 and 5
    x1 = frozenset((1, 6)).union(range(2, top, 6), range(3, top, 6), range(5, top, 6)) - swapped
    x2 = swapped.union(range(7, top, 6), range(4, top, 6), range(12, top + 1, 6))
    return DifferenceSet(n, x1), DifferenceSet(n, x2)


def _template(half: int, s: int) -> tuple[int, dict[int, int], set[int]]:
    """The K_{24s+13} template: half 0 or 1 of the current-graph pair for s.

    Each half is a Hamiltonian rim on slots 0..4s+1 plus a perfect matching
    of chords, one chord end per slot.  Returns ``f0``, the current on rim
    arc 0->1; ``deltas``, the chord current entering each slot (walking the
    rim, the flow entering slot i+1 is f_i = f_{i-1} + delta_i); and the
    bit-one slots, whose rotation places the chord before the outgoing rim
    arc (all other slots place the outgoing rim arc first).  Chord partners
    are implied by value: the slot with delta -d is the other end of the
    chord carrying d.
    """
    if half == 0:
        deltas = {0: 6, 1: -2 - 12 * s, 2: -6, 3: 2, 4: 8 + 6 * s, 4 * s + 1: -2}
        for k in range(s - 1):
            deltas[4 * k + 5] = 4 - 6 * s + 6 * k
            deltas[4 * k + 6] = -8 - 6 * s - 6 * k
            deltas[4 * k + 7] = 14 + 6 * s + 6 * k
            deltas[4 * k + 8] = -4 + 6 * s - 6 * k
        return 3 + 12 * s, deltas, {0, 1, 2, 3}
    deltas = {0: 5 + 12 * s, 2 * s - 1: -4 - 12 * s, 2 * s: -6 - 12 * s,
              4 * s - 1: -5 - 12 * s, 4 * s: 6 + 12 * s, 4 * s + 1: 4 + 12 * s}
    for k in range(s - 1):
        deltas[2 * k + 1] = 12 + 12 * k
        deltas[2 * k + 2] = -18 - 12 * k
        deltas[4 * s - 2 * k - 2] = -12 - 12 * k
        deltas[4 * s - 2 * k - 3] = 18 + 12 * k
    return -2 + 6 * s, deltas, {2 * k + 1 for k in range(s - 1)} | {4 * s + 1}


def _instantiate_half(half: int, s: int, n: int) -> CurrentGraph:
    nv = 4 * s + 2
    f0, deltas, bit_one = _template(half, s)
    if sorted(deltas) != list(range(nv)):
        raise AssertionError("template does not cover every slot exactly once")
    delta = [deltas[i] for i in range(nv)]

    # chord partners are implied by value: slot j with delta -d ends the
    # chord carrying d.  A chord end with no partner gets -1, a neighbor the
    # current graph refuses, as it refuses arcs that do not pair up
    slots = list(range(nv))  # one int object per slot, shared by head
    slot_of = dict(zip([d % n for d in delta], slots))
    partner = [slot_of.get(-d % n, -1) for d in delta]

    # walk the rim accumulating flows; f[i] is the current on rim arc i->i+1
    f = [x % n for x in accumulate(delta[1:], initial=f0)]

    # slot i's arcs are darts 3i..3i+2: the incoming rim arc, the outgoing
    # rim arc, the chord, with the last two swapped at a bit-one slot
    head, current = [0] * (3 * nv), [0] * (3 * nv)
    head[0::3], current[0::3] = slots[-1:] + slots[:-1], [-x % n for x in f[-1:] + f[:-1]]
    head[1::3], current[1::3] = slots[1:] + slots[:1], f
    head[2::3], current[2::3] = partner, [-d % n for d in delta]
    for i in bit_one:
        a = 3 * i + 1
        head[a], head[a + 1] = head[a + 1], head[a]
        current[a], current[a + 1] = current[a + 1], current[a]
    return CurrentGraph.from_arcs(n, list(range(0, 3 * nv + 1, 3)), head, current)


def build_pair(p: FamilyParameter) -> CurrentPair:
    """Instantiate the template for s.  The pair is certified by
    ``verify_pair``: its current sets, and each half's validity."""
    return CurrentPair(_instantiate_half(0, p.s, p.n), _instantiate_half(1, p.s, p.n))


def verify_pair(pair: CurrentPair, p: FamilyParameter) -> BiembeddingReport:
    """Certify the biembedding of K_n by the pair's two derived halves.

    Each half is certified from its circuit log (``certify_derived``), with
    no rows built.  The halves are the circulants on the current sets X₁, X₂
    ⊆ {1..⌊n/2⌋}, so their edge sets partition E(K_n) exactly when X₁ and X₂
    partition {1..⌊n/2⌋}.
    """
    if pair.first.n != p.n:
        raise ValueError(f"current graphs over Z_{pair.first.n}, expected Z_{p.n}")
    x1, x2 = current_sets(p)
    c1, c2 = pair.first.classes, pair.second.classes
    h1, h2 = certify_derived(pair.first), certify_derived(pair.second)
    partition_ok = partition_overlap(c1, c2) is None
    report = biembedding_report(p.n, h1, h2, partition_ok)
    expected = family_genus(p.s)
    genus_ok = all(h.genus == expected for h in report.halves)
    return with_stages(
        report,
        [("current sets match", c1 == x1 and c2 == x2), ("genus formula", genus_ok)],
    )


def verify_family(p: FamilyParameter) -> BiembeddingReport:
    return verify_pair(build_pair(p), p)


def search_pair(
    x1: DifferenceSet, x2: DifferenceSet, budget: int = 10_000_000,
    stats: SearchStats | None = None,
) -> CurrentPair | None:
    """Backtracking reconstruction of a valid current-graph pair.

    Explores one-face cubic current graphs for each current set in turn:
    vertices are oriented zero-sum triples of arc currents (Kirchhoff holds
    by construction), and the face is grown as a ``search.Chains``, which
    refuses any link that would close it early, so any completed assignment
    has exactly one face.  The driver is ``search.backtrack``, shared with
    ``selfcomp.search_triangular``: it places next the element with the
    fewest candidate successors left, and tries its triples in sorted
    order, so runs are deterministic.  ``budget`` bounds the number of
    search nodes spent on each half; exhaustion returns None, which says
    nothing about existence.  Both halves' counters are added to ``stats``
    when it is given.
    """
    if x1.n != x2.n:
        raise ValueError(f"moduli differ: {x1.n} vs {x2.n}")
    overlap = partition_overlap(x1, x2)
    if overlap:
        raise ValueError(f"current sets overlap: {overlap}")
    if overlap is not None:
        raise ValueError("current sets must partition {1..⌊n/2⌋}")
    for x in (x1, x2):
        if len(x.x) % 3 != 0:
            raise ValueError(
                f"current set of size {len(x.x)} admits no cubic current graph "
                "(need 3 | |X|)"
            )
    first = _search_half(x1, budget, stats)
    if first is None:
        return None
    second = _search_half(x2, budget, stats)
    if second is None:
        return None
    return CurrentPair(first, second)


def _autocorrelation(elements: list[int], n: int):
    """The counts |{y ∈ E : a − y ∈ E}|, a ∈ Z_n: the cyclic self-convolution
    of E's indicator, squared as a decimal with k digits a count (libmpdec
    multiplies by number-theoretic transform; int multiply is Karatsuba).
    No count reaches 10^k, so no count carries into the next."""
    from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext

    from .search import field_width, unpack, widen

    k = len(str(len(elements)))
    text = bytearray(b"0" * (n * k))
    for e in elements:
        text[-1 - e * k] = ord("1")  # count e is the e-th k digits from the right
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        square = Decimal(text.decode())
        square = str(square * square).encode().rjust(2 * n * k, b"0")
    # digit j of every count at once, as packed fields: the counts a + n of
    # the square's upper half wrap onto a
    width = field_width(len(elements))
    counts = 0
    for half in (square[: n * k], square[n * k :]):
        for j in range(k):
            digits = half[j::k].translate(_DIGIT_VALUES)[::-1]
            counts += widen(digits, width) * 10 ** (k - 1 - j)
    return unpack(counts, n, width)


_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _search_half(x: DifferenceSet, budget: int, stats: SearchStats | None) -> CurrentGraph | None:
    from .search import ZeroSumChains, backtrack

    n = x.n
    elements = sorted(x.x | {n - d for d in x.x})
    # the face takes a -> -b for each oriented triple (a, b, c), in one cycle
    # through all elements; an element is placed once it has a successor.
    # Its candidates are the y in E with a - y in E
    chains = ZeroSumChains(n, elements, _autocorrelation(elements, n))
    succ, member = chains.succ, chains.member

    def moves(a: int):
        for b in elements:
            if succ[b] < 0 and b != a:
                c = (-a - b) % n
                if b < c and c != a and member[c] and succ[c] < 0:
                    yield (a, n - b), (b, n - c), (c, n - a)
                    yield (a, n - c), (c, n - b), (b, n - a)

    made = backtrack(chains, moves, budget, stats)
    if made is None:
        return None
    # vertex i is the i-th triple (a, b, c), linked in that order; its arcs
    # carry -a, -b, -c
    where = {u: i for i, move in enumerate(made) for u, _ in move}
    return CurrentGraph(n, [[(where[n - u], n - u) for u, _ in move] for move in made])
