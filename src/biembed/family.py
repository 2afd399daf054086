"""The infinite family of triangular biembeddings of K_{24s+13}.

For every s ≥ 1 the labels {1, ..., 12s+6} split into two sets of size 6s+3,
and each set is realized as the current set of a one-face cubic current
graph over Z_{24s+13}.  The two derived embeddings are triangular embeddings
of complementary circulants, so together they biembed K_{24s+13} in genus
24s² + 13s + 1, which meets the lower bound exactly.

The current-graph pair comes from a parameterized template asset (a rim
cycle on 4s+2 slots plus value-matched chords; see the data file for the
encoding).  ``search_pair`` reconstructs a valid pair from scratch by
backtracking and exists both as a fallback if the template asset is absent
and as an independent witness that such pairs exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .currents import CurrentGraph, current_classes, derive_embedding
from .graphs import Chains, DifferenceSet, backtrack
from .verify import BiembeddingReport, verify_biembedding, with_stages

_TEMPLATE_RESOURCE = "family_template.json"


@dataclass(frozen=True)
class FamilyParameter:
    s: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(
                f"family parameter s must be at least 1, got {self.s} "
                "(K_13 is known but below the template range)"
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
        n = self.first.n
        x1 = current_classes(self.first).x
        x2 = current_classes(self.second).x
        if x1 & x2:
            raise ValueError(f"current sets overlap: {sorted(x1 & x2)}")
        full = set(range(1, n // 2 + 1))
        if (x1 | x2) != full:
            raise ValueError("current sets do not cover {1..⌊n/2⌋}")


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
    x1 = {1, 6}
    x2 = {6 * s + 2, 12 * s + 5}
    for i in range(1, top + 1):
        if i in x1 or i in x2:
            continue
        if i % 6 in (2, 3, 5):
            x1.add(i)
        else:
            x2.add(i)
    return DifferenceSet(n, frozenset(x1)), DifferenceSet(n, frozenset(x2))


def _lin(form: list[int], s: int, k: int = 0) -> int:
    value = form[0] + form[1] * s
    if len(form) == 3:
        value += form[2] * k
    return value


def _rule_slots(rule: dict, s: int) -> list[tuple[int, int]]:
    """Expand one template rule into (slot, k) instances for this s."""
    if s < rule.get("s_min", 1):
        return []
    if s > rule.get("s_max", s):
        return []
    k_lo = _lin(rule["k_min"], s) if "k_min" in rule else 0
    k_hi = _lin(rule["k_max"], s) if "k_max" in rule else 0
    return [(_lin(rule["slot"], s, k), k) for k in range(k_lo, k_hi + 1)]


def _instantiate_half(half: dict, s: int, n: int) -> CurrentGraph:
    nv = 4 * s + 2
    deltas: dict[int, int] = {}
    for rule in half["deltas"]:
        for slot, k in _rule_slots(rule, s):
            if slot in deltas:
                raise AssertionError(f"template places two chords at slot {slot}")
            deltas[slot] = _lin(rule["value"], s, k)
    if sorted(deltas) != list(range(nv)):
        raise AssertionError("template does not cover every slot exactly once")

    bit_one: set[int] = set()
    for rule in half["bit_one_slots"]:
        bit_one.update(slot for slot, _ in _rule_slots(rule, s))

    # chord partners are implied by value: slot j with delta -d ends the
    # chord carrying d
    slot_of = {deltas[i] % n: i for i in range(nv)}
    partner: dict[int, int] = {}
    for i in range(nv):
        j = slot_of.get((-deltas[i]) % n)
        if j is None or j == i:
            raise AssertionError(f"chord at slot {i} has no matching end")
        partner[i] = j

    # walk the rim accumulating flows; f[i] is the current on rim arc i->i+1
    f = [0] * nv
    f[0] = _lin(half["f0"], s) % n
    for i in range(1, nv):
        f[i] = (f[i - 1] + deltas[i]) % n
    if (f[nv - 1] + deltas[0]) % n != f[0]:
        raise AssertionError("rim flows do not close up")

    rows = []
    for i in range(nv):
        prev_v, next_v = (i - 1) % nv, (i + 1) % nv
        in_rim = (prev_v, (n - f[prev_v]) % n)
        out_rim = (next_v, f[i])
        chord = (partner[i], (n - deltas[i]) % n)
        if i in bit_one:
            rows.append((in_rim, chord, out_rim))
        else:
            rows.append((in_rim, out_rim, chord))
    return CurrentGraph(n, tuple(rows))


def _load_template() -> dict:
    try:
        path = resources.files("biembed.data").joinpath(_TEMPLATE_RESOURCE)
        return json.loads(path.read_text())
    except (FileNotFoundError, ModuleNotFoundError):
        raise RuntimeError(
            "family template missing: reconstruct a pair with search_pair "
            "(CLI: `family search --s <s>`)"
        ) from None


def build_pair(p: FamilyParameter) -> CurrentPair:
    """Instantiate the template for s, returning a validated CurrentPair."""
    template = _load_template()
    first = _instantiate_half(template["halves"][0], p.s, p.n)
    second = _instantiate_half(template["halves"][1], p.s, p.n)
    pair = CurrentPair(first, second)

    x1, x2 = current_sets(p)
    if current_classes(first) != x1 or current_classes(second) != x2:
        raise AssertionError("template pair does not carry the expected current sets")
    for cg in (first, second):
        if not cg.report.ok:
            raise AssertionError(
                "template current graph invalid: " + "; ".join(cg.report.failures)
            )
    return pair


def verify_pair(pair: CurrentPair, p: FamilyParameter) -> BiembeddingReport:
    """Derive both halves of a pair and certify the biembedding of K_n."""
    x1, x2 = current_sets(p)
    sets_match = (
        current_classes(pair.first) == x1 and current_classes(pair.second) == x2
    )
    r1 = derive_embedding(pair.first)
    r2 = derive_embedding(pair.second)
    report = verify_biembedding(r1, r2, p.n)
    expected = family_genus(p.s)
    genus_ok = all(h.genus == expected for h in report.halves)
    return with_stages(
        report,
        [("current sets match", sets_match), ("genus formula", genus_ok)],
    )


def verify_family(p: FamilyParameter) -> BiembeddingReport:
    return verify_pair(build_pair(p), p)


def search_pair(
    x1: DifferenceSet, x2: DifferenceSet, budget: int = 10_000_000
) -> CurrentPair | None:
    """Backtracking reconstruction of a valid current-graph pair.

    Explores one-face cubic current graphs for each current set in turn:
    vertices are oriented zero-sum triples of arc currents (Kirchhoff holds
    by construction), and the face is grown as a ``graphs.Chains``, which
    refuses any link that would close it early, so any completed assignment
    has exactly one face.  The driver is ``graphs.backtrack``, shared with
    ``selfcomp.search_triangular``.  Deterministic: candidates are tried in
    sorted order.  ``budget`` bounds the number of search nodes spent on
    each half; exhaustion returns None, which says nothing about existence.
    """
    if x1.n != x2.n:
        raise ValueError(f"moduli differ: {x1.n} vs {x2.n}")
    n = x1.n
    if x1.x & x2.x:
        raise ValueError(f"current sets overlap: {sorted(x1.x & x2.x)}")
    if (x1.x | x2.x) != set(range(1, n // 2 + 1)):
        raise ValueError("current sets must partition {1..⌊n/2⌋}")
    for x in (x1, x2):
        if len(x.x) % 3 != 0:
            raise ValueError(
                f"current set of size {len(x.x)} admits no cubic current graph "
                "(need 3 | |X|)"
            )
    first = _search_half(x1, budget)
    if first is None:
        return None
    second = _search_half(x2, budget)
    if second is None:
        return None
    return CurrentPair(first, second)


def _search_half(x: DifferenceSet, budget: int) -> CurrentGraph | None:
    n = x.n
    elements = sorted(x.x | {n - d for d in x.x})
    after = {e: i + 1 for i, e in enumerate(elements)}
    # the face takes a -> -b for each oriented triple (a, b, c), in one cycle
    # through all elements; an element is placed once it has a successor
    chains = Chains([0] * n, [len(elements)])
    succ = chains.succ

    def moves(a: int):
        for b in elements[after[a]:]:
            if succ[b] < 0:
                c = (-a - b) % n
                if c > b and c in after and succ[c] < 0:
                    yield (a, n - b), (b, n - c), (c, n - a)
                    yield (a, n - c), (c, n - b), (b, n - a)

    made = backtrack(chains, elements, moves, budget)
    if made is None:
        return None
    # vertex i is the i-th triple (a, b, c), linked in that order; its arcs
    # carry -a, -b, -c
    where = {u: i for i, move in enumerate(made) for u, _ in move}
    rows = tuple(tuple((where[n - u], n - u) for u, _ in move) for move in made)
    cg = CurrentGraph(n, rows)
    if not cg.report.ok:
        raise AssertionError(
            "search produced an invalid current graph: " + "; ".join(cg.report.failures)
        )
    return cg
