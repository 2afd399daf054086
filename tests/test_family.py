import gc
import hashlib
import itertools
import random
import sys

import pytest

from biembed import cli, family
from biembed.currents import (
    CurrentGraph,
    certify_derived,
    circuit_log,
    current_classes,
    derive_embedding,
    serialize_current_graph,
    validate_current_graph,
)
from biembed.embeddings import surface_stats
from biembed.family import (
    S_MAX,
    CurrentPair,
    FamilyParameter,
    _autocorrelation,
    _search_half,
    build_pair,
    current_sets,
    family_genus,
    search_pair,
    verify_family,
    verify_pair,
)
from biembed.graphs import DifferenceSet
from biembed.search import SearchStats, ZeroSumChains, unpack
from biembed.verify import bigenus_lower_bound, render_report, verify_biembedding, with_stages
from oracle import oracle_faces, oracle_one_face_triples


def test_parameter_rejects_zero():
    with pytest.raises(ValueError, match="at least 1"):
        FamilyParameter(0)
    assert FamilyParameter(1).n == 37
    assert FamilyParameter(10).n == 253


def test_parameter_rejects_s_above_the_memory_bound():
    assert FamilyParameter(S_MAX).n == 24 * S_MAX + 13
    with pytest.raises(ValueError, match=f"at most {S_MAX}, got {S_MAX + 1}"):
        FamilyParameter(S_MAX + 1)


def test_current_sets_s1_exact():
    x1, x2 = current_sets(FamilyParameter(1))
    assert x1 == DifferenceSet(37, frozenset({1, 2, 3, 5, 6, 9, 11, 14, 15}))
    assert x2 == DifferenceSet(37, frozenset({4, 7, 8, 10, 12, 13, 16, 17, 18}))


@pytest.mark.parametrize("s", range(1, 7))
def test_current_sets_partition(s):
    p = FamilyParameter(s)
    x1, x2 = current_sets(p)
    assert x1.n == x2.n == p.n
    assert not (x1.x & x2.x)
    assert x1.x | x2.x == set(range(1, 12 * s + 7))
    assert len(x1.x) % 3 == 0 and len(x2.x) % 3 == 0
    # the two swapped labels live in the second set, the anchors in the first
    assert {6 * s + 2, 12 * s + 5} <= x2.x
    assert {1, 6} <= x1.x


def test_current_sets_match_the_loop_over_labels():
    for s in range(1, 201):
        p = FamilyParameter(s)
        x1, x2 = {1, 6}, {6 * s + 2, 12 * s + 5}
        for i in range(1, 12 * s + 7):
            if i not in x1 and i not in x2:
                (x1 if i % 6 in (2, 3, 5) else x2).add(i)
        assert current_sets(p) == (DifferenceSet(p.n, frozenset(x1)),
                                   DifferenceSet(p.n, frozenset(x2))), s


def test_build_pair_s1():
    pair = build_pair(FamilyParameter(1))
    for half, want in zip((pair.first, pair.second), current_sets(FamilyParameter(1))):
        assert validate_current_graph(half).ok
        assert current_classes(half) == want
        assert len(half.rows) == 6  # 9 currents, cubic: 2*9/3 vertices


def test_derived_half_is_k37_sized():
    rs = derive_embedding(build_pair(FamilyParameter(1)).first)
    stats = surface_stats(rs)
    assert (stats.v, stats.e, stats.f) == (37, 333, 222)
    assert stats.genus == 38


@pytest.mark.parametrize("s", [1, 2, 3])
def test_verify_family_small(s):
    report = verify_family(FamilyParameter(s))
    assert report.passed, report.stages
    assert report.halves[0].genus == family_genus(s)
    assert report.achieves_bound


def test_genus_formula_matches_lower_bound():
    for s in range(1, 51):
        assert family_genus(s) == bigenus_lower_bound(24 * s + 13)


def test_search_pair_reconstructs_s1():
    p = FamilyParameter(1)
    pair = search_pair(*current_sets(p))
    assert pair is not None
    assert verify_pair(pair, p).passed


def test_search_pair_budget_exhaustion_returns_none():
    assert search_pair(*current_sets(FamilyParameter(1)), budget=1) is None


@pytest.mark.parametrize("budget", [0, -5])
def test_search_pair_rejects_non_positive_budget(budget):
    with pytest.raises(ValueError, match=f"budget must be positive, got {budget}"):
        search_pair(*current_sets(FamilyParameter(1)), budget)


def test_search_pair_preconditions():
    with pytest.raises(ValueError, match="moduli"):
        search_pair(DifferenceSet(37, frozenset({1})), DifferenceSet(61, frozenset({1})))
    with pytest.raises(ValueError, match="partition"):
        search_pair(
            DifferenceSet(13, frozenset({1, 2, 3})),
            DifferenceSet(13, frozenset({4, 5})),
        )
    with pytest.raises(ValueError, match=r"current sets overlap: \[3\]"):
        search_pair(
            DifferenceSet(13, frozenset({1, 2, 3})),
            DifferenceSet(13, frozenset({3, 4, 5, 6})),
        )
    with pytest.raises(ValueError, match="cubic"):
        search_pair(
            DifferenceSet(13, frozenset({1, 2})),
            DifferenceSet(13, frozenset({3, 4, 5, 6})),
        )


def test_template_rows_are_pinned():
    # the rows of both halves, byte for byte: the golden files print only
    # certificates, so a change to a chord or a rotation bit shows here
    digest = hashlib.sha256()
    for s in [*range(1, 41), 1000]:
        pair = build_pair(FamilyParameter(s))
        for cg in (pair.first, pair.second):
            digest.update(serialize_current_graph(cg).encode())
    assert digest.hexdigest() == (
        "9becbac28b44c00c0e0153039b30971bf3318b052a8c927944529545ffb35a60"
    )


def test_current_pair_invariants():
    # a pair whose classes overlap or leave labels out builds, and
    # verify_pair's edge-partition stage is what fails it
    p = FamilyParameter(1)
    first = build_pair(p).first
    # a theta carrying 4, 8 and 25 = -12: disjoint from the first set, but
    # leaves most labels out.  On its own it certifies: genus 1, triangular
    theta = CurrentGraph(37, (((1, 33), (1, 29), (1, 12)), ((0, 4), (0, 8), (0, 25))))
    half = certify_derived(theta)
    assert (half.genus, half.triangular) == (1, True)
    for second in (first, theta):
        lines = render_report(verify_pair(CurrentPair(first, second), p)).splitlines()
        for line in ("partition ok: no", "stage edge partition: FAIL", "result: FAIL"):
            assert line in lines
    other = build_pair(FamilyParameter(2))
    with pytest.raises(ValueError, match="moduli"):
        CurrentPair(first, other.second)


def test_verify_pair_rejects_a_pair_over_another_modulus():
    with pytest.raises(ValueError, match=r"^current graphs over Z_37, expected Z_61$"):
        verify_pair(build_pair(FamilyParameter(1)), FamilyParameter(2))


def test_broken_template_fails_as_a_certificate(monkeypatch, capsys):
    # half 0 with slot 2's chord after its outgoing rim arc: the rows still
    # build, but the current graph has three faces
    template = family._template

    def flipped(half, s):
        f0, deltas, bit_one = template(half, s)
        return f0, deltas, (bit_one ^ {2} if half == 0 else bit_one)

    monkeypatch.setattr(family, "_template", flipped)
    assert cli.main(["family", "verify", "--s", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: current graph fails validation: embedding has 3 faces, expected 1\n"
    )


def test_template_chord_without_a_partner_exits_2(monkeypatch, capsys):
    # half 0's chord delta at slot 3 off by 6: no slot ends that chord, and
    # the arc pass refuses the placeholder neighbor with one line
    template = family._template

    def shifted(half, s):
        f0, deltas, bit_one = template(half, s)
        return f0, ({**deltas, 3: deltas[3] + 6} if half == 0 else deltas), bit_one

    monkeypatch.setattr(family, "_template", shifted)
    assert cli.main(["family", "verify", "--s", "1"]) == 2
    assert capsys.readouterr() == ("", "error: vertex 3 lists unknown neighbor -1\n")


def test_search_pair_deep_search_does_not_recurse():
    # 1,602 triples per half: the first half holds more placements at once
    # than the interpreter's recursion limit, which a search that recursed
    # once per placement would overflow
    stats = SearchStats()
    assert search_pair(*current_sets(FamilyParameter(400)), budget=1300, stats=stats) is None
    assert stats.max_depth > sys.getrecursionlimit()


@pytest.mark.parametrize("s,digest", [
    (1, "4f0614ced99a88fc2373ce42747d6647dfb789a8a58884c930895c406406f200"),
    (2, "046ee67a54f33afab786313707299199c4eaa7a3b7e53c0704512e9294b75271"),
    (3, "c18d8b12246f7ecbbc99ae8e1e408f292fac6a2822d511c3840146c86081bfa4"),
])
def test_search_pair_result_is_pinned(s, digest):
    # both halves found, byte for byte: a faster search core finds the same pair
    pair = search_pair(*current_sets(FamilyParameter(s)))
    text = serialize_current_graph(pair.first) + serialize_current_graph(pair.second)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_search_pair_leaves_no_reference_cycle():
    # a cycle through the Chains would keep each search's hit cache alive
    # until the cyclic collector happens to run
    gc.collect()
    gc.disable()
    try:
        assert search_pair(*current_sets(FamilyParameter(3)), budget=500) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_pair_least_budget_is_pinned():
    # node-for-node semantics: a change to candidate order or node counting
    # moves this threshold and the counters
    p = FamilyParameter(2)
    assert search_pair(*current_sets(p), budget=25) is None
    stats = SearchStats()
    pair = search_pair(*current_sets(p), budget=26, stats=stats)
    assert pair is not None
    assert verify_pair(pair, p).passed
    # both halves: 26 + 14 nodes, 8 + 3 links refused as early cycles, and
    # 5 moves refused as leaving an element with no live pair
    assert stats == SearchStats(nodes=40, early=11, max_depth=10, starved=5)
    # the halves' nodes, summed by the number of triples held
    assert sum(stats.per_depth) == stats.nodes and len(stats.per_depth) <= stats.max_depth + 1


def test_search_pair_s3_least_budget_is_pinned():
    # the second half takes 22,214 nodes, the first 342
    p = FamilyParameter(3)
    assert search_pair(*current_sets(p), budget=22_213) is None
    pair = search_pair(*current_sets(p), budget=22_214)
    assert pair is not None
    assert verify_pair(pair, p).passed


def test_search_pair_s3_stats_are_pinned_and_no_starved_move_is_lifted(monkeypatch):
    # the benchmark's s = 3 op: a starved move is refused before any count
    # changes, so each lift takes back a move that was kept, and the 2 x 14
    # triples of the pair found stay held
    lift, lifts = ZeroSumChains.lift, []

    def counted_lift(chains):
        lifts.append(None)
        lift(chains)

    monkeypatch.setattr(ZeroSumChains, "lift", counted_lift)
    stats = SearchStats()
    assert search_pair(*current_sets(FamilyParameter(3)), budget=200_000, stats=stats) is not None
    assert stats == SearchStats(nodes=22_556, taken=0, early=3_003, starved=12_403,
                                dead_ends=0, max_depth=14)
    assert len(lifts) == stats.nodes - stats.taken - stats.early - stats.starved - 28 == 7_122


def check_live(chains):
    """Each unplaced element's live field against its pairs counted from
    scratch; every other field holds the cover bit."""
    n = len(chains.succ)
    unplaced = {e for e in range(n) if chains.member[e] and chains.succ[e] < 0}
    fields = unpack(chains.live, n, chains.width)
    for a in range(n):
        if a in unplaced:
            pairs = [(b, c) for b in unplaced for c in [(-a - b) % n]
                     if b < c and a not in (b, c) and c in unplaced]
            assert fields[a] == len(pairs), a
        else:
            assert fields[a] >= chains.cover, a


@pytest.mark.parametrize("n", [9, 13, 15, 21, 27, 37, 45])
def test_initial_live_counts_match_a_recount(n):
    # the counts come from the autocorrelation; for 3 | n an element a with
    # 3a ≡ 0 has a = -a/2 = -2a
    rng = random.Random(n)
    for _ in range(20):
        x = {d for d in range(1, n // 2 + 1) if rng.random() < 0.5} or {1}
        elements = sorted(x | {n - d for d in x})
        check_live(ZeroSumChains(n, elements, _autocorrelation(elements, n)))


@pytest.mark.parametrize("s,nodes", [(1, 19), (2, 40)])
def test_live_counts_match_a_recount_at_every_node(monkeypatch, s, nodes):
    place, lift, placed = ZeroSumChains.place, ZeroSumChains.lift, []

    def checked_place(chains, move):
        placed.append(place(chains, move))
        check_live(chains)
        if placed[-1]:  # no unplaced element is left without a pair
            fields = unpack(chains.live, len(chains.succ), chains.width)
            assert min(fields) > 0
        return placed[-1]

    def checked_lift(chains):
        lift(chains)
        check_live(chains)

    monkeypatch.setattr(ZeroSumChains, "place", checked_place)
    monkeypatch.setattr(ZeroSumChains, "lift", checked_lift)
    assert search_pair(*current_sets(FamilyParameter(s))) is not None
    assert len(placed) == nodes


@pytest.mark.parametrize("n", [13, 19, 21, 25])
def test_search_half_finds_exactly_when_the_oracle_does(n):
    # every X of size 3 or 6: the prunes cut nodes, never a solution
    for size in (3, 6):
        for x in itertools.combinations(range(1, n // 2 + 1), size):
            found = _search_half(DifferenceSet(n, frozenset(x)), 10**6, None)
            assert (found is not None) == oracle_one_face_triples(n, x), x
            if found is not None:
                assert validate_current_graph(found).ok
                assert current_classes(found).x == frozenset(x)


def test_search_pair_initial_counts_are_the_autocorrelation():
    # the count of a is |{y ∈ E : a − y ∈ E}|; elements outside E start covered
    # 200 elements take 3 digits and 16-bit fields
    for n, x in [(13, {1, 3, 4}), (37, set(range(1, 19))), (61, {2, 3, 5, 29, 30}),
                 (401, set(range(1, 101)))]:
        elements = sorted(x | {n - d for d in x})
        want = [sum((a - y) % n in elements for y in elements) for a in range(n)]
        assert list(_autocorrelation(elements, n)) == want


@pytest.mark.parametrize("s", range(1, 11))
def test_verify_pair_matches_the_full_trace(s):
    # the reference: derive both halves' rows, trace every dart, and mark
    # every pair in an n×n table
    p = FamilyParameter(s)
    pair = build_pair(p)
    x1, x2 = current_sets(p)
    full = verify_biembedding(derive_embedding(pair.first), derive_embedding(pair.second), p.n)
    sets_match = current_classes(pair.first) == x1 and current_classes(pair.second) == x2
    genus_ok = all(h.genus == family_genus(s) for h in full.halves)
    want = with_stages(full, [("current sets match", sets_match), ("genus formula", genus_ok)])
    assert render_report(verify_pair(pair, p)) == render_report(want)


@pytest.mark.parametrize("s", range(11, 21))
def test_log_certificate_matches_the_oracle_trace(s):
    # beyond the s the full trace above covers: the oracle's positional scan
    # of the shifted rows, which shares no code with the package
    n = FamilyParameter(s).n
    pair = build_pair(FamilyParameter(s))
    for cg in (pair.first, pair.second):
        log = circuit_log(cg)
        faces = oracle_faces({k: tuple((k + d) % n for d in log) for k in range(n)})
        genus = (2 - (n - n * len(log) // 2 + len(faces))) // 2
        cert = cg.certificate
        assert (cert.faces, cert.triangular, cert.genus) == (
            len(faces), all(len(f) == 3 for f in faces), genus
        ), s
