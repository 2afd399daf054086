import random
import tracemalloc

import pytest

from biembed.currents import certify_log
from biembed.graphs import (
    DifferenceSet,
    Graph,
    Permutation,
    complement,
    is_antimorphism,
    is_connected,
    make_circulant,
    make_complete,
    make_graph,
    parse_graph_file,
    partition_overlap,
    serialize_graph,
)
from biembed.search import (
    Chains,
    SearchStats,
    backtrack,
    field_width,
    indicator,
    pack,
    translates,
    unpack,
)


def test_complete_edge_counts():
    assert len(make_complete(3).edges) == 3
    assert len(make_complete(37).edges) == 666
    assert len(make_complete(1).edges) == 0


def test_make_complete_rejects_zero():
    with pytest.raises(ValueError):
        make_complete(0)


def test_circulant_full_difference_set_is_complete():
    d = DifferenceSet(5, frozenset({1, 2}))
    assert make_circulant(d) == make_complete(5)
    d37 = DifferenceSet(37, frozenset(range(1, 19)))
    assert make_circulant(d37) == make_complete(37)


def test_circulant_matches_definition():
    # every difference set for n < 14: i ~ i ± x mod n, x ∈ X
    for n in range(1, 14):
        top = (n - 1) // 2
        for bits in range(1 << top):
            x = frozenset(d for d in range(1, top + 1) if bits >> (d - 1) & 1)
            want = make_graph(n, ((i, (i + d) % n) for i in range(n) for d in x))
            assert make_circulant(DifferenceSet(n, x)) == want


def test_circulant_gcd_disconnection():
    two_triangles = make_circulant(DifferenceSet(6, frozenset({2})))
    assert len(two_triangles.edges) == 6
    assert not is_connected(two_triangles)


def test_difference_set_validation():
    for n, x, message in [
        (10, {5}, "difference 5 equals n/2 for even modulus 10; the two directions coincide"),
        (10, {1, 2, 6}, "difference 6 outside 1..5 for modulus 10"),
        (10, {0, 3}, "difference 0 outside 1..5 for modulus 10"),
        (11, {-2, 1, 4}, "difference -2 outside 1..5 for modulus 11"),
        (11, {1, 6}, "difference 6 outside 1..5 for modulus 11"),
    ]:
        with pytest.raises(ValueError) as caught:
            DifferenceSet(n, frozenset(x))
        assert str(caught.value) == message
    DifferenceSet(11, frozenset({5}))  # floor(11/2) is fine
    DifferenceSet(10, frozenset())


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = make_graph(n, edges)
        assert complement(complement(g)) == g
        assert len(g.edges) + len(complement(g).edges) == n * (n - 1) // 2


def test_difference_class_partition_complement():
    # for odd n, complementary difference sets give complementary circulants
    x1 = DifferenceSet(13, frozenset({1, 3, 4}))
    x2 = DifferenceSet(13, frozenset({2, 5, 6}))
    assert complement(make_circulant(x1)) == make_circulant(x2)


def test_is_connected_edge_cases():
    assert is_connected(make_graph(0, []))
    assert is_connected(make_graph(1, []))
    assert not is_connected(make_graph(2, []))
    assert is_connected(make_complete(2))


def test_connectivity_matches_gcd_rule():
    # the certificate's rule: C(n, X) is connected iff gcd(X ∪ {n}) = 1
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 30)
        size = rng.randint(1, max(1, (n - 1) // 2))
        pool = [d for d in range(1, (n + 1) // 2)]
        if not pool:
            continue
        x = frozenset(rng.sample(pool, min(size, len(pool))))
        d = DifferenceSet(n, x)
        log = tuple(sorted(x | {n - c for c in x}))
        assert is_connected(make_circulant(d)) == certify_log(n, log).connected


def test_permutation_validation_and_composition():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    p = Permutation((1, 2, 0))
    q = Permutation((2, 0, 1))  # the inverse of p
    assert [p(q(i)) for i in range(3)] == [q(p(i)) for i in range(3)] == [0, 1, 2]


def test_is_antimorphism_size_mismatch():
    with pytest.raises(ValueError, match="does not match graph order 3"):
        is_antimorphism(make_complete(3), Permutation((0, 1, 2, 3)))


def test_is_antimorphism_memory_follows_the_edges_not_n_squared():
    # an edgeless graph on 10,000 vertices has ~5·10⁷ non-edges; none is built
    tracemalloc.start()
    try:
        assert not is_antimorphism(Graph(10_000, frozenset()), Permutation(tuple(range(10_000))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_identity_is_never_an_antimorphism():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert not is_antimorphism(g, Permutation((0, 1, 2, 3)))


def test_antimorphism_square_is_automorphism():
    # P_4 = 0-1-2-3 is self-complementary: complement has edges 02,03,13
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    sigma = Permutation((1, 3, 0, 2))
    assert is_antimorphism(g, sigma)
    square = Permutation(tuple(sigma(sigma(v)) for v in range(4)))
    assert make_graph(4, ((square(u), square(v)) for u, v in g.edges)) == g


def test_graph_file_round_trip():
    g = make_graph(5, [(0, 3), (1, 2), (2, 4)])
    assert parse_graph_file(serialize_graph(g)) == g


def test_graph_file_errors():
    with pytest.raises(ValueError):
        parse_graph_file("")
    with pytest.raises(ValueError):
        parse_graph_file("3\n0 1 2")
    with pytest.raises(ValueError):
        parse_graph_file("abc\n0 1")


def test_partition_overlap():
    def overlap(n, x1, x2):
        return partition_overlap(DifferenceSet(n, frozenset(x1)), DifferenceSet(n, frozenset(x2)))

    assert overlap(13, {1, 3, 4}, {2, 5, 6}) is None
    assert overlap(13, {1, 3, 4}, {2, 4, 5, 6}) == [4]
    assert overlap(13, {1, 3, 4}, {2, 5}) == []
    # n/2 is no difference for even n, so {1..n/2} cannot be covered
    assert overlap(8, {1, 3}, {2}) == []


def test_field_width_and_pack_round_trip():
    assert [field_width(top) for top in (0, 127, 128, 2**15, 2**31 - 1)] == [8, 8, 16, 32, 32]
    for width in (8, 16, 32, 64):
        values = [0, 1, 2 ** (width - 1) - 1, 5]
        packed = pack(values, width)
        assert packed == sum(v << width * i for i, v in enumerate(values))
        assert list(unpack(packed, len(values), width)) == values


def chains_over(group, size, cands):
    """Chains in which item i may take any successor in cands[i]."""
    return Chains(group, size, [len(c) for c in cands], lambda width: lambda b: indicator(
        (i for i, c in enumerate(cands) if b in c), len(cands), width))


def state(chains):
    return (chains.succ[:], chains.pred[:], chains.end[:], chains.free[:], chains.counts,
            chains.log[:])


@pytest.mark.parametrize("top", [100, 1000])
def test_chains_pack_counts_and_least_skips_covered_items(top):
    # the fields are as wide as the largest count needs: 8 bits, then 16;
    # every link lowers item 3
    chains = Chains([0] * 4, [4], [top, 2, 2, 5], lambda width: lambda b: indicator([3], 4, width),
                    covered=[1])
    assert chains.width == (8 if top < 128 else 16)
    assert chains.cover == 1 << chains.width - 1
    start = chains.counts
    assert list(unpack(start, 4, chains.width)) == [top, chains.cover + 2, 2, 5]
    assert chains.least() == (2, 2)
    assert chains.place([(2, 0)])
    assert chains.least() == (3, 4)
    assert chains.place([(3, 2)])
    assert chains.least() == (0, top)
    assert chains.place([(0, 1)])
    assert chains.least()[1] >= chains.cover
    for _ in range(3):
        chains.lift()
    assert chains.counts == start


@pytest.mark.parametrize("width", [8, 16, 32])
def test_least_is_the_first_least_field(width):
    # seeded fields: small ones next to fields of 256 and up, whose bytes
    # match a small value across a field boundary, and covered ones (the top
    # bit set), now and then all of them
    rng = random.Random(width)
    count, cover = 40, 1 << width - 1
    chains = Chains([0] * count, [count], [cover - 1], lambda w: lambda b: 0)
    assert chains.width == width
    for trial in range(300):
        covered = trial % 10 == 0
        fields = [rng.choice([
            rng.randrange(4),
            256 * rng.randrange(1, cover >> 8 or 1) + rng.randrange(4) if width > 8 else 3,
            rng.randrange(cover),
            cover + rng.randrange(cover),
        ]) for _ in range(count)]
        if covered:
            fields = [f | cover for f in fields]
        chains.counts = pack(fields, width)
        if covered:
            assert chains.least()[1] >= cover
        else:
            assert chains.least() == (fields.index(min(fields)), min(fields)), fields


@pytest.mark.parametrize("width", [8, 16])
def test_translates_rotates_one_indicator(width):
    assert indicator([0, 2], 5, width) == pack([1, 0, 1, 0, 0], width)
    hit = translates([0, 2], 5, width)
    assert [hit(y) for y in range(5)] == [indicator([y, (y + 2) % 5], 5, width) for y in range(5)]


def test_chains_refuse_early_closure_and_unlink_exactly():
    chains = chains_over([0, 0, 0, 0, 1], [4, 1], [{1, 2, 3}, {0, 2}, {0, 3}, {0, 1}, {4}])

    def fields():
        return list(unpack(chains.counts, 5, chains.width))

    states = [state(chains)]
    assert fields() == [3, 2, 2, 2, 1]
    for a, b in ((1, 2), (0, 1), (2, 3)):
        assert chains.place([(a, b)])
        states.append(state(chains))
    # 1, 2 and 3 have predecessors, so each candidate left is 0 or 4; the
    # top bit marks the items with a successor
    assert fields() == [128, 128 + 1, 128 + 1, 1, 1]
    assert chains.least() == (3, 1)
    # one path 0 -> 1 -> 2 -> 3, whose two ends name each other
    assert chains.end[0] == 3 and chains.end[3] == 0
    assert not chains.place([(3, 1)])  # 1 already has a predecessor
    assert not chains.place([(1, 0)])  # 1 already has a successor
    chains.lift()
    assert not chains.place([(2, 0)])  # a 3-cycle in a group of 4 closes early
    assert (chains.taken, chains.early) == (2, 1)
    assert state(chains) == states[2]
    assert chains.place([(2, 3)]) and chains.place([(3, 0)])  # the full 4-cycle closes
    assert chains.succ[:4] == [1, 2, 3, 0]
    full = state(chains)
    assert chains.place([(4, 4)])  # and so does a group of one
    assert chains.least()[1] >= chains.cover
    chains.lift()
    assert state(chains) == full
    for expected in reversed(states):
        chains.lift()
        assert state(chains) == expected
    assert not chains.log
    assert fields() == [3, 2, 2, 2, 1]


@pytest.mark.parametrize("move,refused", [
    ([(0, 1), (1, 0)], "early"),  # the 2nd link closes a 2-cycle in a group of 4
    ([(0, 1), (1, 1)], "taken"),  # 1 took its predecessor at the 1st link
    ([(0, 1), (1, 2), (2, 0)], "early"),  # the 3rd link closes a 3-cycle
    ([(0, 1), (1, 2), (2, 1)], "taken"),
    ([(0, 1), (1, 2), (0, 3)], "taken"),  # 0 took its successor at the 1st link
])
def test_place_refused_at_a_later_link_changes_nothing(move, refused):
    # the links made before the refused one are undone, last first
    chains = chains_over([0, 0, 0, 0, 1, 1], [4, 2], [{1, 3}, {0, 1, 2}, {0, 1}, {0}, {5}, {4}])
    assert chains.place([(4, 5)])
    before = state(chains)
    assert not chains.place(move)
    assert state(chains) == before
    assert {"taken": chains.taken, "early": chains.early} == {
        "taken": refused == "taken", "early": refused == "early"}


def test_lift_restores_the_state_before_place():
    # a move of three links across two groups, joining and closing paths
    chains = chains_over([0, 0, 0, 1, 1], [3, 2], [{1, 2}, {2}, {0}, {4}, {3}])
    start = state(chains)
    assert chains.place([(2, 0)])
    one = state(chains)
    assert chains.place([(0, 1), (3, 4), (1, 2)])  # the 3rd link closes group 0
    assert chains.succ == [1, 2, 0, 4, -1] and chains.free == [0, 1]
    assert chains.log[-1][0] == [(0, 1), (3, 4), (1, 2)]
    chains.lift()
    assert state(chains) == one
    chains.lift()
    assert state(chains) == start


def test_backtrack_counts_every_move_tried():
    # one group of three; each item may point at any item, so every count
    # ties and the target is the first item without a successor
    def run(budget):
        chains = chains_over([0, 0, 0], [3], [{0, 1, 2}] * 3)
        stats = SearchStats()
        made = backtrack(chains, lambda t: [((t, x),) for x in range(3)], budget, stats)
        return made, stats

    # nodes: 0->0 early, 0->1, 1->0 early, 1->1 taken, 1->2, 2->0
    assert run(5) == (None, SearchStats(5, 1, 2, 0, 2, True))
    made, stats = run(6)
    assert (made, stats) == ([((0, 1),), ((1, 2),), ((2, 0),)], SearchStats(6, 1, 2, 0, 3, False))
    # two nodes with no move held, three with one, one with two
    assert stats.per_depth == [2, 3, 1, 0]
    assert run(5)[1].per_depth == [2, 3, 0]


def test_backtrack_takes_the_least_count_and_stops_at_a_zero():
    def run(cands):
        chains = chains_over([0] * len(cands), [len(cands)], cands)
        start, targets, stats = chains.counts, [], SearchStats()

        def moves(t):
            targets.append(t)
            return [((t, x),) for x in sorted(cands[t])]

        made = backtrack(chains, moves, 10, stats)
        if made is None:
            assert chains.counts == start and not chains.log
        return made, targets, stats

    # item 2 has one candidate, the others two; then 0, down to one, goes
    # before 1, and 0 -> 1 is refused as 1 has its predecessor
    assert run([{1, 2}, {0, 2}, {1}]) == (
        [((2, 1),), ((0, 2),), ((1, 0),)], [2, 0, 1], SearchStats(4, 1, 0, 0, 3, False))
    # once 0 -> 1 is made, 2 has no candidate left: a dead end, at no node
    assert run([{1}, {2, 3}, {1}, {0, 2}]) == (None, [0], SearchStats(1, 0, 0, 1, 1, False))


@pytest.mark.parametrize("case", ["K4", "K7", "octahedron", "table16", "s=1", "s=2"])
def test_every_target_count_bounds_the_moves_it_can_make(monkeypatch, case):
    # a count below the number of moves whose links can all be made would
    # make the search skip a target it could still place, or lose a solution
    from biembed import family, search, selfcomp

    targets = []

    def checking_backtrack(chains, moves, budget, stats=None):
        def checked_moves(target):
            tries = list(moves(target))
            count = unpack(chains.counts, len(chains.succ), chains.width)[target]
            assert (target, count) == chains.least()
            possible = 0
            for move in tries:
                if chains.place(move):
                    possible += 1
                    chains.lift()
            assert possible <= count
            targets.append(target)
            return tries

        return backtrack(chains, checked_moves, budget, stats)

    monkeypatch.setattr(search, "backtrack", checking_backtrack)
    if case.startswith("s="):
        p = family.FamilyParameter(int(case[2:]))
        pair = family.search_pair(*family.current_sets(p), 100)
        assert family.verify_pair(pair, p).passed
    else:
        g = {"K4": lambda: make_complete(4), "K7": lambda: make_complete(7),
             "octahedron": lambda: make_graph(6, [
                 (u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2]),
             "table16": lambda: selfcomp.load_bundled_table(16)[0].graph}[case]()
        assert selfcomp.search_triangular(g, 3_000).certificate.triangular
    assert targets
