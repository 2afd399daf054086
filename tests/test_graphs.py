import random

import pytest

from biembed.graphs import (
    Chains,
    DifferenceSet,
    Permutation,
    apply_permutation,
    backtrack,
    circulant_is_connected,
    complement,
    is_antimorphism,
    is_connected,
    make_circulant,
    make_complete,
    make_graph,
    parse_graph_file,
    serialize_graph,
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
    with pytest.raises(ValueError):
        DifferenceSet(10, frozenset({5}))  # n/2 for even n
    with pytest.raises(ValueError):
        DifferenceSet(10, frozenset({6}))
    with pytest.raises(ValueError):
        DifferenceSet(10, frozenset({0}))
    DifferenceSet(11, frozenset({5}))  # floor(11/2) is fine


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
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 30)
        size = rng.randint(1, max(1, (n - 1) // 2))
        pool = [d for d in range(1, (n + 1) // 2)]
        if not pool:
            continue
        x = frozenset(rng.sample(pool, min(size, len(pool))))
        d = DifferenceSet(n, x)
        assert is_connected(make_circulant(d)) == circulant_is_connected(d)


def test_permutation_validation_and_composition():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    p = Permutation((1, 2, 0))
    q = Permutation((2, 0, 1))  # the inverse of p
    assert [p(q(i)) for i in range(3)] == [q(p(i)) for i in range(3)] == [0, 1, 2]


def test_apply_permutation_preserves_structure():
    g = make_complete(4)
    p = Permutation((2, 3, 0, 1))
    assert apply_permutation(g, p) == g
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert apply_permutation(tri, Permutation((1, 2, 0))) == tri


def test_apply_permutation_size_mismatch():
    with pytest.raises(ValueError):
        apply_permutation(make_complete(3), Permutation((0, 1, 2, 3)))


def test_identity_is_never_an_antimorphism():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert not is_antimorphism(g, Permutation((0, 1, 2, 3)))


def test_antimorphism_square_is_automorphism():
    # P_4 = 0-1-2-3 is self-complementary: complement has edges 02,03,13
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    sigma = Permutation((1, 3, 0, 2))
    assert is_antimorphism(g, sigma)
    assert apply_permutation(apply_permutation(g, sigma), sigma) == g


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


def test_chains_refuse_early_closure_and_unlink_exactly():
    chains = Chains([0, 0, 0, 0, 1], [4, 1])

    def state():
        return chains.succ[:], chains.pred[:], chains.end[:], chains.free[:]

    states = [state()]
    for a, b in ((1, 2), (0, 1), (2, 3)):
        assert chains.link(a, b)
        states.append(state())
    # one path 0 -> 1 -> 2 -> 3, whose two ends name each other
    assert chains.end[0] == 3 and chains.end[3] == 0
    assert not chains.link(3, 1)  # 1 already has a predecessor
    assert not chains.link(1, 0)  # 1 already has a successor
    chains.unlink()
    assert not chains.link(2, 0)  # a 3-cycle in a group of 4 closes early
    assert state() == states[2]
    assert chains.link(2, 3) and chains.link(3, 0)  # the full 4-cycle closes
    assert chains.succ[:4] == [1, 2, 3, 0]
    full = state()
    assert chains.link(4, 4)  # and so does a group of one
    chains.unlink()
    assert state() == full
    for expected in reversed(states):
        chains.unlink()
        assert state() == expected
    assert not chains.log


def test_backtrack_counts_every_move_tried():
    # one group of three; each item may point at any item
    def run(budget):
        chains = Chains([0, 0, 0], [3])
        return backtrack(chains, [0, 1, 2], lambda t: [((t, x),) for x in range(3)], budget)

    # nodes: 0->0 refused, 0->1, 1->0 refused, 1->1 refused, 1->2, 2->0
    assert run(5) is None
    assert run(6) == [((0, 1),), ((1, 2),), ((2, 0),)]
