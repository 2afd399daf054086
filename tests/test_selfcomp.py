import gc
import hashlib
import random
from collections import Counter

import pytest

from biembed.embeddings import RotationSystem, surface_stats, trace_faces, validate_rotation
from biembed.graphs import Permutation, complement, is_antimorphism, make_complete, make_graph
from biembed.search import SearchStats
from biembed.selfcomp import (
    CYCLE_PLUS_FIXED_POINT,
    FULL_CYCLE,
    AntimorphismForm,
    SeedNeighborhood,
    build_from_seed,
    load_bundled_table,
    relabel,
    search_triangular,
    standard_antimorphism,
    verify_table,
)
from biembed.verify import bigenus_lower_bound, render_report, verify_biembedding, with_stages
from oracle import oracle_pair_orbits


def test_standard_antimorphism_shapes():
    assert standard_antimorphism(AntimorphismForm(FULL_CYCLE, 4)).images == (1, 2, 3, 0)
    assert standard_antimorphism(
        AntimorphismForm(CYCLE_PLUS_FIXED_POINT, 5)
    ).images == (1, 2, 3, 0, 4)


def test_form_validation():
    with pytest.raises(ValueError, match="unknown"):
        AntimorphismForm("spiral", 8)
    with pytest.raises(ValueError, match="n >= 2"):
        AntimorphismForm(FULL_CYCLE, 1)
    with pytest.raises(ValueError, match="empty"):
        SeedNeighborhood(frozenset())


@pytest.mark.parametrize("n", [16, 21, 24])
def test_build_from_seed_recovers_bundled_graphs(n):
    rs, form = load_bundled_table(n)
    seed = SeedNeighborhood(frozenset(rs.rotation[0]))
    assert build_from_seed(form, seed) == rs.graph
    assert len(rs.graph.edges) == n * (n - 1) // 4


def test_seed_parity_rejected():
    # 15 pairs on 6 vertices cannot split evenly
    with pytest.raises(ValueError, match="split in half"):
        build_from_seed(AntimorphismForm(FULL_CYCLE, 6), SeedNeighborhood(frozenset({1})))


def test_seed_range_checked():
    with pytest.raises(ValueError, match="outside"):
        build_from_seed(
            AntimorphismForm(FULL_CYCLE, 16), SeedNeighborhood(frozenset({16}))
        )


def test_inconsistent_seed_rejected():
    # under the 16-cycle, membership of {0,1} forces non-membership of {0,15}
    with pytest.raises(ValueError, match="inconsistent seed") as info:
        build_from_seed(
            AntimorphismForm(FULL_CYCLE, 16), SeedNeighborhood(frozenset({1, 15}))
        )
    assert str(info.value) == (
        "inconsistent seed: σ^15 maps {0, 1} to {0, 15}, "
        "so exactly one of 1 and 15 must neighbor 0"
    )
    # an even x and its partner go together: 2 without 14 is refused
    with pytest.raises(ValueError, match="both or neither of 2 and 14"):
        build_from_seed(
            AntimorphismForm(FULL_CYCLE, 16), SeedNeighborhood(frozenset({1, 2}))
        )


@pytest.mark.parametrize("form", [AntimorphismForm(FULL_CYCLE, 9),
                                  AntimorphismForm(CYCLE_PLUS_FIXED_POINT, 8)])
def test_odd_cycle_refuses_every_seed(form):
    # the form does not match the parity of n, so σ's cycle has odd length
    with pytest.raises(ValueError, match="inconsistent seed: σ has an odd cycle, of length"):
        build_from_seed(form, SeedNeighborhood(frozenset({1})))


@pytest.mark.parametrize("n", [4, 5, 8, 9, 12, 13, 16])
@pytest.mark.parametrize("kind", [FULL_CYCLE, CYCLE_PLUS_FIXED_POINT])
def test_every_graph_sigma_complements_is_built_from_its_seed(n, kind):
    # σ written out here, not read from the package
    m = n if kind == FULL_CYCLE else n - 1
    images = [(v + 1) % m if v < m else v for v in range(n)]
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n)}
    graphs = set()
    for mask in range(1, 2 ** (n - 1)):
        seed = frozenset(x for x in range(1, n) if mask >> (x - 1) & 1)
        try:
            g = build_from_seed(AntimorphismForm(kind, n), SeedNeighborhood(seed))
        except ValueError:
            continue
        assert {v for u, v in g.edges if u == 0} == seed
        mapped = {tuple(sorted((images[u], images[v]))) for u, v in g.edges}
        assert mapped == pairs - g.edges
        graphs.add(g.edges)
    # each orbit of pairs alternates, so it offers two choices when its
    # length is even and none when it is odd; every such graph is found
    lengths = oracle_pair_orbits(images)
    expected = 2 ** len(lengths) if all(k % 2 == 0 for k in lengths) else 0
    assert len(graphs) == expected


def test_sigma_squared_is_automorphism():
    rs, _ = load_bundled_table(16)
    edges = rs.graph.edges
    assert {tuple(sorted(((u + 2) % 16, (v + 2) % 16))) for u, v in edges} == edges


def test_relabel_preserves_face_structure():
    rs, form = load_bundled_table(16)
    sigma = standard_antimorphism(form)
    before = Counter(trace_faces(rs).lengths())
    after = Counter(trace_faces(relabel(rs, sigma)).lengths())
    assert before == after


def test_relabel_size_mismatch():
    rs, _ = load_bundled_table(16)
    with pytest.raises(ValueError, match="match"):
        relabel(rs, Permutation((0, 1, 2, 3)))


def test_biembed_from_selfcomp_partitions_k16():
    rs, form = load_bundled_table(16)
    second = relabel(rs, standard_antimorphism(form))
    assert rs.graph.edges | second.graph.edges == make_complete(16).edges
    assert not (rs.graph.edges & second.graph.edges)


def test_biembed_rejects_non_antimorphism():
    rs, _ = load_bundled_table(16)
    assert not is_antimorphism(rs.graph, Permutation(tuple(range(16))))


@pytest.mark.parametrize("n,genus", [(16, 3), (21, 8), (24, 12)])
def test_verify_table_passes(n, genus):
    rs, form = load_bundled_table(n)
    report = verify_table(rs, form)
    assert report.passed, report.stages
    assert report.halves[0].genus == genus
    assert report.achieves_bound


def test_verify_table_wrong_form_fails():
    rs, _ = load_bundled_table(16)
    report = verify_table(rs, AntimorphismForm(CYCLE_PLUS_FIXED_POINT, 16))
    assert not report.passed
    assert ("self-complementary under σ", False) in report.stages


def doubled_report(rs, form):
    """verify_table's report built the long way: the doubled embedding
    certified as two halves, its n×n partition table as the σ stage."""
    report = verify_biembedding(rs, relabel(rs, standard_antimorphism(form)), form.n)
    return with_stages(report, [("rotation valid", validate_rotation(rs).ok),
                                ("self-complementary under σ", report.partition_ok)])


def variants(rs):
    """The rows as given, with an entry of row 0 repeated, and with row 0
    listing vertex 0 itself."""
    rows = list(rs.rotation)
    return {
        "as given": rs,
        "duplicate entry": RotationSystem((rows[0] + rows[0][:1],) + tuple(rows[1:])),
        "self entry": RotationSystem((rows[0] + (0,),) + tuple(rows[1:])),
    }


@pytest.mark.parametrize("n", [16, 21, 24])
@pytest.mark.parametrize("kind", [FULL_CYCLE, CYCLE_PLUS_FIXED_POINT])
def test_antimorphism_stage_agrees_with_is_antimorphism_on_tables(n, kind):
    form = AntimorphismForm(kind, n)
    for rs in variants(load_bundled_table(n)[0]).values():
        assert render_report(verify_table(rs, form)) == render_report(doubled_report(rs, form))


@pytest.mark.parametrize("n", [16, 21, 24])
def test_relabelling_keeps_the_certificate(n):
    # an embedding relabelled by any permutation is isomorphic to it, so
    # verify_table may use one certificate for both halves
    rng = random.Random(n)
    for rs in variants(load_bundled_table(n)[0]).values():
        for _ in range(50):
            images = list(range(n))
            rng.shuffle(images)
            assert relabel(rs, Permutation(tuple(images))).certificate == rs.certificate


@pytest.mark.parametrize("entry", [-1, 16, 99])
def test_relabel_refuses_an_entry_out_of_range(entry):
    rs, form = load_bundled_table(16)
    rs = RotationSystem((rs.rotation[0] + (entry,),) + rs.rotation[1:])
    sigma = standard_antimorphism(form)
    with pytest.raises(ValueError, match=f"row 0 lists {entry}, outside 0..15"):
        relabel(rs, sigma)
    # the graph skips the entry, so it is still table16's graph
    assert is_antimorphism(rs.graph, sigma)
    assert dict(verify_table(rs, form).stages)["self-complementary under σ"]


@pytest.mark.parametrize("form", [AntimorphismForm(FULL_CYCLE, 8),
                                  AntimorphismForm(CYCLE_PLUS_FIXED_POINT, 9)])
def test_antimorphism_stage_agrees_with_is_antimorphism_on_seeded_graphs(form):
    # relabelling a graph by the swap of vertices i and j tests it under σ
    # with the images of i and j swapped, which stays an antimorphism for
    # half the graphs when j = i + 4 and never for the other swaps here
    n = form.n
    sigma = standard_antimorphism(form)
    graphs = []
    for mask in range(1, 2 ** (n - 1)):
        seed = SeedNeighborhood(frozenset(x for x in range(1, n) if mask >> (x - 1) & 1))
        try:
            graphs.append(build_from_seed(form, seed))
        except ValueError:
            continue
    assert graphs
    outcomes = Counter()
    for g in graphs:
        for i, j in [(0, 0), (0, 1), (1, n - 1), (0, 4), (2, 6)]:
            images = list(range(n))
            images[i], images[j] = j, i
            h = make_graph(n, ((images[u], images[v]) for u, v in g.edges))
            rows = [[] for _ in range(n)]
            for u, v in sorted(h.edges):
                rows[u].append(v)
                rows[v].append(u)
            rs = RotationSystem(tuple(map(tuple, rows)))
            expected = is_antimorphism(h, sigma)
            # the definition: σ maps the edges onto the complement's
            assert expected == (
                make_graph(n, ((sigma(u), sigma(v)) for u, v in h.edges)) == complement(h))
            assert render_report(verify_table(rs, form)) == render_report(doubled_report(rs, form))
            outcomes[expected] += 1
    assert outcomes[True] > len(graphs) and outcomes[False] > 0


def test_search_leaves_no_reference_cycle():
    # a cycle through the Chains would keep each search's hit cache alive
    # until the cyclic collector happens to run
    g = load_bundled_table(16)[0].graph
    gc.collect()
    gc.disable()
    try:
        assert search_triangular(g, 500) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_triangular_k4():
    rs = search_triangular(make_complete(4))
    assert rs is not None
    assert validate_rotation(rs).ok
    assert set(trace_faces(rs).lengths()) == {3}
    assert surface_stats(rs).genus == 0


def test_search_triangular_k7_torus():
    rs = search_triangular(make_complete(7), budget=500_000)
    assert rs is not None
    assert set(trace_faces(rs).lengths()) == {3}
    assert surface_stats(rs).genus == 1


def test_search_triangular_k5_impossible_arc_count():
    with pytest.raises(ValueError, match="divisible by 3"):
        search_triangular(make_complete(5))


def test_search_budget_exhaustion_returns_none():
    # K_7 needs 14 face placements, so 5 nodes can never finish
    assert search_triangular(make_complete(7), budget=5) is None


@pytest.mark.parametrize("budget", [0, -5])
def test_search_rejects_non_positive_budget(budget):
    with pytest.raises(ValueError, match=f"budget must be positive, got {budget}"):
        search_triangular(make_complete(4), budget)


def test_search_edgeless_graph():
    rs = search_triangular(make_graph(3, []))
    assert rs is not None
    assert rs.rotation == ((), (), ())


def test_search_triangular_k7_least_budget_and_rotation_are_pinned():
    # node-for-node semantics: a change to candidate order or node counting
    # moves the threshold or the rotation found
    assert search_triangular(make_complete(7), budget=14) is None
    rs = search_triangular(make_complete(7), budget=15)
    assert rs.rotation == (
        (1, 6, 5, 4, 3, 2), (0, 2, 4, 5, 3, 6), (0, 3, 5, 6, 4, 1), (0, 4, 6, 1, 5, 2),
        (0, 5, 1, 2, 6, 3), (0, 6, 2, 3, 1, 4), (0, 1, 3, 4, 2, 5),
    )


@pytest.mark.parametrize("n,want", [
    (16, SearchStats(nodes=901, early=178, max_depth=40)),
    (21, SearchStats(nodes=17_134, early=4_733, max_depth=70)),
])
def test_search_triangular_table_graph_least_budget_is_pinned(n, want):
    # no face is tried that place would refuse as taken
    g = load_bundled_table(n)[0].graph
    short, stats = SearchStats(), SearchStats()
    assert search_triangular(g, want.nodes - 1, short) is None
    assert short.nodes == want.nodes - 1 and short.budget_hit
    rs = search_triangular(g, want.nodes, stats)
    assert stats == want
    assert sum(stats.per_depth) == stats.nodes and len(stats.per_depth) <= stats.max_depth + 1
    assert rs.certificate.triangular and rs.certificate.genus == bigenus_lower_bound(n)


@pytest.mark.parametrize("n,digest", [
    (16, "3d75644cdcc250641e1611b288067f5b2f47c1c94759b61bb58008f629a81938"),
    (21, "df742cdae4764d32720158d241d762f3759852eeb8685e43a2a4d7c8fd12cba6"),
])
def test_search_triangular_table_graph_rotation_is_pinned(n, digest):
    # the rotation found, byte for byte, as first found at 2,845 and 53,372
    # nodes: skipping the faces place would refuse leaves the tree as it was
    rs = search_triangular(load_bundled_table(n)[0].graph, 2_000_000)
    assert hashlib.sha256(repr(rs.rotation).encode()).hexdigest() == digest


@pytest.mark.parametrize("edges", [
    [(u, v) for u in range(3) for v in range(3, 6)],  # K_{3,3}
    [(v, (v + 1) % 6) for v in range(6)],  # C_6
])
def test_search_triangular_without_triangles_spends_no_node(edges):
    # every dart's count is 0 at the root: no face can close anywhere
    stats = SearchStats()
    assert search_triangular(make_graph(6, edges), 1, stats) is None
    assert stats == SearchStats(dead_ends=1)


def test_search_triangular_octahedron():
    # K_{2,2,2}: the opposite pairs are {0, 1}, {2, 3}, {4, 5}
    g = make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2])
    rs = search_triangular(g)
    assert rs is not None
    assert rs.certificate.triangular and rs.certificate.genus == 0


def test_search_triangular_large_torus_does_not_recurse():
    # the 30 x 30 grid with one diagonal per square, on 900 vertices: a
    # search that recursed once per placement overflowed the interpreter stack
    side = 30

    def vertex(i, j):
        return (i % side) * side + j % side

    g = make_graph(side * side, [
        (vertex(i, j), vertex(i + di, j + dj))
        for i in range(side) for j in range(side) for di, dj in ((1, 0), (0, 1), (1, 1))
    ])
    rs = search_triangular(g)
    assert rs is not None
    assert rs.certificate.triangular and rs.certificate.genus == 1


def test_load_bundled_table_unknown():
    with pytest.raises(ValueError, match="no bundled table"):
        load_bundled_table(13)
