from collections import Counter

import pytest

from biembed.embeddings import is_triangular, surface_stats, trace_faces, validate_rotation
from biembed.graphs import (
    Permutation,
    identity_permutation,
    make_complete,
    make_graph,
)
from biembed.selfcomp import (
    CYCLE_PLUS_FIXED_POINT,
    FULL_CYCLE,
    AntimorphismForm,
    SeedNeighborhood,
    biembed_from_selfcomp,
    build_from_seed,
    load_bundled_table,
    relabel,
    search_triangular,
    standard_antimorphism,
    verify_table,
)


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
    seed = SeedNeighborhood(frozenset(rs.graph.neighbors(0)))
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
    with pytest.raises(ValueError, match="inconsistent seed"):
        build_from_seed(
            AntimorphismForm(FULL_CYCLE, 16), SeedNeighborhood(frozenset({1, 15}))
        )


def test_sigma_squared_is_automorphism():
    rs, _ = load_bundled_table(16)
    g = rs.graph
    for u in range(16):
        for v in range(u + 1, 16):
            assert g.has_edge(u, v) == g.has_edge((u + 2) % 16, (v + 2) % 16)


def test_relabel_preserves_face_structure():
    rs, form = load_bundled_table(16)
    sigma = standard_antimorphism(form)
    before = Counter(trace_faces(rs).lengths())
    after = Counter(trace_faces(relabel(rs, sigma)).lengths())
    assert before == after


def test_relabel_size_mismatch():
    rs, _ = load_bundled_table(16)
    with pytest.raises(ValueError, match="match"):
        relabel(rs, identity_permutation(4))


def test_biembed_from_selfcomp_partitions_k16():
    rs, form = load_bundled_table(16)
    first, second = biembed_from_selfcomp(rs, standard_antimorphism(form))
    assert first.graph.edges | second.graph.edges == make_complete(16).edges
    assert not (first.graph.edges & second.graph.edges)


def test_biembed_rejects_non_antimorphism():
    rs, _ = load_bundled_table(16)
    with pytest.raises(ValueError, match="antimorphism"):
        biembed_from_selfcomp(rs, identity_permutation(16))


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


def test_search_triangular_k4():
    rs = search_triangular(make_complete(4))
    assert rs is not None
    assert validate_rotation(rs).ok
    assert is_triangular(trace_faces(rs))
    assert surface_stats(rs).genus == 0


def test_search_triangular_k7_torus():
    rs = search_triangular(make_complete(7), budget=500_000)
    assert rs is not None
    assert is_triangular(trace_faces(rs))
    assert surface_stats(rs).genus == 1


def test_search_triangular_k5_impossible_arc_count():
    with pytest.raises(ValueError, match="divisible by 3"):
        search_triangular(make_complete(5))


def test_search_budget_exhaustion_returns_none():
    # K_7 needs 14 face placements, so 5 nodes can never finish
    assert search_triangular(make_complete(7), budget=5) is None


def test_search_edgeless_graph():
    rs = search_triangular(make_graph(3, []))
    assert rs is not None
    assert rs.rotation == ((), (), ())


def test_search_triangular_k7_least_budget_and_rotation_are_pinned():
    # node-for-node semantics: a change to candidate order or node counting
    # moves the threshold or the rotation found
    assert search_triangular(make_complete(7), budget=45) is None
    rs = search_triangular(make_complete(7), budget=46)
    assert rs.rotation == (
        (1, 6, 5, 4, 3, 2), (0, 2, 4, 5, 3, 6), (0, 3, 5, 6, 4, 1), (0, 4, 6, 1, 5, 2),
        (0, 5, 1, 2, 6, 3), (0, 6, 2, 3, 1, 4), (0, 1, 3, 4, 2, 5),
    )


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
