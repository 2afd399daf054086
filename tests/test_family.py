import pytest

from biembed.currents import current_classes, derive_embedding, validate_current_graph
from biembed.embeddings import surface_stats
from biembed.family import (
    CurrentPair,
    FamilyParameter,
    build_pair,
    current_sets,
    family_genus,
    search_pair,
    verify_family,
    verify_pair,
)
from biembed.graphs import DifferenceSet
from biembed.verify import bigenus_lower_bound


def test_parameter_rejects_zero():
    with pytest.raises(ValueError, match="at least 1"):
        FamilyParameter(0)
    assert FamilyParameter(1).n == 37
    assert FamilyParameter(10).n == 253


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


def test_build_pair_s1():
    pair = build_pair(FamilyParameter(1))
    for half, want in zip((pair.first, pair.second), current_sets(FamilyParameter(1))):
        assert validate_current_graph(half).ok
        assert current_classes(half) == want
        assert len(half.rows) == 6  # 9 currents, cubic: 2*9/3 vertices
        assert half.edge_count == 9


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


def test_search_pair_preconditions():
    with pytest.raises(ValueError, match="moduli"):
        search_pair(DifferenceSet(37, frozenset({1})), DifferenceSet(61, frozenset({1})))
    with pytest.raises(ValueError, match="partition"):
        search_pair(
            DifferenceSet(13, frozenset({1, 2, 3})),
            DifferenceSet(13, frozenset({4, 5})),
        )
    with pytest.raises(ValueError, match="cubic"):
        search_pair(
            DifferenceSet(13, frozenset({1, 2})),
            DifferenceSet(13, frozenset({3, 4, 5, 6})),
        )


def test_current_pair_invariants():
    pair = build_pair(FamilyParameter(1))
    with pytest.raises(ValueError, match="overlap"):
        CurrentPair(pair.first, pair.first)
    other = build_pair(FamilyParameter(2))
    with pytest.raises(ValueError, match="moduli"):
        CurrentPair(pair.first, other.second)


def test_missing_template_reports_search_fallback(monkeypatch):
    import biembed.family as family

    monkeypatch.setattr(family, "_TEMPLATE_RESOURCE", "no_such_template.json")
    with pytest.raises(RuntimeError, match="search"):
        build_pair(FamilyParameter(1))


def test_search_pair_deep_search_does_not_recurse():
    # 802 triples per half: a search that recursed once per placement
    # overflowed the interpreter stack here
    assert search_pair(*current_sets(FamilyParameter(200)), budget=1500) is None


def test_search_pair_least_budget_is_pinned():
    # node-for-node semantics: a change to candidate order or node counting
    # moves this threshold
    p = FamilyParameter(2)
    assert search_pair(*current_sets(p), budget=22_712) is None
    pair = search_pair(*current_sets(p), budget=22_713)
    assert pair is not None
    assert verify_pair(pair, p).passed
