import pytest

from biembed.currents import (
    CurrentGraph,
    circuit_log,
    current_classes,
    derive_embedding,
    parse_current_graph_file,
    serialize_current_graph,
    validate_current_graph,
)
from biembed.embeddings import surface_stats, trace_faces
from biembed.graphs import DifferenceSet, make_circulant


def theta_z7() -> CurrentGraph:
    """Two vertices joined by three parallel edges carrying 1, 2, 4 over Z_7.

    Entering currents at vertex 0 are (1, 2, 4) in rotation order and the
    reverses enter vertex 1, so Kirchhoff holds (1+2+4 = 7) and the derived
    embedding is a triangulation of K_7 on the torus.
    """
    return CurrentGraph(
        7,
        (
            (((1, 6), (1, 5), (1, 3))),
            (((0, 2), (0, 4), (0, 1))),
        ),
    )


def test_theta_all_four_properties():
    report = validate_current_graph(theta_z7())
    assert report.ok
    assert report.failures == ()


def test_theta_circuit_log():
    log = circuit_log(theta_z7())
    assert len(log) == 6
    assert log[0] == min(log)
    # every arc current appears exactly once
    assert sorted(log) == [1, 2, 3, 4, 5, 6]


def test_theta_derived_embedding_is_k7_triangulation():
    rs = derive_embedding(theta_z7())
    assert rs.graph.n == 7
    assert len(rs.graph.edges) == 21
    assert set(trace_faces(rs).lengths()) == {3}
    assert surface_stats(rs).genus == 1


def test_kirchhoff_violation_reported():
    # entering 1, 2, 3 at each vertex of a theta over Z_37: sums to 6
    cg = CurrentGraph(
        37,
        (
            (((1, 36), (1, 35), (1, 34))),
            (((0, 1), (0, 2), (0, 3))),
        ),
    )
    report = validate_current_graph(cg)
    assert not report.kirchhoff
    assert not report.ok
    assert any("sum" in f for f in report.failures)


def test_duplicate_current_reported():
    # two edges both carrying 5 (as a class) over Z_11: 5 + 5 + 1 = 11
    cg = CurrentGraph(
        11,
        (
            (((1, 6), (1, 5), (1, 10))),
            (((0, 5), (0, 6), (0, 1))),
        ),
    )
    report = validate_current_graph(cg)
    assert not report.distinct_currents
    assert any("repeat" in f for f in report.failures)


def test_two_face_current_graph_rejected_by_log():
    # reversing one rotation of the theta splits the single face
    cg = CurrentGraph(
        7,
        (
            (((1, 6), (1, 5), (1, 3))),
            (((0, 1), (0, 4), (0, 2))),
        ),
    )
    report = validate_current_graph(cg)
    if report.one_face:
        pytest.skip("rotation flip kept one face; pick another example")
    with pytest.raises(ValueError, match="faces"):
        circuit_log(cg)


def test_unpaired_arc_rejected_at_construction():
    with pytest.raises(ValueError, match="reverse"):
        CurrentGraph(7, ((((1, 3), (1, 2), (1, 1))), (((0, 4), (0, 5), (0, 1)))))


def test_degree_violation_reported():
    cg = CurrentGraph(5, ((((1, 1)),), (((0, 4)),)))
    report = validate_current_graph(cg)
    assert not report.cubic
    assert report.one_face  # a single edge embeds in the sphere with one face
    assert not report.ok


def test_disconnected_derivation_rejected():
    # a perfectly valid theta over Z_21 whose currents 3, 6, 9 share the
    # factor 3 with the modulus: the derived graph would fall apart
    cg = CurrentGraph(
        21,
        (
            (((1, 18), (1, 15), (1, 9))),
            (((0, 3), (0, 6), (0, 12))),
        ),
    )
    assert validate_current_graph(cg).ok
    with pytest.raises(ValueError, match="disconnected"):
        derive_embedding(cg)


def test_undersized_invalid_graph_rejected_before_derivation():
    # a single edge is neither cubic nor Kirchhoff-balanced
    cg = CurrentGraph(6, ((((1, 2)),), (((0, 4)),)))
    with pytest.raises(ValueError, match="validation"):
        derive_embedding(cg)


def test_additivity_of_derived_rows():
    rs = derive_embedding(theta_z7())
    n = 7
    base = rs.rotation[0]
    for k in range(n):
        assert rs.rotation[k] == tuple((d + k) % n for d in base)


def test_derived_graph_is_circulant_on_current_set():
    cg = theta_z7()
    rs = derive_embedding(cg)
    assert rs.graph == make_circulant(current_classes(cg))
    assert current_classes(cg) == DifferenceSet(7, frozenset({1, 2, 3}))


def test_kirchhoff_orientation_consistency():
    # the rows store a leaving current at each endpoint, so an edge written
    # with the opposite sign convention ((1,5) instead of (1,-2), and the
    # matching (0,-5) instead of (0,2)) parses to the identical graph
    base = serialize_current_graph(theta_z7())
    flipped = base.replace("(1,-2)", "(1,5)").replace("(0,2)", "(0,-5)")
    assert flipped != base
    assert parse_current_graph_file(flipped) == parse_current_graph_file(base)
    assert validate_current_graph(parse_current_graph_file(flipped)).ok


def test_current_graph_file_round_trip():
    cg = theta_z7()
    text = serialize_current_graph(cg)
    assert parse_current_graph_file(text) == cg
    # signed convention: currents above n/2 print negative
    assert "(1,-1)" in text or "(0,-1)" in text


def test_current_graph_file_errors():
    with pytest.raises(ValueError, match="header"):
        parse_current_graph_file("7\n0: (1,1)")
    with pytest.raises(ValueError, match="duplicate"):
        parse_current_graph_file("n 7\n0: (1,1)\n0: (1,2)\n1: (0,-1) (0,-2)")
    with pytest.raises(ValueError, match="entry"):
        parse_current_graph_file("n 7\n0: (1 1)\n1: (0,-1)")
    with pytest.raises(ValueError, match="zero"):
        parse_current_graph_file("n 7\n0: (1,7)\n1: (0,-7)")
    with pytest.raises(ValueError, match="at least 2"):
        parse_current_graph_file("n 1\n0: (1,1)\n1: (0,-1)")
    with pytest.raises(ValueError, match="no vertex rows"):
        parse_current_graph_file("n 7\n")
    with pytest.raises(ValueError, match=r"missing rows for 999999999999 of vertices"):
        parse_current_graph_file(f"n 7\n0: (1,1)\n{10**12}: (0,-1)\n")
