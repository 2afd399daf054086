import random

import pytest

from biembed import currents
from biembed.cli import main
from biembed.currents import (
    CurrentGraph,
    CurrentGraphReport,
    certify_log,
    circuit_log,
    current_classes,
    derive_embedding,
    derived_text,
    parse_current_graph_file,
    serialize_current_graph,
    validate_current_graph,
)
from biembed.embeddings import RotationSystem, serialize_rotation, surface_stats, trace_faces
from biembed.family import FamilyParameter, build_pair, search_pair
from biembed.graphs import DifferenceSet, make_circulant
from oracle import oracle_current_faces, oracle_current_report, random_current_rows


def theta_z7() -> CurrentGraph:
    """Two vertices joined by three parallel edges carrying 1, 2, 4 over Z_7.

    Entering currents at vertex 0 are (1, 2, 4) in rotation order and the
    reverses enter vertex 1, so Kirchhoff holds (1+2+4 = 7) and the derived
    embedding is a triangulation of K_7 on the torus.
    """
    return theta(7)


def theta(n: int) -> CurrentGraph:
    """The theta graph over Z_n in which currents 1, 2 and n - 3 enter vertex 0."""
    return CurrentGraph(n, (((1, n - 1), (1, n - 2), (1, 3)), ((0, 2), (0, n - 3), (0, 1))))


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


def test_face_trace_matches_the_oracle_scan_on_random_multigraphs():
    rng = random.Random(20261019)
    for _ in range(2000):
        n, rows = random_current_rows(rng)
        try:
            want = oracle_current_faces(n, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                CurrentGraph(n, tuple(rows))
            assert str(got.value) == str(exc), (n, rows)
            continue
        cg = CurrentGraph(n, tuple(rows))
        assert len(cg.faces) == len(want), (n, rows)
        if len(want) == 1:
            currents = [rows[v][i][1] for v, i in want[0]]
            k = currents.index(min(currents))
            assert circuit_log(cg) == tuple(currents[k:] + currents[:k]), (n, rows)


def assert_report_matches_the_oracle(n: int, rows) -> None:
    """Construction, the report and the classes agree with the oracle: the
    same unpaired-arc message, or the same facts in the same failures."""
    try:
        want = oracle_current_report(n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            CurrentGraph(n, tuple(rows))
        assert str(got.value) == str(exc), (n, rows)
        return
    cg = CurrentGraph(n, tuple(rows))
    failures = []
    if want["not_cubic"]:
        failures.append(f"vertices {want['not_cubic']} do not have degree 3")
    if want["faces"] != 1:
        failures.append(f"embedding has {want['faces']} faces, expected 1")
    failures += [f"currents entering vertex {v} sum to {e}, not 0" for v, e in want["unbalanced"]]
    if want["repeated"]:
        failures.append(f"currents {want['repeated']} repeat across edges (up to sign)")
    assert validate_current_graph(cg) == CurrentGraphReport(
        want["faces"] == 1, not want["not_cubic"], not want["unbalanced"], not want["repeated"],
        tuple(failures),
    ), (n, rows)
    if n % 2 == 0 and n // 2 in want["classes"]:
        with pytest.raises(ValueError, match="equals n/2"):
            current_classes(cg)
    else:
        assert current_classes(cg).x == want["classes"], (n, rows)


def test_report_matches_the_oracle_on_random_multigraphs():
    # the inputs of the face-trace cross-check above: loops, parallel edges,
    # repeated classes, n/2 currents and unpaired arcs
    rng = random.Random(20261019)
    for _ in range(2000):
        assert_report_matches_the_oracle(*random_current_rows(rng))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_report_matches_the_oracle_on_template_halves_with_a_flipped_current(s):
    # flipped at one end, the arc loses its reverse; flipped at both ends,
    # the faces stay and Kirchhoff fails at both endpoints
    pair = build_pair(FamilyParameter(s))
    for cg in (pair.first, pair.second):
        n, rows = cg.n, [list(row) for row in cg.rows]
        assert_report_matches_the_oracle(n, rows)
        for v, row in enumerate(rows):
            for i, (w, c) in enumerate(row):
                one_end = [list(r) for r in rows]
                one_end[v][i] = (w, n - c)
                assert_report_matches_the_oracle(n, one_end)
                j = rows[w].index((v, n - c))
                both_ends = [list(r) for r in one_end]
                both_ends[w][j] = (v, c)
                assert_report_matches_the_oracle(n, both_ends)


@pytest.mark.parametrize(
    "rows, err",
    [
        ((((5, 1), (1, 2), (1, 4)), ((0, 3), (0, 5), (0, 6))), "vertex 0 lists unknown neighbor 5"),
        ((((-1, 1),), ()), "vertex 0 lists unknown neighbor -1"),
        ((((5, 9),), ()), "vertex 0 lists unknown neighbor 5"),  # the neighbor is checked first
        ((((1, 7),), ((0, 0),)), "current 7 at vertex 0 outside 1..6"),
        ((((1, 0),), ((0, 7),)), "current 0 at vertex 0 outside 1..6"),
        # row 0's first arc has no reverse, but the range error in row 1 is named
        ((((1, 1), (1, 2), (1, 3)), ((0, 3), (0, 5), (0, 9))), "current 9 at vertex 1 outside 1..6"),
        ((((1, 1), (1, 2), (1, 3)), ((0, 3), (0, 5), (2, 6))), "vertex 1 lists unknown neighbor 2"),
        ((((1, 1), (1, 2), (1, 3)), ((0, 3), (0, 5), (0, 4))),
         "arc 0->1 with current 1 has no reverse arc carrying 6"),
    ],
)
def test_range_errors_come_before_a_missing_reverse(rows, err):
    with pytest.raises(ValueError) as got:
        CurrentGraph(7, rows)
    assert str(got.value) == err


@pytest.mark.parametrize(
    "rows, err",
    [
        ("0: (5,1) (1,2) (1,4)\n1: (0,-4) (0,-2) (0,-1)", "vertex 0 lists unknown neighbor 5"),
        ("0: (1,1) (1,2) (1,3)\n1: (0,3) (0,5) (2,6)", "vertex 1 lists unknown neighbor 2"),
    ],
)
def test_derive_names_a_range_error_on_one_line(tmp_path, capsys, rows, err):
    # the parser reduces currents mod n and refuses 0, so of the two range
    # errors only the neighbor's reaches the CLI
    path = tmp_path / "bad.cur"
    path.write_text(f"n 7\n{rows}\n")
    assert main(["derive", "--current-graph", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


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
    # the template fills the flat arrays itself; parsed rows are flattened
    for s in (1, 2, 3):
        pair = build_pair(FamilyParameter(s))
        for half in (pair.first, pair.second):
            parsed = parse_current_graph_file(serialize_current_graph(half))
            assert parsed == half and parsed.rows == half.rows
        assert pair.first != pair.second


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


def shifted_rows(n: int, log: tuple[int, ...]) -> RotationSystem:
    return RotationSystem(tuple(tuple((k + d) % n for d in log) for k in range(n)))


def family_logs(s: int) -> list[tuple[int, ...]]:
    pair = build_pair(FamilyParameter(s))
    return [circuit_log(pair.first), circuit_log(pair.second)]


def adjacent_swaps(log: tuple[int, ...]):
    for i in range(len(log) - 1):
        swapped = list(log)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield tuple(swapped)


def test_log_certificate_matches_the_full_trace_on_mutated_family_logs():
    # the reference is the certificate of the materialised rows: phi over all
    # n·|log| darts, cycle lengths, a search from vertex 0
    logs = [(24 * s + 13, log) for s in (1, 2) for log in family_logs(s)]
    cases = [(n, log[::-1]) for n, log in logs]
    cases += [(n, swapped) for n, log in logs for swapped in adjacent_swaps(log)]
    non_triangular = 0
    for n, log in cases:
        cert = certify_log(n, log)
        assert cert == shifted_rows(n, log).certificate, (n, log)
        non_triangular += not cert.triangular
    assert non_triangular > len(cases) // 2  # most swaps break some triangle


@pytest.mark.parametrize(
    "n, log, connected",
    [
        (15, (3, 6, 12, 9), False),  # gcd(15, 3, 6) = 3: three components
        (15, (3, 5, 12, 10), True),  # composite n, currents each share a factor
        (111, tuple(3 * d for d in (1, 6, 15, 14, 3, 5, 36, 22, 28, 2, 34, 11, 9, 31, 32, 35,
                                    26, 23)), False),  # the s = 1 log scaled into Z_111
        (8, (1, 3, 4, 4, 5, 7), True),  # n/2 twice: a repeat, so invalid
        (9, (1, 2, 8), True),  # 7 = -2 missing: not closed under negation
        (9, (0, 1, 8), True),  # 0 lists each vertex in its own row
        (9, (0,), False),  # only self entries: every vertex isolated
        (9, (), False),
    ],
)
def test_log_certificate_matches_the_full_trace_on_synthetic_logs(n, log, connected):
    cert = certify_log(n, log)
    assert cert == shifted_rows(n, log).certificate
    assert cert.connected is connected
    if not connected:
        assert cert.genus is None


def test_log_certificate_matches_the_full_trace_on_random_logs():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(2, 30)
        classes = rng.sample(range(1, n // 2 + 1), rng.randrange(0, n // 2 + 1))
        log = [d for c in classes for d in {c, n - c}]
        rng.shuffle(log)
        if log and rng.random() < 0.3:  # break validity now and then
            log[rng.randrange(len(log))] = rng.randrange(n)
        assert certify_log(n, tuple(log)) == shifted_rows(n, tuple(log)).certificate, (n, log)


def test_current_graph_certificate_is_its_log_certificate():
    cg = theta_z7()
    assert cg.certificate == certify_log(7, circuit_log(cg))
    assert cg.certificate == derive_embedding(cg).certificate
    assert cg.certificate is cg.certificate  # cached


@pytest.mark.parametrize(
    "old, new, err",
    [
        ("0: (5,-9)", "0: (5,9)", "arc 0->5 with current 9 has no reverse arc carrying 28"),
        ("0: (5,-9) (2,-6) (1,15)\n1: (0,-15)", "0: (5,-9) (2,-6) (1,-15)\n1: (0,15)",
         "current graph fails validation: currents entering vertex 0 sum to 30, not 0; "
         "currents entering vertex 1 sum to 7, not 0"),
    ],
    ids=["one-end", "both-ends"],
)
def test_derive_rejects_a_flipped_current(tmp_path, capsys, old, new, err):
    text = serialize_current_graph(build_pair(FamilyParameter(1)).first)
    assert old in text
    path = tmp_path / "flipped.cur"
    path.write_text(text.replace(old, new))
    assert main(["derive", "--current-graph", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def _derived_inputs():
    for s in range(1, 11):
        pair = build_pair(FamilyParameter(s))
        yield pytest.param(pair.first, id=f"s{s}-first")
        yield pytest.param(pair.second, id=f"s{s}-second")
    k13 = search_pair(DifferenceSet(13, frozenset({1, 3, 4})), DifferenceSet(13, frozenset({2, 5, 6})))
    yield pytest.param(k13.first, id="k13-first")
    yield pytest.param(k13.second, id="k13-second")
    for n in (7, 13, 20_011, 100_003):  # Z_100,003 spans 10 chunks, the last one short
        yield pytest.param(theta(n), id=f"theta-{n}")


@pytest.mark.parametrize("cg", _derived_inputs())
def test_derived_text_is_the_serialized_derived_embedding(monkeypatch, cg):
    reference = serialize_rotation(derive_embedding(cg))
    size = len(circuit_log(cg))
    uneven = next(rows for rows in range(3, cg.n) if cg.n % rows)
    # the default chunks, chunks of one row, and chunks of a row count not dividing n
    for block in (currents._BLOCK, 1, uneven * size):
        monkeypatch.setattr(currents, "_BLOCK", block)
        chunks = list(derived_text(cg))
        assert len(chunks) == -(-cg.n // max(1, block // size))
        assert "".join(chunks) == reference
