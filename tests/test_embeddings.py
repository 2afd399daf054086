import random
import re
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import oracle
from biembed.embeddings import (
    RotationSystem,
    parse_rotation_file,
    serialize_rotation,
    surface_stats,
    trace_faces,
    validate_rotation,
)
from biembed.graphs import complement, is_connected, make_graph
from biembed.verify import verify_biembedding

from oracle import canonical_face_set, oracle_faces, random_rotation_data


def ascending_k4():
    return RotationSystem(tuple(tuple(w for w in range(4) if w != v) for v in range(4)))


def test_k3_spherical_triangles():
    rs = RotationSystem(((1, 2), (2, 0), (0, 1)))
    fs = trace_faces(rs)
    assert fs.lengths() == [3, 3]
    assert surface_stats(rs).genus == 0


def test_k4_ascending_rotation():
    fs = trace_faces(ascending_k4())
    assert sorted(fs.lengths()) == [4, 8]
    assert not ascending_k4().certificate.triangular
    st = surface_stats(ascending_k4())
    assert (st.v, st.e, st.f, st.genus) == (4, 6, 2, 1)


def test_face_arcs_are_exactly_the_arc_set():
    rs = ascending_k4()
    arcs = [a for f in trace_faces(rs).faces for a in f]
    assert len(arcs) == 12
    assert sorted(arcs) == sorted(
        (u, v) for e in rs.graph.edges for u, v in (e, e[::-1])
    )


def test_validate_reports_each_violation_kind():
    # the graph is every pair the rows list, so only a vertex out of range
    # can be a non-neighbor
    rs = RotationSystem(((1, 3), (0, 0, 2), (2,)))
    report = validate_rotation(rs)
    kinds = {(v.vertex, v.kind) for v in report.violations}
    assert (0, "non-neighbor present") in kinds  # vertex 0 lists 3
    assert (1, "duplicate neighbor") in kinds    # vertex 1 lists 0 twice
    assert (2, "self in rotation") in kinds      # vertex 2 lists itself
    assert (2, "missing neighbor") in kinds      # vertex 1 lists 2, which omits 1
    assert not report.ok


def test_trace_rejects_invalid_rotation():
    rs = RotationSystem(((1,), (0, 2), (1, 0)))  # 2 lists 0, which omits 2
    with pytest.raises(ValueError, match="validate_rotation"):
        trace_faces(rs)


def test_disconnected_genus_rejected():
    rs = RotationSystem(((1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4)))
    with pytest.raises(ValueError, match="disconnected"):
        surface_stats(rs)
    # tracing itself is still fine
    assert sorted(trace_faces(rs).lengths()) == [3, 3, 3, 3]


def test_matches_oracle_on_random_systems():
    rng = random.Random(20240915)
    for _ in range(300):
        n, edges, rows = random_rotation_data(rng)
        rs = RotationSystem(tuple(rows))
        got = canonical_face_set(trace_faces(rs).faces)
        want = canonical_face_set(oracle_faces({v: rows[v] for v in range(n)}))
        assert got == want


def test_exhaustive_k4_oracle_equivalence():
    neighbor_orders = [list(permutations([w for w in range(4) if w != v])) for v in range(4)]
    count = 0
    for r0 in neighbor_orders[0]:
        for r1 in neighbor_orders[1]:
            for r2 in neighbor_orders[2]:
                for r3 in neighbor_orders[3]:
                    rs = RotationSystem((r0, r1, r2, r3))
                    rotation = {0: r0, 1: r1, 2: r2, 3: r3}
                    assert canonical_face_set(trace_faces(rs).faces) == canonical_face_set(
                        oracle_faces(rotation)
                    )
                    count += 1
    assert count == 1296


def test_orientation_reversal_preserves_genus():
    rng = random.Random(7)
    for _ in range(80):
        n, edges, rows = random_rotation_data(rng)
        rs = RotationSystem(tuple(rows))
        rev = RotationSystem(tuple(tuple(reversed(r)) for r in rows))
        assert trace_faces(rs).face_count == trace_faces(rev).face_count


def test_triangularity_matches_arithmetic_identity():
    rng = random.Random(99)
    for _ in range(120):
        n, edges, rows = random_rotation_data(rng)
        rs = RotationSystem(tuple(rows))
        fs = trace_faces(rs)
        e = len(edges)
        if rs.certificate.triangular and e:
            assert 3 * fs.face_count == 2 * e
        if e and 3 * fs.face_count == 2 * e and all(len(f) == 3 for f in fs.faces):
            assert rs.certificate.triangular


def test_rotation_file_round_trip():
    text = "0. 1 9 5 3\n1. 0 3\n"
    with pytest.raises(ValueError):
        parse_rotation_file(text)  # implied edges not symmetric
    rs = ascending_k4()
    assert parse_rotation_file(serialize_rotation(rs)) == rs


def test_rotation_file_errors():
    with pytest.raises(ValueError, match="duplicate"):
        parse_rotation_file("0. 1\n1. 0\n0. 1\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_rotation_file("0: 1 2\n")
    with pytest.raises(ValueError, match="missing rows"):
        parse_rotation_file("0. 2\n2. 0\n")
    with pytest.raises(ValueError):
        parse_rotation_file("\n\n")
    with pytest.raises(ValueError, match="negative"):
        parse_rotation_file("0. 1\n1. 0\n-1.\n")


def test_huge_row_label_costs_nothing():
    # one stray label must not make the parser walk every label below it
    with pytest.raises(ValueError, match=r"missing rows for 999999999998 of vertices .*: 2, 3, 4, \.\.\."):
        parse_rotation_file(f"0. 1\n1. 0\n{10**12}.\n")


def test_rotation_file_tolerates_whitespace():
    rs = parse_rotation_file("  0.   1 2 \n\n1. 2 0\n2. 0 1\n\n\n")
    assert rs.rotation[0] == (1, 2)
    assert surface_stats(rs).genus == 0


def test_isolated_vertex_allowed_in_format():
    rs = parse_rotation_file("0. 1\n1. 0\n2.\n")
    assert rs.graph.n == 3
    assert rs.rotation[2] == ()
    assert trace_faces(rs).face_count == 1


def test_certificate_matches_oracle_on_random_systems():
    rng = random.Random(20261017)
    for _ in range(300):
        n, edges, rows = random_rotation_data(rng)
        rs = RotationSystem(tuple(rows))
        faces = oracle_faces({v: rows[v] for v in range(n)})
        cert = rs.certificate
        assert cert.valid
        assert cert.faces == len(faces)
        assert cert.triangular == all(len(f) == 3 for f in faces)
        assert cert.connected == is_connected(rs.graph)
        assert cert.isolated_vertices == sum(not row for row in rows)


def _violations(rs):
    # the neighbor a violation names is the first integer in its detail
    return [(x.vertex, x.kind, int(re.search(r"-?\d+", x.detail)[0]))
            for x in validate_rotation(rs).violations]


def test_certificate_validity_matches_validate_rotation():
    # each mutation breaks "rows = adjacency" in a different way, or not at
    # all; the partition against the complement of the unmutated graph must
    # read the rows as their ``graph`` does
    rng = random.Random(41)
    checked = 0
    kinds, partitions = Counter(), Counter()
    for _ in range(600):
        n, edges, rows = random_rotation_data(rng)
        if not edges:
            continue
        rows = [list(r) for r in rows]
        v = rng.choice([v for v in range(n) if rows[v]])
        strangers = [u for u in range(n) if u != v and u not in rows[v]]
        kind = rng.randrange(8)
        if kind == 5 and not strangers:
            kind = 7
        if kind == 0:
            rows[v].pop()  # missing neighbor
        elif kind == 1:
            rows[v].append(rows[v][0])  # duplicate
        elif kind == 2:
            rows[v][0] = v  # self, and a missing neighbor
        elif kind == 3:
            rows[v].append(n)  # out of range
        elif kind == 4:
            rows[v].append(-1)  # negative: must not index from the end
        elif kind == 5:
            rows[v].append(rng.choice(strangers))  # one-way arc
        elif kind == 6:
            rows[v].insert(rng.randrange(len(rows[v]) + 1), v)  # self only
        else:
            rng.shuffle(rows[v])  # still valid
        kinds[kind] += 1
        rs = RotationSystem(tuple(map(tuple, rows)))
        violations = _violations(rs)
        assert violations == oracle.oracle_rotation_violations(rows)
        assert rs.certificate.valid == (not violations)
        if not rs.certificate.valid:
            assert rs.certificate.faces is None and not rs.certificate.triangular
            with pytest.raises(ValueError, match="validate_rotation"):
                trace_faces(rs)
        if n >= 3:
            other_graph = complement(make_graph(n, edges))
            other_rows = [[] for _ in range(n)]
            for a, b in sorted(other_graph.edges):
                other_rows[a].append(b)
                other_rows[b].append(a)
            other = RotationSystem(tuple(map(tuple, other_rows)))
            e1, e2 = rs.graph.edges, other.graph.edges
            want = e1.isdisjoint(e2) and len(e1) + len(e2) == n * (n - 1) // 2
            assert verify_biembedding(rs, other, n).partition_ok == want
            partitions[want] += 1
        checked += 1
    assert checked > 400 and len(kinds) == 8
    assert partitions[True] > 50 and partitions[False] > 20


def test_validate_rotation_lists_violations_as_the_oracle_does():
    # up to three mutations a system, so one row can break in several ways
    # at once and its violations must come in the oracle's order
    rng = random.Random(43)
    several = 0
    for _ in range(1_000):
        n, _, rows = random_rotation_data(rng)
        rows = [list(r) for r in rows]
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            row, kind = rows[v], rng.randrange(5)
            if kind == 0 and row:
                row.pop(rng.randrange(len(row)))
            elif kind == 1 and row:
                row.insert(rng.randrange(len(row) + 1), rng.choice(row))
            elif kind == 2:
                row.insert(rng.randrange(len(row) + 1), v)
            elif kind == 3:
                row.append(rng.choice([-1, n, n + 2]))
            else:
                row.append(rng.randrange(n))
        want = oracle.oracle_rotation_violations(rows)
        rs = RotationSystem(tuple(map(tuple, rows)))
        assert _violations(rs) == want
        several += len(want) > len({v for v, _, _ in want})
    assert several > 200


def test_oracle_shares_no_code_with_the_package():
    assert "biembed" not in Path(oracle.__file__).read_text()
