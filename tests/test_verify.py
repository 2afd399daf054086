from collections import Counter
from fractions import Fraction
from importlib import resources
from math import ceil

import pytest

from biembed import cli, currents, embeddings, family, graphs, selfcomp, verify
from biembed.currents import derive_embedding
from biembed.embeddings import RotationSystem, make_rotation_system
from biembed.family import FamilyParameter, build_pair
from biembed.graphs import make_graph
from biembed.selfcomp import load_bundled_table, verify_table
from biembed.verify import (
    bichromatic_upper_bound,
    biembedding_edge_bound,
    bigenus_lower_bound,
    render_report,
    verify_biembedding,
    with_stages,
)


def test_bigenus_spot_values():
    assert bigenus_lower_bound(8) == 0
    assert bigenus_lower_bound(9) == 0
    assert bigenus_lower_bound(13) == 1
    assert bigenus_lower_bound(14) == 2
    assert bigenus_lower_bound(16) == 3
    assert bigenus_lower_bound(21) == 8
    assert bigenus_lower_bound(24) == 12
    assert bigenus_lower_bound(37) == 38


def test_bigenus_rejects_tiny():
    with pytest.raises(ValueError, match="n >= 3"):
        bigenus_lower_bound(2)


def test_bigenus_is_exact_ceiling():
    for n in range(3, 500):
        want = max(0, ceil(Fraction(n * n - 13 * n + 24, 24)))
        assert bigenus_lower_bound(n) == want


def test_bigenus_nondecreasing_from_13():
    values = [bigenus_lower_bound(n) for n in range(13, 600)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_residue_classes_divide_evenly():
    # on the residue classes where triangular biembeddings can exist the
    # ceiling is exact: 24 divides n^2 - 13n + 24
    for n in range(13, 1001):
        if n % 24 in (0, 13, 16, 21):
            assert (n * n - 13 * n + 24) % 24 == 0


def test_bichromatic_spot_values():
    assert bichromatic_upper_bound(1) == 13
    assert bichromatic_upper_bound(3) == 16
    assert bichromatic_upper_bound(8) == 21
    assert bichromatic_upper_bound(12) == 24
    assert bichromatic_upper_bound(38) == 37


def test_bichromatic_rejects_sphere():
    with pytest.raises(ValueError, match="sphere"):
        bichromatic_upper_bound(0)


def test_bichromatic_is_exact_floor():
    # m = floor((13 + sqrt(73 + 96g))/2) means m is the largest integer with
    # (2m - 13)^2 <= 73 + 96g; check that inequality pair exactly
    for g in list(range(1, 2000)) + [10**6, 10**12 + 7, 10**18 + 11]:
        m = bichromatic_upper_bound(g)
        x = 73 + 96 * g
        assert (2 * m - 13) ** 2 <= x
        assert (2 * (m + 1) - 13) ** 2 > x


def test_bounds_are_mutually_inverse():
    for n in range(14, 200):
        g = bigenus_lower_bound(n)
        assert bichromatic_upper_bound(g) >= n
    for g in range(1, 500):
        n = bichromatic_upper_bound(g)
        assert bigenus_lower_bound(n) <= g


def test_edge_bound_values():
    assert biembedding_edge_bound(37, 38) == 666
    assert biembedding_edge_bound(3, 0) == 6
    with pytest.raises(ValueError, match="v >= 3"):
        biembedding_edge_bound(2, 1)


@pytest.mark.parametrize("n", [16, 21, 24])
def test_edge_bound_tight_for_bundled_tables(n):
    rs, form = load_bundled_table(n)
    report = verify_table(rs, form)
    assert report.passed
    assert biembedding_edge_bound(n, report.halves[0].genus) == n * (n - 1) // 2


def test_same_embedding_twice_fails_partition():
    rs, _ = load_bundled_table(16)
    report = verify_biembedding(rs, rs, 16)
    assert not report.partition_ok
    assert ("edge partition", False) in report.stages
    assert not report.passed


def test_order_mismatch_rejected():
    rs, _ = load_bundled_table(16)
    with pytest.raises(ValueError, match="expected 21"):
        verify_biembedding(rs, rs, 21)


def triangle_plus_isolated() -> RotationSystem:
    g = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    return make_rotation_system(g, ((1, 2), (2, 0), (0, 1), ()))


def star_rotation() -> RotationSystem:
    g = make_graph(4, [(0, 3), (1, 3), (2, 3)])
    return make_rotation_system(g, ((3,), (3,), (3,), (0, 1, 2)))


def test_isolated_vertex_recorded_and_blocks_connectivity():
    report = verify_biembedding(triangle_plus_isolated(), star_rotation(), 4)
    h1, h2 = report.halves
    assert h1.isolated_vertices == 1
    assert not h1.connected
    assert h1.genus is None  # genus undefined off a single component
    assert h1.faces == 2  # tracing still fine: two triangle sides
    assert h2.connected and h2.genus == 0
    assert report.partition_ok
    assert ("halves connected", False) in report.stages
    assert not report.passed


def test_invalid_rotation_leaves_faces_blank():
    g = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    bad = RotationSystem(g, ((1, 1), (2, 0), (0, 1), ()))
    report = verify_biembedding(bad, star_rotation(), 4)
    assert ("rotations valid", False) in report.stages
    assert report.halves[0].faces is None
    text = render_report(report)
    assert "half 1 faces: -" in text
    assert "half 1 genus: -" in text
    assert "result: FAIL" in text


def test_render_report_stable_and_ordered():
    rs, form = load_bundled_table(16)
    report = verify_table(rs, form)
    text = render_report(report)
    assert text == render_report(report)
    lines = text.splitlines()
    assert lines[0] == "n: 16"
    assert lines[-1] == "result: PASS"
    assert "stage edge partition: pass" in text


def test_render_marks_failed_stage():
    rs, _ = load_bundled_table(16)
    text = render_report(verify_biembedding(rs, rs, 16))
    assert "stage edge partition: FAIL" in text
    assert text.rstrip().endswith("result: FAIL")


def test_with_stages_prepends():
    rs, _ = load_bundled_table(16)
    report = verify_biembedding(rs, rs, 16)
    widened = with_stages(report, [("seed check", True)])
    assert widened.stages[0] == ("seed check", True)
    assert widened.stages[1:] == report.stages


def s1_halves():
    pair = build_pair(FamilyParameter(1))
    return derive_embedding(pair.first), derive_embedding(pair.second)


def mutated(kind: str) -> RotationSystem:
    r1, _ = s1_halves()
    rows = [list(row) for row in r1.rotation]
    graph = r1.graph
    if kind == "swap":
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    elif kind == "drop":
        del rows[0][0]
    else:  # cut vertex 0 off: valid rows of a disconnected graph
        rows = [[w for w in row if w != 0] if v else [] for v, row in enumerate(rows)]
        graph = make_graph(37, [e for e in graph.edges if 0 not in e])
    return RotationSystem(graph, tuple(map(tuple, rows)))


def fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines())


# the report fields for half 1, the partition and the stages, as the
# certifier printed them before it traced each half in a single pass
MUTATION_FIELDS = {
    "swap": ("333", "220", "39", "no", "yes", "0", "yes", "pass", "pass", "pass", "FAIL"),
    "drop": ("333", "-", "-", "no", "yes", "0", "yes", "FAIL", "pass", "pass", "FAIL"),
    "cut": ("315", "205", "-", "no", "no", "1", "no", "pass", "FAIL", "FAIL", "FAIL"),
}
FIELD_NAMES = (
    "half 1 edges", "half 1 faces", "half 1 genus", "half 1 triangular", "half 1 connected",
    "half 1 isolated vertices", "partition ok", "stage rotations valid", "stage edge partition",
    "stage halves connected", "stage halves triangular",
)


@pytest.mark.parametrize("kind", sorted(MUTATION_FIELDS))
def test_mutated_half_report(kind):
    r1, r2 = s1_halves()
    good = fields(render_report(verify_biembedding(r1, r2, 37)))
    got = fields(render_report(verify_biembedding(mutated(kind), r2, 37)))
    assert {k: got[k] for k in FIELD_NAMES} == dict(zip(FIELD_NAMES, MUTATION_FIELDS[kind]))
    assert {k: v for k, v in got.items() if k.startswith("half 2")} == {
        k: v for k, v in good.items() if k.startswith("half 2")}
    assert got["achieves bound"] == "no" and got["result"] == "FAIL"


def count_calls(monkeypatch, names) -> Counter:
    """Calls, by name, of the named functions, wherever a module of the
    package refers to them."""
    calls: Counter = Counter()
    for module in (cli, currents, embeddings, family, graphs, selfcomp, verify):
        for name in names:
            if hasattr(module, name):
                fn = getattr(module, name)

                def counting(*args, _fn=fn, _name=name):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """Calls of every function that validates, traces or checks connectivity."""
    return count_calls(monkeypatch, ("certify_half", "_face_permutation", "validate_rotation",
                                     "trace_faces", "is_connected", "spans_all"))


def test_family_verify_validates_and_traces_each_half_once(counted, capsys):
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert counted == {"certify_half": 2, "_face_permutation": 2, "spans_all": 2}


def test_verify_table_validates_and_traces_each_half_once(counted, tmp_path, capsys):
    path = tmp_path / "table21.rot"
    path.write_text(resources.files("biembed.data").joinpath("table21.rot").read_text())
    assert cli.main(["verify-table", "--rotation", str(path)]) == 0
    assert counted == {"certify_half": 2, "_face_permutation": 2, "spans_all": 2}


def test_family_verify_validates_and_traces_each_current_graph_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, ("validate_current_graph", "_face_orbits", "_twin_map"))
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert calls == {"validate_current_graph": 2, "_face_orbits": 2, "_twin_map": 2}
