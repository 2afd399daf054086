import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import ceil

import pytest

from biembed import cli, currents, embeddings, family, graphs, selfcomp, verify
from biembed.currents import derive_embedding, serialize_current_graph
from biembed.embeddings import RotationSystem
from biembed.family import FamilyParameter, build_pair
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
    return RotationSystem(((1, 2), (2, 0), (0, 1), ()))


def star_rotation() -> RotationSystem:
    return RotationSystem(((3,), (3,), (3,), (0, 1, 2)))


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
    bad = RotationSystem(((1, 1), (2, 0), (0, 1), ()))
    report = verify_biembedding(bad, star_rotation(), 4)
    assert ("rotations valid", False) in report.stages
    assert report.halves[0].faces is None
    text = render_report(report)
    assert "half 1 faces: -" in text
    assert "half 1 genus: -" in text
    assert "result: FAIL" in text


SPARSE_TABLE_REPORT = """\
n: 10000
residue class 0/13/16/21 mod 24: yes
bound value: 4161251
""" + "".join(f"""\
half {i} edges: 0
half {i} faces: 0
half {i} genus: -
half {i} triangular: yes
half {i} connected: no
half {i} isolated vertices: 10000
""" for i in (1, 2)) + """\
partition ok: no
achieves bound: no
stage rotation valid: pass
stage self-complementary under σ: FAIL
stage rotations valid: pass
stage edge partition: FAIL
stage halves connected: FAIL
stage halves triangular: pass
stage achieves bound: FAIL
result: FAIL
"""


def test_verify_table_memory_follows_the_rows_not_n_squared(tmp_path, capsys):
    # 10,000 empty rows list none of the ~5·10⁷ pairs: the partition fails
    # without the 100 MB n * n table
    table = tmp_path / "empty.rot"
    table.write_text("".join(f"{v}.\n" for v in range(10_000)))
    tracemalloc.start()
    try:
        code = cli.main(["verify-table", "--rotation", str(table)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out == SPARSE_TABLE_REPORT
    assert peak < 10 * 2**20


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
    if kind == "swap":
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    elif kind == "drop":  # the edge is still listed at its other end
        del rows[0][0]
    else:  # cut vertex 0 off: valid rows of a disconnected graph
        rows = [[w for w in row if w != 0] if v else [] for v, row in enumerate(rows)]
    return RotationSystem(tuple(map(tuple, rows)))


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


@pytest.mark.parametrize("argv", [["family", "verify", "--s", "2"], ["family", "search", "--s", "1"]],
                         ids=["verify", "search"])
def test_family_commands_certify_halves_from_the_log(monkeypatch, argv, capsys):
    # each half is certified from its circuit log: no rows, no phi over
    # darts, no n×n partition table
    calls = count_calls(monkeypatch, ("certify_half", "_face_permutation", "spans_all",
                                      "derive_embedding", "verify_biembedding"))
    assert cli.main(argv) == 0
    assert calls == {}


def test_family_verify_validates_and_traces_each_half_once(counted, monkeypatch, capsys):
    # each half is certified once, from its circuit log; the row tracer,
    # the phi over darts and the connectivity scan are never reached
    logs = count_calls(monkeypatch, ("certify_log",))
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert logs == {"certify_log": 2}
    assert counted == {}


def test_current_classes_computed_once_per_current_graph(monkeypatch, capsys):
    made = []

    def counting(n, x, _make=currents.DifferenceSet):
        made.append(n)
        return _make(n, x)

    monkeypatch.setattr(currents, "DifferenceSet", counting)
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert cli.main(["family", "search", "--s", "1"]) == 0
    assert made == [61, 61, 37, 37]


def test_verify_table_validates_and_traces_each_half_once(counted, monkeypatch, tmp_path, capsys):
    # the second half is the table relabelled by σ, an isomorphic embedding:
    # its certificate is the table's, and the σ stage is is_antimorphism
    doubled = count_calls(monkeypatch, ("relabel", "verify_biembedding", "complement"))
    path = tmp_path / "table21.rot"
    path.write_text(resources.files("biembed.data").joinpath("table21.rot").read_text())
    assert cli.main(["verify-table", "--rotation", str(path)]) == 0
    assert counted == {"certify_half": 1, "_face_permutation": 1, "spans_all": 1}
    assert doubled == {}


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    calls = count_calls(monkeypatch, ("build_parser",))
    assert cli.main(["bounds", "--n", "16"]) == 0
    assert cli.main(["family", "verify", "--s", "1"]) == 0
    assert cli.main(["verify-table", "--rotation", "/no/such/file.rot"]) == 2
    assert calls["build_parser"] == 0


def test_family_verify_validates_and_traces_each_current_graph_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, ("validate_current_graph", "_arc_pass", "current_sets"))
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert calls == {"validate_current_graph": 2, "_arc_pass": 2, "current_sets": 1}


def test_certifier_builds_no_edge_set(monkeypatch, tmp_path, capsys):
    # the rows are the whole map: no circulant or parsed edge set is built;
    # verify-table reads the table's graph once, for the σ stage, from the rows
    calls = count_calls(monkeypatch, ("make_circulant", "make_graph"))
    table = tmp_path / "table21.rot"
    table.write_text(resources.files("biembed.data").joinpath("table21.rot").read_text())
    half = tmp_path / "half37.cur"
    half.write_text(serialize_current_graph(build_pair(FamilyParameter(1)).first))
    assert cli.main(["family", "verify", "--s", "2"]) == 0
    assert cli.main(["derive", "--current-graph", str(half)]) == 0
    assert cli.main(["verify-table", "--rotation", str(table)]) == 0
    assert calls == {}


def test_derived_halves_never_build_their_graph(monkeypatch):
    # verify_pair derives no rows; the rows derive_embedding builds, as
    # verify_biembedding certifies them, still build no edge set
    calls = count_calls(monkeypatch, ("derive_embedding",))
    p = FamilyParameter(2)
    pair = build_pair(p)
    assert family.verify_pair(pair, p).passed
    assert calls == {}
    derived = [derive_embedding(pair.first), derive_embedding(pair.second)]
    assert verify_biembedding(*derived, p.n).passed
    assert not any("graph" in vars(rs) for rs in derived)
