import subprocess
import sys
from importlib import resources

import pytest

from biembed.cli import main
from biembed.currents import CurrentGraph, serialize_current_graph
from biembed.embeddings import is_triangular, parse_rotation_file, trace_faces
from biembed.graphs import make_complete, serialize_graph


@pytest.fixture
def table16(tmp_path):
    text = resources.files("biembed.data").joinpath("table16.rot").read_text()
    path = tmp_path / "table16.rot"
    path.write_text(text)
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    cg = CurrentGraph(7, (((1, 6), (1, 5), (1, 3)), ((0, 2), (0, 4), (0, 1))))
    path = tmp_path / "theta.cur"
    path.write_text(serialize_current_graph(cg))
    return str(path)


def test_verify_table_pass(table16, capsys):
    assert main(["verify-table", "--rotation", table16]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "n: 16" in out


def test_verify_table_wrong_form_fails(table16, capsys):
    code = main(["verify-table", "--rotation", table16, "--form", "cycle-plus-fixed-point"])
    assert code == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_verify_table_missing_file(capsys):
    assert main(["verify-table", "--rotation", "/no/such/file.rot"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_table_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text("nonsense\n")
    assert main(["verify-table", "--rotation", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_family_verify(capsys):
    assert main(["family", "verify", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "bound value: 38" in out


def test_family_search_finds_pair(capsys):
    assert main(["family", "search", "--s", "1"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_family_search_budget_exhausted(capsys):
    assert main(["family", "search", "--s", "1", "--budget", "1"]) == 1
    assert "no pair found" in capsys.readouterr().err


def test_family_usage_errors(capsys):
    assert main(["family", "verify", "--s", "0"]) == 2
    assert main(["family", "search", "--s", "1", "--budget", "0"]) == 2


def test_bounds_n(capsys):
    assert main(["bounds", "--n", "37"]) == 0
    out = capsys.readouterr().out
    assert "bigenus lower bound: 38" in out
    assert "residue class 0/13/16/21 mod 24: yes" in out


def test_bounds_g(capsys):
    assert main(["bounds", "--g", "1"]) == 0
    assert "bichromatic upper bound: 13" in capsys.readouterr().out


def test_bounds_requires_an_argument(capsys):
    assert main(["bounds"]) == 2
    assert "pass --n and/or --g" in capsys.readouterr().err


def test_bounds_rejects_tiny_n(capsys):
    assert main(["bounds", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_removed_spellings_are_usage_errors(table16, capsys):
    # `selfcomp verify` was a second spelling of verify-table, and
    # `family verify` never used a budget
    for argv in (["selfcomp", "verify", "--table", table16],
                 ["family", "verify", "--s", "1", "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_selfcomp_search_k4(tmp_path, capsys):
    path = tmp_path / "k4.graph"
    path.write_text(serialize_graph(make_complete(4)))
    assert main(["selfcomp", "search", "--graph", str(path)]) == 0
    rs = parse_rotation_file(capsys.readouterr().out)
    assert is_triangular(trace_faces(rs))


def test_selfcomp_search_impossible_arc_count(tmp_path, capsys):
    path = tmp_path / "k5.graph"
    path.write_text(serialize_graph(make_complete(5)))
    assert main(["selfcomp", "search", "--graph", str(path)]) == 2
    assert "divisible by 3" in capsys.readouterr().err


def test_selfcomp_search_rejects_vertices_on_no_edge(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("1000000000\n")
    assert main(["selfcomp", "search", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 1000000000 of 1000000000 vertices lie on no edge; "
        "a triangulated surface has every vertex on a triangle\n"
    )


def test_selfcomp_search_budget_exhausted(tmp_path, capsys):
    path = tmp_path / "k7.graph"
    path.write_text(serialize_graph(make_complete(7)))
    assert main(["selfcomp", "search", "--graph", str(path), "--budget", "5"]) == 1
    assert "no triangular embedding" in capsys.readouterr().err


def test_derive_outputs_rotation(theta_file, capsys):
    assert main(["derive", "--current-graph", theta_file]) == 0
    rs = parse_rotation_file(capsys.readouterr().out)
    assert rs.graph.n == 7
    assert is_triangular(trace_faces(rs))


def test_derive_rejects_invalid_current_graph(tmp_path, capsys):
    bad = tmp_path / "bad.cur"
    # entering currents sum to 6, not 0 mod 37
    bad.write_text("n 37\n0: (1,-1) (1,-2) (1,-3)\n1: (0,1) (0,2) (0,3)\n")
    assert main(["derive", "--current-graph", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("n 0\n0: (1,1)\n", "modulus must be at least 2, got 0"), ("n 7\n", "no vertex rows")],
    ids=["zero-modulus", "header-only"],
)
def test_derive_rejects_degenerate_files(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cur"
    path.write_text(text)
    assert main(["derive", "--current-graph", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "bounds.txt"
    assert main(["bounds", "--n", "16", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "bigenus lower bound: 3" in target.read_text()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_repeated_runs_byte_identical():
    cmd = [sys.executable, "-m", "biembed", "family", "verify", "--s", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
