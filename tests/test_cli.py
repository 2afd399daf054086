import os
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from biembed import currents
from biembed.cli import main
from biembed.currents import CurrentGraph, serialize_current_graph
from biembed.embeddings import parse_rotation_file, trace_faces
from biembed.family import S_MAX
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


def _edit_row_0(path: str, edit) -> None:
    lines = Path(path).read_text().splitlines()
    lines[0] = edit(lines[0])  # "0. 1 9 5 3"
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("extra", [" 1", " 0"], ids=["duplicate", "self"])
def test_verify_table_reports_an_invalid_row(table16, capsys, extra):
    _edit_row_0(table16, lambda row: row + extra)
    assert main(["verify-table", "--rotation", table16]) == 1
    out = capsys.readouterr().out.splitlines()
    for line in ("half 1 edges: 60", "partition ok: yes", "stage rotations valid: FAIL",
                 "result: FAIL"):
        assert line in out


def test_verify_table_rejects_a_one_way_arc(table16, capsys):
    _edit_row_0(table16, lambda row: row.rsplit(" ", 1)[0])
    assert main(["verify-table", "--rotation", table16]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rotation inconsistent with implied edge set: 3 lists 0 but 0 does not list 3\n"
    )


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
    assert capsys.readouterr().err == (
        "error: family parameter s must be at least 1, got 0 "
        "(K_13 is known but below the template range)\n"
    )
    assert main(["family", "search", "--s", "1", "--budget", "0"]) == 2
    assert capsys.readouterr().err == "error: budget must be positive, got 0\n"


@pytest.mark.parametrize("mode", ["verify", "search"])
def test_family_s_above_the_bound_exits_before_any_work(mode, capsys):
    start = time.perf_counter()
    assert main(["family", mode, "--s", str(S_MAX + 1)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", (
        f"error: family parameter s must be at most {S_MAX}, got {S_MAX + 1} "
        "(memory grows by about 6 KB per unit of s)\n"))


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
    assert set(trace_faces(rs).lengths()) == {3}


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


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_selfcomp_search_rejects_non_positive_budget(tmp_path, capsys, budget):
    path = tmp_path / "k4.graph"
    path.write_text(serialize_graph(make_complete(4)))
    assert main(["selfcomp", "search", "--graph", str(path), "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budget must be positive, got {budget}\n"


def test_derive_outputs_rotation(theta_file, capsys):
    assert main(["derive", "--current-graph", theta_file]) == 0
    rs = parse_rotation_file(capsys.readouterr().out)
    assert rs.graph.n == 7
    assert set(trace_faces(rs).lengths()) == {3}


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


def test_derive_memory_follows_n_not_the_rows(tmp_path):
    # the rows as ints and their whole text would take 45 MB traced
    n = 100_003
    path, target = tmp_path / "theta.cur", tmp_path / "rows.txt"
    path.write_text(f"n {n}\n0: (1,-1) (1,-2) (1,3)\n1: (0,2) (0,-3) (0,1)\n")
    tracemalloc.start()
    try:
        code = main(["derive", "--current-graph", str(path), "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = target.read_text().splitlines()
    assert (len(lines), lines[-1]) == (n, f"{n - 1}. 0 {n - 3} {n - 4} {n - 2} 1 2")
    assert peak < 15 * 2**20


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 37\n0: (1,-1) (1,-2) (1,-3)\n1: (0,1) (0,2) (0,3)\n",
         "current graph fails validation: currents entering vertex 0 sum to 6, not 0; "
         "currents entering vertex 1 sum to 31, not 0"),
        ("n 21\n0: (1,-3) (1,-6) (1,9)\n1: (0,3) (0,6) (0,-9)\n",
         "derived graph disconnected (the currents share a factor with 21): "
         "the result would be more than one triangulated surface"),
    ],
    ids=["kirchhoff", "disconnected"],
)
def test_derive_writes_nothing_before_its_certificate(tmp_path, capsys, text, message):
    path, target = tmp_path / "bad.cur", tmp_path / "rows.txt"
    path.write_text(text)
    assert main(["derive", "--current-graph", str(path), "--out", str(target)]) == 2
    assert not target.exists()
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["derive", "--current-graph", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_derive_refuses_a_modulus_above_its_bound(tmp_path, capsys, monkeypatch):
    # the bound lowered to 1,009 so that no large n is run: the theta with
    # currents 1, 2, 3 passes at the bound and is refused one prime above it
    monkeypatch.setattr(currents, "N_MAX", 1_009)
    path, target = tmp_path / "theta.cur", tmp_path / "rows.txt"
    path.write_text("n 1009\n0: (1,-1) (1,-2) (1,3)\n1: (0,2) (0,-3) (0,1)\n")
    assert main(["derive", "--current-graph", str(path), "--out", str(target)]) == 0
    assert len(target.read_text().splitlines()) == 1_009
    target.unlink()
    path.write_text("n 1013\n0: (1,-1) (1,-2) (1,3)\n1: (0,2) (0,-3) (0,1)\n")
    message = ("error: modulus must be at most 1009 to derive, got 1013 "
               "(memory grows by about 84 B per vertex)\n")
    assert main(["derive", "--current-graph", str(path), "--out", str(target)]) == 2
    assert not target.exists()
    assert capsys.readouterr() == ("", message)
    assert main(["derive", "--current-graph", str(path)]) == 2
    assert capsys.readouterr() == ("", message)


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


def test_cli_import_does_not_load_the_search():
    # only a search needs the backtracking core; it imports it when called
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    probe = "import sys; print('biembed.search' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", "import biembed.cli; " + probe],
                            env=env, capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout == "False\n"


def test_cli_import_loads_neither_json_nor_decimal():
    # both cost a process milliseconds to import; only the search's
    # autocorrelation needs decimal, and it imports it when called
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    probe = "import sys; print(' '.join(m for m in ('json', 'decimal') if m in sys.modules))"
    bare, loaded = (
        subprocess.run([sys.executable, "-c", code + probe], env=env, capture_output=True, text=True)
        for code in ("", "import biembed.cli; ")
    )
    assert bare.returncode == loaded.returncode == 0, loaded.stderr
    assert loaded.stdout == bare.stdout
