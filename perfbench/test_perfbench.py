"""Self-test of the benchmark: its checks must be able to fail.

    python3 -m pytest perfbench -q

A table with two entries swapped in one row and a current-graph file with
one current flipped must each count as a failed op; seeded table variants
must differ as files yet certify byte for byte alike.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from biembed.cli import main  # noqa: E402


def run_op(op: wl.Op) -> str | None:
    _, rc, out, err = wl.run_cli(main, op.argv)
    return wl.check(op, rc, out, err)


def small_batch(seed: int, work: Path) -> dict[str, wl.Op]:
    cycle, _ = wl.build_inputs("small-batch", seed, work)
    return {op.name: op for op in cycle}


def test_swapped_table_entries_fail(tmp_path):
    op = small_batch(1, tmp_path)["verify-table n=16"]
    rows = wl.parse_rows(Path(op.path).read_text())
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    Path(op.path).write_text(wl.format_rows(rows))
    assert run_op(op) == "exit 1"  # the certificate now reads FAIL


def test_flipped_current_fails(tmp_path):
    op = small_batch(1, tmp_path)["derive s=1"]
    lines = Path(op.path).read_text().splitlines()
    head, rest = lines[1].split(":", 1)
    first, *others = rest.split()
    w, c = first.strip("()").split(",")
    lines[1] = f"{head}: ({w},{-int(c)}) " + " ".join(others)
    Path(op.path).write_text("\n".join(lines) + "\n")
    assert run_op(op).startswith("exit 2")


def test_two_seeds_give_identical_certificates(tmp_path):
    a, b = small_batch(1, tmp_path / "a"), small_batch(2, tmp_path / "b")
    for n in wl.TABLE_SIZES:
        name = f"verify-table n={n}"
        assert Path(a[name].path).read_text() != Path(b[name].path).read_text()
        assert run_op(a[name]) is None and run_op(b[name]) is None
    assert list(a) != list(b)  # the seed also shuffles the op order


def test_triangulation_check_is_independent_and_strict():
    rows = wl.parse_rows((wl.DATA / "table16.rot").read_text())
    adjacency = wl.adjacency_of(rows)
    assert wl.triangulation_error(wl.format_rows(rows), adjacency) is None
    swapped = {v: list(r) for v, r in rows.items()}
    swapped[3][0], swapped[3][2] = swapped[3][2], swapped[3][0]
    assert "arcs" in wl.triangulation_error(wl.format_rows(swapped), adjacency)
    other = wl.adjacency_of(wl.parse_rows((wl.DATA / "table24.rot").read_text()))
    assert wl.triangulation_error(wl.format_rows(rows), other) is not None


@pytest.fixture
def search_ops(tmp_path):
    cycle, _ = wl.build_inputs("search", 1, tmp_path)
    return {op.name: op for op in cycle}


def test_search_outcomes(search_ops):
    exhausted = search_ops["selfcomp search n=21"]
    found = search_ops["selfcomp search n=16"]
    message = wl.budget_message(exhausted)
    assert wl.check(exhausted, 1, "", message) is None
    assert wl.check(exhausted, 1, "", "other\n") is not None
    assert wl.check(found, 1, "", wl.budget_message(found)) is not None
    assert wl.check(exhausted, 2, "", "error: x\n").startswith("exit 2")
    assert wl.check(exhausted, None, "", "Traceback ...\n") == "raised an exception"
    # a search that got better and found a valid embedding still passes
    table = (wl.DATA / "table21.rot").read_text()
    assert wl.check(exhausted, 0, table, "") is None
    family = search_ops["family search s=3"]
    assert wl.check(family, 0, (wl.GOLDEN / "family-verify-s3.txt").read_text(), "") is None
    assert wl.check(family, 0, (wl.GOLDEN / "family-verify-s2.txt").read_text(), "") is not None


def test_traceback_is_a_failed_op(tmp_path):
    path = tmp_path / "zero.cur"
    path.write_text("n 0\n0: (1,1)\n")
    op = wl.Op("derive n=0", wl.DERIVE, ("derive", "--current-graph", str(path)), golden="")
    assert run_op(op) is not None


def test_benchmark_json_matches_the_code():
    import replay
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in replay.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_windows():
    import run

    assert run.windows([1.0, 3.0, 2.0]) == [[1.0, 3.0, 2.0]]
    assert len(run.windows([0.0] * 399)) == 1
    wins = run.windows([0.0] * 4000)
    assert len(wins) == 10 and {len(w) for w in wins} == {400}
    # one slow stretch moves one window's tail, not the median of the tails
    lat = [1.0] * 2000 + [50.0] * 20
    assert run.tail(lat)[0] == 50.0
    assert [run.tail(w)[0] for w in run.windows(lat)] == [1.0] * 9 + [50.0]


def test_replays_agree_with_the_cli(tmp_path, search_ops):
    import replay

    n21 = search_ops["selfcomp search n=21"]
    ops = list(small_batch(1, tmp_path).values()) + [
        search_ops["family search s=2"],
        dataclasses.replace(n21, argv=n21.argv[:-1] + ("1000",), budget=1000),
    ]
    t = replay.Tracer()
    for op in ops:
        assert replay.traced_op(t, main, op, probe=False) is None, op.name
    names = {sp["name"] for sp in t.spans}
    assert {"cli.main", "replay", "family.search_pair", "selfcomp.search_triangular"} <= names
