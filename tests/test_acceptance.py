"""End-to-end acceptance checks, one per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible even under capture)
and then asserts, so the suite output doubles as an acceptance report.
"""

import itertools
import random
import subprocess
import sys
import time
from importlib import resources

import pytest

from oracle import canonical_face_set, oracle_faces, random_rotation_data
from biembed.currents import derive_embedding, serialize_current_graph
from biembed.embeddings import RotationSystem, trace_faces, validate_rotation
from biembed.family import FamilyParameter, build_pair, current_sets, family_genus, search_pair, verify_family
from biembed.graphs import make_complete
from biembed.selfcomp import load_bundled_table, search_triangular, verify_table
from biembed.verify import (
    bichromatic_upper_bound,
    biembedding_edge_bound,
    bigenus_lower_bound,
)


def announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


def test_criterion_1_bundled_tables(capsys):
    expected = {16: (60, 40, 3), 21: (105, 70, 8), 24: (138, 92, 12)}
    start = time.perf_counter()
    ok = True
    for n, (edges, faces, genus) in expected.items():
        rs, form = load_bundled_table(n)
        report = verify_table(rs, form)
        h = report.halves[0]
        ok &= report.passed
        ok &= (h.edges, h.faces, h.genus) == (edges, faces, genus)
        ok &= report.bound_value == genus and report.achieves_bound
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    announce(
        capsys,
        ok,
        f"criterion 1: tables n=16,21,24 verify with exact stats in {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_family_through_s10(capsys):
    start = time.perf_counter()
    ok = True
    for s in [*range(1, 11), 300]:  # s = 300: n = 7,213
        report = verify_family(FamilyParameter(s))
        want = family_genus(s)
        ok &= report.passed
        ok &= report.halves[0].genus == want == report.bound_value
        ok &= report.halves[1].genus == want
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(
        capsys,
        ok,
        f"criterion 2: family s=1..10 and 300 verifies, genus 24s²+13s+1 = bound, in {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_3_bound_formulas(capsys):
    checks = (
        bigenus_lower_bound(8) == 0,
        bigenus_lower_bound(9) == 0,
        bigenus_lower_bound(13) == 1,
        bigenus_lower_bound(14) == 2,
        bigenus_lower_bound(37) == 38,
        bichromatic_upper_bound(1) == 13,
        biembedding_edge_bound(37, 38) == 666,
    )
    announce(capsys, all(checks), "criterion 3: bound formulas hit all frozen spot values")


def test_criterion_4_tracer_and_derivation_invariants(capsys):
    ok = True

    # 1000 random rotation systems: every arc used exactly once, and the
    # Euler characteristic over touched vertices stays even
    rng = random.Random(20260815)
    for _ in range(1000):
        n, edges, rows = random_rotation_data(rng)
        rs = RotationSystem(tuple(rows))
        fs = trace_faces(rs)
        arcs = [a for face in fs.faces for a in face]
        ok &= len(arcs) == 2 * len(edges) and len(set(arcs)) == len(arcs)
        touched = {v for e in edges for v in e}
        ok &= (len(touched) - len(edges) + fs.face_count) % 2 == 0

    # exhaustive check against the independent tracer: all 6^4 row orderings
    # of K_4
    perms = list(itertools.permutations(range(3)))
    count = 0
    for choice in itertools.product(perms, repeat=4):
        rows = []
        for v in range(4):
            others = [w for w in range(4) if w != v]
            rows.append(tuple(others[i] for i in choice[v]))
        rs = RotationSystem(tuple(rows))
        mine = canonical_face_set(trace_faces(rs).faces)
        theirs = canonical_face_set(oracle_faces({v: rows[v] for v in range(4)}))
        ok &= mine == theirs
        count += 1
    ok &= count == 1296

    # row additivity of every derived embedding built from a current graph
    pairs = [build_pair(FamilyParameter(s)) for s in (1, 2, 3)]
    searched = search_pair(*current_sets(FamilyParameter(1)))
    ok &= searched is not None
    pairs.append(searched)
    for pair in pairs:
        for cg in (pair.first, pair.second):
            rs = derive_embedding(cg)
            base = rs.rotation[0]
            ok &= all(
                rs.rotation[k] == tuple((d + k) % cg.n for d in base)
                for k in range(cg.n)
            )

    # K_5 has 20 arcs; no triangular embedding can exist
    try:
        search_triangular(make_complete(5))
        ok = False
    except ValueError:
        pass

    announce(
        capsys,
        ok,
        "criterion 4: 1000 random traces conserve arcs/parity, 1296 K_4 systems match the oracle, "
        "derived rows are additive, K_5 is rejected",
    )


def _acceptance_script(tmp_path) -> list[list[str]]:
    for n in (16, 21, 24):
        text = resources.files("biembed.data").joinpath(f"table{n}.rot").read_text()
        (tmp_path / f"table{n}.rot").write_text(text)
    half = build_pair(FamilyParameter(1)).first
    (tmp_path / "half37.cur").write_text(serialize_current_graph(half))
    base = [sys.executable, "-m", "biembed"]
    return [
        base + ["verify-table", "--rotation", str(tmp_path / "table16.rot")],
        base + ["verify-table", "--rotation", str(tmp_path / "table21.rot")],
        base + ["verify-table", "--rotation", str(tmp_path / "table24.rot")],
        base + ["family", "verify", "--s", "1"],
        base + ["family", "verify", "--s", "2"],
        base + ["bounds", "--n", "37"],
        base + ["bounds", "--g", "38"],
        base + ["derive", "--current-graph", str(tmp_path / "half37.cur")],
    ]


def test_criterion_5_cli_determinism(tmp_path, capsys):
    script = _acceptance_script(tmp_path)

    def run_all() -> tuple[bytes, list[int]]:
        blobs, codes = [], []
        for cmd in script:
            proc = subprocess.run(cmd, capture_output=True)
            blobs.append(proc.stdout + proc.stderr)
            codes.append(proc.returncode)
        return b"".join(blobs), codes

    first, codes1 = run_all()
    second, codes2 = run_all()
    ok = codes1 == codes2 == [0] * len(script) and first == second and first != b""
    announce(
        capsys,
        ok,
        f"criterion 5: full CLI script ({len(script)} commands) exits 0 and repeats byte-identically",
    )


def test_criterion_6_best_effort_search_on_table_graph(capsys):
    rs, _ = load_bundled_table(16)
    budget = 2_000_000
    start = time.perf_counter()
    found = search_triangular(rs.graph, budget=budget)
    elapsed = time.perf_counter() - start
    if found is None:
        # best effort: exhaustion is an allowed outcome, not a failure
        announce(
            capsys,
            True,
            f"criterion 6: no embedding within {budget} nodes ({elapsed:.2f}s); best effort recorded",
        )
        return
    ok = validate_rotation(found).ok and set(trace_faces(found).lengths()) == {3}
    announce(
        capsys,
        ok,
        f"criterion 6: fresh triangular embedding of the 16-vertex table graph found in {elapsed:.2f}s",
    )
