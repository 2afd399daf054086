"""The traced run: each op is a `cli.main` span, followed by a replay of the
same inputs through the public functions of the seven modules, each call a
child span under one replay span.  Spans stay in memory and go into the
result file at the end.  Per-layer metrics are medians over those spans.

Imported only after the program is on sys.path: it imports biembed.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from biembed import currents, embeddings, family, graphs, selfcomp, verify

import workloads as wl

# what each group of layer metrics should move: end-to-end metric and workload
TO_FAMILY_LARGE = "op_p50_s, peak_rss_mb on family-large; no move on search"
TO_SMALL_BATCH = "ops_per_s, op_tail_s on small-batch"
TO_SEARCH = "ops_per_s, op_p50_s on search; no move on family-large"

# name, unit, better, and what it should move
LAYER_METRICS = (
    ("currents.derive_embedding_s", "s", "lower", TO_FAMILY_LARGE),
    ("currents.circuit_log_s", "s", "lower", TO_FAMILY_LARGE),
    ("embeddings.validate_rotation_s", "s", "lower", TO_FAMILY_LARGE),
    ("embeddings.trace_faces_s", "s", "lower", TO_FAMILY_LARGE),
    ("embeddings.trace_darts_per_s", "1/s", "higher", TO_FAMILY_LARGE),
    ("embeddings.darts", "count", "lower", TO_FAMILY_LARGE),
    ("embeddings.faces", "count", "lower", TO_FAMILY_LARGE),
    ("graphs.make_circulant_s", "s", "lower", TO_FAMILY_LARGE),
    ("graphs.is_connected_s", "s", "lower", TO_FAMILY_LARGE),
    ("verify.verify_biembedding_s", "s", "lower", TO_FAMILY_LARGE),
    ("family.verify_pair_s", "s", "lower", TO_FAMILY_LARGE),
    ("currents.derive_peak_mb", "MB", "lower", TO_FAMILY_LARGE),
    ("verify.peak_mb", "MB", "lower", TO_FAMILY_LARGE),
    ("family.build_pair_s", "s", "lower", TO_SMALL_BATCH),
    ("currents.validate_current_graph_s", "s", "lower", TO_SMALL_BATCH),
    ("currents.parse_current_graph_file_s", "s", "lower", TO_SMALL_BATCH),
    ("embeddings.parse_rotation_file_s", "s", "lower", TO_SMALL_BATCH),
    ("embeddings.serialize_rotation_s", "s", "lower", TO_SMALL_BATCH),
    ("graphs.is_antimorphism_s", "s", "lower", TO_SMALL_BATCH),
    ("selfcomp.relabel_s", "s", "lower", TO_SMALL_BATCH),
    ("selfcomp.verify_table_s", "s", "lower", TO_SMALL_BATCH),
    ("verify.render_report_s", "s", "lower", TO_SMALL_BATCH),
    ("cli.overhead_s", "s", "lower", TO_SMALL_BATCH),
    ("family.search_pair_found_s", "s", "lower", TO_SEARCH),
    ("family.search_pair_exhausted_s", "s", "lower", TO_SEARCH),
    ("selfcomp.search_triangular_found_s", "s", "lower", TO_SEARCH),
    ("selfcomp.search_nodes_per_s", "1/s", "higher", TO_SEARCH),
    ("family.search_found", "count", "higher", TO_SEARCH),
    ("selfcomp.search_found", "count", "higher", TO_SEARCH),
)

STAGE_TABLE_S = (5, 10, 20, 30)


class Tracer:
    """Spans kept in memory: id, parent, trace (one per op), name, start, end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace = 0
        self._open: list[dict] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._open[-1]["id"] if self._open else None,
               "trace": self.trace, "name": name, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self._t0
            self._open.pop()

    def call(self, name: str, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


# ---------------------------------------------------------------- replays
# Each replay makes the calls the CLI handler makes (marked direct=True, so
# cli.overhead_s can subtract them) plus the stages inside them, and returns
# whether the result matches what the op must print.


def _embedding(t: Tracer, rs) -> None:
    t.call("embeddings.validate_rotation", embeddings.validate_rotation, rs)
    with t.span("embeddings.trace_faces") as sp:
        fs = embeddings.trace_faces(rs)
    sp["darts"] = 2 * len(rs.graph.edges)
    sp["faces"] = fs.face_count
    t.call("graphs.is_connected", graphs.is_connected, rs.graph)


def _half(t: Tracer, cg, direct: bool = False):
    t.call("currents.validate_current_graph", currents.validate_current_graph, cg)
    t.call("currents.circuit_log", currents.circuit_log, cg)
    t.call("graphs.make_circulant", graphs.make_circulant, currents.current_classes(cg))
    rs = t.call("currents.derive_embedding", currents.derive_embedding, cg, direct=direct)
    _embedding(t, rs)
    return rs


def replay_verify_table(t: Tracer, op: wl.Op) -> bool:
    text = Path(op.path).read_text()
    rs = t.call("embeddings.parse_rotation_file", embeddings.parse_rotation_file, text, direct=True)
    n = rs.graph.n
    form = selfcomp.AntimorphismForm(
        selfcomp.FULL_CYCLE if n % 2 == 0 else selfcomp.CYCLE_PLUS_FIXED_POINT, n)
    sigma = selfcomp.standard_antimorphism(form)
    _embedding(t, rs)
    t.call("graphs.is_antimorphism", graphs.is_antimorphism, rs.graph, sigma)
    other = t.call("selfcomp.relabel", selfcomp.relabel, rs, sigma)
    t.call("verify.verify_biembedding", verify.verify_biembedding, rs, other, n)
    report = t.call("selfcomp.verify_table", selfcomp.verify_table, rs, form, direct=True)
    return t.call("verify.render_report", verify.render_report, report, direct=True) == op.golden


def replay_family_verify(t: Tracer, op: wl.Op) -> bool:
    p = family.FamilyParameter(op.s)
    pair = t.call("family.build_pair", family.build_pair, p, direct=True)
    first, second = _half(t, pair.first), _half(t, pair.second)
    t.call("verify.verify_biembedding", verify.verify_biembedding, first, second, p.n)
    report = t.call("family.verify_pair", family.verify_pair, pair, p, direct=True)
    return t.call("verify.render_report", verify.render_report, report, direct=True) == op.golden


def replay_derive(t: Tracer, op: wl.Op) -> bool:
    text = Path(op.path).read_text()
    cg = t.call("currents.parse_current_graph_file", currents.parse_current_graph_file, text,
                direct=True)
    rs = _half(t, cg, direct=True)
    out = t.call("embeddings.serialize_rotation", embeddings.serialize_rotation, rs, direct=True)
    return out == op.golden


def replay_family_search(t: Tracer, op: wl.Op) -> bool:
    p = family.FamilyParameter(op.s)
    x1, x2 = t.call("family.current_sets", family.current_sets, p, direct=True)
    budget = (op.budget,) if op.budget else ()  # else the default, as the CLI uses
    with t.span("family.search_pair", direct=True, op=op.name, expect=op.expect) as sp:
        pair = family.search_pair(x1, x2, *budget)
    sp["found"] = pair is not None
    if pair is None:
        return op.expect == "exhausted"
    report = t.call("family.verify_pair", family.verify_pair, pair, p, direct=True)
    return t.call("verify.render_report", verify.render_report, report, direct=True) == op.golden


def replay_selfcomp_search(t: Tracer, op: wl.Op) -> bool:
    text = Path(op.path).read_text()
    g = t.call("graphs.parse_graph_file", graphs.parse_graph_file, text, direct=True)
    with t.span("selfcomp.search_triangular", direct=True, op=op.name, expect=op.expect,
                budget=op.budget) as sp:
        rs = selfcomp.search_triangular(g, op.budget)
    sp["found"] = rs is not None
    if rs is None:
        return op.expect == "exhausted"
    _embedding(t, rs)
    out = t.call("embeddings.serialize_rotation", embeddings.serialize_rotation, rs, direct=True)
    return wl.triangulation_error(out, op.adjacency) is None


REPLAY = {
    wl.VERIFY_TABLE: replay_verify_table,
    wl.FAMILY_VERIFY: replay_family_verify,
    wl.DERIVE: replay_derive,
    wl.FAMILY_SEARCH: replay_family_search,
    wl.SELFCOMP_SEARCH: replay_selfcomp_search,
}


# ---------------------------------------------------------------- the traced run


def traced_op(t: Tracer, main, op: wl.Op, probe: bool) -> str | None:
    """One op as a cli.main span, then its replay.  Returns why it failed."""
    t.trace += 1
    with t.span("cli.main", op=op.name, kind=op.kind, probe=probe):
        _, rc, out, err = wl.run_cli(main, op.argv)
    reason = wl.check(op, rc, out, err)
    with t.span("replay", op=op.name, kind=op.kind, s=op.s, probe=probe) as sp:
        try:
            ok = REPLAY[op.kind](t, op)
        except Exception as exc:  # a raising library call fails the op
            ok = False
            sp["error"] = repr(exc)
    sp["ok"] = ok
    if reason is None and not ok:
        reason = "replay through the public functions disagrees"
    return reason


def memory_peaks(s: int) -> dict[str, float]:
    """tracemalloc peaks, in MB, of deriving one half and of certifying the
    pair, for the template pair at s."""
    p = family.FamilyParameter(s)
    pair = family.build_pair(p)
    tracemalloc.start()
    try:
        first = currents.derive_embedding(pair.first)
        derive_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    second = currents.derive_embedding(pair.second)
    tracemalloc.start()
    try:
        verify.verify_biembedding(first, second, p.n)
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"currents.derive_peak_mb": derive_peak / 2**20, "verify.peak_mb": verify_peak / 2**20}


STAGES = (
    "family.build_pair", "currents.validate_current_graph", "currents.circuit_log",
    "graphs.make_circulant", "currents.derive_embedding", "embeddings.validate_rotation",
    "embeddings.trace_faces", "graphs.is_connected", "verify.verify_biembedding",
    "family.verify_pair", "verify.render_report",
)


def stage_table(t: Tracer) -> list[dict]:
    """Seconds per stage of `family verify` at each s (summed over both
    halves), with the log-log slope of verify_pair against n.  A size the
    run already replayed reuses that replay's spans."""
    replayed = {}
    for sp in t.spans:
        if sp["name"] == "replay" and sp["kind"] == wl.FAMILY_VERIFY:
            replayed.setdefault(sp["s"], sp["trace"])
    rows = []
    for s in STAGE_TABLE_S:
        if s in replayed:
            spans = [sp for sp in t.spans if sp["trace"] == replayed[s]]
        else:
            fresh = Tracer()
            replay_family_verify(fresh, wl.Op(f"family verify s={s}", wl.FAMILY_VERIFY, (), s=s))
            spans = fresh.spans
        row = {"s": s, "n": 24 * s + 13}
        for stage in STAGES:
            row[stage] = sum(_dur(sp) for sp in spans if sp["name"] == stage)
        if rows:
            prev = rows[-1]
            row["slope"] = (math.log(row["family.verify_pair"] / prev["family.verify_pair"])
                            / math.log(row["n"] / prev["n"]))
        rows.append(row)
    return rows


def layer_metrics(t: Tracer, probe_traces: set[int], peaks: dict[str, float]) -> dict[str, float]:
    """Median per call of every per-layer metric.  A metric takes the
    workload's own spans when it has any and the probe ops' spans otherwise."""
    def spans(pred) -> list[dict]:
        own = [sp for sp in t.spans if pred(sp) and sp["trace"] not in probe_traces]
        return own or [sp for sp in t.spans if pred(sp) and sp["trace"] in probe_traces]

    def med_dur(name: str, **attrs) -> float:
        return statistics.median(_dur(sp) for sp in spans(
            lambda sp: sp["name"] == name and all(sp.get(k) == v for k, v in attrs.items())))

    out: dict[str, float] = dict(peaks)
    traces = spans(lambda sp: sp["name"] == "embeddings.trace_faces")
    out["embeddings.trace_darts_per_s"] = statistics.median(sp["darts"] / _dur(sp) for sp in traces)
    out["embeddings.darts"] = statistics.median(sp["darts"] for sp in traces)
    out["embeddings.faces"] = statistics.median(sp["faces"] for sp in traces)
    out["family.search_pair_found_s"] = med_dur("family.search_pair", expect="found")
    out["family.search_pair_exhausted_s"] = med_dur("family.search_pair", expect="exhausted")
    out["selfcomp.search_triangular_found_s"] = med_dur("selfcomp.search_triangular", expect="found")
    # the search stops on node budget + 1, so an exhausted call spent exactly that many
    out["selfcomp.search_nodes_per_s"] = statistics.median(
        (sp["budget"] + 1) / _dur(sp) for sp in spans(
            lambda sp: sp["name"] == "selfcomp.search_triangular" and sp["expect"] == "exhausted"))
    for metric, name in (("family.search_found", "family.search_pair"),
                         ("selfcomp.search_found", "selfcomp.search_triangular")):
        found = spans(lambda sp: sp["name"] == name)
        out[metric] = len({sp["op"] for sp in found if sp["found"]})

    direct: dict[int, float] = {}
    for sp in t.spans:
        if sp.get("direct"):
            direct[sp["trace"]] = direct.get(sp["trace"], 0.0) + _dur(sp)
    # resolvable only where the library work is milliseconds, not seconds
    out["cli.overhead_s"] = statistics.median(
        _dur(sp) - direct.get(sp["trace"], 0.0) for sp in spans(
            lambda sp: sp["name"] == "cli.main" and sp["kind"] in (wl.VERIFY_TABLE, wl.DERIVE)))
    # every other metric is the median duration of the span it is named after
    return {metric: out[metric] if metric in out else med_dur(metric[:-2])
            for metric, *_ in LAYER_METRICS}


def traced_run(main, workload: str, seed: int, seconds: float, cycle: list[wl.Op],
               work: Path) -> dict:
    """Cycles of (untraced op, traced op + replay) that fit in `seconds`
    (at least one), then the probe ops, the tracemalloc peaks and, on
    family-large, the stage table."""
    t = Tracer()
    attempted = 0
    failures: list[dict] = []
    untraced: list[float] = []

    def fail(op: wl.Op, reason: str | None) -> None:
        if reason is not None:
            failures.append({"op": op.name, "reason": reason})

    start = perf_counter()
    while True:
        begun = perf_counter()
        for op in cycle:
            dt, rc, out, err = wl.run_cli(main, op.argv)
            untraced.append(dt)
            fail(op, wl.check(op, rc, out, err))
            fail(op, traced_op(t, main, op, probe=False))
            attempted += 2
        # stop before a cycle that would overrun the run
        if 2 * perf_counter() - begun - start > seconds:
            break
    traced = [_dur(sp) for sp in t.spans if sp["name"] == "cli.main"]

    # ops of each kind this workload lacks, from the other workloads at the
    # same seed, so that every layer metric has calls to measure
    kinds = {op.kind for op in cycle}
    probes = []
    for other in ("small-batch", "search"):
        if other != workload:
            other_cycle, _ = wl.build_inputs(other, seed, work / other)
            probes += [op for op in other_cycle if op.kind not in kinds]
    for op in probes:
        fail(op, traced_op(t, main, op, probe=True))
        attempted += 1
    probe_traces = {sp["trace"] for sp in t.spans if sp.get("probe")}

    largest_s = max(op.s for op in cycle + probes if op.kind in (wl.FAMILY_VERIFY, wl.FAMILY_SEARCH))
    metrics = layer_metrics(t, probe_traces, memory_peaks(largest_s))
    p50_untraced = statistics.median(untraced)
    result = {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "probe_ops": [op.name for op in probes],
        "tracing_overhead": {
            "traced_op_p50_s": statistics.median(traced),
            "untraced_op_p50_s": p50_untraced,
            "overhead_s": statistics.median(traced) - p50_untraced,
            "ops": len(traced),
        },
        "spans": t.spans,
    }
    if workload == "family-large":
        result["stage_table"] = stage_table(t)
    return result
