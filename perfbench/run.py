"""Benchmark of the biembed certifier through its real CLI path.

    python3 perfbench/run.py --workload family-large --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Each workload runs in its own child process: a
single-client closed loop that calls `biembed.cli.main(argv)` in-process on
the generated input files, one op after another, in whole cycles until
`--seconds` have passed.  Every output is checked.  `--trace 0` reports the
end-to-end metrics; `--trace 1` is a separate traced run that reports the
per-layer metrics (see replay.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
spans included, goes to perfbench/results/.  See README.md in this
directory for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
TIME_LIMIT = 170  # seconds for the whole run, children included
SETUP_REPEATS = 5
WINDOWS = 10
WINDOW_OPS = 200  # the smallest window: its `tail` sits at p95 or above

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def load_cli_main():
    """biembed.cli.main from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "biembed" / "cli.py").is_file():
        raise SystemExit(f"error: no program to measure: {src / 'biembed'} is missing")
    sys.path.insert(0, str(src))
    from biembed import cli

    return cli.main


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it.  Below 21 samples that percentile would sit at or
    under the median, so the maximum stands in for it."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def windows(latencies: list[float]) -> list[list[float]]:
    """The run's ops in time order, cut into up to WINDOWS consecutive
    windows of at least WINDOW_OPS ops; a shorter run is one window.

    The shared machine's speed moves in stretches of seconds to tens of
    seconds.  Pooled over a run, the median and the ten slowest ops follow
    whichever stretch the run happened to catch; taken per window, the
    median of the windows' tails ignores one slow stretch, and the mean of
    the windows' medians weighs fast and slow stretches by their share.
    """
    n = len(latencies)
    k = max(1, min(WINDOWS, n // WINDOW_OPS))
    return [latencies[j * n // k:(j + 1) * n // k] for j in range(k)]


# ---------------------------------------------------------------- child process


def child(role: str, workload: str, seed: int, seconds: float) -> dict:
    """Set up (import, input generation, warm-up), then run the role's loop."""
    t0 = time.perf_counter()
    main = load_cli_main()
    work = RESULTS / f"inputs-{workload}-seed{seed}"
    cycle, warmup = wl.build_inputs(workload, seed, work)
    failures = []
    for op in warmup:
        _, rc, out, err = wl.run_cli(main, op.argv)
        reason = wl.check(op, rc, out, err)
        if reason is not None:
            failures.append({"op": "warm-up " + op.name, "reason": reason})
    result = {"setup_s": time.perf_counter() - t0, "attempted": len(warmup), "failures": failures}
    if role == "setup":
        return result

    if role == "traced":
        import replay

        traced = replay.traced_run(main, workload, seed, seconds, cycle, work)
        result["attempted"] += traced.pop("attempted")
        result["failures"] += traced.pop("failures")
        result.update(traced)
    else:
        latencies: list[float] = []
        per_op: dict[str, list[float]] = {}
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            for op in cycle:
                dt, rc, out, err = wl.run_cli(main, op.argv)
                reason = wl.check(op, rc, out, err)
                if reason is not None:
                    failures.append({"op": op.name, "reason": reason})
                latencies.append(dt)
                per_op.setdefault(op.name, []).append(dt)
            if time.perf_counter() >= deadline:
                break
        result["elapsed_s"] = time.perf_counter() - start
        result["attempted"] += len(latencies)
        result["latencies"] = latencies
        result["cycles"] = len(latencies) // len(cycle)
        result["op_p50_by_op"] = {name: statistics.median(xs) for name, xs in per_op.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


# ---------------------------------------------------------------- parent process


def spawn(role: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed(args, deadline: float) -> tuple[dict, dict, dict[str, str]]:
    """Set up in fresh processes, then run the timed loop in one more."""
    runs = [spawn("setup", args, deadline) for _ in range(SETUP_REPEATS - 1)]
    runs.append(spawn("timed", args, deadline))
    run = runs[-1]
    lat = run["latencies"]
    timed_failures = sum(1 for f in run["failures"] if not f["op"].startswith("warm-up "))
    ok = len(lat) - timed_failures
    wins = windows(lat)
    tails = [tail(w) for w in wins]
    tail_value = statistics.median(value for value, _ in tails)
    tail_pct = statistics.median(pct for _, pct in tails)
    setup_times = [r["setup_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / run["elapsed_s"],
        "op_p50_s": statistics.fmean(statistics.median(w) for w in wins),
        "op_tail_s": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": ok / len(lat),
    }
    notes = {
        "setup_s": "median of fresh processes: " + ", ".join(f"{x:.4f}" for x in setup_times),
        "ops_per_s": f"{len(lat)} ops, {run['cycles']} cycles, in {run['elapsed_s']:.2f} s",
        "op_p50_s": (f"mean of the medians of {len(wins)} windows of {len(lat) // len(wins)} ops"
                     if len(wins) > 1 else f"median of {len(lat)} ops"),
        "op_tail_s": (f"p{tail_pct:.1f}, 10 ops beyond, median over {len(wins)} windows of "
                      f"{len(lat) // len(wins)} ops" if len(wins) > 1
                      else f"p{tail_pct:.1f} of {len(lat)} ops, 10 beyond" if len(lat) >= 21
                      else f"maximum of {len(lat)} ops: too few for a percentile above p50 "
                           "with 10 beyond"),
        "ok_frac": f"fail_frac {timed_failures / len(lat):g} = {timed_failures}/{len(lat)}",
    }
    summary = {"attempted": sum(r["attempted"] for r in runs),
               "failures": [f for r in runs for f in r["failures"]],
               "metrics": metrics}
    record = {**run, "setup_s_each": setup_times, "tail_percentile": tail_pct,
              "windows": len(wins), "notes": notes}
    for key in ("attempted", "failures", "setup_s"):
        record.pop(key)
    return summary, record, notes


def traced(args, deadline: float) -> tuple[dict, dict, dict[str, str]]:
    import replay

    run = spawn("traced", args, deadline)
    summary = {key: run.pop(key) for key in ("attempted", "failures", "metrics")}
    notes = {name: f"should move {moves}" for name, _, _, moves in replay.LAYER_METRICS}
    return summary, {**run, "notes": notes}, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "timed", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed, args.seconds)))
        return 0

    load_cli_main()  # fail before spawning anything when there is no program
    deadline = time.monotonic() + TIME_LIMIT
    summary, record, notes = (traced if args.trace else timed)(args, deadline)

    RESULTS.mkdir(parents=True, exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **summary, **record}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for f in summary["failures"][:20]:
        print(f"FAILED {f['op']}: {f['reason']}")
    units = dict(END_TO_END)
    if args.trace:
        import replay

        units = {name: unit for name, unit, _, _ in replay.LAYER_METRICS}
        print(report_trace(record))
    for name, value in summary["metrics"].items():
        print(f"{name}: {value:.6g} {units[name]}  ({notes.get(name, '')})")
    print(f"record: {out_file.relative_to(ROOT)}")
    failed = len(summary["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
    }))
    return 0


def report_trace(record: dict) -> str:
    """Tracing overhead and, on family-large, the stage table, as text."""
    o = record["tracing_overhead"]
    lines = [f"tracing overhead: {o['overhead_s']:+.6f} s per op (traced cli.main p50 "
             f"{o['traced_op_p50_s']:.6f} s minus untraced op p50 {o['untraced_op_p50_s']:.6f} s, "
             f"{o['ops']} ops each)",
             f"spans: {len(record['spans'])}; probe ops: {', '.join(record['probe_ops']) or 'none'}"]
    table = record.get("stage_table")
    if table:
        stages = [k for k in table[0] if k not in ("s", "n", "slope")]
        lines.append("stage table, family verify (seconds, both halves summed; slope = "
                     "d log verify_pair / d log n):")
        lines.append("  " + "  ".join(["s", "n"] + [k.split(".")[1] for k in stages] + ["slope"]))
        for row in table:
            cells = [str(row["s"]), str(row["n"])] + [f"{row[k]:.4f}" for k in stages]
            cells.append(f"{row['slope']:.2f}" if "slope" in row else "-")
            lines.append("  " + "  ".join(cells))
        last = table[-1]
        staged = last["currents.derive_embedding"] + last["verify.verify_biembedding"]
        lines.append(f"at s={last['s']}: derive_embedding (derivation, validation, tracing) + "
                     f"verify_biembedding (validation, partition, tracing, connectivity) = "
                     f"{staged:.3f} s, {staged / o['untraced_op_p50_s']:.0%} of the untraced op p50")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
