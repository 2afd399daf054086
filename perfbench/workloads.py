"""Workloads: seeded input files, the cycle of CLI operations, and output checks.

Nothing here imports biembed.  The checks compare against golden stdout
captured at the commit that introduced the benchmark, or re-check a found
embedding with the small face tracer below, so they stay independent of the
code they judge.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

TABLE_SIZES = (16, 21, 24)
SMALL_S = (1, 2, 3)
LARGE_S = 30

WORKLOADS = ("family-large", "small-batch", "search")

# op kinds, in the order the CLI lists its subcommands
VERIFY_TABLE = "verify-table"
FAMILY_VERIFY = "family-verify"
DERIVE = "derive"
FAMILY_SEARCH = "family-search"
SELFCOMP_SEARCH = "selfcomp-search"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must be.

    ``golden`` is the exact stdout a verify or derive op must print, and the
    certificate a family search must print when it finds a pair.  ``expect``
    is "found" or "exhausted" for searches: what the search did at the commit
    that introduced the benchmark.  An op expected to exhaust may also
    succeed with a valid result; an op expected to find must find.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    golden: str | None = None
    expect: str = ""
    budget: int = 0
    s: int = 0
    path: str = ""
    adjacency: tuple[frozenset[int], ...] = field(default=(), repr=False)


# ---------------------------------------------------------------- text formats


def parse_rows(text: str) -> dict[int, list[int]]:
    """Rows `<v>. <n1> <n2> ...` of a rotation file, keyed by vertex."""
    rows: dict[int, list[int]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head, dot, rest = line.partition(".")
        if not dot:
            raise ValueError(f"malformed rotation line {line!r}")
        v = int(head)
        if v in rows:
            raise ValueError(f"duplicate row {v}")
        rows[v] = [int(t) for t in rest.split()]
    return rows


def format_rows(rows: dict[int, list[int]]) -> str:
    return "".join(f"{v}. {' '.join(map(str, rows[v]))}\n" for v in sorted(rows))


def adjacency_of(rows: dict[int, list[int]]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(rows[v]) for v in range(len(rows)))


def graph_text(adjacency: tuple[frozenset[int], ...]) -> str:
    edges = sorted((u, w) for u, ws in enumerate(adjacency) for w in ws if u < w)
    return f"{len(adjacency)}\n" + "".join(f"{u} {w}\n" for u, w in edges)


def triangulation_error(text: str, adjacency: tuple[frozenset[int], ...]) -> str | None:
    """Why `text` is not a triangular embedding of exactly this graph, or None.

    Every row must list each neighbor of its vertex once and nothing else,
    and every face traced from the rotations must have three arcs.
    """
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return f"unparsable rotation output: {exc}"
    n = len(adjacency)
    if sorted(rows) != list(range(n)):
        return f"rows {sorted(rows)[:5]}... do not cover vertices 0..{n - 1}"
    succ: list[dict[int, int]] = []
    for v in range(n):
        row = rows[v]
        if len(row) != len(set(row)) or set(row) != adjacency[v]:
            return f"row {v} is not a cyclic order of the neighbors of {v}"
        succ.append({w: row[(i + 1) % len(row)] for i, w in enumerate(row)})
    unused = {(u, w) for u in range(n) for w in adjacency[u]}
    while unused:
        start = unused.pop()
        u, w = start
        length = 1
        while True:
            u, w = w, succ[w][u]
            if (u, w) == start:
                break
            unused.discard((u, w))
            length += 1
            if length > 3:
                return f"face through arc {start} has more than 3 arcs"
        if length != 3:
            return f"face through arc {start} has {length} arcs"
    return None


# ---------------------------------------------------------------- seeded inputs


def antimorphism_shift(n: int, k: int) -> list[int]:
    """σ^k for the standard antimorphism of the table's order: the full
    n-cycle for even n, an (n-1)-cycle fixing n-1 for odd n."""
    if n % 2 == 0:
        return [(v + k) % n for v in range(n)]
    return [(v + k) % (n - 1) for v in range(n - 1)] + [n - 1]


def table_variant(rows: dict[int, list[int]], rng: random.Random) -> dict[int, list[int]]:
    """The same table under the labels σ^k(v), each row starting elsewhere.

    σ^k commutes with σ, so σ stays an antimorphism of the relabelled
    graph, and rotating a row keeps its cyclic order: the certificate is
    unchanged, byte for byte.
    """
    n = len(rows)
    shift = antimorphism_shift(n, rng.randrange(n if n % 2 == 0 else n - 1))
    out: dict[int, list[int]] = {}
    for v, row in rows.items():
        moved = [shift[w] for w in row]
        r = rng.randrange(len(moved))
        out[shift[v]] = moved[r:] + moved[:r]
    return out


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def _family_verify(s: int) -> Op:
    return Op(f"family verify s={s}", FAMILY_VERIFY, ("family", "verify", "--s", str(s)),
              golden=_golden(f"family-verify-s{s}.txt"), s=s)


def build_inputs(workload: str, seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    """Write the workload's input files under `work` and return its
    (cycle, warm-up) ops.  The same seed writes the same files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    base = {n: parse_rows((DATA / f"table{n}.rot").read_text()) for n in TABLE_SIZES}

    if workload == "family-large":
        return [_family_verify(LARGE_S)], [_family_verify(1)]

    if workload == "small-batch":
        cycle = []
        for n in TABLE_SIZES:
            path = work / f"table{n}.rot"
            path.write_text(format_rows(table_variant(base[n], rng)))
            cycle.append(Op(f"verify-table n={n}", VERIFY_TABLE,
                            ("verify-table", "--rotation", str(path)),
                            golden=_golden(f"verify-table-n{n}.txt"), path=str(path)))
        cycle += [_family_verify(s) for s in SMALL_S]
        for s in SMALL_S:
            path = work / f"family-s{s}-first.cur"
            path.write_text((DATA / f"family-s{s}-first.cur").read_text())
            cycle.append(Op(f"derive s={s}", DERIVE,
                            ("derive", "--current-graph", str(path)),
                            golden=_golden(f"derive-s{s}.txt"), s=s, path=str(path)))
        rng.shuffle(cycle)
        return cycle, list(cycle)

    graphs = {}
    for n in (16, 21):
        path = work / f"table{n}.graph"
        path.write_text(graph_text(adjacency_of(base[n])))
        graphs[n] = (str(path), adjacency_of(base[n]))

    def family_search(s: int, expect: str, budget: int = 0) -> Op:
        # budget 0 leaves the CLI's default budget in place
        argv = ("family", "search", "--s", str(s)) + (("--budget", str(budget)) if budget else ())
        return Op(f"family search s={s}", FAMILY_SEARCH, argv,
                  golden=_golden(f"family-verify-s{s}.txt"), expect=expect, budget=budget, s=s)

    def selfcomp_search(n: int, expect: str, budget: int) -> Op:
        path, adjacency = graphs[n]
        return Op(f"selfcomp search n={n}", SELFCOMP_SEARCH,
                  ("selfcomp", "search", "--graph", path, "--budget", str(budget)),
                  expect=expect, budget=budget, path=path, adjacency=adjacency)

    cycle = [
        family_search(2, "found"),
        family_search(3, "exhausted", 200_000),
        selfcomp_search(16, "found", 2_000_000),
        selfcomp_search(21, "exhausted", 600_000),
    ]
    warmup = [family_search(1, "found"), selfcomp_search(16, "exhausted", 1_000)]
    return cycle, warmup


# ---------------------------------------------------------------- running and checking


def run_cli(main, argv) -> tuple[float, int | None, str, str]:
    """Call `main(argv)` in-process with stdout and stderr captured.

    Returns (seconds, exit code, stdout, stderr).  The exit code is None
    when the call raised; the traceback is then appended to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()



def budget_message(op: Op) -> str:
    what = "pair" if op.kind == FAMILY_SEARCH else "triangular embedding"
    return f"no {what} found within budget {op.budget}\n"


def check(op: Op, rc: int | None, out: str, err: str) -> str | None:
    """Why this op's result is a failure, or None when it is correct.

    rc None means the call raised (a traceback).  Exit code 2 is always a
    failure.  An exhausted search passes with exit 1 and exactly the budget
    message, or with exit 0 and a result that passes the found checks.
    """
    if rc is None:
        return "raised an exception"
    if rc == 1 and op.expect == "exhausted":
        if out == "" and err == budget_message(op):
            return None
        return "exit 1 without the budget message"
    if rc != 0:
        return f"exit {rc}" + (f": {err.strip().splitlines()[-1]}" if err.strip() else "")
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    if op.kind == SELFCOMP_SEARCH:
        return triangulation_error(out, op.adjacency)
    if out != op.golden:
        return "stdout differs from the golden output"
    return None
