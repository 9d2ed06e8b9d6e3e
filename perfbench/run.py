"""Closed-loop benchmark of the ChipAlign reproduction, end to end and
layer by layer.

    python3 perfbench/run.py --workload qa-prefix --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``qa-prefix``, ``gen-sampled``, ``chat-fleet``
and ``lambda-sweep``.  A run splits ``--seconds`` over several parts, each
a fresh process that sets up, warms up and measures one closed-loop window
(``part.py``); this process then checks every output against computations
made apart from the serving path and reports medians over the parts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced parts, then one more part through a probe that times each
layer's public functions, and prints the per-layer metrics with the
probe's overhead against the untraced parts.  ``--smoke`` shrinks every
phase so the benchmark's own test runs all workloads in seconds.

Report lines start with ``#``; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
CACHE = BUILD / "repro_cache"
TRACE_DIR = BUILD / "trace"

WORKLOADS = ("qa-prefix", "gen-sampled", "chat-fleet", "lambda-sweep")
#: Measured parts per run (separate processes; see part.py).
PARTS = 8
#: Constructions per part; ``setup_s`` is the median over all of a run's.
SETUP_REPEATS = 3
WARMUP_S = 0.5
#: Tail percentile per workload: the highest with at least ten samples
#: beyond it at the standard run length that also held steady.
TAIL_PCT = {"qa-prefix": 90, "gen-sampled": 90, "chat-fleet": 90,
            "lambda-sweep": 75}
END_TO_END = (("setup_s", "s"), ("tok_s", "tok/s"), ("e2e_p50_ms", "ms"),
              ("e2e_tail_ms", "ms"), ("cpu_ms_per_tok", "ms"),
              ("peak_rss_mb", "MB"))


class Phases:
    """Operations attempted and failed, per phase."""

    def __init__(self) -> None:
        self.table: Dict[str, List[int]] = {}

    def add(self, phase: str, attempted: int, failed: int = 0) -> None:
        row = self.table.setdefault(phase, [0, 0])
        row[0] += attempted
        row[1] += failed

    def timed(self) -> Tuple[int, int]:
        rows = [self.table[p] for p in ("measure", "traced") if p in self.table]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)


def ensure_checkpoints() -> float:
    """Train the ``grande`` checkpoints into the build directory once, in a
    child process.  Returns the build seconds, 0.0 when already built."""
    from repro.nn.checkpoint import checkpoint_exists
    from repro.pipelines.model_zoo import RECIPE_VERSION

    wanted = [CACHE / f"grande_{v}_{RECIPE_VERSION}" for v in ("instruct", "chipnemo")]
    if all(checkpoint_exists(p) for p in wanted) and \
            (CACHE / f"tokenizer_{RECIPE_VERSION}.json").exists():
        return 0.0
    t0 = time.perf_counter()
    code = ("import sys; sys.path.insert(0, 'src');"
            "from repro.pipelines.model_zoo import ModelZoo;"
            "z = ModelZoo(sys.argv[1]); z.get('grande', 'instruct');"
            "z.chip_model('grande')")
    subprocess.run([sys.executable, "-c", code, str(CACHE)], cwd=ROOT,
                   stdout=sys.stderr, check=True, timeout=850)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# parts
# ---------------------------------------------------------------------------


def spawn_part(args, part: int, window: float, traced: bool) -> Dict:
    """Run one part in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(window),
           "--trace", str(int(traced)), "--part", str(part)]
    out = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"part {part} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_parts(args) -> Tuple[List[Dict], float]:
    """The run's untraced parts, one after another; ``--seconds`` is split
    evenly over them."""
    n = 2 if args.smoke else PARTS
    window = args.seconds / n
    return [spawn_part(args, k, window, False) for k in range(n)], window


def part_main(args) -> int:
    """Child side: one part, result as the last stdout line."""
    import part as part_mod

    repeats = 1 if args.smoke else SETUP_REPEATS
    warmup = 0.1 if args.smoke else WARMUP_S
    if args.trace:
        result = part_mod.traced_part(args.workload, args.seed, args.seconds,
                                      warmup, CACHE, TRACE_DIR)
    elif args.workload == "lambda-sweep":
        result = part_mod.sweep_part(args.seed, args.part, args.seconds,
                                     repeats, CACHE)
    else:
        result = part_mod.serving_part(args.workload, args.seed, args.part,
                                       args.seconds, warmup, repeats, CACHE)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def common_summary(parts: List[Dict], tokens: List[int], n_ops: List[int],
                   latencies_ms: List[List[float]], tail: int,
                   pooled: bool) -> Dict[str, object]:
    """Every figure is a median over parts, so a part whose process ran
    slow moves it little: rates, per-part latency percentiles (pooled over
    parts instead when a part holds too few samples for a tail, as on
    ``lambda-sweep``), peak RSS; ``setup_s`` over every construction."""
    from harness import median, pct

    if pooled:
        latencies_ms = [[x for lat in latencies_ms for x in lat]]
    return {
        "setup_s": median([t for p in parts for t in p["setup_s"]]),
        "tok_s": median([n / p["window_s"] for n, p in zip(tokens, parts)]),
        "e2e_p50_ms": median([pct(lat, 50) for lat in latencies_ms]),
        "e2e_tail_ms": median([pct(lat, tail) for lat in latencies_ms]),
        "cpu_ms_per_tok": median([p["cpu_s"] * 1e3 / n
                                  for n, p in zip(tokens, parts)]),
        "peak_rss_mb": median([p["rss_mb"] for p in parts]),
        "operations": sum(n_ops), "tokens": sum(tokens),
        "tail_percentile": tail,
        "part_tok_s": [round(n / p["window_s"], 1) for n, p in zip(tokens, parts)],
    }


def serving_run(args, phases: Phases):
    import checks
    from harness import Record, median, pct
    from repro.pipelines.model_zoo import ModelZoo
    from workloads import FAMILY, LAM

    parts, window = run_parts(args)
    per_part = [[Record.from_dict(r) for r in p["records"]] for p in parts]
    records = [r for recs in per_part for r in recs]
    phases.add("setup", sum(len(p["setup_s"]) for p in parts))
    phases.add("measure", len(records), sum(not r.ok for r in records))
    tail = TAIL_PCT[args.workload]
    summary = common_summary(
        parts, [sum(len(r.token_ids) for r in recs) for recs in per_part],
        [len(recs) for recs in per_part],
        [[r.e2e * 1e3 for r in recs] for recs in per_part], tail, False)
    for name, series in (
            ("ttft", [[r.ttft * 1e3 for r in recs if r.ttft is not None]
                      for recs in per_part]),
            ("itl", [[g * 1e3 for r in recs for g in r.gaps()]
                     for recs in per_part])):
        series = [x for x in series if x]
        summary[f"{name}_p50_ms"] = median([pct(x, 50) for x in series])
        summary[f"{name}_tail_ms"] = median([pct(x, tail) for x in series])
    layer = None
    checked = records
    if args.trace:
        traced = spawn_part(args, len(parts), window, True)
        traced_records = [Record.from_dict(r) for r in traced["records"]]
        phases.add("traced", len(traced_records),
                   sum(not r.ok for r in traced_records))
        traced_tok_s = (sum(len(r.token_ids) for r in traced_records)
                        / traced["window_s"])
        layer = dict(traced["layers"])
        layer["trace.overhead_pct"] = (summary["tok_s"] / traced_tok_s - 1) * 100
        checked = records + traced_records
    zoo = ModelZoo(CACHE)
    problems, flips = checks.check_serving(zoo.merged(FAMILY, lam=LAM),
                                           zoo.tokenizer, checked)
    summary["ambiguous_draws_tolerated"] = flips
    phases.add("check", len(checked), len(problems))
    return summary, layer, problems


def sweep_run(args, phases: Phases):
    import checks
    from workloads import Candidate, Deployment

    parts, window = run_parts(args)
    per_part = [[Candidate(**c) for c in p["candidates"]] for p in parts]
    candidates = [c for cands in per_part for c in cands]
    phases.add("setup", sum(len(p["setup_s"]) for p in parts))
    phases.add("measure", len(candidates))
    traced_cands: List = []
    if args.trace:
        traced = spawn_part(args, len(parts), window, True)
        traced_cands = [Candidate(**c) for c in traced["candidates"]]
        phases.add("traced", len(traced_cands))
    dep = Deployment("lambda-sweep", CACHE)
    try:
        tokens, problems = checks.check_sweep(dep, candidates + traced_cands)
    finally:
        dep.close()
    phases.add("check", len(tokens), len(problems))
    summary = common_summary(
        parts, [sum(tokens[c.lam] for c in cands) for cands in per_part],
        [len(cands) for cands in per_part],
        [[c.seconds * 1e3 for c in cands] for cands in per_part],
        TAIL_PCT[args.workload], True)
    summary["candidate_s"] = summary["e2e_p50_ms"] / 1e3
    summary["scores"] = {str(c.lam): c.score for c in candidates}
    layer = None
    if args.trace:
        traced_tok_s = sum(tokens[c.lam] for c in traced_cands) / traced["window_s"]
        layer = dict(traced["layers"])
        layer["trace.overhead_pct"] = (summary["tok_s"] / traced_tok_s - 1) * 100
    return summary, layer, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny phases for the benchmark's own tests")
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.part is not None:
        return part_main(args)

    from harness import emit, environment
    from layers import LAYER_METRICS

    env = environment()
    env["cold_build_s"] = ensure_checkpoints()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, smoke=args.smoke, parts=PARTS)
    emit("env", env)
    phases = Phases()
    runner = sweep_run if args.workload == "lambda-sweep" else serving_run
    summary, layer, problems = runner(args, phases)
    emit("summary", summary)
    emit("phases", {k: {"attempted": a, "failed": f}
                    for k, (a, f) in phases.table.items()})
    if layer is not None:
        emit("layers", layer)
    emit("env_after", {"loadavg_after": [round(x, 2) for x in os.getloadavg()]})
    for problem in problems[:20]:
        print(f"# check-failed {problem}", flush=True)
    attempted, failed = phases.timed()
    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in LAYER_METRICS}
    else:
        metrics = {n: {"value": summary[n], "unit": u} for n, u in END_TO_END}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
