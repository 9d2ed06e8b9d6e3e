"""One measured part of a run, in its own process.

A run is split into several parts, each a fresh process that constructs
the deployment, warms it up and measures one window.  On a small shared
machine the speed of a whole process moves by several percent from one
process to the next, so a run that reports the median over parts is far
steadier than one long window in one process.

A part prints one JSON object as the last line of its stdout: its set-up
times, window, CPU seconds, peak RSS and every client record (or scored
λ candidate), which the parent checks and aggregates.  A traced part also
carries the per-layer figures of its probed window.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict

from harness import CpuMeter, fence, peak_rss_mb


def _setups(name: str, cache: Path, repeats: int):
    """Construct the deployment ``repeats`` times; keep the last one."""
    from workloads import Deployment

    times, dep = [], None
    for _ in range(repeats):
        if dep is not None:
            dep.close()
        t0 = time.perf_counter()
        dep = Deployment(name, cache)
        times.append(time.perf_counter() - t0)
    return times, dep


def _measured(fn):
    """Run ``fn`` inside a GC-fenced, CPU-metered window."""
    fence()
    cpu = CpuMeter()
    cpu.start()
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    return out, {"window_s": t1 - t0, "cpu_s": cpu.stop(), "rss_mb": peak_rss_mb()}


def serving_part(name: str, seed: int, part: int, window: float,
                 warmup: float, repeats: int, cache: Path) -> Dict:
    from workloads import JobSource, make_inputs, run_serving

    setup_times, dep = _setups(name, cache, repeats)
    try:
        inputs = make_inputs(name, seed, dep.tokenizer,
                             dep.model.config.max_seq_len)
        run_serving(dep, JobSource(inputs, dep.tokenizer, f"w{part}",
                                   10 * part + 1), warmup)
        jobs = JobSource(inputs, dep.tokenizer, f"m{part}", 10 * part + 2)
        records, stats = _measured(lambda: run_serving(dep, jobs, window))
    finally:
        dep.close()
    return dict(stats, setup_s=setup_times,
                records=[asdict(r) for r in records])


def sweep_part(seed: int, part: int, window: float, repeats: int,
               cache: Path) -> Dict:
    from workloads import LAM, run_sweep, score_candidate

    setup_times, dep = _setups("lambda-sweep", cache, repeats)
    try:
        score_candidate(dep, LAM)  # warm-up
        candidates, stats = _measured(
            lambda: run_sweep(dep, seed, window, salt=10 * part + 2))
    finally:
        dep.close()
    return dict(stats, setup_s=setup_times,
                candidates=[asdict(c) for c in candidates])


# ---------------------------------------------------------------------------
# traced part
# ---------------------------------------------------------------------------


def traced_part(name: str, seed: int, window: float, warmup: float,
                cache: Path, trace_dir: Path) -> Dict:
    """A probed deployment: its construction gives the set-up layer
    figures, its window the serving / sweep layer figures."""
    from layers import (Probe, absorb_replica_dumps, install, layer_metrics,
                        watch_first_tokens)
    from repro.nn.transformer import preset_config
    from repro.pipelines.model_zoo import ModelZoo
    from workloads import (FAMILY, LAM, Deployment, JobSource, make_inputs,
                           run_serving, run_sweep, score_candidate)

    sweep = name == "lambda-sweep"
    if not sweep:
        # Job sources capture the tokenizer's bound methods before the
        # probe wraps its class, so client-side decoding stays out.
        tokenizer = ModelZoo(cache).tokenizer
        max_len = preset_config(FAMILY, tokenizer.vocab_size).max_seq_len
        inputs = make_inputs(name, seed, tokenizer, max_len)
        warm_jobs = JobSource(inputs, tokenizer, "tw", 91)
        jobs = JobSource(inputs, tokenizer, "tm", 92)
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("replica-*.json"):
        stale.unlink()
    probe, setup_probe = Probe(), Probe()
    install(probe, trace_dir)
    try:
        dep = Deployment(name, cache)
        setup_probe.absorb(probe.export())
        try:
            if dep.fleet is not None:
                setup_probe.value("fleet.ready_s", dep.fleet_ready_s)
                watch_first_tokens(probe, dep.fleet)
            if sweep:
                score_candidate(dep, LAM)
                probe.reset()
                out, stats = _measured(
                    lambda: run_sweep(dep, seed, window, salt=92))
            else:
                run_serving(dep, warm_jobs, warmup)
                probe.reset()
                out, stats = _measured(lambda: run_serving(dep, jobs, window))
            if dep.fleet is not None:
                stop_replicas(dep.fleet)
        finally:
            dep.close()
    finally:
        probe.uninstall()
    absorb_replica_dumps(probe, trace_dir)
    layers = layer_metrics(probe, [] if sweep else out, setup_probe)
    key = "candidates" if sweep else "records"
    return dict(stats, layers=layers, **{key: [asdict(x) for x in out]})


def stop_replicas(fleet, timeout: float = 10.0) -> None:
    """Let every replica leave its serving loop on its own (so its probe
    data reaches disk) before the fleet's close kills stragglers."""
    for rep in fleet._replicas:
        rep.conn.send(("stop",))
    for rep in fleet._replicas:
        rep.process.join(timeout)
