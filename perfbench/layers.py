"""Per-layer probe for the traced run.

The probe wraps calls into each layer's public functions from outside the
program (it never edits ``src/``): every wrapped call records its duration
and its self time (duration minus the wrapped calls nested inside it, per
thread), and a few hooks record counts at the same boundaries.  Untraced
runs never install it, so their timings carry no wrappers.

Fleet replicas are forked after the probe is installed, so they run the
wrapped functions too; each replica writes its probe data to a file when
its serving loop returns, and the parent folds those files in.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from harness import mean, median

#: Per-layer metrics of the workloads in ``BENCHMARK.json``, in its order,
#: with units and the direction an improvement moves them.  A layer a
#: workload bypasses reads 0 there.
LAYER_METRICS = (
    ("net.frame_us", "us", "lower"),
    ("net.overhead_ms_p50", "ms", "lower"),
    ("sched.step_ms_p50", "ms", "lower"),
    ("sched.self_ms_per_step", "ms", "lower"),
    ("sched.batch_mean", "count", "higher"),
    ("sched.queue_wait_ms_p50", "ms", "lower"),
    ("sampling.us_per_token", "us", "lower"),
    ("sampling.step_share", "ratio", "lower"),
    ("engine.prefill_ms_p50", "ms", "lower"),
    ("engine.prefill_tokens_per_req", "tokens", "lower"),
    ("engine.decode_ms_per_step", "ms", "lower"),
    ("engine.decode_us_per_seq_token", "us", "lower"),
    ("engine.kv_reserved_mb", "MB", "lower"),
    ("engine.kv_used_mb", "MB", "lower"),
    ("engine.kv_bytes_copied", "bytes", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.hit_token_share", "ratio", "higher"),
    ("tokenizer.decode_us_per_req", "us", "lower"),
    ("merge.plan_ms", "ms", "lower"),
    ("merge.ms_per_candidate", "ms", "lower"),
    ("infer.generate_us_per_token", "us", "lower"),
    ("eval.rouge_ms_per_item", "ms", "lower"),
    ("eval.generate_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
#: Layers only ``chat-fleet`` crosses; that workload is kept out of
#: ``BENCHMARK.json`` (README.md), so these appear in its report line only.
FLEET_LAYER_METRICS = (
    ("sessions.lookup_us", "us", "lower"),
    ("sessions.reused_token_share", "ratio", "higher"),
    ("fleet.router_ms_per_step", "ms", "lower"),
    ("fleet.dispatch_to_first_token_ms", "ms", "lower"),
    ("arena.publish_ms", "ms", "lower"),
    ("fleet.ready_s", "s", "lower"),
)

_MB = 1024.0 * 1024.0


class Probe:
    """Call timing with per-thread self time, plus named value series."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.stamps: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def value(self, name: str, x: float) -> None:
        self.values[name].append(float(x))

    def stamp(self, name: str, key: str, t: float) -> None:
        """Keep the first time ``key`` passed boundary ``name``."""
        self.stamps[name].setdefault(key, t)

    def reset(self) -> None:
        for table in (self.durations, self.self_s, self.values, self.stamps):
            table.clear()

    # -- installation ---------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``before(args, kwargs)`` runs untimed ahead of the call and its
        result is handed to ``after(ctx, args, kwargs, result, t0)``, which
        runs untimed once the call returned.
        """
        is_class = isinstance(owner, type)
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if (is_class and had_own) else getattr(owner, attr)
        probe = self

        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            stack = probe._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                probe.durations[name].append(dt)
                probe.self_s[name] += dt - frame[0]
            if after is not None:
                after(ctx, args, kwargs, result, t0)
            return result

        setattr(owner, attr, wrapper)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- cross-process --------------------------------------------------
    def export(self) -> Dict[str, object]:
        return {"durations": dict(self.durations), "self_s": dict(self.self_s),
                "values": dict(self.values)}

    def absorb(self, data: Dict[str, object]) -> None:
        for k, v in data["durations"].items():
            self.durations[k].extend(v)
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        for k, v in data["values"].items():
            self.values[k].extend(v)

    # -- summaries ------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def mean_s(self, name: str) -> float:
        return mean(self.durations.get(name, []))

    def p50_s(self, name: str) -> float:
        d = self.durations.get(name)
        return median(d) if d else 0.0


def install(probe: Probe, dump_dir: Path) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.merge_engine import GeodesicMergeEngine
    from repro.eval import harness as eval_harness
    from repro.nn import infer
    from repro.nn.tokenizer import WordTokenizer
    from repro.parallel.arena import TensorArena
    from repro.pipelines.model_zoo import ModelZoo
    from repro.serve import fleet as fleet_mod
    from repro.serve import scheduler as sched_mod
    from repro.serve.cache import PrefixCachePool
    from repro.serve.engine import BatchedEngine
    from repro.serve.net import protocol
    from repro.serve.sessions import SessionStore

    p = probe
    now = time.perf_counter

    # serve.net: frame encode/parse on both sides of the socket
    p.wrap(protocol, "encode_frame", "net.frame")
    p.wrap(protocol, "parse_frame", "net.frame")

    # serve.scheduler: steps, submits (queue-wait and server-time anchors)
    def after_submit(ctx, args, kwargs, result, t0):
        request = args[1]
        p.value("sched.submit_t", t0)
        p.stamp("server.submit", request.request_id, t0)

    def after_step(ctx, args, kwargs, result, t0):
        t = now()
        for completion in result or ():
            p.stamp("server.finish", completion.request_id, t)
        stats = args[0].engine.kv_stats()
        p.value("kv.reserved", stats.get("bytes_reserved", 0))
        p.value("kv.in_use", stats.get("bytes_in_use", 0))
        p.value("kv.copied", stats.get("bytes_copied", 0))

    def after_drain(ctx, args, kwargs, result, t0):
        t = now()
        for completion in result or ():
            p.stamp("server.finish", completion.request_id, t)

    p.wrap(sched_mod.Scheduler, "submit", "sched.submit", after=after_submit)
    p.wrap(sched_mod.Scheduler, "step", "sched.step", after=after_step)
    p.wrap(sched_mod.Scheduler, "drain_completions", "sched.drain",
           after=after_drain)

    # nn.sampling, through the names the scheduler and engine call
    p.wrap(sched_mod, "sample_next", "sampling")
    p.wrap(infer, "sample_next", "sampling")

    # serve.engine
    p.wrap(BatchedEngine, "begin_sequence", "engine.begin",
           after=lambda c, a, k, r, t0: p.value("sched.admit_t", t0))
    p.wrap(BatchedEngine, "prefill_into", "engine.prefill",
           before=lambda a, k: a[2].length,
           after=lambda c, a, k, r, t0: p.value("engine.prefill_tokens",
                                                len(a[1]) - c))
    p.wrap(BatchedEngine, "decode", "engine.decode",
           after=lambda c, a, k, r, t0: p.value("engine.batch", len(a[1])))

    # serve.cache / serve.sessions
    p.wrap(PrefixCachePool, "lookup", "cache.lookup",
           after=lambda c, a, k, r, t0: (p.value("cache.hit", r[0]),
                                         p.value("cache.asked", len(a[1]))))
    p.wrap(SessionStore, "lookup_prefix", "sessions.lookup",
           after=lambda c, a, k, r, t0: (p.value("sessions.hit", r[0]),
                                         p.value("sessions.asked", len(a[2]))))

    # nn.tokenizer
    p.wrap(WordTokenizer, "decode", "tokenizer.decode")

    # serve.fleet / parallel.arena (router side; replicas dump their own)
    def after_fleet_submit(ctx, args, kwargs, result, t0):
        p.stamp("server.submit", args[1].request_id, t0)

    def after_dispatch(ctx, args, kwargs, result, t0):
        t = now()
        for request_id in args[0]._inflight:
            p.stamp("fleet.dispatched", request_id, t)

    p.wrap(fleet_mod.FleetServer, "_submit_request", "fleet.submit",
           after=after_fleet_submit)
    p.wrap(fleet_mod.FleetServer, "_step", "fleet.router_step")
    p.wrap(fleet_mod.FleetServer, "_dispatch", "fleet.dispatch",
           after=after_dispatch)
    p.wrap(fleet_mod._FleetScheduler, "drain_completions", "fleet.drain",
           after=after_drain)
    p.wrap(TensorArena, "publish_dict", "arena.publish")

    original_main = fleet_mod._replica_main

    def replica_main(*args, **kwargs):
        p.reset()
        try:
            return original_main(*args, **kwargs)
        finally:
            path = dump_dir / f"replica-{os.getpid()}.json"
            path.write_text(json.dumps(p.export()))

    fleet_mod._replica_main = replica_main
    p._undo.append(lambda: setattr(fleet_mod, "_replica_main", original_main))

    # core.merge_engine / nn.infer / eval
    p.wrap(GeodesicMergeEngine, "__init__", "merge.plan")
    p.wrap(GeodesicMergeEngine, "merge", "merge.merge")
    p.wrap(infer.InferenceEngine, "generate", "infer.generate",
           after=lambda c, a, k, r, t0: p.value("infer.tokens", len(r)))
    p.wrap(eval_harness, "rouge_l", "eval.rouge")
    p.wrap(ModelZoo, "evaluate_candidates", "eval.candidate")


def watch_first_tokens(probe: Probe, fleet) -> None:
    """Stamp each request's first token as the router hands it to the
    front door (the ``on_token`` hook the net server installed)."""
    facade = fleet.scheduler
    original = facade.on_token

    def on_token(request, token, index):
        if index == 0:
            probe.stamp("fleet.first_token", request.request_id,
                        time.perf_counter())
        if original is not None:
            original(request, token, index)

    facade.on_token = on_token
    probe._undo.append(lambda: setattr(facade, "on_token", original))


def absorb_replica_dumps(probe: Probe, dump_dir: Path) -> None:
    for path in sorted(dump_dir.glob("replica-*.json")):
        probe.absorb(json.loads(path.read_text()))
        path.unlink()


def _pair_ms(starts: Dict[str, float], ends: Dict[str, float]) -> List[float]:
    return [(ends[k] - t) * 1e3 for k, t in starts.items() if k in ends]


def _share(num: List[float], den: List[float]) -> float:
    d = sum(den)
    return sum(num) / d if d else 0.0


def layer_metrics(probe: Probe, records, setup_probe: Probe) -> Dict[str, float]:
    """Every per-layer metric from one traced window.

    ``setup_probe`` holds the traced construction (merge plan, arena
    publish, fleet readiness); ``records`` are the traced window's client
    records, used for the client-minus-server network overhead and the
    session reuse share.  A layer the workload bypasses reads 0.  The
    caller adds ``trace.overhead_pct``, which needs the untraced parts.
    """
    p = probe
    m: Dict[str, float] = {}
    m["net.frame_us"] = p.mean_s("net.frame") * 1e6

    server_ms = {}
    submits, finishes = p.stamps["server.submit"], p.stamps["server.finish"]
    for rid, t in submits.items():
        if rid in finishes:
            server_ms[rid] = (finishes[rid] - t) * 1e3
    overheads = [r.e2e * 1e3 - server_ms[r.request_id] for r in records
                 if r.request_id in server_ms]
    m["net.overhead_ms_p50"] = median(overheads) if (
        overheads and p.count("net.frame")) else 0.0

    steps = p.count("sched.step")
    m["sched.step_ms_p50"] = p.p50_s("sched.step") * 1e3
    m["sched.self_ms_per_step"] = (p.self_s["sched.step"] / steps * 1e3
                                   if steps else 0.0)
    m["sched.batch_mean"] = mean(p.values["engine.batch"])
    waits = [(b - a) * 1e3 for a, b in zip(p.values["sched.submit_t"],
                                           p.values["sched.admit_t"])]
    m["sched.queue_wait_ms_p50"] = median(waits) if waits else 0.0

    m["sampling.us_per_token"] = p.mean_s("sampling") * 1e6
    step_total = p.total("sched.step") or p.total("infer.generate")
    m["sampling.step_share"] = (p.total("sampling") / step_total
                                if step_total else 0.0)

    m["engine.prefill_ms_p50"] = p.p50_s("engine.prefill") * 1e3
    m["engine.prefill_tokens_per_req"] = mean(p.values["engine.prefill_tokens"])
    m["engine.decode_ms_per_step"] = p.mean_s("engine.decode") * 1e3
    rows = sum(p.values["engine.batch"])
    m["engine.decode_us_per_seq_token"] = (p.total("engine.decode") / rows * 1e6
                                           if rows else 0.0)
    kv_reserved = p.values["kv.reserved"]
    m["engine.kv_reserved_mb"] = max(kv_reserved) / _MB if kv_reserved else 0.0
    m["engine.kv_used_mb"] = mean(p.values["kv.in_use"]) / _MB
    copied = p.values["kv.copied"]
    m["engine.kv_bytes_copied"] = (max(copied) - min(copied)) if copied else 0.0

    m["cache.lookup_us"] = p.mean_s("cache.lookup") * 1e6
    m["cache.hit_token_share"] = _share(p.values["cache.hit"],
                                        p.values["cache.asked"])
    m["sessions.lookup_us"] = p.mean_s("sessions.lookup") * 1e6
    later = [r for r in records if r.job.meta.get("turn", 1) >= 2]
    m["sessions.reused_token_share"] = _share(
        [r.cached_prefix_tokens for r in later],
        [len(r.job.prompt_ids) for r in later])

    m["tokenizer.decode_us_per_req"] = p.mean_s("tokenizer.decode") * 1e6

    m["fleet.router_ms_per_step"] = p.mean_s("fleet.router_step") * 1e3
    d2f = _pair_ms(p.stamps["fleet.dispatched"], p.stamps["fleet.first_token"])
    m["fleet.dispatch_to_first_token_ms"] = median(d2f) if d2f else 0.0
    m["arena.publish_ms"] = setup_probe.mean_s("arena.publish") * 1e3
    ready = setup_probe.values.get("fleet.ready_s")
    m["fleet.ready_s"] = ready[-1] if ready else 0.0

    m["merge.plan_ms"] = setup_probe.mean_s("merge.plan") * 1e3
    merges = p.durations.get("merge.merge") or setup_probe.durations.get(
        "merge.merge", [])
    m["merge.ms_per_candidate"] = mean(merges) * 1e3
    gen_tokens = sum(p.values["infer.tokens"])
    m["infer.generate_us_per_token"] = (p.total("infer.generate") / gen_tokens
                                        * 1e6 if gen_tokens else 0.0)
    m["eval.rouge_ms_per_item"] = p.mean_s("eval.rouge") * 1e3
    cand = p.total("eval.candidate")
    m["eval.generate_share"] = (p.total("infer.generate") / cand
                                if cand else 0.0)
    return m
