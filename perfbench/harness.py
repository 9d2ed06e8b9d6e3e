"""Measurement plumbing shared by every workload: statistics, process
resources, the environment stamp, and the two closed-loop clients
(socket and in-process).

Every timestamp here is taken by the benchmark with ``time.perf_counter``
on the client side of the program's public surface; nothing is read back
from the program's own latency bookkeeping.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# process resources
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CpuMeter:
    """CPU seconds of this process plus every live child it started
    (fleet replicas), between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._t0 = 0.0
        self._child0: Dict[int, float] = {}

    @staticmethod
    def _self_s() -> float:
        t = os.times()
        return t.user + t.system

    def start(self) -> None:
        self._child0 = {p.pid: _proc_cpu_s(p.pid)
                        for p in multiprocessing.active_children()}
        self._t0 = self._self_s()

    def stop(self) -> float:
        own = self._self_s() - self._t0
        kids = sum(_proc_cpu_s(pid) - base for pid, base in self._child0.items())
        return own + kids


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the live children it started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_hwm_mb(p.pid)
                     for p in multiprocessing.active_children())


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _blas_threads_in_effect() -> Optional[int]:
    """Ask the OpenBLAS numpy links against for its live thread count."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    candidates = sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else []
    for lib in candidates:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_build() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def _source_id() -> Dict[str, str]:
    """Git sha when the tree is a checkout, plus a digest of ``src/`` that
    identifies the program even where no ``.git`` is present."""
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def environment() -> Dict[str, object]:
    """The run's environment stamp (load average is re-read at the end)."""
    env: Dict[str, object] = dict(_source_id())
    env.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads_env": {k: os.environ[k] for k in _BLAS_THREAD_VARS
                             if k in os.environ},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
    })
    return env


def fence() -> None:
    """GC fence before a timed window; the collector stays enabled inside."""
    gc.collect()


def emit(tag: str, payload: Dict[str, object]) -> None:
    """One human-readable report line (never the last line of stdout)."""
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


# ---------------------------------------------------------------------------
# closed-loop clients
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One request a simulated user sends."""

    prompt_ids: List[int]
    params: Dict[str, object]
    session: Optional[str] = None
    #: Workload bookkeeping (item index, turn number, ...).
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class Record:
    """Client-side timeline and outcome of one request."""

    user: int
    job: Job
    submitted: float
    token_times: List[float] = field(default_factory=list)
    done: Optional[float] = None
    token_ids: tuple = ()
    ok: bool = False
    cached_prefix_tokens: int = 0
    request_id: Optional[str] = None
    error: Optional[str] = None

    @property
    def e2e(self) -> float:
        return self.done - self.submitted

    @property
    def ttft(self) -> Optional[float]:
        return self.token_times[0] - self.submitted if self.token_times else None

    def gaps(self) -> List[float]:
        t = self.token_times
        return [b - a for a, b in zip(t, t[1:])]

    @classmethod
    def from_dict(cls, data: Dict) -> "Record":
        """Inverse of ``dataclasses.asdict`` (records cross processes)."""
        data = dict(data, job=Job(**data["job"]))
        data["token_ids"] = tuple(data["token_ids"])
        return cls(**data)


NextJob = Callable[[int, Optional[Record]], Optional[Job]]


def socket_closed_loop(client, users: int, next_job: NextJob,
                       deadline: float) -> List[Record]:
    """``users`` closed-loop users multiplexed over one connection.

    Each user keeps exactly one request in flight; when its ``done`` frame
    arrives before ``deadline`` the user sends its next request.  Returns
    every request's record in completion order (all sent requests finish).
    """
    inflight: Dict[str, Record] = {}
    records: List[Record] = []

    def send(user: int, previous: Optional[Record]) -> None:
        job = next_job(user, previous)
        if job is None:
            return
        now = time.perf_counter()
        cid = client.submit(job.prompt_ids, params=job.params, stream=True,
                            session=job.session)
        inflight[cid] = Record(user, job, now)

    for user in range(users):
        send(user, None)
    while inflight:
        event = client.recv_event()
        now = time.perf_counter()
        rec = inflight.get(event.get("id"))
        if rec is None:
            continue
        kind = event.get("event")
        if kind == "token":
            rec.token_times.append(now)
        elif kind == "accepted":
            rec.request_id = event.get("request_id")
        elif kind in ("done", "shed", "error"):
            del inflight[event["id"]]
            rec.done = now
            if kind == "done":
                rec.ok = event.get("status") == "finished"
                rec.token_ids = tuple(event.get("token_ids", ()))
                rec.cached_prefix_tokens = int(
                    event.get("cached_prefix_tokens") or 0)
                if not rec.ok:
                    rec.error = f"status {event.get('status')}"
            else:
                rec.error = f"{kind} {event.get('code')}"
            records.append(rec)
            if now < deadline:
                send(rec.user, rec)
    return records


def inprocess_closed_loop(server, users: int, next_job: NextJob,
                          deadline: float) -> List[Record]:
    """``users`` closed-loop users driving an ``InProcessServer`` directly;
    tokens are timestamped by the scheduler's public ``on_token`` hook."""
    from repro.serve import SamplingParams

    inflight: Dict[str, Record] = {}
    records: List[Record] = []

    def on_token(request, token, index) -> None:
        rec = inflight.get(request.request_id)
        if rec is not None:
            rec.token_times.append(time.perf_counter())

    def send(user: int, previous: Optional[Record]) -> None:
        job = next_job(user, previous)
        if job is None:
            return
        now = time.perf_counter()
        rid = server.submit(job.prompt_ids, params=SamplingParams(**job.params),
                            session_id=job.session)
        inflight[rid] = Record(user, job, now, request_id=rid)

    server.scheduler.on_token = on_token
    try:
        for user in range(users):
            send(user, None)
        while inflight:
            for completion in server.step():
                now = time.perf_counter()
                rec = inflight.pop(completion.request_id)
                rec.done = now
                rec.ok = completion.ok
                rec.token_ids = tuple(completion.token_ids)
                rec.cached_prefix_tokens = completion.cached_prefix_tokens
                if not rec.ok:
                    rec.error = f"status {completion.status}"
                records.append(rec)
                if now < deadline:
                    send(rec.user, rec)
    finally:
        server.scheduler.on_token = None
    return records
