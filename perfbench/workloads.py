"""The four workloads: seeded inputs, deployments (the set-up being
timed), and the closed-loop runs.

Every deployment uses the program's default configuration (``ServeConfig()``,
``NetServerConfig()``, ``FleetServer`` defaults, the evaluator's default
worker count), so a change of default shows up in the numbers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import Job, Record, inprocess_closed_loop, socket_closed_loop

FAMILY = "grande"
LAM = 0.6
#: The λ grid of the sweep workload (the paper's Figure-8 study).
LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
#: Greedy answer budget of the QA workloads (the evaluator's own).
QA_MAX_NEW = 24
#: Sampling knobs of ``gen-sampled``.
GEN_SAMPLING = {"temperature": 0.8, "top_k": 40, "top_p": 0.95}

USERS = {"qa-prefix": 16, "gen-sampled": 8, "chat-fleet": 16}
FLEET_REPLICAS = 2


def _seeded(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a workload sends, generated from the seed alone."""

    name: str
    seed: int
    #: Per-item prompt token ids (qa / gen) or chat items.
    prompts: List[List[int]] = field(default_factory=list)
    items: list = field(default_factory=list)
    budget: int = 0

    def order(self, salt: int, user: int, round_no: int, n: int) -> np.ndarray:
        """The item order user ``user`` walks in its ``round_no``-th pass
        of window ``salt``."""
        return _seeded(self.seed, salt, user, round_no).permutation(n)


def make_inputs(name: str, seed: int, tokenizer, max_seq_len: int) -> Inputs:
    from repro.data import industrial_qa, openroad_qa
    from repro.data.ifeval_data import ifeval_prompts
    from repro.data.prompting import format_prompt

    inputs = Inputs(name, seed)
    if name == "qa-prefix":
        for t in openroad_qa.eval_triplets():
            inputs.prompts.append(tokenizer.encode(
                format_prompt(t.question, context=t.context), add_bos=True))
    elif name == "gen-sampled":
        for p in ifeval_prompts():
            inputs.prompts.append(tokenizer.encode(p.prompt, add_bos=True))
        # As many tokens as the context window allows for the longest
        # prompt, so every request ends on its budget, never on context.
        inputs.budget = max_seq_len - max(len(p) for p in inputs.prompts)
    elif name == "chat-fleet":
        inputs.items = industrial_qa.multi_turn_items()
    return inputs


class JobSource:
    """Closed-loop job generator: each user walks its own seeded
    permutation of the items, pass after pass.  ``salt`` gives each
    window (warm-up, measured, traced) its own orders; ``tag`` its own
    session ids."""

    def __init__(self, inputs: Inputs, tokenizer, tag: str, salt: int) -> None:
        self.inputs = inputs
        self.encode = tokenizer.encode
        self.decode = tokenizer.decode
        self.tag = tag
        self.salt = salt
        self._cursor: Dict[int, int] = {}
        self._conversations = 0

    def _next_index(self, user: int, n: int) -> int:
        k = self._cursor.get(user, 0)
        self._cursor[user] = k + 1
        return int(self.inputs.order(self.salt, user, k // n, n)[k % n])

    def __call__(self, user: int, previous: Optional[Record]) -> Job:
        inputs = self.inputs
        if inputs.name == "qa-prefix":
            i = self._next_index(user, len(inputs.prompts))
            return Job(inputs.prompts[i],
                       {"max_new_tokens": QA_MAX_NEW, "temperature": 0.0},
                       meta={"item": i})
        if inputs.name == "gen-sampled":
            i = self._next_index(user, len(inputs.prompts))
            seed = int(_seeded(inputs.seed, 7919, i).integers(2 ** 31))
            params = dict(GEN_SAMPLING, max_new_tokens=inputs.budget,
                          seed=seed, stop_on_eos=False)
            return Job(inputs.prompts[i], params, meta={"item": i})
        return self._chat_turn(user, previous)

    def _chat_turn(self, user: int, previous: Optional[Record]) -> Job:
        from repro.data.prompting import format_prompt

        params = {"max_new_tokens": QA_MAX_NEW, "temperature": 0.0}
        if previous is not None and previous.job.meta["turn"] == 1:
            item = self.inputs.items[previous.job.meta["item"]]
            answer = self.decode(list(previous.token_ids))
            prompt = format_prompt(item.question, context=item.context,
                                   history=((item.first_question, answer),))
            return Job(self.encode(prompt, add_bos=True), params,
                       session=previous.job.session,
                       meta={"item": previous.job.meta["item"], "turn": 2})
        i = self._next_index(user, len(self.inputs.items))
        item = self.inputs.items[i]
        self._conversations += 1
        prompt = format_prompt(item.first_question, context=item.context)
        return Job(self.encode(prompt, add_bos=True), params,
                   session=f"{self.tag}-u{user}-c{self._conversations}",
                   meta={"item": i, "turn": 1})


# ---------------------------------------------------------------------------
# deployments: what ``setup_s`` times
# ---------------------------------------------------------------------------


class Deployment:
    """One constructed system under test.

    Construction is the set-up the benchmark times: checkpoint load, merge
    plan, λ merge, engine build, and (per workload) socket start or replica
    fork until every replica reports ready.
    """

    def __init__(self, name: str, cache_dir: Path) -> None:
        from repro.pipelines.model_zoo import ModelZoo

        self.name = name
        self.zoo = ModelZoo(cache_dir)
        self.tokenizer = self.zoo.tokenizer
        self.server = self.fleet = self.net = self.client = None
        if name == "lambda-sweep":
            self.engine = self.zoo.merge_engine(FAMILY)
            self.model = None
            return
        self.model = self.zoo.merged(FAMILY, lam=LAM)
        if name == "chat-fleet":
            from repro.serve.fleet import FleetServer

            t0 = time.perf_counter()
            self.fleet = FleetServer(self.model, self.tokenizer,
                                     n_replicas=FLEET_REPLICAS)
            wait_ready(self.fleet)
            self.fleet_ready_s = time.perf_counter() - t0
            inner = self.fleet
        else:
            from repro.serve import InProcessServer

            self.server = inner = InProcessServer(self.model, self.tokenizer)
        if name != "gen-sampled":
            from repro.serve.net import NetClient, NetServerThread

            self.net = NetServerThread(None, inner=inner)
            host, port = self.net.start()
            self.client = NetClient(host, port)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.net is not None:
            self.net.stop()
        if self.fleet is not None:
            self.fleet.close()


def wait_ready(fleet, timeout: float = 60.0) -> None:
    """Drive the router until every replica has reported ready.

    The fleet has no public readiness wait; its router marks a replica
    ready when the replica's ``ready`` event is drained, which ``step``
    does.
    """
    deadline = time.perf_counter() + timeout
    while not all(rep.ready for rep in fleet._replicas):
        if time.perf_counter() > deadline:
            raise RuntimeError("fleet replicas did not become ready")
        fleet.step()
        time.sleep(0.001)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_serving(dep: Deployment, jobs: JobSource, seconds: float) -> List[Record]:
    """One closed-loop window of a serving workload."""
    deadline = time.perf_counter() + seconds
    users = USERS[dep.name]
    if dep.client is not None:
        return socket_closed_loop(dep.client, users, jobs, deadline)
    return inprocess_closed_loop(dep.server, users, jobs, deadline)


@dataclass
class Candidate:
    """One scored λ candidate."""

    lam: float
    score: float
    seconds: float


def score_candidate(dep: Deployment, lam: float) -> Candidate:
    t0 = time.perf_counter()
    ((_, score),) = dep.zoo.evaluate_candidates(FAMILY, [lam])
    return Candidate(lam, score, time.perf_counter() - t0)


def run_sweep(dep: Deployment, seed: int, seconds: float,
              salt: int = 0) -> List[Candidate]:
    """Whole passes over the λ grid, each in a seeded order, until the
    window is spent; returns every scored candidate."""
    out: List[Candidate] = []
    end = time.perf_counter() + seconds
    for round_no in itertools.count():
        order = _seeded(seed, salt, round_no).permutation(len(LAMBDA_GRID))
        out.extend(score_candidate(dep, LAMBDA_GRID[int(i)]) for i in order)
        if time.perf_counter() >= end:
            return out
