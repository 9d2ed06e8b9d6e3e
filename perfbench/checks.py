"""Output checks, run after the timed windows.

Each check compares the program's output with a computation made apart
from the path being measured:

* serving completions against ``InferenceEngine.generate`` (the
  single-sequence reference forward) for the same prompt, sampling
  parameters and seed;
* merged tensors against a SLERP with geometric-mean norm restoration
  computed here from the two checkpoints;
* ROUGE-L scores against an LCS F-measure computed here.

``self_test`` proves the checks can fail: it alters one token of one
completion (one element of one tensor, one score) and expects a mismatch.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import Record

# ---------------------------------------------------------------------------
# serving completions
# ---------------------------------------------------------------------------


def _key(rec: Record) -> Tuple:
    return (tuple(rec.job.prompt_ids), tuple(sorted(rec.job.params.items())))


def reference_tokens(engine, prompt_ids: Sequence[int], params: Dict,
                     eos_id: int) -> Tuple[int, ...]:
    """The reference forward's continuation under serving semantics."""
    stop_on_eos = params.get("stop_on_eos", True)
    return tuple(engine.generate(
        list(prompt_ids), max_new_tokens=params["max_new_tokens"],
        temperature=params.get("temperature", 0.0),
        eos_id=eos_id if stop_on_eos else None,
        rng=np.random.default_rng(params.get("seed", 0)),
        top_k=params.get("top_k"), top_p=params.get("top_p")))


def reference_table(engine, records: Sequence[Record],
                    eos_id: int) -> Dict[Tuple, Tuple[int, ...]]:
    """One reference continuation per distinct (prompt, params)."""
    table: Dict[Tuple, Tuple[int, ...]] = {}
    for rec in records:
        key = _key(rec)
        if key not in table:
            table[key] = reference_tokens(engine, rec.job.prompt_ids,
                                          rec.job.params, eos_id)
    return table


#: Float noise allowed in one sampling decision.  The batched decode and
#: the single-row reference compute float32 logits that differ in the
#: last bits; one float32 step of the CDF is 6e-8, and a draw observed
#: 6e-8 from a CDF step did flip.
AMBIGUITY = 1e-5


def _ambiguous(logits: np.ndarray, params: Dict, u: float) -> bool:
    """Whether float noise in ``logits`` could flip this decision: the
    top-two logit gap when greedy; otherwise the draw ``u`` lies within
    the noise of a CDF step, widened by the probability of any token whose
    top-k or top-p membership the noise could flip."""
    from repro.nn.sampling import filter_top_k, filter_top_p, softmax

    temperature = params.get("temperature", 0.0)
    if temperature == 0.0:
        top = np.sort(logits)[-2:]
        return bool(top[1] - top[0] < AMBIGUITY)
    probs = softmax(logits / temperature)
    slack = AMBIGUITY
    top_k, top_p = params.get("top_k"), params.get("top_p")
    if top_k is not None and top_k < probs.size:
        ranked = np.sort(probs)
        inside, outside = ranked[-top_k], ranked[-top_k - 1]
        if inside - outside < AMBIGUITY * inside:
            slack += inside + outside
        probs = filter_top_k(probs, top_k)
    if top_p is not None and top_p < 1.0:
        ranked = np.sort(probs)[::-1]
        cum = np.cumsum(ranked)
        last = int(np.searchsorted(cum, top_p, side="left"))
        for i in range(max(last - 1, 0), min(last + 1, cum.size)):
            if abs(cum[i] - top_p) < AMBIGUITY:
                slack += ranked[i] + (ranked[i + 1] if i + 1 < cum.size else 0.0)
        probs = filter_top_p(probs, top_p)
    cdf = np.cumsum(probs)
    return bool(np.min(np.abs(cdf / cdf[-1] - u)) < slack)


def ambiguous_flips(engine, rec: Record, eos_id: int) -> Optional[int]:
    """Walk a served completion through the reference forward, token by
    token, mirroring ``generate``; count the steps where it took the other
    branch of a float-ambiguous decision.  ``None`` when any step differs
    beyond :data:`AMBIGUITY` or the completion stops where the reference
    would not."""
    from repro.nn.infer import _LayerCache
    from repro.nn.sampling import sample_next

    params = rec.job.params
    stop_on_eos = params.get("stop_on_eos", True)
    max_ctx = engine.config.max_seq_len
    served = list(rec.token_ids)
    caches = [_LayerCache() for _ in engine.layers]
    logits = engine._forward(list(rec.job.prompt_ids)[-max_ctx:], caches)
    rng = np.random.default_rng(params.get("seed", 0))
    flips = 0
    for step in range(params["max_new_tokens"]):
        u = copy.deepcopy(rng).random()  # the one draw ``choice`` makes
        token = sample_next(logits, temperature=params.get("temperature", 0.0),
                            rng=rng, top_k=params.get("top_k"),
                            top_p=params.get("top_p"))
        if step < len(served):
            want = served[step]
        elif stop_on_eos:
            want = eos_id  # the completion ended on an EOS draw here
        else:
            return None
        if token != want:
            if not _ambiguous(logits, params, u):
                return None
            flips += 1
        if step == len(served):
            return flips
        if caches[0].length >= max_ctx:  # context exhausted
            return flips if step + 1 == len(served) else None
        logits = engine._forward([want], caches)
    return flips if len(served) == params["max_new_tokens"] else None


def completion_mismatches(engine, records: Sequence[Record],
                          table: Dict[Tuple, Tuple[int, ...]],
                          eos_id: int) -> Tuple[List[str], int]:
    """Completions that differ from the reference beyond float ambiguity,
    and the number of float-ambiguous draws that went the other way."""
    problems, flips = [], 0
    for i, rec in enumerate(records):
        if rec.token_ids == table[_key(rec)]:
            continue
        n = ambiguous_flips(engine, rec, eos_id)
        if n is None:
            problems.append(f"request {i} (user {rec.user}, {rec.job.meta}) "
                            f"differs from the reference forward")
        else:
            flips += n
    return problems, flips


def budget_mismatches(records: Sequence[Record]) -> List[str]:
    """Ignore-EOS requests must return exactly their token budget."""
    return [f"request {i} returned {len(rec.token_ids)} of "
            f"{rec.job.params['max_new_tokens']} tokens"
            for i, rec in enumerate(records)
            if not rec.job.params.get("stop_on_eos", True)
            and len(rec.token_ids) != rec.job.params["max_new_tokens"]]


def session_mismatches(records: Sequence[Record]) -> List[str]:
    """Every later turn of a session must reuse cached KV tokens."""
    return [f"turn {rec.job.meta['turn']} of {rec.job.session} reused 0 tokens"
            for rec in records
            if rec.job.meta.get("turn", 1) >= 2 and rec.cached_prefix_tokens <= 0]


# ---------------------------------------------------------------------------
# geodesic merge
# ---------------------------------------------------------------------------


def own_slerp(chip: np.ndarray, instruct: np.ndarray, lam: float) -> np.ndarray:
    """ChipAlign merge of one tensor pair, written from the paper:
    project both onto the unit sphere, interpolate along the great circle
    (λ = 1 is the chip model), rescale by Norm_chip^λ · Norm_instruct^(1-λ)."""
    a = np.asarray(chip, dtype=np.float64)
    b = np.asarray(instruct, dtype=np.float64)
    na, nb = math.sqrt(float(np.vdot(a, a))), math.sqrt(float(np.vdot(b, b)))
    if na == 0.0 or nb == 0.0:
        return lam * a + (1.0 - lam) * b
    ua, ub = a / na, b / nb
    theta = math.acos(max(-1.0, min(1.0, float(np.vdot(ua, ub)))))
    if theta < 1e-7:  # parallel: normalised lerp, the geodesic's limit
        mix = lam * ua + (1.0 - lam) * ub
        unit = mix / math.sqrt(float(np.vdot(mix, mix)))
    else:
        unit = (math.sin(lam * theta) * ua
                + math.sin((1.0 - lam) * theta) * ub) / math.sin(theta)
    return (na ** lam) * (nb ** (1.0 - lam)) * unit


def _close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> bool:
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))) <= rtol * scale


def merge_mismatches(merged: Dict[str, np.ndarray], chip: Dict[str, np.ndarray],
                     instruct: Dict[str, np.ndarray], lam: float) -> List[str]:
    """Merged tensors vs the own SLERP; at λ = 0 / 1 also vs the inputs."""
    bad = []
    if set(merged) != set(chip):
        bad.append(f"λ={lam}: merged keys differ from the checkpoints'")
    for key in chip:
        if key not in merged:
            continue
        if not _close(merged[key], own_slerp(chip[key], instruct[key], lam)):
            bad.append(f"λ={lam}: {key} differs from the own SLERP")
        endpoint = {0.0: instruct, 1.0: chip}.get(lam)
        if endpoint is not None and not _close(
                merged[key], np.asarray(endpoint[key], dtype=np.float64)):
            bad.append(f"λ={lam}: {key} does not reproduce the input model")
    return bad


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def own_lcs(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length (full DP table)."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = (table[i - 1][j - 1] + 1 if x == y
                           else max(table[i - 1][j], table[i][j - 1]))
    return table[len(a)][len(b)]


def own_rouge_l(candidate: str, reference: str, beta: float = 1.2) -> float:
    """Sentence ROUGE-L F-measure (Lin, 2004) over whitespace tokens."""
    cand, ref = candidate.split(), reference.split()
    lcs = own_lcs(cand, ref) if cand and ref else 0
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return (1 + beta ** 2) * p * r / (r + beta ** 2 * p)


def candidate_answers(model, tokenizer, prompts: Sequence[str],
                      max_new_tokens: int) -> List[List[int]]:
    """Greedy answers of one merged model from the reference forward."""
    from repro.nn.infer import InferenceEngine

    engine = InferenceEngine(model)
    return [engine.generate(tokenizer.encode(p, add_bos=True),
                            max_new_tokens=max_new_tokens,
                            eos_id=tokenizer.eos_id) for p in prompts]


def score_mismatch(score: float, answers: Sequence[str],
                   references: Sequence[str], lam: float) -> List[str]:
    mine = sum(own_rouge_l(a, r) for a, r in zip(answers, references)) / len(answers)
    if abs(mine - score) > 1e-12:
        return [f"λ={lam}: ROUGE-L {score!r} differs from the own LCS score {mine!r}"]
    return []


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def self_test_completion(engine, records: Sequence[Record],
                         table: Dict[Tuple, Tuple[int, ...]], eos_id: int,
                         vocab_size: int) -> List[str]:
    """Altering one token of one completion must fail the check (a few
    positions are tried, since one may sit on an ambiguous draw)."""
    victim = next((r for r in records if len(r.token_ids) >= 3), None)
    if victim is None:
        return ["self-test: no completion with tokens to alter"]
    original = victim.token_ids
    try:
        for pos in range(len(original) // 2, len(original)):
            tokens = list(original)
            tokens[pos] = (tokens[pos] + 1) % vocab_size
            victim.token_ids = tuple(tokens)
            if completion_mismatches(engine, [victim], table, eos_id)[0]:
                return []
            if pos - len(original) // 2 >= 3:
                break
    finally:
        victim.token_ids = original
    return ["self-test: an altered completion passed the check"]


def self_test_merge(merged: Dict[str, np.ndarray], chip, instruct,
                    lam: float) -> List[str]:
    """Altering one merged element must fail the SLERP check."""
    key = next(iter(merged))
    altered = dict(merged)
    altered[key] = np.array(merged[key], dtype=np.float64, copy=True)
    flat = altered[key].reshape(-1)
    flat[0] += 1e-6 * max(1.0, abs(flat[0]))
    caught = bool(merge_mismatches({key: altered[key]}, {key: chip[key]},
                                   {key: instruct[key]}, lam))
    return [] if caught else ["self-test: an altered merged tensor passed the check"]


def self_test_score(score: float, answers, references, lam: float) -> List[str]:
    """Altering one answer token must fail the ROUGE-L check."""
    altered = list(answers)
    altered[0] = " ".join(["<altered>"] + altered[0].split()[1:])
    mine = sum(own_rouge_l(a, r) for a, r in zip(answers, references))
    theirs = sum(own_rouge_l(a, r) for a, r in zip(altered, references))
    if mine == theirs:  # the first word was not in the LCS: alter the score
        return ([] if score_mismatch(score + 1e-9, answers, references, lam)
                else ["self-test: an altered score passed the check"])
    return ([] if score_mismatch(score, altered, references, lam)
            else ["self-test: an altered answer passed the ROUGE-L check"])


# ---------------------------------------------------------------------------
# per-workload check suites
# ---------------------------------------------------------------------------


def check_serving(model, tokenizer, records: Sequence[Record]
                  ) -> Tuple[List[str], int]:
    """Reference forward, budgets and session reuse, plus the self-test;
    also returns the float-ambiguous draws tolerated."""
    from repro.nn.infer import InferenceEngine

    engine = InferenceEngine(model)
    eos = tokenizer.eos_id
    table = reference_table(engine, records, eos)
    problems, flips = completion_mismatches(engine, records, table, eos)
    problems += budget_mismatches(records)
    problems += session_mismatches(records)
    problems += self_test_completion(engine, records, table, eos,
                                     tokenizer.vocab_size)
    return problems, flips


def check_sweep(dep, candidates) -> Tuple[Dict[float, int], List[str]]:
    """Merged tensors vs the own SLERP, scores vs the own LCS, per distinct
    λ; returns the answer tokens each λ's candidate generates."""
    from repro.data import openroad_qa
    from repro.data.prompting import format_prompt
    from repro.eval.harness import (OPENROAD_INSTRUCTIONS, golden_reference,
                                    render_instruction)
    from repro.nn.transformer import TransformerLM
    from workloads import FAMILY, QA_MAX_NEW

    zoo, tok = dep.zoo, dep.tokenizer
    chip_model = zoo.chip_model(FAMILY)
    chip = chip_model.state_dict()
    instruct = zoo.get(FAMILY, "instruct").state_dict()
    triplets = openroad_qa.eval_triplets()
    rendered = [render_instruction(i) for i in OPENROAD_INSTRUCTIONS]
    prompts = [format_prompt(t.question, context=t.context, instructions=rendered)
               for t in triplets]
    references = [golden_reference(t.answer, OPENROAD_INSTRUCTIONS)
                  for t in triplets]
    tokens: Dict[float, int] = {}
    problems: List[str] = []
    for i, lam in enumerate(sorted({c.lam for c in candidates})):
        merged = dep.engine.merge(lam)
        problems += merge_mismatches(merged, chip, instruct, lam)
        model = TransformerLM(chip_model.config)
        model.load_state_dict(dict(merged))
        model.eval()
        answers = candidate_answers(model, tok, prompts, QA_MAX_NEW)
        tokens[lam] = sum(len(a) for a in answers)
        texts = [tok.decode(a) for a in answers]
        scores = [c.score for c in candidates if c.lam == lam]
        for score in scores:
            problems += score_mismatch(score, texts, references, lam)
        if i == 0:
            problems += self_test_merge(merged, chip, instruct, lam)
            problems += self_test_score(scores[0], texts, references, lam)
    return tokens, problems
