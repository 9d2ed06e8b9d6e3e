"""Smoke test of the benchmark itself: every workload, untraced and traced,
runs to its end at a tiny size and passes its output checks.

    python -m pytest perfbench/test_smoke.py -q

The first run trains the checkpoint cache under ``.bench_build`` (about a
minute on two cores); later runs take seconds per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = ([m[:2] for m in LAYER_METRICS] if trace else END_TO_END)
    assert dict(names) == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    sys.path.insert(0, str(HERE.parent / "src"))
    from harness import Record
    from workloads import JobSource, make_inputs
    from repro.data.vocab import build_tokenizer

    tok = build_tokenizer()
    for name in ("qa-prefix", "gen-sampled", "chat-fleet"):
        def jobs(seed):
            source = JobSource(make_inputs(name, seed, tok, 208), tok, "t", 2)
            out = []
            for user in range(4):
                job = source(user, None)
                out.append((tuple(job.prompt_ids), sorted(job.params.items())))
                prev = Record(user, job, 0.0, token_ids=(5, 6))
                job = source(user, prev)
                out.append((tuple(job.prompt_ids), sorted(job.params.items())))
            return out
        assert jobs(7) == jobs(7)
        assert jobs(7) != jobs(8)


def test_bare_directory_fails_fast(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "qa-prefix", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(LAYER_METRICS)


def test_checks_catch_altered_sampled_tokens():
    sys.path.insert(0, str(HERE.parent / "src"))
    import checks
    from harness import Job, Record
    from repro.nn.infer import InferenceEngine
    from repro.pipelines.model_zoo import ModelZoo
    from repro.serve import InProcessServer, SamplingParams
    from run import CACHE
    from workloads import FAMILY, GEN_SAMPLING, LAM, make_inputs

    _run("--workload", "gen-sampled", "--seed", "1", "--seconds", "0.1",
         "--trace", "0", "--smoke")  # builds the checkpoint cache if cold
    zoo = ModelZoo(CACHE)
    model, tok = zoo.merged(FAMILY, lam=LAM), zoo.tokenizer
    inputs = make_inputs("gen-sampled", 1, tok, model.config.max_seq_len)
    server = InProcessServer(model, tok)
    jobs = [Job(inputs.prompts[i], dict(GEN_SAMPLING, seed=i, stop_on_eos=False,
                                        max_new_tokens=inputs.budget))
            for i in range(16)]
    ids = [server.submit(j.prompt_ids, params=SamplingParams(**j.params))
           for j in jobs]
    server.run_until_idle()
    records = [Record(0, j, 0.0, token_ids=tuple(server.result(i).token_ids))
               for j, i in zip(jobs, ids)]
    engine = InferenceEngine(model)
    table = checks.reference_table(engine, records, tok.eos_id)
    assert not checks.completion_mismatches(engine, records, table, tok.eos_id)[0]
    for rec in records:
        tokens = list(rec.token_ids)
        tokens[len(tokens) // 2] = (tokens[len(tokens) // 2] + 1) % tok.vocab_size
        altered = Record(0, rec.job, 0.0, token_ids=tuple(tokens))
        assert checks.completion_mismatches(engine, [altered], table,
                                            tok.eos_id)[0]
