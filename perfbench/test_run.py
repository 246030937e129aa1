"""The benchmark's own test: every workload at a tiny size, traced and not.

    python3 -m pytest perfbench/test_run.py -q

It checks that each run prints every metric of BENCHMARK.json with its unit,
that no operation fails, that tracing leaves the generated tokens unchanged,
that the traced split points the expected way, and that the benchmark refuses
to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(last)


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    workload = request.param
    return workload, parse(run_bench(workload, 0)), parse(run_bench(workload, 1))


def test_every_metric_is_printed_with_its_unit(runs):
    _, (_, untraced), (_, traced) = runs
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_no_operation_fails(runs):
    _, (info0, untraced), (info1, traced) = runs
    for info, result in ((info0, untraced), (info1, traced)):
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert info["failed_frac"] == 0


def test_tracing_changes_no_output_token(runs):
    _, (info0, _), (info1, _) = runs
    assert info0["output_sha256"] == info1["output_sha256"]


def test_traced_split_points_the_measured_way(runs):
    workload, _, (info, traced) = runs
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    share = info["decode_self_share"]
    plain = share.get("decoder.plain_beam_search", {})
    das = share.get("decoder.das_beam_search", {})
    assert not any(name.startswith("discriminator.") for name in plain)
    if plain:
        children = {k: v for k, v in plain.items() if k != "decoder.plain_beam_search"}
        assert max(children, key=children.get) == "generator.next_logprobs"
    if das:
        children = {k: v for k, v in das.items() if k != "decoder.das_beam_search"}
        assert max(children, key=children.get) == "discriminator.extract_features"
    if workload == "decode":
        assert metrics["decoder.eps_clamps"] == 0
    if workload == "sweep":
        assert metrics["decoder.eps_clamps"] > 0
    if workload == "pipeline":
        assert metrics["cli.startup_s"] > 0
        assert metrics["discriminator.train_discriminator.examples"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("decode", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
