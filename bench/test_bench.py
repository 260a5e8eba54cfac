"""Tests of the benchmark itself: the exact-tie oracle and tiny smoke runs.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402


def mirrored_instance():
    """200 tokens: option B's evidence opens the text, option A's closes
    it, mirrored, so both best windows hold the same counts."""
    question, a, b = 1, 2, 3
    filler = list(range(100, 296))
    tokens = [b, question] + filler + [question, a]
    assert len(tokens) == 200
    return tokens, [question], [[a], [b], [4], [5]]


@pytest.mark.parametrize("method", ["sw", "sw_d"])
def test_oracle_picks_lower_index_on_mirrored_tie(method):
    tokens, stem, options = mirrored_instance()
    scores = oracle.score_options(oracle.TextOracle(tokens), stem, options, method)
    assert scores[0].exact == scores[1].exact
    assert scores[0].exact[0] == Fraction(3)
    assert oracle.oracle_pick(scores) == 0
    assert oracle.judge(scores, 0) is None
    assert oracle.judge(scores, 1) == oracle.TIE_ROUNDING


def test_oracle_orders_unequal_windows_exactly():
    # best windows: [1, 2] gives (3/2) * 2 = 3 for A, [3, 1] gives (3/2)^2 for B
    tokens = [9, 1, 2, 7, 8, 6, 3, 1, 3, 6]
    scores = oracle.score_options(oracle.TextOracle(tokens), [1], [[2], [3], [4], [5]], "sw")
    assert [s.exact[0] for s in scores[:2]] == [Fraction(3), Fraction(9, 4)]
    assert oracle.oracle_pick(scores) == 0
    assert oracle.judge(scores, 1) == oracle.WRONG_OPTION


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    result = _result(_run(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--tiny"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if workload != "corpus-lexical":
        assert result["failed"] == 0


def test_failures_and_layer_counts_do_not_depend_on_the_seed():
    runs = [_result(_run(["--workload", "corpus-lexical", "--seed", str(seed), "--seconds", "1",
                          "--trace", "1", "--tiny"])) for seed in (5, 6)]
    assert runs[0]["failed"] == runs[1]["failed"] > 0
    assert runs[0]["attempted"] == runs[1]["attempted"]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in ("count", "ratio")} for r in runs]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "test-web", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
