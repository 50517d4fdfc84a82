"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cptables  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_survey_generator_is_deterministic_per_seed():
    a = workloads.format_dl(workloads.survey_ranks(5, 1))
    assert a == workloads.format_dl(workloads.survey_ranks(5, 1))
    assert a != workloads.format_dl(workloads.survey_ranks(5, 2))
    assert a != workloads.format_dl(workloads.survey_ranks(6, 1))
    assert [workloads.pass_seed(5, k) for k in range(3)] == [5000, 5001, 5002]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_dl_parses_to_the_survey(seed):
    ranks = workloads.survey_ranks(seed)
    rel = cptables.parse_ucinet_dl_text(workloads.format_dl(ranks))
    assert rel.stack.shape == (18, 18, 10)
    assert (rel.stack.sum(axis=1) == 3).all()  # three picks per actor and relation
    for got, want in zip(rel.marginals().margins, workloads.survey_margins(ranks)):
        assert np.array_equal(got, want)


def test_desk_network_reference_count():
    m = cptables.parse_ucinet_dl_text(workloads.DESK_NETWORK_DL).marginals()
    assert cptables.exact_count(m) == workloads.DESK_NETWORK_COUNT


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == spans.PER_LAYER
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_tracer_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("cptables")}
    methods = dict(vars(cptables.reduction.TableState))
    tracer = spans.Tracer(ROOT)
    tracer.install()
    assert cptables.exact_count is not before["cptables"]["exact_count"]
    tracer.uninstall()
    for name, attrs in before.items():
        assert dict(vars(sys.modules[name])) == attrs
    assert dict(vars(cptables.reduction.TableState)) == methods


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cube-dense",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cube-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
