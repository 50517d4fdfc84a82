import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RUN_OUTPUT = "\n".join([
    "# git_sha: none (not a git checkout)",
    "# cpu: Some CPU",
    "# seed: 7",
    "# unscaled medians: setup_s 0.2, wall_s 0.7",
    "# passes: 3",
    "setup_s = 0.1 s",
    "# quality at seed 7: acceptance 0.9500, cv2 5.842, ESS/N 0.1388, "
    "log10 estimate 38.3693",
    json.dumps({"correct": True, "attempted": 23, "failed": 0,
                "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}),
])


def test_parse_run_reads_header_quality_and_result():
    got = bench_record.parse_run(RUN_OUTPUT)
    assert got["header"] == {"git_sha": "none (not a git checkout)",
                             "cpu": "Some CPU", "seed": "7"}
    assert got["quality"] == {"accept_frac": 0.95, "cv2": 5.842,
                              "ess_per_n": 0.1388, "log10_estimate": 38.3693}
    assert (got["correct"], got["attempted"], got["failed"]) == (True, 23, 0)
    assert got["metrics"] == {"setup_s": 0.1}


def test_summarize_counts_wins_and_applies_the_gain_and_bound_rules():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.0]
    faster = [p * 0.5 for p in parent]
    s = bench_record.summarize(parent, faster, "lower", 0.25)
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["gain"] and s["within_bound"] == "yes"
    assert s["parent"]["median"] == 1.0 and s["change"]["median"] == 0.5

    # ties count for neither side; nine tenths of the pairs is the least
    s = bench_record.summarize(parent, [p * 0.5 for p in parent[:9]] + parent[9:],
                               "lower", 0.25)
    assert s["wins"] == 9 and s["gain"]
    s = bench_record.summarize(parent, list(parent), "lower", 0.25)
    assert s["wins"] == 0 and not s["gain"] and s["within_bound"] == "yes"

    # higher-is-better metrics, and a drop past the bound
    s = bench_record.summarize(parent, [p * 0.7 for p in parent], "higher", 0.25)
    assert s["wins"] == 0 and not s["gain"] and s["within_bound"] == "no"
    s = bench_record.summarize(parent, [p * 0.8 for p in parent], "higher", 0.25)
    assert s["within_bound"] == "yes"

    # a parent spread wider than the bound leaves the metric unresolved,
    # unless every change run beats every parent run
    wide = [1.0, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0]
    s = bench_record.summarize(wide, list(wide), "lower", 0.25)
    assert s["within_bound"] == "unresolved"
    s = bench_record.summarize(wide, [0.5 * min(wide)] * 10, "lower", 0.25)
    assert s["within_bound"] == "yes"
    s = bench_record.summarize(wide, [0.5 * min(wide)] * 9 + [min(wide)], "lower", 0.25)
    assert s["within_bound"] == "unresolved"
    s = bench_record.summarize(wide, [2.0 * p for p in wide], "lower", 0.25)
    assert s["within_bound"] == "no"


def test_fewer_than_ten_pairs_is_a_usage_error():
    try:
        bench_record.main(["--parent", "HEAD", "--pairs", "9"])
    except SystemExit as e:
        assert e.code == 2
    else:
        raise AssertionError("--pairs 9 was accepted")


def test_missing_parent_is_a_usage_error_before_any_export(monkeypatch):
    # a default parent (HEAD's first parent) would measure only a change's
    # last commit, so the parent must be named
    touched = []
    monkeypatch.setattr(bench_record, "make_scratch", lambda base: touched.append(base))
    monkeypatch.setattr(bench_record, "export", lambda rev, dest: touched.append(rev))
    try:
        bench_record.main(["--change", "HEAD"])
    except SystemExit as e:
        assert e.code == 2
    else:
        raise AssertionError("a record without --parent was started")
    assert touched == []


def test_scratch_directory_is_created_when_missing(tmp_path):
    base = tmp_path / "not" / "there"
    scratch = bench_record.make_scratch(base)
    assert scratch.is_dir() and scratch.parent == base
    # an existing directory is reused as the parent of a fresh one
    again = bench_record.make_scratch(base)
    assert again.is_dir() and again.parent == base and again != scratch
