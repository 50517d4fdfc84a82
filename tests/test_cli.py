import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from cptables import (
    BinaryTable,
    exact_count,
    fixture,
    format_marginals,
    marginals_of,
    parse_marginal_text,
    parse_ucinet_dl_text,
)
from cptables import cli
from cptables.cli import EXACT_BUDGET, main

INFEASIBLE_TEXT = "dims: 2 2 2\nsi: 0 2 2 0\nsj: 1 1 1 1\nsk: 2 0 0 2\n"
INVALID_TEXT = "dims: 2 2 2\nsi: 1 1 1 1\nsj: 1 1 1 1\nsk: 2 1 1 1\n"

SAMPLE_DL = """DL N=4 NM=2
FORMAT = FULLMATRIX DIAGONAL PRESENT
LEVEL LABELS:
advice
friendship
DATA:
0 1 2 0
3 0 0 1
0 1 0 1
1 0 2 0
0 1 0 0
1 0 1 0
0 0 0 1
0 1 1 0
"""


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_estimate_fixture(capsys):
    rc = main(["estimate", "ex5_6", "--samples", "400", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "estimate:" in out and "cv^2:" in out and "seed: 3" in out
    rec = _last_json(out)
    assert rec["n"] == 400 and rec["accepted"] == 400
    assert rec["proposal"] == "classic" and rec["seed"] == 3
    assert rec["ci_estimate_log10"] is None and rec["bootstrap_b"] is None
    est = 10.0 ** rec["estimate_log10"]
    assert abs(est - 28.0) / 28.0 < 0.2
    assert rec["estimate_display"].endswith("e+01")


def test_estimate_record_reproducible_modulo_runtime(capsys):
    argv = ["estimate", "ex5_9", "--samples", "300", "--seed", "8",
            "--bootstrap", "80"]
    rc1 = main(argv)
    rec1 = _last_json(capsys.readouterr().out)
    rc2 = main(argv)
    rec2 = _last_json(capsys.readouterr().out)
    assert rc1 == rc2 == 0
    rec1.pop("runtime_ms")
    rec2.pop("runtime_ms")
    assert rec1 == rec2
    assert rec1["ci_estimate_log10"] is not None
    assert rec1["ci_cv2"] is not None and rec1["alpha"] == 0.05
    lo, hi = rec1["ci_estimate_log10"]
    assert lo <= rec1["estimate_log10"] <= hi


def test_estimate_from_marginal_file_and_options(capsys, tmp_path):
    path = tmp_path / "m.margins"
    path.write_text(format_marginals(fixture("ex5_3")))
    rc = main(["estimate", str(path), "--samples", "200", "--proposal", "guided",
               "--layer-axis", "1", "--workers", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = _last_json(out)
    assert rec["proposal"] == "guided"
    assert rec["accepted"] == 200


def test_estimate_record_carries_the_layer_axis(capsys):
    # the axis changes every weight, so the record must name it to be
    # reproducible from itself
    for axis in (0, 2):
        rc = main(["estimate", "ex5_9", "--samples", "50", "--seed", "4",
                   "--layer-axis", str(axis)])
        rec = _last_json(capsys.readouterr().out)
        assert rc == 0
        assert rec["layer_axis"] == axis
        assert rec["seed"] == 4 and rec["proposal"] == "classic"


def test_estimate_all_rejections_exits_infeasible(capsys, tmp_path):
    path = tmp_path / "impossible.margins"
    path.write_text(INFEASIBLE_TEXT)
    rc = main(["estimate", str(path), "--samples", "50"])
    out = capsys.readouterr().out
    assert rc == 1
    rec = _last_json(out)
    assert rec["accepted"] == 0
    assert rec["estimate_log10"] is None
    assert rec["estimate_display"] == "0"


def test_sample_prints_tables(capsys):
    rc = main(["sample", "ex5_2", "--count", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("table 1 (log q =") == 1
    assert "table 2 (log q =" in out
    assert "accepted 2 of" in out


def test_sample_budget_exhaustion(capsys, tmp_path):
    path = tmp_path / "impossible.margins"
    path.write_text(INFEASIBLE_TEXT)
    rc = main(["sample", str(path), "--count", "1", "--max-attempts", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "accepted 0 of 10" in captured.out
    assert "budget exhausted" in captured.err


def test_exact_count_and_enumerate(capsys):
    rc = main(["exact", "ex5_6"])
    assert rc == 0
    assert "exact count: 28" in capsys.readouterr().out
    rc = main(["exact", "ex5_6", "--enumerate", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("table ") == 3 and "enumerated: 3" in out


def test_exact_infeasible_margins_print_zero_and_exit_one(capsys, tmp_path):
    path = tmp_path / "impossible.margins"
    path.write_text(INFEASIBLE_TEXT)
    rc = main(["exact", str(path)])
    assert rc == 1
    assert "exact count: 0" in capsys.readouterr().out
    rc = main(["exact", str(path), "--enumerate", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "enumerated: 0" in out and "table " not in out


def test_exact_budget_exceeded_exits_one(capsys):
    rc = main(["exact", "ex5_6", "--budget", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "budget" in captured.err


def test_exact_count_budget_defaults_to_a_finite_node_limit(capsys, monkeypatch):
    assert isinstance(EXACT_BUDGET, int) and 0 < EXACT_BUDGET < math.inf
    monkeypatch.setattr(cli, "EXACT_BUDGET", 10)
    rc = main(["exact", "ex5_6"])
    assert rc == 1 and "budget" in capsys.readouterr().err
    # enumeration keeps no memo and is not capped unless --budget is given
    rc = main(["exact", "ex5_6", "--enumerate", "100"])
    out = capsys.readouterr().out
    assert rc == 0 and "enumerated: 28" in out
    rc = main(["exact", "ex5_6", "--enumerate", "100", "--budget", "10"])
    assert rc == 1 and "budget" in capsys.readouterr().err


def test_ingest_ucinet_writes_margins(capsys, tmp_path):
    dl = tmp_path / "net.dl"
    dl.write_text(SAMPLE_DL)
    out_path = tmp_path / "net.margins"
    rc = main(["ingest-ucinet", str(dl), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4x4x2 relation stack" in out
    m = parse_marginal_text(out_path.read_text())
    want = parse_ucinet_dl_text(SAMPLE_DL).marginals()
    for a in range(3):
        assert np.array_equal(m.margins[a], want.margins[a])
    assert "advice, friendship" in out_path.read_text()
    # the written margins feed straight back into the estimator
    rc = main(["estimate", str(out_path), "--samples", "100"])
    assert rc == 0
    rec = _last_json(capsys.readouterr().out)
    assert rec["accepted"] > 0
    truth = exact_count(want)
    assert abs(10.0 ** rec["estimate_log10"] - truth) / truth < 0.5


def test_fixtures_list_and_show(capsys, tmp_path):
    rc = main(["fixtures", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("ex5_1", "ex5_13"):
        assert name in out
    assert "semimagic-<m>-<s>" in out

    rc = main(["fixtures", "show", "ex5_2"])
    out = capsys.readouterr().out
    assert rc == 0
    shown = parse_marginal_text(out)
    for a in range(3):
        assert np.array_equal(shown.margins[a], fixture("ex5_2").margins[a])

    dest = tmp_path / "sm.margins"
    rc = main(["fixtures", "show", "semimagic-4-2", "--out", str(dest)])
    assert rc == 0
    assert parse_marginal_text(dest.read_text()).total == 32
    capsys.readouterr()


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["estimate", "nosuch_fixture"]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.margins"
    bad.write_text("dims: 2 2\nsi: 1 1\n")
    assert main(["exact", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["ingest-ucinet", str(tmp_path / "absent.dl"), "--out",
                 str(tmp_path / "o.margins")]) == 2
    capsys.readouterr()

    notdl = tmp_path / "notdl.txt"
    notdl.write_text("hello\n")
    assert main(["ingest-ucinet", str(notdl), "--out",
                 str(tmp_path / "o.margins")]) == 2
    assert "missing DL header" in capsys.readouterr().err

    assert main(["fixtures", "show", "semimagic-x-1"]) == 2
    capsys.readouterr()


def test_invalid_margins_exit_one(capsys, tmp_path):
    path = tmp_path / "invalid.margins"
    path.write_text(INVALID_TEXT)
    assert main(["exact", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["estimate", str(path)]) == 1
    capsys.readouterr()


def test_sample_log_q_matches_labels(capsys):
    rc = main(["sample", "ex5_8", "--count", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    # the zero-variance set: both tables drawn at probability 1/2
    line = [l for l in out.splitlines() if l.startswith("table 1")][0]
    q = float(line.split("log q = ")[1].rstrip("):"))
    assert abs(q - math.log(0.5)) < 1e-5  # printed at 6 decimal places


def test_ingest_ucinet_bad_header_value_exits_two_without_traceback(tmp_path):
    dl = tmp_path / "bad.dl"
    dl.write_text("DL N=3NM=1\nDATA:\n0 1 0\n1 0 1\n0 1 0\n")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cptables", "ingest-ucinet", str(dl),
         "--out", str(tmp_path / "o.margins")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "N=3NM" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["estimate", "ex5_6", "--samples", "0"],
    ["estimate", "ex5_6", "--workers", "0"],
    ["estimate", "ex5_6", "--seed", "-1"],
    ["estimate", "ex5_6", "--layer-axis", "5"],
    ["estimate", "ex5_6", "--layer-axis", "-1"],
    ["estimate", "ex5_6", "--bootstrap", "-1"],
    ["estimate", "ex5_6", "--alpha", "2"],
    ["sample", "ex5_6", "--layer-axis", "3"],
    ["sample", "ex5_6", "--count", "0"],
    ["exact", "ex5_6", "--enumerate", "0"],
    ["sample", "ex5_6", "--max-attempts", "0"],
    ["exact", "ex5_6", "--budget", "0"],
    ["exact", "ex5_6", "--enumerate", "5", "--budget", "-1"],
    ["estimate", "semimagic-1-1"],
    ["estimate", "semimagic-3-5"],
    ["fixtures", "show", "semimagic-2-9"],
], ids=" ".join)
def test_out_of_range_options_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_layer_axis_is_ignored_below_and_above_three_ways(capsys, tmp_path):
    cells = (np.random.default_rng(0).random((3, 4)) < 0.5).astype(int)
    path = tmp_path / "two.margins"
    path.write_text(format_marginals(marginals_of(BinaryTable.from_array(cells))))
    assert main(["estimate", str(path), "--samples", "20", "--layer-axis", "5"]) == 0
    assert main(["sample", str(path), "--layer-axis", "3"]) == 0
    capsys.readouterr()


_NEGATIVE_AXIS = "error: --layer-axis must be >= 0, got -1\n"
_THREE_WAY_AXIS = "error: --layer-axis must be 0, 1 or 2 for a three-way table, got {}\n"


@pytest.mark.parametrize("command", [
    ["estimate", "--samples", "20", "--workers", "1"],
    ["estimate", "--samples", "20", "--workers", "2"],
    ["sample"],
], ids=" ".join)
@pytest.mark.parametrize("source, axis, err", [
    ("two-way", -1, _NEGATIVE_AXIS),
    ("two-way", 3, ""),
    ("two-way", 5, ""),
    ("ex5_6", -1, _NEGATIVE_AXIS),
    ("ex5_6", 3, _THREE_WAY_AXIS.format(3)),
    ("ex5_6", 5, _THREE_WAY_AXIS.format(5)),
    ("four-way", -1, _NEGATIVE_AXIS),
    ("four-way", 3, ""),
    ("four-way", 5, ""),
])
def test_layer_axis_messages(capsys, tmp_path, command, source, axis, err):
    # the exact stderr and exit code of each layer axis on each d
    shapes = {"two-way": (3, 4), "four-way": (2, 2, 3, 2)}
    if source in shapes:
        cells = (np.random.default_rng(0).random(shapes[source]) < 0.5).astype(int)
        path = tmp_path / f"{source}.margins"
        path.write_text(format_marginals(marginals_of(BinaryTable.from_array(cells))))
        source = str(path)
    argv = [command[0], source, "--layer-axis", str(axis), *command[1:]]
    assert main(argv) == (2 if err else 0)
    captured = capsys.readouterr()
    assert captured.err == err
    if err:
        assert captured.out == ""


def test_out_of_range_option_exits_two_without_traceback():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cptables", "estimate", "ex5_6", "--samples", "0"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: --samples must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, prefix", [
    (["estimate", "semimagic-1-1"], "error: input 'semimagic-1-1' is not a file; "),
    (["fixtures", "show", "semimagic-1-1"], "error: bad semimagic fixture name"),
], ids=" ".join)
def test_bad_fixture_name_reports_the_reason(capsys, argv, prefix):
    # no file was read, so no line number; the message is the fixture's
    # reason, printed as text rather than as a KeyError's repr
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "cube side must be >= 2" in err
    assert "line 1" not in err and '"' not in err


def _cli_without_traceback(argv):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cptables", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["estimate", "{dir}"],
    ["fixtures", "show", "ex5_1", "--out", "{dir}"],
    ["estimate", "{latin1}"],
    ["ingest-ucinet", "{latin1}", "--out", "{dir}/o.margins"],
], ids=["estimate-directory", "fixtures-out-directory", "estimate-not-utf8",
        "ingest-ucinet-not-utf8"])
def test_unreadable_input_exits_two_without_traceback(tmp_path, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# café\n".encode("latin-1"))
    proc = _cli_without_traceback(
        [a.format(dir=tmp_path, latin1=latin1) for a in argv])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["estimate", "ex5_6", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["estimate", "ex5_6", "--workers", "0"], "--workers must be >= 1, got 0"),
    (["estimate", "ex5_6", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["estimate", "ex5_6", "--bootstrap", "0"], "--bootstrap must be >= 1, got 0"),
    (["sample", "ex5_6", "--count", "0"], "--count must be >= 1, got 0"),
    (["sample", "ex5_6", "--seed", "-2"], "--seed must be >= 0, got -2"),
    (["sample", "ex5_6", "--max-attempts", "0"],
     "--max-attempts must be >= 1, got 0"),
    (["exact", "ex5_6", "--enumerate", "0"], "--enumerate must be >= 1, got 0"),
    (["exact", "ex5_6", "--budget", "-1"], "--budget must be >= 1, got -1"),
    # two options out of range: each command reports the same one as ever
    (["sample", "ex5_6", "--seed", "-1", "--count", "0"],
     "--count must be >= 1, got 0"),
    (["estimate", "ex5_6", "--samples", "0", "--workers", "0"],
     "--samples must be >= 1, got 0"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_option_minimum_messages(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_exact_enumerate_prints_tables_in_the_sample_layout(capsys):
    assert main(["exact", "ex5_2", "--enumerate", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "table 1:\n"
        "  layer 1:\n    1 1 0 1\n    0 1 1 1\n    1 1 1 0\n"
        "  layer 2:\n    0 1 1 1\n    0 1 1 1\n    1 1 1 1\n"
        "  layer 3:\n    1 0 1 0\n    1 1 0 0\n    0 1 1 1\n"
        "table 2:\n  layer 1:\n"
    )
    assert out.endswith("enumerated: 2\n") and "\n\n" not in out


@pytest.mark.parametrize("command", ["estimate", "sample"])
def test_proposal_help_names_where_the_presets_are_documented(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "proposal preset (see cptables.layers.Walk)" in help_text
    assert "cptables.sis" not in help_text
