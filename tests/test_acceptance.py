"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test prints one `ACCEPTANCE <k> PASS|FAIL <detail>` line (run pytest
with -s to watch them stream) and then asserts.  These are end-to-end
checks on the released behavior; the per-module suites cover the units.
"""

import json
import math
import time
from itertools import combinations

import numpy as np

from cptables import (
    SisConfig,
    bootstrap_ci,
    estimate_log_count,
    estimate_table_count,
    exact_count,
    expand_paths,
    fixture,
    fixture_names,
    parse_marginal_text,
    run_sis,
    semimagic_margins,
)
from cptables.cli import main as cli_main
from cptables.cpdist import _columns, cp_draft_sample, cp_log_pmf
from cptables.estimator import cv_squared

COUNTS = {
    "ex5_1": 12,
    "ex5_2": 3,
    "ex5_3": 5,
    "ex5_4": 8,
    "ex5_5": 8,
    "ex5_6": 28,
    "ex5_7": 4,
    "ex5_8": 2,
    "ex5_9": 12,
    "ex5_10": 9,
    "ex5_11": 5,
    "ex5_12": 2,
    "ex5_13": 5,
}

EXACT_TIME_LIMIT_S = 60.0       # criterion 1: per-fixture exact count
LOG_TOL = 1e-9                  # criteria 2, 3, 8: "exact" log-space matches
CV2_ZERO_TOL = 1e-12            # criterion 2: zero-variance streams
MEAN_REL_TOL = 0.10             # criterion 4: 10-run mean accuracy
HARD_ACC_BAND = (0.80, 0.92)    # criterion 5: the two hard margin sets
EASY_ACC_MIN = 0.995            # criterion 5: every other margin set
LATIN_REL_TOL = 0.05            # criterion 6: N=10000 estimates
LATIN4_TIME_S = 60.0            # criterion 6: order-4 sampling budget
LATIN5_ORACLE_TIME_S = 600.0    # criterion 6: order-5 exact-count budget
ESYM_REL_TOL = 1e-10            # criterion 7: symmetric-function recurrence
PMF_NORM_TOL = 1e-10            # criterion 7: pmf normalization
TV_LIMIT = 0.01                 # criterion 7: CP sampler vs pmf, 1e5 draws
COVERAGE_MIN = 85               # criterion 9: CI hits out of 100 runs


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {k}: {detail}"


def test_acceptance_01_exact_counts_on_all_bundled_sets():
    worst = 0.0
    for name in fixture_names():
        t0 = time.perf_counter()
        got = exact_count(fixture(name))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if got != COUNTS[name] or dt >= EXACT_TIME_LIMIT_S:
            _report(1, False, f"{name}: count {got} (want {COUNTS[name]}) in {dt:.2f}s")
    _report(1, True, f"13/13 exact counts match, slowest {worst:.3f}s")


def test_acceptance_02_zero_variance_sets_estimate_exactly_two():
    for name in ("ex5_8", "ex5_12"):
        m = fixture(name)
        for seed in (0, 1, 2):
            lw = run_sis(m, SisConfig(samples=1000, seed=seed))
            err = abs(estimate_log_count(lw) - math.log(2.0))
            cv2 = cv_squared(lw)
            if err > LOG_TOL or cv2 > CV2_ZERO_TOL or not np.all(np.isfinite(lw)):
                _report(2, False, f"{name} seed {seed}: log err {err:.2e}, cv^2 {cv2:.2e}")
    _report(2, True, "ex5_8 and ex5_12 estimate exactly 2 with cv^2 = 0 at N=1000")


def test_acceptance_03_semimagic_cube_exact_at_n_100():
    m = semimagic_margins(3, 1)
    for seed in (0, 1, 2):
        lw = run_sis(m, SisConfig(samples=100, seed=seed))
        rejected = int(np.sum(~np.isfinite(lw)))
        err = abs(estimate_log_count(lw) - math.log(12.0))
        if rejected or err > LOG_TOL:
            _report(3, False, f"seed {seed}: {rejected} rejections, log err {err:.2e}")
    _report(3, True, "N=100 estimates 12 exactly with zero rejections (3 seeds)")


def test_acceptance_04_ten_run_means_within_ten_percent():
    worst_name, worst_rel = "", 0.0
    for name in fixture_names():
        if name == "ex5_1":
            continue
        m = fixture(name)
        ests = []
        for seed in range(10):
            lw = run_sis(m, SisConfig(samples=1000, seed=seed))
            ests.append(math.exp(estimate_log_count(lw)))
        rel = abs(np.mean(ests) - COUNTS[name]) / COUNTS[name]
        if rel > worst_rel:
            worst_name, worst_rel = name, rel
        if rel > MEAN_REL_TOL:
            _report(4, False, f"{name}: mean {np.mean(ests):.3f} vs {COUNTS[name]} ({100*rel:.1f}%)")
    _report(4, True, f"12/12 ten-run means within 10%, worst {worst_name} at {100*worst_rel:.2f}%")


def test_acceptance_05_acceptance_rates_in_band():
    rates = {}
    for name in fixture_names():
        lw = run_sis(fixture(name), SisConfig(samples=1000, seed=0))
        rates[name] = float(np.mean(np.isfinite(lw)))
    for name, rate in rates.items():
        if name in ("ex5_9", "ex5_13"):
            ok = HARD_ACC_BAND[0] <= rate <= HARD_ACC_BAND[1]
        else:
            ok = rate >= EASY_ACC_MIN
        if not ok:
            _report(5, False, f"{name}: acceptance {100*rate:.1f}%")
    _report(
        5,
        True,
        f"ex5_9 {100*rates['ex5_9']:.1f}% and ex5_13 {100*rates['ex5_13']:.1f}% "
        f"in [80%, 92%]; the rest >= 99.5%",
    )


def test_acceptance_06_latin_square_family():
    t0 = time.perf_counter()
    c4 = exact_count(semimagic_margins(4, 1))
    lw4 = run_sis(semimagic_margins(4, 1), SisConfig(samples=10000, seed=0))
    est4 = math.exp(estimate_log_count(lw4))
    t4 = time.perf_counter() - t0

    t0 = time.perf_counter()
    c5 = exact_count(semimagic_margins(5, 1))
    t5_oracle = time.perf_counter() - t0
    lw5 = run_sis(semimagic_margins(5, 1), SisConfig(samples=10000, seed=0))
    est5 = math.exp(estimate_log_count(lw5))

    ok = (
        c4 == 576
        and c5 == 161280
        and abs(est4 - 576) / 576 < LATIN_REL_TOL
        and abs(est5 - 161280) / 161280 < LATIN_REL_TOL
        and t4 < LATIN4_TIME_S
        and t5_oracle < LATIN5_ORACLE_TIME_S
    )
    _report(
        6,
        ok,
        f"counts {c4}/{c5}; N=10000 estimates {est4:.1f}/{est5:.0f}; "
        f"order-4 block {t4:.1f}s, order-5 count {t5_oracle:.1f}s",
    )


def test_acceptance_07_conditional_poisson_distribution():
    rng = np.random.default_rng(2718)

    # elementary symmetric recurrence vs direct enumeration up to 15 items
    worst_esym = 0.0
    for l in range(1, 16):
        w = rng.uniform(0.05, 20.0, size=l)
        table = _columns(w.tolist(), l)
        for r in range(l + 1):
            brute = sum(math.prod(w[list(c)]) for c in combinations(range(l), r))
            rel = abs(table[r][-1] - brute) / brute
            worst_esym = max(worst_esym, rel)
    if worst_esym > ESYM_REL_TOL:
        _report(7, False, f"esym relative error {worst_esym:.2e}")

    # pmf sums to one over every fixed-size support, zero weights included
    worst_norm = 0.0
    w12 = rng.uniform(0.1, 10.0, size=12)
    for size in (1, 3, 6, 9, 12):
        total = sum(
            math.exp(cp_log_pmf(w12, size, c))
            for c in combinations(range(12), size)
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
    w8 = rng.uniform(0.1, 10.0, size=8)
    w8[1] = w8[6] = 0.0
    positive = [i for i in range(8) if w8[i] > 0]
    total = sum(math.exp(cp_log_pmf(w8, 4, c)) for c in combinations(positive, 4))
    worst_norm = max(worst_norm, abs(total - 1.0))
    if worst_norm > PMF_NORM_TOL:
        _report(7, False, f"pmf normalization off by {worst_norm:.2e}")

    # the sequential sampler reproduces the pmf: total variation at 1e5 draws
    w = rng.uniform(0.2, 5.0, size=8)
    draws = 100_000
    counts = {}
    for _ in range(draws):
        s = cp_draft_sample(w, 3, rng)
        counts[s.chosen] = counts.get(s.chosen, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(c, 0) / draws - math.exp(cp_log_pmf(w, 3, c)))
        for c in combinations(range(8), 3)
    )
    ok = tv < TV_LIMIT
    _report(
        7,
        ok,
        f"esym err {worst_esym:.1e}; pmf norm err {worst_norm:.1e}; "
        f"sampler TV {tv:.4f} at 1e5 draws",
    )


def test_acceptance_08_expansion_identity_on_small_cubes():
    cases = [
        ("ex5_1", fixture("ex5_1")),
        ("semimagic-3-0", semimagic_margins(3, 0)),
        ("semimagic-3-1", semimagic_margins(3, 1)),
        ("semimagic-3-2", semimagic_margins(3, 2)),
        ("semimagic-3-3", semimagic_margins(3, 3)),
    ]
    for name, m in cases:
        truth = exact_count(m)
        for proposal in ("classic", "guided"):
            px = expand_paths(m, proposal=proposal)
            mass_err = abs(px.total_mass - 1.0)
            mean_err = abs(px.weight_mean() - truth)
            if mass_err > LOG_TOL or mean_err > LOG_TOL:
                _report(
                    8,
                    False,
                    f"{name}/{proposal}: mass err {mass_err:.2e}, "
                    f"weight mean {px.weight_mean()} vs {truth}",
                )
    _report(8, True, "path expansion: mass 1 and weight mean = exact count on all 3x3x3 sets")


def test_acceptance_09_bootstrap_intervals():
    m = fixture("ex5_6")

    a = estimate_table_count(m, 1000, seed=3, bootstrap_b=1000)
    b = estimate_table_count(m, 1000, seed=3, bootstrap_b=1000)
    if a != b:
        _report(9, False, "same seed produced different bootstrap reports")

    const = np.full(200, math.log(2.0))
    ci = bootstrap_ci(const, replications=500, rng=np.random.default_rng(0))
    if ci.estimate_log[0] != ci.estimate_log[1] or ci.cv2 != (0.0, 0.0):
        _report(9, False, f"constant stream gave non-degenerate CI {ci}")

    target = math.log(28.0)
    covered = 0
    for seed in range(100):
        r = estimate_table_count(m, 1000, seed=seed, bootstrap_b=1000)
        lo, hi = r.ci_estimate_log
        covered += int(lo <= target <= hi)
    ok = covered >= COVERAGE_MIN
    _report(9, ok, f"95% CI covered the true count 28 in {covered}/100 runs (need >= {COVERAGE_MIN})")


def _synthetic_nomination_stack(n: int, relations: int, picks: int) -> str:
    rng = np.random.default_rng(20240815)
    lines = [
        f"DL N={n} NM={relations}",
        "FORMAT = FULLMATRIX DIAGONAL PRESENT",
        "DATA:",
    ]
    for _ in range(relations):
        for i in range(n):
            row = [0] * n
            others = [j for j in range(n) if j != i]
            for rank, pick in enumerate(rng.choice(len(others), size=picks, replace=False), start=1):
                row[others[pick]] = rank
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_acceptance_10_network_ingestion_workflow(tmp_path, capsys):
    dl = tmp_path / "survey.dl"
    dl.write_text(_synthetic_nomination_stack(18, 10, 3))
    margins_path = tmp_path / "survey.margins"

    rc = cli_main(["ingest-ucinet", str(dl), "--out", str(margins_path)])
    capsys.readouterr()
    if rc != 0:
        _report(10, False, f"ingest exited {rc}")
    m = parse_marginal_text(margins_path.read_text())
    if m.dims.sizes != (18, 18, 10) or m.total != 540:
        _report(10, False, f"ingested dims {m.dims.sizes}, total {m.total}")

    rc = cli_main([
        "estimate", str(margins_path), "--samples", "1000", "--seed", "0",
        "--bootstrap", "200",
    ])
    out = capsys.readouterr().out
    if rc != 0:
        _report(10, False, f"estimate exited {rc}")
    rec = json.loads(out.strip().splitlines()[-1])
    ok = (
        rec["n"] == 1000
        and rec["accepted"] > 0
        and rec["estimate_log10"] is not None
        and rec["ci_estimate_log10"] is not None
    )
    _report(
        10,
        ok,
        f"18x18x10 stack ingested; N=1000 run accepted {rec['accepted']} "
        f"and estimated 1e{rec['estimate_log10']:.1f} tables",
    )
