import math
from itertools import combinations
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from cptables import (
    CPInfeasibleError,
    cp_draft_sample,
    cp_log_pmf,
    log_esym,
    log_esym_table,
    odds,
    success_prob_3way,
    success_prob_multiway,
)


def brute_esym(w, s):
    return math.fsum(math.prod(w[i] for i in sub) for sub in combinations(range(len(w)), s))


def random_weights(rng, size, zero_frac=0.25):
    w = rng.gamma(1.0, 2.0, size=size)
    w[rng.random(size) < zero_frac] = 0.0
    return w


def test_success_prob_3way_value():
    # residuals 2 and 1 in crossing lines of lengths 4 and 3, no zeros:
    # p = 2*1 / (2*1 + (4-2)*(3-1)) = 2/6
    assert math.isclose(success_prob_3way(2, 1, 4, 3), 2.0 / 6.0)
    # one structural zero in the first crossing line shrinks its free room
    assert math.isclose(success_prob_3way(2, 1, 4, 3, g_r=1), 2.0 / (2.0 + 1 * 2))
    with pytest.raises(ValueError):
        success_prob_3way(0, 1, 4, 3)
    with pytest.raises(ValueError):
        success_prob_3way(3, 1, 4, 3, g_r=1)


def test_success_prob_multiway_matches_3way_and_2way():
    assert math.isclose(
        success_prob_multiway([2, 1], [4, 3]), success_prob_3way(2, 1, 4, 3)
    )
    # single factor is the two-way law r / (n - g)
    assert math.isclose(success_prob_multiway([2], [5], [1]), 2.0 / 4.0)
    with pytest.raises(ValueError):
        success_prob_multiway([], [])
    with pytest.raises(ValueError):
        success_prob_multiway([2, 0], [4, 3])


def test_odds():
    assert math.isclose(odds(0.25), 1.0 / 3.0)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            odds(bad)


def test_esym_against_brute_force_up_to_15_items():
    rng = np.random.default_rng(7)
    for size in range(1, 16):
        w = random_weights(rng, size)
        table = log_esym_table(w, size)
        for s in range(size + 1):
            truth = brute_esym(list(w), s)
            if truth == 0.0:
                assert table[s] == -math.inf
            else:
                assert math.isclose(table[s], math.log(truth), rel_tol=1e-10)
        assert log_esym(w, size) == table[size]


def test_esym_handles_large_dynamic_range():
    w = np.array([1e-280, 1e280, 1.0, 3.0])
    # degree-2 sum is dominated by 1e280 * (1 + 3)
    assert math.isclose(log_esym(w, 2), math.log(4.0) + 280 * math.log(10.0), rel_tol=1e-12)
    assert log_esym(np.zeros(4), 2) == -math.inf
    with pytest.raises(ValueError):
        log_esym_table([1.0], -1)


def test_pmf_normalizes_up_to_12_items():
    rng = np.random.default_rng(11)
    for size in range(2, 13):
        w = random_weights(rng, size)
        positive = [i for i in range(size) if w[i] > 0]
        for s in range(0, len(positive) + 1):
            total = math.fsum(
                math.exp(cp_log_pmf(w, s, sub))
                for sub in combinations(positive, s)
            )
            assert abs(total - 1.0) < 1e-10


def test_pmf_input_validation():
    w = [1.0, 2.0, 3.0]
    assert cp_log_pmf(w, 0, []) == 0.0
    with pytest.raises(ValueError):
        cp_log_pmf(w, 2, [0])
    with pytest.raises(ValueError):
        cp_log_pmf(w, 2, [1, 1])
    with pytest.raises(ValueError):
        cp_log_pmf(w, 1, [3])
    with pytest.raises(CPInfeasibleError):
        cp_log_pmf([0.0, 0.0, 1.0], 2, [0, 1])


def test_pmf_certain_subset_has_probability_one():
    # only one size-2 subset has positive weight
    assert cp_log_pmf([5.0, 0.0, 2.0], 2, [0, 2]) == 0.0


def test_draft_sample_validation_and_degenerate_sizes():
    rng = np.random.default_rng(0)
    s = cp_draft_sample([1.0, 2.0], 0, rng)
    assert s.chosen == () and s.log_prob == 0.0
    s = cp_draft_sample([1.0, 0.0, 2.0], 2, rng)
    assert s.chosen == (0, 2) and s.log_prob == 0.0
    with pytest.raises(ValueError):
        cp_draft_sample([1.0], 2, rng)
    with pytest.raises(CPInfeasibleError):
        cp_draft_sample([1.0, 0.0], 2, rng)


def test_draft_sample_never_picks_zero_weights_and_reports_exact_pmf():
    rng = np.random.default_rng(5)
    w = np.array([0.7, 0.0, 1.8, 0.4, 0.0, 2.2])
    for _ in range(200):
        s = cp_draft_sample(w, 3, rng)
        assert 1 not in s.chosen and 4 not in s.chosen
        assert math.isclose(s.log_prob, cp_log_pmf(w, 3, s.chosen), rel_tol=1e-12)


def test_drafting_matches_pmf_in_total_variation():
    # empirical law of the sequential sampler vs the exact pmf, well under
    # the 0.01 TV sampling noise at this draw count
    rng = np.random.default_rng(31)
    w = np.array([0.3, 1.1, 0.0, 2.4, 0.8, 1.7, 0.05, 3.0])
    size = 3
    draws = 100_000
    counts = {}
    for _ in range(draws):
        s = cp_draft_sample(w, size, rng)
        counts[s.chosen] = counts.get(s.chosen, 0) + 1
    positive = [i for i in range(len(w)) if w[i] > 0]
    tv = 0.0
    for sub in combinations(positive, size):
        p = math.exp(cp_log_pmf(w, size, sub))
        tv += abs(counts.get(tuple(sub), 0) / draws - p)
    assert tv / 2.0 < 0.01


def test_draft_sample_log_prob_matches_pmf_on_random_vectors():
    rng = np.random.default_rng(23)
    for _ in range(300):
        k = int(rng.integers(1, 13))
        w = random_weights(rng, k, zero_frac=0.3)
        npos = int(np.count_nonzero(w))
        size = int(rng.integers(0, npos + 1))
        s = cp_draft_sample(w, size, rng)
        assert len(s.chosen) == size and all(w[i] > 0 for i in s.chosen)
        assert abs(s.log_prob - cp_log_pmf(w, size, s.chosen)) <= 1e-12


def test_draft_sample_takes_every_positive_item_when_size_is_their_count():
    rng = np.random.default_rng(29)
    for k in range(1, 12):
        w = random_weights(rng, k, zero_frac=0.4)
        positive = tuple(int(i) for i in np.flatnonzero(w))
        s = cp_draft_sample(w, len(positive), rng)
        assert s.chosen == positive and s.log_prob == 0.0


@pytest.mark.parametrize("size", [1, 6])
def test_sequential_sampler_matches_pmf_at_extreme_sizes(size):
    # sizes 1 and k-1 of a 7-item vector; 0.01 TV as in the test above
    rng = np.random.default_rng(37 + size)
    w = np.array([0.2, 1.3, 0.6, 2.9, 0.9, 4.1, 0.35])
    draws = 100_000
    counts = {}
    for _ in range(draws):
        s = cp_draft_sample(w, size, rng)
        counts[s.chosen] = counts.get(s.chosen, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(sub, 0) / draws - math.exp(cp_log_pmf(w, size, sub)))
        for sub in combinations(range(len(w)), size)
    )
    assert tv < 0.01


def test_cp_distribution_demo_runs():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "cp_distribution.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
