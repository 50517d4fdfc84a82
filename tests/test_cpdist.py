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
    log_esym_table,
)
from cptables.cpdist import UniformBlocks, cp_branches


def brute_esym(w, s):
    return math.fsum(math.prod(w[i] for i in sub) for sub in combinations(range(len(w)), s))


def random_weights(rng, size, zero_frac=0.25):
    w = rng.gamma(1.0, 2.0, size=size)
    w[rng.random(size) < zero_frac] = 0.0
    return w


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


def test_esym_handles_large_dynamic_range():
    w = np.array([1e-280, 1e280, 1.0, 3.0])
    # degree-2 sum is dominated by 1e280 * (1 + 3)
    assert math.isclose(log_esym_table(w, 2)[2], math.log(4.0) + 280 * math.log(10.0),
                        rel_tol=1e-12)
    assert log_esym_table(np.zeros(4), 2)[2] == -math.inf
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


def _raises_infeasible(call):
    try:
        call()
    except CPInfeasibleError:
        return True
    return False


def test_branches_score_every_subset_as_the_pmf_and_the_draw():
    # lengths 1..8 with about 30% zero weights, every size 0..length (so
    # size 0, the positive count and sizes past it), and a vector whose
    # R(3) underflows: the branches are exactly the positive subsets, each
    # scored as cp_log_pmf scores it and as the draw reports it, bit for
    # bit, and they raise CPInfeasibleError exactly where the draw does
    rng = np.random.default_rng(43)
    vectors = [random_weights(rng, int(rng.integers(1, 9)), zero_frac=0.3)
               for _ in range(60)]
    vectors.append(np.array([1.0, 0.0, 1e-200, 1e-200, 1e-200]))
    for w in vectors:
        n = len(w)
        for size in range(n + 1):
            seeds = rng.integers(2**32, size=5).tolist()
            draw_fails = _raises_infeasible(
                lambda: cp_draft_sample(w, size, np.random.default_rng(0)))
            assert _raises_infeasible(lambda: cp_branches(w, size)) == draw_fails
            if draw_fails:
                assert _raises_infeasible(
                    lambda: cp_log_pmf(w, size, range(size)))
                continue
            branches = dict(cp_branches(w, size))
            for sub in combinations(range(n), size):
                lp = cp_log_pmf(w, size, sub)
                if all(w[i] > 0 for i in sub):
                    assert branches.pop(sub) == lp
                else:
                    assert lp == -math.inf
            assert branches == {}
            scored = dict(cp_branches(w, size))
            for seed in seeds:
                s = cp_draft_sample(w, size, np.random.default_rng(seed))
                assert scored[s.chosen] == s.log_prob


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


@pytest.mark.parametrize("bad", [
    [1.0, -0.5, 2.0],
    np.array([1.0, -0.5, 2.0]),
    (1.0, -0.5, 2.0),
    [[1.0], [2.0]],
    [[1.0, 2.0]],
    np.ones((2, 2)),
], ids=["negative-list", "negative-array", "negative-tuple", "nested-list",
        "nested-row", "matrix"])
def test_draft_sample_rejects_bad_weights_of_every_input_type(bad):
    # the draw, the scorer and the table share one weight check
    for call in (lambda w: cp_draft_sample(w, 1, np.random.default_rng(0)),
                 lambda w: cp_log_pmf(w, 1, [0]),
                 lambda w: log_esym_table(w, 1)):
        with pytest.raises(ValueError):
            call(bad)


def test_draft_sample_gives_the_same_draw_for_every_input_type():
    rng = np.random.default_rng(41)
    for _ in range(200):
        w = random_weights(rng, int(rng.integers(1, 10)), zero_frac=0.3)
        size = int(rng.integers(0, np.count_nonzero(w) + 1))
        seed = int(rng.integers(2**32))
        forms = [w.tolist(), tuple(w.tolist()), w]
        draws = [cp_draft_sample(f, size, np.random.default_rng(seed))
                 for f in forms]
        assert all(d == draws[0] for d in draws)
        assert [type(x) for x in draws[0].chosen] == [int] * size
        s = draws[0]
        assert s.chosen == s[0] and s.log_prob == s[1]
        assert math.isclose(s.log_prob, cp_log_pmf(w, size, s.chosen),
                            rel_tol=1e-12, abs_tol=1e-12)
        # the scorer rebuilds the draw's table: the same bits
        assert cp_log_pmf(w, size, s.chosen) == s.log_prob
    # a list of ints is used as it is, and draws as its floats do
    ints, floats = [3, 0, 1, 2, 5], [3.0, 0.0, 1.0, 2.0, 5.0]
    for seed in range(20):
        assert (cp_draft_sample(ints, 2, np.random.default_rng(seed))
                == cp_draft_sample(floats, 2, np.random.default_rng(seed)))


def _row_table_draft_sample(w, size, rng):
    """cp_draft_sample as it was when it built its backward R table one
    row per item (one list comprehension over the degrees each); kept as
    the bit-for-bit reference of the column-wise table."""
    try:
        if type(w) is not list:
            w = [float(x) for x in w]
        negative = w and min(w) < 0.0
        pos = [j for j, x in enumerate(w) if x > 0.0]
    except TypeError:
        raise ValueError("weights must be a flat vector") from None
    size = int(size)
    if not (0 <= size <= len(w)):
        raise ValueError(f"size must be within 0..{len(w)}, got {size}")
    if negative:
        raise ValueError("weights must be nonnegative")
    k = len(pos)
    if k < size:
        raise CPInfeasibleError(f"only {k} positive weights, need {size}")
    if size == 0:
        return (), 0.0
    if size == k:
        return tuple(pos), 0.0

    wmax = max(w)
    ws = [w[j] / wmax for j in pos]
    row = [1.0] + [0.0] * size
    back = [row] * (k + 1)
    degrees = range(1, size + 1)
    for j in range(k - 1, -1, -1):
        wj = ws[j]
        row = [1.0] + [row[t] + wj * row[t - 1] for t in degrees]
        back[j] = row
    r_all = row[size]
    if not r_all > 0.0:
        raise CPInfeasibleError(f"R({size}, w) underflows to zero")

    u = rng.random(k)
    if type(u) is not list:
        u = u.tolist()
    chosen = []
    log_w = 0.0
    s = size
    for j in range(k):
        after = back[j + 1]
        wj = ws[j]
        if u[j] * row[s] < wj * after[s - 1]:
            chosen.append(pos[j])
            log_w += math.log(wj)
            s -= 1
            if s == 0:
                break
        row = after
    return tuple(chosen), min(log_w - math.log(r_all), 0.0)


def _outcome(draw, w, size, rng):
    try:
        chosen, log_prob = draw(w, size, rng)
    except (ValueError, CPInfeasibleError) as e:  # its type is the outcome
        return type(e)
    return chosen, log_prob.hex()


def test_draft_sample_matches_the_row_table_reference():
    # lengths 1..16, about 20% zero weights, every size 0..length; the
    # weights spread over 1e-3..1e3, or rounded to quarters for ties; a
    # numpy vector now and then, a list otherwise.  A Generator per case,
    # and one pair of UniformBlocks over the run, so both draws must also
    # take the same number of uniforms
    rng = np.random.default_rng(2024)
    ref_blocks = UniformBlocks(np.random.default_rng(5))
    new_blocks = UniformBlocks(np.random.default_rng(5))
    cases = 0
    while cases < 20_000:
        n = int(rng.integers(1, 17))
        if rng.random() < 0.3:
            w = rng.integers(1, 13, size=n) / 4.0
        else:
            w = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        w[rng.random(n) < 0.2] = 0.0
        w = w.tolist() if cases % 4 else w
        for size in range(n + 1):
            seed = int(rng.integers(2**32))
            want = _outcome(_row_table_draft_sample, w, size,
                            np.random.default_rng(seed))
            got = _outcome(cp_draft_sample, w, size,
                           np.random.default_rng(seed))
            assert got == want, (w, size, seed)
            want = _outcome(_row_table_draft_sample, w, size, ref_blocks)
            got = _outcome(cp_draft_sample, w, size, new_blocks)
            assert got == want, (w, size)
            cases += 1
    assert ref_blocks.random(1) == new_blocks.random(1)
