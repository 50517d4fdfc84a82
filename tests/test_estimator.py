import math

import numpy as np
import pytest

from cptables import (
    EstimateReport,
    bootstrap_ci,
    cv_squared,
    estimate_log_count,
    estimate_table_count,
    fixture,
    format_count_from_log,
    summarize,
)
from cptables.estimator import percentile_nearest_rank

NEG_INF = -math.inf


def test_estimate_log_count_is_the_log_mean():
    assert abs(estimate_log_count([math.log(2), math.log(4)]) - math.log(3)) < 1e-12
    # rejections enter the mean as zeros
    got = estimate_log_count([math.log(4), NEG_INF])
    assert abs(got - math.log(2)) < 1e-12
    assert estimate_log_count([NEG_INF, NEG_INF]) == NEG_INF
    with pytest.raises(ValueError):
        estimate_log_count([])


def test_cv_squared_known_values_and_scale_invariance():
    assert cv_squared([math.log(5)] * 8) == 0.0
    # weights 2 and 4: mean 3, var (ddof=1) 2, cv^2 = 2/9
    assert abs(cv_squared([math.log(2), math.log(4)]) - 2.0 / 9.0) < 1e-12
    base = [math.log(2), NEG_INF, math.log(4), NEG_INF]
    assert abs(cv_squared(base) - 2.0 / 9.0) < 1e-12  # zeros are excluded
    shifted = [lw + 500.0 for lw in (math.log(2), math.log(4))]
    assert abs(cv_squared(shifted) - 2.0 / 9.0) < 1e-10
    assert cv_squared([math.log(7), NEG_INF]) == 0.0
    with pytest.raises(ValueError):
        cv_squared([NEG_INF, NEG_INF])


def test_percentile_nearest_rank_semantics():
    vals = np.array([10.0, 20.0, 30.0, 40.0])
    assert percentile_nearest_rank(vals, 0.5) == 20.0  # ceil(2) -> 2nd
    assert percentile_nearest_rank(vals, 0.51) == 30.0
    assert percentile_nearest_rank(vals, 0.025) == 10.0
    assert percentile_nearest_rank(vals, 0.975) == 40.0
    assert percentile_nearest_rank(vals, 0.0) == 10.0  # clamped to rank 1
    assert percentile_nearest_rank(vals, 1.0) == 40.0
    big = np.arange(1.0, 1001.0)
    assert percentile_nearest_rank(big, 0.025) == 25.0
    assert percentile_nearest_rank(big, 0.975) == 975.0


def test_bootstrap_ci_deterministic_given_generator_seed():
    lw = np.log(np.arange(1.0, 40.0))
    lw[::5] = NEG_INF
    a = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(42))
    b = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(42))
    c = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(43))
    assert a == b
    assert a != c
    assert a.estimate_log[0] <= a.estimate_log[1]
    assert a.cv2[0] <= a.cv2[1]


def test_bootstrap_ci_pinned_to_the_per_replication_resampler():
    # values recorded from the one-replication-per-call resampler; 600
    # replications of an odd-length stream with rejections span several
    # resampling blocks, the last one partial
    rng = np.random.default_rng(2024)
    lw = rng.normal(10.0, 1.5, size=151)
    lw[rng.random(151) < 0.3] = NEG_INF
    ci = bootstrap_ci(lw, replications=600, rng=np.random.default_rng(99))
    assert ci.estimate_log == (10.214072172338618, 10.967887032249358)
    assert ci.cv2 == (2.212452915203058, 5.204072614761692)


def test_bootstrap_ci_degenerate_on_a_constant_stream():
    lw = np.full(50, math.log(3.0))
    ci = bootstrap_ci(lw, replications=100, rng=np.random.default_rng(0))
    assert ci.estimate_log[0] == ci.estimate_log[1]
    assert abs(ci.estimate_log[0] - math.log(3.0)) < 1e-12
    assert ci.cv2 == (0.0, 0.0)


def test_bootstrap_ci_brackets_the_point_estimate():
    rng = np.random.default_rng(7)
    lw = np.log(rng.uniform(1.0, 9.0, size=400))
    point = estimate_log_count(lw)
    ci = bootstrap_ci(lw, replications=500, rng=np.random.default_rng(1))
    assert ci.estimate_log[0] <= point <= ci.estimate_log[1]
    cv = cv_squared(lw)
    assert ci.cv2[0] <= cv <= ci.cv2[1]


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], replications=10)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=0)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=10, alpha=0.0)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=10, alpha=1.0)


def test_format_count_from_log():
    assert format_count_from_log(math.log(12.0)) == "1.200000e+01"
    assert format_count_from_log(NEG_INF) == "0"
    assert format_count_from_log(math.log(2.0)) == "2.000000e+00"
    assert format_count_from_log(144.0 * math.log(10.0)) == "1.000000e+144"
    # mantissa that rounds up to 10 must carry into the exponent
    assert format_count_from_log(math.log(9.9999996e5)) == "1.000000e+06"
    assert format_count_from_log(math.log(0.5)) == "5.000000e-01"


def test_summarize_fields():
    lw = [math.log(2), NEG_INF, math.log(4), math.log(6)]
    r = summarize(lw)
    assert isinstance(r, EstimateReport)
    assert r.n == 4 and r.accepted == 3
    assert abs(r.estimate_log - math.log(3.0)) < 1e-12
    assert r.cv2 is not None and r.cv2 > 0.0
    assert r.ci_estimate_log is None and r.ci_cv2 is None
    assert r.alpha is None and r.bootstrap_b is None
    assert r.acceptance_rate == 0.75
    assert r.estimate_display == "3.000000e+00"

    rb = summarize(lw, bootstrap_b=50, rng=np.random.default_rng(3))
    assert rb.bootstrap_b == 50 and rb.alpha == 0.05
    assert rb.ci_estimate_log is not None and rb.ci_cv2 is not None

    dead = summarize([NEG_INF, NEG_INF], bootstrap_b=50)
    assert dead.accepted == 0 and dead.estimate_log == NEG_INF
    assert dead.cv2 is None and dead.ci_estimate_log is None
    assert dead.estimate_display == "0"


def test_estimate_table_count_reports_are_reproducible():
    m = fixture("ex5_6")
    a = estimate_table_count(m, 400, seed=5, bootstrap_b=100)
    b = estimate_table_count(m, 400, seed=5, bootstrap_b=100)
    c = estimate_table_count(m, 400, seed=6, bootstrap_b=100)
    assert a == b
    assert a != c
    assert a.n == 400
    est = math.exp(a.estimate_log)
    assert abs(est - 28.0) / 28.0 < 0.15
    assert a.ci_estimate_log[0] <= a.estimate_log <= a.ci_estimate_log[1]
