"""Workload inputs, passes and output checks of the cptables benchmark.

Each workload is a closed loop: one benchmark process runs passes back to
back, each pass a fixed list of operations a user would run.  The only
concurrency is the `--workers 2` pool of the network-survey estimate.

cube-dense      `cptables estimate semimagic-7-3` (classic proposal, one
                worker, bootstrap).  Dense 7x7x7 lines and ~93% acceptance
                put most of the time in the CP draw: the mechanism side of
                a cpdist change.  A desk check on semimagic-4-1 (exact count
                and proposal-tree expansion) keeps exact_s and expand_s
                measured here too.
network-survey  the paper's two-command workflow on sociometric surveys
                generated from the seed: `ingest-ucinet`, then `estimate
                --workers 2 --bootstrap`.  Passes cycle through SURVEYS
                surveys, so that a run's median does not hang on how hard
                one survey happens to be.  Long sparse lines, a structural-
                zero diagonal and ~36% acceptance exercise line weights,
                wasted proposals and the process pool.  A fixed 7-actor desk
                network is counted and expanded exactly.
desk-validate   exact counts and bootstrapped estimates of every bundled
                fixture, exact_count(semimagic-5-1) and the proposal-tree
                expansion of semimagic-4-2.  Backtracking propagation
                dominates and CP draws are a small share: the bypass side
                for cpdist, the mechanism side for reduction, estimator and
                expand.

The seed fixes every input: the surveys, and the sampling seed of each pass
(pass k of seed s samples with seed 1000 * s + k).  Reference counts are
constants here, so a check never trusts the code it checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cptables
from cptables import cli

import calibrate

# Timed operations go through the package namespace (cptables.f, cli.main)
# so that a traced pass reaches the tracer's wrappers.

EXACT_COUNTS = {
    "ex5_1": 12, "ex5_2": 3, "ex5_3": 5, "ex5_4": 8, "ex5_5": 8,
    "ex5_6": 28, "ex5_7": 4, "ex5_8": 2, "ex5_9": 12, "ex5_10": 9,
    "ex5_11": 5, "ex5_12": 2, "ex5_13": 5,
    "semimagic-4-1": 576, "semimagic-4-2": 51678, "semimagic-5-1": 161280,
}

# 7 actors, 3 relations, 2 ranked picks each: 310 tables share its margins
DESK_NETWORK_DL = """DL N=7 NM=3
FORMAT = FULLMATRIX DIAGONAL PRESENT
DATA:
0 0 1 0 0 2 0
0 0 1 2 0 0 0
1 0 0 2 0 0 0
0 0 0 0 1 2 0
0 2 0 0 0 1 0
2 0 0 1 0 0 0
0 2 0 1 0 0 0
0 0 1 2 0 0 0
0 0 0 2 1 0 0
0 0 0 0 2 0 1
0 1 0 0 2 0 0
0 0 0 0 0 1 2
0 2 1 0 0 0 0
2 1 0 0 0 0 0
0 0 0 1 2 0 0
0 0 0 0 0 1 2
0 2 0 0 0 1 0
0 1 0 0 0 2 0
0 0 1 0 0 2 0
2 0 1 0 0 0 0
0 1 0 0 2 0 0
"""
DESK_NETWORK_COUNT = 310

MASS_TOL = 1e-9  # total probability of a proposal tree
Z_TOL = 6.0  # desk estimates: standard errors a correct sampler stays within
PREFIX = 8  # proposals in the worker-invariance and table re-checks
SURVEYS = 4  # network-survey inputs per seed


def pass_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def survey_ranks(seed: int, index: int = 0, actors: int = 18,
                 relations: int = 10, picks: int = 3) -> np.ndarray:
    """relations x actors x actors nomination ranks of survey `index` of a
    seed: every actor ranks `picks` others 1..picks on every relation; no
    self-nominations."""
    rng = np.random.default_rng([seed, index])
    ranks = np.zeros((relations, actors, actors), dtype=np.int64)
    for r in range(relations):
        for i in range(actors):
            others = [j for j in range(actors) if j != i]
            chosen = rng.choice(len(others), size=picks, replace=False)
            for rank, pick in enumerate(chosen, start=1):
                ranks[r, i, others[pick]] = rank
    return ranks


def format_dl(ranks: np.ndarray) -> str:
    """A UCINET DL FULLMATRIX stack, diagonal present."""
    relations, actors, _ = ranks.shape
    lines = [f"DL N={actors} NM={relations}",
             "FORMAT = FULLMATRIX DIAGONAL PRESENT", "DATA:"]
    for matrix in ranks:
        lines.extend(" ".join(str(int(v)) for v in row) for row in matrix)
    return "\n".join(lines) + "\n"


def survey_margins(ranks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The margins ingestion must produce, summed here with numpy: the
    stack is actor x actor x relation, so axis a sums out index a."""
    stack = np.moveaxis(ranks != 0, 0, 2).astype(np.int64)
    return tuple(stack.sum(axis=a) for a in range(3))


class Checks:
    """Tally of checked operations; each failure is reported on stderr by
    the caller through `failures`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    """Timings of one pass (seconds at reference speed), its proposal
    count, and every output, so that a traced pass can be compared with its
    untraced twin."""

    estimate_s: float = 0.0
    samples: int = 0
    exact_s: float = 0.0
    expand_s: float = 0.0
    other_s: float = 0.0
    outputs: list = field(default_factory=list)
    quality: dict | None = None
    unscaled_s: float = 0.0  # wall_s as the clock read it

    @property
    def wall_s(self) -> float:
        return self.estimate_s + self.exact_s + self.expand_s + self.other_s


def _timed(res: PassResult, fn, *args, workers=1, **kwargs):
    """Run one operation; return its output and its seconds at reference
    speed (calibrate.timed)."""
    out, clock_s, ref_s = calibrate.timed(fn, *args, workers=workers, **kwargs)
    res.unscaled_s += clock_s
    return out, ref_s


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _quality(n: int, accepted: int, cv2, log10_estimate) -> dict:
    cv2 = float(cv2) if cv2 is not None else math.inf
    return {
        "accept_frac": accepted / n,
        "cv2": cv2,
        "ess_per_n": accepted / (1.0 + cv2) / n,
        "log10_estimate": log10_estimate,
    }


def _cli_estimate(res: PassResult, checks: Checks, argv: list[str], samples: int,
                  workers=1):
    (rc, out), dt = _timed(res, _cli, argv, workers=workers)
    res.estimate_s += dt
    res.samples += samples
    record = None
    if checks.expect(rc == 0, f"{' '.join(argv)}: exit code {rc}"):
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
    if checks.expect(isinstance(record, dict) and record.get("n") == samples
                     and record.get("accepted", 0) > 0
                     and math.isfinite(record.get("estimate_log10") or math.nan),
                     f"{' '.join(argv)}: bad JSON record"):
        record.pop("runtime_ms")
        res.outputs.append(record)
        if res.quality is None:
            res.quality = _quality(record["n"], record["accepted"],
                                   record["cv2"], record["estimate_log10"])


def _expansion_digest(exp) -> str:
    h = hashlib.sha256()
    for key in sorted(exp.tables):
        h.update(key)
        h.update(repr(exp.tables[key]).encode())
    h.update(repr((exp.reject_mass, exp.leaves)).encode())
    return h.hexdigest()


def _exact(res: PassResult, checks: Checks, m, want: int, what: str):
    count, dt = _timed(res, cptables.exact_count, m)
    res.exact_s += dt
    res.outputs.append(count)
    checks.expect(count == want, f"exact_count({what}) = {count}, want {want}")


def _expand(res: PassResult, checks: Checks, m, want: int, what: str):
    exp, dt = _timed(res, cptables.expand_paths, m)
    res.expand_s += dt
    res.outputs.append(_expansion_digest(exp))
    checks.expect(abs(exp.total_mass - 1.0) <= MASS_TOL,
                  f"expand_paths({what}) total mass {exp.total_mass!r}")
    checks.expect(len(exp.tables) == want,
                  f"expand_paths({what}) reached {len(exp.tables)} tables, want {want}")


class Workload:
    """One benchmark workload.  The constructor makes the inputs (untimed),
    `main_input` is what the set-up probe builds from `probe_arg`, `verify`
    runs the once-per-run checks and `run_pass` one timed pass."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def probe_arg(self) -> str:
        return ""

    @staticmethod
    def main_input(arg: str):
        """Build the workload's inputs; return the margin set it samples."""
        raise NotImplementedError

    def sampled_margins(self):
        return self.main_input(self.probe_arg())

    def verify(self, checks: Checks) -> None:
        """Worker invariance on a short prefix, and an independent re-check
        of the margins and weights of the tables that prefix accepts."""
        m = self.sampled_margins()
        seed = pass_seed(self.seed, 0)
        lw1, lw2 = (cptables.run_sis(m, cptables.SisConfig(PREFIX, seed, workers=w))
                    for w in (1, 2))
        checks.expect(lw1.tobytes() == lw2.tobytes(),
                      f"{self.name}: run_sis weights differ between 1 and 2 workers")
        accepted = [i for i in range(PREFIX) if np.isfinite(lw1[i])]
        if not accepted:
            return
        outs, attempts = cptables.draw_accepted_tables(
            m, len(accepted), seed=seed, max_attempts=PREFIX)
        checks.expect(attempts == accepted[-1] + 1 and len(outs) == len(accepted),
                      f"{self.name}: draw_accepted_tables disagrees with run_sis")
        for i, o in zip(accepted, outs):
            got = cptables.marginals_of(o.table)
            checks.expect(
                all(np.array_equal(g, w) for g, w in zip(got.margins, m.margins))
                and -o.log_q == lw1[i],
                f"{self.name}: sampled table {i} has wrong margins or weight",
            )

    def run_pass(self, k: int, checks: Checks) -> PassResult:
        raise NotImplementedError


class CubeDense(Workload):
    name = "cube-dense"
    why = "dense 7x7x7 semimagic cube, ~93% acceptance: the CP draw dominates"
    fixture = "semimagic-7-3"
    samples = 400
    bootstrap = 1000

    @staticmethod
    def main_input(arg: str):
        return cptables.fixture(CubeDense.fixture)

    def run_pass(self, k: int, checks: Checks) -> PassResult:
        res = PassResult()
        _cli_estimate(res, checks, [
            "estimate", self.fixture, "--samples", str(self.samples),
            "--seed", str(pass_seed(self.seed, k)),
            "--bootstrap", str(self.bootstrap),
        ], self.samples)
        desk = cptables.fixture("semimagic-4-1")
        _exact(res, checks, desk, EXACT_COUNTS["semimagic-4-1"], "semimagic-4-1")
        _expand(res, checks, desk, EXACT_COUNTS["semimagic-4-1"], "semimagic-4-1")
        return res


class NetworkSurvey(Workload):
    name = "network-survey"
    why = ("18-actor 10-relation survey via ingest-ucinet and estimate with 2 "
           "workers: sparse lines, ~36% acceptance, the process pool")
    samples = 100
    bootstrap = 1000
    workers = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ranks = [survey_ranks(seed, i) for i in range(SURVEYS)]
        self.dl_paths = [workdir / f"survey{i}.dl" for i in range(SURVEYS)]
        for path, ranks in zip(self.dl_paths, self.ranks):
            path.write_text(format_dl(ranks))
        self.desk = cptables.parse_ucinet_dl_text(DESK_NETWORK_DL).marginals()

    def probe_arg(self) -> str:
        return str(self.dl_paths[0])

    @staticmethod
    def main_input(arg: str):
        return cptables.parse_ucinet_dl_text(Path(arg).read_text()).marginals()

    def verify(self, checks: Checks) -> None:
        for dl_path, ranks in zip(self.dl_paths, self.ranks):
            out = dl_path.with_suffix(".margins")
            rc, _ = _cli(["ingest-ucinet", str(dl_path), "--out", str(out)])
            if checks.expect(rc == 0, f"ingest-ucinet {dl_path.name}: exit code {rc}"):
                got = cptables.parse_marginal_file(out).margins
                checks.expect(
                    all(np.array_equal(g, w) for g, w in zip(got, survey_margins(ranks))),
                    f"ingest-ucinet {dl_path.name}: margins differ from the survey's")
        super().verify(checks)

    def run_pass(self, k: int, checks: Checks) -> PassResult:
        res = PassResult()
        dl_path = self.dl_paths[k % SURVEYS]
        margins_path = dl_path.with_suffix(".margins")
        argv = ["ingest-ucinet", str(dl_path), "--out", str(margins_path)]
        (rc, _), dt = _timed(res, _cli, argv)
        res.other_s += dt
        checks.expect(rc == 0, f"{' '.join(argv)}: exit code {rc}")
        _cli_estimate(res, checks, [
            "estimate", str(margins_path), "--samples", str(self.samples),
            "--seed", str(pass_seed(self.seed, k)), "--workers", str(self.workers),
            "--bootstrap", str(self.bootstrap),
        ], self.samples, workers=self.workers)
        _exact(res, checks, self.desk, DESK_NETWORK_COUNT, "desk network")
        _expand(res, checks, self.desk, DESK_NETWORK_COUNT, "desk network")
        return res


class DeskValidate(Workload):
    name = "desk-validate"
    why = ("exact counts, bootstrapped estimates and a proposal-tree expansion "
           "at desk scale: backtracking propagation dominates")
    estimated = cptables.fixture_names() + ["semimagic-4-1"]
    samples = 150
    bootstrap = 2000

    @staticmethod
    def main_input(arg: str):
        names = DeskValidate.estimated + ["semimagic-5-1", "semimagic-4-2"]
        return {n: cptables.fixture(n) for n in names}["semimagic-4-1"]

    def run_pass(self, k: int, checks: Checks) -> PassResult:
        res = PassResult()
        seed = pass_seed(self.seed, k)
        for name in self.estimated:
            m = cptables.fixture(name)
            want = EXACT_COUNTS[name]
            _exact(res, checks, m, want, name)
            rep, dt = _timed(res, cptables.estimate_table_count, m, self.samples,
                             seed, bootstrap_b=self.bootstrap)
            res.estimate_s += dt
            res.samples += self.samples
            res.outputs.append((rep.estimate_log, rep.cv2, rep.ci_estimate_log,
                                rep.ci_cv2))
            checks.expect(self.within_tolerance(rep, want),
                          f"estimate({name}, seed {seed}) = "
                          f"{math.exp(rep.estimate_log):.4g}, exact {want}")
            if name == "semimagic-4-1":
                res.quality = _quality(rep.n, rep.accepted, rep.cv2,
                                       rep.estimate_log / math.log(10.0))
        _exact(res, checks, cptables.fixture("semimagic-5-1"),
               EXACT_COUNTS["semimagic-5-1"], "semimagic-5-1")
        _expand(res, checks, cptables.fixture("semimagic-4-2"),
                EXACT_COUNTS["semimagic-4-2"], "semimagic-4-2")
        return res

    @staticmethod
    def within_tolerance(rep, exact: int) -> bool:
        """|estimate / exact - 1| within Z_TOL standard errors of the mean
        weight, the variance taken from the run's own acceptance and cv^2:
        Var(Y)/E(Y)^2 = (1 + cv^2) / acceptance - 1."""
        if rep.accepted == 0:
            return False
        rel_var = (1.0 + rep.cv2) / rep.acceptance_rate - 1.0
        tol = Z_TOL * math.sqrt(max(rel_var, 0.0) / rep.n) + 1e-9
        return abs(math.exp(rep.estimate_log) / exact - 1.0) <= tol


WORKLOADS = {w.name: w for w in (CubeDense, NetworkSurvey, DeskValidate)}
