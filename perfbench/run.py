"""The cptables benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cube-dense --seed 1 --seconds 36 --trace 0

Run from the root of a cptables checkout; the package is imported from its
`src/`.  The workloads are described in workloads.py.  With `--trace 0` the
run measures the end-to-end metrics with nothing instrumented:

  setup_s        median over fresh processes of importing cptables,
                 building the workload's inputs and one warm-up proposal
  wall_s         median over passes of the pass's timed operations
  samples_per_s  median over passes of proposals per second of estimate-call
                 wall time, bootstrap included
  exact_s        median over passes of the exact_count calls' time
  expand_s       median over passes of the expand_paths calls' time
  peak_rss_mb    this process's peak RSS plus its largest child's

Times are reported at reference speed (calibrate.py): each timed operation
is scaled by how long a fixed reference loop takes around and during it.
The unscaled medians are printed above the result line.

With `--trace 1` it runs passes in pairs, untraced then traced with the
same seed, checks that tracing changed no output, and prints the per-layer
metrics of spans.py and the tracing overhead (traced over untraced time at
reference speed, minus 1).  Per-layer seconds are clock seconds; they
include the reference-loop slices taken during operations, about 1%.

Every run also checks the outputs (workloads.Checks); the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
failed_frac is printed above it, not among the metrics, because it is zero
when all is well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("cube-dense", "network-survey", "desk-validate")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("exact_s", "s"),
    ("expand_s", "s"),
    ("peak_rss_mb", "MB"),
]


def load_package():
    """Import cptables from this checkout's src/ and nowhere else."""
    init = SRC / "cptables" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a cptables checkout")
    sys.path.insert(0, str(SRC))
    import cptables

    if Path(cptables.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cptables from {cptables.__file__}")
    return cptables


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cptables").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_header(args) -> None:
    import numpy
    import scipy

    fields = [
        ("git_sha", git_sha()),
        ("src_sha256", src_digest()),
        ("nproc", os.cpu_count()),
        ("cpu", cpu_model()),
        ("python", platform.python_version()),
        ("numpy", numpy.__version__),
        ("scipy", scipy.__version__),
        ("python_O", "on" if sys.flags.optimize else "off"),
        ("traced", bool(args.trace)),
        ("workload", args.workload),
        ("seed", args.seed),
        ("seconds", args.seconds),
    ]
    for key, val in fields:
        print(f"# {key}: {val}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def probe_setup(wl) -> tuple[float, float]:
    """(set-up seconds, reference-loop seconds) from one fresh process."""
    cmd = [sys.executable, str(HERE / "probe.py"), wl.name, str(SRC), wl.probe_arg()]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         check=False, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: set-up probe exited with {out.returncode}")
    setup_s, ref_s = out.stdout.split()[-2:]
    return float(setup_s), float(ref_s)


def guarded_pass(wl, k: int, checks):
    """One pass; an exception counts as one failed operation."""
    try:
        return wl.run_pass(k, checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, f"{wl.name} pass {k} raised")
        return None


def check_trace_identity(wl, checks, spool: Path) -> None:
    """Tracing must not change the weights: run the verify prefix with and
    without the tracer, on one worker and on two."""
    from cptables import SisConfig, run_sis
    from spans import Tracer
    from workloads import PREFIX, pass_seed

    m = wl.sampled_margins()
    cfgs = [SisConfig(samples=PREFIX, seed=pass_seed(wl.seed, 0), workers=w)
            for w in (1, 2)]
    plain = [run_sis(m, c).tobytes() for c in cfgs]
    tracer = Tracer(spool)
    tracer.install()
    try:
        traced = [run_sis(m, c).tobytes() for c in cfgs]
    finally:
        tracer.uninstall()
    checks.expect(plain == traced, f"{wl.name}: tracing changed run_sis weights")


def measure(args, workdir: Path):
    from calibrate import REF_S
    from cptables import SisConfig, run_sis
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[args.workload](args.seed, workdir)
    checks = Checks()
    probes = [probe_setup(wl) for _ in range(0 if args.trace else SETUP_PROBES)]
    run_sis(wl.sampled_margins(), SisConfig(samples=1, seed=0))  # warm caches
    wl.verify(checks)
    spool = workdir / "spool"
    spool.mkdir()
    if args.trace:
        check_trace_identity(wl, checks, spool)
        tracer = Tracer(spool)

    results = []
    walls = [0.0, 0.0]  # untraced and traced seconds of the paired passes
    elapsed = []
    k = 0
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        res = guarded_pass(wl, k, checks)
        if args.trace and res is not None:
            tracer.install()
            try:
                twin = guarded_pass(wl, k, checks)
            finally:
                tracer.uninstall()
            if twin is not None:
                checks.expect(twin.outputs == res.outputs,
                              f"{wl.name} pass {k}: tracing changed the outputs")
                walls[0] += res.wall_s
                walls[1] += twin.wall_s
                tracer.passes += 1
        if res is not None:
            results.append(res)
        elapsed.append(perf_counter() - t_pass)
        k += 1
        if perf_counter() - t_start + statistics.median(elapsed) > args.seconds:
            break
    if not results:
        raise SystemExit(f"error: every pass of {wl.name} failed")

    quality = next((r.quality for r in results if r.quality), None)
    if quality is None:  # every estimate failed its check; already counted
        quality = dict.fromkeys(("accept_frac", "cv2", "ess_per_n", "log10_estimate"), 0.0)
    if args.trace:
        if tracer.passes == 0:
            raise SystemExit(f"error: every traced pass of {wl.name} failed")
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{wl.name}-seed{args.seed}.json")
        values = tracer.metrics(walls[1] / walls[0] - 1.0, quality)
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    else:
        med = statistics.median
        print(f"# unscaled medians: setup_s {med(s for s, _ in probes):.6g}, "
              f"wall_s {med(r.unscaled_s for r in results):.6g}")
        metrics = {
            "setup_s": (med(s * REF_S / ref for s, ref in probes), "s"),
            "wall_s": (med(r.wall_s for r in results), "s"),
            "samples_per_s": (med(r.samples / r.estimate_s for r in results), "1/s"),
            "exact_s": (med(r.exact_s for r in results), "s"),
            "expand_s": (med(r.expand_s for r in results), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    report(wl, args, checks, results, quality, metrics,
           tracer if args.trace else None)


def report(wl, args, checks, results, quality, metrics, tracer) -> None:
    from spans import tail_percentile

    for what in checks.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print(f"# passes: {len(results)}"
          + (f" untraced + {tracer.passes} traced" if tracer else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if tracer:
        for name in ("cpdist.draw", "sis.proposal"):
            n = len(tracer.latency.get(name, ()))
            print(f"# {name} latency: p50 and p{tail_percentile(n):g} "
                  f"(reported as p99) over {n} calls")
    print(f"failed_frac = {checks.failed / checks.attempted:.6g} 1 "
          f"({checks.failed} failed of {checks.attempted} checked operations)")
    print("# quality at seed {}: acceptance {:.4f}, cv2 {:.4g}, ESS/N {:.4f}, "
          "log10 estimate {:.4f}".format(
              args.seed, quality["accept_frac"], quality["cv2"],
              quality["ess_per_n"], quality["log10_estimate"]))
    print("# cv2 swings by a factor of about two across seeds on the sampled "
          "workloads, so ESS per second does not repeat to within a tenth and "
          "is not a gated metric")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_package()
    print_header(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
