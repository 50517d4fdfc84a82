#!/usr/bin/env python3
"""Write a committed benchmark record: paired perfbench runs of two commits.

    python3 tools/bench_record.py --parent REV [--change REV] [--pairs 10]
                                  [--seed 2001] [--scratch DIR] [--out PATH]

Both commits are exported with `git archive` into a fresh temporary
directory (under `--scratch DIR` if given; DIR is created when missing), so
the runs see exactly the committed files.  For each workload of BENCHMARK.json, pair k runs
`perfbench/run.py --trace 0 --seed <seed + k>` once on each side, for the
run length BENCHMARK.json sets, the parent first in even pairs and the
change first in odd ones.  At least ten pairs are run.  The record, BENCH_<short change
sha>.json in the repository root unless `--out` says otherwise, holds per
workload and end-to-end metric:

  parent / change   median, lower and upper quartile (inclusive method)
  wins              pairs in which the change is better, ties counting for
                    neither; `pairs` is their number
  gain              wins in at least nine tenths of the pairs and medians
                    apart by more than the parent's quartile spread
  within_bound      "no" when the change's median is worse than the
                    parent's by more than the bound BENCHMARK.json fixes
                    for the metric; otherwise "unresolved" when the
                    parent's quartile spread is wider than that bound,
                    relative to its median, and some change run reads no
                    better than some parent run; otherwise "yes"

plus every run's values, its correct/failed counts, its quality line
(acceptance, cv^2, ESS/N, log10 estimate) and the first run's header on
each side (CPU, nproc, Python and numpy versions).  A markdown table of the
medians is printed at the end.  The change defaults to HEAD.  The parent
has no default: a change made of several commits is measured against the
commit it starts from, which is not in general HEAD's first parent.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HEADER_RE = re.compile(r"# (\w+): (.*)$")
QUALITY_RE = re.compile(
    r"# quality at seed \S+: acceptance (\S+), cv2 (\S+), ESS/N (\S+), "
    r"log10 estimate (\S+)"
)
QUALITY_KEYS = ("accept_frac", "cv2", "ess_per_n", "log10_estimate")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked into dest."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def parse_run(stdout: str) -> dict:
    """Header, quality and result of one perfbench/run.py output."""
    lines = stdout.splitlines()
    header = {}
    for line in lines:  # the "# key: value" lines that open the output
        m = HEADER_RE.match(line)
        if not m:
            break
        header[m[1]] = m[2]
    quality = next((dict(zip(QUALITY_KEYS, map(float, m.groups())))
                    for m in map(QUALITY_RE.match, lines) if m), None)
    result = json.loads(lines[-1])
    return {
        "header": header,
        "quality": quality,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {out.returncode}")
    return parse_run(out.stdout)


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired comparison of one metric on one workload (runs in pair order)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain = (wins >= 0.9 * len(parent)
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])
    worse_by = -sign * (c["median"] - p["median"]) / abs(p["median"])
    spread = (p["q3"] - p["q1"]) / abs(p["median"])
    all_better = all(sign * (y - x) > 0 for x in parent for y in change)
    if worse_by > bound:
        within = "no"
    elif spread > bound and not all_better:
        within = "unresolved"
    else:
        within = "yes"
    return {
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"],
        "wins": wins,
        "pairs": len(parent),
        "gain": gain,
        "within_bound": within,
    }


def markdown_table(record: dict) -> str:
    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
             "| ratio | wins | gain | within bound |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for wl, metrics in record["workloads"].items():
        for name, s in metrics["metrics"].items():
            p, c = s["parent"], s["change"]
            lines.append(
                f"| {wl} | {name} | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {s['ratio']:.3f} "
                f"| {s['wins']}/{s['pairs']} | {'yes' if s['gain'] else 'no'} "
                f"| {s['within_bound']} |")
    return "\n".join(lines)


def make_scratch(base: Path | None) -> Path:
    """A fresh temporary directory for the exports, under base when given
    (base and its parents are created if missing)."""
    if base is not None:
        base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="bench_record_", dir=base))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--change", default="HEAD")
    p.add_argument("--parent", required=True, help="the commit the change starts from")
    p.add_argument("--pairs", type=int, default=10, help="at least 10")
    p.add_argument("--seed", type=int, default=2001, help="seed of pair 0; pair k uses seed + k")
    p.add_argument("--scratch", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")

    change = git("rev-parse", args.change)
    parent = git("rev-parse", args.parent)
    workloads = [w["name"] for w in SPEC["workloads"]]
    out = args.out or ROOT / f"BENCH_{change[:7]}.json"
    scratch = make_scratch(args.scratch)
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    try:
        export(parent, trees["parent"])
        export(change, trees["change"])
        runs = {wl: {"parent": [], "change": []} for wl in workloads}
        for wl in workloads:
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    res = run_once(trees[side], wl, args.seed + k)
                    res["seed"] = args.seed + k
                    runs[wl][side].append(res)
                    print(f"{wl} pair {k} {side}: "
                          + ", ".join(f"{n} {v:.4g}" for n, v in res["metrics"].items()),
                          flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "parent": parent,
        "change": change,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "seconds": SPEC["run_seconds"],
        "quartile_method": "statistics.quantiles(n=4, method='inclusive')",
        "header": {side: runs[workloads[0]][side][0]["header"]
                   for side in ("parent", "change")},
        "workloads": {},
    }
    for wl in workloads:
        sides = runs[wl]
        metrics = {}
        for m in SPEC["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]] for r in sides[side]] for side in sides}
            metrics[m["name"]] = summarize(vals["parent"], vals["change"],
                                           m["better"], m["bound"])
        record["workloads"][wl] = {
            "metrics": metrics,
            "runs": {side: [{key: r[key] for key in
                             ("seed", "correct", "attempted", "failed", "quality", "metrics")}
                            for r in sides[side]] for side in sides},
        }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    print(markdown_table(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
