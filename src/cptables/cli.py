"""Command-line interface.

Subcommands: estimate (SIS count estimate with optional bootstrap CIs),
sample (draw accepted tables), exact (count/enumeration by search),
ingest-ucinet (DL file -> marginal file), fixtures (list or print bundled
margin sets).  INPUT arguments take either a marginal-file path or a
bundled fixture name.  sample and exact --enumerate print tables in one
layout: a title line, then a three-way table layer by layer, any other
table as numpy prints it.

Exit codes: 0 success; 1 infeasible input, all proposals rejected, or an
exceeded search budget; 2 usage or parse errors, including option values
out of range (main maps the walk's WalkOptionError).  The last stdout line
of `estimate` is a JSON record; given the same arguments it is
byte-identical across runs except for the runtime_ms field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .estimator import estimate_table_count, format_count_from_log
from .fixtures import fixture, fixture_names
from .layers import PROPOSALS, WalkOptionError
from .marginfile import (
    MarginalFileError,
    format_marginals,
    parse_marginal_file,
    write_marginal_file,
)
from .oracle import EnumerationBudgetError, exact_count, exact_enumerate
from .sis import draw_accepted_tables
from .tables import MarginalSet, MarginalValidationError
from .ucinet import UcinetFormatError, parse_ucinet_dl

USAGE_ERROR = 2
INFEASIBLE = 1
# `exact`'s default node budget for a count: its memo grows 80-110 MB per
# million nodes (tracemalloc peak from semimagic-5-2 to L(7)), so an
# unbounded count can exhaust the host's memory
# (enumeration keeps no memo; LIMIT bounds what it holds)
EXACT_BUDGET = 1_000_000
# the least value of each whole-number option, checked in this order before
# the command runs; an option the command lacks or leaves at None is skipped
_MINIMUMS = (("samples", 1), ("workers", 1), ("count", 1), ("seed", 0),
             ("bootstrap", 1), ("max_attempts", 1), ("enumerate", 1), ("budget", 1))


class _UsageError(Exception):
    """An option value outside its range."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _load_input(source: str) -> MarginalSet:
    if os.path.exists(source):
        return parse_marginal_file(source)
    try:
        return fixture(source)
    except KeyError as e:  # its message is the reason
        raise _UsageError(f"input {source!r} is not a file; {e.args[0]}") from None


def _log10(log_value: float | None) -> float | None:
    if log_value is None or log_value == -math.inf:
        return None
    return log_value / math.log(10.0)


def _print_table(title: str, cells: np.ndarray) -> None:
    print(title)
    if cells.ndim == 3:
        for i, layer in enumerate(cells, start=1):
            print(f"  layer {i}:")
            for row in layer:
                print("    " + " ".join(str(int(v)) for v in row))
    else:
        print(np.array2string(cells))


def _cmd_estimate(args) -> int:
    _require(0.0 < args.alpha < 1.0, f"--alpha must be in (0, 1), got {args.alpha}")
    m = _load_input(args.input)
    t0 = time.perf_counter()
    report = estimate_table_count(
        m,
        samples=args.samples,
        seed=args.seed,
        layer_axis=args.layer_axis,
        proposal=args.proposal,
        workers=args.workers,
        bootstrap_b=args.bootstrap,
        alpha=args.alpha,
    )
    runtime_ms = int(round((time.perf_counter() - t0) * 1000))

    print(f"n: {report.n}")
    print(f"accepted: {report.accepted} ({100.0 * report.acceptance_rate:.1f}%)")
    log10 = _log10(report.estimate_log)
    log10_txt = f" (log10 = {log10:.4f})" if log10 is not None else ""
    print(f"estimate: {report.estimate_display}{log10_txt}")
    if report.cv2 is not None:
        print(f"cv^2: {report.cv2:.4f}")
    if report.ci_estimate_log is not None:
        lo, hi = report.ci_estimate_log
        pct = 100.0 * (1.0 - report.alpha)
        print(
            f"{pct:g}% CI (estimate): [{format_count_from_log(lo)}, "
            f"{format_count_from_log(hi)}]"
        )
        clo, chi = report.ci_cv2
        print(f"{pct:g}% CI (cv^2): [{clo:.4f}, {chi:.4f}]")
    print(f"seed: {args.seed}")
    print(f"runtime: {runtime_ms} ms")

    record = {
        "n": report.n,
        "accepted": report.accepted,
        "estimate_log10": _log10(report.estimate_log),
        "estimate_display": report.estimate_display,
        "cv2": report.cv2,
        "ci_estimate_log10": (
            [_log10(report.ci_estimate_log[0]), _log10(report.ci_estimate_log[1])]
            if report.ci_estimate_log is not None
            else None
        ),
        "ci_cv2": list(report.ci_cv2) if report.ci_cv2 is not None else None,
        "alpha": report.alpha,
        "bootstrap_b": report.bootstrap_b,
        "proposal": args.proposal,
        "layer_axis": args.layer_axis,
        "seed": args.seed,
        "runtime_ms": runtime_ms,
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if report.accepted > 0 else INFEASIBLE


def _cmd_sample(args) -> int:
    m = _load_input(args.input)
    outcomes, attempts = draw_accepted_tables(
        m,
        args.count,
        seed=args.seed,
        layer_axis=args.layer_axis,
        proposal=args.proposal,
        max_attempts=args.max_attempts,
    )
    for t, o in enumerate(outcomes, start=1):
        _print_table(f"table {t} (log q = {o.log_q:.6f}):", o.table.cells)
    print(f"accepted {len(outcomes)} of {attempts} proposals")
    if len(outcomes) < args.count:
        print("error: attempt budget exhausted before enough acceptances", file=sys.stderr)
        return INFEASIBLE
    return 0


def _cmd_exact(args) -> int:
    m = _load_input(args.input)
    if args.enumerate is not None:
        tables = exact_enumerate(m, limit=args.enumerate, budget=args.budget)
        for t, table in enumerate(tables, start=1):
            _print_table(f"table {t}:", table.cells)
        print(f"enumerated: {len(tables)}")
        return 0 if tables else INFEASIBLE
    budget = EXACT_BUDGET if args.budget is None else args.budget
    count = exact_count(m, budget=budget)
    print(f"exact count: {count}")
    return 0 if count else INFEASIBLE


def _cmd_ingest_ucinet(args) -> int:
    rel = parse_ucinet_dl(args.dlfile)
    m = rel.marginals()
    comments = [
        f"margins of the binarized relation stack from {os.path.basename(args.dlfile)}",
        "relations in order: " + ", ".join(rel.relation_names),
    ]
    write_marginal_file(m, args.out, comments)
    n, _, r = rel.stack.shape
    print(f"parsed {n}x{n}x{r} relation stack; total nominations: {int(rel.stack.sum())}")
    print(f"wrote margins to {args.out}")
    return 0


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixture_names():
            m = fixture(name)
            sizes = "x".join(str(s) for s in m.dims.sizes)
            print(f"{name}  ({sizes}, total {m.total})")
        print("semimagic-<m>-<s>  (generated: m x m x m cube, every margin s)")
        return 0
    try:
        m = fixture(args.name)
    except KeyError as e:
        raise _UsageError(e.args[0]) from None
    text = format_marginals(m, [f"fixture {args.name}"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.name} to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cptables",
        description="Sample and count zero-one multiway tables with fixed margins.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", help="marginal file path or fixture name")

    def add_walk_options(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--layer-axis", type=int, default=0, dest="layer_axis")
        sp.add_argument("--proposal", choices=PROPOSALS, default="classic",
                        help="proposal preset (see cptables.layers.Walk)")

    sp = sub.add_parser("estimate", help="SIS estimate of the number of tables")
    add_input(sp)
    sp.add_argument("--samples", type=int, default=1000)
    add_walk_options(sp)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--bootstrap", type=int, default=None, metavar="B",
                    help="bootstrap replications for percentile CIs")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("sample", help="draw accepted tables")
    add_input(sp)
    add_walk_options(sp)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--max-attempts", type=int, default=None)
    sp.set_defaults(fn=_cmd_sample)

    sp = sub.add_parser("exact", help="exact count or enumeration by search")
    add_input(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help=f"search node limit; past it the command exits 1.  A "
                    f"count defaults to {EXACT_BUDGET:,} nodes, which also bounds "
                    "its memo (about 80-110 MB per million nodes) and reports the "
                    "partial count; --enumerate has no default limit")
    sp.add_argument("--enumerate", type=int, default=None, metavar="LIMIT",
                    help="list up to LIMIT tables instead of counting")
    sp.set_defaults(fn=_cmd_exact)

    sp = sub.add_parser("ingest-ucinet", help="UCINET DL file -> marginal file")
    sp.add_argument("dlfile")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_ingest_ucinet)

    sp = sub.add_parser("fixtures", help="list or print bundled margin sets")
    fsub = sp.add_subparsers(dest="action", required=True)
    fl = fsub.add_parser("list")
    fl.set_defaults(fn=_cmd_fixtures, action="list")
    fs = fsub.add_parser("show")
    fs.add_argument("name")
    fs.add_argument("--out", default=None)
    fs.set_defaults(fn=_cmd_fixtures, action="show")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in _MINIMUMS:
            value = getattr(args, name, None)
            _require(value is None or value >= least,
                     f"--{name.replace('_', '-')} must be >= {least}, got {value}")
        return args.fn(args)
    except (MarginalFileError, UcinetFormatError, OSError, UnicodeDecodeError,
            _UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except WalkOptionError as e:  # args: (option, rule), from Walk.prepare
        print(f"error: --{e.args[0].replace('_', '-')} {e.args[1]}", file=sys.stderr)
        return USAGE_ERROR
    except (MarginalValidationError, EnumerationBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
