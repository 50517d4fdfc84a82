"""Outside-in tracing of cptables for the benchmark's per-layer split.

Nothing in the package is instrumented.  `Tracer.install` replaces the
public functions and `TableState` methods named in TARGETS with timing
wrappers, in every `cptables.*` module namespace that holds them (a
function imported with `from .x import f` is looked up in the caller's
module, so each binding is patched), and `uninstall` puts the originals
back.  Every wrapper records one span: name, start, end and parent.

Layer-boundary spans (commands, estimates, runs, proposals, searches) are
kept whole in memory and written out at the end of the run.  The hot leaf
calls (CP draws, line weights, propagation, undo, margin checks) happen
hundreds of thousands of times per pass, so they are folded into per-name
totals as they close: call counts and busy and self seconds stay exact,
and the draw and proposal latencies keep every sample, but no individual
span record is stored for them.  `set_cell` is only counted.

A span's self time is its duration minus the time its child spans cover.
Proposals that `run_sis` hands to its process pool run in forked workers,
which inherit the patched modules; each worker writes its chunk's spans
and totals to a spool file, and the parent merges them when `run_sis`
returns.  That is how `sis.pool.imbalance` (max over mean busy time of the
chunks of one call, from the per-proposal times) is rebuilt.  It relies on
the `fork` start method, Linux's default before Python 3.14.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from cptables import (
    cli,
    cpdist,
    estimator,
    expand,
    layers,
    marginfile,
    oracle,
    reduction,
    sis,
    tables,
    ucinet,
)

# (span name, owner object, attribute); the layer is the name's first part
TARGETS = [
    ("cli", cli, "main"),
    ("ucinet.parse", ucinet, "parse_ucinet_dl_text"),
    ("marginfile.parse", marginfile, "parse_marginal_text"),
    ("estimator.estimate", estimator, "estimate_table_count"),
    ("estimator.summary", estimator, "summarize"),
    ("estimator.bootstrap", estimator, "bootstrap_ci"),
    ("sis.run", sis, "run_sis"),
    ("sis.chunk", sis, "_weight_chunk"),
    ("sis.proposal", sis, "sample_table3"),
    ("sis.finish", sis, "_finish"),
    ("layers.sample_layer", layers, "sample_layer"),
    ("layers.line_weights", layers, "line_weights"),
    ("cpdist.draw", cpdist, "cp_draft_sample"),
    ("cpdist.pmf", cpdist, "cp_log_pmf"),
    ("reduction.initial_reduce", reduction.TableState, "initial_reduce"),
    ("reduction.propagate", reduction.TableState, "propagate"),
    ("reduction.undo_to", reduction.TableState, "undo_to"),
    ("tables.marginals_of", tables, "marginals_of"),
    ("oracle.exact_count", oracle, "exact_count"),
    ("expand", expand, "expand_paths"),
]
COUNTED = ("reduction.set_cell", reduction.TableState, "set_cell")

HOT = {
    "sis.finish",
    "layers.sample_layer",
    "layers.line_weights",
    "cpdist.draw",
    "cpdist.pmf",
    "reduction.initial_reduce",
    "reduction.propagate",
    "reduction.undo_to",
    "tables.marginals_of",
}
LATENCY = {"cpdist.draw", "sis.proposal"}
OWNERS = ("sis", "oracle", "expand")
LAYERS = ("cli", "ucinet", "marginfile", "estimator", "sis", "layers",
          "cpdist", "reduction", "tables", "oracle", "expand")

# name, unit, better: the per-layer metrics of a traced run, in print order
PER_LAYER = [
    ("cpdist.draw.calls", "count", "lower"),
    ("cpdist.draw.busy_s", "s", "lower"),
    ("cpdist.draw.p50_us", "us", "lower"),
    ("cpdist.draw.p99_us", "us", "lower"),
    ("cpdist.draw.items", "count", "lower"),
    ("cpdist.draw.infeasible", "count", "lower"),
    ("cpdist.pmf.calls", "count", "lower"),
    ("cpdist.pmf.busy_s", "s", "lower"),
    ("layers.line_weights.calls", "count", "lower"),
    ("layers.line_weights.busy_s", "s", "lower"),
    ("layers.sample_layer.self_s", "s", "lower"),
    ("reduction.propagate.calls", "count", "lower"),
    ("reduction.propagate.busy_s", "s", "lower"),
    ("reduction.initial_reduce.calls", "count", "lower"),
    ("reduction.initial_reduce.busy_s", "s", "lower"),
    ("reduction.undo_to.calls", "count", "lower"),
    ("reduction.undo_to.busy_s", "s", "lower"),
    ("reduction.set_cell.calls", "count", "lower"),
    ("reduction.under_sis.busy_s", "s", "lower"),
    ("reduction.under_oracle.busy_s", "s", "lower"),
    ("reduction.under_expand.busy_s", "s", "lower"),
    ("sis.proposal.calls", "count", "lower"),
    ("sis.proposal.busy_s", "s", "lower"),
    ("sis.proposal.self_s", "s", "lower"),
    ("sis.proposal.p50_ms", "ms", "lower"),
    ("sis.proposal.p99_ms", "ms", "lower"),
    ("sis.accept_frac", "frac", "higher"),
    ("sis.rejected_time_frac", "frac", "lower"),
    ("sis.run.self_s", "s", "lower"),
    ("sis.pool.imbalance", "ratio", "lower"),
    ("sis.finish.busy_s", "s", "lower"),
    ("tables.marginals_of.busy_s", "s", "lower"),
    ("estimator.bootstrap.calls", "count", "lower"),
    ("estimator.bootstrap.busy_s", "s", "lower"),
    ("estimator.bootstrap.reps", "count", "lower"),
    ("oracle.exact_count.busy_s", "s", "lower"),
    ("expand.busy_s", "s", "lower"),
    ("expand.self_s", "s", "lower"),
    ("expand.leaves", "count", "lower"),
    ("ucinet.parse.busy_s", "s", "lower"),
    ("marginfile.parse.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    *((f"share.{layer}", "frac", "lower") for layer in LAYERS),
    ("quality.accept_frac", "frac", "higher"),
    ("quality.cv2", "ratio", "lower"),
    ("quality.ess_per_n", "frac", "higher"),
    ("quality.log10_estimate", "log10", "higher"),
]


def tail_percentile(n: int) -> float:
    """p99, or with fewer than 1000 samples the highest of p90 and p50 that
    has at least ten samples beyond it."""
    for q in (99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[min(max(math.ceil(q / 100.0 * len(s)), 1), len(s)) - 1]


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.next_id = self.pid << 32  # span ids stay unique across processes
        self.spool_dir = Path(spool_dir)
        self._patches: list[tuple[object, str, object]] = []
        self._clear()
        self.passes = 0  # traced passes, counted by the caller

    def _clear(self) -> None:
        # a frame is [span id, layer, owner, child seconds]
        self.stack = [[0, "bench", None, 0.0]]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.layer_self = defaultdict(float)
        self.owner_busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.latency = defaultdict(lambda: array("d"))
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.chunks: list[tuple] = []  # (start, end, lo, hi, proposal busy)
        self.imbalance: list[float] = []

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        name, owner, attr = COUNTED
        self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for modname, mod in list(sys.modules.items())
                if modname == "cptables" or modname.startswith("cptables.")
                for key, val in list(vars(mod).items())
                if val is original
            ]
        for obj, key in holders:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def _count(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tr.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn, in_worker=False):
        tr = self
        layer = name.split(".")[0]
        keep = name not in HOT
        lat = name in LATENCY
        note = _NOTES.get(name)
        pool_entry = name == "sis.chunk" and not in_worker

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pool_entry and os.getpid() != tr.pid:
                return tr._pool_chunk(fn, args, kwargs)
            stack = tr.stack
            parent = stack[-1]
            tr.next_id += 1
            frame = [tr.next_id, layer, layer if layer in OWNERS else parent[2], 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                result = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if note is not None:
                    note(tr, frame, args, kwargs, result, t0, t1)
                self_t = dur - frame[3]
                parent[3] += dur
                st = tr.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += self_t
                tr.layer_self[layer] += self_t
                if layer == "reduction":
                    tr.owner_busy[frame[2]] += dur
                if lat:
                    tr.latency[name].append(dur)
                if keep:
                    tr.spans.append((frame[0], parent[0], name, t0, t1))
            return result

        return wrapper

    # -- process pool ---------------------------------------------------

    def _pool_chunk(self, chunk_fn, args, kwargs):
        """Run one of run_sis's chunks inside a forked pool worker: start
        from empty totals, trace the chunk, and spool the result for the
        parent, keyed by the parent's run span."""
        run_id = self.stack[-1][0]
        parent_frame = list(self.stack[-1])
        self._clear()
        self.stack = [parent_frame]
        if self.next_id >> 32 != os.getpid():
            self.next_id = os.getpid() << 32
        try:
            return self._wrap("sis.chunk", chunk_fn, in_worker=True)(*args, **kwargs)
        finally:
            self._spool(self.spool_dir / f"{run_id}-{os.getpid()}-{args[4]}.json")

    def _spool(self, path: Path) -> None:
        data = {
            "stats": dict(self.stats),
            "layer_self": dict(self.layer_self),
            "owner_busy": dict(self.owner_busy),
            "counts": dict(self.counts),
            "latency": {k: list(v) for k, v in self.latency.items()},
            "spans": self.spans,
            "chunks": self.chunks,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        tmp.replace(path)

    def _collect_spool(self, run_id: int) -> list[tuple]:
        chunks = []
        for path in sorted(self.spool_dir.glob(f"{run_id}-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for k, (c, b, s) in data["stats"].items():
                st = self.stats[k]
                st[0] += c
                st[1] += b
                st[2] += s
            for k, v in data["layer_self"].items():
                self.layer_self[k] += v
            for k, v in data["owner_busy"].items():
                self.owner_busy[k] += v
            for k, v in data["counts"].items():
                self.counts[k] += v
            for k, v in data["latency"].items():
                self.latency[k].extend(v)
            self.spans.extend(tuple(s) for s in data["spans"])
            chunks.extend(tuple(c) for c in data["chunks"])
        return chunks

    # -- results --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every kept span and the per-name totals as JSON."""
        path.write_text(json.dumps({
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.spans
            ],
            "totals": {k: {"calls": c, "busy_s": b, "self_s": s}
                       for k, (c, b, s) in sorted(self.stats.items())},
            "counts": dict(self.counts),
        }))

    def metrics(self, overhead_frac: float, quality: dict) -> dict:
        """Every PER_LAYER metric.  Counts and seconds are per traced pass;
        ratios and latency percentiles pool all traced passes.  share.<layer>
        is the layer's self time over the self time of all spans, summed
        over the processes of a pool."""
        per = 1.0 / max(self.passes, 1)
        st = self.stats
        c = self.counts

        def calls(n):
            return st[n][0] * per

        def busy(n):
            return st[n][1] * per

        def self_s(n):
            return st[n][2] * per

        def pct(n, q, scale):
            v = self.latency.get(n)
            return percentile(v, q) * scale if v else 0.0

        def tail(n, scale):
            v = self.latency.get(n)
            return pct(n, tail_percentile(len(v)), scale) if v else 0.0

        proposals = st["sis.proposal"][0]
        prop_busy = st["sis.proposal"][1]
        total_self = sum(self.layer_self.values())
        out = {
            "cpdist.draw.calls": calls("cpdist.draw"),
            "cpdist.draw.busy_s": busy("cpdist.draw"),
            "cpdist.draw.p50_us": pct("cpdist.draw", 50.0, 1e6),
            "cpdist.draw.p99_us": tail("cpdist.draw", 1e6),
            "cpdist.draw.items": c["cpdist.draw.items"] * per,
            "cpdist.draw.infeasible": c["cpdist.draw.infeasible"] * per,
            "cpdist.pmf.calls": calls("cpdist.pmf"),
            "cpdist.pmf.busy_s": busy("cpdist.pmf"),
            "layers.line_weights.calls": calls("layers.line_weights"),
            "layers.line_weights.busy_s": busy("layers.line_weights"),
            "layers.sample_layer.self_s": self_s("layers.sample_layer"),
            "reduction.propagate.calls": calls("reduction.propagate"),
            "reduction.propagate.busy_s": busy("reduction.propagate"),
            "reduction.initial_reduce.calls": calls("reduction.initial_reduce"),
            "reduction.initial_reduce.busy_s": busy("reduction.initial_reduce"),
            "reduction.undo_to.calls": calls("reduction.undo_to"),
            "reduction.undo_to.busy_s": busy("reduction.undo_to"),
            "reduction.set_cell.calls": c["reduction.set_cell"] * per,
            **{f"reduction.under_{o}.busy_s": self.owner_busy[o] * per
               for o in OWNERS},
            "sis.proposal.calls": calls("sis.proposal"),
            "sis.proposal.busy_s": busy("sis.proposal"),
            "sis.proposal.self_s": self_s("sis.proposal"),
            "sis.proposal.p50_ms": pct("sis.proposal", 50.0, 1e3),
            "sis.proposal.p99_ms": tail("sis.proposal", 1e3),
            "sis.accept_frac": c["sis.accepted"] / proposals if proposals else 0.0,
            "sis.rejected_time_frac": (
                c["sis.rejected_ns"] * 1e-9 / prop_busy if prop_busy else 0.0
            ),
            "sis.run.self_s": self_s("sis.run"),
            "sis.pool.imbalance": (
                sum(self.imbalance) / len(self.imbalance) if self.imbalance else 1.0
            ),
            "sis.finish.busy_s": busy("sis.finish"),
            "tables.marginals_of.busy_s": busy("tables.marginals_of"),
            "estimator.bootstrap.calls": calls("estimator.bootstrap"),
            "estimator.bootstrap.busy_s": busy("estimator.bootstrap"),
            "estimator.bootstrap.reps": c["estimator.bootstrap.reps"] * per,
            "oracle.exact_count.busy_s": busy("oracle.exact_count"),
            "expand.busy_s": busy("expand"),
            "expand.self_s": self_s("expand"),
            "expand.leaves": c["expand.leaves"] * per,
            "ucinet.parse.busy_s": busy("ucinet.parse"),
            "marginfile.parse.busy_s": busy("marginfile.parse"),
            "cli.self_s": self_s("cli"),
            "trace.overhead_frac": overhead_frac,
            **{f"share.{layer}": self.layer_self[layer] / total_self
               for layer in LAYERS},
            **{f"quality.{k}": v for k, v in quality.items()},
        }
        return out


# -- per-name notes: counts taken at the span boundary ------------------


def _note_draw(tr, frame, args, kwargs, result, t0, t1):
    if isinstance(result, cpdist.CPInfeasibleError):
        tr.counts["cpdist.draw.infeasible"] += 1
    else:
        tr.counts["cpdist.draw.items"] += len(args[0])


def _note_proposal(tr, frame, args, kwargs, result, t0, t1):
    if getattr(result, "accepted", False):
        tr.counts["sis.accepted"] += 1
    else:
        tr.counts["sis.rejected_ns"] += int((t1 - t0) * 1e9)


def _note_bootstrap(tr, frame, args, kwargs, result, t0, t1):
    reps = getattr(result, "replications", 0)
    tr.counts["estimator.bootstrap.reps"] += reps


def _note_expand(tr, frame, args, kwargs, result, t0, t1):
    tr.counts["expand.leaves"] += getattr(result, "leaves", 0)


def _note_chunk(tr, frame, args, kwargs, result, t0, t1):
    # the proposals are the chunk's only traced children, so its child
    # time is its busy time rebuilt from the per-proposal times
    tr.chunks.append((t0, t1, args[4], args[5], frame[3]))


def _note_run(tr, frame, args, kwargs, result, t0, t1):
    pooled = tr._collect_spool(frame[0])
    if pooled:
        frame[3] += _union_length([(a, b) for a, b, *_ in pooled], t0, t1)
        chunks = pooled
    else:
        chunks = [ch for ch in tr.chunks if t0 <= ch[0] and ch[1] <= t1]
    busy = [ch[4] for ch in chunks]
    if busy and sum(busy) > 0:
        tr.imbalance.append(max(busy) * len(busy) / sum(busy))


_NOTES = {
    "cpdist.draw": _note_draw,
    "sis.proposal": _note_proposal,
    "estimator.bootstrap": _note_bootstrap,
    "expand": _note_expand,
    "sis.chunk": _note_chunk,
    "sis.run": _note_run,
}
