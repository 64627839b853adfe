"""Span tracing of asugs from outside the package.

``Tracer.install`` replaces public functions of the asugs modules with
timing wrappers, at the module attribute each caller looks up, so calls
that ``run()`` makes internally are timed as well.  No file of the
package is edited.  Spans (id, name, start, end, parent) are kept in
memory; ``layer_metrics`` reduces them to the per-layer metrics and
``write_spans`` writes them out once the timed work is over.

A span's name is the defining module and the function name, e.g.
``engine.step``; a function imported into several modules (``step`` is
called from both ``engine.run`` and ``diagnostics.run_with_diagnostics``)
is wrapped at every attribute under the one name.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (module, attribute) pairs whose callers look the function up at call time.
WRAPPED = {
    "asugs.engine": (
        "responsibilities", "log_predictive_density", "prior_predictive",
        "posterior_update", "step", "prune", "merge", "run",
    ),
    "asugs.diagnostics": (
        "step", "prune", "merge", "l2_distance_to_truth", "kl_divergence_estimate",
        "likelihood_ratio", "log_mixture_predictive_rows", "run_with_diagnostics",
    ),
    "asugs.data": ("read_csv", "write_trace", "read_trace", "heldout_loglik"),
    "asugs.bench": ("run", "heldout_loglik", "sample_mixture", "compare_variants"),
}
MIXTURE_METHODS = ("sample", "logpdf")


def _rows(ys) -> int:
    return len(ys) if np.ndim(ys) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.rows: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._sweep_pruned = False

    def wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if observe is not None:
                observe(name, args, out)
            return out

        return wrapper

    def install(self) -> None:
        import importlib

        for modname, attrs in WRAPPED.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr)
                home = fn.__module__.rsplit(".", 1)[-1]
                setattr(mod, attr, self.wrap(f"{home}.{fn.__name__}", fn))
        from asugs.mixture import GaussianMixture

        for attr in MIXTURE_METHODS:
            setattr(GaussianMixture, attr, self.wrap(f"mixture.{attr}", getattr(GaussianMixture, attr)))

    # -- counts taken at the wrapped boundaries ---------------------------

    def _observe_run(self, name, args, trace):
        ks = trace.k_series().astype(float)
        self.counts["steps"] += len(ks)
        self.counts["k_sum"] += float(ks.sum())
        self.counts["pair_sum"] += float((ks * (ks - 1.0) / 2.0).sum())
        self.counts["innovations"] += sum(r.innovation for r in trace.records)

    _observe_run_with_diagnostics = _observe_run

    def _observe_prune(self, name, args, removed):
        self._sweep_pruned = bool(removed)

    def _observe_merge(self, name, args, events):
        # run() and run_with_diagnostics() always call prune, then merge.
        self.counts["sweeps"] += 1
        self.counts["useful_sweeps"] += bool(events) or self._sweep_pruned

    def _observe_write_trace(self, name, args, _):
        self.counts["trace_bytes"] += os.path.getsize(args[0])
        self.counts["trace_records"] += len(args[1].records)

    def _observe_sample(self, name, args, _):
        self.rows[name] += int(args[1])

    def _observe_logpdf(self, name, args, _):
        self.rows[name] += _rows(args[1])

    def _observe_log_mixture_predictive_rows(self, name, args, _):
        self.rows[name] += _rows(args[1])

    # -- reduction -------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns]; self = span minus its children."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, t0, t1, parent in self.spans:
            child_ns[parent] += t1 - t0
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, name, t0, t1, _ in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child_ns[sid]
        return out

    def layer_metrics(self) -> dict[str, float]:
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot[name][0] if name in tot else 0

        def ns(name, kind=1):
            return tot[name][kind] if name in tot else 0

        def ratio(a, b):
            return a / b if b else 0.0

        n_obs = calls("engine.step")
        lpd = "niw.log_predictive_density"
        return {
            "engine.responsibilities.us_per_obs": ratio(ns("engine.responsibilities"), n_obs) / 1e3,
            "engine.responsibilities.self_us_per_obs": ratio(ns("engine.responsibilities", 2), n_obs) / 1e3,
            f"{lpd}.calls_per_obs": ratio(calls(lpd), n_obs),
            f"{lpd}.us_per_call": ratio(ns(lpd), calls(lpd)) / 1e3,
            "niw.prior_predictive.us_per_obs": ratio(ns("niw.prior_predictive"), n_obs) / 1e3,
            "niw.posterior_update.us_per_obs": ratio(ns("niw.posterior_update"), n_obs) / 1e3,
            "engine.step.self_us_per_obs": ratio(ns("engine.step", 2), n_obs) / 1e3,
            "engine.k_mean": ratio(c["k_sum"], c["steps"]),
            "engine.pair_updates_per_obs": ratio(c["pair_sum"], c["steps"]),
            "engine.innovation_rate": ratio(c["innovations"], c["steps"]),
            "engine.prune.us_per_call": ratio(ns("engine.prune"), calls("engine.prune")) / 1e3,
            "engine.merge.us_per_call": ratio(ns("engine.merge"), calls("engine.merge")) / 1e3,
            "engine.maintenance.useful_ratio": ratio(c["useful_sweeps"], c["sweeps"]),
            "data.read_csv.s": ns("data.read_csv") / 1e9,
            "data.write_trace.s": ns("data.write_trace") / 1e9,
            "data.write_trace.bytes_per_obs": ratio(c["trace_bytes"], c["trace_records"]),
            "data.read_trace.s": ns("data.read_trace") / 1e9,
            "data.heldout_loglik.s": ns("data.heldout_loglik") / 1e9,
            "diagnostics.l2_distance_to_truth.s_per_checkpoint":
                ratio(ns("diagnostics.l2_distance_to_truth"), calls("diagnostics.l2_distance_to_truth")) / 1e9,
            "diagnostics.kl_divergence_estimate.s_per_checkpoint":
                ratio(ns("diagnostics.kl_divergence_estimate"), calls("diagnostics.kl_divergence_estimate")) / 1e9,
            "diagnostics.log_mixture_predictive_rows.us_per_row":
                ratio(ns("diagnostics.log_mixture_predictive_rows"),
                      self.rows["diagnostics.log_mixture_predictive_rows"]) / 1e3,
            "diagnostics.likelihood_ratio.us_per_call":
                ratio(ns("diagnostics.likelihood_ratio"), calls("diagnostics.likelihood_ratio")) / 1e3,
            "mixture.sample.us_per_row": ratio(ns("mixture.sample"), self.rows["mixture.sample"]) / 1e3,
            "mixture.logpdf.us_per_row": ratio(ns("mixture.logpdf"), self.rows["mixture.logpdf"]) / 1e3,
        }

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: header, then one [id, name, start_ns, end_ns, parent] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["id", "name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
