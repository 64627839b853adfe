"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, with the BLAS thread pin
already in its environment, as

    python3 perfbench/rep.py SPEC.json SPAWN_NS

where SPAWN_NS is the CLOCK_MONOTONIC time (ns) at which run.py started
the process.  The script imports asugs from the checkout's ``src``,
sets up, runs the workload's user-facing operation once with a single
caller, checks the outputs, and prints one JSON line: timings, the
problems found, and digests of the outputs.  Set-up ends when the first
observation is ready to enter the engine.

The reference kernel is timed just before and just after the operation;
run.py multiplies every time of the repetition by ``scale`` =
REFERENCE_S / (mean kernel time), which converts it to seconds at the
reference speed of the host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_S = 0.05  # the reference kernel's time at reference speed


def now() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


def reference_kernel() -> float:
    """Seconds taken by fixed work of the workloads' three kinds.

    Small factorisations and solves called from Python (the d = 2
    density call), 64x64 factorisations and solves (d = 64), and
    vectorised passes over 40000-element arrays (the diagnostics grid),
    in about equal shares.  A shared host's speed drifts by up to 2x
    over tens of seconds; an operation's time follows this kernel's
    time closely, so their ratio is far steadier than either.
    """
    import numpy as np

    small, y = np.array([[1.0, 0.2], [0.2, 0.5]]), np.array([0.3, -0.1])
    wide, v = 64.0 * np.eye(64) + 0.5, np.linspace(-1.0, 1.0, 64)
    grid = np.linspace(-3.0, 3.0, 40000)
    t0 = now()
    for _ in range(1600):
        low = np.linalg.cholesky(small)
        z = np.linalg.solve(low, y)
        float(z @ z) + float(np.log(np.diag(low)).sum())
    for _ in range(300):
        np.linalg.solve(np.linalg.cholesky(wide), v)
    for _ in range(90):
        np.log(np.exp(-0.5 * grid * grid).sum() + np.abs(grid).sum())
    return now() - t0


def _kernel_in_worker(_) -> float:
    return reference_kernel()


class Clock:
    """Marks the end of set-up and times the reference kernel around the operation.

    An operation that runs on several worker processes is matched by as
    many copies of the kernel running at once, so that every CPU the
    operation uses is sampled.  Their pool is closed again before the
    operation starts, so the operation forks no process with threads.
    """

    def __init__(self, spawn_s: float, workers: int):
        self.spawn_s = spawn_s
        self.workers = workers
        self.kernel_s: list[float] = []

    def kernel(self) -> None:
        if self.workers == 1:
            self.kernel_s.append(reference_kernel())
            return
        import multiprocessing

        # the initializer runs the kernel once, so the timed copies are warm
        pool = multiprocessing.get_context("spawn").Pool(self.workers, initializer=reference_kernel)
        try:
            times = pool.map(_kernel_in_worker, range(self.workers), chunksize=1)
        finally:
            pool.close()
            pool.join()
        self.kernel_s.append(sum(times) / len(times))

    def ready(self) -> float:
        """End set-up, time the kernel, and return the operation's start time."""
        self.setup_s = now() - self.spawn_s
        self.kernel()
        return now()


def sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def labels_digest(trace) -> str:
    return sha(json.dumps([r.label for r in trace.records]).encode())


def roundtrip_problems(trace, back) -> list[str]:
    import numpy as np

    same = (
        len(back.records) == len(trace.records) and (back.n, back.k) == (trace.n, trace.k)
        and all(a.label == b.label and a.k_after == b.k_after and np.array_equal(a.q, b.q)
                for a, b in zip(trace.records, back.records))
    )
    return [] if same else ["read_trace(write_trace(trace)) differs in labels, q or k"]


def grid_prior(d: int):
    from asugs.niw import PriorConfig
    from inputs import GRID_SIGMA2

    return PriorConfig.from_scale(d, GRID_SIGMA2, 64)


def grid_fit(spec: dict, paths: dict, clock: Clock) -> dict:
    """``asugs fit``: read_csv -> run -> write_trace -> read_trace -> heldout_loglik."""
    from asugs import data, engine
    from asugs.engine import EngineConfig

    train = data.read_csv(paths["train"])
    cfg = EngineConfig(seed=spec["seed"], prior=grid_prior(train.dim)).resolve(train.dim)
    t_start = clock.ready()
    trace = engine.run(train.rows, cfg)
    t_fit = now()
    data.write_trace(paths["trace"], trace)
    back = data.read_trace(paths["trace"])
    _, per = data.heldout_loglik(trace.final_book, data.read_csv(paths["test"]))
    t_end = now()
    problems = roundtrip_problems(trace, back)
    if not 14 <= trace.k <= 18:  # the band of acceptance criterion 1
        problems.append(f"final k = {trace.k}, outside [14, 18]")
    with open(paths["trace"], "rb") as fh:
        trace_digest = sha(fh.read())
    return {
        "t_start": t_start, "fit_s": t_fit - t_start, "t_end": t_end, "n_obs": trace.n,
        "heldout_nll": -per, "attempted": 1, "failed": int(bool(problems)),
        "problems": problems, "final_k": trace.k,
        "digest": {"labels": labels_digest(trace), "trace_bytes": trace_digest},
    }


def wide_fit(spec: dict, paths: dict, clock: Clock) -> dict:
    """d = 64 counterpart of grid-fit: read_csv -> run -> heldout_loglik, no trace file."""
    from asugs import data, engine
    from asugs.engine import EngineConfig
    from asugs.niw import PriorConfig
    from inputs import WIDE_COMPONENTS

    train = data.read_csv(paths["train"])
    d = train.dim
    cfg = EngineConfig(
        seed=spec["seed"], prior=PriorConfig.from_scale(d, 1.0, 2 * d),
        prune_eps=0.0, merge_eps=0.0,
    ).resolve(d)
    t_start = clock.ready()
    trace = engine.run(train.rows, cfg)
    t_fit = now()
    _, per = data.heldout_loglik(trace.final_book, data.read_csv(paths["test"]))
    t_end = now()
    problems = [] if trace.k == WIDE_COMPONENTS else [
        f"final k = {trace.k}, expected {WIDE_COMPONENTS}"]
    return {
        "t_start": t_start, "fit_s": t_fit - t_start, "t_end": t_end, "n_obs": trace.n,
        "heldout_nll": -per, "attempted": 1, "failed": int(bool(problems)),
        "problems": problems, "final_k": trace.k,
        "digest": {"labels": labels_digest(trace)},
    }


def compare(spec: dict, paths: dict, clock: Clock) -> dict:
    """``asugs compare`` on the grid truth: four variants x trials, process pool."""
    from asugs import bench, data
    from asugs.engine import EngineConfig
    from asugs.niw import PriorConfig

    size = spec["size"]
    truth = data.read_truth(paths["truth"])
    # seed * 1000 keeps the trial seeds (base + trial) of different workload seeds apart
    cfg = EngineConfig(
        seed=1000 * spec["seed"], prior=PriorConfig.from_scale(2, 0.1, 24)
    ).resolve(truth.dim)
    t_start = clock.ready()
    report = bench.compare_variants(
        cfg, trials=size["trials"], truth=truth, n_train=size["n_train"],
        n_test=size["n_test"], workers=spec["workers"],
    )
    t_end = now()
    rows = report.rows
    problems = [f"{r.variant} trial {r.trial}: {r.error}" for r in rows if r.error]
    failed = len(problems)
    if report.recompute_aggregates() != report.aggregates:
        problems.append("recompute_aggregates() differs from aggregates")
        failed = len(rows)
    runtimes = [r.runtime_s for r in rows]
    pm = [r.heldout_per_sample for r in rows if r.variant == "ASUGS-PM" and not r.error]
    outcome = [[r.variant, r.trial, r.final_k, r.k_at_checkpoints, r.heldout_total] for r in rows]
    return {
        "t_start": t_start, "fit_s": sum(runtimes), "t_end": t_end,
        "n_obs": size["n_train"] * len(rows),
        "heldout_nll": -sum(pm) / len(pm) if pm else math.nan,
        "attempted": len(rows), "failed": failed,
        "problems": problems, "trial_runtimes": runtimes,
        "pool_efficiency": sum(runtimes) / (spec["workers"] * (t_end - t_start)),
        "digest": {"trials": sha(json.dumps(outcome).encode())},
    }


def diagnose(spec: dict, paths: dict, clock: Clock) -> dict:
    """``asugs diagnose``: run_with_diagnostics with the truth, then held-out scoring."""
    from asugs import data, diagnostics
    from asugs.engine import EngineConfig

    every = spec["size"]["checkpoint_every"]
    train = data.read_csv(paths["train"])
    truth = data.read_truth(paths["truth"])
    cfg = EngineConfig(seed=spec["seed"], prior=grid_prior(train.dim)).resolve(train.dim)
    t_start = clock.ready()
    trace = diagnostics.run_with_diagnostics(train.rows, cfg, truth=truth, checkpoint_every=every)
    t_fit = now()
    _, per = data.heldout_loglik(trace.final_book, data.read_csv(paths["test"]))
    t_end = now()
    cps = trace.checkpoints
    problems = []
    if len(cps) != trace.n // every:
        problems.append(f"{len(cps)} checkpoints, expected {trace.n // every}")
    if not all(math.isfinite(c.l2_distance) and math.isfinite(c.kl_estimate) for c in cps):
        problems.append("non-finite L2 or KL at a checkpoint")
    values = [[c.n, c.k, c.l2_distance, c.kl_estimate, c.likelihood_ratio] for c in cps]
    return {
        "t_start": t_start, "fit_s": t_fit - t_start, "t_end": t_end, "n_obs": trace.n,
        "heldout_nll": -per, "attempted": 1, "failed": int(bool(problems)),
        "problems": problems, "final_k": trace.k,
        "digest": {"labels": labels_digest(trace),
                   "checkpoints": sha(json.dumps(values).encode())},
    }


OPERATIONS = {"grid-fit": grid_fit, "wide-fit": wide_fit, "compare": compare, "diagnose": diagnose}


def main() -> None:
    spec_path, spawn_ns = sys.argv[1], int(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import asugs

    if not os.path.abspath(asugs.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"asugs imported from {asugs.__file__}, not from {spec['src']}")
    tracer = None
    if spec["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op = OPERATIONS[spec["workload"]]
    clock = Clock(spawn_ns / 1e9, spec["workers"])
    try:
        out = op(spec, spec["paths"], clock)
        clock.kernel()
    except Exception as exc:  # the repetition reports the failure instead of crashing
        import traceback

        traceback.print_exc()
        n_ops = spec["size"]["trials"] * 4 if spec["workload"] == "compare" else 1
        print(json.dumps({"attempted": n_ops, "failed": n_ops,
                          "problems": [f"{type(exc).__name__}: {exc}"]}))
        return
    out["setup_s"] = clock.setup_s
    out["wall_s"] = out.pop("t_end") - out.pop("t_start")
    out["kernel_s"] = clock.kernel_s
    out["scale"] = REFERENCE_S / (sum(clock.kernel_s) / len(clock.kernel_s))
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    out["blas_pin"] = {var: os.environ.get(var) for var in BLAS_VARS}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"], {"workload": spec["workload"], "seed": spec["seed"]})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
