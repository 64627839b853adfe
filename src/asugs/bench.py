"""Monte Carlo comparison harness for the four algorithm variants.

A trial draws (or shuffles) a training stream, runs each variant on it
with a trial-derived seed, and scores the final state on a held-out
set.  Trials are independent (seed = base + index, so adding trials
never changes existing ones) and may run in parallel processes; results
aggregate into per-checkpoint class-count statistics plus per-trial
rows, from which every aggregate is recomputable.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from asugs.data import Dataset, heldout_loglik, sample_mixture
from asugs.engine import EngineConfig, run
from asugs.mixture import GaussianMixture

VARIANTS = ("ASUGS", "ASUGS-PM", "SUGS", "SUGS-PM")


def variant_config(base: EngineConfig, variant: str, fixed_alpha: float = 1.0) -> EngineConfig:
    """Specialize a base configuration for one of the named variants.

    Adaptive variants sample their labels; fixed-concentration variants
    use the greedy argmax rule.  The -PM variants keep the base prune
    and merge thresholds, the others disable maintenance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    adaptive = variant.startswith("ASUGS")
    pm = variant.endswith("-PM")
    return replace(
        base,
        selection="sample" if adaptive else "argmax",
        fixed_alpha=None if adaptive else fixed_alpha,
        prune_eps=base.prune_eps if pm else 0.0,
        merge_eps=base.merge_eps if pm else 0.0,
    )


@dataclass
class TrialResult:
    variant: str
    trial: int
    seed: int
    final_k: int
    heldout_total: float | None
    heldout_per_sample: float | None
    runtime_s: float
    k_at_checkpoints: list[int]
    error: str | None = None


@dataclass
class BenchReport:
    """Everything a comparison run produces.

    rows carry one record per (variant, trial); aggregates hold the mean
    and variance of the class count at each checkpoint, recomputable
    from the rows.
    """

    checkpoints: list[int]
    rows: list[TrialResult]
    aggregates: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def recompute_aggregates(self) -> dict[str, dict[str, list[float]]]:
        out: dict[str, dict[str, list[float]]] = {}
        for variant in VARIANTS:
            ks = np.array(
                [r.k_at_checkpoints for r in self.rows
                 if r.variant == variant and r.error is None],
                dtype=float,
            )
            if ks.size == 0:
                continue
            out[variant] = {
                "mean_k": ks.mean(axis=0).tolist(),
                "var_k": ks.var(axis=0).tolist(),
            }
        return out


def geometric_checkpoints(n: int, start: int = 10) -> list[int]:
    """10, 20, 40, ... doubling up to and including n."""
    pts = []
    c = start
    while c < n:
        pts.append(c)
        c *= 2
    pts.append(n)
    return pts


def _one_trial(args) -> TrialResult:
    (variant, trial, base_config, fixed_alpha, train_rows, test_rows,
     truth, n_train, n_test, checkpoints) = args
    seed = base_config.seed + trial
    cfg = replace(variant_config(base_config, variant, fixed_alpha), seed=seed)
    try:
        if train_rows is None:
            train = sample_mixture(truth, n_train, seed=seed)
            test = sample_mixture(truth, n_test, seed=40000 + seed)
            rows, test_ds = train.rows, Dataset(test.rows)
        else:
            rng = np.random.Generator(np.random.PCG64(seed))
            order = rng.permutation(train_rows.shape[0])
            rows = train_rows[order]
            test_ds = Dataset(test_rows) if test_rows is not None else None
        t0 = time.perf_counter()
        trace = run(rows, cfg)
        dt = time.perf_counter() - t0
        ks = trace.k_series()
        k_cp = [int(ks[min(c, len(ks)) - 1]) for c in checkpoints]
        total = per = None
        if test_ds is not None:
            total, per = heldout_loglik(trace.final_book, test_ds)
        return TrialResult(
            variant=variant, trial=trial, seed=seed, final_k=trace.k,
            heldout_total=total, heldout_per_sample=per, runtime_s=dt,
            k_at_checkpoints=k_cp,
        )
    except Exception as exc:
        return TrialResult(
            variant=variant, trial=trial, seed=seed, final_k=-1,
            heldout_total=None, heldout_per_sample=None, runtime_s=0.0,
            k_at_checkpoints=[], error=f"{type(exc).__name__}: {exc}",
        )


def compare_variants(
    base_config: EngineConfig,
    trials: int,
    train: Dataset | None = None,
    test: Dataset | None = None,
    truth: GaussianMixture | None = None,
    n_train: int = 500,
    n_test: int = 1000,
    fixed_alpha: float = 1.0,
    checkpoints: list[int] | None = None,
    workers: int = 1,
    variants: tuple[str, ...] = VARIANTS,
) -> BenchReport:
    """Run the variant comparison for a number of seeded trials.

    With a ``truth`` mixture and no fixed training set, every trial
    regenerates its own train and held-out data (paired across variants
    through the trial seed).  With a fixed ``train`` dataset, each trial
    streams a seed-shuffled ordering of the same rows.  Failed trials
    are recorded with their error and do not stop the run.
    """
    if train is None and truth is None:
        raise ValueError("either a training dataset or a truth mixture is required")
    n_stream = train.n if train is not None else n_train
    cps = checkpoints or geometric_checkpoints(n_stream)
    jobs = [
        (variant, t, base_config, fixed_alpha,
         None if train is None else train.rows,
         None if test is None else test.rows,
         truth, n_train, n_test, cps)
        for variant in variants
        for t in range(trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_one_trial, jobs))
    else:
        rows = [_one_trial(j) for j in jobs]
    report = BenchReport(checkpoints=cps, rows=rows)
    report.aggregates = report.recompute_aggregates()
    return report
