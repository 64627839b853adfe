"""Monte Carlo comparison harness for the four algorithm variants.

A trial draws (or shuffles) a training stream once, runs each variant
on it with a trial-derived seed, and scores the final state on a
held-out set.  Trials are independent (seed = base + index, so adding trials
never changes existing ones) and may run in parallel processes; results
aggregate into per-checkpoint class-count statistics plus per-trial
rows, from which every aggregate is recomputable.
"""

from __future__ import annotations

import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from asugs.data import HELDOUT_SEED_OFFSET, Dataset, heldout_loglik, sample_mixture
from asugs.engine import EngineConfig, _is_int, run, run_many  # run is unused here but stays
# an attribute of this module: perfbench/tracer.py wraps it here
from asugs.mixture import GaussianMixture

VARIANTS = ("ASUGS", "ASUGS-PM", "SUGS", "SUGS-PM")


def variant_config(base: EngineConfig, variant: str) -> EngineConfig:
    """Specialize a base configuration for one of the named variants.

    Adaptive variants sample their labels; fixed-concentration variants
    use the greedy argmax rule with the base's ``fixed_alpha``, or 1.0
    when it is unset.  The -PM variants keep the base prune and merge
    thresholds, the others disable maintenance.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    adaptive = variant.startswith("ASUGS")
    pm = variant.endswith("-PM")
    fixed = 1.0 if base.fixed_alpha is None else base.fixed_alpha
    return replace(
        base,
        selection="sample" if adaptive else "argmax",
        fixed_alpha=None if adaptive else fixed,
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


# What the trials of one comparison share: ``train`` and ``test`` are the fixed
# rows, if any; else each trial draws n_train and n_test rows from ``truth``.
_Context = namedtuple("_Context", "base train test truth n_train n_test checkpoints")


def _trial_data(context: _Context, trial: int) -> tuple[np.ndarray, Dataset | None]:
    """A trial's training rows and held-out set, which its four variants
    share: drawn from the truth, or a seeded shuffle of the fixed rows."""
    seed = context.base.seed + trial
    if context.train is None:
        train = sample_mixture(context.truth, context.n_train, seed=seed).rows
        test = sample_mixture(context.truth, context.n_test, seed=HELDOUT_SEED_OFFSET + seed)
        return train, Dataset(test.rows)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(context.train.shape[0])
    return context.train[order], None if context.test is None else Dataset(context.test)


def _failed(variant, trial, seed, exc) -> TrialResult:
    return TrialResult(
        variant=variant, trial=trial, seed=seed, final_k=-1,
        heldout_total=None, heldout_per_sample=None, runtime_s=0.0,
        k_at_checkpoints=[], error=f"{type(exc).__name__}: {exc}",
    )


def _trial_group(context: _Context, trials: range) -> dict[tuple[str, int], TrialResult]:
    """Draw each trial's data once, fit the four variants of every trial
    together in one ``run_many`` call and score each run.  A run's
    ``runtime_s`` is the group's fit time over the number of runs in it."""
    out: dict[tuple[str, int], TrialResult] = {}
    fits = []  # (variant, trial, config, rows, test set) of the runs to fit
    for trial in trials:
        seed = context.base.seed + trial
        try:
            rows, test_ds = _trial_data(context, trial)
        except Exception as exc:
            out.update({(v, trial): _failed(v, trial, seed, exc) for v in VARIANTS})
            continue
        fits += [(v, trial, replace(variant_config(context.base, v), seed=seed), rows, test_ds)
                 for v in VARIANTS]
    t0 = time.perf_counter()
    traces = run_many([rows for *_, rows, _ in fits], [cfg for _, _, cfg, _, _ in fits])
    share = (time.perf_counter() - t0) / max(len(fits), 1)
    for (variant, trial, cfg, _, test_ds), trace in zip(fits, traces):
        try:
            if isinstance(trace, Exception):
                raise trace
            ks = trace.k_series()
            total = per = None
            if test_ds is not None:
                total, per = heldout_loglik(trace.final_book, test_ds)
            out[variant, trial] = TrialResult(
                variant=variant, trial=trial, seed=cfg.seed, final_k=trace.k,
                heldout_total=total, heldout_per_sample=per, runtime_s=share,
                k_at_checkpoints=[int(ks[min(c, len(ks)) - 1]) for c in context.checkpoints])
        except Exception as exc:
            out[variant, trial] = _failed(variant, trial, cfg.seed, exc)
    return out


def compare_variants(
    base_config: EngineConfig,
    trials: int,
    train: Dataset | None = None,
    test: Dataset | None = None,
    truth: GaussianMixture | None = None,
    n_train: int = 500,
    n_test: int = 1000,
    workers: int = 1,
) -> BenchReport:
    """Run the four variants (``variant_config`` of ``base_config``) for a
    number of seeded trials, dealt to the workers in turn.

    With a ``truth`` mixture and no fixed training set, every trial draws
    its own train and held-out data once, for all four variants.  With a
    fixed ``train`` dataset, each trial streams a seed-shuffled ordering
    of the same rows.  Failed trials are recorded with their error and
    do not stop the run.  ``trials``, ``workers`` and, without a ``train``
    set, ``n_train`` and ``n_test`` must be integers of at least 1, not
    bools; else ``ValueError`` names the first that is not.
    """
    if train is None and truth is None:
        raise ValueError("either a training dataset or a truth mixture is required")
    for name, value in [("trials", trials), ("workers", workers)] + (
            [("n_train", n_train), ("n_test", n_test)] if train is None else []):
        if not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    context = _Context(
        base_config, None if train is None else train.rows, None if test is None else test.rows,
        truth, n_train, n_test, geometric_checkpoints(n_train if train is None else train.n),
    )
    groups = [range(w, trials, workers) for w in range(min(workers, trials))]
    if len(groups) > 1:
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            done = list(pool.map(_trial_group, [context] * len(groups), groups))
    else:
        done = [_trial_group(context, groups[0])]
    results = {key: row for group in done for key, row in group.items()}
    report = BenchReport(checkpoints=context.checkpoints,
                         rows=[results[v, t] for v in VARIANTS for t in range(trials)])
    report.aggregates = report.recompute_aggregates()
    return report
