"""Tests for the variant-comparison harness."""

import numpy as np
import pytest

from asugs.bench import (
    VARIANTS,
    BenchReport,
    TrialResult,
    compare_variants,
    geometric_checkpoints,
    variant_config,
)
from dataclasses import replace

from asugs.data import Dataset, generate_grid_mixture, heldout_loglik, sample_mixture
from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig


class TestVariantConfig:
    def test_adaptive_variants_sample(self):
        base = EngineConfig(seed=3)
        cfg = variant_config(base, "ASUGS")
        assert cfg.fixed_alpha is None and cfg.selection == "sample"
        assert cfg.prune_eps == 0.0 and cfg.merge_eps == 0.0

    def test_pm_keeps_thresholds(self):
        base = EngineConfig(prune_eps=0.02, merge_eps=0.07)
        cfg = variant_config(base, "ASUGS-PM")
        assert (cfg.prune_eps, cfg.merge_eps) == (0.02, 0.07)

    def test_fixed_variants_argmax(self):
        cfg = variant_config(EngineConfig(fixed_alpha=2.0), "SUGS")
        assert cfg.fixed_alpha == 2.0 and cfg.selection == "argmax"
        assert cfg.prune_eps == 0.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config(EngineConfig(), "SVA")


class TestGeometricCheckpoints:
    def test_doubles_and_ends_at_n(self):
        assert geometric_checkpoints(500) == [10, 20, 40, 80, 160, 320, 500]

    def test_small_n(self):
        assert geometric_checkpoints(8) == [8]


class TestCompareVariants:
    def test_requires_data_source(self):
        with pytest.raises(ValueError):
            compare_variants(EngineConfig(), trials=1)

    def test_trial_failure_recorded_run_continues(self):
        """A poisoned stream fails its trials without stopping the rest."""
        rows = np.array([[0.0, 0.0], [np.inf, 0.0], [1.0, 1.0]])
        report = compare_variants(
            EngineConfig(seed=0, prior=PriorConfig.default(2)),
            trials=2, train=Dataset(rows=rows),
        )
        assert len(report.rows) == 2 * len(VARIANTS)
        assert all(r.error is not None for r in report.rows)
        assert all("step" in r.error for r in report.rows)

    def test_rows_deterministic_and_paired(self):
        truth = generate_grid_mixture(2, 0.05, 1.0)
        cfg = EngineConfig(seed=5, prior=PriorConfig.from_scale(2, 0.05))
        a = compare_variants(cfg, trials=2, truth=truth, n_train=80, n_test=40)
        b = compare_variants(cfg, trials=2, truth=truth, n_train=80, n_test=40)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.variant, ra.trial, ra.seed) == (rb.variant, rb.trial, rb.seed)
            assert ra.final_k == rb.final_k
            assert ra.heldout_total == rb.heldout_total
        seeds = {r.trial: r.seed for r in a.rows if r.variant == "ASUGS"}
        assert seeds == {0: 5, 1: 6}  # seed_base + trial_index

    def test_adding_trials_preserves_existing(self):
        truth = generate_grid_mixture(2, 0.05, 1.0)
        cfg = EngineConfig(seed=1, prior=PriorConfig.from_scale(2, 0.05))
        small = compare_variants(cfg, trials=2, truth=truth, n_train=60, n_test=30)
        big = compare_variants(cfg, trials=3, truth=truth, n_train=60, n_test=30)
        key = lambda r: (r.variant, r.trial)
        small_map = {key(r): r.heldout_total for r in small.rows}
        big_map = {key(r): r.heldout_total for r in big.rows}
        for k, v in small_map.items():
            assert big_map[k] == v

    def test_aggregates_recomputable(self):
        truth = generate_grid_mixture(2, 0.05, 1.0)
        cfg = EngineConfig(seed=2, prior=PriorConfig.from_scale(2, 0.05))
        report = compare_variants(cfg, trials=3, truth=truth,
                                  n_train=60, n_test=30)
        again = report.recompute_aggregates()
        for variant, agg in report.aggregates.items():
            np.testing.assert_allclose(agg["mean_k"], again[variant]["mean_k"],
                                       atol=1e-12)
            np.testing.assert_allclose(agg["var_k"], again[variant]["var_k"],
                                       atol=1e-12)

    def test_worker_pool_matches_serial(self):
        truth = generate_grid_mixture(2, 0.05, 1.0)
        cfg = EngineConfig(seed=4, prior=PriorConfig.from_scale(2, 0.05))
        serial = compare_variants(cfg, trials=2, truth=truth,
                                  n_train=60, n_test=30, workers=1)
        parallel = compare_variants(cfg, trials=2, truth=truth,
                                    n_train=60, n_test=30, workers=2)
        assert len(serial.rows) == len(parallel.rows) == 2 * len(VARIANTS)
        for rs, rp in zip(serial.rows, parallel.rows):  # every field but the timing
            assert replace(rs, runtime_s=0.0) == replace(rp, runtime_s=0.0)


    @pytest.mark.parametrize("trials, workers", [(0, 1), (-1, 1), (1, 0), (2, -2)])
    def test_counts_below_one_rejected(self, trials, workers):
        truth = generate_grid_mixture(2, 0.05, 1.0)
        with pytest.raises(ValueError, match="at least 1"):
            compare_variants(EngineConfig(), trials=trials, truth=truth, workers=workers)

    @pytest.mark.parametrize("name, value", [
        ("trials", 2.5), ("workers", 1.5), ("trials", True), ("workers", np.True_),
        ("n_train", 0), ("n_test", 0), ("n_train", 2.5), ("n_test", True)])
    def test_sizes_checked_up_front(self, name, value):
        """A size that is a bool, not an integer or below 1 raises a
        ``ValueError`` naming it before any trial runs; ``n_train`` and
        ``n_test`` are checked only without a ``train`` set, which they do
        not size."""
        truth = generate_grid_mixture(2, 0.05, 1.0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
            compare_variants(EngineConfig(), **{"trials": 2, "truth": truth, name: value})
        if name.startswith("n_"):
            train = Dataset(sample_mixture(truth, 12, seed=0).rows)
            report = compare_variants(EngineConfig(), trials=1, train=train, **{name: value})
            assert all(row.error is None for row in report.rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_solo_runs(self, workers):
        """Rows of trials fitted in lockstep against each trial fitted by
        itself with ``run``: the final k, the k at each checkpoint and the
        held-out total are the same."""
        truth = generate_grid_mixture(2, 0.05, 1.0)
        cfg = EngineConfig(seed=8, prior=PriorConfig.from_scale(2, 0.05))
        report = compare_variants(cfg, trials=3, truth=truth, n_train=90, n_test=40,
                                  workers=workers)
        assert [(r.variant, r.trial) for r in report.rows] == [
            (v, t) for v in VARIANTS for t in range(3)]
        for row in report.rows:
            seed = cfg.seed + row.trial
            trace = run(sample_mixture(truth, 90, seed=seed).rows,
                        replace(variant_config(cfg, row.variant), seed=seed))
            ks = trace.k_series()
            total, _ = heldout_loglik(trace.final_book,
                                      Dataset(sample_mixture(truth, 40, seed=40000 + seed).rows))
            assert row.error is None and row.seed == seed
            assert row.final_k == trace.k
            assert row.k_at_checkpoints == [int(ks[min(c, len(ks)) - 1])
                                            for c in report.checkpoints]
            assert row.heldout_total == total

    def test_each_trial_draws_its_data_once(self, monkeypatch):
        """A truth-mode trial draws its train and held-out rows once for its
        four variants: 3 trials make 6 draws."""
        import asugs.bench as bench_mod

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return sample_mixture(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "sample_mixture", counted)
        truth = generate_grid_mixture(2, 0.05, 1.0)
        report = compare_variants(EngineConfig(seed=2, prior=PriorConfig.from_scale(2, 0.05)),
                                  trials=3, truth=truth, n_train=60, n_test=30)
        assert sorted(calls) == [2, 3, 4, 40002, 40003, 40004]
        assert all(r.error is None for r in report.rows)

    def test_runtime_is_the_group_share(self):
        """Every trial of one group reports the group's fit time over its
        size, so the rows sum to the engine time."""
        truth = generate_grid_mixture(2, 0.05, 1.0)
        report = compare_variants(EngineConfig(seed=3, prior=PriorConfig.from_scale(2, 0.05)),
                                  trials=2, truth=truth, n_train=60, n_test=30)
        assert len({r.runtime_s for r in report.rows}) == 1
        assert report.rows[0].runtime_s > 0.0


class TestBenchReportFailureAccounting:
    def test_failed_rows_excluded_from_aggregates(self):
        rows = [
            TrialResult("ASUGS", 0, 0, 5, -1.0, -0.1, 0.1, [3, 5]),
            TrialResult("ASUGS", 1, 1, -1, None, None, 0.0, [], error="boom"),
        ]
        report = BenchReport(checkpoints=[10, 20], rows=rows)
        agg = report.recompute_aggregates()
        assert agg["ASUGS"]["mean_k"] == [3.0, 5.0]
