"""Tests for the diagnostics layer: predictive mixture, likelihood
ratio, innovation probability, divergences and the standalone numeric
growth checks."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import asugs.engine as engine_mod
from asugs.data import generate_grid_mixture, sample_mixture
from asugs.diagnostics import (
    CHECKPOINT_KL_DRAWS,
    CHECKPOINT_KL_SEED,
    CHECKPOINT_L2_GRID,
    McEstimate,
    gaussian_limit_deviation,
    harmonic_log_product_ratio,
    innovation_probability,
    kl_divergence_estimate,
    l2_distance_to_truth,
    likelihood_ratio,
    log_mixture_predictive_rows,
    loglog_product_bound,
    run_many_with_diagnostics,
    run_with_diagnostics,
    slope_with_stderr,
)
from asugs.engine import (
    ClusterBook,
    ConfigError,
    EngineConfig,
    RunTrace,
    StepError,
    StepRecord,
    responsibilities,
    run,
)
from asugs.mixture import GaussianMixture
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density,
    log_predictive_density_rows,
    posterior_update,
    prior_predictive,
)
from grid_oracle import tensor_grid


def make_book(posts, ms, n):
    book = ClusterBook(n=n)
    for post, m in zip(posts, ms):
        book.add(post, m, float(m))
    return book


def near_gaussian_post(mu, var, d=1):
    """A posterior whose predictive is numerically a Gaussian N(mu, var)."""
    big = 1e8
    return NiwPosterior(mu=np.atleast_1d(np.asarray(mu, dtype=float)),
                        c=big, delta=big / 2.0, sigma=var * np.eye(d))


def mixture_predictive(book, y):
    """The fitted predictive density at one point, linear domain."""
    return math.exp(log_mixture_predictive_rows(book, y)[0])


class TestMixturePredictive:
    def test_single_cluster_is_its_density(self):
        post = NiwPosterior(np.array([0.3]), 4.0, 3.0, np.array([[0.7]]))
        book = make_book([post], [5], n=5)
        y = np.array([0.9])
        assert mixture_predictive(book, y) == pytest.approx(
            math.exp(log_predictive_density(post, y)), rel=1e-12
        )

    def test_equal_counts_average_densities(self):
        pa = NiwPosterior(np.array([-1.0]), 4.0, 3.0, np.array([[0.7]]))
        pb = NiwPosterior(np.array([2.0]), 6.0, 4.0, np.array([[0.4]]))
        book = make_book([pa, pb], [1, 1], n=2)
        y = np.array([0.5])
        expected = 0.5 * (
            math.exp(log_predictive_density(pa, y))
            + math.exp(log_predictive_density(pb, y))
        )
        assert mixture_predictive(book, y) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one(self):
        pa = NiwPosterior(np.array([-1.0]), 4.0, 3.0, np.array([[0.7]]))
        pb = NiwPosterior(np.array([2.0]), 6.0, 4.0, np.array([[0.4]]))
        # counts that do not sum to n (as after pruning): still a density
        book = make_book([pa, pb], [3, 5], n=20)
        total, _ = quad(lambda y: mixture_predictive(book, np.array([y])),
                        -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_empty_book_rejected(self):
        with pytest.raises(ValueError, match="empty book"):
            log_mixture_predictive_rows(ClusterBook(), np.zeros(1))
        with pytest.raises(ValueError, match="empty book"):
            likelihood_ratio(ClusterBook(), PriorConfig.default(1), np.zeros(1))

    def test_memory_is_one_k_by_n_array(self):
        """16 clusters, d = 2, 5000 rows: one K x N array (640 kB) and three
        d x N buffers (240 kB) peak at 0.88 MB under ``tracemalloc``.  The
        N x d form, which took two more K x N temporaries in its
        log-sum-exp, peaked at 2.04 MB."""
        truth = generate_grid_mixture(4, 0.025, 1.0)
        posts = [NiwPosterior(mu, 100.0, 50.0, 0.025 * np.eye(2)) for mu in truth.means]
        book = make_book(posts, [100] * 16, n=1600)
        ys, _ = truth.sample(5000, np.random.default_rng(0))
        log_mixture_predictive_rows(book, ys)
        tracemalloc.start()
        try:
            log_mixture_predictive_rows(book, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestLikelihoodRatio:
    def test_prior_state_gives_unit_ratio(self):
        prior = PriorConfig.default(1)
        book = make_book([prior.state], [1], n=1)
        for y in (-3.0, 0.0, 1.7):
            assert likelihood_ratio(book, prior, np.array([y])) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_fitted_cluster_dominates_at_its_mean(self):
        prior = PriorConfig.default(1)
        book = make_book([near_gaussian_post(0.0, 0.01)], [100], n=100)
        assert likelihood_ratio(book, prior, np.array([0.0])) < 0.2

    def test_tail_point_favors_prior(self):
        prior = PriorConfig(mu0=np.zeros(1), sigma0=np.array([[25.0]]))
        book = make_book([near_gaussian_post(0.0, 0.01)], [100], n=100)
        assert likelihood_ratio(book, prior, np.array([4.0])) > 1.0


class TestInnovationProbability:
    def test_balance_point(self):
        """When ratio times alpha equals the assigned count, tau = 1/2."""
        prior = PriorConfig.default(1)
        book = make_book([prior.state], [10], n=10)
        # the ratio is exactly 1 here, so alpha = M gives the balance point
        alpha = 10.0
        tau = innovation_probability(book, alpha, prior, np.array([0.7]))
        assert tau == pytest.approx(0.5, abs=1e-12)

    def test_alpha_to_zero_limit(self):
        prior = PriorConfig.default(1)
        book = make_book([prior.state], [10], n=10)
        assert innovation_probability(book, book.alpha(1e9), prior, np.zeros(1)) < 1e-8

    def test_matches_engine_responsibilities(self):
        """Cross-module identity on random states, tight tolerance."""
        rng = np.random.default_rng(21)
        prior = PriorConfig.default(2)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            posts, ms = [], []
            for _ in range(k):
                a = rng.normal(size=(2, 2))
                posts.append(NiwPosterior(rng.normal(size=2), rng.uniform(0.5, 9),
                                          rng.uniform(1.5, 9), a @ a.T + np.eye(2)))
                ms.append(int(rng.integers(1, 40)))
            book = make_book(posts, ms, n=sum(ms))
            alpha = book.alpha(rng.uniform(0.2, 3.0))
            y = rng.normal(size=2) * 3
            tau = innovation_probability(book, alpha, prior, y)
            q = responsibilities(book.stack, y[None], [math.log(alpha) + prior_predictive(prior, y)])
            assert tau == pytest.approx(q[book.k], abs=1e-12)


def row_quadrature_l2(book, truth, grid_points, pad_stds=6.0):
    """The L2 quadrature on the rows of the tensor grid, both mixtures
    summed over components by log-sum-exp: the reference for the
    separable grid path."""
    max_sd = math.sqrt(max(np.linalg.eigvalsh(cov).max() for cov in truth.covariances))
    mus = np.vstack([truth.means, book.mu])
    grid, weights = tensor_grid(mus.min(axis=0) - pad_stds * max_sd,
                                mus.max(axis=0) + pad_stds * max_sd, grid_points)
    diff = np.exp(log_mixture_predictive_rows(book, grid)) - truth.pdf(grid)
    return math.sqrt(np.sum(diff * diff * weights))


def random_full_cov(g, d, scale):
    a = g.normal(size=(d, d))
    return scale * scale * (a @ a.T / d + 0.3 * np.eye(d))


class TestL2Distance:
    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([1, 2]), k_book=st.integers(1, 4), k_truth=st.integers(1, 4),
           log_scale=st.floats(-3.0, 3.0), grid_points=st.integers(20, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_grid_path_matches_row_quadrature(self, d, k_book, k_truth, log_scale,
                                              grid_points, seed):
        g = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        truth = GaussianMixture(g.dirichlet(np.ones(k_truth)),
                                3.0 * scale * g.normal(size=(k_truth, d)),
                                np.array([random_full_cov(g, d, scale) for _ in range(k_truth)]))
        posts = [NiwPosterior(3.0 * scale * g.normal(size=d), g.uniform(1.0, 50.0),
                              (d + 2.0) / 2.0 + g.uniform(0.0, 50.0), random_full_cov(g, d, scale))
                 for _ in range(k_book)]
        ms = g.integers(1, 50, size=k_book)
        book = make_book(posts, ms, n=int(ms.sum()))
        assert l2_distance_to_truth(book, truth, grid_points=grid_points) == pytest.approx(
            row_quadrature_l2(book, truth, grid_points), rel=1e-12)

    def test_disjoint_supports_match_row_quadrature(self):
        truth = GaussianMixture(np.array([1.0]), np.array([[40.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(-40.0, 1.0)], [1000], n=1000)
        got = l2_distance_to_truth(book, truth, grid_points=1200, pad_stds=8.0)
        assert got == pytest.approx(row_quadrature_l2(book, truth, 1200, pad_stds=8.0), rel=1e-12)

    def test_grid_memory_is_o_grid(self):
        """One call on a 16-cluster book at 200 x 200 points peaks well
        below a single K x N array (16 x 40 000 floats = 5.1 MB)."""
        truth = generate_grid_mixture(4, 0.025, 1.0)
        posts = [NiwPosterior(mu, 100.0, 50.0, 0.025 * np.eye(2)) for mu in truth.means]
        book = make_book(posts, [100] * 16, n=1600)
        l2_distance_to_truth(book, truth, grid_points=200)
        tracemalloc.start()
        try:
            l2_distance_to_truth(book, truth, grid_points=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_grid_holds_three_grid_arrays(self):
        """The same call holds the sum, one component buffer and the
        quadrature weights (3 x 320 kB) and about 0.14 MB of fixed overhead:
        1.10 MB under ``tracemalloc``.  Fresh grid-sized temporaries per
        component had peaked at 1.74 MB."""
        truth = generate_grid_mixture(4, 0.025, 1.0)
        posts = [NiwPosterior(mu, 100.0, 50.0, 0.025 * np.eye(2)) for mu in truth.means]
        book = make_book(posts, [100] * 16, n=1600)
        l2_distance_to_truth(book, truth, grid_points=200)
        tracemalloc.start()
        try:
            l2_distance_to_truth(book, truth, grid_points=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3e6

    def test_matched_fit_is_close(self):
        truth = GaussianMixture(np.array([1.0]), np.array([[0.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(0.0, 1.0)], [1000], n=1000)
        assert l2_distance_to_truth(book, truth) < 1e-4

    def test_disjoint_supports_add_in_quadrature(self):
        """Far-apart densities: distance^2 ~ integral of each squared."""
        truth = GaussianMixture(np.array([1.0]), np.array([[40.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(-40.0, 1.0)], [1000], n=1000)
        # each unit Gaussian has integral of square = 1/(2 sqrt(pi))
        expected = math.sqrt(2.0 / (2.0 * math.sqrt(math.pi)))
        got = l2_distance_to_truth(book, truth, grid_points=1200, pad_stds=8.0)
        assert got == pytest.approx(expected, rel=1e-3)

    def test_monte_carlo_path_for_high_dim(self):
        d = 3
        truth = GaussianMixture(np.array([1.0]), np.zeros((1, d)),
                                np.eye(d)[None, :, :])
        book = make_book([near_gaussian_post(np.zeros(d), 1.0, d=d)], [500], n=500)
        est = l2_distance_to_truth(book, truth, n_mc=4000, seed=3)
        assert isinstance(est, McEstimate)
        assert est.value < 5 * max(est.stderr, 1e-6) + 1e-3


class TestEstimatorSizes:
    """A size below 2 leaves no spread to estimate an error from, or no
    grid step: rejected by name before any draw, with no numpy warning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def case(d):
        truth = GaussianMixture(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None, :, :])
        return truth, make_book([near_gaussian_post(np.zeros(d), 1.0, d=d)], [10], n=10)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_kl_needs_two_draws(self, monkeypatch, n_mc):
        monkeypatch.setattr(GaussianMixture, "sample", None)  # any draw fails
        truth, book = self.case(1)
        with pytest.raises(ValueError, match=f"n_mc must be at least 2, got {n_mc}"):
            kl_divergence_estimate(truth, book, n_mc=n_mc)

    @pytest.mark.parametrize("d", [1, 2])
    def test_l2_grid_needs_two_points(self, d):
        truth, book = self.case(d)
        with pytest.raises(ValueError, match="grid_points must be at least 2, got 1"):
            l2_distance_to_truth(book, truth, grid_points=1)

    def test_l2_monte_carlo_needs_two_draws(self, monkeypatch):
        monkeypatch.setattr(GaussianMixture, "sample", None)
        truth, book = self.case(3)
        with pytest.raises(ValueError, match="n_mc must be at least 2, got 1"):
            l2_distance_to_truth(book, truth, n_mc=1)

    def test_two_draws_suffice(self):
        truth, book = self.case(3)
        for est in (kl_divergence_estimate(truth, book, n_mc=2),
                    l2_distance_to_truth(book, truth, n_mc=2)):
            assert math.isfinite(est.value) and math.isfinite(est.stderr)


class TestKlDivergence:
    def test_identical_densities_near_zero(self):
        truth = GaussianMixture(np.array([1.0]), np.array([[0.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(0.0, 1.0)], [100], n=100)
        est = kl_divergence_estimate(truth, book, n_mc=4000, seed=0)
        assert abs(est.value) <= 3 * est.stderr + 1e-6

    @pytest.mark.parametrize("m", [0.5, 1.5])
    def test_shifted_gaussians_closed_form(self, m):
        """KL(N(0,1) || N(m,1)) = m^2/2, within 3 MC standard errors."""
        truth = GaussianMixture(np.array([1.0]), np.array([[0.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(m, 1.0)], [100], n=100)
        hits = 0
        for seed in range(20):
            est = kl_divergence_estimate(truth, book, n_mc=3000, seed=seed)
            if abs(est.value - m * m / 2.0) <= 3 * est.stderr:
                hits += 1
        assert hits == 20

    def test_separated_pair_is_positive(self):
        truth = GaussianMixture(np.array([1.0]), np.array([[0.0]]),
                                np.array([[[1.0]]]))
        book = make_book([near_gaussian_post(2.0, 1.0)], [100], n=100)
        est = kl_divergence_estimate(truth, book, n_mc=3000, seed=1)
        assert est.value > 3 * est.stderr


class TestHarmonicLogProductRatio:
    @pytest.mark.parametrize("n", [2, 10, 1000, 100_000])
    def test_unit_alpha_telescopes_exactly(self, n):
        assert harmonic_log_product_ratio(1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_two_closed_form(self):
        """Product telescopes to n(n+1)/2; ratio = log(n(n+1)/2)/(2 log n)."""
        n = 1_000_000
        oracle = math.log(n * (n + 1) / 2) / (2 * math.log(n))
        got = harmonic_log_product_ratio(2.0, n)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert abs(got - 1.0) < 0.05

    def test_alpha_half_monotone_approach(self):
        vals = [abs(harmonic_log_product_ratio(0.5, 10 ** e) - 1.0)
                for e in (3, 4, 5, 6)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.05

    def test_input_validation(self):
        with pytest.raises(ValueError):
            harmonic_log_product_ratio(0.0, 100)
        with pytest.raises(ValueError):
            harmonic_log_product_ratio(1.0, 1)


class TestLoglogProductBound:
    def test_base_case_holds_by_construction(self):
        chk = loglog_product_bound(1.0, 2, 3)
        assert chk.holds and chk.slack[0] >= 0

    def test_phi_one_from_two(self):
        chk = loglog_product_bound(1.0, 2, 100_000)
        assert chk.holds

    def test_tightest_at_base_and_positive_throughout(self):
        """The constant is built to nearly bind at n_start; the gap only
        widens from there (sum-vs-integral comparison), staying positive."""
        chk = loglog_product_bound(2.0, 10, 100_000)
        assert chk.holds
        assert chk.min_slack > 0
        assert int(np.argmin(chk.slack)) == 0
        assert chk.slack[-1] > chk.slack[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loglog_product_bound(1.0, 1, 100)
        with pytest.raises(ValueError):
            loglog_product_bound(1.0, 10, 10)


def row_built_deviation(post, mean, cov, n_grid=160, pad_stds=5.0):
    """The sup-norm gap on the rows of the tensor grid: the Student-t by the
    row scorer, the Gaussian by ``GaussianMixture.pdf``."""
    mean, cov = np.asarray(mean, dtype=float).reshape(-1), np.asarray(cov, dtype=float)
    sd = math.sqrt(np.linalg.eigvalsh(cov).max())
    grid, _ = tensor_grid(mean - pad_stds * sd, mean + pad_stds * sd, n_grid)
    gap = np.exp(log_predictive_density_rows(post, grid))
    gap -= GaussianMixture(weights=np.ones(1), means=mean, covariances=cov).pdf(grid)
    return float(np.max(np.abs(gap)))


class TestGaussianLimitDeviation:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_row_built_grid(self, d):
        """The separable grid evaluation against the row-built one, for
        states near and far from the target, at two grid sizes."""
        rng = np.random.default_rng(d)
        for _ in range(6):
            a, b = rng.normal(size=(d, d)), rng.normal(size=(d, d))
            mean, cov = rng.normal(size=d), a @ a.T + 0.2 * np.eye(d)
            post = NiwPosterior(mean + rng.normal(size=d) * 10.0 ** rng.uniform(-3, 0),
                                10.0 ** rng.uniform(0, 4), d / 2.0 + 10.0 ** rng.uniform(0, 4),
                                b @ b.T + 0.2 * np.eye(d))
            for n_grid in (80, 160):
                assert gaussian_limit_deviation(post, mean, cov, n_grid=n_grid) == pytest.approx(
                    row_built_deviation(post, mean, cov, n_grid=n_grid), rel=1e-12)

    def test_target_of_another_dim_rejected(self):
        post = NiwPosterior(np.zeros(2), 1.0, 2.0, np.eye(2))
        with pytest.raises(ValueError, match="target has dim 1, state has dim 2"):
            gaussian_limit_deviation(post, np.zeros(1), np.eye(1))

    def test_exact_limit_state(self):
        """Infinite-count surrogate leaves only evaluation error.

        At counts this large the density is limited by log-gamma
        cancellation (~1e-6 relative), far inside any tolerance used on
        data-built posteriors.
        """
        mean = np.array([0.2, -0.4])
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        post = NiwPosterior(mu=mean.copy(), c=1e10, delta=5e9, sigma=cov.copy())
        peak = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(cov)))
        assert gaussian_limit_deviation(post, mean, cov) < 1e-4 * peak

    def test_deviation_shrinks_with_data(self):
        mean = np.zeros(2)
        cov = 0.5 * np.eye(2)
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            post = PriorConfig.default(2).state
            devs, drawn = [], 0
            for n in (100, 1000, 10_000):
                while drawn < n:
                    post = posterior_update(
                        post, mean + math.sqrt(0.5) * rng.standard_normal(2))
                    drawn += 1
                devs.append(gaussian_limit_deviation(post, mean, cov, n_grid=80))
            hits += devs[0] > devs[1] > devs[2]
        assert hits >= 4


def synthetic_trace(k_series):
    records = [
        StepRecord(index=i + 1, label=1, q=np.array([1.0]), alpha_used=1.0,
                   k_after=int(k), innovation=False)
        for i, k in enumerate(k_series)
    ]
    return RunTrace(config=EngineConfig(), records=records, final_book=ClusterBook(n=len(records)))


def growth_exponent(trace):
    """The exponent p of k_n ~ log(n)^p: the ``slope_with_stderr`` slope of
    log k_n against log log n over the trailing half of the run."""
    ks = trace.k_series()
    idx = np.arange(len(ks) // 2, len(ks))
    return slope_with_stderr(np.log(np.log(idx + 2.0)), np.log(ks[idx].astype(float)))[0]


class TestGrowthExponent:
    def test_constant_series_is_zero(self):
        assert growth_exponent(synthetic_trace(np.full(1000, 7))) == 0.0

    def test_log_growth(self):
        # scaled so the integer class count resolves the log trend over
        # the trailing half (a bare ceil(log n) is constant there)
        ns = np.arange(1, 20_001)
        ks = np.round(8.0 * np.log(ns + 1))
        assert growth_exponent(synthetic_trace(ks)) == pytest.approx(1.0, abs=0.15)

    def test_log_squared_growth(self):
        ns = np.arange(1, 20_001)
        ks = np.ceil(np.log(ns + 1) ** 2)
        assert growth_exponent(synthetic_trace(ks)) == pytest.approx(2.0, abs=0.2)

    def test_short_trace_rejected(self):
        # one step leaves a single point, through which no slope is defined
        with pytest.raises(ValueError):
            growth_exponent(synthetic_trace(np.ones(1)))


class TestRunWithDiagnostics:
    def test_checkpoints_recorded_with_truth_metrics(self):
        mix = generate_grid_mixture(2, 0.025, 1.0)
        data = sample_mixture(mix, 300, seed=0)
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.025))
        trace = run_with_diagnostics(data.rows, cfg, truth=mix, checkpoint_every=100)
        assert len(trace.checkpoints) == 3
        for cp in trace.checkpoints:
            assert cp.likelihood_ratio is None or cp.likelihood_ratio > 0
            assert cp.l2_distance is not None and cp.l2_distance >= 0
            assert cp.kl_stderr is not None and cp.kl_stderr > 0
            assert cp.alpha > 0

    def test_l2_decreases_on_converging_run(self):
        """Majority of checkpoints improve on the first one."""
        mix = generate_grid_mixture(4, 0.025, 1.0)
        data = sample_mixture(mix, 500, seed=3)
        cfg = EngineConfig(seed=3, prior=PriorConfig.from_scale(2, 0.025))
        trace = run_with_diagnostics(data.rows, cfg, truth=mix, checkpoint_every=50)
        l2s = [cp.l2_distance for cp in trace.checkpoints]
        later = l2s[1:]
        assert sum(v < l2s[0] for v in later) > len(later) / 2

    @pytest.mark.parametrize("every", [0, -5, 1.5])
    def test_nonpositive_checkpoint_interval_rejected(self, every):
        ys = np.zeros((10, 2))
        with pytest.raises(ConfigError, match="checkpoint_every"):
            run_with_diagnostics(ys, EngineConfig(seed=0), checkpoint_every=every)

    @pytest.fixture()
    def no_steps(self, monkeypatch):
        """Any step of any driver fails the test."""
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the arguments were checked")

        monkeypatch.setattr(engine_mod, "step", no_step)

    @pytest.mark.parametrize("name, value", [("checkpoint_every", 1.5),
                                             ("checkpoint_every", True), ("stream_dim", 3)])
    def test_bad_diagnostics_arguments_rejected_before_any_step(self, no_steps, name, value):
        """A ``checkpoint_every`` that is not a positive integer (``True`` is a
        bool) is rejected; ``stream_dim`` streams ``value`` coordinates
        against the 2-d truth, and the error names both dimensions."""
        truth = generate_grid_mixture(2, 0.025, 1.0)
        ys = sample_mixture(truth, 10, seed=0).rows
        every, match = value, f"checkpoint_every must be a positive integer, got {value!r}"
        if name == "stream_dim":
            ys, every, match = np.tile(ys, 2)[:, :value], 1, "truth has dim 2, stream has dim 3"
        with pytest.raises(ConfigError, match=re.escape(match)):
            run_with_diagnostics(ys, EngineConfig(seed=0), truth=truth, checkpoint_every=every)

    def test_bad_shared_argument_rejected_before_any_step_of_any_stream(self, no_steps):
        truth = generate_grid_mixture(2, 0.025, 1.0)
        streams = [sample_mixture(truth, 10, seed=s).rows for s in range(3)]
        with pytest.raises(ConfigError, match="checkpoint_every must be a positive integer, "
                                              "got 1.5"):
            run_many_with_diagnostics(streams, [EngineConfig(seed=s) for s in range(3)],
                                      truth=truth, checkpoint_every=1.5)

    def test_stream_of_another_dim_fails_alone_in_a_group(self):
        truth = generate_grid_mixture(2, 0.025, 1.0)
        streams = [sample_mixture(truth, 30, seed=s).rows for s in range(3)]
        streams[1] = np.tile(streams[1], 2)[:, :3]
        results = run_many_with_diagnostics(streams, [EngineConfig(seed=s) for s in range(3)],
                                            truth=truth, checkpoint_every=10)
        assert isinstance(results[1], ConfigError)
        assert str(results[1]) == "truth has dim 2, stream has dim 3"
        for r in (0, 2):
            assert results[r].n == 30 and [cp.n for cp in results[r].checkpoints] == [10, 20, 30]

    @pytest.mark.parametrize("fixed_alpha", [None, 1.0])
    def test_checkpoint_alpha_is_the_alpha_the_run_uses(self, fixed_alpha):
        """A checkpoint records the alpha that the next step scores with: the
        fixed one if set, else the adaptive k / (lam + log n)."""
        data = sample_mixture(generate_grid_mixture(4, 0.025, 1.0), 300, seed=1)
        cfg = EngineConfig(seed=1, fixed_alpha=fixed_alpha, prior=PriorConfig.from_scale(2, 0.025))
        trace = run_with_diagnostics(data.rows, cfg, checkpoint_every=100)
        assert [cp.n for cp in trace.checkpoints] == [100, 200, 300]
        for cp in trace.checkpoints[:-1]:
            assert cp.alpha == trace.records[cp.n].alpha_used
        if fixed_alpha is not None:
            assert [cp.alpha for cp in trace.checkpoints] == [fixed_alpha] * 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_cached_draws_keep_standalone_values(self, d):
        """Checkpoint L2 and KL equal the standalone estimators on the same book."""
        if d == 2:
            truth = generate_grid_mixture(2, 0.025, 1.0)
            prior = PriorConfig.from_scale(2, 0.025)
        else:
            g = np.random.default_rng(7)
            truth = GaussianMixture(np.ones(3) / 3.0, 4.0 * g.normal(size=(3, 3)),
                                    np.array([random_full_cov(g, 3, 1.0) for _ in range(3)]))
            prior = PriorConfig.from_scale(3, 1.0, 16)
        rows = sample_mixture(truth, 300, seed=2).rows
        cfg = EngineConfig(seed=2, prior=prior)
        every = 100
        trace = run_with_diagnostics(rows, cfg, truth=truth, checkpoint_every=every)
        want = []

        def oracle(i, book):
            if i % every == 0:
                l2 = l2_distance_to_truth(book, truth, grid_points=CHECKPOINT_L2_GRID)
                kl = kl_divergence_estimate(truth, book, n_mc=CHECKPOINT_KL_DRAWS,
                                            seed=CHECKPOINT_KL_SEED)
                want.append((l2 if d == 2 else l2.value, kl.value, kl.stderr))

        run(rows, cfg, on_step=oracle)
        assert len(want) == len(trace.checkpoints) == 3
        for cp, (l2, kl, kl_se) in zip(trace.checkpoints, want):
            assert (cp.l2_distance, cp.kl_estimate, cp.kl_stderr) == (l2, kl, kl_se)


def mc_truth(d=3):
    g = np.random.default_rng(7)
    return GaussianMixture(np.ones(3) / 3.0, 4.0 * g.normal(size=(3, d)),
                           np.array([random_full_cov(g, d, 1.0) for _ in range(3)]))


class TestRunManyWithDiagnostics:
    """Every run of a group is bit for bit the same stream's solo run."""

    GRID = generate_grid_mixture(3, 0.025, 1.0)

    @pytest.mark.parametrize("case", ["no-truth", "grid-truth", "mc-truth", "unequal", "rejected"])
    def test_group_matches_solo_runs(self, case):
        source, truth = self.GRID, None
        prior = PriorConfig.from_scale(2, 0.025)
        lengths = [240, 240, 240]
        if case == "grid-truth":
            truth = source
        elif case == "mc-truth":
            source = truth = mc_truth()
            prior = PriorConfig.from_scale(3, 1.0, 16)
        elif case == "unequal":
            lengths = [120, 290, 75]
        streams = [sample_mixture(source, n, seed=s).rows for s, n in enumerate(lengths)]
        configs = [EngineConfig(seed=s, prior=prior) for s in range(len(streams))]
        if case == "rejected":
            streams[1] = streams[1].copy()
            streams[1][40, 0] = np.nan
        kwargs = dict(truth=truth, checkpoint_every=30)
        group = run_many_with_diagnostics(streams, configs, **kwargs)
        assert len(group) == len(streams)
        for stream, config, got in zip(streams, configs, group):
            try:
                want = run_with_diagnostics(stream, config, **kwargs)
            except Exception as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert got.checkpoints == want.checkpoints
            assert len(got.checkpoints) == len(stream) // 30
            assert [r.label for r in got.records] == [r.label for r in want.records]
            assert [r.k_after for r in got.records] == [r.k_after for r in want.records]
        if case == "rejected":
            assert isinstance(group[1], StepError)
            assert all(isinstance(group[r], RunTrace) for r in (0, 2))
        if truth is not None:
            assert all(cp.kl_estimate is not None for cp in group[0].checkpoints)


class TestSlopeWithStderr:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, se = slope_with_stderr(x, 3.0 * x + 1.0)
        assert slope == pytest.approx(3.0, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)
