"""Tests for the ground-truth mixture kernels and the shared log-sum-exp:
sampling against a per-row loop, the density against scipy, the -inf
edge of the log-sum-exp, and run_with_diagnostics checkpoints against a
solve-based oracle."""

import math
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError, cholesky
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from asugs.data import generate_grid_mixture, sample_mixture
from asugs.diagnostics import log_mixture_predictive_rows, run_with_diagnostics
from asugs.engine import ClusterBook, EngineConfig, run
from asugs.mixture import GaussianMixture, log_sum_exp
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density,
    prior_predictive,
    student_t_log_norm,
    student_t_shape,
)
from grid_oracle import tensor_grid


def random_mixture(d: int, k: int, seed: int) -> GaussianMixture:
    g = np.random.default_rng(seed)
    a = g.normal(size=(k, d, d))
    covs = a @ np.swapaxes(a, 1, 2) / d + 0.5 * np.eye(d)
    return GaussianMixture(g.dirichlet(np.ones(k)), 3.0 * g.normal(size=(k, d)), covs)


def sample_per_row(mix: GaussianMixture, n: int, rng: np.random.Generator):
    """Reference sampler: one normal vector per row, in row order."""
    labels = rng.choice(mix.n_components, size=n, p=mix.weights)
    out = np.empty((n, mix.dim))
    chols = [cholesky(cov) for cov in mix.covariances]
    for i, h in enumerate(labels):
        out[i] = mix.means[h] + chols[h] @ rng.standard_normal(mix.dim)
    return out, labels


def logpdf_scipy(mix: GaussianMixture, ys: np.ndarray) -> np.ndarray:
    comps = [math.log(w) + multivariate_normal(mu, cov).logpdf(ys)
             for w, mu, cov in zip(mix.weights, mix.means, mix.covariances)]
    return logsumexp(np.reshape(comps, (mix.n_components, -1)), axis=0)


class TestSample:
    @pytest.mark.parametrize("d", [1, 2, 3, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_per_row_loop(self, d, seed):
        mix = random_mixture(d, 4, seed=10 * d + seed)
        got = mix.sample(500, np.random.default_rng(seed))
        want = sample_per_row(mix, 500, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_component_without_rows_and_single_row(self):
        """A weight-0 component draws no row; n = 1 draws one."""
        mix = random_mixture(3, 3, seed=5)
        mix = GaussianMixture(np.array([0.7, 0.0, 0.3]), mix.means, mix.covariances)
        for n in (1, 200):
            ys, labels = mix.sample(n, np.random.default_rng(n))
            want = sample_per_row(mix, n, np.random.default_rng(n))
            assert ys.shape == (n, 3) and not np.any(labels == 1)
            assert np.array_equal(ys, want[0]) and np.array_equal(labels, want[1])


class TestLogpdf:
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_matches_scipy(self, d):
        mix = random_mixture(d, 5, seed=d)
        ys, _ = mix.sample(300, np.random.default_rng(d))
        ys = np.vstack([ys, ys + 2.0])  # rows in the tails too
        np.testing.assert_allclose(mix.logpdf(ys), logpdf_scipy(mix, ys), rtol=1e-12)

    def test_not_positive_definite_rejected_at_construction(self):
        covs = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(LinAlgError):
            GaussianMixture(np.array([0.5, 0.5]), np.zeros((2, 2)), covs)

    def test_asymmetric_covariance_rejected(self):
        """The second covariance is positive definite but not symmetric."""
        covs = np.array([np.eye(2), [[2.0, 0.5], [0.0, 2.0]]])
        with pytest.raises(ValueError, match=r"^covariances must be symmetric$"):
            GaussianMixture(np.array([0.5, 0.5]), np.zeros((2, 2)), covs)

    @pytest.mark.parametrize("field", ["weights", "means", "covariances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected_naming_it(self, field, bad):
        """A NaN weight would pass the simplex check and a NaN covariance
        the symmetry check, so finiteness is checked first."""
        parts = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
                 "covariances": np.array([np.eye(2), np.eye(2)])}
        parts[field] = parts[field].copy()
        parts[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GaussianMixture(**parts)

    @pytest.mark.parametrize("weights, means, covariances", [
        ([0.5, 0.5], [[0.0, 0.0]], np.eye(2)),
        ([1.0], [[0.0, 0.0]], np.eye(3)),
        ([1.0], [[[0.0, 0.0]]], np.eye(2)),
        ([[1.0]], [[0.0, 0.0]], np.eye(2)),
    ], ids=["two-weights-one-mean", "covariance-of-another-d", "means-3-axes",
            "weights-2-axes"])
    def test_shapes_that_disagree_rejected(self, weights, means, covariances):
        """Checked at construction, not left to fail in logpdf or sample."""
        with pytest.raises(ValueError, match=r"weights \(.*\), means \(.*\) and "
                                             r"covariances \(.*\) do not describe one mixture"):
            GaussianMixture(weights, means, covariances)


# the quadratic form of these rows overflows to inf, so every term is -inf
OVERFLOW_ROWS = np.array([[1e160, 0.0], [1e300, 1e300]])
ORDINARY_ROWS = np.array([[0.2, -0.1], [1.5, 1.5]])


class TestLogSumExp:
    def test_column_of_minus_inf_is_minus_inf(self):
        logs = np.array([[-np.inf, 0.0, -1.0], [-np.inf, -np.inf, -2.0]])
        kept = logs.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_sum_exp(logs)
        np.testing.assert_array_equal(logs, kept)  # the argument is left as it is
        assert got[0] == -np.inf
        np.testing.assert_allclose(got[1:], logsumexp(logs[:, 1:], axis=0), rtol=1e-15)

    def test_truth_and_fitted_densities_at_overflowing_rows(self):
        truth = generate_grid_mixture(4, 0.025, 1.0)
        rows = sample_mixture(truth, 300, seed=1).rows
        prior = PriorConfig.from_scale(2, 0.025)
        book = run(rows, EngineConfig(seed=1, prior=prior)).final_book
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for logdens in (truth.logpdf, lambda ys: log_mixture_predictive_rows(book, ys),
                            lambda ys: log_predictive_density(prior.state, ys)):
                assert np.all(logdens(OVERFLOW_ROWS) == -np.inf)
                assert np.all(np.isfinite(logdens(ORDINARY_ROWS)))


def random_book(d: int, k: int, seed: int):
    """k clusters with covariances of at least 4 I, so that every log
    density scored below is negative and well away from 0."""
    g = np.random.default_rng(seed)
    posts = []
    for _ in range(k):
        a = g.normal(size=(d, d))
        posts.append(NiwPosterior(3.0 * g.normal(size=d), g.uniform(1.0, 50.0),
                                  d / 2.0 + g.uniform(1.0, 20.0), a @ a.T / d + 4.0 * np.eye(d)))
    book = ClusterBook(d, n=100)
    for post, m in zip(posts, g.integers(1, 30, size=k).tolist()):
        book.add(post, m, float(m))
    return book, posts


class TestRowScorer:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("n_rows", [1, 7, 5000])
    def test_matches_per_cluster_density_and_scipy_logsumexp(self, d, n_rows):
        """The d x N row scorer against one ``log_predictive_density`` call
        per row and cluster, summed by scipy's ``logsumexp``."""
        book, posts = random_book(d, 3, seed=10 * d + n_rows)
        ys = book.mu[np.arange(n_rows) % book.k] + 2.0 * np.random.default_rng(d).normal(
            size=(n_rows, d))
        log_w = np.log(book.m / book.total_count)
        want = logsumexp([[lw + log_predictive_density(post, y) for y in ys]
                          for lw, post in zip(log_w, posts)], axis=0)
        np.testing.assert_allclose(log_mixture_predictive_rows(book, ys), want, rtol=1e-14)


def fitted_logpdf_solve(book, ys: np.ndarray) -> np.ndarray:
    """Fitted predictive mixture from each cluster's sigma by a triangular
    solve, weighted by assignment counts, summed by scipy."""
    logs = []
    for h in range(book.k):
        L = cholesky(book.sigma[h])
        z = np.linalg.solve(L, (ys - book.mu[h]).T)
        logdet = 2.0 * np.log(np.diag(L)).sum()
        c, delta = book.c[h], book.delta[h]
        log_norm = student_t_log_norm(student_t_shape(c, delta)[0], delta, book.mu.shape[1], logdet)
        logs.append(math.log(book.m[h] / book.total_count) + log_norm
                    - (delta + 0.5) * np.log1p(c / (1.0 + c) / (2.0 * delta) * (z * z).sum(axis=0)))
    return logsumexp(np.array(logs), axis=0)


def truth_logpdf_solve(truth: GaussianMixture, ys: np.ndarray) -> np.ndarray:
    logs = []
    for w, mu, cov in zip(truth.weights, truth.means, truth.covariances):
        L = cholesky(cov)
        z = np.linalg.solve(L, (ys - mu).T)
        logs.append(math.log(w) - 0.5 * (truth.dim * math.log(2.0 * math.pi)
                                         + 2.0 * np.log(np.diag(L)).sum() + (z * z).sum(axis=0)))
    return logsumexp(np.array(logs), axis=0)


def test_checkpoints_match_solve_oracle():
    """The golden corpus's diagnostics stream (grid, seed 5, every 37
    steps): L2, KL and likelihood ratio at every checkpoint agree with the
    same quantities from solve-based densities, to rel 1e-12."""
    truth = generate_grid_mixture(4, 0.025, 1.0)
    rows = sample_mixture(truth, 1000, seed=5).rows
    cfg = EngineConfig(seed=5, prior=PriorConfig.from_scale(2, 0.025)).resolve(2)
    every, kl_mc, grid_points = 37, 5000, 200
    trace = run_with_diagnostics(rows, cfg, truth=truth, checkpoint_every=every)
    max_sd = math.sqrt(max(np.linalg.eigvalsh(cov).max() for cov in truth.covariances))
    kl_ys, _ = sample_per_row(truth, kl_mc, np.random.Generator(np.random.PCG64(0)))
    want, pending = [], None

    def oracle(i, book):
        nonlocal pending
        if i % every == 0:
            mus = np.vstack([truth.means, book.mu])
            grid, weights = tensor_grid(mus.min(axis=0) - 6.0 * max_sd,
                                        mus.max(axis=0) + 6.0 * max_sd, grid_points)
            diff = np.exp(fitted_logpdf_solve(book, grid)) - np.exp(truth_logpdf_solve(truth, grid))
            kl = truth_logpdf_solve(truth, kl_ys) - fitted_logpdf_solve(book, kl_ys)
            want.append((math.sqrt(np.sum(diff * diff * weights)), kl.mean(), pending))
        if (i + 1) % every == 0 and i < len(rows):
            y = rows[i]
            log_ratio = prior_predictive(cfg.prior, y) - fitted_logpdf_solve(book, y[None])[0]
            pending = math.exp(log_ratio)

    run(rows, cfg, on_step=oracle)
    assert len(want) == len(trace.checkpoints) == len(rows) // every
    for cp, (l2, kl, lr) in zip(trace.checkpoints, want):
        assert cp.l2_distance == pytest.approx(l2, rel=1e-12)
        assert cp.kl_estimate == pytest.approx(kl, rel=1e-12)
        assert cp.likelihood_ratio == pytest.approx(lr, rel=1e-12)
