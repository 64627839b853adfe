"""Tests for the conjugate normal-Wishart state and predictive density.

Expected values come from independent oracles computed in this file:
direct quadrature of the defining integrals, closed-form batch versions
of the recursions, and the product form of the multivariate gamma
function.
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gammaln

from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_gamma_ratio,
    log_predictive_density,
    log_predictive_density_rows,
    posterior_update,
    prior_predictive,
    student_t_shape,
)


def log_multivariate_gammaln(a, d):
    """Product-form multivariate log-gamma: the oracle for the ratio."""
    return d * (d - 1) / 4.0 * math.log(math.pi) + sum(
        gammaln(a + (1 - j) / 2.0) for j in range(1, d + 1)
    )


class TestLogGammaRatio:
    def test_a1_d1_against_gamma_quadrature(self):
        """Gamma(1.5)/Gamma(1) via direct quadrature of the Gamma integral."""
        g15, _ = quad(lambda t: t**0.5 * math.exp(-t), 0, np.inf)
        g10, _ = quad(lambda t: math.exp(-t), 0, np.inf)
        expected = math.log(g15 / g10)
        assert log_gamma_ratio(1.0, 1) == pytest.approx(expected, abs=1e-9)
        assert log_gamma_ratio(1.0, 1) == pytest.approx(-0.1207822376, abs=1e-9)

    def test_reciprocal_symmetry(self):
        """(1.5, 1) is the reciprocal of (1, 1): Gamma(2)/Gamma(1.5)."""
        assert log_gamma_ratio(1.5, 1) == pytest.approx(
            -log_gamma_ratio(1.0, 1), rel=1e-12
        )

    def test_telescoping_a3_d2(self):
        """Gamma(3.5)/Gamma(2.5) = 2.5 by the recurrence."""
        assert log_gamma_ratio(3.0, 2) == pytest.approx(math.log(2.5), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0.5, 2)  # denominator argument hits zero

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_multivariate_gamma_reduction(self, d):
        """Equals Gamma_d(a+1/2)/Gamma_d(a) for a grid of a values."""
        for a in np.linspace(0.5 * (d + 1), 40.0, 25):
            oracle = log_multivariate_gammaln(a + 0.5, d) - log_multivariate_gammaln(a, d)
            assert log_gamma_ratio(a, d) == pytest.approx(oracle, rel=1e-10)

    def test_large_argument_no_overflow(self):
        assert np.isfinite(log_gamma_ratio(1e6, 50))

    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_even_d_recurrence_up_to_1e6(self, d):
        """For even d, Gamma(a + 1/2) / Gamma(lo) with lo = a + (1-d)/2 is
        the finite product lo (lo + 1) ... (lo + d/2 - 1); ``math.fsum``
        adds its d/2 logs without further rounding.  a runs from 1e-9 above
        the domain boundary to 1e6.  The ratio is a difference of two
        log-gammas that cancel, so the tolerance is absolute,
        64 eps max(1, |lgamma(a + 1/2)|): both ``math.lgamma`` and scipy's
        ``gammaln`` stay within 16 eps of that scale."""
        lo0 = (d - 1) / 2.0
        a_values = np.concatenate([
            lo0 + np.logspace(-9, 0, 28),        # near the boundary
            np.logspace(math.log10(lo0 + 1.0), 6.0, 40),
            1e6 - np.logspace(-4, 4, 17),        # near 1e6
        ])
        for a in a_values:
            a = float(a)
            lo = a + (1.0 - d) / 2.0  # the same rounding as log_gamma_ratio
            exact = math.fsum(math.log(lo + i) for i in range(d // 2))
            tol = 64 * np.finfo(float).eps * max(1.0, abs(math.lgamma(a + 0.5)))
            assert abs(log_gamma_ratio(a, d) - exact) <= tol, (a, d)


def nw_predictive_quadrature_1d(c, delta, sigma, mu, y):
    """Full double integral of normal x normal x Wishart over (mean, precision).

    The 1D Wishart with 2*delta degrees of freedom and scale v is a
    Gamma(shape=delta, rate=1/(2v)) density in the precision.
    """
    v = 1.0 / (2.0 * delta * sigma)
    rate = 1.0 / (2.0 * v)

    def integrand(tau, m):
        n_y = math.sqrt(tau / (2 * math.pi)) * math.exp(-0.5 * tau * (y - m) ** 2)
        n_m = math.sqrt(c * tau / (2 * math.pi)) * math.exp(-0.5 * c * tau * (m - mu) ** 2)
        w = math.exp(delta * math.log(rate) - gammaln(delta)
                     + (delta - 1) * math.log(tau) - rate * tau)
        return n_y * n_m * w

    val, _ = dblquad(integrand, -60, 60, 0, np.inf, epsabs=1e-11, epsrel=1e-11)
    return val


class TestLogPredictiveDensity:
    def test_mode_value_against_double_quadrature(self):
        """Density at the mode of the unit 1D state is exactly 1/4.

        The normalized kernel (1 + y^2/4)^(-3/2) integrates to 4, so the
        mode value is 0.25; the double-quadrature oracle agrees.
        """
        post = NiwPosterior(mu=np.array([0.0]), c=1.0, delta=1.0,
                            sigma=np.array([[1.0]]))
        oracle = nw_predictive_quadrature_1d(1.0, 1.0, 1.0, 0.0, 0.0)
        got = math.exp(log_predictive_density(post, np.array([0.0])))
        assert got == pytest.approx(oracle, abs=2e-6)
        assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("y", [0.7, -1.3, 2.5])
    def test_off_mode_values_against_double_quadrature(self, y):
        post = NiwPosterior(mu=np.array([0.2]), c=2.0, delta=1.5,
                            sigma=np.array([[0.8]]))
        oracle = nw_predictive_quadrature_1d(2.0, 1.5, 0.8, 0.2, y)
        got = math.exp(log_predictive_density(post, np.array([y])))
        assert got == pytest.approx(oracle, abs=2e-6)

    def test_normalizes_to_one_1d(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            post = NiwPosterior(
                mu=rng.normal(size=1), c=rng.uniform(0.5, 5.0),
                delta=rng.uniform(1.0, 4.0),
                sigma=np.array([[rng.uniform(0.2, 3.0)]]),
            )
            total, _ = quad(
                lambda yy: math.exp(log_predictive_density(post, np.array([yy]))),
                -np.inf, np.inf,
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2))
        sigma = a @ a.T + 0.5 * np.eye(2)
        post = NiwPosterior(mu=rng.normal(size=2), c=2.0, delta=3.0, sigma=sigma)
        y = rng.normal(size=2)
        t = rng.normal(size=2) * 10
        shifted = NiwPosterior(mu=post.mu + t, c=post.c, delta=post.delta,
                               sigma=post.sigma.copy())
        assert log_predictive_density(shifted, y + t) == pytest.approx(
            log_predictive_density(post, y), abs=1e-12
        )

    def test_reflection_symmetry(self):
        m, t = 1.7, 0.4
        left = NiwPosterior(mu=np.array([m]), c=1.5, delta=2.0, sigma=np.array([[1.2]]))
        right = NiwPosterior(mu=np.array([-m]), c=1.5, delta=2.0, sigma=np.array([[1.2]]))
        assert log_predictive_density(left, np.array([t])) == pytest.approx(
            log_predictive_density(right, np.array([-t])), rel=1e-14
        )

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        post = NiwPosterior(mu=rng.normal(size=2), c=3.0, delta=4.0,
                            sigma=a @ a.T + np.eye(2))
        ys = rng.normal(size=(40, 2)) * 3
        batch = log_predictive_density_rows(post, ys)
        for i, y in enumerate(ys):
            assert batch[i] == pytest.approx(log_predictive_density(post, y), rel=1e-13)
        # a window of rows, of any leading shape, scores each row as that row alone
        singles = [log_predictive_density(post, y) for y in ys]
        assert log_predictive_density(post, ys).tolist() == singles
        assert log_predictive_density(post, ys.reshape(4, 10, 2)).ravel().tolist() == singles

    def test_degenerate_sigma_raises(self):
        post = NiwPosterior(mu=np.zeros(2), c=1.0, delta=2.0,
                            sigma=np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            log_predictive_density(post, np.zeros(2))

    def test_dimension_mismatch(self):
        post = NiwPosterior(mu=np.zeros(2), c=1.0, delta=2.0, sigma=np.eye(2))
        with pytest.raises(ValueError):
            log_predictive_density(post, np.zeros(3))
        with pytest.raises(ValueError, match="observation has dim 3, state has dim 2"):
            log_predictive_density(post, np.zeros((4, 3)))


class TestPosteriorUpdate:
    def test_hand_worked_single_update(self):
        post = NiwPosterior(mu=np.array([0.0]), c=1.0, delta=1.0,
                            sigma=np.array([[1.0]]))
        new = posterior_update(post, np.array([2.0]))
        assert new.mu[0] == pytest.approx(1.0, rel=1e-15)
        assert new.c == pytest.approx(2.0)
        assert new.delta == pytest.approx(1.5)
        # (2/3)*1 + (1/3)*(1/2)*4 = 4/3
        assert new.sigma[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_observation_at_mean_shrinks_sigma_only(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        post = NiwPosterior(mu=rng.normal(size=2), c=2.0, delta=3.0,
                            sigma=a @ a.T + np.eye(2))
        new = posterior_update(post, post.mu)
        np.testing.assert_allclose(new.mu, post.mu, rtol=1e-15)
        np.testing.assert_allclose(
            new.sigma, (6.0 / 7.0) * post.sigma, rtol=1e-14
        )

    def test_batch_mean_oracle(self):
        """mu after n updates equals (c0 mu0 + sum y) / (c0 + n)."""
        rng = np.random.default_rng(42)
        prior = PriorConfig(mu0=np.array([0.5, -1.0]), c0=2.0, delta0=3.0,
                            sigma0=np.eye(2))
        post = prior.state
        ys = rng.normal(size=(200, 2)) * 2.0 + 1.0
        for y in ys:
            post = posterior_update(post, y)
        batch = (prior.c0 * prior.mu0 + ys.sum(axis=0)) / (prior.c0 + len(ys))
        np.testing.assert_allclose(post.mu, batch, rtol=1e-10)

    def test_batch_sigma_oracle(self):
        """The covariance recursion telescopes to a one-pass weighted sum.

        sigma_n = (2 delta0 sigma0 + sum_i r_{i-1} u_i u_i^T) / (2 delta0 + n)
        with u_i the residual against the running batch mean and
        r_{i-1} = (c0 + i - 1) / (c0 + i).
        """
        rng = np.random.default_rng(5)
        prior = PriorConfig(mu0=np.zeros(2), c0=1.5, delta0=2.5, sigma0=np.eye(2))
        post = prior.state
        ys = rng.normal(size=(300, 2))
        acc = 2.0 * prior.delta0 * prior.sigma0.copy()
        mu_run = prior.mu0.copy()
        c_run = prior.c0
        for y in ys:
            u = y - mu_run
            acc += (c_run / (1.0 + c_run)) * np.outer(u, u)
            mu_run = (y + c_run * mu_run) / (1.0 + c_run)
            c_run += 1.0
        oracle = acc / (2.0 * prior.delta0 + len(ys))
        for y in ys:
            post = posterior_update(post, y)
        np.testing.assert_allclose(post.sigma, oracle, rtol=1e-8)

    def test_sigma_stays_positive_definite(self):
        """Smallest eigenvalue stays positive over many random updates."""
        rng = np.random.default_rng(123)
        post = PriorConfig.default(2).state
        for _ in range(100_000):
            post = posterior_update(post, rng.normal(size=2) * 5.0)
        assert np.linalg.eigvalsh(post.sigma).min() > 0
        np.testing.assert_allclose(post.sigma, post.sigma.T, rtol=0, atol=0)

    def test_monotone_counts(self):
        prior = PriorConfig.default(2)
        post = prior.state
        rng = np.random.default_rng(1)
        for _ in range(50):
            post = posterior_update(post, rng.normal(size=2))
            assert post.c >= prior.c0 and post.delta >= prior.delta0
            assert 0.0 < post.r < 1.0


class TestStudentTShape:
    def test_hand_values_and_broadcast(self):
        # r = c/(1+c) = 1/2 over 2 delta = 2, and delta + 1/2
        assert student_t_shape(1.0, 1.0) == (0.25, 1.5)
        coef, expo = student_t_shape(np.array([1.0, 3.0]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(coef, [0.25, 0.75 / 4.0])
        np.testing.assert_array_equal(expo, [1.5, 2.5])

    def test_prior_caches_its_shape(self):
        prior = PriorConfig(mu0=np.zeros(2), c0=0.5, delta0=3.0)
        assert prior.state.factors[3:] == student_t_shape(0.5, 3.0)


class TestPriorPredictive:
    def test_equals_density_of_fresh_state(self):
        prior = PriorConfig.default(2)
        y = np.array([0.3, -0.7])
        assert prior_predictive(prior, y) == log_predictive_density(prior.state, y)

    def test_symmetric_prior(self):
        prior = PriorConfig(mu0=np.zeros(1), c0=1.0, delta0=1.5,
                            sigma0=np.array([[2.0]]))
        y = np.array([1.234])
        assert prior_predictive(prior, y) == pytest.approx(
            prior_predictive(prior, -y), rel=1e-14
        )

    def test_wide_prior_has_lower_density_at_center(self):
        narrow = PriorConfig(mu0=np.zeros(1), sigma0=np.array([[0.5]]))
        wide = PriorConfig(mu0=np.zeros(1), sigma0=np.array([[50.0]]))
        y = np.zeros(1)
        assert prior_predictive(wide, y) < prior_predictive(narrow, y)


class TestCachedFactors:
    def test_rows_factorise_a_state_once(self, monkeypatch):
        import asugs.niw as niw_mod

        real, calls = niw_mod.student_t_factors, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(niw_mod, "student_t_factors", counted)
        post = NiwPosterior(mu=np.array([0.5, -1.0]), c=3.0, delta=4.0,
                            sigma=np.array([[2.0, 0.3], [0.3, 1.0]]))
        ys = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]])
        first = log_predictive_density_rows(post, ys)
        np.testing.assert_array_equal(log_predictive_density_rows(post, ys), first)
        assert len(calls) == 1
        prec, *rest = real(post.c, post.delta, post.sigma)
        np.testing.assert_array_equal(post.factors[0], prec)
        assert post.factors[1:] == tuple(rest)

    def test_prior_state_is_its_hyperparameters(self):
        prior = PriorConfig(mu0=np.array([0.5, -1.0]), c0=0.5, delta0=3.0,
                            sigma0=np.array([[2.0, 0.3], [0.3, 1.0]]))
        state = prior.state
        np.testing.assert_array_equal(state.mu, prior.mu0)
        np.testing.assert_array_equal(state.sigma, prior.sigma0)
        assert (state.c, state.delta) == (prior.c0, prior.delta0)


class TestPriorConfigValidation:
    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ValueError, match="c0"):
            PriorConfig(mu0=np.zeros(2), c0=0.0)

    def test_rejects_small_delta0(self):
        with pytest.raises(ValueError, match="delta0"):
            PriorConfig(mu0=np.zeros(3), delta0=0.9)

    def test_rejects_asymmetric_sigma0(self):
        with pytest.raises(ValueError, match="symmetric"):
            PriorConfig(mu0=np.zeros(2), sigma0=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("field, value", [
        ("mu0", np.array([0.0, np.nan])), ("mu0", np.array([np.inf, 0.0])),
        ("c0", np.nan), ("c0", np.inf), ("delta0", np.nan), ("delta0", np.inf),
        ("sigma0", np.array([[1.0, 0.0], [0.0, np.inf]])),
        ("sigma0", np.array([[1.0, np.nan], [np.nan, 1.0]])),
    ])
    def test_rejects_non_finite_field_before_factorising(self, monkeypatch, field, value):
        import asugs.niw as niw_mod

        def no_factorisation(*args):
            raise AssertionError("factorised before the fields were checked")

        monkeypatch.setattr(niw_mod, "student_t_factors", no_factorisation)
        kwargs = {"mu0": np.zeros(2), field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PriorConfig(**kwargs)

    def test_nearly_symmetric_sigma0_is_stored_symmetric(self):
        sigma0 = np.array([[2.0, 0.3], [0.3 + 1e-12, 1.0]])
        prior = PriorConfig(mu0=np.zeros(2), sigma0=sigma0)
        assert np.array_equal(prior.sigma0, prior.sigma0.T)
        assert prior.sigma0[0, 1] == 0.5 * (0.3 + (0.3 + 1e-12))
        exact = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(PriorConfig(mu0=np.zeros(2), sigma0=exact).sigma0, exact)

    def test_rejects_indefinite_sigma0(self):
        with pytest.raises(np.linalg.LinAlgError):
            PriorConfig(mu0=np.zeros(2), sigma0=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_default_is_mildest_proper(self):
        prior = PriorConfig.default(3)
        assert prior.delta0 == pytest.approx(2.5)
        np.testing.assert_array_equal(prior.sigma0, np.eye(3))
        assert prior.c0 == 1.0

    def test_from_scale(self):
        prior = PriorConfig.from_scale(2, 0.025, pseudo_obs=64.0)
        assert prior.delta0 == 32.0
        np.testing.assert_allclose(prior.sigma0, 0.025 * np.eye(2))
        assert prior.c0 == 0.01
