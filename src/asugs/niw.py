"""Conjugate normal-Wishart state and its closed-form predictive density.

Each cluster of the streaming mixture keeps four hyperparameters
(mu, c, delta, sigma).  ``sigma`` is the inverse of the Wishart mean,
i.e. the current covariance estimate of the cluster; storing it directly
(instead of the Wishart scale matrix) keeps the recursion numerically
stable.  The predictive density of a new observation under this state is
a multivariate Student-t, evaluated here in log domain because its
exponent grows linearly with the number of absorbed observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import cholesky


@dataclass
class PriorConfig:
    """Hyperparameters assigned to every newly created cluster.

    ``2*delta0 > d - 1`` is required for the Wishart to be proper (and for
    the predictive density to be normalizable).
    """

    mu0: np.ndarray
    c0: float = 1.0
    delta0: float | None = None  # default (d+2)/2, mildest proper choice
    sigma0: np.ndarray | None = None  # default identity
    # predictive factors of a brand-new cluster (``student_t_factors``)
    prec: np.ndarray = field(init=False, repr=False, compare=False)
    logdet: float = field(init=False, repr=False, compare=False)
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=float).reshape(-1)
        d = self.mu0.shape[0]
        if self.delta0 is None:
            self.delta0 = (d + 2.0) / 2.0
        self.c0 = float(self.c0)
        self.delta0 = float(self.delta0)
        if self.sigma0 is None:
            self.sigma0 = np.eye(d)
        self.sigma0 = np.asarray(self.sigma0, dtype=float)
        if self.sigma0.shape != (d, d):
            raise ValueError(f"sigma0 must be {d}x{d}, got {self.sigma0.shape}")
        if not np.allclose(self.sigma0, self.sigma0.T):
            raise ValueError("sigma0 must be symmetric")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if 2.0 * self.delta0 <= d - 1:
            raise ValueError(
                f"2*delta0 must exceed d-1 = {d - 1}, got {2.0 * self.delta0}"
            )
        # raises LinAlgError if sigma0 is not positive definite
        self.prec, self.logdet, self.log_norm = student_t_factors(self.c0, self.delta0, self.sigma0)

    @property
    def dim(self) -> int:
        return self.mu0.shape[0]

    @classmethod
    def default(cls, d: int) -> "PriorConfig":
        return cls(mu0=np.zeros(d))

    @classmethod
    def from_scale(
        cls, d: int, var: float, pseudo_obs: float = 64.0, c0: float = 0.01
    ) -> "PriorConfig":
        """Prior encoding an expected within-cluster variance.

        ``var`` is the per-axis variance a typical cluster is believed to
        have and ``pseudo_obs`` how many observations' worth of trust to
        place in it (delta0 = pseudo_obs / 2).  The small default c0
        keeps a new cluster's location at its first observation instead
        of shrinking it toward mu0.  Clustering quality depends strongly
        on getting ``var`` within an order of magnitude of the true
        cluster scale; a vague prior (identity sigma0 on unit-scale data
        with tight clusters) makes early clusters absorb their neighbors.
        """
        return cls(
            mu0=np.zeros(d), c0=c0, delta0=pseudo_obs / 2.0, sigma0=var * np.eye(d)
        )


@dataclass
class NiwPosterior:
    """Per-cluster normal-Wishart hyperparameter state.

    mu     location of the posterior mean (length d)
    c      precision-scaling count, grows by 1 per absorbed observation
    delta  half the Wishart degrees of freedom, grows by 1/2 per observation
    sigma  d x d covariance estimate (symmetric positive definite)
    """

    mu: np.ndarray
    c: float
    delta: float
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def r(self) -> float:
        """Shrinkage factor c/(1+c), always in (0, 1)."""
        return self.c / (1.0 + self.c)

    @classmethod
    def from_prior(cls, prior: PriorConfig) -> "NiwPosterior":
        return cls(
            mu=prior.mu0.copy(),
            c=prior.c0,
            delta=prior.delta0,
            sigma=prior.sigma0.copy(),
        )


def log_gamma_ratio(a: float, d: int) -> float:
    """log of Gamma(a + 1/2) / Gamma(a + (1-d)/2), which carries the entire
    dimension dependence of the Student-t normalization below.  Taken as a
    difference of ``math.lgamma`` values (raw Gamma overflows for a of a few
    hundred); the two cancel, so the absolute error floor is ~ulp(lgamma(a + 1/2))."""
    lo = a + (1.0 - d) / 2.0
    if lo <= 0:
        raise ValueError(
            f"gamma ratio undefined: a + (1-d)/2 = {lo} <= 0 "
            f"(delta too small for dimension {d})"
        )
    return math.lgamma(a + 0.5) - math.lgamma(lo)


def student_t_log_norm(c: float, delta: float, d: int, logdet: float) -> float:
    """The constant of ``log_predictive_density``, given logdet = log det sigma."""
    return float(-0.5 * d * np.log(np.pi) + 0.5 * d * np.log(c / (1.0 + c) / (2.0 * delta))
                 + log_gamma_ratio(delta, d) - 0.5 * logdet)


def student_t_factors(c: float, delta: float, sigma: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The factors of ``log_predictive_density`` that depend on the state
    alone, from one Cholesky factorisation: sigma^-1, log det sigma and the
    constant.  Raises ``numpy.linalg.LinAlgError`` if sigma is not positive definite."""
    L = cholesky(sigma)
    inv_l = np.linalg.inv(L)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return inv_l.T @ inv_l, logdet, student_t_log_norm(c, delta, L.shape[0], logdet)


def student_t_log_density(log_norm, c, delta, quad):
    """The Student-t log density from its constant and the quadratic form
    (y - mu)^T sigma^-1 (y - mu); all arguments broadcast."""
    return log_norm - (delta + 0.5) * np.log1p(c / (1.0 + c) / (2.0 * delta) * quad)


def _observation(y, d: int) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != d:
        raise ValueError(f"observation has dim {y.shape[0]}, state has dim {d}")
    return y


def log_predictive_density(post: NiwPosterior, y: np.ndarray) -> float:
    """Log density of a new observation under the cluster's posterior.

    The marginal of one observation, integrating out the unknown mean and
    precision, is a multivariate Student-t with 2*delta - d + 1 degrees of
    freedom.  Written in the (mu, c, delta, sigma) parametrization:

        log pi^(-d/2) + (d/2) log(r / (2 delta)) + log_gamma_ratio(delta, d)
        - (1/2) log det sigma - (delta + 1/2) log(1 + (r / (2 delta)) Q)

    with r = c/(1+c) and Q the sigma^-1 quadratic form of (y - mu).  The
    constant makes the density integrate to exactly 1 over R^d, so values
    are comparable across clusters with different c and delta.

    Raises ``numpy.linalg.LinAlgError`` if sigma has lost positive
    definiteness; recovery is the caller's decision.
    """
    return float(log_predictive_density_rows(post, _observation(y, post.dim))[0])


def log_predictive_density_rows(post: NiwPosterior, ys: np.ndarray) -> np.ndarray:
    """Vectorized ``log_predictive_density`` over the rows of ``ys``.

    One factorization of sigma serves all rows; used for grid and
    held-out evaluations.
    """
    prec, _, log_norm = student_t_factors(post.c, post.delta, post.sigma)
    e = np.atleast_2d(np.asarray(ys, dtype=float)) - post.mu
    return student_t_log_density(log_norm, post.c, post.delta, ((e @ prec) * e).sum(axis=-1))


def prior_predictive(prior: PriorConfig, y: np.ndarray) -> float:
    """Log predictive density of a brand-new cluster, from the prior's factors."""
    e = _observation(y, prior.dim) - prior.mu0
    return float(student_t_log_density(prior.log_norm, prior.c0, prior.delta0, e @ prior.prec @ e))


def conjugate_update(mu: np.ndarray, c: float, delta: float, sigma: np.ndarray, y: np.ndarray):
    """Absorb y into (mu, c, delta, sigma): ``mu`` and ``sigma`` in place, c + 1
    and delta + 1/2 left to the caller.  Returns r = y - mu (pre-update mu) and
    the a, b of sigma' = a sigma + b r r^T, a convex combination of positive
    definite sigma and a semidefinite term; symmetrizing only undoes rounding."""
    r = y - mu
    a = 2.0 * delta / (1.0 + 2.0 * delta)
    b = (1.0 / (1.0 + 2.0 * delta)) * (c / (1.0 + c))
    mu[:] = (y + c * mu) / (1.0 + c)
    sigma *= a
    sigma += b * np.outer(r, r)
    sigma += sigma.T
    sigma *= 0.5
    return r, a, b


def posterior_update(post: NiwPosterior, y: np.ndarray) -> NiwPosterior:
    """Absorb one observation and return the new hyperparameter state
    (``conjugate_update`` on a copy)."""
    y = _observation(y, post.dim)
    mu, sigma = post.mu.copy(), post.sigma.copy()
    conjugate_update(mu, post.c, post.delta, sigma, y)
    return NiwPosterior(mu=mu, c=post.c + 1.0, delta=post.delta + 0.5, sigma=sigma)
