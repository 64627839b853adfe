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
from functools import cached_property

import numpy as np
from numpy.linalg import cholesky


def check_state(mu, c, delta, sigma, names=("mu", "c", "delta", "sigma")):
    """(mu, c, delta, sigma) as arrays and floats, each checked: finite, sigma
    d x d and symmetric within ``allclose`` (returned exactly symmetric),
    c > 0 and 2*delta > d - 1, the last for the Wishart to be proper and the
    predictive density normalizable.  A failed check raises ``ValueError``
    naming the field as ``names`` gives it; positive definiteness is left to
    the factorisation."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    c, delta, sigma = float(c), float(delta), np.asarray(sigma, dtype=float)
    _, n_c, n_delta, n_sigma = names
    d = mu.shape[0]
    for name, value in zip(names, (mu, c, delta, sigma)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if sigma.shape != (d, d):
        raise ValueError(f"{n_sigma} must be {d}x{d}, got {sigma.shape}")
    if not np.allclose(sigma, sigma.T):
        raise ValueError(f"{n_sigma} must be symmetric")
    if c <= 0:
        raise ValueError(f"{n_c} must be positive")
    if 2.0 * delta <= d - 1:
        raise ValueError(f"2*{n_delta} must exceed d-1 = {d - 1}, got {2.0 * delta}")
    return mu, c, delta, 0.5 * (sigma + sigma.T)


@dataclass
class PriorConfig:
    """Hyperparameters assigned to every newly created cluster.

    Each field is checked by ``check_state``: an invalid one raises
    ``ValueError`` naming it, before any factorisation.  ``state`` is the
    prior as a ``NiwPosterior``, whose factors are read here, so an
    indefinite sigma0 raises ``LinAlgError``; a new cluster copies it.
    """

    mu0: np.ndarray
    c0: float = 1.0
    delta0: float | None = None  # default (d+2)/2, mildest proper choice
    sigma0: np.ndarray | None = None  # default identity
    state: NiwPosterior = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.mu0).size
        self.mu0, self.c0, self.delta0, self.sigma0 = check_state(
            self.mu0, self.c0,
            (d + 2.0) / 2.0 if self.delta0 is None else self.delta0,
            np.eye(d) if self.sigma0 is None else self.sigma0,
            names=("mu0", "c0", "delta0", "sigma0"),
        )
        self.state = NiwPosterior(self.mu0, self.c0, self.delta0, self.sigma0)
        self.state.factors  # raises LinAlgError if sigma0 is not positive definite

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
        return cls(mu0=np.zeros(d), c0=c0, delta0=pseudo_obs / 2.0,
                   sigma0=np.diag(np.full(d, float(var))))


@dataclass
class NiwPosterior:
    """One normal-Wishart hyperparameter state.

    mu     location of the posterior mean (length d)
    c      precision-scaling count, grows by 1 per absorbed observation
    delta  half the Wishart degrees of freedom, grows by 1/2 per observation
    sigma  d x d covariance estimate (symmetric positive definite; stored
           as 0.5 (sigma + sigma^T), so exactly symmetric)

    ``factors`` (``student_t_factors``) are computed on first use and kept:
    a state is treated as immutable once they are read, as ``PriorConfig``
    and ``GaussianMixture`` are.
    """

    mu: np.ndarray
    c: float
    delta: float
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=float)
        self.sigma = 0.5 * (sigma + sigma.T)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def r(self) -> float:
        """Shrinkage factor c/(1+c), always in (0, 1)."""
        return self.c / (1.0 + self.c)

    @cached_property
    def factors(self) -> tuple[np.ndarray, float, float, float, float]:
        """(prec, logdet, log_norm, coef, expo) of ``student_t_factors``.
        Raises ``numpy.linalg.LinAlgError`` if sigma is not positive definite."""
        return student_t_factors(self.c, self.delta, self.sigma)


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


def student_t_shape(c: float, delta: float) -> tuple[float, float]:
    """The scale r / (2 delta), r = c/(1+c), and the exponent delta + 1/2 of
    ``log_predictive_density``; elementwise on arrays of c and delta."""
    return c / (1.0 + c) / (2.0 * delta), delta + 0.5


def student_t_constant(coef: float, delta: float, d: int) -> float:
    """The part of ``student_t_log_norm`` that does not depend on sigma:
    -d/2 log pi + d/2 log coef + ``log_gamma_ratio(delta, d)``."""
    return -0.5 * d * math.log(math.pi) + 0.5 * d * math.log(coef) + log_gamma_ratio(delta, d)


def student_t_log_norm(coef: float, delta: float, d: int, logdet: float) -> float:
    """The constant of ``log_predictive_density``, given its scale ``coef``
    (``student_t_shape``) and logdet = log det sigma: ``student_t_constant``
    - logdet / 2."""
    return student_t_constant(coef, delta, d) - 0.5 * logdet


def student_t_factors(c: float, delta: float, sigma: np.ndarray
                      ) -> tuple[np.ndarray, float, float, float, float]:
    """The factors of ``log_predictive_density`` that depend on the state
    alone, from one Cholesky factorisation: sigma^-1, log det sigma, the
    constant and the shape ``coef``, ``expo`` (``student_t_shape``).  Raises
    ``numpy.linalg.LinAlgError`` if sigma is not positive definite or its
    factor is not finite (a NaN in sigma)."""
    L = cholesky(sigma)
    if not np.isfinite(L).all():  # numpy's Cholesky raises nothing on a NaN
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    inv_l = np.linalg.inv(L)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    coef, expo = student_t_shape(c, delta)
    return inv_l.T @ inv_l, logdet, student_t_log_norm(coef, delta, L.shape[0], logdet), coef, expo


def student_t_log_density(log_norm, coef, expo, quad, out=None):
    """The Student-t log density from its constant, its shape (``coef``,
    ``expo`` = ``student_t_shape``) and the quadratic form
    (y - mu)^T sigma^-1 (y - mu); all arguments broadcast.  Written into
    ``out`` when given (``quad`` itself may be ``out``)."""
    t = np.log1p(np.multiply(coef, quad, out=out), out=out)
    return np.subtract(log_norm, np.multiply(expo, t, out=out), out=out)


def _observation(y, d: int, window: bool = False) -> np.ndarray:
    """y as one row (d), or as a ``window`` of rows (... x d), of dimension d."""
    y = np.asarray(y, dtype=float) if window else np.asarray(y, dtype=float).reshape(-1)
    if y.shape[-1] != d:
        raise ValueError(f"observation has dim {y.shape[-1]}, state has dim {d}")
    return y


def quad_forms(e: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """e^T prec e for each row of e (... x d), against the matching or a shared
    prec (d x d): a batched matmul sandwich, the scorer of one row or a window."""
    return (e[..., None, :] @ prec @ e[..., :, None])[..., 0, 0]


def log_predictive_density(post: NiwPosterior, y: np.ndarray) -> float | np.ndarray:
    """Log density of a new observation under the cluster's posterior: of
    one row y (d), as a float, or of each row of a window y (... x d).

    The marginal of one observation, integrating out the unknown mean and
    precision, is a multivariate Student-t with 2*delta - d + 1 degrees of
    freedom.  Written in the (mu, c, delta, sigma) parametrization:

        log pi^(-d/2) + (d/2) log(r / (2 delta)) + log_gamma_ratio(delta, d)
        - (1/2) log det sigma - (delta + 1/2) log(1 + (r / (2 delta)) Q)

    with r = c/(1+c) and Q the sigma^-1 quadratic form of (y - mu)
    (``quad_forms``, so a row of a window scores bit for bit as that row
    alone; a Q that overflows scores -inf without a warning).  The constant
    makes the density integrate to exactly 1 over R^d, so values are
    comparable across clusters with different c and delta.  The window form
    is the scorer of many rows under one posterior.

    Raises ``numpy.linalg.LinAlgError`` if sigma has lost positive
    definiteness; recovery is the caller's decision.
    """
    prec, _, log_norm, coef, expo = post.factors
    window = np.ndim(y) > 1
    e = _observation(y, post.dim, window) - post.mu
    with np.errstate(over="ignore"):
        quad = quad_forms(e, prec)
    log_density = student_t_log_density(log_norm, coef, expo, quad)
    return log_density if window else float(log_density)


def prior_predictive(prior: PriorConfig, y: np.ndarray) -> float | np.ndarray:
    """Log predictive density of a brand-new cluster, of one row or a window:
    that of the prior's state."""
    return log_predictive_density(prior.state, y)


def update_weights(c, delta):
    """The a and b of sigma' = a sigma + b r r^T by which ``conjugate_update``
    absorbs an observation into a state of (c, delta); elementwise on arrays."""
    return 2.0 * delta / (1.0 + 2.0 * delta), (1.0 / (1.0 + 2.0 * delta)) * (c / (1.0 + c))


def conjugate_update(mu: np.ndarray, c: float, sigma: np.ndarray, y: np.ndarray, a: float,
                     b: float) -> np.ndarray:
    """Absorb y into (mu, c, delta, sigma): ``mu`` and ``sigma`` in place, c + 1
    and delta + 1/2 left to the caller, with a and b of ``update_weights``.
    Returns r = y - mu (pre-update mu), for sigma' = a sigma + b r r^T, a
    convex combination of positive definite sigma and a semidefinite term.
    An exactly symmetric sigma stays so: entry (i, j) gets a sigma_ij + b
    (r_i r_j), and IEEE products commute."""
    r = y - mu
    mu *= c  # mu' = (y + c mu) / (1 + c), in place
    mu += y
    mu /= 1.0 + c
    sigma *= a
    sigma += b * (r[:, None] * r)
    return r


def posterior_update(post: NiwPosterior, y: np.ndarray) -> NiwPosterior:
    """Absorb one observation and return the new hyperparameter state
    (``conjugate_update`` on a copy)."""
    y = _observation(y, post.dim)
    mu, sigma = post.mu.copy(), post.sigma.copy()
    conjugate_update(mu, post.c, sigma, y, *update_weights(post.c, post.delta))
    return NiwPosterior(mu=mu, c=post.c + 1.0, delta=post.delta + 0.5, sigma=sigma)
