"""Ground-truth Gaussian mixtures: generation targets and divergence references."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import cholesky


def log_sum_exp(logs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """log sum_h exp(logs[h, j]) for each column j of a K x N array.

    Shifted by the column maximum; a column whose maximum is not finite
    is shifted by 0, so a column of -inf terms gives -inf, not nan.
    ``logs`` is left as it is unless ``overwrite``, which lets the
    reduction work in the caller's float array instead of a copy.
    """
    if not overwrite:
        logs = np.array(logs, dtype=float)
    top = logs.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    logs -= top
    total = np.exp(logs, out=logs).sum(axis=0)
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += top
    return total


def row_quad_forms(ys: np.ndarray, mus: np.ndarray, precs: np.ndarray) -> np.ndarray:
    """(y - mu_h)^T P_h (y - mu_h) for each row y of ``ys`` (N x d) and each
    component h of ``mus`` (K x d) and ``precs`` (K x d x d), as a K x N array.
    The rows are copied once to d x N, so that ``P @ E`` and the column dot
    products run along N, in two d x N buffers that every component reuses."""
    yt = np.atleast_2d(np.asarray(ys, dtype=float)).T.copy()
    e, pe, quad = np.empty_like(yt), np.empty_like(yt), np.empty((len(mus), yt.shape[1]))
    for h in range(len(mus)):
        np.subtract(yt, mus[h][:, None], out=e)
        np.einsum("ij,ij->j", np.matmul(precs[h], e, out=pe), e, out=quad[h])
    return quad


def gaussian_log_density(d: int, logdet, quad, out=None):
    """The Gaussian log density in dimension d from the log determinant of
    its covariance and the quadratic form (y - mu)^T cov^-1 (y - mu); the
    last two broadcast.  Written into ``out`` when given (``quad`` itself
    may be ``out``)."""
    return np.multiply(-0.5, np.add(d * np.log(2.0 * np.pi) + logdet, quad, out=out), out=out)


@dataclass
class GaussianMixture:
    """Finite Gaussian mixture with full covariances.

    weights      simplex vector, length K
    means        K x d
    covariances  K x d x d, each symmetric positive definite

    All three must be finite and their shapes agree; an invalid field
    raises ``ValueError`` naming it, and shapes that disagree name all
    three (an indefinite covariance raises ``LinAlgError``).

    Each component's Cholesky factor, precision and log determinant are
    computed once at construction, and ``max_sd`` once on first use, so a
    mixture is treated as immutable.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)
    precs: np.ndarray = field(init=False, repr=False, compare=False)
    logdets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covariances = np.asarray(self.covariances, dtype=float)
        if self.covariances.ndim == 2:
            self.covariances = self.covariances[None, :, :]
        for name in ("weights", "means", "covariances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        k, d = len(self.means), self.means.shape[-1]
        shapes = self.weights.shape, self.means.shape, self.covariances.shape
        if shapes != ((k,), (k, d), (k, d, d)):
            raise ValueError("weights {}, means {} and covariances {} do not describe "
                             "one mixture".format(*shapes))
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        for cov in self.covariances:
            if not np.allclose(cov, cov.T):
                raise ValueError("covariances must be symmetric")
        # raises LinAlgError if a covariance is not positive definite
        self.chols = cholesky(self.covariances)
        inv_l = np.linalg.inv(self.chols)
        self.precs = np.swapaxes(inv_l, -1, -2) @ inv_l
        self.logdets = 2.0 * np.log(np.diagonal(self.chols, axis1=-2, axis2=-1)).sum(axis=-1)

    @cached_property
    def max_sd(self) -> float:
        """The largest standard deviation of any component along any axis,
        computed on first use: ``eigvalsh`` at construction would page in
        LAPACK code that a process which never asks for it pays in peak RSS
        (0.5 MB on perfbench's ``compare``)."""
        return float(np.sqrt(np.linalg.eigvalsh(self.covariances).max()))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def logpdf(self, ys: np.ndarray) -> np.ndarray:
        """Log mixture density at each row of ys."""
        comps = row_quad_forms(ys, self.means, self.precs)
        gaussian_log_density(self.dim, self.logdets[:, None], comps, out=comps)
        comps += np.log(self.weights)[:, None]
        return log_sum_exp(comps, overwrite=True)

    def pdf(self, ys: np.ndarray) -> np.ndarray:
        logs = self.logpdf(ys)
        return np.exp(logs, out=logs)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n labeled points: component by weight, then a Gaussian draw.

        The same rows as drawing each point's normal vector in turn: the
        generator yields the n x d draws in row order either way.
        """
        labels = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        out = self.means[labels]
        for h in range(self.n_components):  # one component at a time keeps temporaries O(n x d)
            sel = labels == h
            out[sel] += (self.chols[h] @ z[sel][:, :, None])[:, :, 0]
        return out, labels
