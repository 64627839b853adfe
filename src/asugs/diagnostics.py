"""Convergence and stability diagnostics for streaming mixture runs.

Quantities evaluated on a cluster book snapshot: the fitted predictive
mixture, its ratio against the fresh-cluster predictive, innovation
probability, and distances to a known generating mixture.  Standalone
numeric checks cover the growth identities behind the adaptive
concentration design: the harmonic log-product ratio, the iterated-log
product bound, the Gaussian limit of the predictive density, and a
least-squares slope with its standard error for trends over n.

All functions are pure; snapshots can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from asugs.engine import (
    Checkpoint,
    ClusterBook,
    ConfigError,
    EngineConfig,
    RunTrace,
    as_stream,
    merge,  # merge, prune and step are unused here but stay attributes of
    prune,  # this module: perfbench/tracer.py wraps them here too
    run,
    step,
)
from asugs.mixture import GaussianMixture, gaussian_log_density, log_sum_exp
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density_rows,
    prior_predictive,
    student_t_log_density,
)


def log_mixture_predictive_rows(book: ClusterBook, ys: np.ndarray) -> np.ndarray:
    """Log of the fitted mixture density over existing clusters.

    Clusters are weighted by their share of currently assigned
    observations (counts of pruned clusters are gone), so the mixture
    integrates to 1 regardless of pruning history.  No innovation slot.
    """
    if book.k == 0:
        raise ValueError("mixture predictive undefined for an empty book")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    total = book.total_count
    logs = np.empty((book.k, ys.shape[0]))
    for h in range(book.k):  # one cluster at a time keeps temporaries O(rows x d)
        e = ys - book.mu[h]
        logs[h] = math.log(book.m[h] / total) + student_t_log_density(
            book.log_norm[h], book.c[h], book.delta[h], np.einsum("ij,ij->i", e @ book.prec[h], e)
        )
    return log_sum_exp(logs)


def _log_likelihood_ratio(book: ClusterBook, prior: PriorConfig, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float).reshape(-1)
    return prior_predictive(prior, y) - log_mixture_predictive_rows(book, y)[0]


def likelihood_ratio(book: ClusterBook, prior: PriorConfig, y: np.ndarray) -> float:
    """Fresh-cluster predictive over the fitted mixture predictive.

    The numerator depends only on the prior.  Values well below 1 mean
    the point is explained by the fitted clusters; values above 1 mean
    the prior would explain it better than anything fitted so far.  The
    ratio can exceed the float range deep in the fitted tails; such
    points return inf.
    """
    try:
        return math.exp(_log_likelihood_ratio(book, prior, y))
    except OverflowError:
        return math.inf


def innovation_probability(
    book: ClusterBook, alpha: float, prior: PriorConfig, y: np.ndarray
) -> float:
    """Probability that the next observation opens a new cluster.

    Closed form l * alpha / (M + l * alpha) where l is the likelihood
    ratio and M the number of currently assigned observations; agrees
    exactly with the innovation entry of the engine's responsibility
    vector on the same state.  Evaluated as a sigmoid in log domain so
    extreme ratios saturate cleanly at 0 or 1.
    """
    t = math.log(book.total_count / alpha) - _log_likelihood_ratio(book, prior, y)
    if t > 700.0:
        return 0.0
    if t < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(t))


def _at_least_two(**sizes: int) -> None:
    """Raise ``ConfigError`` (a ``ValueError``) naming the first size below 2."""
    for name, value in sizes.items():
        if value < 2:
            raise ConfigError(f"{name} must be at least 2, got {value}")


def _grid_axes(los, his, points: int) -> list[np.ndarray]:
    """The ``points`` coordinates along each axis of the box [los, his]."""
    return [np.linspace(lo, hi, points) for lo, hi in zip(los, his)]


def _grid_weights(axes) -> np.ndarray:
    """Quadrature weight of each tensor-grid point, in grid shape."""
    weights = np.ones(())
    for ax in axes:
        weights = np.multiply.outer(weights, np.gradient(ax))
    return weights


def _grid_quad(axes, mu: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """(y - mu)^T prec (y - mu) at every tensor-grid point, in grid shape:
    sum_a P_aa u_a^2 + sum_{a<b} 2 P_ab u_a u_b over the per-axis offsets
    u_a, with no row array of points."""
    d = len(axes)
    us = [(ax - mu[a]).reshape((-1,) + (1,) * (d - 1 - a)) for a, ax in enumerate(axes)]
    quad = np.zeros((len(axes[0]),) * d)
    for a in range(d):
        quad += prec[a, a] * us[a] ** 2
        for b in range(a + 1, d):
            quad += (2.0 * prec[a, b]) * us[a] * us[b]
    return quad


def _tensor_grid(los, his, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid over the box [los, his], ``points`` per axis: one point
    per row, first axis slowest, and each point's quadrature weight."""
    axes = _grid_axes(los, his, points)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return grid, _grid_weights(axes).ravel()


@dataclass
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float


def l2_distance_to_truth(
    book: ClusterBook,
    truth: GaussianMixture,
    grid_points: int = 400,
    pad_stds: float = 6.0,
    n_mc: int = 20000,
    seed: int = 0,
) -> float | McEstimate:
    """L2 distance between the fitted predictive and a known mixture.

    Tensor-grid quadrature for d <= 2 (extent: truth mean range padded
    by ``pad_stds`` max standard deviations, ``grid_points`` per axis);
    self-normalized Monte Carlo with draws from the truth otherwise,
    returning the estimate with a standard error.  The size in use,
    ``grid_points`` or ``n_mc``, must be at least 2.

    The grid evaluation is separable: each component's quadratic form is
    built from per-axis offsets in grid shape, and the components'
    densities, fitted minus truth, are summed into one grid array in the
    linear domain, so memory is O(grid) whatever the number of clusters.
    """
    if book.k == 0:
        raise ValueError("L2 distance undefined for an empty book")
    d = truth.dim
    if d > 2:
        _at_least_two(n_mc=n_mc)
        return _l2_from_draws(book, *_truth_draws(truth, n_mc, seed))
    _at_least_two(grid_points=grid_points)
    max_sd = math.sqrt(max(np.linalg.eigvalsh(cov).max() for cov in truth.covariances))
    # the grid must cover the fitted clusters too, or their mass is
    # invisible to the quadrature
    mus = np.vstack([truth.means, book.mu])
    axes = _grid_axes(mus.min(axis=0) - pad_stds * max_sd, mus.max(axis=0) + pad_stds * max_sd,
                      grid_points)
    diff = np.zeros((grid_points,) * d)
    total = book.total_count
    for h in range(book.k):
        log_dens = math.log(book.m[h] / total) + student_t_log_density(
            book.log_norm[h], book.c[h], book.delta[h], _grid_quad(axes, book.mu[h], book.prec[h]))
        diff += np.exp(log_dens, out=log_dens)
    for h in range(truth.n_components):
        log_dens = math.log(truth.weights[h]) + gaussian_log_density(
            d, truth.logdets[h], _grid_quad(axes, truth.means[h], truth.precs[h]))
        diff -= np.exp(log_dens, out=log_dens)
    return float(np.sqrt(np.sum(diff * diff * _grid_weights(axes))))


def _truth_draws(truth: GaussianMixture, n_mc: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_mc`` draws from the truth under ``seed`` and their truth log density."""
    ys, _ = truth.sample(n_mc, np.random.Generator(np.random.PCG64(seed)))
    return ys, truth.logpdf(ys)


def _l2_from_draws(book: ClusterBook, ys: np.ndarray, log_truth: np.ndarray) -> McEstimate:
    pt = np.exp(log_truth)
    vals = (np.exp(log_mixture_predictive_rows(book, ys)) - pt) ** 2 / pt
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(ys)))
    return McEstimate(value=math.sqrt(max(est, 0.0)),
                      stderr=se / (2.0 * math.sqrt(max(est, 1e-300))))


def _kl_from_draws(book: ClusterBook, ys: np.ndarray, log_truth: np.ndarray) -> McEstimate:
    vals = log_truth - log_mixture_predictive_rows(book, ys)
    return McEstimate(
        value=float(vals.mean()), stderr=float(vals.std(ddof=1) / math.sqrt(len(ys)))
    )


def kl_divergence_estimate(
    truth: GaussianMixture, book: ClusterBook, n_mc: int = 20000, seed: int = 0
) -> McEstimate:
    """Monte Carlo KL(truth || fitted predictive) with standard error.

    Draws from the truth; may come out slightly negative within its
    error when the two densities nearly coincide.  ``n_mc`` must be at
    least 2.
    """
    _at_least_two(n_mc=n_mc)
    return _kl_from_draws(book, *_truth_draws(truth, n_mc, seed))


def harmonic_log_product_ratio(alpha: float, n: int) -> float:
    """(sum_{j<n} log(1 + alpha/j)) / (alpha log n); tends to 1 as n grows.

    For alpha = 1 the product telescopes to n and the ratio is exactly 1
    at every n.  Uses exact (fsum) accumulation so the telescoping
    identity holds to machine precision even for n in the millions.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    terms = np.log1p(alpha / np.arange(1, n, dtype=float))
    return math.fsum(terms.tolist()) / (alpha * math.log(n))


@dataclass
class BoundCheck:
    """Outcome of a product-bound verification over a range of n."""

    holds: bool
    min_slack: float
    ns: np.ndarray
    slack: np.ndarray


def loglog_product_bound(phi: float, n_start: int, n_max: int) -> BoundCheck:
    """Verify prod_{k=n_start}^{n} (1 + phi/(k log k)) <= C * log(n)^phi.

    C = exp(phi / (n_start log n_start)) / log(n_start)^phi.  Checked at
    every n in (n_start, n_max]; slack is the log-domain gap between the
    bound and the product (nonnegative everywhere iff the bound holds).
    """
    if n_start < 2:
        raise ValueError("n_start must be >= 2")
    if n_max <= n_start:
        raise ValueError("n_max must exceed n_start")
    ks = np.arange(n_start, n_max + 1, dtype=float)
    log_terms = np.log1p(phi / (ks * np.log(ks)))
    log_prod = np.cumsum(log_terms)
    log_c = phi / (n_start * math.log(n_start)) - phi * math.log(math.log(n_start))
    log_bound = log_c + phi * np.log(np.log(ks))
    slack = log_bound - log_prod
    return BoundCheck(
        holds=bool(np.all(slack >= 0)),
        min_slack=float(slack.min()),
        ns=ks.astype(int),
        slack=slack,
    )


def gaussian_limit_deviation(
    post: NiwPosterior,
    mean: np.ndarray,
    cov: np.ndarray,
    n_grid: int = 160,
    pad_stds: float = 5.0,
) -> float:
    """Sup-norm gap between the predictive density and a target Gaussian.

    Evaluated on a tensor grid centered at the target mean (d <= 2).
    Shrinks to zero as the posterior's counts grow with data drawn from
    the target.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    if post.dim > 2:
        raise ValueError("grid evaluation supports d <= 2")
    sd = math.sqrt(np.linalg.eigvalsh(cov).max())
    grid, _ = _tensor_grid(mean - pad_stds * sd, mean + pad_stds * sd, n_grid)
    pred = np.exp(log_predictive_density_rows(post, grid))
    gauss = GaussianMixture(weights=np.ones(1), means=mean, covariances=cov).pdf(grid)
    return float(np.max(np.abs(pred - gauss)))


def slope_with_stderr(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and its standard error, both exactly 0 for a constant y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_c = x - x.mean()
    sxx = np.dot(x_c, x_c)
    if not sxx > 0.0:
        raise ValueError("slope undefined: x does not vary")
    if np.all(y == y[0]):
        return 0.0, 0.0
    slope = float(np.dot(x_c, y - y.mean()) / sxx)
    resid = y - y.mean() - slope * x_c
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return slope, se


def run_with_diagnostics(
    stream: np.ndarray,
    config: EngineConfig,
    truth: GaussianMixture | None = None,
    checkpoint_every: int = 100,
    kl_mc: int = 5000,
    kl_seed: int = 0,
    l2_grid: int = 200,
) -> RunTrace:
    """``run`` plus diagnostics recorded at periodic checkpoints.

    The run is ``run`` with an ``on_step`` callback: same labels,
    maintenance and errors.  After every ``checkpoint_every``-th step
    (>= 1, else ConfigError) and its maintenance, a checkpoint summarizes
    the state, with the likelihood ratio of that step's observation
    against the state before the step (the per-step ratio a converging
    run keeps bounded; None at step 1) and, given a generating mixture,
    truth-relative metrics.  KL estimates share one seed across
    checkpoints so their trend over n is not drowned by resampling noise;
    the truth draws of the KL and Monte Carlo L2 estimates, and their
    truth densities, are taken once per run, so a checkpoint only scores
    the book.  ``kl_mc`` and ``l2_grid`` must be at least 2 (else
    ConfigError, before any step runs).
    """
    if checkpoint_every < 1:
        raise ConfigError(f"checkpoint_every must be a positive integer, got {checkpoint_every}")
    _at_least_two(kl_mc=kl_mc, l2_grid=l2_grid)
    stream = as_stream(stream)
    config = config.resolve(stream.shape[1])
    checkpoints: list[Checkpoint] = []
    pending_lr: float | None = None
    kl_draws = l2_draws = None
    if truth is not None:
        kl_draws = _truth_draws(truth, kl_mc, kl_seed)
        if truth.dim > 2:  # the draws of l2_distance_to_truth's default n_mc and seed
            l2_draws = _truth_draws(truth, 20000, 0)

    def on_step(i: int, book: ClusterBook) -> None:
        nonlocal pending_lr
        if i % checkpoint_every == 0:
            cp = Checkpoint(
                n=book.n, k=book.k, alpha=book.alpha(config.lam), likelihood_ratio=pending_lr
            )
            if truth is not None:
                if l2_draws is None:
                    cp.l2_distance = l2_distance_to_truth(book, truth, grid_points=l2_grid)
                else:
                    cp.l2_distance = _l2_from_draws(book, *l2_draws).value
                kl = _kl_from_draws(book, *kl_draws)
                cp.kl_estimate, cp.kl_stderr = kl.value, kl.stderr
            checkpoints.append(cp)
        if (i + 1) % checkpoint_every == 0 and i < len(stream):
            # the state here is the one step i + 1 scores stream[i] against
            pending_lr = likelihood_ratio(book, config.prior, stream[i])

    trace = run(stream, config, on_step=on_step)
    trace.checkpoints = checkpoints
    return trace
