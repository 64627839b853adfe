"""Convergence and stability diagnostics for streaming mixture runs.

Quantities evaluated on a cluster book snapshot: the fitted predictive
mixture, its ratio against the fresh-cluster predictive, innovation
probability, and distances to a known generating mixture.  Standalone
numeric checks cover the growth identities behind the adaptive
concentration design: the harmonic log-product ratio, the iterated-log
product bound, the Gaussian limit of the predictive density, and a
least-squares slope with its standard error for trends over n.

The functions of a snapshot (a cluster book, a posterior or a mixture)
or of plain numbers give values that depend on their arguments alone.
``run_with_diagnostics`` and ``run_many_with_diagnostics`` are not such
functions: they run the engine, whose steps change its books, and
evaluate a snapshot at each of its checkpoints.
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
    StepError,
    _is_int,
    as_stream,
    merge,  # merge, prune and step are unused here but stay attributes of
    prune,  # this module: perfbench/tracer.py wraps them here too
    run_many,
    step,
)
from asugs.mixture import GaussianMixture, gaussian_log_density, log_sum_exp, row_quad_forms
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    prior_predictive,
    quad_forms,
    student_t_log_density,
)


def log_mixture_predictive_rows(book: ClusterBook, ys: np.ndarray) -> np.ndarray:
    """Log of the fitted mixture density over existing clusters.

    Clusters are weighted by their share of currently assigned
    observations (counts of pruned clusters are gone), so the mixture
    integrates to 1 regardless of pruning history.  No innovation slot.
    """
    _require_clusters(book)
    return _log_mixture(book, row_quad_forms(ys, book.mu, book.prec))


def _require_clusters(book: ClusterBook) -> None:
    if book.k == 0:
        raise ValueError("mixture predictive undefined for an empty book")


def _log_mixture(book: ClusterBook, logs: np.ndarray) -> np.ndarray:
    """The mixture log density of each column of the K x N quadratic forms
    ``logs``, which it overwrites."""
    student_t_log_density(book.log_norm[:, None], book.coef[:, None], book.expo[:, None], logs,
                          out=logs)
    logs += np.log(book.m / book.total_count)[:, None]
    return log_sum_exp(logs, overwrite=True)


def _log_likelihood_ratio(book: ClusterBook, prior: PriorConfig, y: np.ndarray) -> float:
    """The one row is scored with the engine's matmul sandwich, which costs
    less than the row scorer's loop over clusters."""
    y = np.asarray(y, dtype=float).reshape(-1)
    _require_clusters(book)
    quad = quad_forms(y - book.mu, book.prec)
    return prior_predictive(prior, y) - _log_mixture(book, quad[:, None])[0]


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


def _grid_quad(axes, mu: np.ndarray, prec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(y - mu)^T prec (y - mu) at every point of a d <= 2 tensor grid,
    written into ``out`` (grid shape): P_00 u_0^2 + 2 P_01 u_0 u_1 + P_11 u_1^2
    over the per-axis offsets u_a, by broadcast writes and adds of per-axis
    vectors, so no row array of points and no grid-sized temporary."""
    u0 = axes[0] - mu[0]
    if len(axes) == 1:
        return np.multiply(prec[0, 0], u0 ** 2, out=out)
    u1 = axes[1] - mu[1]
    np.multiply(((2.0 * prec[0, 1]) * u0)[:, None], u1, out=out)
    out += (prec[0, 0] * u0 ** 2)[:, None]
    out += prec[1, 1] * u1 ** 2
    return out


def _grid_gap(axes, fitted, truth: GaussianMixture) -> np.ndarray:
    """The fitted Student-t mixture minus the truth's Gaussian mixture at
    every point of a d <= 2 tensor grid, in grid shape.  ``fitted`` holds
    one (weight, mu, prec, log_norm, coef, expo) per component.  Each
    component's weighted density is added in the linear domain through one
    buffer that every component reuses: two grid arrays whatever the
    number of components."""
    gap = np.zeros(tuple(map(len, axes)))
    buf = np.empty_like(gap)
    for weight, mu, prec, log_norm, coef, expo in fitted:
        student_t_log_density(log_norm, coef, expo, _grid_quad(axes, mu, prec, buf), out=buf)
        buf += math.log(weight)
        gap += np.exp(buf, out=buf)
    for h in range(truth.n_components):
        gaussian_log_density(truth.dim, truth.logdets[h],
                             _grid_quad(axes, truth.means[h], truth.precs[h], buf), out=buf)
        buf += math.log(truth.weights[h])
        gap -= np.exp(buf, out=buf)
    return gap


# the Monte Carlo L2 estimate's draws from the truth (d > 2), their number and seed
L2_MC_DRAWS, L2_MC_SEED = 20000, 0
# a checkpoint's KL draws from the truth, their number and seed, and L2 grid points per axis
CHECKPOINT_KL_DRAWS, CHECKPOINT_KL_SEED, CHECKPOINT_L2_GRID = 5000, 0, 200


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
    n_mc: int = L2_MC_DRAWS,
    seed: int = L2_MC_SEED,
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
    linear domain, through one buffer that every component reuses: three
    grid arrays (sum, buffer, weights) whatever the number of clusters.
    """
    if book.k == 0:
        raise ValueError("L2 distance undefined for an empty book")
    if truth.dim > 2:
        _at_least_two(n_mc=n_mc)
        return _l2_from_draws(book, *_truth_draws(truth, n_mc, seed))
    _at_least_two(grid_points=grid_points)
    # the grid must cover the fitted clusters too, or their mass is
    # invisible to the quadrature
    mus, pad = np.vstack([truth.means, book.mu]), pad_stds * truth.max_sd
    axes = _grid_axes(mus.min(axis=0) - pad, mus.max(axis=0) + pad, grid_points)
    fitted = zip(book.m / book.total_count, book.mu, book.prec, book.log_norm, book.coef,
                 book.expo)
    diff = _grid_gap(axes, fitted, truth)
    np.square(diff, out=diff)
    return float(np.sqrt(np.sum(np.multiply(diff, _grid_weights(axes), out=diff))))


def _truth_draws(truth: GaussianMixture, n_mc: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_mc`` draws from the truth under ``seed`` and their truth log density."""
    ys, _ = truth.sample(n_mc, np.random.Generator(np.random.PCG64(seed)))
    return ys, truth.logpdf(ys)


def _l2_from_draws(book: ClusterBook, ys: np.ndarray, log_truth: np.ndarray) -> McEstimate:
    pt = np.exp(log_truth)
    vals = log_mixture_predictive_rows(book, ys)
    np.square(np.subtract(np.exp(vals, out=vals), pt, out=vals), out=vals)
    vals /= pt
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(ys)))
    return McEstimate(value=math.sqrt(max(est, 0.0)),
                      stderr=se / (2.0 * math.sqrt(max(est, 1e-300))))


def _kl_from_draws(book: ClusterBook, ys: np.ndarray, log_truth: np.ndarray) -> McEstimate:
    vals = log_mixture_predictive_rows(book, ys)
    np.subtract(log_truth, vals, out=vals)
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

    Evaluated on a tensor grid centered at the target mean (d <= 2), as
    ``l2_distance_to_truth`` evaluates its grid.  Shrinks to zero as the
    posterior's counts grow with data drawn from the target.
    """
    if post.dim > 2:
        raise ValueError("grid evaluation supports d <= 2")
    target = GaussianMixture(weights=np.ones(1), means=mean, covariances=cov)
    if target.dim != post.dim:
        raise ValueError(f"target has dim {target.dim}, state has dim {post.dim}")
    mean, pad = target.means[0], pad_stds * target.max_sd
    axes = _grid_axes(mean - pad, mean + pad, n_grid)
    prec, _, log_norm, coef, expo = post.factors
    gap = _grid_gap(axes, [(1.0, post.mu, prec, log_norm, coef, expo)], target)
    return float(np.max(np.abs(gap, out=gap)))


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


def run_many_with_diagnostics(
    streams: list[np.ndarray],
    configs: list[EngineConfig],
    truth: GaussianMixture | None = None,
    checkpoint_every: int = 100,
) -> list[RunTrace | Exception]:
    """``run_many`` plus diagnostics recorded at periodic checkpoints: for
    each stream, its ``RunTrace`` with its checkpoints, or its exception.

    Each run has its own ``on_step`` callback in one ``run_many`` call, so
    labels, maintenance and errors are ``run_many``'s.  After every
    ``checkpoint_every``-th step and its maintenance, a checkpoint
    summarizes the state, with the likelihood ratio of that step's
    observation against the state before the step (the per-step ratio a
    converging run keeps bounded; None at step 1) and, given a generating
    mixture, truth-relative metrics: the L2 distance on a grid of
    ``CHECKPOINT_L2_GRID`` points per axis (d <= 2) or against
    ``L2_MC_DRAWS`` draws, and the KL estimate against
    ``CHECKPOINT_KL_DRAWS`` draws under ``CHECKPOINT_KL_SEED``.  The draws
    are shared across checkpoints so the trend over n is not drowned by
    resampling noise; they and their truth densities are taken once per
    call, so a checkpoint only scores the book.  A ``checkpoint_every``
    that is not a positive integer raises ConfigError before any step.  A
    stream whose d is not the truth's gets a ConfigError naming both.
    """
    if not (_is_int(checkpoint_every) and checkpoint_every >= 1):
        raise ConfigError(f"checkpoint_every must be a positive integer, got {checkpoint_every!r}")
    kl_draws = l2_draws = None
    if truth is not None:
        kl_draws = _truth_draws(truth, CHECKPOINT_KL_DRAWS, CHECKPOINT_KL_SEED)
        if truth.dim > 2:
            l2_draws = _truth_draws(truth, L2_MC_DRAWS, L2_MC_SEED)
    results: list[RunTrace | Exception | None] = [None] * len(streams)
    runs = []  # (index, stream, config, checkpoints, on_step) of the accepted streams
    for index, (stream, config) in enumerate(zip(streams, configs, strict=True)):
        try:
            stream = as_stream(stream)
            config = config.resolve(stream.shape[1])
            if truth is not None and truth.dim != stream.shape[1]:
                raise ConfigError(f"truth has dim {truth.dim}, stream has dim {stream.shape[1]}")
        except (ValueError, StepError) as exc:  # ConfigError is a ValueError
            results[index] = exc
            continue
        runs.append((index, stream, config,
                     *_checkpointer(stream, config, truth, checkpoint_every, kl_draws, l2_draws)))
    traces = run_many([s for _, s, *_ in runs], [c for _, _, c, *_ in runs],
                      [on_step for *_, on_step in runs])
    for (index, _, _, checkpoints, _), trace in zip(runs, traces):
        if not isinstance(trace, Exception):
            trace.checkpoints = checkpoints
        results[index] = trace
    return results


def _checkpointer(stream, config, truth, every, kl_draws, l2_draws):
    """The checkpoints of one diagnosed run and the ``on_step`` that fills them."""
    checkpoints: list[Checkpoint] = []
    pending_lr: float | None = None

    def on_step(i: int, book: ClusterBook) -> None:
        nonlocal pending_lr
        if i % every == 0:
            cp = Checkpoint(
                n=book.n, k=book.k, alpha=config.alpha(book), likelihood_ratio=pending_lr
            )
            if truth is not None:
                if l2_draws is None:
                    cp.l2_distance = l2_distance_to_truth(book, truth, CHECKPOINT_L2_GRID)
                else:
                    cp.l2_distance = _l2_from_draws(book, *l2_draws).value
                kl = _kl_from_draws(book, *kl_draws)
                cp.kl_estimate, cp.kl_stderr = kl.value, kl.stderr
            checkpoints.append(cp)
        if (i + 1) % every == 0 and i < len(stream):
            # the state here is the one step i + 1 scores stream[i] against
            pending_lr = likelihood_ratio(book, config.prior, stream[i])

    return checkpoints, on_step


def run_with_diagnostics(
    stream: np.ndarray,
    config: EngineConfig,
    truth: GaussianMixture | None = None,
    checkpoint_every: int = 100,
) -> RunTrace:
    """``run`` plus diagnostics recorded at periodic checkpoints:
    ``run_many_with_diagnostics`` of this one stream, whose exception it
    raises."""
    (result,) = run_many_with_diagnostics([stream], [config], truth, checkpoint_every)
    if isinstance(result, Exception):
        raise result
    return result
