"""Sequential clustering state machines.

One observation per step: pick a cluster (or open a new one) from the
responsibility vector, then apply the conjugate hyperparameter update.
The concentration parameter is either adapted per step, k / (lambda +
log n), or held fixed (the classic greedy baseline).  Periodic
maintenance removes clusters whose running posterior weight has become
negligible and fuses clusters whose responsibility histories track each
other.

A run's whole state is one ``ClusterBook``: the live clusters in birth
order, the observation count n (from which, with k, the adaptive
concentration follows) and two K x K arrays of pairwise responsibility
histories indexed by position in that order.  A single run is strictly
sequential and owns its book; distinct runs share nothing and may
execute concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    _observation,
    conjugate_update,
    log_predictive_density,  # these three are unused here but stay attributes
    posterior_update,  # of this module: perfbench/tracer.py wraps them here
    prior_predictive,
    student_t_factors,
    student_t_log_density,
    student_t_log_norm,
    student_t_shape,
)


class ConfigError(ValueError):
    """Invalid engine configuration; message names the offending field."""


class StepError(RuntimeError):
    """A step of ``run`` failed; ``step`` is its 1-based index, which is
    the 1-based row of the stream, and the cause is chained."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step} failed: {cause}")
        self.step = step


_CLUSTER_FIELDS = (
    "mu", "sigma", "c", "delta", "m", "_w", "cid", "prec", "logdet", "log_norm", "coef", "expo",
)
REFRESH_MAX_T = 100.0  # largest t that ``ClusterBook.absorb`` refreshes in closed form


@dataclass
class ClusterBook:
    """Live clusters in birth order as one struct of arrays.

    Position h along axis 0 of each per-cluster array is one cluster: its
    normal-Wishart state ``mu`` (K x d), ``sigma`` (K x d x d), ``c`` and
    ``delta``; its hard assignment count ``m``; ``w``, its summed
    responsibilities since birth; its stable id ``cid``; and its cached
    predictive factors ``prec`` (sigma^-1), ``logdet``, ``log_norm``,
    ``coef`` and ``expo`` (``student_t_factors``): ``add`` copies them with
    the state it is given, ``factorise`` computes them afresh from the
    state, ``absorb`` updates the state by one observation and refreshes
    them in O(d^2).  Each sigma is exactly symmetric: it enters through a
    ``NiwPosterior`` (the prior's own state included), which symmetrises
    it, and the update and the merge keep it so.

    For positions i < j, ``dist[i, j]`` accumulates |q_i - q_j| and
    ``coact[i, j]`` accumulates q_i + q_j over the steps since the pair
    began tracking; entries on and below the diagonal are never read.
    The first, time-averaged, is the merge distance; the second measures
    how much responsibility mass the pair has actually received, i.e.
    how much evidence the distance rests on.  ``add`` and ``keep`` are
    the only places where the arrays change length.

    ``w``, ``dist`` and ``coact`` are folded on read: a step ``push``es its
    responsibilities q of the live clusters onto ``window``, and ``fold``
    adds the window's terms in step order, so every read sees the sums of
    adding once per step, bit for bit.  The window is folded before ``add``
    and ``keep`` change k (so it holds one k) and whenever it reaches the
    period ``push`` is given.
    """

    n: int = 0
    mu: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    sigma: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))
    delta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    _w: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cid: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    prec: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    logdet: np.ndarray = field(default_factory=lambda: np.zeros(0))
    log_norm: np.ndarray = field(default_factory=lambda: np.zeros(0))
    coef: np.ndarray = field(default_factory=lambda: np.zeros(0))
    expo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _dist: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    _coact: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    next_cid: int = 1
    window: list[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def w(self) -> np.ndarray:
        self.fold()
        return self._w

    @property
    def dist(self) -> np.ndarray:
        self.fold()
        return self._dist

    @property
    def coact(self) -> np.ndarray:
        self.fold()
        return self._coact

    @property
    def k(self) -> int:
        return len(self.cid)

    @property
    def total_count(self) -> int:
        """Sum of per-cluster counts; equals n until pruning drops some."""
        return int(self.m.sum())

    def alpha(self, lam: float) -> float:
        """Adaptive concentration k / (lam + log n); requires n >= 1."""
        if self.n < 1:
            raise ValueError("alpha undefined before the first observation")
        return self.k / (lam + math.log(self.n))

    def factorise(self, h: int) -> None:
        """Compute cluster h's cached factors afresh from its state.  Raises
        ``numpy.linalg.LinAlgError`` if sigma is not positive definite."""
        (self.prec[h], self.logdet[h], self.log_norm[h], self.coef[h],
         self.expo[h]) = student_t_factors(self.c[h], self.delta[h], self.sigma[h])

    def push(self, q: np.ndarray, period: int) -> None:
        """Queue one step's responsibilities of the k live clusters, folding
        once the window holds ``period`` steps."""
        self.window.append(q)
        if len(self.window) >= period:
            self.fold()

    def fold(self) -> None:
        """Add the window's terms q, |q_i - q_j| and q_i + q_j into w, dist
        and coact, one step after another, and empty it."""
        if not self.window:
            return
        q = np.array(self.window)
        self.window = []
        self._w = _sum_in_order(self._w, q)
        self._dist = _sum_in_order(self._dist, np.abs(q[:, :, None] - q[:, None, :]))
        self._coact = _sum_in_order(self._coact, q[:, :, None] + q[:, None, :])

    def absorb(self, h: int, y: np.ndarray) -> None:
        """Update cluster h by y in place (``conjugate_update``).  As sigma' = a
        sigma + b r r^T, r = y - mu, with s = b/a and t = s r^T P r, Sherman-
        Morrison gives P' = (P - s/(1+t) (P r)(P r)^T) / a and the determinant
        lemma logdet' = d log a + logdet + log1p(t).  The subtraction loses
        about (1+t) ulps, so if t is not finite, negative (P is no longer
        positive definite) or above REFRESH_MAX_T, ``factorise`` runs instead."""
        c, delta = float(self.c[h]), float(self.delta[h])
        r, a, b = conjugate_update(self.mu[h], c, delta, self.sigma[h], y)
        self.c[h], self.delta[h] = c, delta = c + 1.0, delta + 0.5
        p_r = self.prec[h] @ r
        t = b / a * float(r @ p_r)
        if not 0.0 <= t <= REFRESH_MAX_T:
            return self.factorise(h)
        prec = self.prec[h]  # a view: refreshed in place
        prec -= ((b / a / (1.0 + t)) * p_r)[:, None] * p_r
        prec /= a
        logdet = len(r) * math.log(a) + self.logdet[h] + math.log1p(t)
        self.logdet[h], self.log_norm[h] = logdet, student_t_log_norm(c, delta, len(r), logdet)
        self.coef[h], self.expo[h] = student_t_shape(c, delta)

    def add(self, post: NiwPosterior, m: int, w: float) -> None:
        """Append a cluster with a copy of post's state and ``factors`` and a
        fresh cid; its pair histories start at zero."""
        self.fold()
        d, h = post.dim, self.k
        for name in _CLUSTER_FIELDS:
            tail = {"mu": (d,), "sigma": (d, d), "prec": (d, d)}.get(name, ())
            arr = getattr(self, name).reshape(h, *tail)
            setattr(self, name, np.concatenate([arr, np.zeros((1, *tail), arr.dtype)]))
        self.m[h], self._w[h], self.cid[h] = m, w, self.next_cid
        self.next_cid += 1
        self._dist = np.pad(self._dist, ((0, 1), (0, 1)))
        self._coact = np.pad(self._coact, ((0, 1), (0, 1)))
        self.mu[h], self.sigma[h] = post.mu, post.sigma
        self.c[h], self.delta[h] = post.c, post.delta
        self.prec[h], self.logdet[h], self.log_norm[h], self.coef[h], self.expo[h] = post.factors

    def keep(self, mask: np.ndarray) -> None:
        """Drop the clusters where mask is False, with their rows and columns."""
        self.fold()
        mask = np.asarray(mask, dtype=bool)
        for name in _CLUSTER_FIELDS:
            setattr(self, name, getattr(self, name)[mask])
        self._dist = self._dist[mask][:, mask]
        self._coact = self._coact[mask][:, mask]


def _sum_in_order(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + terms[0] + terms[1] + ..., added in that order.  ``np.add.reduce``
    over axis 0 adds whole rows in turn, but a column of scalars (k = 1) it
    sums pairwise, so there the running ``accumulate`` gives the sum."""
    stack = np.concatenate([total[None], terms])
    if total.size > 1:
        return np.add.reduce(stack, axis=0)
    return np.add.accumulate(stack, axis=0)[-1]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class EngineConfig:
    """Run configuration; ``resolve`` fills defaults and validates.

    fixed_alpha engages the fixed-concentration baseline; selection then
    defaults to "argmax" (greedy), otherwise to "sample".  prune_eps and
    merge_eps of zero disable the respective maintenance action.
    """

    lam: float = 0.3
    selection: str | None = None  # "sample" | "argmax"
    fixed_alpha: float | None = None
    prune_eps: float = 0.01
    merge_eps: float = 0.05
    maintenance_period: int = 50
    seed: int = 0
    prior: PriorConfig | None = None

    def resolve(self, d: int) -> "EngineConfig":
        sel = self.selection
        if sel is None:
            sel = "argmax" if self.fixed_alpha is not None else "sample"
        cfg = replace(self, selection=sel)
        if cfg.prior is None:
            cfg = replace(cfg, prior=PriorConfig.default(d))
        if not (math.isfinite(cfg.lam) and cfg.lam > 0):
            raise ConfigError(f"lam must be positive and finite, got {cfg.lam}")
        if cfg.selection not in ("sample", "argmax"):
            raise ConfigError(f"selection must be 'sample' or 'argmax', got {cfg.selection!r}")
        if cfg.fixed_alpha is not None and not (
            math.isfinite(cfg.fixed_alpha) and cfg.fixed_alpha > 0
        ):
            raise ConfigError(f"fixed_alpha must be positive and finite, got {cfg.fixed_alpha}")
        if not 0.0 <= cfg.prune_eps < 1.0:
            raise ConfigError(f"prune_eps must be in [0, 1), got {cfg.prune_eps}")
        if not (math.isfinite(cfg.merge_eps) and cfg.merge_eps >= 0):
            raise ConfigError(f"merge_eps must be nonnegative and finite, got {cfg.merge_eps}")
        if not (_is_int(cfg.maintenance_period) and cfg.maintenance_period >= 1):
            raise ConfigError(
                f"maintenance_period must be a positive integer, got {cfg.maintenance_period!r}"
            )
        if not (_is_int(cfg.seed) and cfg.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {cfg.seed!r}")
        if cfg.prior.dim != d:
            raise ConfigError(f"prior has dim {cfg.prior.dim}, data has dim {d}")
        return cfg


@dataclass
class StepRecord:
    """Per-observation outcome: chosen label and the evidence behind it.

    label is 1-based over the clusters live at selection time; the
    innovation slot is k+1.  alpha_used is 0.0 on the very first step,
    where no selection takes place.
    """

    index: int
    label: int
    q: np.ndarray
    alpha_used: float
    k_after: int
    innovation: bool


def _quad_forms(e: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """e^T prec e for each row of e (... x d), against the matching or a
    shared prec (d x d): the batched matmul sandwich."""
    return (e[..., None, :] @ prec @ e[..., :, None])[..., 0, 0]


def _prior_scores(prior: PriorConfig, rows: np.ndarray) -> np.ndarray:
    """``prior_predictive`` of each row, bit for bit, in one batched pass."""
    prec, _, log_norm, coef, expo = prior.state.factors
    return student_t_log_density(log_norm, coef, expo, _quad_forms(rows - prior.state.mu, prec))


def responsibilities(
    book: ClusterBook, y: np.ndarray, alpha: float, log_new: float
) -> np.ndarray:
    """Posterior probability of each label (existing clusters, then new).

    Label prior m(h)/(n + alpha), and alpha/(n + alpha) for a new cluster,
    in log domain and normalized by max-subtraction: the common 1/(n + alpha)
    cancels and is omitted, and q sums to 1 also after pruning has dropped
    counts.  One batched quadratic form over the cached precisions scores
    every cluster; ``log_new`` is the new cluster's log density of y,
    ``prior_predictive(prior, y)``."""
    k = book.k
    if k == 0:
        return np.array([1.0])
    logq = np.empty(k + 1)
    quad = _quad_forms(y - book.mu, book.prec)
    logq[:k] = np.log(book.m) + student_t_log_density(book.log_norm, book.coef, book.expo, quad)
    logq[k] = math.log(alpha) + log_new
    logq -= logq.max()
    q = np.exp(logq)
    q /= q.sum()
    return q


def step(
    book: ClusterBook, y: np.ndarray, config: EngineConfig, rng: np.random.Generator,
    log_new: float,
) -> StepRecord:
    """Process one observation, updating the book in place.  y must be
    finite: ``run`` checks the whole stream (``as_stream``) before its
    first step, so the step does not check again.  ``log_new`` is
    ``prior_predictive(config.prior, y)``, which ``run`` scores for a window
    of rows at once.  A y that is not a length-d array is converted and checked."""
    d = config.prior.dim
    if getattr(y, "shape", None) != (d,):  # the rows ``run`` passes are shaped already
        y = _observation(y, d)
    k = book.k
    if k == 0:
        alpha, q, label = 0.0, np.array([1.0]), 1  # the first observation opens cluster 1
    else:
        alpha = config.fixed_alpha if config.fixed_alpha is not None else book.alpha(config.lam)
        q = responsibilities(book, y, alpha, log_new)
        if config.selection == "argmax":
            label = int(q.argmax()) + 1  # ties resolve to the lowest index
        else:
            label = int(q.cumsum().searchsorted(rng.random(), side="right")) + 1
            label = min(label, k + 1)  # cumsum may fall short of 1 by an ulp

    innovation = label == k + 1
    if innovation:  # a new cluster is the prior absorbing its first observation
        book.add(config.prior.state, 0, 0.0)
        k += 1
    book.absorb(label - 1, y)
    book.m[label - 1] += 1
    book.push(q[:k], config.maintenance_period)  # an unused innovation slot's mass is dropped

    book.n += 1
    return StepRecord(
        index=book.n, label=label, q=q, alpha_used=float(alpha),
        k_after=k, innovation=innovation,
    )


def prune(book: ClusterBook, eps_r: float) -> list[int]:
    """Remove clusters whose relative running weight fell below eps_r.

    Thresholds are evaluated against the pre-sweep normalization, all
    removals happen in one sweep, and the last cluster is never removed.
    Counts of removed clusters are dropped; n stays as is.  Returns the
    cids of removed clusters.
    """
    if book.k <= 1 or eps_r <= 0.0:
        return []
    total = book.w.sum()
    if total <= 0.0:
        return []
    rel = book.w / total
    kept = rel >= eps_r
    if not kept.any():
        kept[int(np.argmax(rel))] = True
    removed = book.cid[~kept].tolist()
    if removed:
        book.keep(kept)
    return removed


MERGE_MIN_COACTIVITY = 1.0  # one observation's worth of shared mass
MERGE_EVIDENCE_RATIO = 0.65  # diff sum must stay well below the shared mass


def merge(book: ClusterBook, eps_d: float) -> list[tuple[int, int]]:
    """Fuse cluster pairs whose time-averaged responsibility distance is small.

    Pairs with d_q = dist/n below eps_d merge greedily in ascending
    d_q; each cluster participates in at most one merge per sweep.  A
    small d_q alone cannot distinguish duplicated clusters from clusters
    that were merely inactive, so a pair is only mergeable once it has
    received at least one observation's worth of combined responsibility
    and its accumulated |q_a - q_b| is small against that mass.  The
    lower-index cluster survives with count-weighted convex combinations
    of mu and sigma and summed c, delta, m, w; distance tracking for the
    survivor restarts at zero.  Returns (survivor_cid, absorbed_cid)
    pairs.
    """
    if book.k <= 1 or eps_d <= 0.0 or book.n == 0:
        return []
    d_q = book.dist / book.n
    ok = (d_q < eps_d) & (book.coact >= MERGE_MIN_COACTIVITY) & (
        book.dist < MERGE_EVIDENCE_RATIO * book.coact
    )
    iu, ju = np.nonzero(ok)
    candidates = sorted(
        (float(d_q[i, j]), i, j) for i, j in zip(iu.tolist(), ju.tolist()) if i < j
    )

    merged_positions: set[int] = set()
    events: list[tuple[int, int]] = []
    kept = np.ones(book.k, dtype=bool)
    for _, i, j in candidates:
        if i in merged_positions or j in merged_positions:
            continue
        a = book.c[i] / (book.c[i] + book.c[j])
        for arr in (book.mu, book.sigma):
            arr[i] = a * arr[i] + (1.0 - a) * arr[j]
        for arr in (book.c, book.delta, book.m, book.w):
            arr[i] += arr[j]
        book.factorise(i)
        merged_positions.update((i, j))
        events.append((int(book.cid[i]), int(book.cid[j])))
        for pairs in (book.dist, book.coact):
            pairs[i, :] = pairs[:, i] = 0.0
        kept[j] = False

    if events:
        book.keep(kept)
    return events


@dataclass
class Checkpoint:
    """Diagnostics sampled at one point of a run (post-maintenance)."""

    n: int
    k: int
    alpha: float
    likelihood_ratio: float | None = None
    l2_distance: float | None = None
    kl_estimate: float | None = None
    kl_stderr: float | None = None


@dataclass
class RunTrace:
    """Everything a finished run persists: config echo, per-step records,
    the final cluster book and optional diagnostics checkpoints."""

    config: EngineConfig
    records: list[StepRecord]
    final_book: ClusterBook = field(repr=False, compare=False)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.final_book.n

    @property
    def k(self) -> int:
        return self.final_book.k

    def k_series(self) -> np.ndarray:
        return np.array([r.k_after for r in self.records], dtype=int)


def as_stream(stream) -> np.ndarray:
    """The observations as an n x d float array, n >= 1 and d >= 1.

    A 1-D array is one observation.  A stream without rows, without
    coordinates or with more than two axes raises ``ValueError``.  A row
    with a non-finite value raises the ``StepError`` its step would: the
    first such row i gives ``StepError(i, ValueError(...))``.
    """
    given = np.asarray(stream, dtype=float)
    stream = np.atleast_2d(given)
    if stream.ndim != 2 or stream.shape[1] == 0:
        raise ValueError(f"stream must be rows of at least one coordinate, got shape {given.shape}")
    if stream.shape[0] == 0:
        raise ValueError("stream must contain at least one observation")
    finite = np.isfinite(stream).all(axis=1)
    if not finite.all():
        cause = ValueError("observation contains a non-finite value")
        raise StepError(int(finite.argmin()) + 1, cause) from cause
    return stream


def run(
    stream: np.ndarray,
    config: EngineConfig,
    on_step: Callable[[int, ClusterBook], None] | None = None,
) -> RunTrace:
    """Drive the full loop over a stream of observations.

    Maintenance (prune, then merge) runs every ``maintenance_period``
    steps and once more at stream end if the last step was not already a
    maintenance step.  The rows go in windows of that period: before a
    window's first step, one batched call scores the prior predictive of
    all its rows.  A stream that ``as_stream`` rejects (empty, no
    coordinates, more than two axes) raises ``ValueError``; a failing
    step raises ``StepError`` (a ``RuntimeError``) naming its 1-based index.
    A non-finite row raises its ``StepError`` before the first step.

    ``on_step(i, book)``, if given, is called after step i (1-based) and
    any maintenance at that step, and before the end-of-stream
    maintenance: it sees the state the next observation will be scored
    against.  It must not modify that state.  As non-finite rows are
    rejected up front, ``on_step`` never sees a stream that will fail on
    one.
    """
    stream = as_stream(stream)
    config = config.resolve(stream.shape[1])
    rng = np.random.Generator(np.random.PCG64(config.seed))
    book = ClusterBook()
    records: list[StepRecord] = []

    def maintain() -> None:
        prune(book, config.prune_eps)
        merge(book, config.merge_eps)
        records[-1].k_after = book.k

    maintenance = config.prune_eps > 0.0 or config.merge_eps > 0.0
    period = config.maintenance_period
    for start in range(0, len(stream), period):  # one window per maintenance period
        rows = stream[start:start + period]
        for i, y, log_new in zip(range(start + 1, start + period + 1), rows,
                                 _prior_scores(config.prior, rows).tolist()):
            try:
                records.append(step(book, y, config, rng, log_new))
            except Exception as exc:
                raise StepError(i, exc) from exc
            if maintenance and i % period == 0:
                maintain()
            if on_step is not None:
                on_step(i, book)
    if maintenance and book.n % period != 0:
        maintain()
    return RunTrace(config=config, records=records, final_book=book)
