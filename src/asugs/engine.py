"""Sequential clustering state machines.

One observation per step: pick a cluster (or open a new one) from the
responsibility vector, then apply the conjugate hyperparameter update.
The concentration parameter is either adapted per step, k / (lambda +
log n), or held fixed (the classic greedy baseline).  Periodic
maintenance removes clusters whose running posterior weight has become
negligible and fuses clusters whose responsibility histories track each
other.

A single run is strictly sequential and owns all of its state; distinct
runs share nothing and may execute concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density,
    posterior_update,
    prior_predictive,
)


class ConfigError(ValueError):
    """Invalid engine configuration; message names the offending field."""


@dataclass
class ConcentrationState:
    """Scalar state behind the adaptive concentration parameter.

    k    current number of live clusters
    lam  rate parameter of the exponential prior on the concentration
    n    observations processed so far
    """

    k: int
    lam: float
    n: int

    def alpha(self) -> float:
        """k / (lam + log n); requires n >= 1."""
        if self.n < 1:
            raise ValueError("alpha undefined before the first observation")
        return self.k / (self.lam + math.log(self.n))


@dataclass
class Cluster:
    """One live mixture component: posterior state plus assignment stats.

    m is the hard assignment count, w the running sum of this cluster's
    responsibilities over all steps since its birth.  cid is a stable
    identity that survives removals of other clusters.
    """

    post: NiwPosterior
    m: int
    w: float
    cid: int


@dataclass
class ClusterBook:
    """Ordered collection of live clusters plus pairwise history distances.

    For each live pair (keyed by (cid1, cid2), cid1 < cid2) two running
    sums are kept since the pair began tracking: dist_acc accumulates
    |q_cid1 - q_cid2| and coact_acc accumulates q_cid1 + q_cid2.  The
    first, time-averaged, is the merge distance; the second measures how
    much responsibility mass the pair has actually received, i.e. how
    much evidence the distance rests on.
    """

    clusters: list[Cluster] = field(default_factory=list)
    n: int = 0
    dist_acc: dict[tuple[int, int], float] = field(default_factory=dict)
    coact_acc: dict[tuple[int, int], float] = field(default_factory=dict)
    next_cid: int = 1

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def total_count(self) -> int:
        """Sum of per-cluster counts; equals n until pruning drops some."""
        return sum(c.m for c in self.clusters)

    def counts(self) -> np.ndarray:
        return np.array([c.m for c in self.clusters], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([c.w for c in self.clusters], dtype=float)

    def _pair_key(self, cid_a: int, cid_b: int) -> tuple[int, int]:
        return (cid_a, cid_b) if cid_a < cid_b else (cid_b, cid_a)

    def _reset_pair(self, cid_a: int, cid_b: int) -> None:
        key = self._pair_key(cid_a, cid_b)
        self.dist_acc[key] = 0.0
        self.coact_acc[key] = 0.0

    def _new_cluster(self, post: NiwPosterior, q_birth: float) -> Cluster:
        cl = Cluster(post=post, m=1, w=q_birth, cid=self.next_cid)
        self.next_cid += 1
        for other in self.clusters:
            self._reset_pair(other.cid, cl.cid)
        self.clusters.append(cl)
        return cl

    def _drop_pairs(self, cid: int) -> None:
        for key in [k for k in self.dist_acc if cid in k]:
            del self.dist_acc[key]
            del self.coact_acc[key]


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
        if cfg.lam <= 0:
            raise ConfigError(f"lam must be positive, got {cfg.lam}")
        if cfg.selection not in ("sample", "argmax"):
            raise ConfigError(f"selection must be 'sample' or 'argmax', got {cfg.selection!r}")
        if cfg.fixed_alpha is not None and cfg.fixed_alpha <= 0:
            raise ConfigError(f"fixed_alpha must be positive, got {cfg.fixed_alpha}")
        if not 0.0 <= cfg.prune_eps < 1.0:
            raise ConfigError(f"prune_eps must be in [0, 1), got {cfg.prune_eps}")
        if cfg.merge_eps < 0:
            raise ConfigError(f"merge_eps must be nonnegative, got {cfg.merge_eps}")
        if cfg.maintenance_period < 1:
            raise ConfigError(
                f"maintenance_period must be a positive integer, got {cfg.maintenance_period}"
            )
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


def adapt_alpha(state: ConcentrationState) -> float:
    """Concentration used for the next selection: k / (lam + log n)."""
    return state.alpha()


def predictive_prior_weights(book: ClusterBook, alpha: float) -> np.ndarray:
    """Label prior over existing clusters plus one innovation slot.

    Existing entries are m(h)/(n + alpha) and the last entry is
    alpha/(n + alpha); the vector is renormalized so it still sums to 1
    after pruning has dropped some counts (n itself is never reduced).
    """
    if book.k == 0:
        return np.array([1.0])
    raw = np.append(book.counts(), alpha) / (book.n + alpha)
    return raw / raw.sum()


def responsibilities(
    book: ClusterBook, y: np.ndarray, alpha: float, prior: PriorConfig
) -> np.ndarray:
    """Posterior probability of each label (existing clusters, then new).

    Computed in log domain and normalized by max-subtraction; the common
    1/(n + alpha) factor of the label prior cancels and is omitted.
    """
    if book.k == 0:
        return np.array([1.0])
    logq = np.empty(book.k + 1)
    for h, cl in enumerate(book.clusters):
        logq[h] = math.log(cl.m) + log_predictive_density(cl.post, y)
    logq[-1] = math.log(alpha) + prior_predictive(prior, y)
    logq -= logq.max()
    q = np.exp(logq)
    return q / q.sum()


def step(
    book: ClusterBook,
    conc: ConcentrationState,
    y: np.ndarray,
    config: EngineConfig,
    rng: np.random.Generator,
) -> StepRecord:
    """Process one observation, updating book and conc in place."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains a non-finite value")
    if book.k == 0:
        # First observation deterministically opens cluster 1.
        post = posterior_update(NiwPosterior.from_prior(config.prior), y)
        book._new_cluster(post, 1.0)
        book.n = 1
        conc.k, conc.n = 1, 1
        return StepRecord(
            index=1, label=1, q=np.array([1.0]), alpha_used=0.0, k_after=1,
            innovation=True,
        )

    alpha = config.fixed_alpha if config.fixed_alpha is not None else adapt_alpha(conc)
    q = responsibilities(book, y, alpha, config.prior)
    if config.selection == "argmax":
        label = int(np.argmax(q)) + 1  # ties resolve to the lowest index
    else:
        label = int(np.searchsorted(np.cumsum(q), rng.random(), side="right")) + 1
        label = min(label, book.k + 1)  # cumsum may fall short of 1 by an ulp

    innovation = label == book.k + 1
    k_old = book.k
    if innovation:
        post = posterior_update(NiwPosterior.from_prior(config.prior), y)
        book._new_cluster(post, 0.0)
        q_live = q
    else:
        cl = book.clusters[label - 1]
        cl.post = posterior_update(cl.post, y)
        cl.m += 1
        q_live = q[:k_old]  # the unused innovation slot's mass is dropped
    for h, cl in enumerate(book.clusters):
        cl.w += float(q_live[h])
        for g in range(h + 1, book.k):
            key = book._pair_key(cl.cid, book.clusters[g].cid)
            qh, qg = float(q_live[h]), float(q_live[g])
            book.dist_acc[key] += abs(qh - qg)
            book.coact_acc[key] += qh + qg

    book.n += 1
    conc.n = book.n
    conc.k = book.k
    return StepRecord(
        index=book.n, label=label, q=q, alpha_used=float(alpha),
        k_after=book.k, innovation=innovation,
    )


def prune(book: ClusterBook, conc: ConcentrationState, eps_r: float) -> list[int]:
    """Remove clusters whose relative running weight fell below eps_r.

    Thresholds are evaluated against the pre-sweep normalization, all
    removals happen in one sweep, and the last cluster is never removed.
    Counts of removed clusters are dropped; n stays as is.  Returns the
    cids of removed clusters.
    """
    if book.k <= 1 or eps_r <= 0.0:
        return []
    w = book.weights()
    total = w.sum()
    if total <= 0.0:
        return []
    rel = w / total
    keep = rel >= eps_r
    if not keep.any():
        keep[int(np.argmax(rel))] = True
    removed = [cl.cid for cl, k in zip(book.clusters, keep) if not k]
    book.clusters = [cl for cl, k in zip(book.clusters, keep) if k]
    for cid in removed:
        book._drop_pairs(cid)
    conc.k = book.k
    return removed


MERGE_MIN_COACTIVITY = 1.0  # one observation's worth of shared mass
MERGE_EVIDENCE_RATIO = 0.65  # diff sum must stay well below the shared mass


def merge(book: ClusterBook, conc: ConcentrationState, eps_d: float) -> list[tuple[int, int]]:
    """Fuse cluster pairs whose time-averaged responsibility distance is small.

    Pairs with d_q = dist_acc/n below eps_d merge greedily in ascending
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
    candidates = []
    for i in range(book.k):
        for j in range(i + 1, book.k):
            key = book._pair_key(book.clusters[i].cid, book.clusters[j].cid)
            d_q = book.dist_acc[key] / book.n
            coact = book.coact_acc[key]
            if (
                d_q < eps_d
                and coact >= MERGE_MIN_COACTIVITY
                and book.dist_acc[key] < MERGE_EVIDENCE_RATIO * coact
            ):
                candidates.append((d_q, i, j))
    candidates.sort()

    merged_positions: set[int] = set()
    events: list[tuple[int, int]] = []
    absorbed: list[int] = []
    for _, i, j in candidates:
        if i in merged_positions or j in merged_positions:
            continue
        a_cl, b_cl = book.clusters[i], book.clusters[j]
        a = a_cl.post.c / (a_cl.post.c + b_cl.post.c)
        a_cl.post = NiwPosterior(
            mu=a * a_cl.post.mu + (1.0 - a) * b_cl.post.mu,
            c=a_cl.post.c + b_cl.post.c,
            delta=a_cl.post.delta + b_cl.post.delta,
            sigma=a * a_cl.post.sigma + (1.0 - a) * b_cl.post.sigma,
        )
        a_cl.m += b_cl.m
        a_cl.w += b_cl.w
        merged_positions.update((i, j))
        events.append((a_cl.cid, b_cl.cid))
        absorbed.append(b_cl.cid)

    if events:
        absorbed_set = set(absorbed)
        survivors = {s for s, _ in events}
        book.clusters = [cl for cl in book.clusters if cl.cid not in absorbed_set]
        for cid in absorbed:
            book._drop_pairs(cid)
        for cl in book.clusters:
            if cl.cid not in survivors:
                continue
            for other in book.clusters:
                if other.cid != cl.cid:
                    book._reset_pair(cl.cid, other.cid)
        conc.k = book.k
    return events


@dataclass
class ClusterSummary:
    """Snapshot of one cluster as persisted in a run trace."""

    mu: np.ndarray
    sigma: np.ndarray
    c: float
    delta: float
    m: int
    w: float


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
    optional diagnostics checkpoints, and the final cluster snapshots."""

    config: EngineConfig
    records: list[StepRecord]
    clusters: list[ClusterSummary]
    n: int
    k: int
    checkpoints: list[Checkpoint] = field(default_factory=list)
    final_book: "ClusterBook | None" = field(default=None, repr=False, compare=False)
    final_conc: "ConcentrationState | None" = field(default=None, repr=False, compare=False)

    def k_series(self) -> np.ndarray:
        return np.array([r.k_after for r in self.records], dtype=int)


def summarize(book: ClusterBook) -> list[ClusterSummary]:
    return [
        ClusterSummary(
            mu=cl.post.mu.copy(), sigma=cl.post.sigma.copy(),
            c=cl.post.c, delta=cl.post.delta, m=cl.m, w=cl.w,
        )
        for cl in book.clusters
    ]


def book_from_summaries(summaries: list[ClusterSummary], n: int) -> ClusterBook:
    """Rebuild a cluster book from snapshots; pair histories start at zero."""
    book = ClusterBook(n=n)
    for s in summaries:
        cl = book._new_cluster(
            NiwPosterior(mu=np.asarray(s.mu, dtype=float), c=s.c, delta=s.delta,
                         sigma=np.asarray(s.sigma, dtype=float)),
            s.w,
        )
        cl.m = s.m
    return book


def run(
    stream: np.ndarray,
    config: EngineConfig,
    on_step: Callable[[int, ClusterBook, ConcentrationState], None] | None = None,
) -> RunTrace:
    """Drive the full loop over a stream of observations.

    Maintenance (prune, then merge) runs every ``maintenance_period``
    steps and once more at stream end if the last step was not already a
    maintenance step.  An empty stream raises ``ValueError``; a failing
    step raises ``RuntimeError`` naming its 1-based index.

    ``on_step(i, book, conc)``, if given, is called after step i
    (1-based) and any maintenance at that step, and before the
    end-of-stream maintenance: it sees the state the next observation
    will be scored against.  It must not modify that state.
    """
    stream = np.atleast_2d(np.asarray(stream, dtype=float))
    if stream.shape[0] == 0:
        raise ValueError("stream must contain at least one observation")
    d = stream.shape[1]
    config = config.resolve(d)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    book = ClusterBook()
    conc = ConcentrationState(k=0, lam=config.lam, n=0)
    records: list[StepRecord] = []

    def maintain() -> None:
        prune(book, conc, config.prune_eps)
        merge(book, conc, config.merge_eps)
        records[-1].k_after = book.k

    maintenance = config.prune_eps > 0.0 or config.merge_eps > 0.0
    for i, y in enumerate(stream, start=1):
        try:
            records.append(step(book, conc, y, config, rng))
        except Exception as exc:
            raise RuntimeError(f"step {i} failed: {exc}") from exc
        if maintenance and i % config.maintenance_period == 0:
            maintain()
        if on_step is not None:
            on_step(i, book, conc)
    if maintenance and book.n % config.maintenance_period != 0:
        maintain()
    return RunTrace(
        config=config, records=records, clusters=summarize(book),
        n=book.n, k=book.k, final_book=book, final_conc=conc,
    )
