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
execute concurrently.  ``run_many`` steps independent runs in lockstep:
their books are the rows of one ``BookStack``, so that a step scores,
normalises and updates all of them with one numpy call each, and ``run``
is ``run_many`` of one stream.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    _observation,
    conjugate_update,
    log_predictive_density,  # these two are unused here but stay attributes of
    posterior_update,  # this module: perfbench/tracer.py wraps them here
    prior_predictive,
    quad_forms,
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
_PAIR_FIELDS = ("_dist", "_coact")
_BLANK = {"m": 1, "log_norm": -math.inf}  # a slot without a cluster scores -inf
_SCORED = ("mu", "prec", "m", "log_norm", "coef", "expo")
REFRESH_MAX_T = 100.0  # largest t that ``absorb`` refreshes in closed form


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

    The arrays are views of row ``row`` of a ``BookStack``, which a book
    gets on its first ``add``; ``run_many`` keeps the books of all its runs
    in one stack.  ``w``, ``dist`` and ``coact`` are folded on read: a step
    appends the responsibilities q of the book's clusters to ``window``,
    and ``fold`` adds the window's terms in step order, so every read sees
    the sums of adding once per step, bit for bit.  ``add`` and ``keep``
    fold first, so a window holds rows of one k.
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
    stack: "BookStack | None" = field(default=None, repr=False, compare=False)
    row: int = field(default=0, repr=False, compare=False)
    slots: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    window: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)

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

    def fold(self) -> None:
        """Add the window's terms q, |q_i - q_j| and q_i + q_j into w, dist
        and coact, one step after another, and empty it."""
        if not self.window:
            return
        q = np.array(self.window)
        self.window = []
        dist = q[:, :, None] - q[:, None, :]
        _sum_in_order(self._dist, np.abs(dist, out=dist))
        _sum_in_order(self._coact, q[:, :, None] + q[:, None, :])
        _sum_in_order(self._w, q)  # last: this overwrites q

    def factorise(self, h: int) -> None:
        """Compute cluster h's cached factors afresh from its state.  Raises
        ``numpy.linalg.LinAlgError`` if sigma is not positive definite."""
        (self.prec[h], self.logdet[h], self.log_norm[h], self.coef[h],
         self.expo[h]) = student_t_factors(self.c[h], self.delta[h], self.sigma[h])

    def absorb(self, h: int, y: np.ndarray) -> None:
        """Update cluster h by y in place (``conjugate_update``).  As sigma' = a
        sigma + b r r^T, r = y - mu, with s = b/a and t = s r^T P r, Sherman-
        Morrison gives P' = (P - s/(1+t) (P r)(P r)^T) / a and the determinant
        lemma logdet' = d log a + logdet + log1p(t).  The subtraction loses
        about (1+t) ulps, so if t is not finite, negative (P is no longer
        positive definite) or above REFRESH_MAX_T, ``factorise`` runs instead.
        ``BookStack.absorb`` is the same update of one cluster of each of its
        books."""
        c, delta = self.c.item(h), self.delta.item(h)
        r, a, b = conjugate_update(self.mu[h], c, delta, self.sigma[h], y)
        self.c[h], self.delta[h] = c, delta = c + 1.0, delta + 0.5
        prec = self.prec[h]  # a view: refreshed in place
        p_r = prec @ r
        t = b / a * float(r @ p_r)
        if not 0.0 <= t <= REFRESH_MAX_T:
            return self.factorise(h)
        prec -= ((b / a / (1.0 + t)) * p_r)[:, None] * p_r
        prec /= a
        (self.logdet[h], self.log_norm[h], self.coef[h],
         self.expo[h]) = _refreshed(len(r), a, t, self.logdet[h], c, delta)

    def add(self, post: NiwPosterior, m: int, w: float) -> None:
        """Append a cluster with a copy of post's state and ``factors`` and a
        fresh cid; its pair histories start at zero.  A full stack first
        doubles its room."""
        self.fold()
        h = self.k
        if self.stack is None:
            BookStack([self], post.dim, 2)
        elif h == self.stack.cap:
            self.stack.store(self.stack.books, 2 * self.stack.cap)
        values = dict(mu=post.mu, sigma=post.sigma, c=post.c, delta=post.delta, m=m, _w=w,
                      cid=self.next_cid)
        values.update(zip(("prec", "logdet", "log_norm", "coef", "expo"), post.factors))
        for name, value in values.items():
            self.slots[name][h] = value
        self.next_cid += 1
        self._bind(h + 1)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the clusters where mask is False, with their rows and columns."""
        self.fold()
        mask = np.asarray(mask, dtype=bool)
        k, kept = self.k, int(mask.sum())
        for name in _CLUSTER_FIELDS:
            arr = self.slots[name]
            arr[:kept] = arr[:k][mask]
            if name in _BLANK:  # the freed slots' other fields stay finite and unread
                arr[kept:k] = _BLANK[name]
        for name in _PAIR_FIELDS:
            arr = self.slots[name]
            arr[:kept, :kept] = arr[:k, :k][np.ix_(mask, mask)]
            arr[kept:k] = arr[:, kept:k] = 0.0
        self._bind(kept)

    def _bind(self, k: int) -> None:
        """Make the fields views of the first k slots of the book's row."""
        for name in _CLUSTER_FIELDS:
            setattr(self, name, self.slots[name][:k])
        for name in _PAIR_FIELDS:
            setattr(self, name, self.slots[name][:k, :k])
        self.stack.ks[self.row], self.stack.scored_views = k, None

    def __deepcopy__(self, memo) -> "ClusterBook":
        """A copy with a stack and a window of its own: reading its sums folds
        its copy of the unfolded steps, and the original's are left as they
        are."""
        twin = copy.copy(self)
        twin.window = list(self.window)
        if self.stack is not None:
            twin.stack = None
            BookStack([twin], self.stack.dim, self.k + 1)
        return twin


class BookStack:
    """The cluster books of runs that step together, as one array per field
    with a leading run axis: ``books[r]`` holds row r, its fields are views
    of the first k slots of that row, and the row has room for ``cap``
    clusters, at least k.  A slot past k scores -inf (its m is 1 and its
    log_norm -inf; its state is finite) and its pair histories are zero.
    ``store`` is the only place where the arrays are allocated.  A stack of
    one book is scored in that book's own shapes, without the run axis:
    numpy's calls cost less on them, and ``run`` steps one book.
    """

    def __init__(self, books: list[ClusterBook], dim: int, cap: int):
        self.dim, self.scored_views = dim, None
        self.store(books, cap)

    def store(self, books: list[ClusterBook], cap: int) -> None:
        """Copy the books' clusters into new arrays with room for cap each."""
        tails = {"mu": (self.dim,), "sigma": (self.dim,) * 2, "prec": (self.dim,) * 2,
                 "_dist": (cap,), "_coact": (cap,)}
        self.arrays = {}
        for name in _CLUSTER_FIELDS + _PAIR_FIELDS:
            dtype = np.int64 if name in ("m", "cid") else float
            shape = (len(books), cap, *tails.get(name, ()))
            self.arrays[name] = np.full(shape, _BLANK.get(name, 0), dtype)
        self.books, self.cap = list(books), cap
        self.ks = np.zeros(len(books), dtype=np.int64)
        for r, book in enumerate(books):
            slots = {name: arr[r] for name, arr in self.arrays.items()}
            for name, row in slots.items():
                part = getattr(book, name)
                row[tuple(map(slice, part.shape))] = part
            book.stack, book.row, book.slots = self, r, slots
            book._bind(book.k)

    def scored(self) -> tuple[np.ndarray, ...]:
        """mu, prec, m, log_norm, coef and expo over the first width slots of
        every row, width = max k."""
        if self.scored_views is None:
            width = int(self.ks.max())
            short = np.flatnonzero(self.ks < width)
            self.short = short, self.ks[short]
            views = tuple(self.arrays[name][:, :width] for name in _SCORED)
            self.scored_views = tuple(v[0] for v in views) if len(self.books) == 1 else views
        return self.scored_views

    def absorb(self, labels: list[int], ys: np.ndarray, errors: list) -> None:
        """``ClusterBook.absorb`` of cluster ``labels[r] - 1`` of book r by
        ``ys[r]``, with its count m + 1, for every book r whose ``errors[r]``
        is None: one numpy call per operation over the run axis, bit for bit
        the update of each book alone.  The chosen slots are gathered,
        updated and scattered back.  ``conjugate_update`` works on them with
        the run axis last, where its scalars broadcast; the scalar tail
        (``_refreshed``) runs per book in ``math``.  A book whose t is out
        of range refactorises; if that raises, the exception goes to
        ``errors[r]``."""
        rows = np.array([r for r, error in enumerate(errors) if error is None])
        if not len(rows):
            return
        hs = np.array(labels)[rows] - 1
        at, arrays = (rows, hs), self.arrays
        mu, sigma, c, delta = (arrays[name][at] for name in ("mu", "sigma", "c", "delta"))
        # .T also transposes each sigma, which the update leaves as it is: entry
        # (i, j) gets a sigma_ij + b (r_i r_j), and IEEE products commute
        r, a, b = conjugate_update(mu.T, c, delta, sigma.T, ys[rows].T)
        c, delta = c + 1.0, delta + 0.5
        prec, r = arrays["prec"][at], np.ascontiguousarray(r.T)
        p_r = prec @ r[:, :, None]
        s = b / a
        t = s * (r[:, None, :] @ p_r)[:, 0, 0]
        tails, refactor = [], []
        for i, (a_i, t_i, logdet, c_i, delta_i) in enumerate(zip(
                a.tolist(), t.tolist(), arrays["logdet"][at].tolist(), c.tolist(), delta.tolist())):
            if 0.0 <= t_i <= REFRESH_MAX_T:
                tails += _refreshed(self.dim, a_i, t_i, logdet, c_i, delta_i)
            else:
                refactor.append(i)
                tails += (0.0, 0.0, 0.0, 0.0)  # factorise overwrites them
        if refactor:
            t[refactor] = 0.0  # keeps the refresh finite where it is discarded
        p_r = p_r[:, :, 0]
        prec -= ((s / (1.0 + t))[:, None] * p_r)[:, :, None] * p_r[:, None, :]
        prec /= a[:, None, None]
        arrays["mu"][at], arrays["sigma"][at], arrays["prec"][at] = mu, sigma, prec
        arrays["c"][at], arrays["delta"][at] = c, delta
        # one flat list, reshaped once: per-book tuples transposed with zip(*)
        # had raised the peak memory of a 20-run group by 0.3 MB
        tails = np.reshape(tails, (-1, 4)).T
        for name, values in zip(("logdet", "log_norm", "coef", "expo"), tails):
            arrays[name][at] = values
        arrays["m"][at] += 1
        for i in refactor:
            try:
                self.books[rows[i]].factorise(hs[i])
            except Exception as exc:
                errors[rows[i]] = exc


def _refreshed(d: int, a: float, t: float, logdet: float, c: float, delta: float):
    """A refreshed cluster's logdet, log_norm, coef and expo: the determinant
    lemma d log a + logdet + log1p(t) and the Student-t shape and constant
    of the updated (c, delta).  Scalar, in ``math``: numpy's log and log1p
    differ from it in the last bit."""
    logdet = d * math.log(a) + logdet + math.log1p(t)
    coef, expo = student_t_shape(c, delta)
    return logdet, student_t_log_norm(coef, delta, d, logdet), coef, expo


def _sum_in_order(total: np.ndarray, terms: np.ndarray) -> None:
    """total = total + terms[0] + terms[1] + ..., added in that order, in place
    (terms is overwritten).  ``np.add.reduce`` over axis 0 adds whole rows in
    turn, but a column of scalars (k = 1) it sums pairwise, so
    there the running ``accumulate`` gives the sum."""
    terms[0] += total
    if total.size > 1:
        np.add.reduce(terms, axis=0, out=total)
    else:
        total[...] = np.add.accumulate(terms, axis=0)[-1]


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

    def alpha(self, book: ClusterBook) -> float:
        """The concentration a step against ``book`` uses: ``fixed_alpha`` if
        set, else the adaptive ``book.alpha(lam)``."""
        return book.alpha(self.lam) if self.fixed_alpha is None else self.fixed_alpha


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


def _prefix_sums(q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """q[r, :n[r]].sum() of each row r, bit for bit, for rows that are zero
    past n[r].  numpy adds fewer than 8 terms in order, which gives the
    running sum's entry n - 1; more it adds in 8 interleaved partial sums,
    which a row padded past n would group differently, so such a row is
    summed over its own first n entries."""
    total = np.add.accumulate(q, axis=1)[np.arange(len(q)), n - 1]
    for r in np.flatnonzero(n >= 8):
        total[r] = q[r, :n[r]].sum()
    return total


def responsibilities(stack: BookStack, ys: np.ndarray, log_new) -> np.ndarray:
    """Posterior probability of each label, one row per book of the stack:
    the book's existing clusters, then a new one at position k.

    Label prior m(h)/(n + alpha), and alpha/(n + alpha) for a new cluster,
    in log domain and normalized by max-subtraction: the common 1/(n + alpha)
    cancels and is omitted, and q sums to 1 also after pruning has dropped
    counts.  One batched quadratic form over the cached precisions scores
    every slot of every row against that row's observation ``ys[r]``, and a
    blank slot scores -inf; ``log_new[r]`` is the new cluster's log weight,
    log(alpha) + ``prior_predictive(prior, ys[r])``.  Row r's q[:k + 1] is
    bit for bit the q of its book scored alone, and q is 0 past it: a row
    padded past k + 1 is summed over its first k + 1 entries, because
    numpy's pairwise sum groups the terms of a longer row differently.  For
    a stack of one book, q is that book's row itself."""
    mu, prec, m, log_norm, coef, expo = stack.scored()
    if mu.ndim == 2:  # one book, in its own shapes: numpy's calls cost less on them
        k = len(m)
        logq = np.empty(k + 1)
        logq[:k] = np.log(m) + student_t_log_density(
            log_norm, coef, expo, quad_forms(ys[0] - mu, prec))
        logq[k] = log_new[0]
        logq -= logq.max()
        q = np.exp(logq, out=logq)
        q /= q.sum()
        return q
    quad = quad_forms(ys[:, None, :] - mu, prec)
    logq = np.empty((len(ys), quad.shape[1] + 1))
    np.log(m, out=logq[:, :-1])
    logq[:, :-1] += student_t_log_density(log_norm, coef, expo, quad, out=quad)
    logq[:, -1] = log_new
    short, short_k = stack.short
    if len(short):  # a book with fewer clusters than another scores its new one at k
        logq[short, short_k] = logq[short, -1]
        logq[short, -1] = -math.inf
    logq -= logq.max(axis=1, keepdims=True)
    q = np.exp(logq, out=logq)
    total = q.sum(axis=1, keepdims=True)
    if len(short):
        total[short, 0] = _prefix_sums(q[short], short_k + 1)
    q /= total
    return q


def _labels(q: np.ndarray, ks: list[int], configs: list[EngineConfig], uniforms) -> list[int]:
    """Each book's 1-based label from its row of q: the first maximum for
    argmax selection, else the number of cumsum entries at or below its
    uniform (``searchsorted(u, side="right")``), at most k + 1 as the cumsum
    may fall short of 1 by an ulp.  A book's first observation (k = 0) gets
    label 1 either way, as its q is [1.0]."""
    if q.ndim == 1:  # one book
        if configs[0].selection == "argmax":
            return [int(q.argmax()) + 1]  # ties resolve to the lowest index
        drawn = int(np.add.accumulate(q).searchsorted(uniforms[0], side="right"))
        return [min(drawn, ks[0]) + 1]
    drawn = (np.add.accumulate(q, axis=1) <= np.array(uniforms)[:, None]).sum(axis=1)
    sampled = np.array([config.selection == "sample" for config in configs])
    return (np.minimum(np.where(sampled, drawn, q.argmax(axis=1)), ks) + 1).tolist()


def step(
    stack: BookStack, ys: np.ndarray, configs: list[EngineConfig], log_new: list[float],
    uniforms: list[float],
) -> list["StepRecord | Exception"]:
    """Process one observation for every book of the stack, updating the
    books in place, and return each book's ``StepRecord``, or the exception
    its update raised.

    ``ys[r]`` is book r's observation and must be finite: ``run_many``
    checks every stream before its first step, so the step does not check
    again.  ``log_new[r]`` is ``prior_predictive(configs[r].prior, ys[r])``,
    which ``run_many`` scores for a window of rows at once.  A sampled
    label is read at ``uniforms[r]``; the first observation of a book opens
    cluster 1 and reads none.  Rows that are not an R x d array are
    converted and checked.

    Births come first, as a birth may re-store the stack.  Then a stack of
    one book updates it with ``ClusterBook.absorb``, in its own shapes, and
    a stack of several updates all of them with one ``BookStack.absorb``."""
    books, d, ks = stack.books, stack.dim, stack.ks.tolist()
    if getattr(ys, "shape", None) != (len(books), d):  # the rows ``run_many`` passes are shaped
        ys = np.array([_observation(y, d) for y in ys]).reshape(len(books), d)
    alphas, weights = [], []
    for book, k, config, log_density in zip(books, ks, configs, log_new):
        if k == 0:
            alpha, weight = 0.0, 0.0  # the first observation opens cluster 1
        else:
            alpha = config.alpha(book)
            weight = math.log(alpha) + log_density
        alphas.append(alpha)
        weights.append(weight)
    q = responsibilities(stack, ys, weights)
    labels = _labels(q, ks, configs, uniforms)
    errors: list[Exception | None] = [None] * len(books)
    one = q.ndim == 1  # one book updates in its own shapes, with ``ClusterBook.absorb``
    if not one:  # births first, as a birth may re-store the stack; then one update of all
        for r, (book, k, config, label) in enumerate(zip(books, ks, configs, labels)):
            try:
                if label == k + 1:
                    book.add(config.prior.state, 0, 0.0)
            except Exception as exc:
                errors[r] = exc
        stack.absorb(labels, ys, errors)
    out: list[StepRecord | Exception] = []
    rows = (q,) if one else q  # one book's q is its row
    for book, k, config, y, alpha, label, qr, error in zip(
        books, ks, configs, ys, alphas, labels, rows, errors
    ):
        if error is not None:
            out.append(error)
            continue
        try:
            innovation = label == k + 1
            if one:
                if innovation:  # a new cluster is the prior absorbing its first observation
                    book.add(config.prior.state, 0, 0.0)
                book.absorb(label - 1, y)
                book.m[label - 1] += 1
            book.n += 1
            book.window.append(qr[:k + innovation])  # an unused innovation slot's mass is dropped
            out.append(StepRecord(
                index=book.n, label=label, q=qr if k + 1 == len(qr) else qr[:k + 1],
                alpha_used=float(alpha), k_after=k + innovation, innovation=innovation,
            ))
        except Exception as exc:
            out.append(exc)
    return out


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


@dataclass
class _Run:
    """One stream's run inside ``run_many``."""

    index: int
    stream: np.ndarray
    config: EngineConfig
    on_step: Callable[[int, ClusterBook], None] | None
    book: ClusterBook = field(default_factory=ClusterBook)
    records: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        self.n = len(self.stream)
        self.rng = np.random.Generator(np.random.PCG64(self.config.seed))
        self.maintained = self.config.prune_eps > 0.0 or self.config.merge_eps > 0.0

    def open_window(self, start: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows start:start + width, the last repeated past the stream's
        end, with their prior scores and uniforms, one per row."""
        rows = self.stream[start:start + width]
        log_new, uniforms = np.zeros(width), np.zeros(width)
        log_new[:len(rows)] = prior_predictive(self.config.prior, rows)
        first = int(start == 0)  # step 1 selects nothing
        if self.config.selection == "sample" and len(rows) > first:
            uniforms[first:len(rows)] = self.rng.random(len(rows) - first)
        pad = rows[-1:].repeat(width - len(rows), axis=0)
        return np.concatenate([rows, pad]) if len(pad) else rows, log_new, uniforms

    def maintain(self) -> None:
        prune(self.book, self.config.prune_eps)
        merge(self.book, self.config.merge_eps)
        self.records[-1].k_after = self.book.k

    def finish(self) -> "RunTrace":
        if self.maintained and self.n % self.config.maintenance_period != 0:
            self.maintain()
        if len(self.book.stack.books) > 1:  # leave a shared stack
            BookStack([self.book], self.stream.shape[1], self.book.k + 1)
        return RunTrace(config=self.config, records=self.records, final_book=self.book)


def run_many(
    streams: list[np.ndarray],
    configs: list[EngineConfig],
    on_step: list[Callable[[int, ClusterBook], None] | None] | None = None,
) -> list["RunTrace | Exception"]:
    """Run each stream under its config, all in lockstep, and return for each
    the ``RunTrace`` that ``run(streams[r], configs[r], on_step[r])`` returns
    or the exception it raises.

    The runs share nothing but numpy calls: their books are the rows of one
    ``BookStack``, and each ``step`` scores, normalises, selects and updates
    all of them at once, while each book is pruned and merged on its own.
    A run's trace is bit for bit its trace alone.  A run whose stream or
    config is rejected, or whose step, maintenance or ``on_step`` raises,
    gets that exception and leaves the lockstep; the others go on.  The
    streams may differ in length, but their rows must have one dimension d
    and their configs one ``maintenance_period``, as the rows step in
    windows of that period; else ``ConfigError`` names the field.
    ``on_step``, if given, holds one callback or None per stream.
    """
    callbacks = [None] * len(streams) if on_step is None else list(on_step)
    if not len(streams) == len(configs) == len(callbacks):
        raise ValueError("run_many needs one config (and one on_step) per stream")
    results: list[RunTrace | Exception | None] = [None] * len(streams)
    runs = []
    for index, (stream, config, callback) in enumerate(zip(streams, configs, callbacks)):
        try:
            stream = as_stream(stream)
            config = config.resolve(stream.shape[1])
        except (ValueError, StepError) as exc:  # ConfigError is a ValueError
            results[index] = exc
        else:
            runs.append(_Run(index, stream, config, callback))
    for name, value in (("d", lambda run: run.stream.shape[1]),
                        ("maintenance_period", lambda run: run.config.maintenance_period)):
        values = sorted({value(run) for run in runs})
        if len(values) > 1:
            raise ConfigError(f"{name} must be the same for every run, got {values}")
    if not runs:
        return results
    period = runs[0].config.maintenance_period
    stack = BookStack([run.book for run in runs], runs[0].stream.shape[1], 2)
    for start in range(0, max(run.n for run in runs), period):
        width = min(period, max(run.n for run in runs) - start)
        windows = zip(*(run.open_window(start, width) for run in runs))
        rows, log_new, uniforms = (np.stack(parts, axis=1) for parts in windows)
        for j, i in enumerate(range(start + 1, start + width + 1)):
            due, left = i % period == 0, False
            records = step(stack, rows[j], [run.config for run in runs], log_new[j].tolist(),
                           uniforms[j].tolist())
            for run, record in zip(runs, records):
                try:
                    if isinstance(record, Exception):
                        raise StepError(i, record) from record
                    run.records.append(record)
                    if due:  # every window folds at the tick, maintained or not
                        run.book.fold()
                        if run.maintained:
                            run.maintain()
                    if run.on_step is not None:
                        run.on_step(i, run.book)
                    if i == run.n:
                        results[run.index] = run.finish()
                        left = True
                except Exception as exc:
                    results[run.index], left = exc, True
            if left:  # runs that ended or failed leave the stack
                stay = [r for r, run in enumerate(runs) if results[run.index] is None]
                runs = [runs[r] for r in stay]
                if not runs:
                    return results
                stack.store([run.book for run in runs], stack.cap)
                rows, log_new, uniforms = rows[:, stay], log_new[:, stay], uniforms[:, stay]
    return results


def run(
    stream: np.ndarray,
    config: EngineConfig,
    on_step: Callable[[int, ClusterBook], None] | None = None,
) -> RunTrace:
    """Drive the full loop over a stream of observations: ``run_many`` of
    this one stream.

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
    (result,) = run_many([stream], [config], [on_step])
    if isinstance(result, Exception):
        raise result
    return result
