"""Sequential clustering state machines.

One observation per step: pick a cluster (or open a new one) from the
responsibility vector, then apply the conjugate hyperparameter update.
The concentration parameter is either adapted per step, k / (lambda +
log n), or held fixed (the classic greedy baseline).  Periodic
maintenance removes clusters whose running posterior weight has become
negligible and fuses clusters whose responsibility histories track each
other.

A run's cluster state is one ``ClusterBook``: the live clusters in birth
order, the observation count n (from which, with k, the adaptive
concentration follows) and two K x K arrays of pairwise responsibility
histories indexed by position in that order.  A single run is strictly
sequential, and independent runs may execute concurrently.  A run's step
records are kept as columns (``StepColumns``): a few numbers per step and
its q, not an object per step.
A ``Run`` handle owns a run's whole state (its book, its columns and its
generator) and is fed the stream in chunks.  One driver, ``_drive``, steps
runs in lockstep: their books are the rows of one ``BookStack``, so that a
step scores, normalises and updates all of them with one numpy call each.
``run`` is one handle fed the whole stream, and ``run_many`` feeds many
handles in one driver call.  Runs that would take the same steps (one rows
object, one seed, one scoring config) share one book and one row until
their maintenance differs.
"""

from __future__ import annotations

import copy
import math
import operator
import struct
from array import array
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import InitVar, dataclass, field, replace
from functools import lru_cache
from itertools import pairwise, repeat, starmap

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
    student_t_constant,
    student_t_factors,
    student_t_log_density,
    student_t_shape,
    update_weights,
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
REFRESH_MEMO = 1024  # (d, c, delta) keys whose refresh tail ``_refresh_tail`` keeps
_TAIL = struct.Struct("7d")  # a tail, packed: a tuple of its floats holds about 3x the bytes


@dataclass(eq=False)
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

    The arrays are views of row ``row`` of a ``BookStack`` from birth:
    ``ClusterBook(dim, n)`` is a book of d = dim without clusters, after n
    observations, in a stack of its own with room for two clusters;
    ``ClusterBook(dim, own_stack=False)`` is one without arrays until a
    ``BookStack`` stores it.  A ``Run``'s book is of the second kind: the
    driver keeps the books of all the runs it steps in one stack, in which
    each is born.  ``w``, ``dist`` and ``coact`` are folded on read: a step
    appends the responsibilities q of the book's clusters to ``window``,
    and ``fold`` adds the window's terms in step order, so every read sees
    the sums of adding once per step, bit for bit.  ``add`` and ``keep``
    fold first, so a window holds rows of one k.
    """

    dim: int
    n: int = 0
    next_cid: int = field(default=1, init=False)
    stack: "BookStack" = field(init=False, repr=False)
    row: int = field(default=0, init=False, repr=False)
    window: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    own_stack: InitVar[bool] = True

    def __post_init__(self, own_stack: bool):
        if own_stack:
            BookStack([self], 2)

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
        a, b, s and the rest of the refresh depend on (d, c, delta) alone
        (``_refresh_tail``).  ``BookStack.absorb`` is the same update of one
        cluster of each of its books."""
        c, delta = self.c.item(h), self.delta.item(h)
        a, b, s, d_log_a, coef, expo, constant = _TAIL.unpack(_refresh_tail(self.dim, c, delta))
        r = conjugate_update(self.mu[h], c, self.sigma[h], y, a, b)
        self.c[h], self.delta[h] = c + 1.0, delta + 0.5
        prec = self.prec[h]  # a view: refreshed in place
        p_r = prec @ r
        t = s * float(r @ p_r)
        if not 0.0 <= t <= REFRESH_MAX_T:
            return self.factorise(h)
        prec -= ((s / (1.0 + t)) * p_r)[:, None] * p_r
        prec /= a
        self.coef[h], self.expo[h] = coef, expo
        self.logdet[h] = logdet = d_log_a + self.logdet.item(h) + math.log1p(t)
        self.log_norm[h] = constant - 0.5 * logdet

    def add(self, post: NiwPosterior, m: int, w: float) -> None:
        """Append a cluster with a copy of post's state and ``factors`` and a
        fresh cid; its pair histories start at zero.  A full stack first
        doubles its room."""
        self.fold()
        h = self.k
        if h == self.stack.cap:
            self.stack.store(self.stack.books, 2 * self.stack.cap)
        values = dict(mu=post.mu, sigma=post.sigma, c=post.c, delta=post.delta, m=m, _w=w,
                      cid=self.next_cid)
        values.update(zip(("prec", "logdet", "log_norm", "coef", "expo"), post.factors))
        for name, value in values.items():
            self.stack.arrays[name][self.row, h] = value
        self.next_cid += 1
        self._bind(h + 1)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the clusters where mask is False, with their rows and columns."""
        self.fold()
        mask = np.asarray(mask, dtype=bool)
        k, kept = self.k, int(mask.sum())
        for name in _CLUSTER_FIELDS:
            arr = self.stack.arrays[name][self.row]
            arr[:kept] = arr[:k][mask]
            if name in _BLANK:  # the freed slots' other fields stay finite and unread
                arr[kept:k] = _BLANK[name]
        for name in _PAIR_FIELDS:
            arr = self.stack.arrays[name][self.row]
            arr[:kept, :kept] = arr[:k, :k][np.ix_(mask, mask)]
            arr[kept:k] = arr[:, kept:k] = 0.0
        self._bind(kept)

    def _bind(self, k: int) -> None:
        """Make the fields views of the first k slots of the book's row."""
        for name in _CLUSTER_FIELDS:
            setattr(self, name, self.stack.arrays[name][self.row, :k])
        for name in _PAIR_FIELDS:
            setattr(self, name, self.stack.arrays[name][self.row, :k, :k])
        self.stack.ks[self.row], self.stack.scored_views = k, None

    def __deepcopy__(self, memo) -> "ClusterBook":
        """A copy with a stack and a window of its own: reading its sums folds
        its copy of the unfolded steps, and the original's are left as they
        are."""
        twin = copy.copy(self)
        twin.window = list(self.window)
        BookStack([twin], self.k + 1)
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

    def __init__(self, books: list[ClusterBook], cap: int):
        self.dim, self.scored_views = books[0].dim, None
        self.store(books, cap)

    def store(self, books: list[ClusterBook], cap: int) -> None:
        """Copy the books' clusters into new arrays with room for cap each,
        and bind each book to its row."""
        tails = {"mu": (self.dim,), "sigma": (self.dim,) * 2, "prec": (self.dim,) * 2,
                 "_dist": (cap,), "_coact": (cap,)}
        self.arrays = {}
        for name in _CLUSTER_FIELDS + _PAIR_FIELDS:
            dtype = np.int64 if name in ("m", "cid") else float
            shape = (len(books), cap, *tails.get(name, ()))
            self.arrays[name] = np.full(shape, _BLANK.get(name, 0), dtype)
        self.books, self.cap = list(books), cap
        self.ks = np.zeros(len(books), dtype=np.int64)
        # slot h of row r is entry r * cap + h: ``absorb`` gathers with one take,
        # at label_base[r] + label for a 1-based label
        self.flat = {name: self.arrays[name].reshape(len(books) * cap, *tails.get(name, ()))
                     for name in _CLUSTER_FIELDS}
        self.label_base = np.arange(len(books)) * cap - 1
        for r, book in enumerate(books):
            k = book.k if hasattr(book, "stack") else 0  # a book being made has no arrays
            if k:
                for name, arr in self.arrays.items():
                    part = getattr(book, name)
                    arr[r][tuple(map(slice, part.shape))] = part
            book.stack, book.row = self, r
            book._bind(k)

    def scored(self) -> tuple[np.ndarray, ...]:
        """mu, prec, m, log_norm, coef and expo over the first width slots of
        every row, width = max k.  Also ``short``, the rows with k < width and
        their k, and ``resum``, the ``_sum_groups`` of those short rows whose
        q ``responsibilities`` must sum again over their own n = k + 1
        terms: by the rule of ``_sum_groups``, a row zero-padded to
        W = width + 1 <= 128 terms sums like its first n when
        n // 8 == W // 8, and a longer row never does."""
        if self.scored_views is None:
            width = int(self.ks.max())
            short = np.flatnonzero(self.ks < width)
            self.short = short, self.ks[short]
            resum = short if width >= 128 else short[(self.ks[short] + 1) // 8 != (width + 1) // 8]
            self.resum = _sum_groups(resum, self.ks[resum] + 1)
            views = tuple(self.arrays[name][:, :width] for name in _SCORED)
            self.scored_views = tuple(v[0] for v in views) if len(self.books) == 1 else views
        return self.scored_views

    def absorb(self, labels, ys: np.ndarray, errors: list) -> None:
        """``ClusterBook.absorb`` of cluster ``labels[r] - 1`` of book r by
        ``ys[r]``, with its count m + 1, for every book r whose ``errors[r]``
        is None: one numpy call per operation over the run axis, bit for bit
        the update of each book alone.  The chosen slots are gathered from
        the flat views with one take each, at ``label_base + labels`` (the
        live rows are picked only when a book has failed), updated and
        scattered back.
        ``conjugate_update`` works on them with the run axis last, where a
        and b broadcast.  Of the tail, one C-level ``map`` reads each book's
        packed ``_refresh_tail``, which one ``np.frombuffer`` of their join
        unpacks, and one takes each ``math.log1p(t)``; the sums are numpy's,
        which add as ``math`` does.  A book whose t is out of range
        refactorises; if that raises, the exception goes to ``errors[r]``."""
        at, flat = self.label_base + labels, self.flat
        if any(errors):  # an exception is true, None false
            live = [error is None for error in errors]
            at, ys = at[live], ys[live]
            if not len(at):
                return
        mu, sigma, c, delta, prec, logdet = (
            flat[name].take(at, axis=0) for name in ("mu", "sigma", "c", "delta", "prec", "logdet"))
        tails = np.frombuffer(b"".join(map(_refresh_tail, repeat(self.dim), c.tolist(),
                                           delta.tolist())))
        a, b, s, d_log_a, coef, expo, constant = tails.reshape(-1, 7).T
        # .T also transposes each sigma, which the update leaves as it is: entry
        # (i, j) gets a sigma_ij + b (r_i r_j), and IEEE products commute
        r = np.ascontiguousarray(conjugate_update(mu.T, c, sigma.T, ys.T, a, b).T)
        p_r = prec @ r[:, :, None]
        t = s * (r[:, None, :] @ p_r)[:, 0, 0]
        refactor = np.flatnonzero(~((0.0 <= t) & (t <= REFRESH_MAX_T)))  # NaN included
        if len(refactor):
            t[refactor] = 0.0  # keeps the refresh finite where factorise overwrites it
        p_r = p_r[:, :, 0]
        prec -= ((s / (1.0 + t))[:, None] * p_r)[:, :, None] * p_r[:, None, :]
        prec /= a[:, None, None]
        logdet = d_log_a + logdet + np.fromiter(map(math.log1p, t.tolist()), float, len(t))
        for name, values in (("mu", mu), ("sigma", sigma), ("prec", prec), ("c", c + 1.0),
                             ("delta", delta + 0.5), ("logdet", logdet),
                             ("log_norm", constant - 0.5 * logdet), ("coef", coef),
                             ("expo", expo)):
            flat[name][at] = values
        flat["m"][at] += 1
        for i in refactor.tolist():
            row, h = divmod(int(at[i]), self.cap)
            try:
                self.books[row].factorise(h)
            except Exception as exc:
                errors[row] = exc


@lru_cache(maxsize=REFRESH_MEMO)
def _refresh_tail(d: int, c: float, delta: float) -> bytes:
    """What the update of a cluster at (c, delta) by one observation takes
    from (d, c, delta) alone, packed as ``_TAIL``'s seven doubles:
    ``update_weights``' a and b, s = b / a and d log a of the refresh, and
    the updated (c + 1, delta + 1/2)'s Student-t shape ``coef``, ``expo``
    and ``student_t_constant``.  Scalar: + - * / round as numpy's
    elementwise operations do, and ``math``'s log differs from numpy's in
    the last bit.  Memoised, as runs of one stream length share their
    counts, but bounded, as a merge moves (c, delta) off the grid of
    counts."""
    a, b = update_weights(c, delta)
    coef, expo = student_t_shape(c + 1.0, delta + 0.5)
    return _TAIL.pack(a, b, b / a, d * math.log(a), coef, expo,
                      student_t_constant(coef, delta + 0.5, d))


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
        for name in ("lam", "fixed_alpha", "prune_eps", "merge_eps"):  # a bool passes as 0 or 1
            if isinstance(getattr(cfg, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be a number, got {getattr(cfg, name)!r}")
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


@dataclass(slots=True)
class StepRecord:
    """Per-observation outcome: chosen label and the evidence behind it.

    label is 1-based over the clusters live at selection time; the
    innovation slot is k+1.  alpha_used is 0.0 on the very first step,
    where no selection takes place.  Nothing makes records on the way from
    a step to a trace file and back: they are the view that a trace's
    ``StepColumns`` builds on access.
    """

    index: int
    label: int
    q: np.ndarray
    alpha_used: float
    k_after: int
    innovation: bool


class StepColumns(Sequence):
    """A run's steps as columns.  ``label`` and ``k_after`` are int64,
    ``alpha`` float64 and ``innovation`` bool (one byte), each an
    ``array.array``; step i's index is i + 1.  The steps' q lie end to end
    in float64 chunks: step i's q is floats ``offsets[i]:offsets[i + 1]``
    of that run.  ``append`` keeps a step's q as it is given (a view, in
    the lockstep driver) until the count of steps is a multiple of
    ``period``, or ``flush`` is called: then one ``np.concatenate`` makes
    the pending q a chunk.  Chunks are never joined, so no step's q is held twice.

    Values go in and come out: ``append`` takes a step's values and
    ``values`` gives them back a chunk at a time.  As a sequence, the
    columns are ``StepRecord`` views built on access, each q a view of its
    chunk: an int index (negative too) gives one record and a slice a list
    of them.  A read flushes first.  ``copy`` shares the chunks and copies
    the rest."""

    SCALARS = {"label": "q", "k_after": "q", "alpha": "d", "innovation": "B", "offsets": "q"}

    def __init__(self, period: int):
        self.period = period
        for name, typecode in self.SCALARS.items():
            setattr(self, name, array(typecode))
        self.offsets.append(0)
        self.chunks: list[np.ndarray] = []
        self.firsts: list[int] = []  # the first step of each chunk
        self.pending: list = []  # the q of the steps after the last chunk

    def __len__(self) -> int:
        return len(self.label)

    def append(self, label: int, q, alpha: float, k_after: int, innovation: bool) -> None:
        """Add the next step's values, in the order of a step line's keys
        after its index."""
        self.label.append(label)
        self.k_after.append(k_after)
        self.alpha.append(alpha)
        self.innovation.append(innovation)
        self.offsets.append(self.offsets[-1] + len(q))
        self.pending.append(q)
        if len(self.label) % self.period == 0:
            self.flush()

    def flush(self) -> None:
        """Make the pending q one chunk."""
        if self.pending:
            self.firsts.append(len(self) - len(self.pending))
            self.chunks.append(np.concatenate(self.pending, dtype=float))
            self.pending = []

    def copy(self) -> "StepColumns":
        """Columns of their own, after a flush, sharing its chunks."""
        self.flush()
        twin = StepColumns(self.period)
        for name in self.SCALARS:
            setattr(twin, name, getattr(self, name)[:])
        twin.chunks, twin.firsts = list(self.chunks), list(self.firsts)
        return twin

    def _cut(self, base: int, first: int, stop: int, q) -> list:
        """Steps first:stop's q, cut from q, the floats from step base on."""
        offset = self.offsets[base]
        return [q[lo - offset:hi - offset] for lo, hi in pairwise(self.offsets[first:stop + 1])]

    def values(self, lists: bool = False):
        """Each step's (index, label, q, alpha, k_after, innovation) in step
        order, a chunk at a time, each q a view of its chunk; with
        ``lists``, a list of floats from one ``tolist`` of its chunk, so that
        at most one chunk's floats are Python objects at a time."""
        self.flush()
        for first, stop, q in zip(self.firsts, [*self.firsts[1:], len(self)], self.chunks):
            yield from zip(range(first + 1, stop + 1), self.label[first:stop],
                           self._cut(first, first, stop, q.tolist() if lists else q),
                           self.alpha[first:stop], self.k_after[first:stop],
                           map(bool, self.innovation[first:stop]))

    def __iter__(self):
        return starmap(StepRecord, self.values())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"step {i} out of range for {n} steps")
        i %= n
        self.flush()
        c = bisect_right(self.firsts, i) - 1
        (q,) = self._cut(self.firsts[c], i, i + 1, self.chunks[c])
        return StepRecord(i + 1, self.label[i], q, self.alpha[i], self.k_after[i],
                          bool(self.innovation[i]))


def _sum_groups(rows: np.ndarray, n: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The rows, each zero past its first n terms, grouped by a width over
    which numpy sums each of them bit for bit like those n terms: (rows,
    width) pairs.  numpy sums fewer than 129 terms in 8 interleaved partial
    sums over the first 8 (n // 8) and adds the rest one by one, so a row
    of n < 128 terms sums alike over 8 (n // 8) + 7 = n | 7 of them.  More
    terms numpy splits in halves first, so those rows keep their n."""
    widths = np.where(n < 128, n | 7, n)
    return [(rows[widths == w], w) for w in set(widths.tolist())]


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
    padded past k + 1 whose terms numpy's pairwise sum would group
    differently (``BookStack.scored``'s ``resum``) is summed over its first
    k + 1 entries.  For a stack of one book, q is that book's row itself."""
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
    for rows, width in stack.resum:  # summed again, as numpy sums their own k + 1 terms
        total[rows, 0] = q[rows, :width].sum(axis=1)
    q /= total
    return q


class _Rows(list):
    """The configs of a stack's rows, with ``greedy``, the rows that select
    by argmax, as the index array that a lockstep step's ``_labels`` reads."""

    def __init__(self, configs):
        super().__init__(configs)
        self.greedy = np.flatnonzero([config.selection == "argmax" for config in self])


def _labels(q: np.ndarray, ks: np.ndarray, configs: _Rows, uniforms) -> list[int] | np.ndarray:
    """Each book's 1-based label from its row of q: the first maximum for
    argmax selection, else the number of cumsum entries at or below its
    uniform (``searchsorted(u, side="right")``), at most k + 1 as the cumsum
    may fall short of 1 by an ulp.  A book's first observation (k = 0) gets
    label 1 either way, as its q is [1.0].  Several books' labels are an
    array, and argmax is taken only over the rows of ``_Rows.greedy``."""
    if q.ndim == 1:  # one book
        if configs[0].selection == "argmax":
            return [int(q.argmax()) + 1]  # ties resolve to the lowest index
        drawn = int(np.add.accumulate(q).searchsorted(uniforms[0], side="right"))
        return [min(drawn, len(q) - 1) + 1]  # q holds the book's k + 1 entries
    labels = (np.add.accumulate(q, axis=1) <= np.asarray(uniforms)[:, None]).sum(axis=1)
    if len(greedy := configs.greedy):
        labels[greedy] = q[greedy].argmax(axis=1)
    return np.minimum(labels, ks) + 1


def step(
    stack: BookStack, ys: np.ndarray, configs: _Rows, log_new: list[float],
    uniforms, columns: list[StepColumns],
) -> list[Exception | None]:
    """Process one observation for every book of the stack, updating the
    books in place and appending book r's step to ``columns[r]``, and
    return for each book the exception its update raised, or None.

    ``ys[r]`` is book r's observation and must be finite: ``as_stream``
    checks every row of a stream or chunk before its first step, so the step
    does not check again.  ``log_new[r]`` is ``prior_predictive(configs[r].prior, ys[r])``,
    which the driver (``_drive``) scores for a window of rows at once.  A
    sampled label is read at ``uniforms[r]``; the first observation of a
    book opens cluster 1 and reads none.  Rows that are not an R x d array
    are converted and checked.  ``uniforms`` is a sequence or an array;
    ``configs`` is the rows' ``_Rows``, which the driver builds once per
    window or regrouping.  Each book's alpha is its config's
    ``EngineConfig.alpha`` and its new cluster's weight ``math.log(alpha)``
    + ``log_new[r]``.

    A stack of one book updates it with ``ClusterBook.absorb``, in its own
    shapes.  A stack of several does its births first, as a birth may
    re-store the stack, and then updates all of its books with one
    ``BookStack.absorb``.  The appends come last; a book whose update
    raised appends nothing."""
    books, d, ks = stack.books, stack.dim, stack.ks.tolist()
    if getattr(ys, "shape", None) != (len(books), d):  # the driver's rows are shaped
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
    labels = _labels(q, stack.ks, configs, uniforms)
    errors: list[Exception | None] = [None] * len(books)
    if q.ndim == 1:  # one book, in its own shapes: its q is its row
        (book,), (k,), (label,), rows = books, ks, labels, (q,)
        try:
            if label > k:  # a new cluster is the prior absorbing its first observation
                book.add(configs[0].prior.state, 0, 0.0)
            book.absorb(label - 1, ys[0])
            book.m[label - 1] += 1
        except Exception as exc:
            errors[0] = exc
    else:
        rows = q
        for r in np.flatnonzero(labels > stack.ks).tolist():
            try:
                books[r].add(configs[r].prior.state, 0, 0.0)
            except Exception as exc:
                errors[r] = exc
        stack.absorb(labels, ys, errors)
        labels = labels.tolist()
    for book, k, alpha, label, qr, error, steps in zip(books, ks, alphas, labels, rows, errors,
                                                       columns):
        if error is None:
            innovation = label > k
            book.n += 1
            book.window.append(qr[:k + innovation])  # an unused innovation slot's mass is dropped
            steps.append(label, qr if k + 1 == len(qr) else qr[:k + 1], alpha, k + innovation,
                         innovation)
    return errors


def prune_mask(book: ClusterBook, eps_r: float) -> np.ndarray | None:
    """The clusters ``prune`` keeps, as a mask, or None if it would remove
    none; the book is not changed.

    A cluster goes when its relative running weight fell below eps_r.
    Thresholds are evaluated against the pre-sweep normalization, and the
    last cluster is never removed.
    """
    if book.k <= 1 or eps_r <= 0.0:
        return None
    total = book.w.sum()
    if total <= 0.0:
        return None
    rel = book.w / total
    kept = rel >= eps_r
    if not kept.any():
        kept[int(np.argmax(rel))] = True
    return None if kept.all() else kept


def prune(book: ClusterBook, eps_r: float) -> list[int]:
    """Remove the clusters that ``prune_mask`` drops, all in one sweep.
    Counts of removed clusters are dropped; n stays as is.  Returns the
    cids of removed clusters."""
    kept = prune_mask(book, eps_r)
    if kept is None:
        return []
    removed = book.cid[~kept].tolist()
    book.keep(kept)
    return removed


MERGE_MIN_COACTIVITY = 1.0  # one observation's worth of shared mass
MERGE_EVIDENCE_RATIO = 0.65  # diff sum must stay well below the shared mass


def merge_pairs(book: ClusterBook, eps_d: float) -> list[tuple[int, int]]:
    """The (survivor, absorbed) positions that ``merge`` fuses, in its
    order; the book is not changed.

    Pairs with d_q = dist/n below eps_d merge greedily in ascending
    d_q; each cluster participates in at most one merge per sweep.  A
    small d_q alone cannot distinguish duplicated clusters from clusters
    that were merely inactive, so a pair is only mergeable once it has
    received at least one observation's worth of combined responsibility
    and its accumulated |q_a - q_b| is small against that mass.  The
    lower-index cluster survives.
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
    merged: set[int] = set()
    pairs = []
    for _, i, j in candidates:
        if i not in merged and j not in merged:
            merged.update((i, j))
            pairs.append((i, j))
    return pairs


def merge(book: ClusterBook, eps_d: float) -> list[tuple[int, int]]:
    """Fuse the cluster pairs that ``merge_pairs`` picks.

    The survivor gets count-weighted convex combinations of mu and sigma
    and summed c, delta, m, w; distance tracking for the survivor
    restarts at zero.  Returns (survivor_cid, absorbed_cid) pairs.
    """
    pairs = merge_pairs(book, eps_d)
    if not pairs:
        return []
    events: list[tuple[int, int]] = []
    kept = np.ones(book.k, dtype=bool)
    for i, j in pairs:
        a = book.c[i] / (book.c[i] + book.c[j])
        for arr in (book.mu, book.sigma):
            arr[i] = a * arr[i] + (1.0 - a) * arr[j]
        for arr in (book.c, book.delta, book.m, book.w):
            arr[i] += arr[j]
        book.factorise(i)
        events.append((int(book.cid[i]), int(book.cid[j])))
        for arr in (book.dist, book.coact):
            arr[i, :] = arr[:, i] = 0.0
        kept[j] = False
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
    the final cluster book and optional diagnostics checkpoints.

    ``records`` is the run's ``StepColumns``, flushed here: a read-only
    sequence of ``StepRecord`` views."""

    config: EngineConfig
    records: StepColumns
    final_book: ClusterBook = field(repr=False, compare=False)
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def __post_init__(self):
        self.records.flush()

    @property
    def n(self) -> int:
        return self.final_book.n

    @property
    def k(self) -> int:
        return self.final_book.k

    def k_series(self) -> np.ndarray:
        return np.array(self.records.k_after, dtype=int)


def as_stream(stream, fed: int = 0) -> np.ndarray:
    """The observations as an n x d float array, n >= 1 and d >= 1.

    A 1-D array is one observation.  A stream without rows, without
    coordinates or with more than two axes raises ``ValueError``.  A row
    with a non-finite value raises the ``StepError`` its step would: after
    ``fed`` rows, the first such row i gives ``StepError(fed + i,
    ValueError(...))``.
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
        raise StepError(fed + int(finite.argmin()) + 1, cause) from cause
    return stream


class Run:
    """One stream's run, fed in chunks: ``feed(rows)`` steps the rows after
    those fed before, and ``close()`` ends the stream and returns the
    ``RunTrace``.  However a stream is cut into chunks, the trace is that of
    ``run`` of the whole stream, byte for byte: a window of rows is cut
    where a chunk ends as where a tick falls, its prior scores are the
    single rows' scores, and PCG64's ``random(a)`` then ``random(b)`` gives
    the bits of ``random(a + b)``.

    The run owns a ``ClusterBook`` of d = ``d`` (born in the first stack it
    steps in; its n is the run's place in the maintenance period), its
    ``StepColumns`` and its PCG64 generator.  The config is resolved here.
    A chunk that ``as_stream`` refuses (empty too), with a non-finite row
    (``StepError`` at that row's step) or with rows of another d
    (``ValueError``) raises before any step and leaves the run as it was.
    A failing step or ``on_step`` raises from ``feed``, and every later
    ``feed`` or ``close`` raises it again.  After ``close``, both raise
    ``ValueError``; ``close`` of a run never fed raises the empty stream's
    ``ValueError``.  ``on_step`` is ``run``'s.
    """

    def __init__(self, config: EngineConfig, d: int,
                 on_step: Callable[[int, ClusterBook], None] | None = None):
        self.config, self.on_step = config.resolve(d), on_step
        self.book = ClusterBook(d, own_stack=False)
        self.records = StepColumns(self.config.maintenance_period)
        self.rng = np.random.Generator(np.random.PCG64(self.config.seed))
        self.maintained = self.config.prune_eps > 0.0 or self.config.merge_eps > 0.0
        self.error: Exception | None = None  # what every later feed or close raises
        self.failed_at = None  # its traceback as it was caught: a raise would add frames

    def feed(self, rows) -> None:
        """Step the rows, an n x d array or one row, after those fed before."""
        if self.error is None:
            rows = as_stream(rows, self.book.n)
            if rows.shape[1] != self.book.dim:
                raise ValueError(f"rows have d = {rows.shape[1]}, the run has d = {self.book.dim}")
            _drive({self: rows})
        if self.error is not None:
            raise self.error.with_traceback(self.failed_at)

    def close(self) -> RunTrace:
        """The run's trace, after the end-of-stream maintenance.  A state can
        outrun double precision (an ill-conditioned stream, or a prior far
        from the data's scale) while the rank-one refresh goes on, and end in
        a trace that ``read_trace`` would refuse.  So a run whose q is not
        finite at some step raises ``StepError`` at the first such step, and
        a final book with a sigma that does not factorise raises it at the
        last step, naming the first such cluster's cid."""
        if self.error is not None:
            raise self.error.with_traceback(self.failed_at)
        book, steps = self.book, self.records
        if not book.n:
            raise ValueError("stream must contain at least one observation")
        self.error, self.failed_at = ValueError("the run is closed"), None
        if self.maintained and book.n % self.config.maintenance_period != 0:
            self._maintain(False)
        steps.flush()
        for first, q in zip(steps.firsts, steps.chunks):
            finite = np.isfinite(q)
            if not finite.all():
                cause = ValueError("q is not finite")
                at = steps.offsets[first] + int(finite.argmin())  # its first non-finite float
                raise StepError(bisect_right(steps.offsets, at), cause) from cause
        if not _factorises(book.sigma):
            cid = book.cid[next(h for h in range(book.k) if not _factorises(book.sigma[h]))]
            cause = np.linalg.LinAlgError(f"sigma of cluster cid {cid} is not positive definite")
            raise StepError(book.n, cause) from cause
        return RunTrace(config=self.config, records=steps, final_book=book)

    def _shares(self, group: list["Run"]) -> bool:
        """Whether another live run of the group holds this run's book."""
        return any(other is not self and other.book is self.book and other.error is None
                   for other in group)

    def _split(self) -> None:
        """Take copies of the book, the records and the generator, which the
        rest of the group keeps; the records share their q chunks."""
        self.book, self.rng = copy.deepcopy(self.book), copy.deepcopy(self.rng)
        self.records = self.records.copy()

    def _maintain(self, shared: bool) -> None:
        """Prune, then merge.  A run that shares its book splits first if
        either would change it."""
        book, config = self.book, self.config
        if shared and (prune_mask(book, config.prune_eps) is not None
                       or merge_pairs(book, config.merge_eps)):
            self._split()
        prune(self.book, config.prune_eps)
        merge(self.book, config.merge_eps)
        self.records.k_after[-1] = self.book.k

    def _after(self, i: int, error: Exception | None, group: list["Run"], ended: bool) -> None:
        """What follows step i: a failed step's ``StepError``, the tick's
        fold and maintenance, ``on_step``, and at the end of the rows a book,
        records and generator of the run's own, off the shared stack.  An
        exception becomes the run's ``error``."""
        try:
            if error is not None:
                raise StepError(i, error) from error
            if i % self.config.maintenance_period == 0:  # every window folds at the tick
                self.book.fold()
                if self.maintained:
                    self._maintain(self._shares(group))
            if self.on_step is not None:
                self.on_step(i, self.book)
            if ended and self._shares(group):
                self._split()
            elif ended and len(self.book.stack.books) > 1:
                BookStack([self.book], self.book.k + 1)
        except Exception as exc:
            self.error, self.failed_at = exc, exc.__traceback__


def _factorises(sigma: np.ndarray) -> bool:
    """Whether each d x d matrix of sigma has a finite Cholesky factor, by
    one batched factorisation: numpy's raises nothing on a NaN."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(sigma)).all())
    except np.linalg.LinAlgError:
        return False


def _prior_key(prior: PriorConfig) -> tuple:
    return prior.mu0.tobytes(), prior.c0, prior.delta0, prior.sigma0.tobytes()


def _by_book(runs) -> list[list[Run]]:
    """The runs grouped by the book they hold, in order of first holding."""
    groups: dict[int, list[Run]] = {}
    for run in runs:
        groups.setdefault(id(run.book), []).append(run)
    return list(groups.values())


def _drive(feeds: dict[Run, np.ndarray]) -> None:
    """Step each run through its rows, all in lockstep from the n that their
    books share: the books are fresh, or there is one.

    The runs that hold one book form a group, which steps as one row of a
    ``BookStack`` with the first run's config, records and generator; its
    runs are given one rows object.  Fresh books are born in the stack, and
    the stack is re-stored only when its list of books changes.  The rows go
    in windows cut at the maintenance period's ticks and where a run's rows
    end: before a window's first step, one batched ``prior_predictive`` call
    scores its rows for each (rows object, prior), and each sampling group
    draws its uniforms (the first step of a run reads none).  After a step
    each run goes through ``Run._after``.  A run that fails leaves the
    lockstep, and the rest of its window's rows, their uniforms drawn, go on
    without it; a run whose rows end leaves at the window's end.  The steps
    run under one ``np.errstate(all="ignore")``: a state that outruns double
    precision ends in the ``StepError`` of ``Run.close``, not in a warning.
    """
    groups = _by_book(feeds)
    n = stop = first = groups[0][0].book.n
    period = groups[0][0].config.maintenance_period
    ends = {run: first + len(rows) for run, rows in feeds.items()}
    stack = getattr(groups[0][0].book, "stack", None) or BookStack(
        [group[0].book for group in groups], 2)
    watched = any(run.on_step is not None for run in feeds)
    with np.errstate(all="ignore"):
        while groups:
            leads = [group[0] for group in groups]
            if n == stop:  # open the next window
                stop, scores = min(n - n % period + period, *map(ends.get, leads)), {}
                rows = [feeds[lead][n - first:stop - first] for lead in leads]
                log_new, uniforms = np.zeros((2, stop - n, len(leads)))
                drawn = max(n, 1)  # a run's first step reads no uniform
                for r, (lead, part) in enumerate(zip(leads, rows)):
                    key = (id(feeds[lead]), *_prior_key(lead.config.prior))
                    if key not in scores:
                        scores[key] = prior_predictive(lead.config.prior, part)
                    log_new[:, r] = scores[key]
                    if lead.config.selection == "sample" and stop > drawn:
                        uniforms[drawn - n:, r] = lead.rng.random(stop - drawn)
                rows = np.stack(rows, axis=1)
            books = [lead.book for lead in leads]
            if books != stack.books:
                stack.store(books, stack.cap)
            configs = _Rows(lead.config for lead in leads)
            columns = [lead.records for lead in leads]
            for j, i in enumerate(range(n + 1, stop + 1)):
                errors = step(stack, rows[j], configs, log_new[j].tolist(), uniforms[j], columns)
                if i == stop or watched or any(errors):
                    for group, error in zip(groups, errors):
                        for run in group:
                            run._after(i, error, group, i == ends[run])
                    if any(run.error for group in groups for run in group):
                        break
            n = i
            groups = _by_book(run for group in groups for run in group
                              if run.error is None and ends[run] > n)
            if n < stop:  # a run failed: the window's other rows go on without it
                at = [books.index(group[0].book) for group in groups]
                rows, log_new, uniforms = (part[j + 1:, at] for part in (rows, log_new, uniforms))


def run_many(
    streams: list[np.ndarray],
    configs: list[EngineConfig],
    on_step: list[Callable[[int, ClusterBook], None] | None] | None = None,
) -> list["RunTrace | Exception"]:
    """Run each stream under its config, all in lockstep, and return for each
    the ``RunTrace`` that ``run(streams[r], configs[r], on_step[r])`` returns
    or the exception it raises.

    Each stream is one ``Run``; one ``_drive`` call steps them all, and each
    is then closed.  The books are the rows of one ``BookStack``, and each
    ``step`` scores, normalises, selects and updates all of them at once,
    while each book is pruned and merged on its own.  Runs that step alike
    share a row.  A family is the runs given the same rows object (one
    object, not equal rows) with equal seed, lam, selection, fixed_alpha
    and prior, whose configs then differ at most in prune_eps and
    merge_eps: until a prune or merge acts, they take the same steps.  A
    family's runs hold one book, one set of step columns and one generator;
    each calls its own ``on_step`` with that book.  At each maintenance
    tick, a run whose prune or merge would change the book splits off with
    copies of all three, in a row of its own, and the others share on.  At
    the end of the stream every run takes a book and records of its own
    (twins' records share their q chunks).  Runs given one rows object
    under one prior share each window's prior scores.  A run's trace is bit
    for bit its trace alone.

    A run whose stream or config is rejected, or whose step, maintenance or
    ``on_step`` raises, gets that exception and leaves the lockstep; the
    others go on.  The streams may differ in length, but their rows must
    have one dimension d and their configs one ``maintenance_period``, as
    the rows step in windows of that period; else ``ConfigError`` names the
    field.  ``on_step``, if given, holds one callback or None per stream.
    """
    callbacks = [None] * len(streams) if on_step is None else list(on_step)
    if not len(streams) == len(configs) == len(callbacks):
        raise ValueError("run_many needs one config (and one on_step) per stream")
    results: list[RunTrace | Exception | None] = [None] * len(streams)
    runs, feeds, families = {}, {}, {}
    for index, (stream, config, callback) in enumerate(zip(streams, configs, callbacks)):
        try:
            rows = as_stream(stream)
            run = Run(config, rows.shape[1], callback)
        except (ValueError, StepError) as exc:  # ConfigError is a ValueError
            results[index] = exc
            continue
        config = run.config
        lead = families.setdefault((id(stream), config.seed, config.lam, config.selection,
                                    config.fixed_alpha, *_prior_key(config.prior)), run)
        run.book, run.records, run.rng = lead.book, lead.records, lead.rng
        runs[index], feeds[run] = run, rows
    for name, values in (("d", {run.book.dim for run in feeds}),
                         ("maintenance_period", {run.config.maintenance_period for run in feeds})):
        if len(values) > 1:
            raise ConfigError(f"{name} must be the same for every run, got {sorted(values)}")
    if feeds:
        _drive(feeds)
    for index, run in runs.items():
        try:
            results[index] = run.close()
        except Exception as exc:
            results[index] = exc
    return results


def run(
    stream: np.ndarray,
    config: EngineConfig,
    on_step: Callable[[int, ClusterBook], None] | None = None,
) -> RunTrace:
    """Drive the full loop over a stream of observations: one ``Run``, fed
    the whole stream and closed.

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
    one.  Like every step, it runs under ``np.errstate(all="ignore")``
    (``_drive``), so numpy emits no floating-point warning there.
    """
    stream = as_stream(stream)
    handle = Run(config, stream.shape[1], on_step)
    handle.feed(stream)
    return handle.close()
