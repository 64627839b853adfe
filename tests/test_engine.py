"""Tests for the sequential clustering engine: label priors,
responsibilities, stepping, prune/merge maintenance and full runs.

The responsibility oracle is an unvectorized reference that recomputes
label-prior weights and predictive densities with its own scalar
arithmetic.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from asugs.engine import (
    BookStack,
    ClusterBook,
    ConfigError,
    EngineConfig,
    REFRESH_MAX_T,
    StepError,
    _prefix_sums,
    _sum_in_order,
    merge,
    prune,
    responsibilities,
    run,
    run_many,
    step,
)
from asugs.bench import VARIANTS, variant_config
from asugs.data import generate_grid_mixture, read_trace, sample_mixture, write_trace
from asugs.diagnostics import log_mixture_predictive_rows, run_with_diagnostics
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density,
    posterior_update,
    prior_predictive,
    student_t_factors,
    student_t_log_density,
    student_t_shape,
)


def score_one(book, y, alpha, log_new):
    """``responsibilities`` of one book, alone in its stack: the old
    single-book signature, with log_new the prior predictive of y."""
    y = np.asarray(y, dtype=float)
    stack = book.stack or BookStack([book], len(y), 2)
    q = responsibilities(stack, y[None], [math.log(alpha) + log_new])
    return q[:book.k + 1]  # a stack of one book scores in its own shapes


def step_one(book, y, config, rng, log_new):
    """``step`` of one book, alone in its stack, drawing its uniform from rng
    as ``run`` does (from the second observation on, in sample mode); raises
    what the step returns in place of a record."""
    stack = book.stack or BookStack([book], config.prior.dim, 2)
    u = rng.random() if config.selection == "sample" and book.k else 0.0
    (record,) = step(stack, [y], [config], [log_new], [u])
    if isinstance(record, Exception):
        raise record
    return record


def make_book(posts, ms, ws, n):
    book = ClusterBook(n=n)
    for post, m, w in zip(posts, ms, ws):
        book.add(post, m, w)
    return book


def unit_post():
    """A valid one-dimensional state, for tests that read only counts."""
    return NiwPosterior(np.zeros(1), 1.0, 1.0, np.eye(1))


def k_cluster_book(k, n):
    return make_book([unit_post() for _ in range(k)], [1] * k, [1.0] * k, n=n)


def ref_log_density_1d(mu, c, delta, sigma, y):
    """Scalar re-derivation of the predictive log density for d = 1."""
    r = c / (1.0 + c)
    scale = r / (2.0 * delta)
    quad = (y - mu) ** 2 / sigma
    return (
        -0.5 * math.log(math.pi)
        + 0.5 * math.log(scale)
        + gammaln(delta + 0.5)
        - gammaln(delta)
        - 0.5 * math.log(sigma)
        - (delta + 0.5) * math.log(1.0 + scale * quad)
    )


class TestPredictivePriorWeights:
    """The label prior m(h)/(n + alpha), alpha/(n + alpha) as
    ``responsibilities`` applies it: every cluster holds the prior's own
    state, so all predictive densities are equal at any y and cancel."""

    PRIOR = PriorConfig(mu0=np.zeros(1), c0=1.0, delta0=1.0, sigma0=np.eye(1))

    def weights(self, ms, n, alpha):
        book = make_book([self.PRIOR.state for _ in ms], ms,
                         [float(m) for m in ms], n=n)
        y = np.array([0.37])
        return score_one(book, y, alpha, prior_predictive(self.PRIOR, y))

    def test_empty_book_certain_innovation(self):
        y = np.zeros(1)
        assert score_one(ClusterBook(), y, 3.7, prior_predictive(self.PRIOR, y)).tolist() == [1.0]

    def test_single_cluster_unit_alpha(self):
        np.testing.assert_allclose(self.weights([1], 1, 1.0), [0.5, 0.5])

    def test_two_clusters(self):
        np.testing.assert_allclose(
            self.weights([3, 1], 4, 0.5),
            [3 / 4.5, 1 / 4.5, 0.5 / 4.5],
            rtol=1e-12,
        )

    def test_sums_to_one_after_pruning(self):
        # counts no longer covering n: weights renormalize over survivors
        w = self.weights([3, 2], 10, 1.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 2 / 6, 1 / 6], rtol=1e-12)


class TestResponsibilities:
    def test_empty_book(self):
        prior = PriorConfig.default(1)
        np.testing.assert_array_equal(
            score_one(ClusterBook(), np.zeros(1), 1.0, prior_predictive(prior, np.zeros(1))),
            [1.0],
        )

    def test_symmetric_clusters_split_evenly(self):
        post_a = NiwPosterior(np.array([-1.0]), 3.0, 2.0, np.array([[0.5]]))
        post_b = NiwPosterior(np.array([1.0]), 3.0, 2.0, np.array([[0.5]]))
        book = make_book([post_a, post_b], [4, 4], [4.0, 4.0], n=8)
        q = score_one(book, np.zeros(1), 1.0,
                      prior_predictive(PriorConfig.default(1), np.zeros(1)))
        assert q[0] == pytest.approx(q[1], rel=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_against_unvectorized_reference(self):
        """Brute-force reference: densities times Eq-style prior weights."""
        prior = PriorConfig(mu0=np.zeros(1), c0=1.0, delta0=1.5,
                            sigma0=np.array([[2.0]]))
        posts = [
            NiwPosterior(np.array([0.7]), 4.0, 3.0, np.array([[0.9]])),
            NiwPosterior(np.array([-1.2]), 2.0, 2.5, np.array([[1.4]])),
        ]
        book = make_book(posts, [3, 1], [3.0, 1.0], n=4)
        alpha, y = 0.8, 0.25
        raw = [
            3 * math.exp(ref_log_density_1d(0.7, 4.0, 3.0, 0.9, y)),
            1 * math.exp(ref_log_density_1d(-1.2, 2.0, 2.5, 1.4, y)),
            alpha * math.exp(ref_log_density_1d(0.0, 1.0, 1.5, 2.0, y)),
        ]
        expected = np.array(raw) / sum(raw)
        got = score_one(book, np.array([y]), alpha, prior_predictive(prior, np.array([y])))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @staticmethod
    def random_books(d):
        """Books of random states, each with an observation and an alpha."""
        rng = np.random.default_rng(100 + d)
        prior = PriorConfig.from_scale(d, 0.5, pseudo_obs=2.0 * d + 4.0)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            posts, ms = [], []
            for _ in range(k):
                a = rng.normal(size=(d, d))
                posts.append(NiwPosterior(rng.normal(size=d) * 2, rng.uniform(0.1, 50),
                                          rng.uniform(d / 2.0, 40), a @ a.T + 0.1 * np.eye(d)))
                ms.append(int(rng.integers(1, 100)))
            book = make_book(posts, ms, [float(m) for m in ms], n=sum(ms) + 3)
            yield book, prior, rng.normal(size=d) * 2, rng.uniform(0.1, 5.0)

    @staticmethod
    def stepped_books(d):
        """Four clusters opened at centres about three units apart, then
        advanced by ``step`` over 400 observations without maintenance and
        taken every 50 steps: the cached factors of the clusters that absorb
        the stream come from many rank-one refreshes, and as the clusters
        overlap, no score saturates at 0 or 1."""
        rng = np.random.default_rng(200 + d)
        means = rng.normal(scale=3.0 / math.sqrt(2.0 * d), size=(4, d))
        ys = means[rng.integers(4, size=400)] + rng.normal(size=(400, d))
        cfg = EngineConfig(seed=d, prior=PriorConfig.from_scale(d, 1.0, 2.0 * d + 4.0),
                           prune_eps=0.0, merge_eps=0.0).resolve(d)
        book, step_rng = ClusterBook(n=4), np.random.default_rng(d)
        for mean in means:
            book.add(posterior_update(cfg.prior.state, mean), 1, 1.0)
        for i, y in enumerate(ys, start=1):
            step_one(book, y, cfg, step_rng, prior_predictive(cfg.prior, y))
            if i % 50 == 0:
                for y_new in means[rng.integers(4, size=5)] + rng.normal(size=(5, d)):
                    yield book, cfg.prior, y_new, book.alpha(cfg.lam)
        assert book.m.max() > 100

    @pytest.mark.parametrize("books, d", [
        *[pytest.param("random_books", d, id=str(d)) for d in (1, 2, 8)],
        *[pytest.param("stepped_books", d, id=f"stepped-{d}") for d in (2, 8, 64)],
    ])
    def test_matches_per_cluster_loop(self, books, d):
        """The batched evaluation against one ``log_predictive_density``
        call per cluster, each factorising the cluster's state afresh, plus
        ``prior_predictive`` for the new slot."""
        for book, prior, y, alpha in getattr(self, books)(d):
            logq = np.array(
                [math.log(book.m[h]) + log_predictive_density(
                    NiwPosterior(book.mu[h], book.c[h], book.delta[h], book.sigma[h]), y)
                 for h in range(book.k)]
                + [math.log(alpha) + prior_predictive(prior, y)]
            )
            expected = np.exp(logq - logq.max())
            expected /= expected.sum()
            got = score_one(book, y, alpha, prior_predictive(prior, y))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_random_states_normalized(self):
        rng = np.random.default_rng(9)
        prior = PriorConfig.default(2)
        for _ in range(50):
            k = rng.integers(1, 6)
            posts, ms = [], []
            for _ in range(k):
                a = rng.normal(size=(2, 2))
                posts.append(NiwPosterior(rng.normal(size=2), rng.uniform(0.5, 9),
                                          rng.uniform(1.5, 9), a @ a.T + np.eye(2)))
                ms.append(int(rng.integers(1, 30)))
            book = make_book(posts, ms, [float(m) for m in ms], n=sum(ms))
            y = rng.normal(size=2) * 3
            q = score_one(book, y, rng.uniform(0.1, 5.0), prior_predictive(prior, y))
            assert q.shape == (k + 1,)
            assert np.all(q >= 0)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)


class TestAdaptAlpha:
    def test_log_one_is_zero(self):
        assert k_cluster_book(1, n=1).alpha(1.0) == 1.0

    def test_arithmetic(self):
        got = k_cluster_book(16, n=500).alpha(1.0)
        assert got == pytest.approx(16.0 / (1.0 + math.log(500)), rel=1e-14)
        assert got == pytest.approx(2.21771, abs=1e-4)

    def test_linear_in_k(self):
        a1 = k_cluster_book(4, n=100).alpha(0.7)
        a2 = k_cluster_book(8, n=100).alpha(0.7)
        assert a2 == pytest.approx(2.0 * a1, rel=1e-14)

    def test_undefined_before_first_observation(self):
        with pytest.raises(ValueError):
            k_cluster_book(1, n=0).alpha(1.0)


class TestStep:
    def setup_method(self):
        self.config = EngineConfig(lam=1.0, seed=0, prior=PriorConfig.default(2)).resolve(2)
        self.rng = np.random.Generator(np.random.PCG64(0))

    def step(self, book, y):
        return step_one(book, y, self.config, self.rng, prior_predictive(self.config.prior, y))

    def test_first_observation_opens_cluster_one(self):
        book = ClusterBook()
        rng_state = self.rng.bit_generator.state
        rec = self.step(book, np.array([0.4, -0.1]))
        assert (rec.label, rec.k_after, rec.innovation, rec.alpha_used) == (1, 1, True, 0.0)
        assert rec.q.tolist() == [1.0]
        assert self.rng.bit_generator.state == rng_state  # no selection, no draw
        assert book.m[0] == 1 and book.w[0] == 1.0
        assert book.k == 1 and book.n == 1

    def test_dominant_cluster_wins_argmax(self):
        config = EngineConfig(lam=1.0, seed=0, selection="argmax",
                              prior=PriorConfig.default(2)).resolve(2)
        y = np.array([1.0, 1.0])
        post = NiwPosterior(y.copy(), 100.0, 50.0, 0.01 * np.eye(2))
        book = make_book([post], [100], [100.0], n=100)
        rec = step_one(book, y, config, self.rng, prior_predictive(config.prior, y))
        assert rec.label == 1 and not rec.innovation

    def test_counts_partition_observations(self):
        rng = np.random.default_rng(2)
        book = ClusterBook()
        for i in range(200):
            rec = self.step(book, rng.normal(size=2) * 2)
            assert book.m.sum() == book.n == i + 1
            assert rec.q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(rec.q >= 0)
            assert book.w.sum() <= book.n + 1e-9

    def test_label_sequence_deterministic(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(size=(150, 2))
        labels = []
        for _ in range(2):
            trace = run(ys, EngineConfig(seed=77, prior=PriorConfig.default(2)))
            labels.append([r.label for r in trace.records])
        assert labels[0] == labels[1]

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_observation_of_wrong_dimension_rejected(self, k, dim):
        book = ClusterBook()
        for _ in range(k):
            self.step(book, np.array([0.4, -0.1]))
        with pytest.raises(ValueError, match=f"observation has dim {dim}, state has dim 2"):
            # y is refused before log_new is read
            step_one(book, np.ones(dim), self.config, self.rng, 0.0)
        assert (book.k, book.n) == (k, k)

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_new_cluster_is_the_prior_absorbing_its_first_observation(self, d, scale):
        """A cluster opened by ``step`` against ``posterior_update`` of the
        prior's state.  The far observations give t above REFRESH_MAX_T, so
        that absorb refactorises; the near ones take the rank-one refresh."""
        prior = PriorConfig.from_scale(d, scale**2, pseudo_obs=2.0 * d + 4.0)
        config = EngineConfig(seed=0, prior=prior).resolve(d)
        rng = np.random.default_rng(d)
        for far in (False, True):
            y = scale * rng.normal(size=d) * (1e3 if far else 1.0)
            book = ClusterBook()
            step_one(book, y, config, np.random.default_rng(0), prior_predictive(prior, y))
            want = posterior_update(prior.state, y)
            np.testing.assert_array_equal(book.mu[0], want.mu)
            np.testing.assert_array_equal(book.sigma[0], want.sigma)
            assert (book.c[0], book.delta[0]) == (want.c, want.delta)
            e = y - prior.mu0
            prec = prior.state.factors[0]
            t = prior.c0 / (1.0 + prior.c0) / (2.0 * prior.delta0) * float(e @ prec @ e)
            assert (t > REFRESH_MAX_T) == far
            assert_cache_fresh(book)


class TestPrune:
    def _two_cluster_book(self, w1, w2):
        posts = [NiwPosterior(np.zeros(1), 2.0, 2.0, np.eye(1)) for _ in range(2)]
        return make_book(posts, [8, 2], [w1, w2], n=10)

    def test_uniform_weights_untouched(self):
        book = self._two_cluster_book(5.0, 5.0)
        assert prune(book, 0.3) == []
        assert book.k == 2

    def test_small_relative_weight_removed(self):
        book = self._two_cluster_book(0.98 * 10, 0.02 * 10)
        removed = prune(book, 0.05)
        assert len(removed) == 1 and book.k == 1
        assert book.w[0] == pytest.approx(9.8)

    def test_zero_threshold_is_noop(self):
        book = self._two_cluster_book(9.99, 0.01)
        assert prune(book, 0.0) == []

    def test_never_removes_last_cluster(self):
        posts = [NiwPosterior(np.zeros(1), 2.0, 2.0, np.eye(1)) for _ in range(3)]
        book = make_book(posts, [1, 1, 1], [1.0, 1.0, 1.0], n=3)
        prune(book, 0.99)  # every relative weight is below threshold
        assert book.k == 1

    def test_pairs_dropped_with_cluster(self):
        book = self._two_cluster_book(9.8, 0.2)
        prune(book, 0.05)
        assert book.dist.shape == book.coact.shape == (1, 1)


class TestMerge:
    def _book(self, mus, cs, ms, ws, n):
        posts = [
            NiwPosterior(np.array([mu]), c, 2.0 + 0.5 * i, np.array([[1.0 + 0.1 * i]]))
            for i, (mu, c) in enumerate(zip(mus, cs))
        ]
        return make_book(posts, ms, ws, n)

    def test_identical_histories_merge(self):
        book = self._book([0.0, 0.05], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist[0, 1] = 0.0  # identical responsibilities throughout
        book.coact[0, 1] = 10.0
        events = merge(book, 1e-6)
        assert events == [(1, 2)] and book.k == 1

    def test_equal_counts_average_location(self):
        book = self._book([-1.0, 1.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist[0, 1] = 0.0
        book.coact[0, 1] = 10.0
        sig_a = book.sigma[0].copy()
        sig_b = book.sigma[1].copy()
        merge(book, 0.5)
        assert book.mu[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert book.c[0] == pytest.approx(8.0)
        assert book.delta[0] == pytest.approx(4.5)  # 2.0 + 2.5
        assert book.m[0] == 10 and book.w[0] == pytest.approx(10.0)
        np.testing.assert_allclose(book.sigma[0], 0.5 * sig_a + 0.5 * sig_b)

    def test_greedy_closest_pair_only(self):
        """Three clusters, distances [0.01, 0.02, 0.30]: one merge."""
        book = self._book([0.0, 0.1, 0.2], [4.0, 4.0, 4.0], [5, 5, 5],
                          [5.0, 5.0, 5.0], n=100)
        acc = {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 30.0}  # /n gives the distances
        for (a, b), val in acc.items():
            book.dist[a - 1, b - 1] = val
            book.coact[a - 1, b - 1] = 60.0
        events = merge(book, 0.05)
        assert events == [(1, 2)]
        assert book.k == 2

    def test_quiet_pair_not_merged(self):
        """Near-zero distance without co-activity is not evidence."""
        book = self._book([0.0, 5.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=1000)
        book.dist[0, 1] = 0.1
        book.coact[0, 1] = 0.2  # both clusters mostly inactive
        events = merge(book, 0.05)
        assert events == []

    def test_active_disagreeing_pair_not_merged(self):
        """Distance close to the co-activity marks distinct clusters."""
        book = self._book([0.0, 5.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist[0, 1] = 0.4
        book.coact[0, 1] = 0.45
        events = merge(book, 0.05)
        assert events == []

    def test_zero_threshold_is_noop(self):
        book = self._book([0.0, 0.1], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist[0, 1] = 0.0
        book.coact[0, 1] = 10.0
        assert merge(book, 0.0) == []

    def test_survivor_distance_tracking_restarts(self):
        book = self._book([0.0, 0.05, 3.0], [4.0, 4.0, 4.0], [5, 5, 5],
                          [5.0, 5.0, 5.0], n=10)
        book.dist[0, 1] = 0.0
        book.coact[0, 1] = 10.0
        book.dist[0, 2] = 4.0
        book.coact[0, 2] = 9.0
        book.dist[1, 2] = 4.0
        book.coact[1, 2] = 9.0
        merge(book, 0.05)
        assert book.cid.tolist() == [1, 3]
        assert book.dist[0, 1] == 0.0 and book.coact[0, 1] == 0.0


class TestPairHistories:
    def test_arrays_match_cid_keyed_reference(self):
        """The positional pair arrays against pair sums keyed by cid.

        The reference keeps its own live-cid list and dicts keyed by
        (cid_a, cid_b), cid_a < cid_b, and updates them only from each
        step's responsibilities and the events prune and merge return,
        with one scalar addition per pair and step.
        """
        ys = sample_mixture(generate_grid_mixture(4, 0.025), 400, seed=0).rows
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.025)).resolve(2)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        book = ClusterBook()
        cids: list[int] = []
        dist: dict[tuple[int, int], float] = {}
        coact: dict[tuple[int, int], float] = {}

        def drop(cid):
            cids.remove(cid)
            for key in [key for key in dist if cid in key]:
                del dist[key], coact[key]

        def check():
            assert book.cid.tolist() == cids
            assert len(dist) == len(cids) * (len(cids) - 1) // 2
            for i, j in zip(*np.triu_indices(len(cids), 1)):
                key = (cids[i], cids[j])
                assert book.dist[i, j] == dist[key] and book.coact[i, j] == coact[key]

        born = pruned = merged = 0
        for i, y in enumerate(ys, start=1):
            rec = step_one(book, y, cfg, rng, prior_predictive(cfg.prior, y))
            if rec.innovation:
                born += 1
                new = born  # cids are never reused
                for cid in cids:
                    dist[(cid, new)] = coact[(cid, new)] = 0.0
                cids.append(new)
            q = [float(v) for v in rec.q[:len(cids)]]
            for h in range(len(cids)):
                for g in range(h + 1, len(cids)):
                    dist[(cids[h], cids[g])] += abs(q[h] - q[g])
                    coact[(cids[h], cids[g])] += q[h] + q[g]
            check()
            if i % cfg.maintenance_period:
                continue
            for cid in prune(book, cfg.prune_eps):
                drop(cid)
                pruned += 1
            check()
            for survivor, absorbed in merge(book, cfg.merge_eps):
                drop(absorbed)
                for cid in cids:
                    if cid != survivor:
                        key = (min(cid, survivor), max(cid, survivor))
                        dist[key] = coact[key] = 0.0
                merged += 1
            check()
        assert pruned > 0 and merged > 0


class TestWindows:
    """``run`` scores the prior for a window of ``maintenance_period`` rows at
    once, and the book folds the pair histories of up to that many steps in
    one pass; both give the values of once per step, bit for bit."""

    @staticmethod
    def per_row_prior_score(prior, y):
        """The prior predictive of one row y with the single-row quadratic
        form ``e @ prec @ e``."""
        prec, _, log_norm, coef, expo = prior.state.factors
        e = y - prior.state.mu
        return float(student_t_log_density(log_norm, coef, expo, e @ prec @ e))

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_batched_prior_score_is_prior_predictive(self, d):
        """A window's scores, and each of its rows scored alone, against the
        per-row oracle."""
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        priors = (PriorConfig.default(d), PriorConfig.from_scale(d, 0.3, 2.0 * d + 4.0),
                  PriorConfig(mu0=rng.normal(size=d), c0=0.7, delta0=d + 1.5,
                              sigma0=a @ a.T + 0.1 * np.eye(d)))
        for prior in priors:
            for scale in (1e-6, 1.0, 1e6):
                for rows in (1, 7, 50):
                    ys = rng.normal(size=(rows, d)) * scale + prior.mu0
                    want = [self.per_row_prior_score(prior, y) for y in ys]
                    assert prior_predictive(prior, ys).tolist() == want
                    assert [prior_predictive(prior, y) for y in ys] == want

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_fold_adds_in_step_order(self, k):
        """A window of 60 steps against adding once per step, on sums whose
        rounding depends on the order; at k = 1 a plain ``np.add.reduce``
        over the window would sum it pairwise."""
        rng = np.random.default_rng(k)
        book = k_cluster_book(k, n=0)
        sums = [book.w.copy(), book.dist.copy(), book.coact.copy()]
        for _ in range(60):
            q = rng.random(k) * 10.0 ** rng.uniform(-8.0, 0.0)
            book.window.append(q)
            for total, term in zip(sums, (q, np.abs(np.subtract.outer(q, q)), np.add.outer(q, q))):
                total += term
        assert len(book.window) == 60
        for got, want in zip((book.w, book.dist, book.coact), sums):
            assert np.array_equal(got, want)
        assert book.window == []

    @staticmethod
    def per_step_fold(book):
        """``ClusterBook.fold`` as a reference: add each queued step with ``+=``,
        one after another."""
        for row in book.window:
            book._w += row
            book._dist += np.abs(np.subtract.outer(row, row))
            book._coact += np.add.outer(row, row)
        book.window = []

    @pytest.mark.parametrize("maintained", [True, False], ids=["prune-merge", "no-maintenance"])
    @pytest.mark.parametrize("period", [1, 7, 50])
    def test_pair_sums_equal_once_per_step(self, monkeypatch, period, maintained):
        """``w``, ``dist`` and ``coact`` as ``on_step`` reads them at every step
        against the reference that adds once per step.  Each read is taken
        from a copy, so the run's own window is left to grow; it never holds
        more than ``period`` steps."""
        ys = sample_mixture(generate_grid_mixture(4, 0.025), 400, seed=0).rows
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.025),
                           maintenance_period=period,
                           **({} if maintained else dict(prune_eps=0.0, merge_eps=0.0)))
        sizes, real_fold = [], ClusterBook.fold

        def sized_fold(book):
            sizes.append(len(book.window))
            real_fold(book)

        def runs():
            seen = []
            trace = run(ys, cfg, on_step=lambda i, book: seen.append(
                [getattr(copy.deepcopy(book), name) for name in ("w", "dist", "coact")]))
            return trace, seen

        monkeypatch.setattr(ClusterBook, "fold", sized_fold)
        trace, seen = runs()
        monkeypatch.setattr(ClusterBook, "fold", self.per_step_fold)
        want_trace, want = runs()

        assert [r.label for r in trace.records] == [r.label for r in want_trace.records]
        assert len(seen) == len(want) == len(ys)
        for got_sums, want_sums in zip(seen, want):
            for got_arr, want_arr in zip(got_sums, want_sums):
                assert np.array_equal(got_arr, want_arr)
        assert max(sizes) == period
        births = [r.index for r in trace.records if r.innovation]
        assert period == 1 or any((i - 1) % period for i in births)  # a birth in mid-window
        assert (len(births) > trace.k) == maintained  # maintenance removed clusters

    @pytest.mark.parametrize("rows, period", [(400, 50), (401, 50), (400, 7), (3, 50)])
    def test_one_prior_score_per_window(self, monkeypatch, rows, period):
        """An N-row run calls ``prior_predictive`` ceil(N / period) times, each
        on a window of rows, which cover every row once: never on one row."""
        import asugs.engine as engine_mod

        shapes = []

        def counted(prior, ys):
            shapes.append(np.shape(ys))
            return prior_predictive(prior, ys)

        ys = sample_mixture(generate_grid_mixture(3, 0.025), rows, seed=2).rows
        monkeypatch.setattr(engine_mod, "prior_predictive", counted)
        run(ys, EngineConfig(seed=2, prior=PriorConfig.from_scale(2, 0.025),
                             maintenance_period=period))
        assert len(shapes) == math.ceil(rows / period)
        assert all(len(shape) == 2 for shape in shapes)  # no single-row call
        assert sum(shape[0] for shape in shapes) == rows


def assert_cache_fresh(book):
    """Every per-cluster array has k entries, and each cluster's cached
    predictive factors equal a fresh computation from its state, within
    tol = max(1e-12, C * cond(sigma) * eps) with C = 2d(d+1).

    Neither side is exact.  A Cholesky factorisation of the d x d sigma
    is exact for some sigma + E with ||E|| <= d(d+1) eps ||sigma|| to
    first order (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 10.3, with || |R^T| |R| || <= d ||sigma||).  So the
    precision built from it is within d(d+1) cond(sigma) eps of the exact
    one relative to its norm, and its log determinant within
    |tr(sigma^-1 E)| <= d * d(d+1) cond(sigma) eps.  C allows the
    refreshed factors as much error again.  Hence each entry of the
    precision must lie within tol * ||prec||, and logdet and the
    constant within tol relative or d * tol absolute.  A fixed entrywise
    1e-12 is below this floor: at cond(sigma) = 2.9e4 (the pinned example
    of ``test_cache_fresh_under_updates_and_merges``) a fresh
    factorisation is itself 1.1e-12 from a 50-digit inverse.  The cached
    Student-t shape is exact: it is ``student_t_shape`` of c and delta.
    """
    for name in ("mu", "sigma", "c", "delta", "m", "w", "cid", "prec", "logdet", "log_norm",
                 "coef", "expo"):
        assert len(getattr(book, name)) == book.k, name
    for h in range(book.k):
        assert (book.coef[h], book.expo[h]) == student_t_shape(book.c[h], book.delta[h])
        d = book.sigma[h].shape[0]
        prec, logdet, log_norm, _, _ = student_t_factors(book.c[h], book.delta[h], book.sigma[h])
        tol = max(1e-12, 2 * d * (d + 1) * np.linalg.cond(book.sigma[h]) * np.finfo(float).eps)
        np.testing.assert_allclose(book.prec[h], prec, rtol=0, atol=tol * np.linalg.norm(prec, 2))
        assert book.logdet[h] == pytest.approx(logdet, rel=tol, abs=d * tol)
        assert book.log_norm[h] == pytest.approx(log_norm, rel=tol, abs=d * tol)


def assert_sigma_symmetric(book):
    """Every cluster's sigma equals its transpose bit for bit."""
    assert np.array_equal(book.sigma, book.sigma.transpose(0, 2, 1))


class TestCachedFactors:
    def test_unfactorable_state_fails_in_the_step_that_made_it(self, monkeypatch):
        """Step 3's update yields an indefinite sigma, and the cached
        precision that the rank-one refresh reads is not finite, so the
        refresh falls back to ``factorise``, which fails."""
        import asugs.engine as engine_mod

        real, calls = engine_mod.conjugate_update, []

        def indefinite_at_third_call(mu, c, delta, sigma, y):
            calls.append(y)
            out = real(mu, c, delta, sigma, y)
            if len(calls) == 3:
                sigma *= -1.0
            return out

        def spoil_precision(i, book):
            if i == 2:
                book.prec[:] = np.nan

        monkeypatch.setattr(engine_mod, "conjugate_update", indefinite_at_third_call)
        with pytest.raises(RuntimeError, match="step 3 failed"):
            run(np.zeros((3, 2)), EngineConfig(seed=0), on_step=spoil_precision)

    def test_huge_t_update_refactorises(self, monkeypatch):
        """An observation far outside the cluster's spread puts t far above
        REFRESH_MAX_T: ``absorb`` takes ``factorise``'s full factorisation and
        leaves exactly a fresh cache.  A nearby one takes the refresh."""
        import asugs.engine as engine_mod

        real, calls = engine_mod.student_t_factors, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        book = make_book([NiwPosterior(np.zeros(2), 1.0, 2.0, np.eye(2))], [1], [1.0], n=1)
        monkeypatch.setattr(engine_mod, "student_t_factors", counted)
        book.absorb(0, np.array([0.3, -0.2]))
        assert calls == []
        assert_cache_fresh(book)
        book.absorb(0, np.array([1e4, -3e4]))
        assert len(calls) == 1
        prec, logdet, log_norm, _, _ = real(book.c[0], book.delta[0], book.sigma[0])
        np.testing.assert_array_equal(book.prec[0], prec)
        assert (book.logdet[0], book.log_norm[0]) == (logdet, log_norm)

    def test_births_copy_the_prior_factors(self, monkeypatch):
        """A new cluster copies the prior's state with its factors, and every
        later update takes the rank-one refresh: with prune and merge off,
        a run of well-scaled data factorises nothing, however many
        clusters it opens."""
        import asugs.engine as engine_mod

        calls = []

        def counted(*args):
            calls.append(args)
            return student_t_factors(*args)

        mix = generate_grid_mixture(3, 0.025)
        rows = sample_mixture(mix, 400, seed=2).rows
        config = EngineConfig(seed=2, prior=PriorConfig.from_scale(2, 0.025),
                              prune_eps=0.0, merge_eps=0.0)
        monkeypatch.setattr(engine_mod, "student_t_factors", counted)
        trace = run(rows, config)
        assert sum(r.innovation for r in trace.records) >= 9
        assert calls == []
        assert_cache_fresh(trace.final_book)

    def test_births_copy_the_prior_factors_in_lockstep(self, monkeypatch):
        """The same 400-row stream as one of three lockstep runs: every step
        updates the three books in one batched call, whose refresh
        factorises nothing on well-scaled data either."""
        import asugs.engine as engine_mod

        calls = []

        def counted(*args):
            calls.append(args)
            return student_t_factors(*args)

        mix = generate_grid_mixture(3, 0.025)
        streams = [sample_mixture(mix, 400, seed=seed).rows for seed in (2, 3, 4)]
        configs = [EngineConfig(seed=seed, prior=PriorConfig.from_scale(2, 0.025),
                                prune_eps=0.0, merge_eps=0.0) for seed in (2, 3, 4)]
        monkeypatch.setattr(engine_mod, "student_t_factors", counted)
        traces = run_many(streams, configs)
        for trace in traces:
            assert sum(r.innovation for r in trace.records) >= 9
            assert_cache_fresh(trace.final_book)
        assert calls == []


class TestBookInvariants:
    # Overlapping clusters under the broad default prior: about half of
    # the examples merge at least once.
    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
        prune_eps=st.floats(0.0, 0.2),
        merge_eps=st.floats(0.0, 0.5),
        period=st.integers(1, 10),
    )
    def test_random_streams_keep_book_invariants(
        self, centers, picks, seed, prune_eps, merge_eps, period
    ):
        noise = np.random.default_rng(seed).normal(scale=0.3, size=(len(picks), 2))
        ys = np.array([centers[p % len(centers)] for p in picks]) + noise
        cfg = EngineConfig(seed=seed, prune_eps=prune_eps, merge_eps=merge_eps,
                           maintenance_period=period)

        def check(_, book):
            cids = book.cid.tolist()
            assert book.dist.shape == book.coact.shape == (book.k, book.k)
            assert all(a < b for a, b in zip(cids, cids[1:]))
            assert book.next_cid > max(cids)
            assert book.total_count <= book.n
            assert_cache_fresh(book)
            assert_sigma_symmetric(book)

        trace = run(ys, cfg, on_step=check)
        check(None, trace.final_book)

        # run's loop unrolled, so the book is checked after every step,
        # prune and merge, not only after a step's maintenance
        cfg = cfg.resolve(2)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        book = ClusterBook()
        for i, y in enumerate(ys, start=1):
            step_one(book, y, cfg, rng, prior_predictive(cfg.prior, y))
            check(i, book)
            if i % period == 0:
                prune(book, cfg.prune_eps)
                check(i, book)
                merge(book, cfg.merge_eps)
                check(i, book)


def mixture_mass(book, center, scale, nodes=100):
    """The fitted mixture predictive integrated over R^d, d <= 2, by
    Gauss-Legendre quadrature in u per axis, with y = center + scale tan(u)."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = u * np.pi / 2.0, w * np.pi / 2.0
    axis, jac = scale * np.tan(u), w * scale / np.cos(u) ** 2
    if book.mu.shape[1] == 1:
        pts, weights = axis[:, None], jac
    else:
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        weights = np.multiply.outer(jac, jac).ravel()
    return float(weights @ np.exp(log_mixture_predictive_rows(book, center + pts)))


class TestCacheAcrossScales:
    """The rank-one refresh and its fallback on data from 1e-8 to 1e8,
    under a prior of the data's scale (clusters form and merge) and under
    the default unit prior (updates far above and below its scale)."""

    @staticmethod
    def stream(d, centers, picks, seed, exponent, matched):
        scale = 10.0 ** exponent
        noise = np.random.default_rng(seed).normal(scale=0.3, size=(len(picks), d))
        ys = (np.array([centers[p % len(centers)][:d] for p in picks]) + noise) * scale
        prior = PriorConfig.from_scale(d, (0.3 * scale) ** 2, 4.0) if matched else None
        cfg = EngineConfig(seed=seed, prior=prior, merge_eps=0.5, maintenance_period=5)
        return ys, scale, cfg.resolve(d)

    @settings(max_examples=60, deadline=None)
    @example(d=2, centers=[(0.0, 0.75, 0.0)], picks=[0, 0], seed=316, exponent=3, matched=False)
    @given(
        d=st.integers(1, 3),
        centers=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
        exponent=st.integers(-8, 8),
        matched=st.booleans(),
    )
    def test_cache_fresh_under_updates_and_merges(
        self, d, centers, picks, seed, exponent, matched
    ):
        """After every step, prune and merge every sigma factorises and is
        exactly symmetric, and the cached precision, logdet and constant
        equal a fresh factorisation."""
        ys, _, cfg = self.stream(d, centers, picks, seed, exponent, matched)
        book, rng = ClusterBook(), np.random.Generator(np.random.PCG64(cfg.seed))
        for i, y in enumerate(ys, start=1):
            step_one(book, y, cfg, rng, prior_predictive(cfg.prior, y))
            assert_cache_fresh(book)
            assert_sigma_symmetric(book)
            if i % cfg.maintenance_period == 0:
                prune(book, cfg.prune_eps)
                assert_sigma_symmetric(book)
                merge(book, cfg.merge_eps)
                assert_cache_fresh(book)
                assert_sigma_symmetric(book)

    def test_nearly_symmetric_prior_gives_exactly_symmetric_book(self):
        """A sigma0 that is symmetric only within allclose enters the book
        symmetrised, and updates and merges keep it exactly so."""
        sigma0 = np.array([[1.0, 0.3], [0.3 + 1e-12, 1.0]])
        prior = PriorConfig(mu0=np.zeros(2), sigma0=sigma0)
        assert np.array_equal(prior.sigma0, prior.sigma0.T)
        ys = np.random.default_rng(6).normal(size=(200, 2))
        cfg = EngineConfig(seed=6, prior=prior, merge_eps=0.5, maintenance_period=5)
        book = run(ys, cfg, on_step=lambda i, b: assert_sigma_symmetric(b)).final_book
        assert_sigma_symmetric(book)
        post = NiwPosterior(np.zeros(2), 1.0, 2.0, sigma0)
        assert np.array_equal(post.sigma, post.sigma.T)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 2),
        centers=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
        exponent=st.integers(-8, 8),
    )
    def test_mixture_predictive_integrates_to_one(self, d, centers, picks, seed, exponent):
        ys, scale, cfg = self.stream(d, centers, picks, seed, exponent, matched=True)
        book = run(ys, cfg).final_book
        assert mixture_mass(book, ys.mean(axis=0), scale) == pytest.approx(1.0, abs=1e-9)


class TestRun:
    def test_single_observation(self):
        trace = run(np.array([[0.5, 0.5]]), EngineConfig(seed=0))
        assert trace.n == 1 and trace.k == 1 and len(trace.records) == 1

    def test_single_gaussian_stays_small(self):
        """Majority vote over seeds: one tight component yields k <= 3."""
        votes = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            ys = rng.normal(size=(500, 2)) * 0.3
            cfg = EngineConfig(seed=seed, prior=PriorConfig.from_scale(2, 0.09))
            if run(ys, cfg).k <= 3:
                votes += 1
        assert votes > 10

    def test_empty_stream_rejected(self):
        # no rows, a 1-D array without coordinates, rows without
        # coordinates, and an array with more than two axes
        streams = (np.empty((0, 2)), np.empty(0), np.empty((3, 0)), np.zeros((3, 2, 2)))
        for runner in (run, run_with_diagnostics):
            for stream in streams:
                with pytest.raises(ValueError):
                    runner(stream, EngineConfig(seed=0))

    def test_step_errors_cite_index(self):
        ys = np.array([[0.0, 0.0], [np.nan, 0.0]])
        for runner in (run, run_with_diagnostics):
            with pytest.raises(RuntimeError, match="step 2"):
                runner(ys, EngineConfig(seed=0))

    def test_non_finite_row_fails_before_the_first_step(self, monkeypatch):
        """Row 5 is not finite: both runners raise step 5's StepError before
        step 1, so ``on_step`` is never called."""
        import asugs.diagnostics as diagnostics_mod

        seen, real_run_many = [], diagnostics_mod.run_many

        def spied_run_many(streams, configs, on_step):
            def spied(callback):
                def spy(i, book):
                    seen.append(i)
                    callback(i, book)
                return spy
            return real_run_many(streams, configs, [spied(f) for f in on_step])

        monkeypatch.setattr(diagnostics_mod, "run_many", spied_run_many)
        runners = (lambda ys, cfg: run(ys, cfg, on_step=lambda i, book: seen.append(i)),
                   lambda ys, cfg: run_with_diagnostics(ys, cfg, checkpoint_every=1))
        for bad in (np.nan, np.inf):
            ys = np.random.default_rng(3).normal(size=(8, 2))
            ys[4, 1] = bad
            for runner in runners:
                with pytest.raises(StepError, match="step 5 failed") as info:
                    runner(ys, EngineConfig(seed=0))
                assert info.value.step == 5
                assert isinstance(info.value.__cause__, ValueError)
                assert "non-finite" in str(info.value.__cause__)
        assert seen == []

    def test_diagnostics_do_not_change_the_run(self):
        rng = np.random.default_rng(11)
        ys = np.concatenate([rng.normal(size=(150, 2)) * 0.3,
                             rng.normal(size=(150, 2)) * 0.3 + 3.0])[rng.permutation(300)]
        cfg = EngineConfig(seed=4, prior=PriorConfig.from_scale(2, 0.09), maintenance_period=20)
        plain = run(ys, cfg)
        diag = run_with_diagnostics(ys, cfg, truth=None, checkpoint_every=7)
        assert len(diag.checkpoints) == 300 // 7
        assert [r.label for r in diag.records] == [r.label for r in plain.records]
        for a, b in zip(diag.records, plain.records):
            assert np.array_equal(a.q, b.q)
        assert np.array_equal(diag.k_series(), plain.k_series())
        assert (diag.n, diag.k) == (plain.n, plain.k)
        for name in ("mu", "sigma", "c", "delta", "m", "w"):
            assert np.array_equal(getattr(diag.final_book, name), getattr(plain.final_book, name))

    def test_on_step_sees_every_step_before_final_maintenance(self):
        rng = np.random.default_rng(12)
        ys = np.vstack([rng.normal(size=(44, 2)) * 0.3, [[100.0, 100.0]]])
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.09),
                           prune_eps=0.45, maintenance_period=20)
        seen = []
        trace = run(ys, cfg, on_step=lambda i, book: seen.append((i, book.n, book.k)))
        assert [s[0] for s in seen] == list(range(1, 46))
        assert all(i == n for i, n, _ in seen)
        # maintenance at step i has run when on_step(i) is called ...
        assert all(seen[i - 1][2] == trace.records[i - 1].k_after for i in (20, 40))
        # ... and the end-of-stream sweep runs after the last call: the
        # far outlier opened a cluster at step 45 that only it prunes
        assert seen[-1][2] == trace.k + 1


    def test_alpha_positive_and_state_consistent(self):
        rng = np.random.default_rng(8)
        ys = rng.normal(size=(300, 2)) * 2
        trace = run(ys, EngineConfig(seed=1))
        for rec in trace.records[1:]:
            assert rec.alpha_used > 0
        for name in ("mu", "sigma", "c", "delta", "m", "w"):
            assert len(getattr(trace.final_book, name)) == trace.k
        assert trace.final_book.alpha(trace.config.lam) > 0


class TestReadBook:
    def test_rebuilt_book_steps_and_merges(self, tmp_path):
        rng = np.random.default_rng(5)
        ys = np.concatenate([rng.normal(size=(60, 2)) * 0.3, rng.normal(size=(60, 2)) * 0.3 + 4.0])
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.09)).resolve(2)
        trace = run(ys, cfg)
        write_trace(tmp_path / "trace.jsonl", trace)
        book = read_trace(tmp_path / "trace.jsonl").final_book
        assert book.cid.tolist() == list(range(1, book.k + 1))
        assert book.m.tolist() == trace.final_book.m.tolist()
        assert book.w.tolist() == trace.final_book.w.tolist()
        assert book.dist.shape == book.coact.shape == (book.k, book.k)
        assert not book.dist.any() and not book.coact.any()
        step_one(book, ys[0], cfg, np.random.default_rng(0), prior_predictive(cfg.prior, ys[0]))
        assert book.n == trace.n + 1
        book.dist[:] = 0.0
        book.coact[:] = float(book.n)
        assert merge(book, 0.05)

class TestEngineConfig:
    def test_selection_defaults(self):
        assert EngineConfig().resolve(2).selection == "sample"
        assert EngineConfig(fixed_alpha=1.0).resolve(2).selection == "argmax"

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(lam=0.0), "lam"),
            (dict(fixed_alpha=-1.0), "fixed_alpha"),
            (dict(prune_eps=1.0), "prune_eps"),
            (dict(merge_eps=-0.1), "merge_eps"),
            (dict(maintenance_period=0), "maintenance_period"),
            (dict(selection="greedy"), "selection"),
            (dict(lam=math.nan), "lam"),
            (dict(lam=math.inf), "lam"),
            (dict(fixed_alpha=math.nan), "fixed_alpha"),
            (dict(fixed_alpha=math.inf), "fixed_alpha"),
            (dict(merge_eps=math.nan), "merge_eps"),
            (dict(merge_eps=math.inf), "merge_eps"),
            (dict(maintenance_period=2.5), "maintenance_period"),
            (dict(seed=-1), "seed"),
            (dict(seed=1.5), "seed"),
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**kwargs).resolve(2)

    def test_prior_dimension_checked(self):
        with pytest.raises(ConfigError, match="dim"):
            EngineConfig(prior=PriorConfig.default(3)).resolve(2)


def trace_bytes(trace, path):
    write_trace(path, trace)
    return path.read_bytes()


def lockstep_group(d, seed, sizes, period=20):
    """Streams of the given lengths from four separated clusters, each run
    under one of the four variants in turn and a seed of its own."""
    rng = np.random.default_rng(seed)
    streams, configs = [], []
    for r, n in enumerate(sizes):
        means = rng.normal(scale=3.0, size=(4, d))
        streams.append(means[rng.integers(4, size=n)] + rng.normal(size=(n, d)))
        base = EngineConfig(seed=int(rng.integers(1000)), maintenance_period=period,
                            prior=PriorConfig.from_scale(d, 1.0, 2.0 * d + 4.0))
        configs.append(variant_config(base, VARIANTS[r % len(VARIANTS)]))
    return streams, configs


def assert_each_alone(streams, configs, results, tmp_path):
    """Each result's trace file is byte for byte that of ``run`` of its stream."""
    assert len(results) == len(streams)
    for r, (stream, config, got) in enumerate(zip(streams, configs, results)):
        assert not isinstance(got, Exception), got
        want = run(stream, config)
        assert trace_bytes(got, tmp_path / f"got{r}.jsonl") == trace_bytes(
            want, tmp_path / f"want{r}.jsonl"), f"run {r}"


class TestRunMany:
    """``run_many`` steps its runs in lockstep; every run's trace is the trace
    of that run alone, bit for bit, and a failing run fails alone."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_mixed_variants_match_each_run_alone(self, d, tmp_path):
        streams, configs = lockstep_group(d, seed=d, sizes=[130] * 8)
        assert_each_alone(streams, configs, run_many(streams, configs), tmp_path)

    @pytest.mark.parametrize("sizes", [[1, 2, 19, 20, 21, 140, 55], [240], [3, 1]],
                             ids=["unequal", "one-run", "shortest"])
    def test_unequal_lengths_and_one_run(self, sizes, tmp_path):
        streams, configs = lockstep_group(2, seed=len(sizes), sizes=sizes)
        assert_each_alone(streams, configs, run_many(streams, configs), tmp_path)

    def test_order_does_not_matter(self, tmp_path):
        streams, configs = lockstep_group(2, seed=11, sizes=[90, 160, 75, 200, 120, 60])
        order = np.random.default_rng(3).permutation(len(streams))
        shuffled = run_many([streams[i] for i in order], [configs[i] for i in order])
        given = run_many(streams, configs)
        for pos, i in enumerate(order):
            assert trace_bytes(shuffled[pos], tmp_path / "a.jsonl") == trace_bytes(
                given[i], tmp_path / "b.jsonl")
        assert_each_alone(streams, configs, given, tmp_path)

    def test_capacity_grows_mid_window(self, monkeypatch, tmp_path):
        """The stack starts with room for one cluster per run and doubles it
        when a run outgrows it, here in the middle of a maintenance window."""
        grown, real_store = [], BookStack.store

        def spied_store(stack, books, cap):
            if "cap" in stack.__dict__ and cap > stack.cap:
                grown.append(books[0].n)  # the steps taken so far
            real_store(stack, books, cap)

        streams, configs = lockstep_group(2, seed=5, sizes=[150] * 5, period=50)
        monkeypatch.setattr(BookStack, "store", spied_store)
        results = run_many(streams, configs)
        monkeypatch.undo()
        assert any(n % 50 for n in grown)
        assert_each_alone(streams, configs, results, tmp_path)

    def test_poisoned_streams_fail_alone(self, tmp_path):
        streams, configs = lockstep_group(2, seed=7, sizes=[80, 80, 80, 80, 80])
        streams[1] = streams[1].copy()
        streams[1][41, 0] = np.nan
        configs[3] = replace(configs[3], prior=PriorConfig.default(3))
        results = run_many(streams, configs)
        for bad, kind in ((1, StepError), (3, ConfigError)):
            with pytest.raises(kind) as alone:
                run(streams[bad], configs[bad])
            assert type(results[bad]) is kind and str(results[bad]) == str(alone.value)
        assert results[1].step == 42
        good = [0, 2, 4]
        assert_each_alone([streams[r] for r in good], [configs[r] for r in good],
                          [results[r] for r in good], tmp_path)

    def test_failing_step_fails_alone(self, tmp_path):
        """One run's cached precision is spoilt after its step 30, so its
        step 31 fails as it would alone; the others run on, unchanged."""
        streams, configs = lockstep_group(2, seed=9, sizes=[100] * 4)
        calls = [None, None, None, None]

        def spoil(i, book):
            if i == 30:
                book.prec[:] = np.nan
                book.sigma[:] = -book.sigma

        calls[2] = spoil
        results = run_many(streams, configs, on_step=calls)
        with pytest.raises(StepError) as alone:
            run(streams[2], configs[2], on_step=spoil)
        assert isinstance(results[2], StepError) and str(results[2]) == str(alone.value)
        assert results[2].step == alone.value.step == 31
        good = [0, 1, 3]
        assert_each_alone([streams[r] for r in good], [configs[r] for r in good],
                          [results[r] for r in good], tmp_path)

    @pytest.mark.parametrize("period", [1, 200], ids=["book-by-book", "one-chunk"])
    def test_pair_sums_match_each_run_alone(self, period):
        """``w``, ``dist`` and ``coact`` as ``on_step`` reads them (from a copy)
        at every step of every run, against the run alone: each book folds
        its own window, with clusters born in mid-window and books of
        different k in the stack.  A period of 1 folds every book at every
        step; a period longer than every stream never ticks, so each window
        grows until a birth, a prune or a read folds it in one chunk."""
        streams, configs = lockstep_group(2, seed=13, sizes=[120, 90, 120, 60, 120],
                                          period=period)
        configs[1] = replace(configs[1], prune_eps=0.0, merge_eps=0.0)

        def reads(seen):
            return lambda i, book: seen.append(
                [getattr(copy.deepcopy(book), name).copy() for name in ("w", "dist", "coact")])

        alone = [[] for _ in streams]
        for stream, config, seen in zip(streams, configs, alone):
            run(stream, config, on_step=reads(seen))
        together = [[] for _ in streams]
        run_many(streams, configs, on_step=[reads(seen) for seen in together])
        for want, got in zip(alone, together):
            assert len(want) == len(got)
            for want_sums, got_sums in zip(want, got):
                for a, b in zip(want_sums, got_sums):
                    assert np.array_equal(a, b)

    def test_each_book_folds_its_own_window(self, monkeypatch):
        """A birth folds the born book's window and no other, the maintenance
        tick folds every book's, maintained or not, and no window ever holds
        more than ``maintenance_period`` rows: after step i, at most the
        i % period steps since the tick."""
        streams, configs = lockstep_group(2, seed=19, sizes=[120, 90, 120, 60, 120], period=20)
        configs[1] = replace(configs[1], prune_eps=0.0, merge_eps=0.0)
        births, folds, held = [], [], []
        real_add, real_fold = ClusterBook.add, ClusterBook.fold

        def spied_add(book, *args):
            others = [(other, len(other.window)) for other in book.stack.books if other is not book]
            before = len(book.window)
            real_add(book, *args)
            births.append((before, len(book.window),
                           [len(other.window) - size for other, size in others]))

        def spied_fold(book):
            folds.append(len(book.window))
            real_fold(book)

        def sizes(r):
            return lambda i, book: held.append((r, i, len(book.window)))

        monkeypatch.setattr(ClusterBook, "add", spied_add)
        monkeypatch.setattr(ClusterBook, "fold", spied_fold)
        results = run_many(streams, configs, on_step=[sizes(r) for r in range(len(streams))])
        monkeypatch.undo()
        assert not any(isinstance(result, Exception) for result in results)
        assert all(after == 0 and not any(changed) for _, after, changed in births)
        assert any(before for before, _, _ in births)  # a birth in mid-window folded rows
        assert max(folds) == 20
        assert all(size <= i % 20 for _, i, size in held)
        assert [size for r, i, size in held if r == 1 and i % 20 == 0] == [0] * 4

    @pytest.mark.parametrize("field, change", [
        ("d", lambda stream, config: (np.hstack([stream, stream[:, :1]]),
                                      replace(config, prior=PriorConfig.default(3)))),
        ("maintenance_period", lambda stream, config: (stream,
                                                      replace(config, maintenance_period=7))),
    ])
    def test_runs_must_share_d_and_period(self, field, change):
        streams, configs = lockstep_group(2, seed=1, sizes=[30, 30])
        streams[1], configs[1] = change(streams[1], configs[1])
        with pytest.raises(ConfigError, match=f"^{field} must be the same for every run"):
            run_many(streams, configs)


class TestBatchedUpdate:
    """A lockstep step of several books updates them with ``BookStack.absorb``:
    one batched conjugate update and refresh, bit for bit ``ClusterBook.absorb``
    of each book alone, which a step of one book still calls."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_batched_update_is_absorb_bit_for_bit(self, monkeypatch, d):
        """Six books of random states, five batched updates of a random
        cluster each, by observations near and far from it (far ones
        refactorise), against ``absorb`` of a copy of each book."""
        import asugs.engine as engine_mod

        calls = []

        def counted(*args):
            calls.append(args)
            return student_t_factors(*args)

        rng = np.random.default_rng(d)
        books = [make_book(random_posts(rng, 3, d), [2, 3, 4], [1.0] * 3, n=9) for _ in range(6)]
        stack = BookStack(books, d, 4)
        refactorised = 0
        for _ in range(5):
            twins = [copy.deepcopy(book) for book in books]
            labels = rng.integers(1, 4, size=len(books)).tolist()
            scales = 10.0 ** rng.choice([-2, 0, 3], size=len(books))
            ys = np.array([book.mu[h - 1] + rng.normal(size=d) * scale
                           for book, h, scale in zip(books, labels, scales)])
            errors = [None] * len(books)
            monkeypatch.setattr(engine_mod, "student_t_factors", counted)
            stack.absorb(labels, ys, errors)
            monkeypatch.undo()
            assert errors == [None] * len(books)
            refactorised += len(calls)
            calls.clear()
            for book, twin, h, y in zip(books, twins, labels, ys):
                twin.absorb(h - 1, y)
                twin.m[h - 1] += 1
                for name in ("mu", "sigma", "c", "delta", "m", "prec", "logdet", "log_norm",
                             "coef", "expo"):
                    assert np.array_equal(getattr(book, name), getattr(twin, name)), name
        assert 0 < refactorised < 30

    def test_one_step_refreshes_refactorises_and_fails_alone(self, monkeypatch):
        """One lockstep step of three books, one outcome each: book 0's
        observation is near its cluster and takes the rank-one refresh;
        book 1's lies far outside its spread (t above REFRESH_MAX_T), so it
        refactorises once and leaves exactly a fresh cache; book 2's sigma
        is indefinite, so its refactorisation raises ``LinAlgError`` and only
        that book fails."""
        import asugs.engine as engine_mod

        real, calls = engine_mod.student_t_factors, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        config = EngineConfig(seed=0, selection="argmax",
                              prior=PriorConfig.default(2)).resolve(2)
        books = [make_book([NiwPosterior(np.zeros(2), 1.0, 2.0, np.eye(2))], [1], [1.0], n=1)
                 for _ in range(3)]
        books[2].sigma[:] = -books[2].sigma  # its cached precision still scores
        ys = np.array([[0.3, -0.2], [1e4, -3e4], [1e4, -3e4]])
        twins = [copy.deepcopy(book) for book in books[:2]]
        for twin, y in zip(twins, ys):
            twin.absorb(0, y)
            twin.m[0] += 1
        stack = BookStack(books, 2, 4)
        monkeypatch.setattr(engine_mod, "student_t_factors", counted)
        records = step(stack, ys, [config] * 3, [-1e6] * 3, [0.0] * 3)
        assert [record.label for record in records[:2]] == [1, 1]
        assert isinstance(records[2], np.linalg.LinAlgError)
        assert [book.n for book in books[:2]] == [2, 2]
        assert len(calls) == 2  # book 1's refactorisation and book 2's failed one
        assert np.array_equal(calls[0][2], books[1].sigma[0])
        prec, logdet, log_norm, _, _ = real(books[1].c[0], books[1].delta[0], books[1].sigma[0])
        np.testing.assert_array_equal(books[1].prec[0], prec)
        assert (books[1].logdet[0], books[1].log_norm[0]) == (logdet, log_norm)
        for book, twin in zip(books, twins):
            for name in ("mu", "sigma", "c", "delta", "m", "prec", "logdet", "log_norm",
                         "coef", "expo"):
                assert np.array_equal(getattr(book, name), getattr(twin, name)), name
        assert_cache_fresh(books[0])

    def test_lockstep_steps_never_call_absorb(self, monkeypatch):
        """Runs in lockstep update through ``BookStack.absorb``, one call per
        step, and never through ``ClusterBook.absorb``; ``run`` calls
        ``ClusterBook.absorb`` once per observation and the batch never."""
        singles, batches = [], []
        real_single, real_batch = ClusterBook.absorb, BookStack.absorb

        def counted_single(book, h, y):
            singles.append(h)
            return real_single(book, h, y)

        def counted_batch(stack, labels, ys, errors):
            batches.append(len(labels))
            return real_batch(stack, labels, ys, errors)

        streams, configs = lockstep_group(2, seed=17, sizes=[60] * 3)
        monkeypatch.setattr(ClusterBook, "absorb", counted_single)
        monkeypatch.setattr(BookStack, "absorb", counted_batch)
        results = run_many(streams, configs)
        assert not any(isinstance(result, Exception) for result in results)
        assert singles == [] and batches == [3] * 60
        run(streams[0], configs[0])
        assert len(singles) == 60 and len(batches) == 60


def random_posts(rng, k, d):
    posts = []
    for _ in range(k):
        a = rng.normal(size=(d, d))
        posts.append(NiwPosterior(rng.normal(size=d) * 2, rng.uniform(0.1, 50),
                                  rng.uniform(d / 2.0, 40), a @ a.T + 0.1 * np.eye(d)))
    return posts


class TestLockstepBits:
    """Three ways in which stepping runs together could change a run's bits."""

    def test_padded_rows_normalise_over_their_own_k(self):
        """Twenty books with k = 0 .. 19 in one stack: each row of q is its
        book's q scored alone, although the shorter rows are padded to the
        longest.  A plain row sum over a padded row would group the terms
        of numpy's pairwise sum differently and differ in the last bit."""
        rng = np.random.default_rng(0)
        prior = PriorConfig.default(2)
        books = [make_book(random_posts(rng, k, 2), list(rng.integers(1, 40, size=k)),
                           [1.0] * k, n=40 * k + 1) for k in range(20)]
        alone = [copy.deepcopy(book) for book in books]
        stack = BookStack(books, 2, 21)
        for _ in range(20):
            ys = rng.normal(size=(20, 2)) * 3
            weights = [math.log(rng.uniform(0.1, 5.0)) + prior_predictive(prior, y) for y in ys]
            q = responsibilities(stack, ys, weights)
            for r, (book, y, weight) in enumerate(zip(alone, ys, weights)):
                own = responsibilities(book.stack or BookStack([book], 2, 2), y[None], [weight])
                assert np.array_equal(q[r, :r + 1], own.reshape(-1)[:r + 1]), r
                assert not q[r, r + 1:].any()

    def test_prefix_sums_group_like_numpys_sum(self):
        rng = np.random.default_rng(1)
        lengths = np.arange(1, 21)
        differs = 0
        for _ in range(200):
            q = np.zeros((20, 24))
            for r, n in enumerate(lengths):
                q[r, :n] = np.exp(rng.normal(size=n) * 4.0)
            want = [q[r, :n].sum() for r, n in enumerate(lengths)]
            assert _prefix_sums(q, lengths).tolist() == want
            differs += int((q.sum(axis=1) != want).sum())
        assert differs > 0  # the padded row sum is not the sum over k + 1

    @pytest.mark.parametrize("books", [1, 3])
    def test_fold_of_single_clusters_adds_in_order(self, books):
        """With k = 1 a window is a column of scalars, which ``np.add.reduce``
        would sum pairwise; each book's fold adds step after step, for one
        book alone and for several in one stack."""
        rng = np.random.default_rng(books)
        stack = BookStack([k_cluster_book(1, n=0) for _ in range(books)], 1, 2)
        want = np.array([book.w[0] for book in stack.books])
        steps = [rng.random((books, 1)) for _ in range(60)]
        for q in steps:
            for book, row in zip(stack.books, q):
                book.window.append(row)
            want += q[:, 0]
        if books == 1:  # what a plain reduce over the window would give
            column = np.concatenate([[1.0], [q[0, 0] for q in steps]])
            assert np.add.reduce(column) != want[0]
        for book in stack.books:
            book.fold()
        assert [book.w[0] for book in stack.books] == want.tolist()

    def test_sum_in_order_of_a_scalar_column(self):
        total, terms = np.zeros(1), np.random.default_rng(4).random((60, 1)) * 1e-3
        want = 0.0
        for term in terms[:, 0]:
            want += term
        _sum_in_order(total, terms.copy())
        assert total[0] == want

    def test_concentration_uses_math_log(self):
        """At n = 9170, numpy's log and ``math.log`` differ in the last bit:
        a step of several books keeps alpha = k / (lam + math.log(n))."""
        n, lam = 9170, 0.3
        assert np.log(np.array([float(n)]))[0] != math.log(n)
        rng = np.random.default_rng(2)
        config = EngineConfig(lam=lam, seed=0, prior=PriorConfig.default(2)).resolve(2)
        books = [make_book(random_posts(rng, k, 2), [n // k] * k, [1.0] * k, n=n) for k in (3, 5)]
        stack = BookStack(books, 2, 8)
        ys = rng.normal(size=(2, 2))
        records = step(stack, ys, [config] * 2, [prior_predictive(config.prior, y) for y in ys],
                       [0.5, 0.5])
        for record, k in zip(records, (3, 5)):
            assert record.alpha_used == k / (lam + math.log(n))
        assert any(k / (lam + math.log(n)) != k / (lam + float(np.log(np.float64(n))))
                   for k in (3, 5))

    def test_new_cluster_weight_uses_math_log(self, monkeypatch):
        """The new cluster's log weight is math.log(alpha) + its prior score,
        for an alpha whose numpy log differs in the last bit."""
        import asugs.engine as engine_mod

        alpha = 0.40771306437289007
        assert float(np.log(np.float64(alpha))) != math.log(alpha)
        seen, real = [], engine_mod.responsibilities

        def spied(stack, ys, log_new):
            seen.append(list(log_new))
            return real(stack, ys, log_new)

        rng = np.random.default_rng(3)
        config = EngineConfig(fixed_alpha=alpha, seed=0, prior=PriorConfig.default(2)).resolve(2)
        stack = BookStack([make_book(random_posts(rng, 2, 2), [3, 4], [1.0, 1.0], n=7)
                           for _ in range(2)], 2, 4)
        ys = rng.normal(size=(2, 2))
        scores = [prior_predictive(config.prior, y) for y in ys]
        monkeypatch.setattr(engine_mod, "responsibilities", spied)
        step(stack, ys, [config] * 2, scores, [0.5, 0.5])
        assert seen == [[math.log(alpha) + score for score in scores]]

    def test_refresh_uses_math_log_and_log1p(self):
        """After a lockstep step, each chosen cluster's logdet is
        d log a + logdet + log1p(t) in ``math``; over these states numpy's
        log or log1p would differ in the last bit at least once."""
        rng = np.random.default_rng(4)
        config = EngineConfig(seed=0, selection="argmax",
                              prior=PriorConfig.default(2)).resolve(2)
        differs = 0
        for _ in range(100):
            books = [make_book(random_posts(rng, 1, 2), [5], [1.0], n=5) for _ in range(3)]
            ys = np.array([book.mu[0] for book in books]) + rng.normal(size=(3, 2))
            before = [(book.c[0], book.delta[0], book.mu[0].copy(), book.prec[0].copy(),
                       book.logdet[0]) for book in books]
            stack = BookStack(books, 2, 4)
            records = step(stack, ys, [config] * 3,
                           [prior_predictive(config.prior, y) - 50.0 for y in ys], [0.5] * 3)
            for book, y, record, (c, delta, mu, prec, logdet) in zip(books, ys, records, before):
                assert record.label == 1
                a = 2.0 * delta / (1.0 + 2.0 * delta)
                b = (1.0 / (1.0 + 2.0 * delta)) * (c / (1.0 + c))
                r = y - mu
                t = b / a * float(r @ (prec @ r))
                assert book.logdet[0] == 2 * math.log(a) + logdet + math.log1p(t)
                numpy_logdet = (2 * float(np.log(np.float64(a))) + logdet
                                + float(np.log1p(np.float64(t))))
                differs += numpy_logdet != book.logdet[0]
        assert differs > 0
