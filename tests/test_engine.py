"""Tests for the sequential clustering engine: label priors,
responsibilities, stepping, prune/merge maintenance and full runs.

The responsibility oracle is an unvectorized reference that recomputes
label-prior weights and predictive densities with its own scalar
arithmetic.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from asugs.engine import (
    Cluster,
    ClusterBook,
    ConcentrationState,
    ConfigError,
    EngineConfig,
    adapt_alpha,
    book_from_summaries,
    merge,
    predictive_prior_weights,
    prune,
    responsibilities,
    run,
    step,
)
from asugs.diagnostics import run_with_diagnostics
from asugs.niw import NiwPosterior, PriorConfig


def make_book(posts, ms, ws, n):
    book = ClusterBook(n=n)
    for post, m, w in zip(posts, ms, ws):
        cl = Cluster(post=post, m=m, w=w, cid=book.next_cid)
        book.next_cid += 1
        for other in book.clusters:
            book._reset_pair(other.cid, cl.cid)
        book.clusters.append(cl)
    return book


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
    def test_empty_book_certain_innovation(self):
        assert predictive_prior_weights(ClusterBook(), 3.7).tolist() == [1.0]

    def test_single_cluster_unit_alpha(self):
        book = make_book([None], [1], [1.0], n=1)
        np.testing.assert_allclose(predictive_prior_weights(book, 1.0), [0.5, 0.5])

    def test_two_clusters(self):
        book = make_book([None, None], [3, 1], [3.0, 1.0], n=4)
        np.testing.assert_allclose(
            predictive_prior_weights(book, 0.5),
            [3 / 4.5, 1 / 4.5, 0.5 / 4.5],
            rtol=1e-12,
        )

    def test_sums_to_one_after_pruning(self):
        # counts no longer covering n: weights renormalize over survivors
        book = make_book([None, None], [3, 2], [3.0, 2.0], n=10)
        w = predictive_prior_weights(book, 1.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 2 / 6, 1 / 6], rtol=1e-12)


class TestResponsibilities:
    def test_empty_book(self):
        prior = PriorConfig.default(1)
        np.testing.assert_array_equal(
            responsibilities(ClusterBook(), np.zeros(1), 1.0, prior), [1.0]
        )

    def test_symmetric_clusters_split_evenly(self):
        post_a = NiwPosterior(np.array([-1.0]), 3.0, 2.0, np.array([[0.5]]))
        post_b = NiwPosterior(np.array([1.0]), 3.0, 2.0, np.array([[0.5]]))
        book = make_book([post_a, post_b], [4, 4], [4.0, 4.0], n=8)
        q = responsibilities(book, np.zeros(1), 1.0, PriorConfig.default(1))
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
        got = responsibilities(book, np.array([y]), alpha, prior)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

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
            q = responsibilities(book, rng.normal(size=2) * 3,
                                 rng.uniform(0.1, 5.0), prior)
            assert q.shape == (k + 1,)
            assert np.all(q >= 0)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)


class TestAdaptAlpha:
    def test_log_one_is_zero(self):
        assert adapt_alpha(ConcentrationState(k=1, lam=1.0, n=1)) == 1.0

    def test_arithmetic(self):
        got = adapt_alpha(ConcentrationState(k=16, lam=1.0, n=500))
        assert got == pytest.approx(16.0 / (1.0 + math.log(500)), rel=1e-14)
        assert got == pytest.approx(2.21771, abs=1e-4)

    def test_linear_in_k(self):
        a1 = adapt_alpha(ConcentrationState(k=4, lam=0.7, n=100))
        a2 = adapt_alpha(ConcentrationState(k=8, lam=0.7, n=100))
        assert a2 == pytest.approx(2.0 * a1, rel=1e-14)

    def test_undefined_before_first_observation(self):
        with pytest.raises(ValueError):
            ConcentrationState(k=1, lam=1.0, n=0).alpha()


class TestStep:
    def setup_method(self):
        self.config = EngineConfig(seed=0, prior=PriorConfig.default(2)).resolve(2)
        self.rng = np.random.Generator(np.random.PCG64(0))

    def test_first_observation_opens_cluster_one(self):
        book, conc = ClusterBook(), ConcentrationState(0, 1.0, 0)
        rec = step(book, conc, np.array([0.4, -0.1]), self.config, self.rng)
        assert (rec.label, rec.k_after, rec.innovation) == (1, 1, True)
        assert rec.q.tolist() == [1.0]
        assert book.clusters[0].m == 1 and book.clusters[0].w == 1.0
        assert conc.k == 1 and conc.n == 1

    def test_dominant_cluster_wins_argmax(self):
        config = EngineConfig(seed=0, selection="argmax",
                              prior=PriorConfig.default(2)).resolve(2)
        y = np.array([1.0, 1.0])
        post = NiwPosterior(y.copy(), 100.0, 50.0, 0.01 * np.eye(2))
        book = make_book([post], [100], [100.0], n=100)
        conc = ConcentrationState(1, 1.0, 100)
        rec = step(book, conc, y, config, self.rng)
        assert rec.label == 1 and not rec.innovation

    def test_counts_partition_observations(self):
        rng = np.random.default_rng(2)
        book, conc = ClusterBook(), ConcentrationState(0, 1.0, 0)
        for i in range(200):
            rec = step(book, conc, rng.normal(size=2) * 2, self.config, self.rng)
            assert sum(c.m for c in book.clusters) == book.n == i + 1
            assert rec.q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(rec.q >= 0)
            assert sum(c.w for c in book.clusters) <= book.n + 1e-9

    def test_label_sequence_deterministic(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(size=(150, 2))
        labels = []
        for _ in range(2):
            trace = run(ys, EngineConfig(seed=77, prior=PriorConfig.default(2)))
            labels.append([r.label for r in trace.records])
        assert labels[0] == labels[1]


class TestPrune:
    def _two_cluster_book(self, w1, w2):
        posts = [NiwPosterior(np.zeros(1), 2.0, 2.0, np.eye(1)) for _ in range(2)]
        return make_book(posts, [8, 2], [w1, w2], n=10)

    def test_uniform_weights_untouched(self):
        book = self._two_cluster_book(5.0, 5.0)
        conc = ConcentrationState(2, 1.0, 10)
        assert prune(book, conc, 0.3) == []
        assert book.k == 2

    def test_small_relative_weight_removed(self):
        book = self._two_cluster_book(0.98 * 10, 0.02 * 10)
        conc = ConcentrationState(2, 1.0, 10)
        removed = prune(book, conc, 0.05)
        assert len(removed) == 1 and book.k == 1 and conc.k == 1
        assert book.clusters[0].w == pytest.approx(9.8)

    def test_zero_threshold_is_noop(self):
        book = self._two_cluster_book(9.99, 0.01)
        assert prune(book, ConcentrationState(2, 1.0, 10), 0.0) == []

    def test_never_removes_last_cluster(self):
        posts = [NiwPosterior(np.zeros(1), 2.0, 2.0, np.eye(1)) for _ in range(3)]
        book = make_book(posts, [1, 1, 1], [1.0, 1.0, 1.0], n=3)
        conc = ConcentrationState(3, 1.0, 3)
        prune(book, conc, 0.99)  # every relative weight is below threshold
        assert book.k == 1

    def test_pairs_dropped_with_cluster(self):
        book = self._two_cluster_book(9.8, 0.2)
        conc = ConcentrationState(2, 1.0, 10)
        prune(book, conc, 0.05)
        assert book.dist_acc == {} and book.coact_acc == {}


class TestMerge:
    def _book(self, mus, cs, ms, ws, n):
        posts = [
            NiwPosterior(np.array([mu]), c, 2.0 + 0.5 * i, np.array([[1.0 + 0.1 * i]]))
            for i, (mu, c) in enumerate(zip(mus, cs))
        ]
        return make_book(posts, ms, ws, n)

    def test_identical_histories_merge(self):
        book = self._book([0.0, 0.05], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        key = (1, 2)
        book.dist_acc[key] = 0.0  # identical responsibilities throughout
        book.coact_acc[key] = 10.0
        conc = ConcentrationState(2, 1.0, 10)
        events = merge(book, conc, 1e-6)
        assert events == [(1, 2)] and book.k == 1 and conc.k == 1

    def test_equal_counts_average_location(self):
        book = self._book([-1.0, 1.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist_acc[(1, 2)] = 0.0
        book.coact_acc[(1, 2)] = 10.0
        sig_a = book.clusters[0].post.sigma.copy()
        sig_b = book.clusters[1].post.sigma.copy()
        merge(book, ConcentrationState(2, 1.0, 10), 0.5)
        survivor = book.clusters[0]
        assert survivor.post.mu[0] == pytest.approx(0.0, abs=1e-15)
        assert survivor.post.c == pytest.approx(8.0)
        assert survivor.post.delta == pytest.approx(4.5)  # 2.0 + 2.5
        assert survivor.m == 10 and survivor.w == pytest.approx(10.0)
        np.testing.assert_allclose(survivor.post.sigma, 0.5 * sig_a + 0.5 * sig_b)

    def test_greedy_closest_pair_only(self):
        """Three clusters, distances [0.01, 0.02, 0.30]: one merge."""
        book = self._book([0.0, 0.1, 0.2], [4.0, 4.0, 4.0], [5, 5, 5],
                          [5.0, 5.0, 5.0], n=100)
        acc = {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 30.0}  # /n gives the distances
        for key, val in acc.items():
            book.dist_acc[key] = val
            book.coact_acc[key] = 60.0
        conc = ConcentrationState(3, 1.0, 100)
        events = merge(book, conc, 0.05)
        assert events == [(1, 2)]
        assert book.k == 2 and conc.k == 2

    def test_quiet_pair_not_merged(self):
        """Near-zero distance without co-activity is not evidence."""
        book = self._book([0.0, 5.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=1000)
        book.dist_acc[(1, 2)] = 0.1
        book.coact_acc[(1, 2)] = 0.2  # both clusters mostly inactive
        events = merge(book, ConcentrationState(2, 1.0, 1000), 0.05)
        assert events == []

    def test_active_disagreeing_pair_not_merged(self):
        """Distance close to the co-activity marks distinct clusters."""
        book = self._book([0.0, 5.0], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist_acc[(1, 2)] = 0.4
        book.coact_acc[(1, 2)] = 0.45
        events = merge(book, ConcentrationState(2, 1.0, 10), 0.05)
        assert events == []

    def test_zero_threshold_is_noop(self):
        book = self._book([0.0, 0.1], [4.0, 4.0], [5, 5], [5.0, 5.0], n=10)
        book.dist_acc[(1, 2)] = 0.0
        book.coact_acc[(1, 2)] = 10.0
        assert merge(book, ConcentrationState(2, 1.0, 10), 0.0) == []

    def test_survivor_distance_tracking_restarts(self):
        book = self._book([0.0, 0.05, 3.0], [4.0, 4.0, 4.0], [5, 5, 5],
                          [5.0, 5.0, 5.0], n=10)
        book.dist_acc[(1, 2)] = 0.0
        book.coact_acc[(1, 2)] = 10.0
        book.dist_acc[(1, 3)] = 4.0
        book.coact_acc[(1, 3)] = 9.0
        book.dist_acc[(2, 3)] = 4.0
        book.coact_acc[(2, 3)] = 9.0
        merge(book, ConcentrationState(3, 1.0, 10), 0.05)
        assert book.dist_acc[(1, 3)] == 0.0 and book.coact_acc[(1, 3)] == 0.0


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
        for runner in (run, run_with_diagnostics):
            with pytest.raises(ValueError):
                runner(np.empty((0, 2)), EngineConfig(seed=0))

    def test_step_errors_cite_index(self):
        ys = np.array([[0.0, 0.0], [np.nan, 0.0]])
        for runner in (run, run_with_diagnostics):
            with pytest.raises(RuntimeError, match="step 2"):
                runner(ys, EngineConfig(seed=0))

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
        for a, b in zip(diag.clusters, plain.clusters):
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
            assert (a.c, a.delta, a.m, a.w) == (b.c, b.delta, b.m, b.w)

    def test_on_step_sees_every_step_before_final_maintenance(self):
        rng = np.random.default_rng(12)
        ys = np.vstack([rng.normal(size=(44, 2)) * 0.3, [[100.0, 100.0]]])
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.09),
                           prune_eps=0.45, maintenance_period=20)
        seen = []
        trace = run(ys, cfg, on_step=lambda i, book, conc: seen.append((i, book.n, book.k, conc.k)))
        assert [s[0] for s in seen] == list(range(1, 46))
        assert all(i == n and k == ck for i, n, k, ck in seen)
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
        assert trace.k == len(trace.clusters)
        assert trace.final_conc.alpha() > 0


class TestBookFromSummaries:
    def test_rebuilt_book_steps_and_merges(self):
        rng = np.random.default_rng(5)
        ys = np.concatenate([rng.normal(size=(60, 2)) * 0.3, rng.normal(size=(60, 2)) * 0.3 + 4.0])
        cfg = EngineConfig(seed=0, prior=PriorConfig.from_scale(2, 0.09)).resolve(2)
        trace = run(ys, cfg)
        book = book_from_summaries(trace.clusters, trace.n)
        assert [cl.cid for cl in book.clusters] == list(range(1, book.k + 1))
        assert [cl.m for cl in book.clusters] == [s.m for s in trace.clusters]
        assert [cl.w for cl in book.clusters] == [s.w for s in trace.clusters]
        assert len(book.dist_acc) == book.k * (book.k - 1) // 2
        conc = ConcentrationState(k=book.k, lam=cfg.lam, n=book.n)
        step(book, conc, ys[0], cfg, np.random.default_rng(0))
        assert book.n == trace.n + 1
        for key in book.dist_acc:
            book.dist_acc[key] = 0.0
            book.coact_acc[key] = float(book.n)
        assert merge(book, conc, 0.05)

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
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**kwargs).resolve(2)

    def test_prior_dimension_checked(self):
        with pytest.raises(ConfigError, match="dim"):
            EngineConfig(prior=PriorConfig.default(3)).resolve(2)
