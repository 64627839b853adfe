"""Label-for-label agreement of the engine with an independent
straight-line reference: in the fixed-concentration greedy mode and in
the adaptive sampled mode, without and with prune and merge.

The reference below re-implements the two-step loop (label selection,
then the conjugate update), the pairwise responsibility histories and
the maintenance in plain Python with explicit 2x2 matrix algebra and its
own density formula; it shares no code with the package, and writes the
merge rule's constants as the engine's docstrings state them.  Only the
sampled mode's uniforms come from numpy, from ``PCG64(seed)``, which is
where the engine draws them.
"""

import math

import numpy as np
import pytest

from asugs.bench import VARIANTS, variant_config
from asugs.data import generate_grid_mixture, sample_mixture
from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig


def ref_sugs_labels(ys, alpha, mu0, c0, delta0, s0_diag):
    """Greedy fixed-alpha clustering of 2D rows; returns 1-based labels."""
    return ref_run(ys, lambda k, n: alpha, argmax, mu0, c0, delta0, s0_diag)[0]


def argmax(scores, q):
    """The 0-based index of the first largest score."""
    best = 0
    for j in range(1, len(scores)):
        if scores[j] > scores[best]:
            best = j
    return best


def sampler(seed):
    """From step 2 on, one uniform u per step from ``PCG64(seed)``, the label
    being the number of running-sum entries of q at or below u, plus 1, at
    most k + 1; returned as a select function of ``ref_run``."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def sample(scores, q):
        u = rng.random()
        running, below = 0.0, 0
        for q_j in q:
            running += q_j
            below += running <= u
        return min(below, len(q) - 1)

    return sample


def ref_asugs_labels(ys, lam, seed, mu0, c0, delta0, s0_diag):
    """Adaptive clustering of 2D rows without prune or merge: alpha =
    k / (lam + log n) and sampled labels (``sampler``).  Returns the 1-based
    labels and k after each step."""
    return ref_run(ys, lambda k, n: k / (lam + math.log(n)), sampler(seed),
                   mu0, c0, delta0, s0_diag)


def ref_run(ys, alpha, select, mu0, c0, delta0, s0_diag, prune_eps=0.0, merge_eps=0.0,
            period=50):
    """Sequential clustering of 2D rows.  At step i > 1, with k clusters,
    alpha(k, i - 1) is the concentration and select(scores, q) the 0-based
    label, scores being each cluster's log prior weight plus log predictive
    density, then the new cluster's, and q their normalised weights.
    Returns the 1-based labels and k after each step (after the step's
    maintenance, if any).

    State per cluster: [mux, muy, c, delta, sxx, sxy, syy, count, w].  Each
    step adds q_h to w of cluster h, and |q_i - q_j| and q_i + q_j to
    dist[i][j] and coact[i][j] for i < j, over the clusters after the
    step; a new cluster's slot counts only if the step opened it, and step
    1 has q = [1].  Every ``period`` steps, and after the last step if it
    was not such a step, prune then merge:

    - prune (if prune_eps > 0 and k > 1): drop every cluster whose w over
      the sum of all w, taken before any is dropped, is below prune_eps; if
      that drops all, keep the first of largest w;
    - merge (if merge_eps > 0 and k > 1): a pair i < j qualifies if
      dist/n < merge_eps, coact >= 1.0 and dist < 0.65 coact, n being the
      steps so far; in ascending dist/n (then i, then j), fuse each pair
      whose clusters have not fused in this sweep.  Cluster i survives with
      the c-weighted mean of the two mu and of the two sigma, and the sums
      of c, delta, count and w; its pair entries restart at 0 and j goes.
    """
    clusters = []
    dist, coact = [], []  # k x k, read above the diagonal
    labels = []
    ks = []

    def log_density(mux, muy, c, delta, sxx, sxy, syy, yx, yy):
        r = c / (1.0 + c)
        det = sxx * syy - sxy * sxy
        dx, dy = yx - mux, yy - muy
        # quadratic form via the explicit 2x2 inverse
        quad = (syy * dx * dx - 2.0 * sxy * dx * dy + sxx * dy * dy) / det
        scale = r / (2.0 * delta)
        return (
            -math.log(math.pi)
            + math.log(scale)
            + math.lgamma(delta + 0.5)
            - math.lgamma(delta - 0.5)
            - 0.5 * math.log(det)
            - (delta + 0.5) * math.log(1.0 + scale * quad)
        )

    def drop(keep):
        clusters[:] = [st for st, kept in zip(clusters, keep) if kept]
        for pairs in (dist, coact):
            pairs[:] = [[v for v, kept in zip(row, keep) if kept]
                        for row, kept_row in zip(pairs, keep) if kept_row]

    def prune():
        total = sum(st[8] for st in clusters)
        if prune_eps <= 0.0 or len(clusters) <= 1 or total <= 0.0:
            return
        rel = [st[8] / total for st in clusters]
        keep = [r >= prune_eps for r in rel]
        if not any(keep):
            keep[rel.index(max(rel))] = True
        drop(keep)

    def merge(n):
        k = len(clusters)
        if merge_eps <= 0.0 or k <= 1:
            return
        candidates = sorted(
            (dist[i][j] / n, i, j) for i in range(k) for j in range(i + 1, k)
            if dist[i][j] / n < merge_eps and coact[i][j] >= 1.0
            and dist[i][j] < 0.65 * coact[i][j])
        fused, keep = set(), [True] * k
        for _, i, j in candidates:
            if i in fused or j in fused:
                continue
            fused.update((i, j))
            survivor, gone = clusters[i], clusters[j]
            a = survivor[2] / (survivor[2] + gone[2])
            for f in (0, 1, 4, 5, 6):  # mu and sigma
                survivor[f] = a * survivor[f] + (1.0 - a) * gone[f]
            for f in (2, 3, 7, 8):  # c, delta, count, w
                survivor[f] += gone[f]
            for h in range(k):
                dist[i][h] = dist[h][i] = coact[i][h] = coact[h][i] = 0.0
            keep[j] = False
        drop(keep)

    for i, (yx, yy) in enumerate(ys, start=1):
        k = len(clusters)
        if i == 1:
            labels.append(1)
            q = [1.0]
        else:
            n_seen = i - 1
            a = alpha(k, n_seen)
            scores = []
            for mux, muy, c, delta, sxx, sxy, syy, cnt, _ in clusters:
                scores.append(
                    math.log(cnt / (n_seen + a))
                    + log_density(mux, muy, c, delta, sxx, sxy, syy, yx, yy)
                )
            scores.append(
                math.log(a / (n_seen + a))
                + log_density(mu0[0], mu0[1], c0, delta0,
                              s0_diag, 0.0, s0_diag, yx, yy)
            )
            top = max(scores)
            weights = [math.exp(s - top) for s in scores]
            total = sum(weights)
            q = [w / total for w in weights]
            labels.append(select(scores, q) + 1)

        label = labels[-1]
        if label == k + 1:
            clusters.append([mu0[0], mu0[1], c0, delta0, s0_diag, 0.0, s0_diag, 0, 0.0])
            for row in dist + coact:
                row.append(0.0)
            dist.append([0.0] * (k + 1))
            coact.append([0.0] * (k + 1))
        st = clusters[label - 1]
        mux, muy, c, delta, sxx, sxy, syy, cnt, _ = st
        dx, dy = yx - mux, yy - muy
        w_old = 2.0 * delta / (1.0 + 2.0 * delta)
        w_new = (1.0 / (1.0 + 2.0 * delta)) * (c / (1.0 + c))
        st[0] = (yx + c * mux) / (1.0 + c)
        st[1] = (yy + c * muy) / (1.0 + c)
        st[2] = c + 1.0
        st[3] = delta + 0.5
        st[4] = w_old * sxx + w_new * dx * dx
        st[5] = w_old * sxy + w_new * dx * dy
        st[6] = w_old * syy + w_new * dy * dy
        st[7] = cnt + 1

        live = q[:len(clusters)]  # an unused innovation slot is dropped
        for h, q_h in enumerate(live):
            clusters[h][8] += q_h
            for j in range(h + 1, len(live)):
                dist[h][j] += abs(q_h - live[j])
                coact[h][j] += q_h + live[j]
        if i % period == 0 or i == len(ys):
            prune()
            merge(i)
        ks.append(len(clusters))
    return labels, ks


@pytest.mark.parametrize("seed", range(10))
def test_fixed_alpha_argmax_matches_reference(seed):
    """Exact label agreement on 100-sample streams for ten seeds."""
    mix = generate_grid_mixture(3, 0.05, 1.0)
    data = sample_mixture(mix, 100, seed=seed)
    prior = PriorConfig.from_scale(2, 0.05, pseudo_obs=16.0, c0=0.5)
    cfg = EngineConfig(seed=seed, fixed_alpha=1.0, selection="argmax",
                       prune_eps=0.0, merge_eps=0.0, prior=prior)
    trace = run(data.rows, cfg)
    engine_labels = [r.label for r in trace.records]
    ref_labels = ref_sugs_labels(
        [tuple(row) for row in data.rows], alpha=1.0,
        mu0=(0.0, 0.0), c0=0.5, delta0=8.0, s0_diag=0.05,
    )
    assert engine_labels == ref_labels


def test_reference_disagrees_with_adaptive_mode():
    """Sanity: the reference is specific to the fixed-alpha greedy mode."""
    mix = generate_grid_mixture(3, 0.05, 1.0)
    data = sample_mixture(mix, 100, seed=0)
    prior = PriorConfig.from_scale(2, 0.05, pseudo_obs=16.0, c0=0.5)
    cfg = EngineConfig(seed=0, prune_eps=0.0, merge_eps=0.0, prior=prior)
    trace = run(data.rows, cfg)
    ref_labels = ref_sugs_labels(
        [tuple(row) for row in data.rows], alpha=1.0,
        mu0=(0.0, 0.0), c0=0.5, delta0=8.0, s0_diag=0.05,
    )
    assert [r.label for r in trace.records] != ref_labels


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adaptive_sampled_matches_reference(seed):
    """Exact label agreement and the same k after every step on 2000 rows
    of the 4x4 grid.  The two sides round differently, so a label can only
    flip where a uniform falls within a few ulps of a running-sum boundary;
    a mismatch is reported with its step."""
    data = sample_mixture(generate_grid_mixture(4, 0.025, 1.0), 2000, seed=seed)
    cfg = EngineConfig(seed=seed, prune_eps=0.0, merge_eps=0.0,
                       prior=PriorConfig.from_scale(2, 0.025))
    trace = run(data.rows, cfg)
    expected, expected_ks = ref_asugs_labels(
        [tuple(row) for row in data.rows], lam=cfg.lam, seed=seed,
        mu0=(0.0, 0.0), c0=0.01, delta0=32.0, s0_diag=0.025,
    )
    engine_labels = [r.label for r in trace.records]
    steps = [i for i, (a, b) in enumerate(zip(engine_labels, expected), start=1) if a != b]
    assert not steps, f"first label mismatch at step {steps[0]}"
    assert trace.k_series().tolist() == expected_ks


def assert_variant_matches_reference(variant, seed, n, var, c0=0.01):
    """The engine's run of a ``bench`` variant on n rows of the 4x4 grid
    under ``from_scale(2, var, c0=c0)`` against ``ref_run``: the same labels
    and the same k after every step.  A mismatch is reported with its step."""
    data = sample_mixture(generate_grid_mixture(4, 0.025, 1.0), n, seed=seed)
    base = EngineConfig(seed=seed, prior=PriorConfig.from_scale(2, var, c0=c0))
    cfg = variant_config(base, variant).resolve(2)
    trace = run(data.rows, cfg)
    if cfg.fixed_alpha is None:
        alpha, select = (lambda k, n_seen: k / (cfg.lam + math.log(n_seen))), sampler(seed)
    else:
        alpha, select = (lambda k, n_seen: cfg.fixed_alpha), argmax
    expected, expected_ks = ref_run(
        [tuple(row) for row in data.rows], alpha, select, mu0=(0.0, 0.0), c0=c0,
        delta0=32.0, s0_diag=var, prune_eps=cfg.prune_eps, merge_eps=cfg.merge_eps,
        period=cfg.maintenance_period)
    got = [r.label for r in trace.records]
    steps = [i for i, (a, b) in enumerate(zip(got, expected), start=1) if a != b]
    assert not steps, f"{variant} seed {seed}: first label mismatch at step {steps[0]}"
    ks = trace.k_series().tolist()
    steps = [i for i, (a, b) in enumerate(zip(ks, expected_ks), start=1) if a != b]
    assert not steps, f"{variant} seed {seed}: first k_after mismatch at step {steps[0]}"
    return expected_ks


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "ASUGS"])
def test_variant_matches_reference(variant, seed):
    """The other three variants on the rows and prior of
    ``test_adaptive_sampled_matches_reference``, which is ASUGS's case:
    SUGS, and the two that prune and merge every 50 steps and at the end
    of the stream.  Under this prior SUGS-PM never prunes or merges."""
    assert_variant_matches_reference(variant, seed, 2000, 0.025)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", ["ASUGS-PM", "SUGS-PM"])
def test_maintained_variant_matches_reference_under_a_tight_prior(variant, seed):
    """A prior five times tighter than the clusters opens many clusters
    that prune and merge then remove: on these seeds ASUGS-PM prunes 99-107
    clusters and SUGS-PM 37-38, and each merges 1-5 pairs.  The 2010 rows
    end between two ticks, so the end-of-stream maintenance runs as well
    (here it removes nothing)."""
    ks = assert_variant_matches_reference(variant, seed, 2010, 0.005)
    assert max(ks) > ks[-1]


def test_merge_under_a_prior_with_c0_far_from_zero_matches_reference(monkeypatch):
    """A merge's survivor takes the c-weighted mean of the two states.  At
    ``from_scale``'s default c0 = 0.01, c is the count m within 1%; at
    c0 = 1 it is m + 1 per cluster.  ASUGS-PM on seed 4 merges a pair at
    step 50 here, and a survivor weighted by m would take other labels
    from step 67 on."""
    import asugs.engine as engine_mod

    merged, real_merge = [], engine_mod.merge

    def merge(book, eps_d):
        events = real_merge(book, eps_d)
        merged.extend(events)
        return events

    monkeypatch.setattr(engine_mod, "merge", merge)
    assert_variant_matches_reference("ASUGS-PM", 4, 250, 0.1, c0=1.0)
    assert merged


def test_end_of_stream_maintenance_matches_reference():
    """93 rows end between two ticks, and ASUGS-PM on seed 1 prunes or
    merges at the end of the stream: k falls from 19 to 16 at the last
    step, which can only have added a cluster before its maintenance."""
    ks = assert_variant_matches_reference("ASUGS-PM", 1, 93, 0.025)
    assert ks[-1] < ks[-2]
