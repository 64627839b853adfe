"""Label-for-label agreement of the engine with an independent
straight-line reference, in the fixed-concentration greedy mode and in
the adaptive sampled mode without prune or merge.

The reference below re-implements the two-step loop (label selection,
then the conjugate update) in plain Python with explicit 2x2 matrix
algebra and its own density formula; it shares no code with the
package.  Only the sampled mode's uniforms come from numpy, from
``PCG64(seed)``, which is where the engine draws them.
"""

import math

import numpy as np
import pytest

from asugs.data import generate_grid_mixture, sample_mixture
from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig


def ref_sugs_labels(ys, alpha, mu0, c0, delta0, s0_diag):
    """Greedy fixed-alpha clustering of 2D rows; returns 1-based labels."""

    def argmax(scores):
        best = 0
        for j in range(1, len(scores)):
            if scores[j] > scores[best]:
                best = j
        return best

    return ref_run(ys, lambda k, n: alpha, argmax, mu0, c0, delta0, s0_diag)[0]


def ref_asugs_labels(ys, lam, seed, mu0, c0, delta0, s0_diag):
    """Adaptive clustering of 2D rows without prune or merge: alpha =
    k / (lam + log n), and from step 2 on one uniform u per step, the label
    being the number of running-sum entries of q at or below u, plus 1, at
    most k + 1.  Returns the 1-based labels and k after each step."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def sample(scores):
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        u = rng.random()
        running, below = 0.0, 0
        for w in weights:
            running += w / total
            below += running <= u
        return min(below, len(scores) - 1)

    return ref_run(ys, lambda k, n: k / (lam + math.log(n)), sample,
                   mu0, c0, delta0, s0_diag)


def ref_run(ys, alpha, select, mu0, c0, delta0, s0_diag):
    """Sequential clustering of 2D rows.  At step i > 1, with k clusters,
    alpha(k, i - 1) is the concentration and select(scores) the 0-based
    label, scores being each cluster's log prior weight plus log predictive
    density, then the new cluster's.  Returns the 1-based labels and k
    after each step.

    State per cluster: [mux, muy, c, delta, sxx, sxy, syy, count].
    """
    clusters = []
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

    for i, (yx, yy) in enumerate(ys, start=1):
        if i == 1:
            labels.append(1)
        else:
            n_seen = i - 1
            a = alpha(len(clusters), n_seen)
            scores = []
            for mux, muy, c, delta, sxx, sxy, syy, cnt in clusters:
                scores.append(
                    math.log(cnt / (n_seen + a))
                    + log_density(mux, muy, c, delta, sxx, sxy, syy, yx, yy)
                )
            scores.append(
                math.log(a / (n_seen + a))
                + log_density(mu0[0], mu0[1], c0, delta0,
                              s0_diag, 0.0, s0_diag, yx, yy)
            )
            labels.append(select(scores) + 1)

        label = labels[-1]
        if label == len(clusters) + 1:
            clusters.append([mu0[0], mu0[1], c0, delta0, s0_diag, 0.0, s0_diag, 0])
        st = clusters[label - 1]
        mux, muy, c, delta, sxx, sxy, syy, cnt = st
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
