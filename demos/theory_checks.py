"""Numeric checks of the asymptotics behind the adaptive design.

Four short experiments:
  1. the harmonic log-product ratio approaches 1, exactly 1 at alpha=1;
  2. the iterated-log product bound holds with positive slack;
  3. a cluster's predictive density converges to the Gaussian of the
     component generating its data;
  4. on a long benchmark run, the per-step likelihood ratio stays
     bounded and the class count grows slower than log^2 n.

Run:  python demos/theory_checks.py
"""

import math

import numpy as np

from asugs.data import generate_grid_mixture, sample_mixture
from asugs.diagnostics import (
    gaussian_limit_deviation,
    harmonic_log_product_ratio,
    loglog_product_bound,
    run_with_diagnostics,
    slope_with_stderr,
)
from asugs.engine import EngineConfig
from asugs.niw import PriorConfig, posterior_update

print("1. harmonic log-product ratio  (sum log(1 + a/j)) / (a log n)")
for alpha in (0.5, 1.0, 2.0):
    row = "  ".join(
        f"n=1e{e}: {harmonic_log_product_ratio(alpha, 10**e):.5f}"
        for e in (3, 4, 5, 6)
    )
    print(f"   alpha={alpha}:  {row}")

print("\n2. product bound  prod (1 + phi/(k log k)) <= C(phi,N) log^phi n")
for phi in (0.5, 2.0, 5.0):
    chk = loglog_product_bound(phi, 10, 100_000)
    print(f"   phi={phi}: holds={chk.holds}, min slack {chk.min_slack:.2e}")

print("\n3. predictive density -> generating Gaussian as a cluster grows")
mean, var = np.array([0.3, -0.2]), 0.025
chol = math.sqrt(var) * np.eye(2)
peak = 1.0 / (2 * math.pi * var)
rng = np.random.default_rng(0)
post = PriorConfig.default(2).state
drawn = 0
for n in (100, 1000, 10_000):
    while drawn < n:
        post = posterior_update(post, mean + chol @ rng.standard_normal(2))
        drawn += 1
    dev = gaussian_limit_deviation(post, mean, var * np.eye(2))
    print(f"   after {n:6d} draws: sup deviation = {dev:.4f}"
          f"  ({dev / peak:.2%} of the peak)")

print("\n4. long-run stability on the 16-component benchmark")
truth = generate_grid_mixture(4, 0.025, 1.0)
data = sample_mixture(truth, 10_000, seed=3)
trace = run_with_diagnostics(
    data.rows,
    EngineConfig(seed=3, prior=PriorConfig.from_scale(2, 0.025)),
    truth=truth, checkpoint_every=500,
)
print(f"   {'n':>6s} {'k':>3s} {'alpha':>6s} {'lik.ratio':>10s} "
      f"{'L2 dist':>8s} {'KL est':>8s}")
for cp in trace.checkpoints:
    lr = f"{cp.likelihood_ratio:10.3f}" if cp.likelihood_ratio else " " * 10
    print(f"   {cp.n:6d} {cp.k:3d} {cp.alpha:6.2f} {lr} "
          f"{cp.l2_distance:8.4f} {cp.kl_estimate:8.4f}")
tail = trace.checkpoints[len(trace.checkpoints) // 2:]
pts = [(c.n, c.likelihood_ratio) for c in tail if c.likelihood_ratio]
slope, se = slope_with_stderr([p[0] for p in pts], [p[1] for p in pts])
print(f"   likelihood-ratio slope over the last half: {slope:.2e} (se {se:.2e})")
ratios = [c.k / math.log(c.n) ** 2 for c in tail]
print(f"   k / log^2 n over the last half: "
      f"{' '.join(f'{r:.3f}' for r in ratios)}")
