"""Recovering a 16-component Gaussian grid from a single data pass.

Generates 500 points from a 4x4 grid of well-separated Gaussians,
streams them through the adaptive clusterer with prune/merge enabled,
and reports how the class count evolves and where the fitted clusters
land.  Writes grid_clustering.png when matplotlib is available.

Run:  python demos/grid_clustering.py
"""

import numpy as np

from asugs.data import generate_grid_mixture, sample_mixture
from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig

truth = generate_grid_mixture(side=4, sigma2=0.025, spacing=1.0)
train = sample_mixture(truth, 500, seed=7)

# the prior tells the model what a typical cluster's variance is;
# see README for why this matters so much in a single pass
config = EngineConfig(seed=7, prior=PriorConfig.from_scale(2, 0.025))
trace = run(train.rows, config)

print(f"streamed {trace.n} points, final class count k = {trace.k}")
innovations = [r.index for r in trace.records if r.innovation]
print(f"classes were created at steps {innovations}")

checkpoints = [10, 25, 50, 100, 200, 350, 500]
ks = trace.k_series()
print("class count along the stream:")
for c in checkpoints:
    print(f"  after {c:4d} points: k = {ks[c - 1]}")

book = trace.final_book
print("\nfitted clusters (count, location, per-axis standard deviations):")
for h in np.argsort(-book.m, kind="stable"):
    sds = np.sqrt(np.diag(book.sigma[h]))
    print(f"  m={book.m[h]:3d}  mu=({book.mu[h, 0]:+.2f}, {book.mu[h, 1]:+.2f})"
          f"  sd=({sds[0]:.3f}, {sds[1]:.3f})")

matched = sum(min(np.linalg.norm(book.mu - tm, axis=1)) < 0.3 for tm in truth.means)
print(f"\ntrue components with a fitted cluster within 0.3: {matched}/16")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 6))
    ax.scatter(train.rows[:, 0], train.rows[:, 1], s=8, c="lightgray",
               label="stream")
    ax.scatter(book.mu[:, 0], book.mu[:, 1], s=120, marker="x", c="crimson",
               label="fitted cluster locations")
    ax.scatter(truth.means[:, 0], truth.means[:, 1], s=60, marker="o",
               facecolors="none", edgecolors="navy", label="true means")
    ax.legend()
    ax.set_title(f"single-pass clustering, final k = {trace.k}")
    fig.savefig("grid_clustering.png", dpi=120, bbox_inches="tight")
    print("wrote grid_clustering.png")
except ImportError:
    pass
