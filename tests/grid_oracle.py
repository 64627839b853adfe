"""The tensor grid that the tests' row-built quadratures use as their
oracle: every point of the grid as one row, where the diagnostics build
each density in grid shape from per-axis offsets."""

import numpy as np


def tensor_grid(los, his, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid over the box [los, his], ``points`` per axis: one point
    per row, first axis slowest, and each point's quadrature weight (the
    product of the per-axis ``np.gradient`` spacings)."""
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(los, his)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    weights = np.ones(())
    for ax in axes:
        weights = np.multiply.outer(weights, np.gradient(ax))
    return grid, weights.ravel()
