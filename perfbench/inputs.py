"""Workload sizes and input generation.

Inputs are drawn here with numpy from the workload seed, not with the
package's own samplers, so that a change to the program never changes
what it is given.  The program receives only the files written here:
headerless CSV streams for ``read_csv`` and a truth-mixture JSON file
for ``read_truth``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRID_SIDE = 4
GRID_SIGMA2 = 0.025
WIDE_DIM = 64
WIDE_COMPONENTS = 8
WIDE_MEAN_SD = 8.0  # component means ~ N(0, 8^2 I); unit within-component variance

# Per workload: stream length, held-out rows and workload-specific knobs.
# "tiny" serves the self-check only.
SIZES = {
    "full": {
        "grid-fit": {"n": 3000, "n_test": 2000},
        "wide-fit": {"n": 1500, "n_test": 500},
        "compare": {"trials": 10, "n_train": 500, "n_test": 1000, "workers": 2},
        "diagnose": {"n": 2000, "n_test": 2000, "checkpoint_every": 100},
    },
    "tiny": {
        "grid-fit": {"n": 600, "n_test": 200},
        "wide-fit": {"n": 200, "n_test": 100},
        "compare": {"trials": 1, "n_train": 100, "n_test": 100, "workers": 2},
        "diagnose": {"n": 200, "n_test": 200, "checkpoint_every": 100},
    },
}
WORKLOADS = tuple(SIZES["full"])

TRAIN, TEST, MEANS = 1, 2, 3  # independent random streams per seed


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def grid_means() -> np.ndarray:
    coords = np.arange(GRID_SIDE) - (GRID_SIDE - 1) / 2.0
    return np.array([(x, y) for x in coords for y in coords])


def _draw(rng: np.random.Generator, means: np.ndarray, sd: float, n: int) -> np.ndarray:
    labels = rng.integers(len(means), size=n)
    return means[labels] + sd * rng.standard_normal((n, means.shape[1]))


def _write_csv(path: Path, rows: np.ndarray) -> None:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")


def _write_grid_truth(path: Path) -> None:
    means = grid_means()
    k = len(means)
    payload = {
        "weights": [1.0 / k] * k,
        "means": means.tolist(),
        "covariances": [(GRID_SIGMA2 * np.eye(2)).tolist()] * k,
    }
    path.write_text(json.dumps(payload) + "\n")


def make_inputs(workload: str, seed: int, size: dict, outdir: Path) -> dict:
    """Write the workload's input files into outdir; return their paths."""
    paths = {}
    if workload == "wide-fit":
        means = WIDE_MEAN_SD * _rng(seed, MEANS).standard_normal((WIDE_COMPONENTS, WIDE_DIM))
        sd = 1.0
    else:
        means, sd = grid_means(), np.sqrt(GRID_SIGMA2)
    if workload != "compare":
        for name, stream, n in (("train", TRAIN, size["n"]), ("test", TEST, size["n_test"])):
            paths[name] = str(outdir / f"{name}.csv")
            _write_csv(Path(paths[name]), _draw(_rng(seed, stream), means, sd, n))
    if workload in ("compare", "diagnose"):
        paths["truth"] = str(outdir / "truth.json")
        _write_grid_truth(Path(paths["truth"]))
    return paths
