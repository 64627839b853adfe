"""Golden corpus: label sequences, class-count series and checkpoint
(n, k) pairs of a few seeded runs, pinned as digests.

The digests were captured from the engine before its driving loop was
folded into one; the d = 32 and d = 1 cases were added, and captured,
before the cluster book became a struct of arrays with cached factors
(see CHANGES.md for the commits).  They gate later refactors of the
engine's internals: a change that alters any label of
these runs fails here.  Only integers are digested, so last-bit
floating-point differences between BLAS builds do not reach the
digests unless they flip a label.
"""

import hashlib
import json

import numpy as np
import pytest

from asugs.bench import variant_config
from asugs.data import generate_grid_mixture, sample_mixture
from asugs.diagnostics import run_with_diagnostics
from asugs.engine import EngineConfig, run
from asugs.mixture import GaussianMixture
from asugs.niw import PriorConfig

GRID = generate_grid_mixture(4, 0.025, 1.0)
GRID_PRIOR = PriorConfig.from_scale(2, 0.025)


def wide_mixture(d: int = 8, k: int = 4) -> GaussianMixture:
    means = np.random.Generator(np.random.PCG64(7)).normal(scale=5.0, size=(k, d))
    return GaussianMixture(
        weights=np.full(k, 1.0 / k), means=means, covariances=np.array([np.eye(d)] * k)
    )


def run_series(trace) -> dict[str, list]:
    return {"labels": [r.label for r in trace.records], "k": trace.k_series().tolist()}


def asugs_pm_grid(seed: int) -> dict[str, list]:
    rows = sample_mixture(GRID, 1500, seed=seed).rows
    return run_series(run(rows, EngineConfig(seed=seed, prior=GRID_PRIOR)))


def sugs_argmax_grid(seed: int) -> dict[str, list]:
    rows = sample_mixture(GRID, 800, seed=seed).rows
    cfg = variant_config(EngineConfig(seed=seed, prior=GRID_PRIOR), "SUGS")
    return run_series(run(rows, cfg))


def wide_no_maintenance(seed: int, d: int = 8, n: int = 600) -> dict[str, list]:
    rows = sample_mixture(wide_mixture(d), n, seed=seed).rows
    cfg = EngineConfig(seed=seed, prior=PriorConfig.from_scale(d, 1.0, 64),
                       prune_eps=0.0, merge_eps=0.0)
    return run_series(run(rows, cfg))


def line_asugs_pm(seed: int) -> dict[str, list]:
    line = GaussianMixture(
        weights=np.array([0.5, 0.3, 0.2]), means=np.array([[-2.0], [0.0], [3.0]]),
        covariances=np.array([[[0.2]], [[0.1]], [[0.3]]]),
    )
    rows = sample_mixture(line, 1000, seed=seed).rows
    return run_series(run(rows, EngineConfig(seed=seed, prior=PriorConfig.from_scale(1, 0.2))))


def diagnostics_checkpoints(seed: int) -> dict[str, list]:
    rows = sample_mixture(GRID, 1000, seed=seed).rows
    trace = run_with_diagnostics(rows, EngineConfig(seed=seed, prior=GRID_PRIOR),
                                 checkpoint_every=37)
    out = run_series(trace)
    out["checkpoints"] = [[cp.n, cp.k] for cp in trace.checkpoints]
    return out


CASES = {
    "asugs-pm-grid-s1": lambda: asugs_pm_grid(1),
    "asugs-pm-grid-s2": lambda: asugs_pm_grid(2),
    "sugs-argmax-grid-s3": lambda: sugs_argmax_grid(3),
    "wide-d8-no-maintenance-s4": lambda: wide_no_maintenance(4),
    "wide-d32-no-maintenance-s6": lambda: wide_no_maintenance(6, d=32, n=400),
    "line-d1-asugs-pm-s7": lambda: line_asugs_pm(7),
    "diagnostics-checkpoints-s5": lambda: diagnostics_checkpoints(5),
}

GOLDEN = {
    "asugs-pm-grid-s1": {"labels": "5499903ba3b683ed", "k": "6d3a45adc4880276"},
    "asugs-pm-grid-s2": {"labels": "7f43c303d03b9995", "k": "bb459b89e2e1fd00"},
    "diagnostics-checkpoints-s5": {
        "labels": "d21d9a153d1d0b84", "k": "422365c03b4a798a",
        "checkpoints": "0c7a6b44cda58c98",
    },
    "sugs-argmax-grid-s3": {"labels": "0b82bf8c3915e4fc", "k": "27ca00ec5832b242"},
    "wide-d8-no-maintenance-s4": {"labels": "f0d4b2ce32da73d3", "k": "4ded8724194a33c6"},
    "wide-d32-no-maintenance-s6": {"labels": "dea1f61326a26922", "k": "ffd36b821a4bb9ed"},
    "line-d1-asugs-pm-s7": {"labels": "f8c77dc6561dd8fd", "k": "bcc7cfd235eeff3a"},
}


def digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run(case):
    got = {name: digest(values) for name, values in CASES[case]().items()}
    assert got == GOLDEN[case]
