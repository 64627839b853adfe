"""Golden corpus: label sequences, class-count series and checkpoint
(n, k) pairs of a few seeded runs, pinned as digests.

The digests were captured from the engine before its driving loop was
folded into one (see CHANGES.md for the commit) and gate later
refactors of the engine's internals: a change that alters any label of
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


def wide_no_maintenance(seed: int) -> dict[str, list]:
    rows = sample_mixture(wide_mixture(), 600, seed=seed).rows
    cfg = EngineConfig(seed=seed, prior=PriorConfig.from_scale(8, 1.0, 64),
                       prune_eps=0.0, merge_eps=0.0)
    return run_series(run(rows, cfg))


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
}


def digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run(case):
    got = {name: digest(values) for name, values in CASES[case]().items()}
    assert got == GOLDEN[case]
