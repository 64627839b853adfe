"""Degenerate inputs under the default prior: duplicated rows, points on
a hyperplane, the smallest proper delta0 and extreme scales.

Each case pins the final class count and a digest of the label sequence,
in the style of the golden corpus (``tests/test_golden.py``).  The
values were captured from the engine that factorised every updated
cluster in full, before its cached factors followed the conjugate
update by a rank-one refresh; they gate that refresh and its fallback,
which must not change any of these outcomes.  Rows offset by 1e9 are
not a defined outcome yet: the first update swamps the prior's unit
covariance, and the run fails in its first step.
"""

import hashlib
import json

import numpy as np
import pytest

from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig


def digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def normal_rows(n: int, d: int, seed: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((n, d))


def on_hyperplane(n: int, d: int, seed: int) -> np.ndarray:
    """Rows whose last coordinate is a fixed combination of the others."""
    rows = normal_rows(n, d, seed)
    rows[:, -1] = rows[:, :-1] @ np.linspace(-1.0, 1.0, d - 1) + 0.5
    return rows


def outcome(rows: np.ndarray, seed: int, prior: PriorConfig | None = None) -> dict:
    trace = run(rows, EngineConfig(seed=seed, prior=prior))
    return {"k": trace.k, "labels": digest([r.label for r in trace.records])}


CASES = {
    "duplicates-d2": lambda: outcome(np.tile([[1.5, -0.5]], (300, 1)), 1),
    "hyperplane-d3": lambda: outcome(on_hyperplane(400, 3, 2), 2),
    "hyperplane-d32": lambda: outcome(on_hyperplane(300, 32, 3), 3),
    "min-delta0-d4": lambda: outcome(
        normal_rows(400, 4, 4), 4, PriorConfig(mu0=np.zeros(4), delta0=1.5 + 1e-6)
    ),
    "scale-1e8-d2": lambda: outcome(normal_rows(400, 2, 5) * 1e8, 5),
    "scale-1e-8-d2": lambda: outcome(normal_rows(400, 2, 6) * 1e-8, 6),
}

PINNED = {
    "duplicates-d2": {"k": 2, "labels": "b6f8474b082933a2"},
    "hyperplane-d3": {"k": 2, "labels": "53d5fc2f288d2976"},
    "hyperplane-d32": {"k": 1, "labels": "6e7601f602122027"},
    "min-delta0-d4": {"k": 1, "labels": "e9d53fa9080a1614"},
    "scale-1e-8-d2": {"k": 2, "labels": "603f8622d9410f6f"},
    "scale-1e8-d2": {"k": 1, "labels": "f3aea398c2da51ff"},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_outcome(case):
    assert CASES[case]() == PINNED[case]


def test_offset_1e9_fails_in_the_first_step():
    with pytest.raises(RuntimeError, match="step 1 failed"):
        run(normal_rows(50, 2, 7) + 1e9, EngineConfig(seed=7))
