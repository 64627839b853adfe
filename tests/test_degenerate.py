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

A state can outrun double precision on such streams.  Whatever the
stream, a run ends in one of two ways: a trace that reads back as it was
written, or a ``StepError``.
"""

import hashlib
import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asugs.data import read_trace, write_trace
from asugs.engine import EngineConfig, StepError, run
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


def degenerate_rows(kind: str, d: int, n: int, scale: float, offset: float,
                    seed: int) -> np.ndarray:
    """offset + scale * rows, the rows drawn from ``default_rng(seed)``:
    normal; normal with the second half a copy of the first; on a line
    through the origin whose direction's first coordinate is 1 (rank one);
    or varying in their first coordinate alone."""
    rng = np.random.default_rng(seed)
    if kind == "rank-one":
        z, w = rng.standard_normal(n), np.r_[1.0, rng.standard_normal(d - 1)]
        rows = np.outer(z, w)
    else:
        rows = rng.standard_normal((n, d))
        if kind == "half-duplicated":
            rows[n // 2:] = rows[:n - n // 2]
        elif kind == "one-coordinate":
            rows[:, 1:] = 0.0
    return offset + scale * rows


@pytest.mark.parametrize("rows, step, cause", [
    # 60 rows on a line at 1e8 in d = 8: the run used to return a final
    # sigma that does not factorise, and with seed 1 a refresh's fallback
    # to a factorisation fails
    (("rank-one", 8, 60, 1e-2, 1e8, 0), 60, "sigma of cluster cid 1 is not positive definite"),
    (("rank-one", 8, 60, 1e-2, 1e8, 1), 15, "Matrix is not positive definite"),
    # 8 rows on a line at scale 1e9: the run used to return a NaN q at step 5
    (("rank-one", 2, 8, 1e9, 1.0, 0), 5, "q is not finite"),
])
def test_state_beyond_double_precision_ends_in_a_step_error(rows, step, cause):
    """Streams under the default prior whose state outruns double
    precision: the run raises ``StepError`` at the step that fails, or at
    the first step whose q is not finite, or at its last step if the final
    book's sigma does not factorise."""
    with pytest.raises(StepError, match=cause) as info:
        run(degenerate_rows(*rows), EngineConfig())
    assert info.value.step == step


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["normal", "half-duplicated", "rank-one", "one-coordinate"]),
       d=st.sampled_from([1, 2, 3, 8]), n=st.integers(2, 120),
       scale_exp=st.integers(-12, 12), offset=st.sampled_from([0.0, 1.0, -1.0]).flatmap(
           lambda sign: st.integers(0, 12).map(lambda e: sign * 10.0**e)),
       scaled_prior=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(kind="rank-one", d=8, n=60, scale_exp=-2, offset=1e8, scaled_prior=False, seed=0)
@example(kind="rank-one", d=2, n=8, scale_exp=9, offset=1.0, scaled_prior=False, seed=0)
def test_a_run_reads_back_or_raises_step_error(kind, d, n, scale_exp, offset, scaled_prior,
                                               seed):
    """A run on a degenerate stream, under the default prior or a
    ``from_scale`` prior at the stream's scale, either raises ``StepError``
    or returns a trace that ``read_trace`` reads back to the bytes it was
    written as, and lets no ``RuntimeWarning`` escape either way."""
    scale = 10.0**scale_exp
    prior = PriorConfig.from_scale(d, scale**2) if scaled_prior else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = run(degenerate_rows(kind, d, n, scale, offset, seed),
                        EngineConfig(seed=seed, prior=prior))
    except StepError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(f"{tmp}/trace.jsonl", trace)
        with open(f"{tmp}/trace.jsonl", "rb") as fh:
            written = fh.read()
        write_trace(f"{tmp}/back.jsonl", read_trace(f"{tmp}/trace.jsonl"))
        with open(f"{tmp}/back.jsonl", "rb") as fh:
            assert fh.read() == written
