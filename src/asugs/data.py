"""Dataset generation, CSV ingestion and trace persistence.

CSV files are headerless comma-separated decimals, one observation per
row, uniform arity, finite values only.  Traces are JSON lines: one
``config`` record, one record per step, optional ``checkpoint`` records,
one ``cluster`` record per final cluster and a closing ``final`` record.
Floats serialize via ``repr`` (shortest round-trip), so write/read is
lossless and byte-identical for identical runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from asugs.engine import (
    Checkpoint,
    ClusterBook,
    EngineConfig,
    RunTrace,
    StepRecord,
)
from asugs.mixture import GaussianMixture
from asugs.niw import NiwPosterior, PriorConfig, check_state


class DataError(ValueError):
    """Malformed input data; message carries the offending row number."""


@dataclass
class Dataset:
    """Ordered observations, optionally labeled (for generated data)."""

    rows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def generate_grid_mixture(
    side: int, sigma2: float = 0.025, spacing: float = 1.0
) -> GaussianMixture:
    """Equally weighted isotropic 2D Gaussians on a centered square grid.

    side=4 gives the 16-component benchmark layout.  Component order is
    row-major over the grid.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    coords = (np.arange(side) - (side - 1) / 2.0) * spacing
    means = np.array([(x, y) for x in coords for y in coords])
    k = side * side
    return GaussianMixture(
        weights=np.full(k, 1.0 / k),
        means=means,
        covariances=np.array([sigma2 * np.eye(2)] * k),
    )


def sample_mixture(mix: GaussianMixture, n: int, seed: int) -> Dataset:
    """n iid labeled draws, deterministic per seed (PCG64)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, labels = mix.sample(n, rng)
    return Dataset(rows=rows, labels=labels)


def heldout_loglik(book, test: Dataset) -> tuple[float, float]:
    """Total and per-sample mean log density of a test set under the
    fitted predictive mixture (existing clusters only)."""
    from asugs.diagnostics import log_mixture_predictive_rows

    if test.n == 0:
        raise ValueError("test set is empty")
    if book.k and test.dim != book.mu.shape[1]:
        raise DataError(f"test set has dim {test.dim}, fitted clusters have dim {book.mu.shape[1]}")
    logs = log_mixture_predictive_rows(book, test.rows)
    total = float(logs.sum())
    return total, total / test.n


def read_csv(path) -> Dataset:
    """Parse a headerless CSV of decimal rows; reject ragged or non-finite data."""
    rows = []
    arity = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if arity is None:
                arity = len(cells)
            elif len(cells) != arity:
                raise DataError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {arity}"
                )
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}: row {lineno} contains a non-finite value")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(rows=np.array(rows))


def write_csv(path, dataset: Dataset) -> None:
    with open(path, "w") as fh:
        for row in dataset.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# truth-mixture description files

def write_truth(path, mix: GaussianMixture, generator_args: dict | None = None) -> None:
    payload = {
        "weights": [float(w) for w in mix.weights],
        "means": [[float(v) for v in m] for m in mix.means],
        "covariances": [[[float(v) for v in row] for row in cov] for cov in mix.covariances],
        "generator": generator_args or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_truth(path) -> GaussianMixture:
    """Load a mixture written by ``write_truth``; a malformed file raises
    DataError naming the path and the problem."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a JSON document: {exc}") from exc
    fields = ("weights", "means", "covariances")
    if not isinstance(payload, dict) or any(f not in payload for f in fields):
        raise DataError(f"{path}: expected a JSON object with fields {', '.join(fields)}")
    try:
        mix = GaussianMixture(*(np.array(payload[f], dtype=float) for f in fields))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    k, d = mix.means.shape
    if mix.weights.shape != (k,) or mix.covariances.shape != (k, d, d):
        raise DataError(
            f"{path}: weights {mix.weights.shape}, means {mix.means.shape} and "
            f"covariances {mix.covariances.shape} do not describe one mixture"
        )
    return mix


# ---------------------------------------------------------------------------
# trace persistence

# The keys of each record kind besides "kind"; writer and reader share them.
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(EngineConfig))
_PRIOR_KEYS = ("mu0", "c0", "delta0", "sigma0")
_STEP_KEYS = ("i", "label", "q", "alpha", "k", "innovation")  # StepRecord's fields, in order
_CLUSTER_KEYS = ("mu", "sigma", "c", "delta", "m", "w")
_RECORD_KEYS = {
    "config": frozenset(_CONFIG_KEYS),
    "step": frozenset(_STEP_KEYS),
    "checkpoint": frozenset(f.name for f in dataclasses.fields(Checkpoint)),
    "cluster": frozenset(_CLUSTER_KEYS),
    "final": frozenset(("n", "k")),
}


# Each scalar's JSON type, checked with type(): a JSON true is a bool, not an int.
_NUMBER = (int, float)
_STEP_TYPES = {"i": (int,), "label": (int,), "alpha": _NUMBER, "k": (int,), "innovation": (bool,)}
_PRIOR_TYPES = {"c0": _NUMBER, "delta0": _NUMBER}
_STATE_TYPES = {"c": _NUMBER, "delta": _NUMBER}
_FINAL_TYPES = {"n": (int,), "k": (int,)}


def _typed(rec: dict, types: dict) -> None:
    """Raise ``ValueError`` naming the first key of ``types`` whose value has
    another JSON type."""
    for key, allowed in types.items():
        if type(rec[key]) not in allowed:
            names = " or ".join(t.__name__ for t in allowed)
            raise ValueError(f"{key} must be {names}, got {rec[key]!r}")


def _numbers(value, key: str) -> np.ndarray:
    """A JSON list of numbers, or of such lists, as a float array; anything
    else raises ``ValueError`` naming key."""
    try:
        arr = np.array(value) if type(value) is list else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "fi":
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return arr.astype(float, copy=False)


def _dumps(obj: dict) -> str:
    # numpy arrays and scalars other than float64 serialise through tolist()
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=lambda v: v.tolist())


def _has_keys(rec, keys: frozenset) -> None:
    if not isinstance(rec, dict) or rec.keys() != keys:
        got = sorted(rec) if isinstance(rec, dict) else f"a JSON {type(rec).__name__}"
        raise ValueError(f"expected keys {sorted(keys)}, got {got}")


def _config_to_dict(config: EngineConfig) -> dict:
    """The fields of a config record, as JSON values."""
    rec = {key: getattr(config, key) for key in _CONFIG_KEYS}
    if config.prior is not None:
        rec["prior"] = {key: np.asarray(getattr(config.prior, key)).tolist() for key in _PRIOR_KEYS}
    return rec


def write_trace(path, trace: RunTrace) -> None:
    book = trace.final_book
    with open(path, "w") as fh:
        fh.write(_dumps({"kind": "config", **_config_to_dict(trace.config)}) + "\n")
        for r in trace.records:
            fh.write(_dumps({"kind": "step", **dict(zip(_STEP_KEYS, vars(r).values()))}) + "\n")
        for cp in trace.checkpoints:
            fh.write(_dumps({"kind": "checkpoint", **asdict(cp)}) + "\n")
        for values in zip(*(getattr(book, key) for key in _CLUSTER_KEYS)):
            fh.write(_dumps({"kind": "cluster", **dict(zip(_CLUSTER_KEYS, values))}) + "\n")
        fh.write(_dumps({"kind": "final", "n": book.n, "k": book.k}) + "\n")


def read_trace(path) -> RunTrace:
    """Load a trace written by ``write_trace``.  Its final book is rebuilt
    with ``ClusterBook.add``, so cids run 1..k and pair histories start at
    zero.  Every value has the JSON type the writer gives it: an integer, a
    number, true/false or a list of numbers (no strings for numbers, no
    true for 1).  A cluster record's state passes ``check_state`` as the
    prior's does, its m is a nonnegative integer and its w finite and
    nonnegative.  A malformed trace raises DataError naming the path, the
    row and, for an invalid value, its key."""
    config = final = None
    records: list[StepRecord] = []
    checkpoints: list[Checkpoint] = []
    book = ClusterBook()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}: row {lineno}: expected a JSON object")
            kind = rec.pop("kind", None)
            if not isinstance(kind, str) or kind not in _RECORD_KEYS:
                raise DataError(f"{path}: row {lineno}: unknown record kind {kind!r}")
            try:
                _has_keys(rec, _RECORD_KEYS[kind])
                if kind == "config":
                    if rec["prior"] is not None:
                        prior = rec["prior"]
                        _has_keys(prior, frozenset(_PRIOR_KEYS))
                        _typed(prior, _PRIOR_TYPES)
                        prior["mu0"], prior["sigma0"] = (
                            _numbers(prior[key], key) for key in ("mu0", "sigma0"))
                        rec["prior"] = PriorConfig(**prior)
                    config = EngineConfig(**rec)
                elif kind == "step":
                    _typed(rec, _STEP_TYPES)
                    q = _numbers(rec["q"], "q")
                    if q.ndim != 1:
                        raise ValueError(f"q must be a list of numbers, got {rec['q']!r}")
                    rec["q"] = q
                    records.append(StepRecord(*map(rec.get, _STEP_KEYS)))
                elif kind == "checkpoint":
                    checkpoints.append(Checkpoint(**rec))
                elif kind == "cluster":
                    m, w = rec["m"], rec["w"]
                    if not (type(m) is int and m >= 0):
                        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
                    if not (type(w) in _NUMBER and math.isfinite(w) and w >= 0):
                        raise ValueError(f"w must be finite and nonnegative, got {w!r}")
                    _typed(rec, _STATE_TYPES)
                    post = NiwPosterior(*check_state(
                        _numbers(rec["mu"], "mu"), rec["c"], rec["delta"],
                        _numbers(rec["sigma"], "sigma")))
                    book.add(post, m, w)  # LinAlgError if sigma does not factorise
                else:
                    _typed(rec, _FINAL_TYPES)
                    if rec["n"] < 0:
                        raise ValueError(f"n must be nonnegative, got {rec['n']}")
                    final, final_row = rec, lineno
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: row {lineno}: {kind} record: {exc}") from exc
    if config is None:
        raise DataError(f"{path}: missing config record")
    if final is None:
        raise DataError(f"{path}: no final record after row {lineno}")
    if final["k"] != book.k:
        raise DataError(
            f"{path}: row {final_row}: final record has k = {final['k']}, "
            f"but the trace has {book.k} cluster records"
        )
    book.n = final["n"]
    return RunTrace(config=config, records=records, final_book=book, checkpoints=checkpoints)
