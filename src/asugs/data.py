"""Dataset generation, CSV ingestion and trace persistence.

CSV files are headerless comma-separated decimals, one observation per
row, uniform arity, finite values only.  Traces are JSON lines: one
``config`` record, one record per step, optional ``checkpoint`` records,
one ``cluster`` record per final cluster and a closing ``final`` record.
Floats serialize via ``repr`` (shortest round-trip), so write/read is
lossless and byte-identical for identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from asugs.engine import (
    Checkpoint,
    ClusterSummary,
    EngineConfig,
    RunTrace,
    StepRecord,
)
from asugs.mixture import GaussianMixture
from asugs.niw import PriorConfig


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
    if book.k and test.dim != book.clusters[0].post.dim:
        raise DataError(
            f"test set has dim {test.dim}, fitted clusters have dim {book.clusters[0].post.dim}"
        )
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
            if not all(np.isfinite(v) for v in values):
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

def _config_to_dict(config: EngineConfig) -> dict:
    prior = config.prior
    return {
        "lam": config.lam,
        "selection": config.selection,
        "fixed_alpha": config.fixed_alpha,
        "prune_eps": config.prune_eps,
        "merge_eps": config.merge_eps,
        "maintenance_period": config.maintenance_period,
        "seed": config.seed,
        "prior": None
        if prior is None
        else {
            "mu0": [float(v) for v in prior.mu0],
            "c0": prior.c0,
            "delta0": prior.delta0,
            "sigma0": [[float(v) for v in row] for row in prior.sigma0],
        },
    }


def _config_from_dict(payload: dict) -> EngineConfig:
    prior = payload.get("prior")
    return EngineConfig(
        lam=payload["lam"],
        selection=payload["selection"],
        fixed_alpha=payload["fixed_alpha"],
        prune_eps=payload["prune_eps"],
        merge_eps=payload["merge_eps"],
        maintenance_period=payload["maintenance_period"],
        seed=payload["seed"],
        prior=None
        if prior is None
        else PriorConfig(
            mu0=np.array(prior["mu0"]),
            c0=prior["c0"],
            delta0=prior["delta0"],
            sigma0=np.array(prior["sigma0"]),
        ),
    )


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_trace(path, trace: RunTrace) -> None:
    with open(path, "w") as fh:
        fh.write(_dumps({"kind": "config", **_config_to_dict(trace.config)}) + "\n")
        for r in trace.records:
            fh.write(
                _dumps(
                    {
                        "kind": "step",
                        "i": r.index,
                        "label": r.label,
                        "q": [float(v) for v in r.q],
                        "alpha": r.alpha_used,
                        "k": r.k_after,
                        "innovation": r.innovation,
                    }
                )
                + "\n"
            )
        for cp in trace.checkpoints:
            fh.write(
                _dumps(
                    {
                        "kind": "checkpoint",
                        "n": cp.n,
                        "k": cp.k,
                        "alpha": cp.alpha,
                        "likelihood_ratio": cp.likelihood_ratio,
                        "l2_distance": cp.l2_distance,
                        "kl_estimate": cp.kl_estimate,
                        "kl_stderr": cp.kl_stderr,
                    }
                )
                + "\n"
            )
        for cl in trace.clusters:
            fh.write(
                _dumps(
                    {
                        "kind": "cluster",
                        "mu": [float(v) for v in cl.mu],
                        "sigma": [[float(v) for v in row] for row in cl.sigma],
                        "c": cl.c,
                        "delta": cl.delta,
                        "m": cl.m,
                        "w": cl.w,
                    }
                )
                + "\n"
            )
        fh.write(_dumps({"kind": "final", "n": trace.n, "k": trace.k}) + "\n")


def read_trace(path) -> RunTrace:
    config = None
    records: list[StepRecord] = []
    checkpoints: list[Checkpoint] = []
    clusters: list[ClusterSummary] = []
    n = k = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            kind = rec.get("kind")
            if kind == "config":
                config = _config_from_dict(rec)
            elif kind == "step":
                records.append(
                    StepRecord(
                        index=rec["i"],
                        label=rec["label"],
                        q=np.array(rec["q"]),
                        alpha_used=rec["alpha"],
                        k_after=rec["k"],
                        innovation=rec["innovation"],
                    )
                )
            elif kind == "checkpoint":
                checkpoints.append(
                    Checkpoint(
                        n=rec["n"],
                        k=rec["k"],
                        alpha=rec["alpha"],
                        likelihood_ratio=rec["likelihood_ratio"],
                        l2_distance=rec["l2_distance"],
                        kl_estimate=rec["kl_estimate"],
                        kl_stderr=rec["kl_stderr"],
                    )
                )
            elif kind == "cluster":
                clusters.append(
                    ClusterSummary(
                        mu=np.array(rec["mu"]),
                        sigma=np.array(rec["sigma"]),
                        c=rec["c"],
                        delta=rec["delta"],
                        m=rec["m"],
                        w=rec["w"],
                    )
                )
            elif kind == "final":
                n, k = rec["n"], rec["k"]
            else:
                raise DataError(f"{path}: row {lineno}: unknown record kind {kind!r}")
    if config is None:
        raise DataError(f"{path}: missing config record")
    return RunTrace(
        config=config, records=records, clusters=clusters, n=n, k=k,
        checkpoints=checkpoints,
    )
