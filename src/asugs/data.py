"""Dataset generation, CSV ingestion and trace persistence.

CSV files are headerless comma-separated decimals, one observation per
row, uniform arity, finite values only.  Traces are JSON lines: one
``config`` record, one record per step, optional ``checkpoint`` records,
one ``cluster`` record per final cluster and a closing ``final`` record.
Floats serialize via ``repr`` (shortest round-trip), so write/read is
lossless and byte-identical for identical runs.

Each record kind is declared once (``_Kind``), and its declaration writes
and reads it.  Step records, one per observation, take two lean paths
that cost little more than their floats' ``repr`` and ``json.loads``: a
step's values, as the trace's step columns (``StepColumns``) give them a
chunk at a time, are formatted into a template of the step line, and a
line whose values have the types the writer gives is read without the
per-key readers and its values appended to the columns.  No record
object is made on either path.  Neither changes a byte or a refusal: a
value the template cannot write as JSON does, or a line the lean reader
does not take, goes through the declaration, which stays their oracle.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from asugs.engine import (
    Checkpoint,
    ClusterBook,
    EngineConfig,
    RunTrace,
    StepColumns,
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


HELDOUT_SEED_OFFSET = 40000  # the held-out rows of training seed s are drawn under s + this


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


def _holds_bool(value) -> bool:
    """Whether a JSON value is true or false, or holds one in its lists:
    numpy reads a list of a bool and a number as numbers."""
    return any(map(_holds_bool, value)) if type(value) is list else type(value) is bool


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
    for f in fields:
        if _holds_bool(payload[f]):
            raise DataError(f"{path}: {f} must be a list of numbers, got {payload[f]!r}")
    try:
        return GaussianMixture(*(np.array(payload[f], dtype=float) for f in fields))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# trace persistence

def _scalar(types: tuple, ok=None, need: str = ""):
    """A reader of a JSON scalar: its type() is one of types (a JSON true is
    a bool, not an int) and, given ok, ok(value) holds."""
    names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
    def read(value, key):
        if type(value) not in types:
            raise ValueError(f"{key} must be {names}, got {value!r}")
        if ok is not None and not ok(value):
            raise ValueError(f"{key} must be {need}, got {value!r}")
        return value
    return read


def _floats(ndim: int | None = None):
    """A reader of a JSON list of numbers, or of such lists, with ndim
    dimensions if given; it returns a float array."""
    def read(value, key):
        try:
            arr = np.array(value) if type(value) is list else None
        except ValueError:  # ragged nesting
            arr = None
        if (arr is None or arr.dtype.kind not in "fi" or ndim not in (None, arr.ndim)
                or _holds_bool(value)):
            raise ValueError(f"{key} must be a list of numbers, got {value!r}")
        return arr.astype(float, copy=False)
    return read


class _Kind:
    """One record kind.  Each keyword is a JSON key; its value is the reader
    of the attribute of that name, or (attribute, reader).  A reader checks
    the key's JSON value, names the key if it refuses it and returns the
    value converted.  ``write_trace`` and ``read_trace`` walk the fields."""

    def __init__(self, name: str, **fields):
        self.name, self.keys = name, fields.keys()  # ordered, and compared as a set
        self.fields = [(key, *(spec if type(spec) is tuple else (key, spec)))
                       for key, spec in fields.items()]
        self.values = operator.attrgetter(*(attr for _, attr, _ in self.fields))  # in key order

    def line(self, values) -> str:
        return _dumps({"kind": self.name, **dict(zip(self.keys, values))}) + "\n"

    def read(self, rec, within: str = "") -> dict:
        """A record's values keyed by attribute; ``within`` (" in prior") places a nested one."""
        if not isinstance(rec, dict) or rec.keys() != self.keys:
            got = sorted(rec) if isinstance(rec, dict) else repr(rec)
            raise ValueError(f"expected keys {sorted(self.keys)}{within}, got {got}")
        return {attr: read(rec[key], key) for key, attr, read in self.fields}


_int, _number = _scalar((int,)), _scalar((int, float))
_number_or_null = _scalar((int, float, type(None)))
_PRIOR = _Kind("prior", mu0=_floats(1), c0=_number, delta0=_number, sigma0=_floats())
_CONFIG = _Kind(  # the values' ranges are EngineConfig.resolve's
    "config", lam=_number, selection=_scalar((str,)), fixed_alpha=_number_or_null,
    prune_eps=_number, merge_eps=_number, maintenance_period=_int, seed=_int,
    prior=lambda value, key: PriorConfig(**_PRIOR.read(value, f" in {key}")))
_STEP = _Kind("step", i=("index", _int), label=_int, q=_floats(1),
              alpha=("alpha_used", _number), k=("k_after", _int), innovation=_scalar((bool,)))
_CHECKPOINT = _Kind(  # not checked finite: the writer gives an infinite ratio as Infinity
    "checkpoint", n=_int, k=_int, alpha=_number, likelihood_ratio=_number_or_null,
    l2_distance=_number_or_null, kl_estimate=_number_or_null, kl_stderr=_number_or_null)
_CLUSTER = _Kind(  # one per row of the book's columns; the state's ranges are check_state's
    "cluster", mu=_floats(1), sigma=_floats(), c=_number, delta=_number,
    m=_scalar((int, float), lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    w=_scalar((int, float), lambda v: math.isfinite(v) and v >= 0, "finite and nonnegative"))
_FINAL = _Kind("final", n=_scalar((int,), lambda v: v >= 0, "nonnegative"), k=_int)
_KINDS = {kind.name: kind for kind in (_CONFIG, _STEP, _CHECKPOINT, _CLUSTER, _FINAL)}


def _dumps(obj: dict) -> str:
    # numpy arrays and scalars other than float64 serialise through tolist()
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=lambda v: v.tolist())


# _STEP.line's bytes, in _dumps' sorted key order, for the values of the step
# columns' types: alpha a float, i, k and label ints, innovation a bool and q
# a list of floats
_STEP_TEMPLATE = '{"alpha":%s,"i":%d,"innovation":%s,"k":%d,"kind":"step","label":%d,"q":[%s]}\n'


def _step_line(values: tuple) -> str:
    """``_STEP.line`` of a step's values as ``StepColumns.values(lists=True)``
    gives them, formatted from the template: the floats' repr is its cost.
    JSON writes a float as its repr unless it is nan or inf (NaN and
    Infinity), and no finite float's repr holds an n: a step with such a
    value goes through ``_STEP.line``."""
    i, label, q, alpha, k, innovation = values
    alpha_text, q_text = float.__repr__(alpha), ",".join(map(float.__repr__, q))
    if "n" in alpha_text or "n" in q_text:
        return _STEP.line(values)
    return _STEP_TEMPLATE % (alpha_text, i, "true" if innovation else "false", k, label, q_text)


def config_record(config: EngineConfig) -> dict:
    """A config's fields as JSON values, the prior's as an object: the
    trace's config record, and the ``config`` of ``asugs compare``'s report."""
    rec = dict(zip(_CONFIG.keys, _CONFIG.values(config)))
    if config.prior is not None:
        rec["prior"] = {key: np.asarray(value).tolist()
                        for key, value in zip(_PRIOR.keys, _PRIOR.values(config.prior))}
    return rec


def write_trace(path, trace: RunTrace) -> None:
    book = trace.final_book
    with open(path, "w") as fh:
        fh.write(_dumps({"kind": _CONFIG.name, **config_record(trace.config)}) + "\n")
        fh.writelines(map(_step_line, trace.records.values(lists=True)))
        fh.writelines(_CHECKPOINT.line(_CHECKPOINT.values(cp)) for cp in trace.checkpoints)
        fh.writelines(map(_CLUSTER.line, zip(*_CLUSTER.values(book))))
        fh.write(_FINAL.line(_FINAL.values(book)))


def _check_chain(steps: StepColumns, index, label, q, alpha_used, k_after, innovation) -> None:
    """A step's values, as ``_STEP`` names them, against the step columns
    read before it: i is the previous step's i + 1, starting at 1; q scores the
    previous step's k clusters (0 before step 1) and a new one, and is a
    responsibility vector (no entry below 0, summing to 1 within 1e-9); the
    label is one of its entries and is the new one exactly at an innovation;
    the step leaves between 1 and len(q) clusters; and alpha is finite and
    nonnegative.  It reads q with builtins, as a list or an array."""
    count = len(steps.k_after)
    if index != count + 1:
        raise ValueError(f"i must be {count + 1}, got {index}")
    k, width = steps.k_after[-1] if count else 0, len(q)
    if width != k + 1:
        raise ValueError(f"q must have the previous step's k + 1 = {k + 1} entries, got {width}")
    if min(q) < 0 or not abs(sum(q) - 1) <= 1e-9:  # a NaN or an infinity fails the sum
        raise ValueError(f"q must be >= 0 with sum 1 within 1e-9, got min {min(q)}, sum {sum(q)}")
    if not 1 <= label <= width:
        raise ValueError(f"label must be in 1..len(q) = {width}, got {label}")
    if innovation != (label == width):
        raise ValueError(f"innovation must be {str(label == width).lower()} for label {label} "
                         f"of len(q) = {width}, got {str(innovation).lower()}")
    if not 1 <= k_after <= width:
        raise ValueError(f"k must be in 1..len(q) = {width}, got {k_after}")
    if not 0 <= alpha_used < math.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha_used}")


_STEP_KEYS = {"kind", *_STEP.keys}
_STEP_ITEMS = operator.itemgetter(*_STEP.keys)  # in declaration order, _check_chain's


def _lean_step(rec: dict, steps: StepColumns) -> tuple | None:
    """The values, in ``_STEP``'s order, of a step line whose JSON values
    have the types the writer gives (q a list of floats, kept as such for
    the columns' pending chunk) and which passes ``_check_chain``; else
    None, and ``_STEP.read`` reads it and words the refusal."""
    values = i, label, q, alpha, k, innovation = _STEP_ITEMS(rec)
    if not (type(i) is type(label) is type(k) is int and type(alpha) in (int, float)
            and type(innovation) is bool and type(q) is list
            and all(map(isinstance, q, repeat(float)))):
        return None
    try:
        _check_chain(steps, *values)
    except ValueError:
        return None
    return values


def read_trace(path) -> RunTrace:
    """Load a trace written by ``write_trace``; its final book is rebuilt with
    ``ClusterBook.add`` (cids 1..k, pair histories at zero).  Each value is
    read as its kind declares, type then range; the config then passes
    ``EngineConfig.resolve``, a cluster ``check_state`` and the prior's d.
    A malformed trace raises DataError naming the path, the row and the key,
    as does a trace out of order: a record before the config record, a
    second config record, a record after the final record, or a step that
    does not follow from the steps before it or whose q or alpha is out of
    range (``_check_chain``).  So does a final record whose n is not the number
    of step records, or whose k is not the number of cluster records or
    (after a step) the last step's k.  A step line that passes
    ``_lean_step``'s checks, the same but for its message, is read on that
    lean path; any other goes through the declaration, which names its
    fault.  Either way the step goes into the trace's ``StepColumns``, in
    chunks of the config's ``maintenance_period``."""
    lineno, config, final = 0, None, None
    steps, checkpoints = None, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if (type(rec) is dict and rec.keys() == _STEP_KEYS and rec["kind"] == _STEP.name
                    and config is not None and final is None):
                values = _lean_step(rec, steps)
                if values is not None:
                    steps.append(*values[1:])  # the index is the columns' own
                    continue
            if not isinstance(rec, dict):
                raise DataError(f"{path}: row {lineno}: expected a JSON object")
            name = rec.pop("kind", None)
            kind = _KINDS.get(name) if isinstance(name, str) else None
            if kind is None:
                raise DataError(f"{path}: row {lineno}: unknown record kind {name!r}")
            if final is not None:
                raise DataError(f"{path}: row {lineno}: {name} record after the final record")
            if (config is None) != (kind is _CONFIG):
                where = "before the" if config is None else "after a"
                raise DataError(f"{path}: row {lineno}: {name} record {where} config record")
            try:
                v = kind.read(rec)
                if kind is _CONFIG:
                    config = EngineConfig(**v).resolve(v["prior"].dim)
                    book = ClusterBook(config.prior.dim)
                    steps = StepColumns(config.maintenance_period)
                elif kind is _STEP:
                    _check_chain(steps, **v)
                    steps.append(*list(v.values())[1:])
                elif kind is _CHECKPOINT:
                    checkpoints.append(Checkpoint(**v))
                elif kind is _CLUSTER:
                    if len(v["mu"]) != config.prior.dim:
                        raise ValueError(f"mu must have the prior's d = {config.prior.dim} "
                                         f"entries, got {len(v['mu'])}")
                    book.add(NiwPosterior(*check_state(v["mu"], v["c"], v["delta"], v["sigma"])),
                             v["m"], v["w"])  # LinAlgError if sigma does not factorise
                else:
                    final, final_row = v, lineno
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: row {lineno}: {name} record: {exc}") from exc
    if final is None:
        raise DataError(f"{path}: no final record after row {lineno}")
    ends = [("k", book.k, f"the trace has {book.k} cluster records"),
            ("n", len(steps), f"the trace has {len(steps)} step records")]
    if steps:
        ends.append(("k", steps.k_after[-1], f"the last step has k = {steps.k_after[-1]}"))
    for key, want, found in ends:
        if final[key] != want:
            raise DataError(f"{path}: row {final_row}: final record has {key} = {final[key]}, "
                            f"but {found}")
    book.n = final["n"]
    return RunTrace(config=config, records=steps, final_book=book, checkpoints=checkpoints)
