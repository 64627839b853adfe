"""One generated equivalence harness for the lockstep driver and the trace.

Hypothesis draws ``run_many`` groups: d in {1, 2, 3, 8}, a maintenance
period of 1 to 12, and 1 to 3 streams of 1 to 90 rows from 1 to 4 centres,
half of them with a duplicated half, each scaled by 10^-9 to 10^9, one in
ten with a NaN row.  Each group holds 1 to 7 runs, each given its stream
object or (one in four) a copy of it, with seed 0 to 2, lam 0.3 or 1,
fixed_alpha None or 1, either selection, prune_eps in {0, 0.01, 0.1, 0.3},
merge_eps in {0, 0.05, 0.5, 2}, the default prior or one of two scale
priors at the stream's scale, and (one in four) an ``on_step`` that raises
at a drawn step.  The runs are drawn as members of 1 or 2 kinds, each a
stream with a seed, lam, fixed_alpha and selection, so that runs which
share a rows object and those four, and so form a family, are common.

Four equivalences are stated here:

- each result of the group is what ``run`` of that stream alone gives: the
  same ``write_trace`` bytes, or an exception of the same type and message;
- each run's finite stream, cut into chunks and fed through a ``Run``
  handle, gives what ``run`` of it gives, and the handle's ``on_step`` sees
  what ``run``'s sees; the chunk edges fall inside windows, at their ends
  and at the first and the last row.  A stream whose first non-finite row
  is at step j, which ``run`` refuses with ``StepError(j)`` before any
  step, gives the first exception raised while feeding the chunks before
  the one that holds row j, or else that ``StepError(j)``;
- each trace comes back byte for byte through ``read_trace(write_trace(t))``,
  and the records it reads are its records, q bit for bit;
- each trace's step columns are its records: a trace made from the list of
  them writes the same bytes, ``k_series`` is their k, and an index or a
  slice of the columns is that of the list.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asugs.data import read_trace, write_trace
from asugs.engine import EngineConfig, Run, RunTrace, StepColumns, StepError, run, run_many
from asugs.niw import PriorConfig


def stream(n, exponent=0, seed=0, centres=1, duplicated=False, nan_row=None):
    return {"seed": seed, "n": n, "centres": centres, "duplicated": duplicated,
            "exponent": exponent, "nan_row": nan_row}


def kind(stream=0, seed=0, lam=0.3, fixed_alpha=None, selection="sample"):
    return {"stream": stream, "seed": seed, "lam": lam, "fixed_alpha": fixed_alpha,
            "selection": selection}


def member(kind=0, copy=False, prune_eps=0.0, merge_eps=0.0, prior=0, raise_at=None):
    return {"kind": kind, "copy": copy, "prune_eps": prune_eps, "merge_eps": merge_eps,
            "prior": prior, "raise_at": raise_at}


def one_in(draw, n: int) -> bool:
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def groups(draw):
    """A group's parameters, as plain values that ``build`` turns into arrays."""
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 90))
        streams.append(stream(
            n, exponent=draw(st.integers(-9, 9)), seed=draw(st.integers(0, 2**16)),
            centres=draw(st.integers(1, 4)), duplicated=draw(st.booleans()),
            nan_row=draw(st.integers(0, n - 1)) if one_in(draw, 10) else None))
    kinds = [kind(
        stream=draw(st.integers(0, len(streams) - 1)), seed=draw(st.integers(0, 2)),
        lam=draw(st.sampled_from([0.3, 1.0])), fixed_alpha=draw(st.sampled_from([None, 1.0])),
        selection=draw(st.sampled_from(["sample", "argmax"])),
    ) for _ in range(draw(st.integers(1, 2)))]
    runs = [member(
        kind=draw(st.integers(0, len(kinds) - 1)), copy=one_in(draw, 4),
        prune_eps=draw(st.sampled_from([0.0, 0.01, 0.1, 0.3])),
        merge_eps=draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])), prior=draw(st.integers(0, 2)),
        raise_at=draw(st.integers(1, 90)) if one_in(draw, 4) else None,
    ) for _ in range(draw(st.integers(1, 7)))]
    return {"d": draw(st.sampled_from([1, 2, 3, 8])), "period": draw(st.integers(1, 12)),
            "streams": streams, "kinds": kinds, "runs": runs}


def make_stream(d, seed, n, centres, duplicated, exponent, nan_row):
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(centres, d))
    rows = means[rng.integers(centres, size=n)] + rng.normal(size=(n, d))
    if duplicated:
        rows[n // 2:] = rows[:n - n // 2]
    rows *= 10.0 ** exponent
    if nan_row is not None:
        rows[nan_row, rng.integers(d)] = np.nan
    return rows


def make_prior(choice, d, exponent):
    """The default prior, or a scale prior at the stream's scale."""
    scale = 10.0 ** (2 * exponent)
    return (None, PriorConfig.from_scale(d, scale),
            PriorConfig.from_scale(d, 0.05 * scale, pseudo_obs=8.0, c0=0.5))[choice]


def raiser(at):
    def on_step(i, book):
        if i == at:
            raise RuntimeError(f"on_step raised at step {i} with k = {book.k}")
    return None if at is None else on_step


def build(group):
    """The group's streams (a run given a copy holds its own), configs and
    callbacks, one of each per run."""
    d = group["d"]
    objects = [make_stream(d, **spec) for spec in group["streams"]]
    streams, configs, callbacks = [], [], []
    for spec in group["runs"]:
        of = group["kinds"][spec["kind"]]
        rows = objects[of["stream"]]
        streams.append(rows.copy() if spec["copy"] else rows)
        exponent = group["streams"][of["stream"]]["exponent"]
        configs.append(EngineConfig(
            lam=of["lam"], selection=of["selection"], fixed_alpha=of["fixed_alpha"],
            prune_eps=spec["prune_eps"], merge_eps=spec["merge_eps"],
            maintenance_period=group["period"], seed=of["seed"],
            prior=make_prior(spec["prior"], d, exponent)))
        callbacks.append(raiser(spec["raise_at"]))
    return streams, configs, callbacks


def alone(rows, config, on_step):
    """What ``run`` gives: its trace, or the exception it raises."""
    try:
        return run(rows, config, on_step)
    except Exception as exc:
        return exc


def fields(records) -> list[tuple]:
    """Each record's values, q and alpha as their bits."""
    return [(r.index, r.label, r.q.dtype.str, r.q.tobytes(), r.alpha_used.hex(), r.k_after,
             r.innovation) for r in records]


SLICES = [slice(None), slice(1, None), slice(None, -1), slice(-3, None), slice(None, None, 2),
          slice(None, None, -1), slice(-2, 1, -1), slice(5, 2), slice(100, None)]


def assert_columns_are_records(trace, path):
    """The trace's step columns against ``list(trace.records)``, and against
    columns those records are appended to anew."""
    records = list(trace.records)
    columns = StepColumns(trace.config.maintenance_period)
    for r in records:
        columns.append(r.label, r.q, r.alpha_used, r.k_after, r.innovation)
    write_trace(path, RunTrace(trace.config, columns, trace.final_book))
    with open(path, "rb") as fh:
        from_list = fh.read()
    write_trace(path, trace)
    with open(path, "rb") as fh:
        assert fh.read() == from_list, "a trace of its records appended anew writes other bytes"
    assert trace.k_series().tolist() == [r.k_after for r in records]
    n = len(records)
    assert fields(trace.records[i] for i in range(-n, n)) == fields(records + records)
    for part in SLICES:
        assert fields(trace.records[part]) == fields(records[part]), part


def result_bytes(result, tmp, name):
    """A trace's ``write_trace`` bytes, which must come back byte for byte
    through ``read_trace``, its records read back as they are, or an
    exception's type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    path = f"{tmp}/{name}.jsonl"
    assert_columns_are_records(result, path)
    with open(path, "rb") as fh:
        written = fh.read()
    back = read_trace(path)
    assert fields(back.records) == fields(result.records), f"{name}: records read back differ"
    write_trace(path, back)
    with open(path, "rb") as fh:
        assert fh.read() == written, f"{name}: read_trace(write_trace(t)) differs from t"
    return written


# Each group below, as the generator drew it and shrank it, is one that
# run_many got wrong when a part of it was taken out: the split before a
# prune of a shared book, the copy of the generator in a split, and the
# prior in the family key.
@example(group={"d": 2, "period": 1, "streams": [stream(7)], "kinds": [kind()], "runs": [
    member(copy=True), member(prior=2), member(prune_eps=0.1, prior=2, raise_at=6)]})
@example(group={"d": 3, "period": 1, "streams": [stream(4, exponent=-1)], "kinds": [kind()],
                "runs": [member(prune_eps=0.3), member()]})
@example(group={"d": 1, "period": 1, "streams": [stream(1)], "kinds": [kind()],
                "runs": [member(), member(prior=1)]})
@settings(max_examples=60, deadline=None)
@given(group=groups())
def test_lockstep_equals_each_run_alone(group):
    streams, configs, callbacks = build(group)
    results = run_many(streams, configs, callbacks)
    with tempfile.TemporaryDirectory() as tmp:
        for r, args in enumerate(zip(streams, configs, callbacks)):
            assert result_bytes(results[r], tmp, f"many{r}") == result_bytes(
                alone(*args), tmp, f"alone{r}"), f"run {r}"


def fed_in_chunks(rows, config, on_step, cuts):
    """What a ``Run`` fed the rows cut at ``cuts`` and then closed gives: its
    trace, or the first exception that a feed or the close raises."""
    try:
        handle = Run(config, rows.shape[1], on_step)
        for chunk in np.split(rows, cuts):
            handle.feed(chunk)
        return handle.close()
    except Exception as exc:
        return exc


def fed_before(rows, config, on_step, cuts, refusal):
    """What a handle fed the rows in chunks gives where ``run`` refuses them
    with ``refusal``, the ``StepError`` of their first non-finite row j =
    ``refusal.step``: the first exception that the chunks before the one
    holding row j raise (here fed to a fresh handle in one chunk), or else
    ``refusal``."""
    start = max((cut for cut in cuts if cut < refusal.step), default=0)
    try:
        if start:
            Run(config, rows.shape[1], on_step).feed(rows[:start])
    except Exception as exc:
        return exc
    return refusal


def written(result, tmp):
    """A trace's ``write_trace`` bytes, or an exception's type and message:
    ``result_bytes`` without the round trip, which the lockstep property
    checks for the same traces."""
    if isinstance(result, Exception):
        return type(result), str(result)
    write_trace(f"{tmp}/trace.jsonl", result)
    with open(f"{tmp}/trace.jsonl", "rb") as fh:
        return fh.read()


def watched(callback, calls):
    """An ``on_step`` that records each call's step and book counts, then
    calls ``callback``."""
    def on_step(i, book):
        calls.append((i, book.n, book.m.tobytes()))
        if callback is not None:
            callback(i, book)
    return on_step


@settings(max_examples=20, deadline=None)
@given(group=groups(), data=st.data())
def test_any_chunking_equals_one_run(group, data):
    streams, configs, callbacks = build(group)
    with tempfile.TemporaryDirectory() as tmp:
        for r, (rows, config, callback) in enumerate(zip(streams, configs, callbacks)):
            n, period = len(rows), config.maintenance_period
            edges = [*range(period, n, period), 1, n - 1]  # window ends, first and last row
            cuts = [] if n == 1 else sorted(set(data.draw(st.lists(
                st.integers(1, n - 1) | st.sampled_from(edges), max_size=5))))
            calls = ([], [])
            if data.draw(st.booleans()):
                callback, got_callback = watched(callback, calls[0]), watched(callback, calls[1])
            else:
                got_callback = callback
            want = alone(rows, config, callback)
            if not np.isfinite(rows).all():  # run refuses it up front: StepError(j)
                assert calls[0] == []
                want = fed_before(rows, config, callback, cuts, want)
            got = fed_in_chunks(rows, config, got_callback, cuts)
            assert written(got, tmp) == written(want, tmp), f"run {r}, cuts {cuts}"
            assert calls[1] == calls[0]


def test_a_chunk_before_the_bad_row_fails_first():
    """Rows [0.5], [nan] with an ``on_step`` that raises at step 1: ``run``
    refuses the stream at step 2 before any step, and so does a handle fed
    it in one chunk; fed in two, the first chunk's step 1 raises first, as
    ``fed_before`` states."""
    rows = np.array([[0.5], [np.nan]])
    config = EngineConfig(prune_eps=0.0, merge_eps=0.0, maintenance_period=1)
    refusal = alone(rows, config, raiser(1))
    outcomes = [refusal, fed_in_chunks(rows, config, raiser(1), []),
                fed_in_chunks(rows, config, raiser(1), [1]),
                fed_before(rows, config, raiser(1), [1], refusal)]
    assert [(type(exc), str(exc)) for exc in outcomes] == 2 * [
        (StepError, "step 2 failed: observation contains a non-finite value")] + 2 * [
        (RuntimeError, "on_step raised at step 1 with k = 1")]
