"""Tests for dataset generation, CSV ingestion and trace persistence."""

import json
import math
import re

import numpy as np
import pytest

from asugs.data import (
    DataError,
    Dataset,
    generate_grid_mixture,
    heldout_loglik,
    read_csv,
    read_trace,
    read_truth,
    sample_mixture,
    write_csv,
    write_trace,
    write_truth,
)
from asugs.diagnostics import run_with_diagnostics
from asugs.engine import Checkpoint, ClusterBook, EngineConfig, RunTrace, StepRecord, run
from asugs.niw import NiwPosterior, PriorConfig, log_predictive_density


def without(rec, key):
    return {k: v for k, v in rec.items() if k != key}


def replace_first(kind, edit):
    """A trace edit that replaces the first record of a kind by edit(record);
    it returns the edited records and the 1-based row of the change."""
    def apply(lines):
        row = next(i for i, rec in enumerate(lines) if rec["kind"] == kind)
        return lines[:row] + [edit(lines[row])] + lines[row + 1:], row + 1
    return apply


# The bytes write_trace gives format_trace(): every record kind, with an int
# lam, a fixed_alpha, and checkpoint fields null and Infinity.
FORMAT_TRACE = (
    '{"fixed_alpha":0.5,"kind":"config","lam":1,"maintenance_period":50,"merge_eps":0.05,'
    '"prior":{"c0":0.5,"delta0":2.5,"mu0":[0.0,0.0],"sigma0":[[1.0,0.0],[0.0,1.0]]},'
    '"prune_eps":0.01,"seed":0,"selection":"argmax"}\n'
    '{"alpha":0.0,"i":1,"innovation":true,"k":1,"kind":"step","label":1,"q":[1.0]}\n'
    '{"alpha":0.5,"i":2,"innovation":false,"k":1,"kind":"step","label":1,"q":[0.75,0.25]}\n'
    '{"alpha":0.5,"k":1,"kind":"checkpoint","kl_estimate":0.125,"kl_stderr":null,'
    '"l2_distance":null,"likelihood_ratio":Infinity,"n":2}\n'
    '{"c":2.5,"delta":3.5,"kind":"cluster","m":2,"mu":[0.5,-0.25],'
    '"sigma":[[1.0,0.25],[0.25,2.0]],"w":1.75}\n'
    '{"k":1,"kind":"final","n":2}\n'
)


def format_trace() -> RunTrace:
    """A hand-built trace whose values are exact in binary: none comes from
    the engine's arithmetic, so its bytes do not depend on BLAS."""
    prior = PriorConfig(mu0=np.zeros(2), c0=0.5, delta0=2.5, sigma0=np.eye(2))
    book = ClusterBook(n=2)
    book.add(NiwPosterior(np.array([0.5, -0.25]), 2.5, 3.5,
                          np.array([[1.0, 0.25], [0.25, 2.0]])), 2, 1.75)
    return RunTrace(
        config=EngineConfig(lam=1, fixed_alpha=0.5, prior=prior).resolve(2),
        records=[StepRecord(1, 1, np.array([1.0]), 0.0, 1, True),
                 StepRecord(2, 1, np.array([0.75, 0.25]), 0.5, 1, False)],
        final_book=book,
        checkpoints=[Checkpoint(n=2, k=1, alpha=0.5, likelihood_ratio=math.inf,
                                kl_estimate=0.125)],
    )


def every_key():
    """(kind, row, keys) for each key of each record in FORMAT_TRACE, and
    for each key nested in one: the writer walks the record declarations,
    so every declared key is among these."""
    for row, line in enumerate(FORMAT_TRACE.splitlines(), start=1):
        rec = json.loads(line)
        kind = rec.pop("kind")
        for key, value in rec.items():
            yield kind, row, (key,)
            if isinstance(value, dict):
                yield from ((kind, row, (key, inner)) for inner in value)


class TestGenerateGridMixture:
    def test_single_component(self):
        mix = generate_grid_mixture(1, 0.5, 1.0)
        assert mix.n_components == 1
        np.testing.assert_array_equal(mix.means, [[0.0, 0.0]])
        assert mix.weights.tolist() == [1.0]

    def test_sixteen_equal_components(self):
        mix = generate_grid_mixture(4, 0.025)
        assert mix.n_components == 16
        np.testing.assert_allclose(mix.weights, np.full(16, 1 / 16))
        for cov in mix.covariances:
            np.testing.assert_allclose(cov, 0.025 * np.eye(2))

    def test_rotation_symmetry(self):
        """Mean set is invariant under a quarter turn of the grid."""
        mix = generate_grid_mixture(4, 0.025, 1.0)
        rotated = np.stack([-mix.means[:, 1], mix.means[:, 0]], axis=1)
        original = {tuple(np.round(m, 12)) for m in mix.means}
        assert {tuple(np.round(m, 12)) for m in rotated} == original

    def test_spacing_knob(self):
        wide = generate_grid_mixture(2, 0.025, spacing=3.0)
        assert wide.means.max() == pytest.approx(1.5)

    def test_side_validated(self):
        with pytest.raises(ValueError):
            generate_grid_mixture(0)


class TestSampleMixture:
    def test_deterministic_per_seed(self):
        mix = generate_grid_mixture(2, 0.1)
        a = sample_mixture(mix, 50, seed=9)
        b = sample_mixture(mix, 50, seed=9)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = sample_mixture(mix, 50, seed=10)
        assert not np.array_equal(a.rows, c.rows)

    def test_component_frequencies_multinomial(self):
        """Empirical frequencies within 3 sigma of 1/16 for n = 1e5."""
        mix = generate_grid_mixture(4, 0.025)
        ds = sample_mixture(mix, 100_000, seed=0)
        counts = np.bincount(ds.labels, minlength=16)
        p = 1.0 / 16.0
        sd = math.sqrt(ds.n * p * (1 - p))
        assert np.all(np.abs(counts - ds.n * p) < 3 * sd)

    def test_component_mean_clt(self):
        mix = generate_grid_mixture(4, 0.025)
        ds = sample_mixture(mix, 100_000, seed=1)
        sel = ds.labels == 0
        emp = ds.rows[sel].mean(axis=0)
        tol = 3 * math.sqrt(0.025) / math.sqrt(sel.sum())
        np.testing.assert_allclose(emp, mix.means[0], atol=tol)

    def test_single_draw_reproducible(self):
        mix = generate_grid_mixture(1, 1.0)
        one = sample_mixture(mix, 1, seed=5)
        again = sample_mixture(mix, 1, seed=5)
        np.testing.assert_array_equal(one.rows, again.rows)


class TestHeldoutLoglik:
    def _single_cluster_book(self):
        post = NiwPosterior(np.array([0.5]), 8.0, 5.0, np.array([[0.3]]))
        book = ClusterBook(n=4)
        book.add(post, 4, 4.0)
        return book, post

    def test_repeated_point_doubles(self):
        book, post = self._single_cluster_book()
        test = Dataset(rows=np.array([[0.5], [0.5]]))
        total, per = heldout_loglik(book, test)
        unit = log_predictive_density(post, np.array([0.5]))
        assert total == pytest.approx(2 * unit, rel=1e-12)
        assert per == pytest.approx(unit, rel=1e-12)

    def test_permutation_invariant(self):
        book, _ = self._single_cluster_book()
        rows = np.linspace(-2, 2, 17)[:, None]
        t1, _ = heldout_loglik(book, Dataset(rows=rows))
        t2, _ = heldout_loglik(book, Dataset(rows=rows[::-1]))
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_additive_over_splits(self):
        book, _ = self._single_cluster_book()
        rows = np.linspace(-1, 3, 20)[:, None]
        whole, _ = heldout_loglik(book, Dataset(rows=rows))
        a, _ = heldout_loglik(book, Dataset(rows=rows[:7]))
        b, _ = heldout_loglik(book, Dataset(rows=rows[7:]))
        assert whole == pytest.approx(a + b, rel=1e-12)

    def test_empty_test_set_rejected(self):
        book, _ = self._single_cluster_book()
        with pytest.raises(ValueError):
            heldout_loglik(book, Dataset(rows=np.empty((0, 1))))

    def test_dimension_mismatch_names_both_dims(self):
        book, _ = self._single_cluster_book()
        with pytest.raises(DataError, match="dim 2.*dim 1"):
            heldout_loglik(book, Dataset(rows=np.zeros((3, 2))))


class TestReadCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        ds = read_csv(p)
        assert ds.n == 2 and ds.dim == 2
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_cites_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(p)

    def test_non_numeric_cites_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "NaN", "-Infinity", "+inf"])
    def test_non_finite_rejected(self, bad, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(f"1.0,2.0\n{bad},1.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_csv(p)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rows=rng.normal(size=(30, 3)))
        p = tmp_path / "d.csv"
        write_csv(p, ds)
        np.testing.assert_array_equal(read_csv(p).rows, ds.rows)


class TestTruthFile:
    def test_roundtrip(self, tmp_path):
        mix = generate_grid_mixture(3, 0.04, 1.3)
        p = tmp_path / "truth.json"
        write_truth(p, mix, generator_args={"side": 3})
        back = read_truth(p)
        np.testing.assert_array_equal(back.weights, mix.weights)
        np.testing.assert_array_equal(back.means, mix.means)
        np.testing.assert_array_equal(back.covariances, mix.covariances)

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("", "not a JSON document"),
            ("[1.0]", "expected a JSON object"),
            ('{"weights": [1.0]}', "fields weights, means, covariances"),
            ('{"weights": [0.5], "means": [[0.0]], "covariances": [[[1.0]]]}', "sum to 1"),
            ('{"weights": [1.0], "means": [[0.0]], "covariances": [[[-1.0]]]}', "definite"),
            ('{"weights": [1.0], "means": [["a"]], "covariances": [[[1.0]]]}', "could not convert"),
            ('{"weights": [0.5, 0.5], "means": [[0.0, 0.0]], "covariances": [[[1.0]]]}',
             "do not describe one mixture"),
        ],
    )
    def test_malformed_file_is_data_error(self, tmp_path, text, problem):
        p = tmp_path / "truth.json"
        p.write_text(text)
        with pytest.raises(DataError, match=problem) as info:
            read_truth(p)
        assert str(p) in str(info.value)


class TestTracePersistence:
    def _run_trace(self, n=500):
        mix = generate_grid_mixture(4, 0.025)
        data = sample_mixture(mix, n, seed=4)
        cfg = EngineConfig(seed=4, prior=PriorConfig.from_scale(2, 0.025))
        return run(data.rows, cfg)

    def test_roundtrip_is_lossless(self, tmp_path):
        trace = self._run_trace()
        p = tmp_path / "trace.jsonl"
        write_trace(p, trace)
        back = read_trace(p)
        assert back.n == trace.n and back.k == trace.k
        assert len(back.records) == len(trace.records)
        for a, b in zip(trace.records, back.records):
            assert (a.index, a.label, a.k_after, a.innovation) == (
                b.index, b.label, b.k_after, b.innovation)
            assert a.alpha_used == b.alpha_used
            np.testing.assert_array_equal(a.q, b.q)
        for name in ("mu", "sigma", "c", "delta", "m", "w"):
            np.testing.assert_array_equal(getattr(back.final_book, name),
                                          getattr(trace.final_book, name))
        cfg_a, cfg_b = trace.config, back.config
        assert (cfg_a.lam, cfg_a.selection, cfg_a.fixed_alpha, cfg_a.seed) == (
            cfg_b.lam, cfg_b.selection, cfg_b.fixed_alpha, cfg_b.seed)
        np.testing.assert_array_equal(cfg_a.prior.sigma0, cfg_b.prior.sigma0)

    def test_identical_runs_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(p1, self._run_trace(200))
        write_trace(p2, self._run_trace(200))
        assert p1.read_bytes() == p2.read_bytes()

    def test_book_reconstruction_matches_density(self, tmp_path):
        trace = self._run_trace(300)
        p = tmp_path / "trace.jsonl"
        write_trace(p, trace)
        book = read_trace(p).final_book
        test = Dataset(rows=np.array([[0.3, -0.4], [1.2, 1.4]]))
        a, _ = heldout_loglik(trace.final_book, test)
        b, _ = heldout_loglik(book, test)
        assert a == pytest.approx(b, rel=1e-15)

    @pytest.mark.parametrize("kind", ["diagnostics", "argmax", "d8"])
    def test_write_of_read_is_byte_identical(self, tmp_path, kind):
        mix = generate_grid_mixture(4, 0.025)
        rows = sample_mixture(mix, 300, seed=4).rows
        prior = PriorConfig.from_scale(2, 0.025)
        if kind == "diagnostics":
            trace = run_with_diagnostics(rows, EngineConfig(seed=4, prior=prior), truth=mix,
                                         checkpoint_every=100)
            assert all(cp.kl_estimate is not None for cp in trace.checkpoints)
        elif kind == "argmax":
            trace = run(rows, EngineConfig(seed=4, fixed_alpha=1.0, prior=prior))
        else:
            rng = np.random.default_rng(4)
            centres = rng.normal(size=(3, 8)) * 5
            wide = centres[rng.integers(0, 3, 300)] + rng.normal(size=(300, 8))
            trace = run(wide, EngineConfig(seed=4, prune_eps=0.0, merge_eps=0.0,
                                           prior=PriorConfig.from_scale(8, 1.0, 16)))
        p, again = tmp_path / "trace.jsonl", tmp_path / "again.jsonl"
        write_trace(p, trace)
        write_trace(again, read_trace(p))
        assert again.read_bytes() == p.read_bytes()

    def test_format_is_pinned(self, tmp_path):
        p, again = tmp_path / "trace.jsonl", tmp_path / "again.jsonl"
        write_trace(p, format_trace())
        assert p.read_text() == FORMAT_TRACE
        write_trace(again, read_trace(p))
        assert again.read_text() == FORMAT_TRACE

    @pytest.mark.parametrize("kind,row,keys", list(every_key()),
                             ids=lambda v: ".".join(v) if isinstance(v, tuple) else str(v))
    def test_every_key_refuses_a_json_string(self, tmp_path, kind, row, keys):
        lines = [json.loads(line) for line in FORMAT_TRACE.splitlines()]
        rec = lines[row - 1]
        for key in keys[:-1]:
            rec = rec[key]
        key = keys[-1]
        rec[key] = json.dumps(rec[key])
        p = tmp_path / "bad.jsonl"
        p.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        with pytest.raises(DataError) as info:
            read_trace(p)
        assert re.search(rf"^{re.escape(str(p))}: row {row}: {kind} record: "
                         rf"({key} must|expected keys \[.*\] in {key},)", str(info.value))

    def test_missing_config_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind":"final","n":1,"k":1}\n')
        with pytest.raises(DataError, match="config"):
            read_trace(p)

    def test_unknown_record_kind_cites_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind":"mystery"}\n')
        with pytest.raises(DataError, match="row 1"):
            read_trace(p)

    @pytest.mark.parametrize(
        "edit,problem",
        [
            pytest.param(lambda lines: (lines[:150], None), "no final record", id="cut"),
            pytest.param(lambda lines: (lines[:-3] + lines[-2:], len(lines) - 1),
                         "final record has k = ", id="cluster-dropped"),
            pytest.param(replace_first("step", lambda rec: without(rec, "q")),
                         "step record: expected keys", id="step-without-q"),
            pytest.param(replace_first("step", lambda rec: {**rec, "extra": 1}),
                         "step record: expected keys", id="step-with-unknown-key"),
            pytest.param(lambda lines: (lines[:1] + [[1.0]] + lines[1:], 2),
                         "expected a JSON object", id="json-array"),
            pytest.param(replace_first("step", lambda rec: {**rec, "kind": ["step"]}),
                         "unknown record kind", id="kind-not-a-string"),
            pytest.param(
                replace_first("config", lambda rec: {**rec, "prior": {**rec["prior"], "c0": -1.0}}),
                "c0 must be positive", id="prior-refused"),
            pytest.param(
                replace_first("config", lambda rec: {**rec, "prior": without(rec["prior"], "c0")}),
                "config record: expected keys", id="prior-without-c0"),
            pytest.param(
                replace_first("cluster", lambda rec: {**rec, "sigma": [[1.0, 2.0], [2.0, 1.0]]}),
                "cluster record: .*not positive definite", id="sigma-not-definite"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "c": math.nan}),
                         "cluster record: c must be finite", id="c-nan"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "mu": [math.nan, 0.0]}),
                         "cluster record: mu must be finite", id="mu-nan"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "c": -2.0}),
                         "cluster record: c must be positive", id="c-negative"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "delta": -3.0}),
                         r"cluster record: 2\*delta must exceed d-1", id="delta-negative"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "sigma": [[1.0, 0.0]]}),
                         "cluster record: sigma must be 2x2", id="sigma-not-square"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "m": -5}),
                         "cluster record: m must be a nonnegative integer", id="m-negative"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "m": 2.5}),
                         "cluster record: m must be a nonnegative integer", id="m-fraction"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "w": math.inf}),
                         "cluster record: w must be finite and nonnegative", id="w-inf"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "w": -1.0}),
                         "cluster record: w must be finite and nonnegative", id="w-negative"),
            pytest.param(replace_first("step", lambda rec: {**rec, "label": "3"}),
                         "step record: label must be int, got '3'", id="label-string"),
            pytest.param(replace_first("step", lambda rec: {**rec, "label": None}),
                         "step record: label must be int, got None", id="label-null"),
            pytest.param(replace_first("step", lambda rec: {**rec, "innovation": 1}),
                         "step record: innovation must be bool, got 1", id="innovation-int"),
            pytest.param(replace_first("step", lambda rec: {**rec, "q": "abc"}),
                         "step record: q must be a list of numbers, got 'abc'", id="q-string"),
            pytest.param(replace_first("step", lambda rec: {**rec, "q": [rec["q"]]}),
                         "step record: q must be a list of numbers", id="q-nested"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "c": "2.0"}),
                         "cluster record: c must be int or float, got '2.0'", id="c-string"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "c": "abc"}),
                         "cluster record: c must be int or float, got 'abc'", id="c-not-a-number"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "c": True}),
                         "cluster record: c must be int or float, got True", id="c-true"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "mu": ["0.5", 0.0]}),
                         "cluster record: mu must be a list of numbers", id="mu-string"),
            pytest.param(replace_first("cluster", lambda rec: {**rec, "sigma": [[1.0, 0.0], [0.0]]}),
                         "cluster record: sigma must be a list of numbers", id="sigma-ragged"),
            pytest.param(
                replace_first("config", lambda rec: {**rec, "prior": {**rec["prior"], "c0": "2.0"}}),
                "config record: c0 must be int or float, got '2.0'", id="prior-c0-string"),
            pytest.param(replace_first("final", lambda rec: {**rec, "n": "120"}),
                         "final record: n must be int, got '120'", id="final-n-string"),
            pytest.param(replace_first("final", lambda rec: {**rec, "n": -1}),
                         "final record: n must be nonnegative", id="final-n-negative"),
            pytest.param(replace_first("config", lambda rec: {**rec, "lam": -1.0}),
                         "config record: lam must be positive and finite", id="lam-negative"),
            pytest.param(replace_first("config", lambda rec: {**rec, "selection": "greedy"}),
                         "config record: selection must be 'sample' or 'argmax'",
                         id="selection-unknown"),
            pytest.param(replace_first("config", lambda rec: {**rec, "fixed_alpha": 0.0}),
                         "config record: fixed_alpha must be positive", id="fixed-alpha-zero"),
            pytest.param(replace_first("config", lambda rec: {**rec, "prune_eps": 1.0}),
                         r"config record: prune_eps must be in \[0, 1\)", id="prune-eps-one"),
            pytest.param(replace_first("config", lambda rec: {**rec, "maintenance_period": 2.5}),
                         "config record: maintenance_period must be int, got 2.5",
                         id="maintenance-period-fraction"),
            pytest.param(replace_first("config", lambda rec: {**rec, "seed": True}),
                         "config record: seed must be int, got True", id="seed-true"),
            pytest.param(replace_first("config", lambda rec: {**rec, "prior": None}),
                         r"config record: expected keys \[.*\] in prior, got None",
                         id="prior-null"),
            pytest.param(
                lambda lines: (
                    replace_first("config", lambda rec: {**rec, "prior": {
                        **rec["prior"], "mu0": [0.0] * 3, "sigma0": np.eye(3).tolist()}})(lines)[0],
                    1 + [rec["kind"] for rec in lines].index("cluster")),  # the first cluster's row
                "cluster record: mu must have the prior's d = 3 entries, got 2", id="prior-3d"),
            pytest.param(replace_first("cluster", lambda rec: {
                **rec, "mu": [0.0] * 3, "sigma": np.eye(3).tolist()}),
                "cluster record: mu must have the prior's d = 2 entries, got 3", id="cluster-3d"),
            pytest.param(lambda lines: ([lines[1], lines[0]] + lines[2:], 1),
                         "step record before the config record", id="step-before-config"),
            pytest.param(lambda lines: (lines[:1] + [{**lines[0], "lam": 7.0}] + lines[1:], 2),
                         "config record after a config record", id="second-config"),
            pytest.param(lambda lines: (lines + [lines[1]], len(lines) + 1),
                         "step record after the final record", id="step-after-final"),
            pytest.param(lambda lines: ([lines[0], lines[2], lines[1]] + lines[3:], 2),
                         "step record: i must be 1, got 2", id="steps-2-1"),
            pytest.param(lambda lines: (lines[:2] + [lines[1]] + lines[2:], 3),
                         "step record: i must be 2, got 1", id="steps-1-1"),
            pytest.param(lambda lines: (lines[:3] + [lines[1]] + lines[3:], 4),
                         "step record: i must be 3, got 1", id="steps-1-2-1"),
            pytest.param(lambda lines: (lines[:2] + [{
                "kind": "checkpoint", "n": 100, "k": 3, "alpha": 0.5, "likelihood_ratio": None,
                "l2_distance": None, "kl_estimate": [1, 2], "kl_stderr": None}] + lines[2:], 3),
                r"checkpoint record: kl_estimate must be int or float or null, got \[1, 2\]",
                id="checkpoint-kl-list"),
        ],
    )
    def test_malformed_trace_is_data_error(self, tmp_path, edit, problem):
        src = tmp_path / "trace.jsonl"
        write_trace(src, self._run_trace(300))
        lines, row = edit([json.loads(line) for line in src.read_text().splitlines()])
        p = tmp_path / "bad.jsonl"
        p.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        with pytest.raises(DataError, match=problem) as info:
            read_trace(p)
        assert str(p) in str(info.value)
        assert row is None or f"row {row}:" in str(info.value)
