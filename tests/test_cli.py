"""End-to-end tests of the command-line driver and its exit codes."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asugs
from asugs.bench import VARIANTS, compare_variants
from asugs.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from asugs.data import (config_record, heldout_loglik, read_csv, read_trace, read_truth,
                        sample_mixture)
from asugs.diagnostics import run_with_diagnostics
from asugs.engine import EngineConfig, run
from asugs.niw import PriorConfig


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["generate", "--out", str(out), "--seed", "0"]) == EXIT_OK
    return out


class TestGenerate:
    def test_default_outputs(self, dataset_dir):
        train = read_csv(dataset_dir / "train.csv")
        test = read_csv(dataset_dir / "test.csv")
        truth = read_truth(dataset_dir / "truth.json")
        assert train.n == 500 and test.n == 1000
        assert truth.n_components == 16

    def test_refuses_overwrite_without_force(self, dataset_dir):
        assert main(["generate", "--out", str(dataset_dir)]) == EXIT_CONFIG
        assert main(["generate", "--out", str(dataset_dir), "--force"]) == EXIT_OK

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--out", str(out), "--seed", "3"]) == EXIT_OK
        for name in ("train.csv", "test.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--n-train", "0"), ("--n-test", "0"), ("--side", "0"), ("--side", "-2"),
        ("--sigma2", "0"), ("--sigma2", "nan"), ("--sigma2", "inf"),
        ("--spacing", "nan"), ("--spacing", "0"), ("--seed", "-1"),
    ])
    def test_invalid_flag_is_config_error_before_writing(self, tmp_path, flag, value, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--out", str(out), flag, value]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_single_cluster_smoke(self, tmp_path):
        out = tmp_path / "one"
        assert main(["generate", "--out", str(out), "--side", "1",
                     "--n-train", "60", "--n-test", "30"]) == EXIT_OK
        truth = read_truth(out / "truth.json")
        assert truth.n_components == 1


class TestFit:
    def test_single_cluster_data_small_k(self, tmp_path, capsys):
        out = tmp_path / "one"
        main(["generate", "--out", str(out), "--side", "1", "--sigma2", "0.09",
              "--n-train", "200", "--n-test", "50"])
        trace_path = tmp_path / "trace.jsonl"
        code = main(["fit", "--train", str(out / "train.csv"),
                     "--prior-var", "0.09", "--out", str(trace_path)])
        assert code == EXIT_OK
        trace = read_trace(trace_path)
        assert trace.k <= 3

    def test_fixed_alpha_engages_argmax(self, dataset_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(["fit", "--train", str(dataset_dir / "train.csv"),
                     "--fixed-alpha", "1.0", "--prior-var", "0.025",
                     "--out", str(trace_path)])
        assert code == EXIT_OK
        assert " alpha_n=1.0000 " in capsys.readouterr().out
        trace = read_trace(trace_path)
        assert trace.config.selection == "argmax"
        assert trace.config.fixed_alpha == 1.0

    def test_lambda_changes_alpha_not_parsing(self, dataset_dir, tmp_path):
        traces = []
        for lam in ("0.3", "5.0"):
            p = tmp_path / f"t{lam}.jsonl"
            assert main(["fit", "--train", str(dataset_dir / "train.csv"),
                         "--lambda", lam, "--prior-var", "0.025",
                         "--out", str(p)]) == EXIT_OK
            traces.append(read_trace(p))
        a1 = [r.alpha_used for r in traces[0].records[1:5]]
        a2 = [r.alpha_used for r in traces[1].records[1:5]]
        assert all(x > y for x, y in zip(a1, a2))

    def test_heldout_reported(self, dataset_dir, tmp_path, capsys):
        code = main(["fit", "--train", str(dataset_dir / "train.csv"),
                     "--test", str(dataset_dir / "test.csv"),
                     "--prior-var", "0.025",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "heldout" in out and "per_sample" in out

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", "--train", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_directory_as_train_is_data_error(self, dataset_dir, capsys):
        assert main(["fit", "--train", str(dataset_dir)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0\n")
        assert main(["fit", "--train", str(p)]) == EXIT_DATA

    def test_test_set_dimension_mismatch_is_data_error(self, dataset_dir, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
        trace_path = tmp_path / "t.jsonl"
        code = main(["fit", "--train", str(dataset_dir / "train.csv"),
                     "--test", str(wide), "--out", str(trace_path)])
        assert code == EXIT_DATA
        assert "dim 3" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_bad_config_is_config_error(self, dataset_dir, tmp_path):
        assert main(["fit", "--train", str(dataset_dir / "train.csv"),
                     "--lambda", "-1.0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, named", [
        (["--lambda", "nan"], "lam"),
        (["--lambda", "inf"], "lam"),
        (["--fixed-alpha", "nan"], "fixed_alpha"),
        (["--merge-eps", "nan"], "merge_eps"),
        (["--seed", "-1"], "seed"),
        (["--prior-var", "-1"], "--prior-var"),
        (["--prior-var", "nan"], "--prior-var"),
        (["--prior-var", "inf"], "--prior-var"),
        (["--prior-var", "0.025", "--prior-strength", "0"], "--prior-strength"),
        (["--prior-var", "0.025", "--prior-c0", "0"], "--prior-c0"),
        (["--prior-var", "0.025", "--prior-c0", "inf"], "--prior-c0"),
        (["--prior-strength", "5"], "--prior-strength needs --prior-var"),
        (["--prior-c0", "3"], "--prior-c0 needs --prior-var"),
    ])
    def test_invalid_value_is_config_error_naming_it(self, dataset_dir, tmp_path, capsys,
                                                     flags, named):
        out = tmp_path / "t.jsonl"
        code = main(["fit", "--train", str(dataset_dir / "train.csv"), "--out", str(out),
                     *flags])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0]
        assert not out.exists()


class TestCompare:
    def test_requires_train_or_truth(self):
        assert main(["compare", "--trials", "1"]) == EXIT_CONFIG

    def test_selection_is_not_a_compare_flag(self, dataset_dir, tmp_path, capsys):
        """Each variant sets its own label rule, so compare takes no --selection."""
        with pytest.raises(SystemExit) as exit_:
            main(["compare", "--truth", str(dataset_dir / "truth.json"), "--selection", "argmax",
                  "--trials", "1", "--out", str(tmp_path / "bench")])
        assert exit_.value.code == EXIT_CONFIG
        assert "--selection" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_test_without_train_is_config_error(self, dataset_dir, tmp_path, capsys):
        code = main(["compare", "--truth", str(dataset_dir / "truth.json"),
                     "--test", str(dataset_dir / "test.csv"), "--trials", "1",
                     "--n-train", "100", "--n-test", "50", "--out", str(tmp_path / "bench")])
        assert code == EXIT_CONFIG
        assert "--test" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_single_trial_aggregates_match_row(self, dataset_dir, tmp_path):
        out = tmp_path / "bench"
        code = main(["compare", "--truth", str(dataset_dir / "truth.json"),
                     "--trials", "1", "--n-train", "150", "--n-test", "100",
                     "--prior-var", "0.025", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        rows = [json.loads(line) for line in (out / "rows.jsonl").read_text().splitlines()]
        assert len(rows) == 4  # one per variant
        for variant, agg in report["aggregates"].items():
            row = next(r for r in rows if r["variant"] == variant)
            assert agg["mean_k"] == [float(k) for k in row["k_at_checkpoints"]]
            assert all(v == 0.0 for v in agg["var_k"])

    def test_aggregates_recomputable_from_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "bench"
        code = main(["compare", "--truth", str(dataset_dir / "truth.json"),
                     "--trials", "3", "--n-train", "150", "--n-test", "100",
                     "--prior-var", "0.025", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        rows = [json.loads(line) for line in (out / "rows.jsonl").read_text().splitlines()]
        for variant, agg in report["aggregates"].items():
            ks = np.array([r["k_at_checkpoints"] for r in rows
                           if r["variant"] == variant], dtype=float)
            np.testing.assert_allclose(agg["mean_k"], ks.mean(axis=0), atol=1e-12)
            np.testing.assert_allclose(agg["var_k"], ks.var(axis=0), atol=1e-12)

    def test_report_embeds_full_config(self, dataset_dir, tmp_path):
        out = tmp_path / "bench"
        main(["compare", "--truth", str(dataset_dir / "truth.json"),
              "--trials", "1", "--n-train", "100", "--n-test", "50",
              "--prior-var", "0.025", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["variant_configs"]) == sorted(VARIANTS)
        assert "group mean" in report["runtime_s"]
        for cfg in (report["base_config"], *report["variant_configs"].values()):
            for field in ("lam", "selection", "prune_eps", "merge_eps",
                          "maintenance_period", "seed", "prior"):
                assert field in cfg
            assert cfg["prior"]["sigma0"] is not None

    def test_report_replays_each_variant(self, dataset_dir, tmp_path):
        """A row is refitted from its variant's config in report.json and the
        row's seed alone: the trial draws n_train rows from the truth under
        that seed and scores n_test rows drawn under 40000 + seed."""
        out, n_test = tmp_path / "bench", 100
        assert main(["compare", "--truth", str(dataset_dir / "truth.json"), "--trials", "2",
                     "--n-train", "150", "--n-test", str(n_test), "--prior-var", "0.025",
                     "--fixed-alpha", "2", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        rows = [json.loads(line) for line in (out / "rows.jsonl").read_text().splitlines()]
        assert report["base_config"]["selection"] == "argmax"
        truth, n_train = read_truth(dataset_dir / "truth.json"), report["checkpoints"][-1]
        for variant, rec in report["variant_configs"].items():
            row = next(r for r in rows if r["variant"] == variant and r["trial"] == 1)
            prior = PriorConfig(**{key: np.array(value) for key, value in rec["prior"].items()})
            cfg = EngineConfig(**{**rec, "prior": prior, "seed": row["seed"]})
            assert cfg.selection == ("sample" if variant.startswith("ASUGS") else "argmax")
            trace = run(sample_mixture(truth, n_train, seed=row["seed"]).rows, cfg)
            test = sample_mixture(truth, n_test, seed=40000 + row["seed"])
            ks = trace.k_series()
            assert trace.k == row["final_k"]
            assert [int(ks[c - 1]) for c in report["checkpoints"]] == row["k_at_checkpoints"]
            assert heldout_loglik(trace.final_book, test)[0] == row["heldout_total"]

    def test_fixed_train_mode(self, dataset_dir, tmp_path):
        out = tmp_path / "bench"
        code = main(["compare", "--train", str(dataset_dir / "train.csv"),
                     "--test", str(dataset_dir / "test.csv"), "--trials", "2",
                     "--prior-var", "0.025", "--out", str(out)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("flag", ["--test", "--truth"])
    def test_input_dimension_mismatch_is_data_error(
        self, dataset_dir, tmp_path, monkeypatch, capsys, flag
    ):
        import asugs.cli as cli_mod

        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran despite mismatched inputs")

        monkeypatch.setattr(cli_mod, "compare_variants", no_trials)
        if flag == "--test":
            other = tmp_path / "wide.csv"
            other.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
        else:
            other = tmp_path / "line.json"
            other.write_text(json.dumps(
                {"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]]]}))
        code = main(["compare", "--train", str(dataset_dir / "train.csv"), flag, str(other),
                     "--trials", "1", "--out", str(tmp_path / "bench")])
        assert code == EXIT_DATA
        assert "does not match --train dim 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "-1"), ("--workers", "0"), ("--workers", "-2"),
        ("--n-train", "0"), ("--n-test", "0"),
    ])
    def test_count_below_one_is_config_error_naming_it(
        self, dataset_dir, tmp_path, monkeypatch, capsys, flag, value
    ):
        """Rejected with exit 2 before any trial runs or any file is written."""
        import asugs.cli as cli_mod

        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran despite a count below 1")

        monkeypatch.setattr(cli_mod, "compare_variants", no_trials)
        out = tmp_path / "bench"
        counts = {"--trials": "1", "--workers": "1", "--n-train": "100", "--n-test": "50",
                  flag: value}
        code = main(["compare", "--truth", str(dataset_dir / "truth.json"), "--out", str(out),
                     *[part for item in counts.items() for part in item]])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error: ") and flag in err[0]
        assert not out.exists()

    def test_trial_failure_exit_code(self, dataset_dir, tmp_path, monkeypatch):
        from asugs.bench import BenchReport, TrialResult
        import asugs.cli as cli_mod

        def fake_compare(*args, **kwargs):
            rows = [TrialResult("ASUGS", 0, 0, -1, None, None, 0.0, [],
                                error="synthetic failure")]
            report = BenchReport(checkpoints=[10], rows=rows)
            report.aggregates = {}
            return report

        monkeypatch.setattr(cli_mod, "compare_variants", fake_compare)
        code = main(["compare", "--truth", str(dataset_dir / "truth.json"),
                     "--trials", "1", "--out", str(tmp_path / "bench")])
        assert code == 4


class TestDiagnose:
    def test_theory_sweeps_pass(self, capsys):
        assert main(["diagnose"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 15  # 3 ratio checks + 12 bound cells

    def test_run_diagnostics_without_truth_warns(self, dataset_dir, tmp_path, capsys):
        code = main(["diagnose", "--train", str(dataset_dir / "train.csv"),
                     "--prior-var", "0.025",
                     "--out", str(tmp_path / "diag.jsonl")])
        assert code == EXIT_OK
        assert "truth-relative metrics disabled" in capsys.readouterr().err

    def test_run_diagnostics_with_truth(self, dataset_dir, tmp_path):
        diag = tmp_path / "diag.jsonl"
        code = main(["diagnose", "--train", str(dataset_dir / "train.csv"),
                     "--truth", str(dataset_dir / "truth.json"),
                     "--prior-var", "0.025", "--checkpoint-every", "250",
                     "--out", str(diag)])
        assert code == EXIT_OK
        trace = read_trace(diag)
        assert len(trace.checkpoints) == 2
        assert trace.checkpoints[-1].kl_estimate is not None

    @pytest.mark.parametrize(
        "truth_text",
        [
            "",
            '{"weights": [1.0]}',
            # a valid mixture in d = 3 against two-column training data
            '{"weights": [1.0], "means": [[0.0, 0.0, 0.0]], '
            '"covariances": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]}',
            # non-finite fields: a NaN mean, NaN weights, a NaN covariance
            '{"weights": [1.0], "means": [[NaN, 0.0]], "covariances": [[[1.0, 0.0], [0.0, 1.0]]]}',
            '{"weights": [NaN, NaN], "means": [[0.0, 0.0], [1.0, 1.0]], '
            '"covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]}',
            '{"weights": [1.0], "means": [[0.0, 0.0]], "covariances": [[[1.0, NaN], [NaN, 1.0]]]}',
        ],
    )
    def test_malformed_truth_is_data_error(self, dataset_dir, tmp_path, truth_text, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(truth_text)
        code = main(["diagnose", "--train", str(dataset_dir / "train.csv"),
                     "--truth", str(truth), "--checkpoint-every", "250"])
        assert code == EXIT_DATA
        assert str(truth) in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["0", "-5"])
    def test_nonpositive_checkpoint_interval_is_config_error(self, dataset_dir, every, capsys):
        code = main(["diagnose", "--train", str(dataset_dir / "train.csv"),
                     "--checkpoint-every", every])
        assert code == EXIT_CONFIG
        assert "checkpoint_every" in capsys.readouterr().err


@pytest.mark.parametrize("flags, prior", [
    ([], None), (["--prior-var", "0.025"], PriorConfig.from_scale(2, 0.025)),
])
def test_run_defaults_are_the_library_defaults(dataset_dir, tmp_path, flags, prior):
    """Given no other engine or prior flag, fit, diagnose and compare record
    the config that ``EngineConfig`` and ``PriorConfig.from_scale`` default
    to, and diagnose and compare use the checkpoint interval and the sizes
    that ``run_with_diagnostics`` and ``compare_variants`` default to."""
    want = json.loads(json.dumps(config_record(EngineConfig(prior=prior).resolve(2))))
    train, fit, diag, bench = (str(dataset_dir / "train.csv"), tmp_path / "fit.jsonl",
                               tmp_path / "diag.jsonl", tmp_path / "bench")
    assert main(["fit", "--train", train, "--out", str(fit), *flags]) == EXIT_OK
    assert main(["diagnose", "--train", train, "--out", str(diag), *flags]) == EXIT_OK
    assert main(["compare", "--truth", str(dataset_dir / "truth.json"), "--trials", "1",
                 "--out", str(bench), *flags]) == EXIT_OK
    for path in (fit, diag):
        with open(path) as fh:
            assert json.loads(fh.readline()) == {"kind": "config", **want}
    report = json.loads((bench / "report.json").read_text())
    assert report["base_config"] == want

    def default(function, name):
        return inspect.signature(function).parameters[name].default
    every = default(run_with_diagnostics, "checkpoint_every")
    assert [c.n for c in read_trace(diag).checkpoints] == list(range(every, 501, every))
    assert report["checkpoints"][-1] == default(compare_variants, "n_train")
    row = json.loads((bench / "rows.jsonl").read_text().splitlines()[0])
    n_test = row["heldout_total"] / row["heldout_per_sample"]
    assert n_test == pytest.approx(default(compare_variants, "n_test"))


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_failing_step_is_data_error_naming_the_row(tmp_path, command, capsys):
    """Rows offset by 1e9 make the first update's sigma numerically rank
    one under the default prior, so step 1 fails: the CLI names row 1 in
    one line and exits 3, with no traceback and no output file."""
    train = tmp_path / "offset.csv"
    np.savetxt(train, np.random.default_rng(7).standard_normal((50, 2)) + 1e9,
               fmt="%.17g", delimiter=",")
    out = tmp_path / "t.jsonl"
    assert main([command, "--train", str(train), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "data error: row 1: Matrix is not positive definite"
    assert not any("Traceback" in line for line in err)
    assert not out.exists()


def source_tree_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(asugs.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_module_entry_point_runs_from_source_tree():
    done = subprocess.run([sys.executable, "-m", "asugs", "--help"], env=source_tree_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: asugs" in done.stdout


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now raises
import asugs, asugs.bench, asugs.cli, asugs.data, asugs.diagnostics
from asugs.cli import main
data, out = sys.argv[1] + "/data", sys.argv[1]
codes = [
    main(["generate", "--out", data, "--n-train", "120", "--n-test", "60"]),
    main(["fit", "--train", data + "/train.csv", "--test", data + "/test.csv",
          "--prior-var", "0.025", "--out", out + "/trace.jsonl"]),
    main(["diagnose", "--train", data + "/train.csv", "--truth", data + "/truth.json",
          "--prior-var", "0.025", "--checkpoint-every", "60", "--out", out + "/diag.jsonl"]),
]
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_runtime_imports_no_scipy(tmp_path):
    """The installed package needs numpy only: generate, fit and diagnose
    run in an interpreter where importing scipy fails, and load no scipy
    module.  (The tests themselves use scipy as an oracle.)"""
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                          env=source_tree_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 3, "scipy": []}
