"""End-to-end tests of the command-line driver and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asugs
from asugs.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from asugs.data import read_csv, read_trace, read_truth


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

    def test_fixed_alpha_engages_argmax(self, dataset_dir, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = main(["fit", "--train", str(dataset_dir / "train.csv"),
                     "--fixed-alpha", "1.0", "--prior-var", "0.025",
                     "--out", str(trace_path)])
        assert code == EXIT_OK
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


class TestCompare:
    def test_requires_train_or_truth(self):
        assert main(["compare", "--trials", "1"]) == EXIT_CONFIG

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
        cfg = json.loads((out / "report.json").read_text())["config"]
        for field in ("lam", "selection", "prune_eps", "merge_eps",
                      "maintenance_period", "seed", "prior"):
            assert field in cfg
        assert cfg["prior"]["sigma0"] is not None

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


def test_module_entry_point_runs_from_source_tree():
    src = Path(asugs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "asugs", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: asugs" in done.stdout
