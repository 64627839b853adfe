"""Command-line driver: dataset generation, single fits, variant
comparisons and diagnostics emission.

Exit codes: 0 success, 2 configuration error (an output that exists
without --force included), 3 data error (malformed or mismatched input,
or a path that cannot be read or written), 4 at least one comparison
trial failed.  Every output file embeds the fully
resolved configuration, so a run is reproducible from its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from asugs.bench import VARIANTS, compare_variants
from asugs.data import (
    DataError,
    _config_to_dict,
    generate_grid_mixture,
    heldout_loglik,
    read_csv,
    read_truth,
    sample_mixture,
    write_csv,
    write_trace,
    write_truth,
)
from asugs.diagnostics import (
    harmonic_log_product_ratio,
    loglog_product_bound,
    run_with_diagnostics,
    slope_with_stderr,
)
from asugs.engine import ConfigError, EngineConfig, run
from asugs.niw import PriorConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRIAL = 4


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.3,
                   help="rate parameter of the adaptive concentration (default 0.3)")
    p.add_argument("--fixed-alpha", type=float, default=None,
                   help="hold the concentration fixed (greedy baseline mode)")
    p.add_argument("--selection", choices=("sample", "argmax"), default=None,
                   help="label rule; defaults to sample, or argmax with --fixed-alpha")
    p.add_argument("--prune-eps", type=float, default=0.01,
                   help="relative-weight removal threshold (0 disables)")
    p.add_argument("--merge-eps", type=float, default=0.05,
                   help="responsibility-distance merge threshold (0 disables)")
    p.add_argument("--maintenance-period", type=int, default=50,
                   help="steps between prune/merge sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prior-var", type=float, default=None,
                   help="expected per-axis within-cluster variance; builds a "
                        "scale prior (default: identity covariance prior)")
    p.add_argument("--prior-strength", type=float, default=64.0,
                   help="pseudo-observation count behind --prior-var")
    p.add_argument("--prior-c0", type=float, default=0.01,
                   help="location-shrinkage count used with --prior-var")


def _build_config(args, d: int) -> EngineConfig:
    prior = None
    if args.prior_var is not None:
        prior = PriorConfig.from_scale(
            d, args.prior_var, pseudo_obs=args.prior_strength, c0=args.prior_c0
        )
    cfg = EngineConfig(
        lam=args.lam,
        selection=args.selection,
        fixed_alpha=args.fixed_alpha,
        prune_eps=args.prune_eps,
        merge_eps=args.merge_eps,
        maintenance_period=args.maintenance_period,
        seed=args.seed,
        prior=prior,
    )
    return cfg.resolve(d)


def _require_new(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "train.csv", out / "test.csv", out / "truth.json"]
    for p in paths:
        _require_new(p, args.force)
    mix = generate_grid_mixture(args.side, args.sigma2, args.spacing)
    train = sample_mixture(mix, args.n_train, seed=args.seed)
    test = sample_mixture(mix, args.n_test, seed=40000 + args.seed)
    write_csv(paths[0], train)
    write_csv(paths[1], test)
    write_truth(paths[2], mix, generator_args={
        "side": args.side, "sigma2": args.sigma2, "spacing": args.spacing,
        "n_train": args.n_train, "n_test": args.n_test, "seed": args.seed,
    })
    print(f"wrote {paths[0]} ({train.n} rows), {paths[1]} ({test.n} rows), {paths[2]}")
    return EXIT_OK


def _require_dim(path, dim: int, train_dim: int) -> None:
    if dim != train_dim:
        raise DataError(f"{path}: dim {dim} does not match --train dim {train_dim}")


def cmd_fit(args) -> int:
    train = read_csv(args.train)
    test = read_csv(args.test) if args.test else None
    if test is not None:
        _require_dim(args.test, test.dim, train.dim)
    cfg = _build_config(args, train.dim)
    trace = run(train.rows, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace(out, trace)
    alpha = trace.final_book.alpha(cfg.lam)
    print(f"n={trace.n} final_k={trace.k} alpha_n={alpha:.4f} trace={out}")
    if test is not None:
        total, per = heldout_loglik(trace.final_book, test)
        print(f"heldout total={total:.4f} per_sample={per:.6f} ({test.n} rows)")
    return EXIT_OK


def cmd_compare(args) -> int:
    train = read_csv(args.train) if args.train else None
    test = read_csv(args.test) if args.test else None
    truth = read_truth(args.truth) if args.truth else None
    if train is None and truth is None:
        raise ConfigError("compare needs --train or --truth")
    if train is not None:
        if test is not None:
            _require_dim(args.test, test.dim, train.dim)
        if truth is not None:
            _require_dim(args.truth, truth.dim, train.dim)
    d = train.dim if train is not None else truth.dim
    cfg = _build_config(args, d)
    report = compare_variants(
        cfg, trials=args.trials, train=train, test=test, truth=truth,
        n_train=args.n_train, n_test=args.n_test,
        fixed_alpha=args.fixed_alpha if args.fixed_alpha else 1.0,
        workers=args.workers,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rows.jsonl", "w") as fh:
        for r in report.rows:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")
    with open(out / "report.json", "w") as fh:
        json.dump(
            {
                "config": _config_to_dict(cfg),
                "trials": args.trials,
                "checkpoints": report.checkpoints,
                "aggregates": report.aggregates,
            },
            fh, sort_keys=True, indent=1,
        )
        fh.write("\n")
    failures = [r for r in report.rows if r.error is not None]
    for variant in VARIANTS:
        ks = [r.final_k for r in report.rows if r.variant == variant and not r.error]
        lls = [r.heldout_per_sample for r in report.rows
               if r.variant == variant and not r.error and r.heldout_per_sample is not None]
        ll = f" heldout/sample={np.mean(lls):+.4f}" if lls else ""
        print(f"{variant:9s} final_k={ks}{ll}")
    print(f"wrote {out}/rows.jsonl and {out}/report.json")
    if failures:
        for r in failures:
            print(f"trial failure: {r.variant} trial {r.trial}: {r.error}",
                  file=sys.stderr)
        return EXIT_TRIAL
    return EXIT_OK


def cmd_diagnose(args) -> int:
    print("growth-ratio sweep (n = 1e6):")
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        r = harmonic_log_product_ratio(alpha, 1_000_000)
        inband = abs(r - 1.0) <= (1e-12 if alpha == 1.0 else 0.05)
        ok &= inband
        print(f"  alpha={alpha}: ratio={r:.6f} {'PASS' if inband else 'FAIL'}")
    print("log-log product bound sweep (n <= 1e5):")
    for phi in (0.5, 1.0, 2.0, 5.0):
        for n0 in (2, 10, 100):
            chk = loglog_product_bound(phi, n0, 100_000)
            ok &= chk.holds
            print(f"  phi={phi} start={n0}: "
                  f"{'PASS' if chk.holds else 'FAIL'} min_slack={chk.min_slack:.3e}")

    if not args.train:
        return EXIT_OK if ok else EXIT_TRIAL

    train = read_csv(args.train)
    cfg = _build_config(args, train.dim)
    truth = None
    if args.truth:
        truth = read_truth(args.truth)
        _require_dim(args.truth, truth.dim, train.dim)
    else:
        print("warning: no --truth given; truth-relative metrics disabled",
              file=sys.stderr)
    trace = run_with_diagnostics(
        train.rows, cfg, truth=truth, checkpoint_every=args.checkpoint_every
    )
    if args.out:
        write_trace(Path(args.out), trace)
        print(f"wrote {args.out}")
    lrs = [(c.n, c.likelihood_ratio) for c in trace.checkpoints
           if c.likelihood_ratio is not None]
    if len(lrs) >= 4:
        tail = lrs[len(lrs) // 2:]
        slope, se = slope_with_stderr([t[0] for t in tail], [t[1] for t in tail])
        trend = "no upward trend" if slope <= se else "UPWARD TREND"
        print(f"likelihood-ratio tail slope: {slope:.3e} (se {se:.3e}) -> {trend}")
    print(f"final k={trace.k}; checkpoints={len(trace.checkpoints)}")
    return EXIT_OK if ok else EXIT_TRIAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asugs",
        description="Streaming mixture clustering benchmark driver",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic grid-mixture datasets")
    g.add_argument("--side", type=int, default=4)
    g.add_argument("--sigma2", type=float, default=0.025)
    g.add_argument("--spacing", type=float, default=1.0)
    g.add_argument("--n-train", type=int, default=500)
    g.add_argument("--n-test", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="data")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="run one configuration over a CSV stream")
    f.add_argument("--train", required=True)
    f.add_argument("--test", default=None)
    f.add_argument("--out", default="trace.jsonl")
    _engine_flags(f)
    f.set_defaults(func=cmd_fit)

    c = sub.add_parser("compare", help="run the four variants over seeded trials")
    c.add_argument("--train", default=None)
    c.add_argument("--test", default=None)
    c.add_argument("--truth", default=None)
    c.add_argument("--trials", type=int, default=20)
    c.add_argument("--n-train", type=int, default=500)
    c.add_argument("--n-test", type=int, default=1000)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--out", default="bench")
    _engine_flags(c)
    c.set_defaults(func=cmd_compare)

    d = sub.add_parser("diagnose", help="theory checks plus checkpointed run diagnostics")
    d.add_argument("--train", default=None)
    d.add_argument("--truth", default=None)
    d.add_argument("--checkpoint-every", type=int, default=100)
    d.add_argument("--out", default=None)
    _engine_flags(d)
    d.set_defaults(func=cmd_diagnose)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileExistsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:  # FileExistsError is caught above
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
