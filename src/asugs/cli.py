"""Command-line driver: dataset generation, single fits, variant
comparisons and diagnostics emission.

Exit codes: 0 success, 2 configuration error (an output that exists
without --force included), 3 data error (malformed or mismatched input,
a path that cannot be read or written, or a row at which the engine's
step fails), 4 at least one comparison trial failed.  Every output file
embeds the fully resolved configuration, so a run is reproducible from
its outputs.  The driver states no run default of its own: a flag whose
value the library defaults is passed on only when it is given, and its
help reads that default from the library.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

import asugs.bench
from asugs.bench import VARIANTS, compare_variants, variant_config
from asugs.data import (
    HELDOUT_SEED_OFFSET,
    DataError,
    config_record,
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
from asugs.engine import ConfigError, EngineConfig, StepError, run
from asugs.niw import PriorConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRIAL = 4


def _given(args, *names: str) -> dict:
    """The values of the named flags that the command line gives: a flag the
    library defaults stays off ``args`` unless given (``_flag``)."""
    return {name: vars(args)[name] for name in names if name in vars(args)}


def _flag(p, flag: str, owner, dest: str, help: str = "", type=float, **kw) -> None:
    """A flag that passes on ``owner``'s parameter ``dest`` only when given,
    so ``owner`` (a class or a function) states its default, which the help
    reads from it."""
    default = inspect.signature(owner).parameters[dest].default
    help += "" if default is None else f" (default {default})"
    p.add_argument(flag, dest=dest, type=type, default=argparse.SUPPRESS, help=help.lstrip(), **kw)


def _engine_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--lambda", EngineConfig, "lam", "rate parameter of the adaptive concentration")
    _flag(p, "--fixed-alpha", EngineConfig, "fixed_alpha",
          "hold the concentration fixed (greedy baseline mode)")
    _flag(p, "--prune-eps", EngineConfig, "prune_eps",
          "relative-weight removal threshold (0 disables)")
    _flag(p, "--merge-eps", EngineConfig, "merge_eps",
          "responsibility-distance merge threshold (0 disables)")
    _flag(p, "--maintenance-period", EngineConfig, "maintenance_period",
          "steps between prune/merge sweeps", type=int)
    _flag(p, "--seed", EngineConfig, "seed", type=int)
    p.add_argument("--prior-var", type=float, default=argparse.SUPPRESS,
                   help="expected per-axis within-cluster variance; builds a "
                        "scale prior (default: identity covariance prior)")
    _flag(p, "--prior-strength", PriorConfig.from_scale, "pseudo_obs",
          "pseudo-observation count behind --prior-var", metavar="PRIOR_STRENGTH")
    _flag(p, "--prior-c0", PriorConfig.from_scale, "c0",
          "location-shrinkage count used with --prior-var", metavar="PRIOR_C0")


_PRIOR_FLAGS = {"sigma0": "--prior-var", "delta0": "--prior-strength", "c0": "--prior-c0"}


def _build_config(args, d: int) -> EngineConfig:
    prior, scale = None, _given(args, "pseudo_obs", "c0")
    if "prior_var" in vars(args):
        try:
            prior = PriorConfig.from_scale(d, args.prior_var, **scale)
        except (ValueError, np.linalg.LinAlgError) as exc:
            # the prior's messages name its field; an indefinite sigma0 fails
            # in the factorisation, whose message names none
            field = next((f for f in _PRIOR_FLAGS if f in str(exc)), "sigma0")
            raise ConfigError(f"{_PRIOR_FLAGS[field]}: {exc}") from exc
    elif scale:  # both shape the prior that --prior-var builds
        flag = "--prior-strength" if "pseudo_obs" in scale else "--prior-c0"
        raise ConfigError(f"{flag} needs --prior-var")
    engine = _given(args, *(f.name for f in fields(EngineConfig)))
    return EngineConfig(**engine, prior=prior).resolve(d)


def _require_new(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def cmd_generate(args) -> int:
    sizes = {"--side": args.side, "--sigma2": args.sigma2, "--spacing": args.spacing,
             "--n-train": args.n_train, "--n-test": args.n_test}
    for flag, value in sizes.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "train.csv", out / "test.csv", out / "truth.json"]
    for p in paths:
        _require_new(p, args.force)
    mix = generate_grid_mixture(args.side, args.sigma2, args.spacing)
    train = sample_mixture(mix, args.n_train, seed=args.seed)
    test = sample_mixture(mix, args.n_test, seed=HELDOUT_SEED_OFFSET + args.seed)
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
    alpha = cfg.alpha(trace.final_book)
    print(f"n={trace.n} final_k={trace.k} alpha_n={alpha:.4f} trace={out}")
    if test is not None:
        total, per = heldout_loglik(trace.final_book, test)
        print(f"heldout total={total:.4f} per_sample={per:.6f} ({test.n} rows)")
    return EXIT_OK


def cmd_compare(args) -> int:
    sizes = _given(args, "workers", "n_train", "n_test")
    for name, value in {"trials": args.trials, **sizes}.items():
        if value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    if args.test and not args.train:
        raise ConfigError("--test needs --train (with --truth alone, trials draw their test rows)")
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
        cfg, trials=args.trials, train=train, test=test, truth=truth, **sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rows.jsonl", "w") as fh:
        for r in report.rows:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")
    with open(out / "report.json", "w") as fh:
        json.dump(
            {
                "base_config": config_record(cfg),
                "variant_configs": {v: config_record(variant_config(cfg, v)) for v in VARIANTS},
                "trials": args.trials,
                "checkpoints": report.checkpoints,
                "aggregates": report.aggregates,
                "runtime_s": "a group mean: each row's fit time is its worker's run_many "
                             "time over the number of runs in that call",
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
    trace = run_with_diagnostics(train.rows, cfg, truth=truth,
                                 **_given(args, "checkpoint_every"))
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
    for flag, dest in (("--n-train", "n_train"), ("--n-test", "n_test"), ("--workers", "workers")):
        _flag(c, flag, asugs.bench.compare_variants, dest, type=int)  # not a stand-in bound here
    c.add_argument("--out", default="bench")
    _engine_flags(c)
    c.set_defaults(func=cmd_compare)  # no --selection: each variant sets its own label rule

    d = sub.add_parser("diagnose", help="theory checks plus checkpointed run diagnostics")
    d.add_argument("--train", default=None)
    d.add_argument("--truth", default=None)
    _flag(d, "--checkpoint-every", run_with_diagnostics, "checkpoint_every", type=int)
    d.add_argument("--out", default=None)
    _engine_flags(d)
    d.set_defaults(func=cmd_diagnose)
    for p in (f, d):
        _flag(p, "--selection", EngineConfig, "selection",
              "label rule; defaults to sample, or argmax with --fixed-alpha",
              type=str, choices=("sample", "argmax"))
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
    except StepError as exc:
        print(f"data error: row {exc.step}: {exc.__cause__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
