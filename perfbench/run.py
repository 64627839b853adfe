"""Benchmark of asugs: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload grid-fit --seed 1 --seconds 30 --trace 0

Workloads: grid-fit, wide-fit, compare, diagnose (see perfbench/NOTES.md);
--workload all runs the four in turn, each printing its own result.
The inputs are generated from --seed.  Each repetition is one fresh
Python process (perfbench/rep.py) with BLAS pinned to one thread, which
hands its whole input to one library call and waits for it: a closed
loop with a single caller.  Repetitions run back to back until
--seconds is spent (at least three, or two cycles with --trace 1), and
every metric is the median over repetitions.  Times are reported at
reference speed: each repetition's times are multiplied by REFERENCE_S
over the time of a fixed reference kernel timed around its operation,
which removes most of a shared host's speed drift.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced repetitions with traced ones, whose asugs functions
are wrapped by perfbench/tracer.py, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record with provenance
goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REFERENCE_S = 0.05  # perfbench/rep.py: the reference kernel's time at reference speed
RUN_LIMIT_S = 170.0  # the whole run, repetitions included, must end before this


class BenchError(RuntimeError):
    pass


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "asugs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_pin": BLAS_PIN,
    }


def run_rep(spec: dict, spec_path: Path, deadline: float) -> dict:
    """Start rep.py in a fresh process and return its JSON record."""
    spec_path.write_text(json.dumps(spec))
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path), str(spawn_ns)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a repetition overran the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"a repetition exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with ten values beyond it.

    Falls back to the median when there are fewer than eleven values.
    """
    v = sorted(values)
    if len(v) < 11:
        return 50.0, median(v)
    return 100.0 * (len(v) - 10) / len(v), v[len(v) - 11]


def end_to_end(reps: list[dict], scaled: bool = True) -> dict[str, float]:
    """Medians over repetitions; times at reference speed unless scaled is False."""
    def t(r, key):
        return r[key] * (r["scale"] if scaled else 1.0)

    return {
        "wall_s": median(t(r, "wall_s") for r in reps),
        "fit_us_per_obs": median(t(r, "fit_s") / r["n_obs"] * 1e6 for r in reps),
        "setup_s": median(t(r, "setup_s") for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "heldout_nll": median(r["heldout_nll"] for r in reps),
    }


def per_layer(traced: list[dict], plain_same: list[dict], plain_real: list[dict],
              units: dict[str, str]) -> dict[str, float]:
    """Medians over traced repetitions; times (unit s or us) at reference speed."""
    def value(r, name):
        return r["layers"][name] * (r["scale"] if units[name] in ("s", "us") else 1.0)

    out = {name: median(value(r, name) for r in traced) for name in traced[0]["layers"]}
    runtimes = [t * r["scale"] for r in plain_real for t in r.get("trial_runtimes", [])]
    out["bench.trial_s.p50"] = median(runtimes) if runtimes else 0.0
    out["bench.trial_s.tail"] = tail(runtimes)[1] if runtimes else 0.0
    out["bench.pool_efficiency"] = (
        median(r["pool_efficiency"] for r in plain_real) if runtimes else 0.0)
    out["tracing.overhead_ratio"] = (
        median(r["wall_s"] * r["scale"] for r in traced)
        / median(r["wall_s"] * r["scale"] for r in plain_same))
    return out


def report(args, workload: str, kinds: list, reps: dict, spec_doc: dict) -> int:
    """Check the repetitions, print the metrics and the result line."""
    all_reps = [r for k in kinds for r in reps[k]]
    good = {k: [r for r in reps[k] if not r["failed"]] for k in kinds}
    problems = [p for r in all_reps for p in r["problems"]]
    if any(not v for v in good.values()):
        for p in dict.fromkeys(problems):
            print(f"problem: {p}", file=sys.stderr)
        print("error: every repetition of some kind failed", file=sys.stderr)
        return 1
    reference = good[kinds[0]][0]["digest"]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    differing = [r for r in all_reps if not r["failed"] and r["digest"] != reference]
    if differing:
        problems.append("outputs differ between repetitions (traced vs untraced, or run to run)")
        failed += sum(r["attempted"] for r in differing)

    if args.trace:
        declared = spec_doc["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        metrics = per_layer(good[(True, 1)], good[(False, 1)], good[kinds[0]], units)
    else:
        declared = spec_doc["end_to_end"]
        metrics = end_to_end(good[kinds[0]])
    missing = [m["name"] for m in declared
               if m["name"] not in metrics or not math.isfinite(metrics[m["name"]])]
    if missing:
        print(f"error: metrics not measured or not finite: {missing}", file=sys.stderr)
        return 1

    prov = provenance(args.seed)
    prov["blas_pin_in_repetitions"] = good[kinds[0]][0]["blas_pin"]
    counts = ", ".join(f"{len(reps[k])} {'traced' if k[0] else 'untraced'} @ {k[1]} worker(s)"
                       for k in kinds)
    print(f"asugs benchmark  workload={workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}  repetitions: {counts}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("digest " + json.dumps(reference, sort_keys=True))
    for m in declared:
        print(f"  {m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    if args.trace and metrics["bench.trial_s.p50"]:
        pct = tail([t for r in good[kinds[0]] for t in r["trial_runtimes"]])[0]
        print(f"  bench.trial_s.tail is the p{pct:.4g} of the trial times")
    print(f"  {'error_rate':<52} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} operations failed)")
    kernel = median(k for r in all_reps if "kernel_s" in r for k in r["kernel_s"])
    unscaled = end_to_end(good[kinds[0]], scaled=False)
    print(f"  times are at reference speed: the reference kernel took {kernel:.4g} s "
          f"(median), {REFERENCE_S} s at reference speed; unscaled wall_s "
          f"{unscaled['wall_s']:.6g} s, fit_us_per_obs {unscaled['fit_us_per_obs']:.6g} us, "
          f"setup_s {unscaled['setup_s']:.6g} s")
    for p in dict.fromkeys(problems):
        print(f"problem: {p}")

    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "provenance": prov, "digest": reference,
        "metrics": metrics, "unscaled_end_to_end": unscaled, "reference_kernel_s": kernel,
        "error_rate": failed / attempted, "problems": problems,
        "repetitions": {f"{'traced' if k[0] else 'untraced'}@{k[1]}": reps[k] for k in kinds},
    }
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def measure(args, workload: str, spec_doc: dict) -> int:
    """Generate the inputs, run the repetitions for --seconds, report."""
    from inputs import SIZES, make_inputs

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    size = SIZES[args.size][workload]
    workers = size.get("workers", 1)
    rundir = WORK / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    # kinds of repetition: (traced, workers); the first is the workload as defined
    kinds = [(False, workers)]
    if args.trace:
        kinds += [(True, 1)] + ([(False, 1)] if workers != 1 else [])
    reps: dict[tuple, list[dict]] = {k: [] for k in kinds}
    try:
        paths = make_inputs(workload, args.seed, size, rundir)
        paths["trace"] = str(rundir / "trace.jsonl")
        min_cycles = 2 if args.trace else 3
        cycles, last_cycle = 0, 0.0
        while cycles < min_cycles or time.monotonic() - t_start + last_cycle <= args.seconds:
            c0 = time.monotonic()
            for traced, w in kinds:
                spec = {
                    "workload": workload, "seed": args.seed, "size": size,
                    "paths": paths, "src": str(SRC), "traced": traced, "workers": w,
                    "spans_out": str(WORK / "results" / f"{workload}-spans.jsonl"),
                }
                reps[(traced, w)].append(run_rep(spec, rundir / "spec.json", deadline))
            cycles += 1
            last_cycle = time.monotonic() - c0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return report(args, workload, kinds, reps, spec_doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for perfbench/selfcheck.py")
    args = ap.parse_args(argv)

    if not (SRC / "asugs" / "__init__.py").is_file():
        print(f"error: no asugs package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy is imported here or in any repetition
    from inputs import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(SRC / "asugs"), quiet=1)  # users run from bytecode
    return max(measure(args, name, spec_doc) for name in names)


if __name__ == "__main__":
    sys.exit(main())
