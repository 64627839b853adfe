"""Paired in-process timing of two source trees on one perfbench workload.

    python3 tools/paired.py SRC_A SRC_B WORKLOAD ROUNDS   (ROUNDS even)

SRC_A and SRC_B are directories that hold an ``asugs`` package, such as
the ``src`` of two checkouts.  Both packages are copied, renamed
``asugs_a`` and ``asugs_b``, into a temporary directory and imported into
this one process.  After one untimed call of each, every round calls the
workload's operation once with each package, alternating which goes first,
and times each call with ``time.process_time``.  The script prints each
round's times and B/A ratio.  Rounds 2i - 1 (A first) and 2i (B first) form
pair i, whose ratio is the geometric mean of the two rounds' B/A: a constant
factor on the call that goes second (on a shared 2-core host, the second call
was the slower one in 10 of 11 rounds) multiplies one round's ratio and
divides the other's, so it cancels.  The script ends with the median over
pairs and the number of pairs in which B took less time; ROUNDS must be even.

The inputs are perfbench's (``perfbench/inputs.py``, full size, seed 1),
and each operation is the one ``perfbench/rep.py`` times, with its
configuration.  ``compare`` runs its trials in this process, one worker,
so that ``process_time`` counts them.  BLAS is pinned to one thread, as
in perfbench.

perfbench starts one process per repetition, and on a shared host the
speed of a process can differ from the next one's by about 10%; here both
trees share one process and alternate.  This is a developer aid: neither
the tests nor the benchmark run it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import importlib
import math
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import GRID_SIGMA2, SIZES, WORKLOADS, make_inputs  # noqa: E402

SEED = 1


def install(src: str, name: str, into: str) -> None:
    """Copy the ``asugs`` package under src to into/name, renaming its imports."""
    package = Path(into, name)
    package.mkdir()
    for module in Path(src, "asugs").glob("*.py"):
        (package / module.name).write_text(re.sub(r"\basugs\b", name, module.read_text()))


def operation(name: str, workload: str, paths: dict):
    """A call that runs the workload's operation with package ``name``."""
    data, engine, niw = (importlib.import_module(f"{name}.{module}")
                         for module in ("data", "engine", "niw"))
    size = SIZES["full"][workload]
    if workload == "compare":
        bench = importlib.import_module(f"{name}.bench")
        truth = data.read_truth(paths["truth"])
        config = engine.EngineConfig(seed=1000 * SEED, prior=niw.PriorConfig.from_scale(
            2, 0.1, 24)).resolve(2)
        return lambda: bench.compare_variants(config, trials=size["trials"], truth=truth,
                                              n_train=size["n_train"], n_test=size["n_test"])
    train, test = data.read_csv(paths["train"]), data.read_csv(paths["test"])
    truth = data.read_truth(paths["truth"]) if workload == "diagnose" else None
    d = train.dim
    if workload == "wide-fit":
        config = engine.EngineConfig(seed=SEED, prior=niw.PriorConfig.from_scale(d, 1.0, 2 * d),
                                     prune_eps=0.0, merge_eps=0.0).resolve(d)
    else:
        config = engine.EngineConfig(seed=SEED, prior=niw.PriorConfig.from_scale(
            d, GRID_SIGMA2, 64)).resolve(d)

    def call():
        if workload == "diagnose":
            diagnostics = importlib.import_module(f"{name}.diagnostics")
            trace = diagnostics.run_with_diagnostics(
                train.rows, config, truth=truth, checkpoint_every=size["checkpoint_every"])
        else:
            trace = engine.run(train.rows, config)
        if workload == "grid-fit":
            data.write_trace(paths["trace"], trace)
            data.read_trace(paths["trace"])
        data.heldout_loglik(trace.final_book, test)

    return call


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("rounds", type=int)
    args = parser.parse_args()
    if args.rounds < 2 or args.rounds % 2:
        parser.error(f"ROUNDS must be a positive even number (AB/BA pairs), got {args.rounds}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = make_inputs(args.workload, SEED, SIZES["full"][args.workload], Path(tmp))
        paths["trace"] = str(Path(tmp, "trace.jsonl"))
        for name, src in (("asugs_a", args.src_a), ("asugs_b", args.src_b)):
            install(src, name, tmp)
        sys.path.insert(0, tmp)
        calls = [operation(name, args.workload, paths) for name in ("asugs_a", "asugs_b")]
        for call in calls:  # untimed: imports, first-call set-up
            call()
        ratios = []
        for r in range(args.rounds):
            times = [0.0, 0.0]
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                gc.collect()
                start = time.process_time()
                calls[side]()
                times[side] = time.process_time() - start
            ratios.append(times[1] / times[0])
            print(f"round {r + 1:3d} ({'AB' if order[0] == 0 else 'BA'}): A {times[0]:.4f} s, "
                  f"B {times[1]:.4f} s, B/A {ratios[-1]:.4f}")
    pairs = [math.sqrt(ab * ba) for ab, ba in zip(ratios[::2], ratios[1::2])]
    for i, pair in enumerate(pairs):
        print(f"pair {i + 1:3d} (rounds {2 * i + 1}, {2 * i + 2}): B/A {pair:.4f}")
    wins = sum(pair < 1.0 for pair in pairs)
    print(f"{args.workload}: median pair B/A {statistics.median(pairs):.4f}, "
          f"B lower in {wins}/{len(pairs)} pairs")


if __name__ == "__main__":
    main()
