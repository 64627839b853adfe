"""Paired in-process timing of two source trees on one perfbench workload.

    python3 tools/paired.py SRC_A SRC_B WORKLOAD ROUNDS   (ROUNDS even)

SRC_A and SRC_B are directories that hold an ``asugs`` package, such as
the ``src`` of two checkouts.  Each package is imported as it is, module
by module, into this one process, and its modules are then taken out of
``sys.modules``; before each call, the modules of the tree being called
are put back.  Each call is the workload's operation from
``perfbench/rep.py`` (``rep.OPERATIONS``), with its configuration and its
output checks, on perfbench's inputs (``perfbench/inputs.py``, full size,
seed 1).  ``compare`` runs its trials in this process, one worker, so
that ``process_time`` counts them.  BLAS is pinned to one thread, as in
perfbench.

After one untimed call of each, every round calls the operation once with
each tree, alternating which goes first, and times each whole call with
``time.process_time``.  The script prints each round's times and B/A
ratio, each side's fit time per observation and each side's wall time.
The fit time is the operation's ``fit_s`` over its ``n_obs``
(perfbench's ``fit_us_per_obs``, unscaled, wall clock), which leaves out
what the operation does around the fit, such as reading, sampling and
scoring the held-out set; the wall time is its ``t_end - t_start``
(perfbench's ``wall_s``, unscaled), which includes them.  Rounds 2i - 1
(A first) and 2i (B first) form pair i, whose ratio is the geometric mean
of the two rounds' B/A: a constant factor on the call that goes second
(on a shared 2-core host, the second call was the slower one in 10 of 11
rounds) multiplies one round's ratio and divides the other's, so it
cancels.  For the call time, the fit time and the wall time, the script
ends with the median over pairs and the number of pairs in which B took
less time, then each side's median and quartiles over its calls.  Where
A's quartile spread (Q3 - Q1) exceeds the difference of the two medians,
the line says "unresolved": the calls cannot tell the trees apart.

A call whose result counts a failed operation stops the script with its
problems.  The script then says whether every call of A and every call of
B gave the same output digests, and exits with status 1 if they did not.

perfbench starts one process per repetition, and on a shared host the
speed of a process can differ from the next one's by about 10%; here both
trees share one process and alternate.  This is a developer aid: neither
the tests nor the benchmark run it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import rep  # noqa: E402  (imports no numpy)

os.environ.update(dict.fromkeys(rep.BLAS_VARS, "1"))  # before numpy is imported
from inputs import SIZES, WORKLOADS, make_inputs  # noqa: E402

SEED = 1
CLOCK = SimpleNamespace(ready=rep.now)  # rep's Clock without the reference kernel


def load(src: str) -> dict:
    """Every module of the ``asugs`` package under src, imported and then
    taken out of ``sys.modules``."""
    package = Path(src, "asugs")
    sys.path.insert(0, src)
    try:
        for module in pkgutil.iter_modules([str(package)]):
            importlib.import_module(f"asugs.{module.name}")
    finally:
        sys.path.remove(src)
    modules = {name: module for name, module in sys.modules.items()
               if name == "asugs" or name.startswith("asugs.")}
    for name in modules:
        del sys.modules[name]
    return modules


def call(modules: dict, workload: str, paths: dict) -> dict:
    """The workload's operation with the tree's modules; stops on a failure."""
    sys.modules.update(modules)
    spec = {"seed": SEED, "size": SIZES["full"][workload], "workers": 1}
    out = rep.OPERATIONS[workload](spec, paths, CLOCK)
    if out["failed"]:
        sys.exit(f"error: {out['failed']} failed operation(s): " + "; ".join(out["problems"]))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("rounds", type=int)
    args = parser.parse_args()
    if args.rounds < 2 or args.rounds % 2:
        parser.error(f"ROUNDS must be a positive even number (AB/BA pairs), got {args.rounds}")
    srcs = [os.path.abspath(src) for src in (args.src_a, args.src_b)]
    for src in srcs:
        if not Path(src, "asugs", "__init__.py").is_file():
            sys.exit(f"error: no asugs package under {src}")
    trees = [load(src) for src in srcs]
    digests = [set(), set()]
    with tempfile.TemporaryDirectory() as tmp:
        paths = make_inputs(args.workload, SEED, SIZES["full"][args.workload], Path(tmp))
        paths["trace"] = str(Path(tmp, "trace.jsonl"))
        for tree in trees:  # untimed: first-call set-up
            call(tree, args.workload, paths)
        values = {what: ([], []) for what in ("", " fit us/obs", " wall s")}
        for r in range(args.rounds):
            times, fits, walls = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                gc.collect()
                start = time.process_time()
                out = call(trees[side], args.workload, paths)
                times[side] = time.process_time() - start
                fits[side] = 1e6 * out["fit_s"] / out["n_obs"]
                walls[side] = out["t_end"] - out["t_start"]
                digests[side].add(json.dumps(out["digest"], sort_keys=True))
            for sides, measured in zip(values.values(), (times, fits, walls)):
                for side in (0, 1):
                    sides[side].append(measured[side])
            print(f"round {r + 1:3d} ({'AB' if order[0] == 0 else 'BA'}): A {times[0]:.4f} s, "
                  f"B {times[1]:.4f} s, B/A {times[1] / times[0]:.4f}; fit A {fits[0]:.3f} "
                  f"us/obs, B {fits[1]:.3f} us/obs, B/A {fits[1] / fits[0]:.4f}; wall A "
                  f"{walls[0]:.4f} s, B {walls[1]:.4f} s, B/A {walls[1] / walls[0]:.4f}")
    for what, sides in values.items():
        summarise(args.workload, what, sides)
    if len(digests[0]) == 1 and digests[0] == digests[1]:
        print(f"{args.workload}: digests equal: {digests[0].pop()}")
        return
    print(f"{args.workload}: digests differ: A {sorted(digests[0])}, B {sorted(digests[1])}")
    sys.exit(1)


def summarise(workload: str, what: str, sides: tuple[list[float], list[float]]) -> None:
    """Print each pair's geometric-mean B/A of rounds 2i - 1 and 2i, their
    median and the number of pairs in which B was lower; then each side's
    median and quartiles over its calls, and whether A's quartile spread
    exceeds the difference of the medians."""
    ratios = [b / a for a, b in zip(*sides)]
    pairs = [math.sqrt(ab * ba) for ab, ba in zip(ratios[::2], ratios[1::2])]
    for i, pair in enumerate(pairs):
        print(f"pair {i + 1:3d} (rounds {2 * i + 1}, {2 * i + 2}):{what} B/A {pair:.4f}")
    wins = sum(pair < 1.0 for pair in pairs)
    print(f"{workload}:{what} median pair B/A {statistics.median(pairs):.4f}, "
          f"B lower in {wins}/{len(pairs)} pairs")
    (a1, a, a3), (b1, b, b3) = (statistics.quantiles(side, n=4) for side in sides)
    verdict = "unresolved" if a3 - a1 > abs(b - a) else "resolved"
    print(f"{workload}:{what} A median {a:.4f} (Q1 {a1:.4f}, Q3 {a3:.4f}), B median {b:.4f} "
          f"(Q1 {b1:.4f}, Q3 {b3:.4f}); A's spread {a3 - a1:.4f} against |B - A| "
          f"{abs(b - a):.4f}: {verdict}")


if __name__ == "__main__":
    main()
