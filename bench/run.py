#!/usr/bin/env python3
"""matchex benchmark: time to verdict and hunt throughput, layer by layer.

Run from the repository root, one workload per interpreter:

    python3 bench/run.py --workload verify-enumerate --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the checkout this file sits in and
driven through its public entry points: `matchex.cli.main(argv)` in-process
with stdout and stderr captured, and `matchex.hunt.hunt(config, workers=1)`.
Everything runs in this one single-threaded process; no pool is started.

Phases:
  setup   import the package, then three rounds of building the family
          members and writing their MGF files (median round counted), then
          one warm-up pass; `setup_s` is the sum.
  passes  whole passes over the workload's commands until the next pass
          would end after --seconds, and at least `MIN_PASSES`.
  check   every command's answer is compared with the references in
          items.py; any mismatch makes the run fail (exit code 1).

With --trace 0 the result line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, spans are recorded by
wrappers around the program's public functions (spans.py), written to
bench/out/, and the per-layer metrics are reported.  A human-readable
table goes to stderr; the last line of stdout is one JSON object.

Exit codes: 0 all answers correct, 1 some answer wrong, 2 the program or
the arguments are missing.

Every time reported with --trace 0 is a wall time scaled to the speed of
a reference host by a calibration kernel sampled before, during and after
it (clock.py); the raw wall times are printed on stderr beside them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import clock
import items
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 1
SETUP_ROUNDS = 3

# name -> unit, in the order they are printed
END_TO_END = {
    "items_per_s": "graphs/s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Passes every run makes, whatever --seconds says.  The tail percentile is
# fixed from this floor (see tail_quantile) so that runs which fit more
# passes still report the same quantile of the command mix.
MIN_PASSES = {"verify-enumerate": 4, "structure-large": 3, "hunt-regular": 7}


def tail_quantile(workload: str, per_pass: int) -> float:
    """Highest quantile with at least 10 samples beyond it in every run."""
    floor = MIN_PASSES[workload] * per_pass
    return max(0.0, (floor - 10) / floor)


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density over each
    one's share of [0, 1], so it does not hang on a single sample."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if a < 1 or b < 1:  # too few samples for a tail: the nearest rank
        return ordered[max(0, math.ceil(q * n) - 1)]
    steps = 64 * n  # midpoint rule, 64 points per order statistic
    weights = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        weights[j * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def timings(passes: list[list[items.Outcome]], q: float, attr: str) -> dict[str, float]:
    """The timing metrics, from the scaled (`elapsed`) or raw (`wall`) times."""
    samples = [getattr(o, attr) for p in passes for o in p]
    return {
        "items_per_s": sum(o.decided for p in passes for o in p) / sum(samples),
        "cmd_p50_s": statistics.median(
            statistics.fmean(getattr(p[i], attr) for p in passes) for i in range(len(passes[0]))),
        "cmd_tail_s": harrell_davis(samples, q),
    }


def import_program() -> SimpleNamespace:
    if not (SRC / "matchex" / "__init__.py").is_file():
        raise FileNotFoundError(f"no matchex package under {SRC}")
    sys.path.insert(0, str(SRC))
    # import_module returns the module even where the package re-exports a
    # function of the same name (`matchex.hunt`)
    mods = SimpleNamespace(**{layer: importlib.import_module(f"matchex.{layer}")
                              for layer in spans.LAYERS})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"matchex was imported from {mods.cli.__file__}, not {SRC}")
    return mods


def build_round(mods, members: list[items.Facts], workdir: Path) -> dict[str, str]:
    """Build the family members and write their MGF files; return the texts."""
    texts = {}
    for f in members:
        g = mods.families.build_family(mods.families.FamilySpec(f.family, f.r))
        text = mods.multigraph.serialize_mgf(g)
        (workdir / f"{f.name}.mgf").write_text(text, encoding="utf-8")
        texts[f.name] = text
    return texts


def run_pass(mods, cmds, round_: int, tracer=None) -> list[items.Outcome]:
    outcomes = []
    for cmd in cmds:
        if tracer is not None:
            tracer.item, tracer.part = cmd.key, f"pass{round_}"
        outcomes.append(cmd.run(mods, round_))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=items.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the hunt configs; family inputs take no seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small command per workload (used by selftest.py)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="make one reference answer wrong, to show the gate fails")
    args = parser.parse_args(argv)
    os.environ.pop("MATCHEX_CAP", None)  # the references assume the default cap

    try:
        mods, import_s = clock.timed(import_program)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cmds = items.commands(args.workload, args.seed, args.smoke)
    if args.corrupt_reference:
        items.corrupt(cmds)
    members = items.members(cmds)
    tracer = spans.Tracer() if args.trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, mods, cmds, members, tracer, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, mods, cmds, members, tracer, workdir: Path, import_s: float) -> int:
    problems: list[str] = []

    # setup: build and write the family members, several rounds
    if tracer is not None:
        tracer.install(mods)
    rounds = []
    for i in range(SETUP_ROUNDS):
        if tracer is not None:
            tracer.item, tracer.part = "build", f"setup{i}"
        texts, build_s = clock.timed(lambda: build_round(mods, members, workdir))
        rounds.append(build_s)
    if tracer is not None:
        tracer.uninstall()
    member_problems = [msg for f in members for msg in items.check_member(f, texts[f.name])]
    problems += member_problems
    graphs = {f.name: items.read_mgf(texts[f.name]) for f in members}
    items.bind_files(cmds, {f.name: workdir / f"{f.name}.mgf" for f in members}, graphs)

    outcomes = run_pass(mods, cmds, 0)
    setup_s = import_s + statistics.median(rounds) + sum(o.elapsed for o in outcomes)

    # timed passes; with tracing, untraced and traced passes alternate
    passes: list[list[items.Outcome]] = []
    pass_s = {False: [], True: []}  # scaled command time of each pass
    start = time.perf_counter()
    last = 0.0
    while (len(passes) < MIN_PASSES[args.workload]
           or time.perf_counter() - start + last <= args.seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(mods)
        t0 = time.perf_counter()
        done = run_pass(mods, cmds, len(passes), tracer if traced else None)
        last = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        pass_s[traced].append(sum(o.elapsed for o in done))
        passes.append(done)

    all_outcomes = outcomes + [o for p in passes for o in p]
    for label, done in [("warm-up", outcomes)] + [(f"pass {i}", p) for i, p in enumerate(passes)]:
        for cmd, o in zip(cmds, done):
            problems += [f"{label}: {cmd.key}: {msg}" for msg in o.problems]
    failed = sum(1 for o in all_outcomes if o.problems) + len(member_problems)
    attempted = len(all_outcomes) + len(members)

    q = tail_quantile(args.workload, len(cmds))
    graphs_done = sum(o.graphs for o in all_outcomes)
    if tracer is None:
        metrics = {
            **timings(passes, q, "elapsed"),
            "decided_frac": sum(o.decided for o in all_outcomes) / graphs_done,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (
            statistics.median(pass_s[True]) / statistics.median(pass_s[False]) - 1)
        units = spans.PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)

    report = sys.stderr
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} commands/pass={len(cmds)}", file=report)
    raw = timings(passes, q, "wall")
    for name, unit in units.items():
        note = f"  (raw wall {raw[name]:.6g})" if tracer is None and name in raw else ""
        if name == "cmd_tail_s":
            note += f"  (p{100 * q:.1f} of {len(passes) * len(cmds)} commands)"
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit}{note}", file=report)
    print(f"  {'failed_frac':36s} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})",
          file=report)
    if tracer is not None:
        print(f"  spans written to {trace_path.relative_to(ROOT)}", file=report)
    for msg in problems[:20]:
        print(f"FAIL {msg}", file=report)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
