"""Command-line interface.

Commands read MGF from a file argument or stdin ("-"), write results to
stdout and diagnostics to stderr.  Exit codes: 0 holds / no counterexample,
1 counterexample confirmed, 2 parse or configuration error,
3 inconclusive, 4 internal error (an unexpected exception, never a
verdict).  Output is byte-identical across repeated runs; the only
environment hook is MATCHEX_CAP, which overrides the default enumeration
cap when no --cap flag is given.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from . import families, verify
from .hunt import DEFAULT_RETRY_BUDGET, HuntConfig, format_summary
from .hunt import hunt as run_hunt
from .matching import Matching, analyze, tutte_berge_witness, visit_maximum_matchings
from .multigraph import MGFParseError, Multigraph, export_dot, parse_mgf, serialize_mgf

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

CAP_ENV_VAR = "MATCHEX_CAP"


def _default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return verify.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


def _load_graph(path: str) -> Multigraph:
    if path == "-":
        return parse_mgf(sys.stdin.read())
    return parse_mgf(Path(path).read_text(encoding="utf-8"))


def _fmt_edges(m: Matching) -> str:
    return ",".join(f"{u}-{v}" for u, v in m.sorted_edges()) or "(empty)"


def _fmt_ints(vals) -> str:
    return ",".join(str(v) for v in vals) or "(none)"


def _print_witness(witness: verify.Witness) -> None:
    if witness is None:
        return
    if isinstance(witness, verify.MatchingWitness):
        line = f"witness matching={_fmt_edges(witness.matching)} exposed={_fmt_ints(witness.exposed)}"
        if witness.pair is not None:
            line += f" pair={witness.pair[0]},{witness.pair[1]}"
        if witness.common is not None:
            line += f" common={witness.common}"
        print(line)
    elif isinstance(witness, verify.StrongCertificate):
        print(f"witness certificate=strong deficiency={witness.deficiency} "
              f"exposable={_fmt_ints(sorted(witness.exposable))}")
    elif isinstance(witness, verify.WeakCertificate):
        hubs = _fmt_ints(cls.hub for cls in witness.classes)
        print(f"witness certificate=weak deficiency={witness.deficiency} "
              f"classes={len(witness.classes)} hubs={hubs}")


def _report_exit(report: verify.VerificationReport) -> int:
    print(f"verdict={report.verdict.value} method={report.method} "
          f"matchings={report.matchings_examined} "
          f"exhaustive={str(report.exhaustive).lower()}")
    if report.detail:
        print(f"detail: {report.detail}", file=sys.stderr)
    _print_witness(report.witness)
    if report.verdict is verify.Verdict.HOLDS:
        return EXIT_OK
    if report.verdict is verify.Verdict.COUNTEREXAMPLE:
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE


def _cmd_build(args: argparse.Namespace) -> int:
    spec = families.FamilySpec(args.family, args.r)
    g = families.build_family(spec)
    stats = families.expected_stats(spec)
    text = serialize_mgf(g)
    stats_line = (f"family={spec.family} r={spec.r} n={stats.vertex_count} "
                  f"m={stats.weighted_edge_count} "
                  f"degrees={stats.degree_profile.describe()} "
                  f"expected_deficiency={stats.expected_deficiency}")
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        print(stats_line, file=sys.stderr)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(stats_line)
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    analysis = analyze(g)
    tb = tutte_berge_witness(analysis)
    # (hi, lo)-biregular bipartite is exactly: every edge joins degree hi
    # to degree lo, for then the two degree classes 2-colour the graph
    degrees = [g.degree(v) for v in range(g.n)]
    if not degrees:
        shape = "empty"
    else:
        hi, lo = max(degrees), min(degrees)
        if hi == lo:
            shape = f"regular({hi})"
        elif all({degrees[u], degrees[v]} == {hi, lo} for u, v, _ in g.bundles()):
            shape = f"biregular({hi},{lo})"
        else:
            shape = f"irregular(max={hi},min={lo})"
    print(f"n={g.n} m={g.weighted_edge_count()} support_edges={g.support_edge_count()} "
          f"degrees={shape} nu={len(analysis.matching)} deficiency={analysis.deficiency} "
          f"d_size={len(analysis.ge.d)} witness_s={len(tb.s)} odd_components={tb.odd_count}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cap = args.cap if args.cap is not None else _default_cap()
    if args.mode == "conjecture":
        report = verify.conjecture_holds(g, cap=cap)
    else:
        mode = (verify.PairMode.ALL_PAIRS if args.mode == "all-pairs"
                else verify.PairMode.SOME_PAIR)
        report = verify.is_counterexample(g, mode, cap=cap)
    return _report_exit(report)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cap = args.cap if args.cap is not None else _default_cap()

    def emit(m: Matching) -> bool:
        print(_fmt_edges(m))
        return True

    stats = visit_maximum_matchings(analyze(g), emit, cap=cap)
    print(f"count={stats.count} exhaustive={str(stats.exhaustive).lower()}")
    return EXIT_OK


def _cmd_hunt(args: argparse.Namespace) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    config = HuntConfig(
        degree=args.degree, n_min=args.min_n, n_max=args.max_n, count=args.count,
        seed=args.seed, simple_only=not args.allow_parallel, cap=cap,
        max_retries=args.retries)
    summary = run_hunt(config, workers=args.workers)
    sys.stdout.write(format_summary(summary))
    if args.dump_dir is not None and summary.counterexamples:
        dump = Path(args.dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        for item in summary.counterexamples:
            (dump / f"counterexample_{item.index}.mgf").write_text(
                item.mgf, encoding="utf-8")
    return EXIT_COUNTEREXAMPLE if summary.counterexample_count else EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    highlight = analyze(g).matching.exposed(g.n) if args.mark_exposed else ()
    export_dot(g, sys.stdout, highlight=highlight)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchex",
        description="Multigraph maximum-matching toolkit: build counterexample "
                    "families, verify exposed-pair properties, hunt regular graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a family graph as MGF")
    p.add_argument("--family", required=True, choices=list(families.FAMILIES))
    p.add_argument("--r", required=True, type=int, help="size parameter")
    p.add_argument("--out", help="output path (default: stdout, stats to stderr)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("info", help="print structural statistics")
    p.add_argument("graph", nargs="?", default="-", help="MGF path or - for stdin")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("verify", help="verdict on the exposed-pair property")
    p.add_argument("graph", nargs="?", default="-", help="MGF path or - for stdin")
    p.add_argument("--mode", choices=["conjecture", "all-pairs", "some-pair"],
                   default="conjecture")
    p.add_argument("--cap", type=int, help="enumeration cap")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list all maximum matchings")
    p.add_argument("graph", nargs="?", default="-", help="MGF path or - for stdin")
    p.add_argument("--cap", type=int, help="enumeration cap")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hunt", help="search random regular graphs")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--min-n", type=int, default=10)
    p.add_argument("--max-n", type=int, default=14)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, help="enumeration cap per graph")
    p.add_argument("--allow-parallel", action="store_true",
                   help="sample multigraphs instead of simple graphs")
    p.add_argument("--retries", type=int, default=DEFAULT_RETRY_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-dir", help="write counterexample MGF files here")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("export-dot", help="emit DOT, one edge per multiplicity unit")
    p.add_argument("graph", nargs="?", default="-", help="MGF path or - for stdin")
    p.add_argument("--mark-exposed", action="store_true",
                   help="fill the vertices one maximum matching leaves exposed")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MGFParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
