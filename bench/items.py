"""Workload items and the benchmark's own reference answers.

Nothing here asks the code under test what the right answer is.  Family
sizes, matching numbers, Gallai-Edmonds sets and maximum-matching counts
come from closed forms derived by hand from the family definitions; MGF
text and witness lines are re-read with a small parser of this file, and
odd components are recounted here.  A command whose output disagrees with
a reference is a failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import clock

# `matchex verify` enumerates at most this many matchings unless --cap is
# given (documented default of the CLI).
DEFAULT_CAP = 100_000
BIG_CAP = "1000000"


# -- closed forms --------------------------------------------------------------


def count_F(r: int) -> int:
    """Maximum matchings of F(r): choose the 3 triangles left near-perfect
    and which vertex each exposes (the hubs take one vertex from three
    distinct other triangles), times 3 per remaining triangle."""
    return 8 * r * (r - 1) * (r - 2) * 3 ** (r - 3)


def count_GH(r: int) -> int:
    """Maximum matchings of G(r) and H(r): the three hubs match into three
    distinct triangles, ordered, and each of the 2r-2 others exposes one
    of its 3 vertices."""
    return (2 * r + 1) * (2 * r) * (2 * r - 1) * 3 ** (2 * r - 2)


COUNT_B2 = 448  # brute-force oracle count for B(2)


@dataclass(frozen=True)
class Facts:
    """What a family member must look like, from the family definitions.

    `s` is the Tutte-Berge set (the Gallai-Edmonds A side) and `d` the
    vertices some maximum matching leaves exposed.
    """

    name: str
    family: str
    r: int
    n: int
    m: int
    support_edges: int
    degrees: str
    deficiency: int
    s: frozenset[int]
    d: frozenset[int]

    @property
    def nu(self) -> int:
        return (self.n - self.deficiency) // 2

    @property
    def strong(self) -> bool:
        """Every two vertices of D share a neighbour: in B(r) two copy
        vertices share a pair vertex, in F(r) two triangle vertices share a
        hub.  In G(r) and H(r) v1 and v2 of different triangles do not."""
        return self.family in ("B", "F")


def facts(family: str, r: int) -> Facts:
    if family == "B":
        pairs = 2 * r * r - r
        n = pairs + 2 * r * r
        return Facts(f"B{r}", family, r, n, 2 * r * pairs, 2 * r * pairs,
                     f"biregular({2 * r},{2 * r - 1})", r,
                     frozenset(range(pairs)), frozenset(range(pairs, n)))
    blocks = r if family == "F" else 2 * r + 1
    n = 3 + 3 * blocks
    hubs, triangles = frozenset((0, 1, 2)), frozenset(range(3, n))
    if family == "F":
        return Facts(f"F{r}", family, r, n, 3 * r * (r + 1), 9 * blocks,
                     f"regular({2 * r})", r - 3, hubs, triangles)
    m = 3 * (2 * r + 1) * (r + 1)
    if family == "G":
        return Facts(f"G{r}", family, r, n, m, 6 * blocks,
                     f"regular({2 * r + 1})", 2 * r - 2, hubs, triangles)
    return Facts(f"H{r}", family, r, n, m - blocks, 6 * blocks,
                 f"irregular(max={2 * r + 1},min={2 * r})", 2 * r - 2, hubs, triangles)


# -- independent reading of MGF text and CLI lines ------------------------------


@dataclass(frozen=True)
class Graph:
    n: int
    bundles: dict[tuple[int, int], int]
    adj: tuple[frozenset[int], ...]

    def weighted_degree(self, v: int) -> int:
        return sum(m for (a, b), m in self.bundles.items() if v in (a, b))


def read_mgf(text: str) -> Graph:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "mgf":
        raise ValueError("no MGF header")
    n = int(lines[0][1])
    bundles: dict[tuple[int, int], int] = {}
    adj: list[set[int]] = [set() for _ in range(n)]
    for tok in lines[1:]:
        if tok[0] == "#":
            continue
        u, v, m = (int(t) for t in tok)
        if not (0 <= u < v < n) or m < 1 or (u, v) in bundles:
            raise ValueError(f"bad bundle {u} {v} {m}")
        bundles[(u, v)] = m
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, bundles, tuple(frozenset(a) for a in adj))


def odd_components_without(g: Graph, s: frozenset[int]) -> int:
    seen = [v in s for v in range(g.n)]
    odd = 0
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack, size = [start], 1
        while stack:
            for w in g.adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    size += 1
                    stack.append(w)
        odd += size % 2
    return odd


def fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def int_list(text: str) -> list[int]:
    return [] if text == "(none)" else [int(x) for x in text.split(",")]


def check_matching_witness(g: Graph, f: Facts, w: dict[str, str],
                           want_sharing: bool) -> list[str]:
    """The witness matching is a maximum matching of the graph, `exposed`
    is what it leaves, and `pair` does (or does not) share a neighbour."""
    edges = [] if w["matching"] == "(empty)" else [
        tuple(int(x) for x in e.split("-")) for e in w["matching"].split(",")]
    used = [v for e in edges for v in e]
    problems = []
    if any(tuple(sorted(e)) not in g.bundles for e in edges) or len(set(used)) != len(used):
        problems.append("witness is not a matching of the graph")
    if len(edges) != f.nu:
        problems.append(f"witness matching has {len(edges)} edges, nu is {f.nu}")
    exposed = int_list(w["exposed"])
    if exposed != sorted(set(range(g.n)) - set(used)):
        problems.append("witness exposed set is not the matching's exposed set")
    if "pair" in w:
        a, b = (int(x) for x in w["pair"].split(","))
        shared = g.adj[a] & g.adj[b]
        if a not in exposed or b not in exposed:
            problems.append("witness pair is not exposed")
        elif want_sharing and int(w.get("common", -1)) not in shared:
            problems.append("witness pair has no such common neighbour")
        elif not want_sharing and shared:
            problems.append("witness pair shares a neighbour")
    elif not want_sharing:
        problems.append("holds-witness names no lonely pair")
    return problems


# -- commands --------------------------------------------------------------------


@dataclass
class Outcome:
    elapsed: float  # command time at the reference speed (clock.py)
    graphs: int
    decided: int
    problems: list[str]
    wall: float  # the same command time before scaling


class CliCommand:
    """One `matchex verify|info` call, in-process through `cli.main`."""

    def __init__(self, key: str, argv: list[str], member: Facts,
                 check: Callable[["CliCommand", int, list[str]], list[str]]):
        self.key = key
        self.argv = argv
        self.member = member
        self.graph: Optional[Graph] = None  # set once the MGF file is written
        self._check = check

    def run(self, mods, round_: int) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        block = clock.Block()
        try:
            with block, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mods.cli.main(self.argv)
        except Exception as exc:  # a crash is a failed command, not the end of the run
            return Outcome(block.scaled, 1, 0, [f"raised {exc!r}"], block.wall)
        lines = out.getvalue().splitlines()
        try:
            problems = self._check(self, rc, lines)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output {lines[:2]!r}: {exc!r}"]
        decided = 0 if problems or lines[0].startswith("verdict=inconclusive") else 1
        return Outcome(block.scaled, 1, decided, problems, block.wall)


def _expect(got: dict[str, str], **want) -> list[str]:
    return [f"{k}={got.get(k)} (want {v})" for k, v in want.items() if got.get(k) != str(v)]


def expect_verdict(verdict: str, method: str, matchings: Optional[int], exhaustive: bool,
                   rc: int):
    """Checker for a verify line plus its witness line."""
    def check(cmd: CliCommand, got_rc: int, lines: list[str]) -> list[str]:
        head = fields(lines[0])
        want = dict(verdict=verdict, method=method, exhaustive=str(exhaustive).lower())
        if matchings is not None:
            want["matchings"] = matchings
        problems = _expect(head, **want)
        if got_rc != rc:
            problems.append(f"exit code {got_rc} (want {rc})")
        f, w = cmd.member, fields(lines[1])
        if method == "certificate":
            kind = "strong" if f.strong else "weak"
            problems += _expect(w, certificate=kind, deficiency=f.deficiency)
            if kind == "strong" and set(int_list(w["exposable"])) != f.d:
                problems.append("strong certificate exposable set is not D")
            if kind == "weak":
                problems += _expect(w, classes=3, hubs="0,1,2")
        else:
            problems += check_matching_witness(cmd.graph, f, w, verdict == "counterexample")
        return problems
    return check


def check_info(cmd: CliCommand, rc: int, lines: list[str]) -> list[str]:
    f, got = cmd.member, fields(lines[0])
    odd = odd_components_without(cmd.graph, f.s)
    problems = []
    if odd - len(f.s) != f.deficiency:
        problems.append(f"recounted Tutte-Berge: {odd} odd - {len(f.s)} != {f.deficiency}")
    problems += _expect(got, n=f.n, m=f.m, support_edges=f.support_edges, degrees=f.degrees,
                        nu=f.nu, deficiency=f.deficiency, d_size=len(f.d),
                        witness_s=len(f.s), odd_components=odd)
    if rc != 0:
        problems.append(f"exit code {rc} (want 0)")
    return problems


class HuntCommand:
    """One `matchex.hunt.hunt(config)` call with workers=1.

    Round r of a run hunts with a seed derived from the workload seed and
    r, so each timed pass samples fresh graphs; the warm-up pass and timed
    pass 0 share round 0, whose summaries must agree byte for byte.
    """

    def __init__(self, key: str, config_kwargs: dict, control: bool, seed_base: str):
        self.key = key
        self.base = config_kwargs
        self.control = control  # degree <= 3: no counterexample may exist
        self.seed_base = seed_base
        self.summaries: dict[int, str] = {}

    def kwargs(self, round_: int) -> dict:
        seed = random.Random(f"{self.seed_base}/{round_}").getrandbits(32)
        return dict(self.base, seed=seed)

    def run(self, mods, round_: int) -> Outcome:
        k = self.kwargs(round_)
        config = mods.hunt.HuntConfig(**k)
        block = clock.Block()
        try:
            with block:
                summary = mods.hunt.hunt(config, workers=1)
        except Exception as exc:
            return Outcome(block.scaled, k["count"], 0, [f"raised {exc!r}"], block.wall)
        text = mods.hunt.format_summary(summary)
        try:
            problems, decided = self.check(k, summary, text)
        except (KeyError, ValueError, IndexError) as exc:
            problems, decided = [f"unreadable summary: {exc!r}"], 0
        if self.summaries.setdefault(round_, text) != text:
            problems.append("summary differs from an earlier pass with the same seed")
        return Outcome(block.scaled, k["count"], decided, problems, block.wall)

    def check(self, k: dict, summary, text: str) -> tuple[list[str], int]:
        lines = text.splitlines()
        problems = _expect(fields(lines[0]), degree=k["degree"], n_min=k["n_min"],
                           n_max=k["n_max"], count=k["count"], seed=k["seed"],
                           simple_only=str(k["simple_only"]).lower())
        items = [fields(ln) for ln in lines[1:-1]]
        if [int(it["index"]) for it in items] != list(range(k["count"])):
            problems.append("item lines are not indices 0..count-1")
        lo = k["degree"] + 1 if k["simple_only"] else 2
        for it in items:
            n = int(it["n"])
            if not (max(lo, k["n_min"]) <= n <= k["n_max"]) or n * k["degree"] % 2:
                problems.append(f"item {it['index']} has infeasible n={n}")
        verdicts = [it["verdict"] for it in items]
        tally = {v: verdicts.count(v) for v in ("holds", "counterexample", "inconclusive")}
        problems += _expect(fields(lines[-1]), graphs=k["count"], holds=tally["holds"],
                            counterexamples=tally["counterexample"],
                            inconclusive=tally["inconclusive"])
        if self.control and tally["counterexample"]:
            problems.append(f"control hunt reports {tally['counterexample']} counterexamples")
        ce = [it for it in summary.items if it.verdict == "counterexample"]
        if len(summary.counterexamples) != len(ce):
            problems.append("a counterexample item carries no MGF")
        for it in ce:
            g = read_mgf(it.mgf or "mgf 0")
            if g.n != it.n or any(g.weighted_degree(v) != k["degree"] for v in range(g.n)):
                problems.append(f"counterexample {it.index} is not {k['degree']}-regular on n={it.n}")
            if k["simple_only"] and any(m > 1 for m in g.bundles.values()):
                problems.append(f"counterexample {it.index} has parallel edges")
        return problems, tally["holds"] + tally["counterexample"]


# -- workloads -----------------------------------------------------------------


def _verify(f: Facts, mode: Optional[str], cap: Optional[str], check) -> CliCommand:
    argv = ["verify", "@" + f.name]
    if mode is not None:
        argv += ["--mode", mode]
    if cap is not None:
        argv += ["--cap", cap]
    key = f"verify {f.name} {mode or 'default'}" + (f" cap={cap}" if cap else "")
    return CliCommand(key, argv, f, check)


def _exhaustive(f: Facts, mode: str, count: int) -> CliCommand:
    return _verify(f, mode, BIG_CAP, expect_verdict("counterexample", "enumeration",
                                                      count, True, 1))


def _certified(f: Facts, mode: Optional[str]) -> CliCommand:
    return _verify(f, mode, None, expect_verdict("counterexample", "certificate", 0, False, 1))


def _info(f: Facts) -> CliCommand:
    return CliCommand(f"info {f.name}", ["info", "@" + f.name], f, check_info)


def verify_enumerate(smoke: bool) -> list[CliCommand]:
    B2 = facts("B", 2)
    if smoke:
        return [_exhaustive(B2, "all-pairs", COUNT_B2)]
    G3, H3, G4, F5, F6 = (facts("G", 3), facts("H", 3), facts("G", 4),
                          facts("F", 5), facts("F", 6))
    return [
        _exhaustive(B2, "all-pairs", COUNT_B2),
        _exhaustive(G3, "some-pair", count_GH(3)),
        _exhaustive(H3, "some-pair", count_GH(3)),
        _exhaustive(F5, "all-pairs", count_F(5)),
        _exhaustive(F5, "some-pair", count_F(5)),
        _exhaustive(F6, "all-pairs", count_F(6)),
        # runs to the default cap, then the weak certificate decides
        _verify(G4, "some-pair", None, expect_verdict("counterexample", "certificate",
                                                       DEFAULT_CAP, False, 1)),
        # stops at the first matching with an exposed pair sharing no neighbour
        _verify(G3, "all-pairs", None, expect_verdict("holds", "enumeration", None, False, 0)),
    ]


def structure_large(smoke: bool) -> list[CliCommand]:
    if smoke:
        return [_info(facts("B", 3))]
    cmds = []
    for f in (facts("B", 6), facts("B", 8), facts("G", 20), facts("F", 60)):
        cmds += [_info(f), _certified(f, "conjecture")]
    return cmds + [_certified(facts("B", 10), None), _certified(facts("G", 40), None)]


def hunt_regular(seed: int, smoke: bool) -> list[HuntCommand]:
    def hunt(i: int, key: str, control: bool, **config) -> HuntCommand:
        return HuntCommand(key, config, control, f"{seed}/{i}")

    if smoke:
        return [hunt(0, "hunt d3 n10-14 control", True,
                     degree=3, n_min=10, n_max=14, count=20, simple_only=True)]
    return [
        # rejection-heavy: about 99% of the time is in the sampler
        hunt(0, "hunt d5 n20-30 simple", False,
             degree=5, n_min=20, n_max=30, count=100, simple_only=True),
        # first pairing usually accepted: blossom solves on sparse large graphs
        hunt(1, "hunt d4 n200-300 multi", False,
             degree=4, n_min=200, n_max=300, count=400, simple_only=False),
        hunt(2, "hunt d3 n100-200 control", True,
             degree=3, n_min=100, n_max=200, count=50, simple_only=True),
    ]


WORKLOADS = ("verify-enumerate", "structure-large", "hunt-regular")


def commands(workload: str, seed: int, smoke: bool) -> list:
    if workload == "verify-enumerate":
        return verify_enumerate(smoke)
    if workload == "structure-large":
        return structure_large(smoke)
    return hunt_regular(seed, smoke)


def members(cmds: list) -> list[Facts]:
    """Family members the commands read, each once, in first-use order."""
    seen: dict[str, Facts] = {}
    for c in cmds:
        if isinstance(c, CliCommand):
            seen.setdefault(c.member.name, c.member)
    return list(seen.values())


def bind_files(cmds: list, paths: dict[str, Path], graphs: dict[str, Graph]) -> None:
    """Point each `@<member>` argument at its MGF file."""
    for c in cmds:
        if isinstance(c, CliCommand):
            c.argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in c.argv]
            c.graph = graphs[c.member.name]


def check_member(f: Facts, text: str) -> list[str]:
    g = read_mgf(text)
    got_m = sum(g.bundles.values())
    if (g.n, got_m, len(g.bundles)) != (f.n, f.m, f.support_edges):
        return [f"{f.name}: MGF has n={g.n} m={got_m} support={len(g.bundles)}, "
                f"want n={f.n} m={f.m} support={f.support_edges}"]
    return []


def corrupt(cmds: list) -> None:
    """Make the first command's reference wrong (self-test of the gate)."""
    cmd = cmds[0]
    if isinstance(cmd, CliCommand):
        cmd.member = dataclasses.replace(cmd.member, deficiency=cmd.member.deficiency + 2)
    else:
        cmd.summaries[0] = "a summary no hunt prints\n"
