"""Randomized search for counterexamples among d-regular graphs.

Graphs are drawn with a configuration-model sampler that pairs stubs
sequentially (Fisher-Yates, two stubs at a time) and restarts at the first
loop or, for simple graphs, the first repeated pair.  Each item of a hunt
re-derives its own RNG seed from (config.seed, index) with a fixed 64-bit
mixing function, so results do not depend on execution order and a hunt
can be split across worker processes without changing its output.

An accepted pairing is counted into (u, v) -> multiplicity bundles and
handed to the `Multigraph` constructor in one call, which validates every
bundle.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .multigraph import MGF_MAX_VERTICES, Multigraph, serialize_mgf
from .verify import DEFAULT_CAP, Verdict, conjecture_holds

DEFAULT_RETRY_BUDGET = 10_000

_MASK64 = (1 << 64) - 1


class GenerationError(RuntimeError):
    """Sampler retry budget exhausted."""


def _mix64(z: int) -> int:
    # splitmix64 finalizer: stable, platform-independent avalanche.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_item_seed(seed: int, index: int) -> int:
    """Per-item RNG seed: splitmix64 of the hunt seed xored with the mixed
    item index.  Fixed for all time; summaries depend on it."""
    return _mix64((seed & _MASK64) ^ _mix64(index & _MASK64))


def random_regular_graph(n: int, degree: int, seed: int, *,
                         simple_only: bool = True,
                         max_retries: int = DEFAULT_RETRY_BUDGET) -> Multigraph:
    """Configuration-model d-regular graph on n vertices.

    Each attempt pairs the stubs sequentially: stub i (i even) is paired
    with a uniform stub among the unpaired ones after it, Fisher-Yates
    style, so every attempt is a uniform perfect matching of the stubs
    whatever order earlier attempts left them in.  An attempt is abandoned
    at its first loop (or, with simple_only, its first repeated pair) and
    the pairing restarts from scratch.  Rejecting at the first bad pair
    rejects exactly the pairings a complete shuffle-then-check would, so
    accepted graphs are uniform over simple d-regular graphs, or follow
    the loopless configuration model when simple_only is False.  Raises
    GenerationError when max_retries pairings were all rejected, and
    ValueError for infeasible (n, degree).
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if (n * degree) % 2 != 0:
        raise ValueError(f"n * degree must be even, got {n} * {degree}")
    if degree > 0:
        if simple_only and degree >= n:
            raise ValueError(f"simple {degree}-regular graph needs n > degree, got n={n}")
        if not simple_only and n < 2:
            raise ValueError(f"{degree}-regular graph needs n >= 2, got n={n}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    rng = random.Random(seed)
    if n == 0 or degree == 0:
        return Multigraph(n)
    stubs = [0] * (n * degree)  # degree stubs per vertex, ascending
    for k in range(degree):
        stubs[k::degree] = range(n)
    last = len(stubs) - 1
    # stub i draws its partner j uniformly from [i+1, last] by rejection on
    # getrandbits, which is exact and keeps to the public Random API; step
    # i holds (i, i + 1, last - i, bit length of last - i)
    spans = range(last, 0, -2)
    steps = list(zip(range(0, last, 2), range(1, last + 1, 2), spans,
                     map(int.bit_length, spans)))
    getrandbits = rng.getrandbits
    # one loop per mode, so a step tests only what its mode rejects
    if simple_only:
        for _ in range(max_retries):
            seen: set[int] = set()
            add = seen.add
            for i, i1, span, bits in steps:
                j = getrandbits(bits)
                while j >= span:
                    j = getrandbits(bits)
                j += i1
                u = stubs[i]
                v = stubs[j]
                stubs[j] = stubs[i1]
                stubs[i1] = v
                if u == v:
                    break
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    break
                add(key)
            else:
                return _graph_of_pairing(n, stubs)
    else:
        for _ in range(max_retries):
            for i, i1, span, bits in steps:
                j = getrandbits(bits)
                while j >= span:
                    j = getrandbits(bits)
                j += i1
                v = stubs[j]
                stubs[j] = stubs[i1]
                stubs[i1] = v
                if stubs[i] == v:
                    break
            else:
                return _graph_of_pairing(n, stubs)
    raise GenerationError(
        f"no acceptable {degree}-regular pairing on {n} vertices "
        f"in {max_retries} attempts")


def _graph_of_pairing(n: int, stubs: list[int]) -> Multigraph:
    """The graph whose edges pair stub 2k with stub 2k + 1."""
    return Multigraph(n, Counter([(u, v) if u < v else (v, u)
                                  for u, v in zip(stubs[0::2], stubs[1::2])]))


@dataclass(frozen=True)
class HuntConfig:
    degree: int
    n_min: int
    n_max: int
    count: int
    seed: int
    simple_only: bool = True
    cap: int = DEFAULT_CAP
    max_retries: int = DEFAULT_RETRY_BUDGET

    def feasible_sizes(self) -> range:
        """Vertex counts a hunt may draw, ascending: n * degree even, and
        n > degree for simple graphs or n >= 2 for multigraphs."""
        lo = max(self.n_min, self.degree + 1) if self.simple_only else max(self.n_min, 2)
        if self.degree % 2 == 0:
            return range(lo, self.n_max + 1)
        return range(lo + lo % 2, self.n_max + 1, 2)

    def validate(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.n_min > self.n_max:
            raise ValueError(f"need n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.n_max > MGF_MAX_VERTICES:
            raise ValueError(f"n_max must be <= {MGF_MAX_VERTICES}, the most vertices "
                             f"an MGF file may hold, got {self.n_max}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if not self.feasible_sizes():
            raise ValueError(
                f"no feasible vertex count in [{self.n_min}, {self.n_max}] "
                f"for degree {self.degree}")


@dataclass(frozen=True)
class HuntItem:
    index: int
    seed: int
    n: int
    verdict: str
    method: str
    matchings_examined: int
    exhaustive: bool
    mgf: Optional[str] = None  # counterexamples carry their graph


@dataclass(frozen=True)
class HuntSummary:
    config: HuntConfig
    items: tuple[HuntItem, ...]

    @property
    def graphs_tested(self) -> int:
        return len(self.items)

    @property
    def holds_count(self) -> int:
        return sum(1 for it in self.items if it.verdict == Verdict.HOLDS.value)

    @property
    def counterexample_count(self) -> int:
        return sum(1 for it in self.items if it.verdict == Verdict.COUNTEREXAMPLE.value)

    @property
    def inconclusive_count(self) -> int:
        return sum(1 for it in self.items if it.verdict == Verdict.INCONCLUSIVE.value)

    @property
    def counterexamples(self) -> tuple[HuntItem, ...]:
        return tuple(it for it in self.items if it.mgf is not None)


def _run_item(config: HuntConfig, index: int) -> HuntItem:
    item_seed = derive_item_seed(config.seed, index)
    rng = random.Random(item_seed)
    n = rng.choice(config.feasible_sizes())
    try:
        g = random_regular_graph(n, config.degree, rng.getrandbits(63),
                                 simple_only=config.simple_only,
                                 max_retries=config.max_retries)
    except GenerationError:
        return HuntItem(index=index, seed=item_seed, n=n,
                        verdict=Verdict.INCONCLUSIVE.value, method="generation",
                        matchings_examined=0, exhaustive=False)
    report = conjecture_holds(g, cap=config.cap)
    mgf = None
    if report.verdict is Verdict.COUNTEREXAMPLE:
        mgf = serialize_mgf(g)
    return HuntItem(index=index, seed=item_seed, n=n,
                    verdict=report.verdict.value, method=report.method,
                    matchings_examined=report.matchings_examined,
                    exhaustive=report.exhaustive, mgf=mgf)


def _worker_count(requested: int, count: int) -> int:
    """Processes worth starting: no more than the items or the CPUs."""
    return min(requested, count, os.cpu_count() or 1)


def hunt(config: HuntConfig, workers: int = 1) -> HuntSummary:
    """Test `config.count` random regular graphs.

    Items are independent; with workers > 1 they run in a process pool of
    at most `config.count` and the CPU count processes, and are reassembled
    by index, so the summary is identical either way.
    """
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = _worker_count(workers, config.count)
    indices = range(config.count)
    if workers == 1:
        items = [_run_item(config, i) for i in indices]
    else:
        # imported here, so only a pooled hunt loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            items = list(pool.map(partial(_run_item, config), indices, chunksize=16))
    return HuntSummary(config=config, items=tuple(items))


def format_summary(summary: HuntSummary) -> str:
    """Line-oriented, byte-stable report of a hunt."""
    c = summary.config
    lines = [
        f"hunt degree={c.degree} n_min={c.n_min} n_max={c.n_max} count={c.count} "
        f"seed={c.seed} simple_only={str(c.simple_only).lower()} cap={c.cap}"
    ]
    for it in summary.items:
        lines.append(
            f"item index={it.index} seed={it.seed} n={it.n} verdict={it.verdict} "
            f"method={it.method} matchings={it.matchings_examined} "
            f"exhaustive={str(it.exhaustive).lower()}")
    lines.append(
        f"total graphs={summary.graphs_tested} holds={summary.holds_count} "
        f"counterexamples={summary.counterexample_count} "
        f"inconclusive={summary.inconclusive_count}")
    return "\n".join(lines) + "\n"
