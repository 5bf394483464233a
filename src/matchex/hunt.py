"""Randomized search for counterexamples among d-regular graphs.

Graphs are drawn with a configuration-model sampler that pairs stubs
sequentially (Fisher-Yates, two stubs at a time) and restarts at the first
loop or, for simple graphs, the first repeated pair.  Each item of a hunt
re-derives its own RNG seed from (config.seed, index) with a fixed 64-bit
mixing function, so results do not depend on execution order and a hunt
can be split across worker processes without changing its output.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .multigraph import Multigraph, serialize_mgf
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
        return Multigraph(n).freeze()
    stubs = [v for v in range(n) for _ in range(degree)]
    last = len(stubs) - 1
    # stub i draws its partner j uniformly from [i+1, last] by rejection on
    # getrandbits, which is exact and keeps to the public Random API
    steps = [(i, last - i, (last - i).bit_length()) for i in range(0, last, 2)]
    getrandbits = rng.getrandbits
    for _ in range(max_retries):
        seen: set[int] = set()
        for i, span, bits in steps:
            j = getrandbits(bits)
            while j >= span:
                j = getrandbits(bits)
            j += i + 1
            u, v = stubs[i], stubs[j]
            stubs[j] = stubs[i + 1]
            stubs[i + 1] = v
            if u == v:
                break
            if simple_only:
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    break
                seen.add(key)
        else:
            counts: dict[tuple[int, int], int] = {}
            for u, v in zip(stubs[0::2], stubs[1::2]):
                key = (u, v) if u < v else (v, u)
                counts[key] = counts.get(key, 0) + 1
            g = Multigraph(n)
            for (u, v), m in sorted(counts.items()):
                g.add_edges(u, v, m)
            return g.freeze()
    raise GenerationError(
        f"no acceptable {degree}-regular pairing on {n} vertices "
        f"in {max_retries} attempts")


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

    def feasible_sizes(self) -> tuple[int, ...]:
        lo = max(self.n_min, self.degree + 1) if self.simple_only else max(self.n_min, 2)
        return tuple(n for n in range(lo, self.n_max + 1) if (n * self.degree) % 2 == 0)

    def validate(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.n_min > self.n_max:
            raise ValueError(f"need n_min <= n_max, got [{self.n_min}, {self.n_max}]")
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

    @property
    def item_seeds(self) -> tuple[int, ...]:
        return tuple(it.seed for it in self.items)


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
