"""Regular-graph sampler and seeded hunt driver."""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import os
from collections import Counter

import pytest

# the package re-exports the hunt *function*, which shadows the submodule
# attribute; resolve the module itself for monkeypatching
hunt_mod = importlib.import_module("matchex.hunt")

from matchex import (
    GenerationError,
    HuntConfig,
    HuntItem,
    Multigraph,
    Verdict,
    VerificationReport,
    derive_item_seed,
    format_summary,
    hunt,
    parse_mgf,
    random_regular_graph,
)
from matchex.verify import METHOD_CERTIFICATE

from conftest import complete_graph, cycle_graph

# ------------------------------------------------------------ seed mixing


def test_derive_item_seed_frozen_values():
    # these values are a compatibility contract: summaries embed them
    assert derive_item_seed(0, 0) == 12035550249420947055
    assert derive_item_seed(7, 0) == 7259628554680249319
    assert derive_item_seed(7, 99) == 7160181103218014169
    assert derive_item_seed(-1, 2) == 18160513901656682925


def test_derive_item_seed_spreads():
    seeds = {derive_item_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


# ---------------------------------------------------------------- sampler


@pytest.mark.parametrize("n, d", [(4, 3), (8, 3), (10, 3), (9, 4), (12, 5)])
def test_random_regular_simple(n, d):
    g = random_regular_graph(n, d, seed=5)
    assert g.n == n
    assert all(g.degree(v) == d for v in range(n))
    assert all(m == 1 for _, _, m in g.bundles())


def test_random_regular_deterministic():
    assert random_regular_graph(10, 3, seed=9) == random_regular_graph(10, 3, seed=9)
    assert random_regular_graph(8, 3, seed=1) != random_regular_graph(8, 3, seed=2)


def test_random_regular_unique_graph_is_k5():
    assert random_regular_graph(5, 4, seed=123) == complete_graph(5)


def test_random_regular_multigraph_mode():
    # a loopless cubic draw on 4 vertices keeps a parallel pair with
    # probability 19/31, so twenty seeds show one; loops never survive
    draws = [random_regular_graph(4, 3, seed=s, simple_only=False) for s in range(20)]
    for g in draws:
        assert all(g.degree(v) == 3 for v in range(4))
        assert all(u != v for u, v, _ in g.bundles())
    assert any(m > 1 for g in draws for _, _, m in g.bundles())


def test_random_regular_degenerate_cases():
    assert random_regular_graph(0, 0, seed=1).n == 0
    g = random_regular_graph(3, 0, seed=1)
    assert g.n == 3 and g.support_edge_count() == 0


def test_random_regular_validation():
    with pytest.raises(ValueError):
        random_regular_graph(-1, 2, seed=0)
    with pytest.raises(ValueError):
        random_regular_graph(4, -1, seed=0)
    with pytest.raises(ValueError):
        random_regular_graph(5, 3, seed=0)  # odd stub count
    with pytest.raises(ValueError):
        random_regular_graph(3, 3, seed=0)  # simple needs n > degree
    with pytest.raises(ValueError):
        random_regular_graph(1, 2, seed=0, simple_only=False)
    with pytest.raises(ValueError):
        random_regular_graph(4, 2, seed=0, max_retries=0)


def test_random_regular_retry_exhaustion():
    # a single triangle pairing is simple with probability 8/15, so twenty
    # one-attempt budgets see a rejection, and every success is the triangle
    raised = 0
    for s in range(20):
        try:
            g = random_regular_graph(3, 2, seed=s, max_retries=1)
        except GenerationError:
            raised += 1
        else:
            assert g == cycle_graph(3)
    assert raised > 0
    g = random_regular_graph(3, 2, seed=0)  # default budget succeeds
    assert g == cycle_graph(3)


def _chi_square(draws: list, weights: dict) -> float:
    """Pearson statistic of the draws against cell weights (any scale)."""
    total = sum(weights.values())
    observed = Counter(draws)
    assert set(observed) <= set(weights), "a draw outside the support"
    return sum((observed[c] - len(draws) * w / total) ** 2 / (len(draws) * w / total)
               for c, w in weights.items())


def _stub_pairings(stubs: list[int]):
    """Every perfect matching of a list of stubs, as lists of pairs."""
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for k, partner in enumerate(rest):
        for tail in _stub_pairings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + tail


def test_random_regular_simple_is_uniform():
    # the 70 labelled cubic graphs on 6 vertices, by brute force over the
    # 9-edge subsets of K6; 14000 draws against the uniform law, chi-square
    # below its 0.999 quantile at 69 degrees of freedom
    cubic = set()
    for edges in itertools.combinations(itertools.combinations(range(6), 2), 9):
        if all(sum(v in e for e in edges) == 3 for v in range(6)):
            g = Multigraph(6)
            for u, v in edges:
                g.add_edges(u, v)
            cubic.add(tuple(g.bundles()))
    assert len(cubic) == 70
    draws = [tuple(random_regular_graph(6, 3, seed=s).bundles()) for s in range(14000)]
    assert _chi_square(draws, dict.fromkeys(cubic, 1)) < 111.06


def test_random_regular_multigraph_follows_configuration_model():
    # loopless configuration model on 4 vertices, degree 3: a multigraph's
    # weight is its number of stub pairings, (3!)^4 / prod(m_e!);
    # 6000 draws, chi-square below its 0.999 quantile at 9 degrees of freedom
    weights: Counter = Counter()
    for pairing in _stub_pairings([v for v in range(4) for _ in range(3)]):
        if all(u != v for u, v in pairing):
            g = Multigraph(4)
            for u, v in pairing:
                g.add_edges(u, v)
            weights[tuple(g.bundles())] += 1
    assert len(weights) == 10
    for key, w in weights.items():
        assert w * math.prod(math.factorial(m) for _, _, m in key) == 6 ** 4
    draws = [tuple(random_regular_graph(4, 3, seed=s, simple_only=False).bundles())
             for s in range(6000)]
    assert _chi_square(draws, weights) < 27.88


# ------------------------------------------------------------- HuntConfig


def test_hunt_config_feasible_sizes():
    cfg = HuntConfig(degree=3, n_min=8, n_max=12, count=1, seed=0)
    assert cfg.feasible_sizes() == (8, 10, 12)
    cfg = HuntConfig(degree=4, n_min=2, n_max=6, count=1, seed=0)
    assert cfg.feasible_sizes() == (5, 6)  # simple needs n > 4
    cfg = HuntConfig(degree=4, n_min=2, n_max=6, count=1, seed=0, simple_only=False)
    assert cfg.feasible_sizes() == (2, 3, 4, 5, 6)
    cfg = HuntConfig(degree=3, n_min=9, n_max=9, count=1, seed=0)
    assert cfg.feasible_sizes() == ()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(degree=0, n_min=4, n_max=8, count=5, seed=0),
        dict(degree=3, n_min=8, n_max=4, count=5, seed=0),
        dict(degree=3, n_min=4, n_max=8, count=0, seed=0),
        dict(degree=3, n_min=4, n_max=8, count=5, seed=0, cap=0),
        dict(degree=3, n_min=4, n_max=8, count=5, seed=0, max_retries=0),
        dict(degree=3, n_min=9, n_max=9, count=5, seed=0),  # no feasible n
    ],
)
def test_hunt_config_validation(kwargs):
    with pytest.raises(ValueError):
        HuntConfig(**kwargs).validate()


# ------------------------------------------------------------------ hunts


def test_hunt_two_regular_graphs_always_hold():
    # disjoint cycles have deficiency <= number of odd cycles, and every
    # maximum matching exposes at most one vertex per cycle
    cfg = HuntConfig(degree=2, n_min=3, n_max=9, count=20, seed=5, simple_only=False)
    summary = hunt(cfg)
    assert summary.graphs_tested == 20
    assert summary.counterexample_count == 0
    assert summary.inconclusive_count == 0
    assert summary.holds_count == 20


def test_hunt_deterministic_and_order_independent():
    cfg = HuntConfig(degree=3, n_min=8, n_max=12, count=30, seed=11)
    a = hunt(cfg)
    b = hunt(cfg)
    assert a == b
    assert format_summary(a) == format_summary(b)
    c = hunt(cfg, workers=2)
    assert format_summary(c) == format_summary(a)


def test_hunt_item_seeds_follow_derivation():
    cfg = HuntConfig(degree=3, n_min=8, n_max=10, count=7, seed=42)
    summary = hunt(cfg)
    assert summary.item_seeds == tuple(derive_item_seed(42, i) for i in range(7))
    assert [it.index for it in summary.items] == list(range(7))
    assert all(it.n in cfg.feasible_sizes() for it in summary.items)


@pytest.mark.parametrize(
    "requested, count, cpus, expect",
    [(1, 5, 2, 1), (2, 5, 2, 2), (3, 5, 2, 2), (3, 2, 4, 2), (3, 5, None, 1)],
)
def test_worker_count_clamped_to_items_and_cpus(monkeypatch, requested, count, cpus, expect):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert hunt_mod._worker_count(requested, count) == expect


def test_hunt_workers_validation():
    cfg = HuntConfig(degree=3, n_min=8, n_max=10, count=2, seed=0)
    with pytest.raises(ValueError):
        hunt(cfg, workers=0)


def test_hunt_invalid_config_rejected():
    with pytest.raises(ValueError):
        hunt(HuntConfig(degree=3, n_min=9, n_max=9, count=5, seed=0))


def test_hunt_records_counterexamples(monkeypatch):
    fake = VerificationReport(
        verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
        matchings_examined=3, exhaustive=False)
    monkeypatch.setattr(hunt_mod, "conjecture_holds", lambda g, cap: fake)
    cfg = HuntConfig(degree=3, n_min=8, n_max=10, count=4, seed=1)
    summary = hunt(cfg)
    assert summary.counterexample_count == 4
    assert len(summary.counterexamples) == 4
    for it in summary.counterexamples:
        g = parse_mgf(it.mgf)
        assert g.n == it.n
        assert all(g.degree(v) == 3 for v in range(g.n))
        # payload reproduces the item's graph: re-deriving from the item
        # seed gives the same MGF
        import random as _random

        rng = _random.Random(it.seed)
        n = rng.choice(cfg.feasible_sizes())
        assert n == it.n
        regen = random_regular_graph(n, cfg.degree, rng.getrandbits(63))
        assert parse_mgf(it.mgf) == regen


def test_hunt_generation_failures_are_inconclusive(monkeypatch):
    def refuse(*args, **kwargs):
        raise GenerationError("forced")

    monkeypatch.setattr(hunt_mod, "random_regular_graph", refuse)
    cfg = HuntConfig(degree=3, n_min=8, n_max=10, count=3, seed=2)
    summary = hunt(cfg)
    assert summary.inconclusive_count == 3
    assert all(it.method == "generation" for it in summary.items)
    assert all(it.mgf is None for it in summary.items)


def test_format_summary_shape():
    cfg = HuntConfig(degree=3, n_min=8, n_max=8, count=2, seed=3)
    text = format_summary(hunt(cfg))
    lines = text.splitlines()
    assert lines[0] == (
        "hunt degree=3 n_min=8 n_max=8 count=2 seed=3 simple_only=true cap=100000"
    )
    assert len(lines) == 4  # header + one line per item + total
    assert all(line.startswith("item index=") for line in lines[1:3])
    assert lines[3].startswith("total graphs=2 holds=")
    assert text.endswith("\n")


# A d5 simple hunt (rejection-heavy) and a d4 multigraph hunt (long
# pairings), seed 5.  The first digest is of the summary; every item of
# both is decided by the short circuit, which reads only n and the degree,
# so the second digest also covers the graph each item drew: the decider
# is replaced by one that flags every graph, so each item carries its MGF.
PINNED_HUNTS = [
    (dict(degree=5, n_min=20, n_max=30, count=20, seed=5),
     "84a41b617e1d70bac4168c8011e62970ce9bb2bbc94f70ea556f3585664fcb89",
     "ecc96252a693e584a356ae3a58b78972fe6e9a0caec374cef4b2cf1d5ab1e135"),
    (dict(degree=4, n_min=200, n_max=300, count=20, seed=5, simple_only=False),
     "2d8f744a25286e3b808ffd12b1c2258711fe81c0fb2b706adf89977020bc3845",
     "ebc6519905ec608c709944191b6cde507a64b468dcfce80a0d965941d694b403"),
]


@pytest.mark.parametrize("kwargs, summary_sha256, graphs_sha256", PINNED_HUNTS,
                         ids=["d5-simple", "d4-multi"])
def test_hunt_bytes_pinned(monkeypatch, kwargs, summary_sha256, graphs_sha256):
    cfg = HuntConfig(**kwargs)
    text = format_summary(hunt(cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == summary_sha256
    flag_all = VerificationReport(
        verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
        matchings_examined=0, exhaustive=False)
    monkeypatch.setattr(hunt_mod, "conjecture_holds", lambda g, cap: flag_all)
    graphs = "".join(it.mgf for it in hunt(cfg).items)
    assert hashlib.sha256(graphs.encode("utf-8")).hexdigest() == graphs_sha256


def test_hunt_summary_accounting_consistency():
    cfg = HuntConfig(degree=4, n_min=5, n_max=9, count=25, seed=13)
    summary = hunt(cfg)
    assert (summary.holds_count + summary.counterexample_count
            + summary.inconclusive_count) == summary.graphs_tested == 25
