"""Regular-graph sampler and seeded hunt driver."""

from __future__ import annotations

import importlib
import os

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

from conftest import complete_graph

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
    g = random_regular_graph(4, 3, seed=0, simple_only=False)
    assert all(g.degree(v) == 3 for v in range(4))
    assert any(m > 1 for _, _, m in g.bundles())  # parallel pair kept
    # loops are never kept in either mode
    assert all(u != v for u, v, _ in g.bundles())


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
    # seed 0 rejects its first triangle pairing; with a budget of one
    # attempt that is fatal
    with pytest.raises(GenerationError):
        random_regular_graph(3, 2, seed=0, max_retries=1)
    g = random_regular_graph(3, 2, seed=0)  # default budget succeeds
    assert all(g.degree(v) == 2 for v in range(3))


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


def test_hunt_summary_accounting_consistency():
    cfg = HuntConfig(degree=4, n_min=5, n_max=9, count=25, seed=13)
    summary = hunt(cfg)
    assert (summary.holds_count + summary.counterexample_count
            + summary.inconclusive_count) == summary.graphs_tested == 25
