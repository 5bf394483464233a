"""End-to-end CLI behavior through main(argv): outputs and exit codes."""

from __future__ import annotations

import hashlib
import io
import sys
import time

import pytest

from matchex import (
    HuntConfig,
    HuntItem,
    HuntSummary,
    build_B,
    build_F,
    build_G,
    build_H,
    hunt,
    parse_mgf,
    serialize_mgf,
)
from matchex import matching as matching_mod
from matchex.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
)

from conftest import cycle_graph, path_graph, random_graph_corpus, star_graph


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unlabeled_G3_mgf() -> str:
    from matchex import Multigraph

    g = build_G(3)
    bare = Multigraph(g.n)
    for u, v, m in g.bundles():
        bare.add_edges(u, v, m)
    return serialize_mgf(bare.freeze())


# -------------------------------------------------------------------- build


def test_build_to_stdout(capsys):
    code, out, err = run_cli(["build", "--family", "B", "--r", "2"], capsys)
    assert code == EXIT_OK
    assert parse_mgf(out) == build_B(2)
    assert err.strip() == ("family=B r=2 n=14 m=24 degrees=biregular(4,3) "
                           "expected_deficiency=2")


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "g3.mgf"
    code, out, err = run_cli(
        ["build", "--family", "G", "--r", "3", "--out", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_text(encoding="utf-8") == serialize_mgf(build_G(3))
    assert out.startswith("family=G r=3 ")
    assert err == ""


def test_build_rejects_small_r(capsys):
    code, out, err = run_cli(["build", "--family", "F", "--r", "4"], capsys)
    assert code == EXIT_ERROR
    assert "error:" in err


def test_build_rejects_unknown_family(capsys):
    code, _, err = run_cli(["build", "--family", "Q", "--r", "3"], capsys)
    assert code == EXIT_ERROR
    assert "invalid choice" in err


# --------------------------------------------------------------------- info


def test_info_G3_golden_line(capsys, monkeypatch):
    code, out, err = run_cli(["info"], capsys, monkeypatch,
                             stdin_text=serialize_mgf(build_G(3)))
    assert code == EXIT_OK
    assert out == ("n=24 m=84 support_edges=42 degrees=regular(7) nu=10 "
                   "deficiency=4 d_size=21 witness_s=3 odd_components=7\n")


def test_info_empty_graph(capsys, monkeypatch):
    code, out, _ = run_cli(["info"], capsys, monkeypatch, stdin_text="mgf 0\n")
    assert code == EXIT_OK
    assert out.startswith("n=0 m=0 support_edges=0 degrees=empty nu=0 deficiency=0")


def test_info_from_file(tmp_path, capsys):
    path = tmp_path / "c4.mgf"
    path.write_text(serialize_mgf(cycle_graph(4)), encoding="utf-8")
    code, out, _ = run_cli(["info", str(path)], capsys)
    assert code == EXIT_OK
    assert "degrees=regular(2) nu=2 deficiency=0" in out


def test_info_missing_file(capsys):
    code, _, err = run_cli(["info", "/nonexistent/path.mgf"], capsys)
    assert code == EXIT_ERROR
    assert "error:" in err


def test_info_biregular_and_irregular(capsys, monkeypatch):
    code, out, _ = run_cli(["info"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_OK
    assert "degrees=biregular(4,3)" in out
    code, out, _ = run_cli(["info"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(path_graph(4)))
    assert "degrees=irregular(max=2,min=1)" in out


# ------------------------------------------------------------------- verify


def test_verify_all_pairs_counterexample(capsys, monkeypatch):
    code, out, err = run_cli(
        ["verify", "--mode", "all-pairs"], capsys, monkeypatch,
        stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_COUNTEREXAMPLE
    lines = out.splitlines()
    assert lines[0] == ("verdict=counterexample method=enumeration "
                        "matchings=448 exhaustive=true")
    assert lines[1].startswith("witness matching=")
    assert " pair=" in lines[1] and " common=" in lines[1]
    assert "detail:" in err


def test_verify_holds(capsys, monkeypatch):
    code, out, _ = run_cli(["verify"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(cycle_graph(4)))
    assert code == EXIT_OK
    assert out.startswith("verdict=holds method=short-circuit")


def test_verify_weak_certificate_under_cap(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--mode", "some-pair", "--cap", "100"], capsys, monkeypatch,
        stdin_text=serialize_mgf(build_G(3)))
    assert code == EXIT_COUNTEREXAMPLE
    lines = out.splitlines()
    assert lines[0] == ("verdict=counterexample method=certificate "
                        "matchings=100 exhaustive=false")
    assert lines[1] == "witness certificate=weak deficiency=4 classes=3 hubs=0,1,2"


def test_verify_strong_certificate_line(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--mode", "conjecture"], capsys, monkeypatch,
        stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_COUNTEREXAMPLE
    assert out.splitlines()[1] == (
        "witness certificate=strong deficiency=2 exposable=6,7,8,9,10,11,12,13")


def test_verify_inconclusive(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--cap", "10"], capsys, monkeypatch,
        stdin_text=unlabeled_G3_mgf())
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("verdict=inconclusive method=enumeration matchings=10")


def test_verify_parse_error(capsys, monkeypatch):
    code, _, err = run_cli(["verify"], capsys, monkeypatch,
                           stdin_text="mgf 2\n0 0 1\n")
    assert code == EXIT_ERROR
    assert "line 2" in err


def two_paths_file(tmp_path, length: int):
    """Two disjoint paths on `length` vertices each, as an MGF file."""
    from matchex import Multigraph

    g = Multigraph(2 * length)
    for start in (0, length):
        for v in range(start, start + length - 1):
            g.add_edges(v, v + 1, 1)
    target = tmp_path / "two_paths.mgf"
    target.write_text(serialize_mgf(g.freeze()), encoding="utf-8")
    return target


@pytest.mark.parametrize("mode", ["some-pair", "all-pairs"])
def test_verify_two_long_paths_decides(tmp_path, capsys, mode):
    # 3002 vertices, deficiency 2: deeper than Python's recursion limit
    target = two_paths_file(tmp_path, 1501)
    code, out, _ = run_cli(["verify", str(target), "--mode", mode], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict=holds method=enumeration matchings=1 exhaustive=false"
    assert lines[1].endswith(" exposed=0,1501" + (" pair=0,1501" if mode == "all-pairs" else ""))
    code, out, _ = run_cli(["info", str(target)], capsys)
    assert code == EXIT_OK
    assert "deficiency=2" in out


def test_verify_deep_enumeration_under_wall_bound(tmp_path, capsys):
    # one branch level per matched edge: 2500 levels before the first matching
    target = two_paths_file(tmp_path, 2501)
    t0 = time.perf_counter()
    code, out, _ = run_cli(["verify", str(target), "--mode", "some-pair"], capsys)
    assert time.perf_counter() - t0 < 30.0
    assert code == EXIT_OK
    assert out.startswith("verdict=holds method=enumeration matchings=1 exhaustive=false\n")


def test_verify_crash_is_internal_error_not_verdict(capsys, monkeypatch):
    # an unexpected exception must not exit 1 (= counterexample)
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("matchex.verify.is_counterexample", crash)
    code, out, err = run_cli(["verify", "--mode", "some-pair"], capsys, monkeypatch,
                             stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "internal error: RecursionError: maximum recursion depth exceeded" in err


def test_verify_bad_cap(capsys, monkeypatch):
    code, _, err = run_cli(["verify", "--cap", "0"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(cycle_graph(4)))
    assert code == EXIT_ERROR
    assert "cap" in err


# ------------------------------------------------- one analysis per decision


def count_solves(monkeypatch):
    """Patch `matching._solve_matching` to count its calls; returns the
    one-element list that holds the count."""
    calls = [0]
    solve = matching_mod._solve_matching

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(matching_mod, "_solve_matching", counted)
    return calls


@pytest.mark.parametrize("argv, graph, solves", [
    (["info"], build_G(3), 1),
    (["verify"], build_B(2), 1),  # strong certificate
    (["verify"], build_G(3), 1),  # weak certificate
    # the enumerator keeps its own base solve
    (["verify", "--mode", "some-pair", "--cap", "100"], build_G(3), 2),
])
def test_one_blossom_solve_per_decision(capsys, monkeypatch, argv, graph, solves):
    text = serialize_mgf(graph)
    calls = count_solves(monkeypatch)
    code, _, _ = run_cli(argv, capsys, monkeypatch, stdin_text=text)
    assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE)
    assert calls[0] == solves


def test_one_blossom_solve_per_short_circuit_hunt_item(monkeypatch):
    calls = count_solves(monkeypatch)
    summary = hunt(HuntConfig(degree=3, n_min=10, n_max=10, count=1, seed=0))
    assert summary.items[0].method == "short-circuit"
    assert calls[0] == 1


# sha256 of repr((name, argv, exit code, stdout, stderr)) over every run of
# `pinned_runs`, taken from the two separate deciders that the single
# decision pipeline replaced
PINNED_OUTPUT_SHA256 = "9a188d724151434d0169c8c2f6408ff473de300abcafa2e58912c8c528b0c080"


def pinned_runs():
    """(name, MGF text, argv) of `info`, `export-dot --mark-exposed` and
    `verify` in all three modes, exhaustive (cap 20000) and capped at 2, on
    the paper's family members, unlabeled G3 (no hub classes), a star and
    a small seeded corpus."""
    graphs = [("B2", build_B(2)), ("G3", build_G(3)), ("H3", build_H(3)),
              ("F5", build_F(5)), ("G4", build_G(4)),
              ("G3-unlabeled", parse_mgf(unlabeled_G3_mgf())), ("star5", star_graph(5))]
    graphs += [(f"corpus{i}", g) for i, g in enumerate(
        random_graph_corpus(seed=404, count=40, max_n=10, max_support_edges=16)
        + random_graph_corpus(seed=405, count=20, max_n=10, max_support_edges=7))]
    for name, g in graphs:
        text = serialize_mgf(g)
        yield name, text, ["info"]
        yield name, text, ["export-dot", "--mark-exposed"]
        for cap in ("2", "20000"):
            for mode in ("conjecture", "some-pair", "all-pairs"):
                yield name, text, ["verify", "--mode", mode, "--cap", cap]


def test_info_and_verify_outputs_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for name, text, argv in pinned_runs():
        code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=text)
        digest.update(repr((name, argv, code, out, err)).encode("utf-8"))
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


# ------------------------------------------------------------- env cap hook


def test_env_cap_applies_when_no_flag(capsys, monkeypatch):
    monkeypatch.setenv("MATCHEX_CAP", "10")
    code, out, _ = run_cli(["verify"], capsys, monkeypatch,
                           stdin_text=unlabeled_G3_mgf())
    assert code == EXIT_INCONCLUSIVE
    assert "matchings=10" in out


def test_flag_overrides_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("MATCHEX_CAP", "10")
    code, out, _ = run_cli(["verify", "--cap", "20000"], capsys, monkeypatch,
                           stdin_text=unlabeled_G3_mgf())
    assert code == EXIT_COUNTEREXAMPLE
    assert "matchings=17010 exhaustive=true" in out


@pytest.mark.parametrize("bad", ["abc", "0", "-5"])
def test_env_cap_invalid(capsys, monkeypatch, bad):
    monkeypatch.setenv("MATCHEX_CAP", bad)
    code, _, err = run_cli(["verify"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(cycle_graph(4)))
    assert code == EXIT_ERROR
    assert "MATCHEX_CAP" in err


# ---------------------------------------------------------------- enumerate


def test_enumerate_path3(capsys, monkeypatch):
    code, out, _ = run_cli(["enumerate"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(path_graph(3)))
    assert code == EXIT_OK
    assert out == "1-2\n0-1\ncount=2 exhaustive=true\n"


def test_enumerate_edgeless(capsys, monkeypatch):
    code, out, _ = run_cli(["enumerate"], capsys, monkeypatch, stdin_text="mgf 2\n")
    assert code == EXIT_OK
    assert out == "(empty)\ncount=1 exhaustive=true\n"


def test_enumerate_capped(capsys, monkeypatch):
    code, out, _ = run_cli(["enumerate", "--cap", "3"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(cycle_graph(5)))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[3] == "count=3 exhaustive=false"


def test_enumerate_B2_order_pinned(capsys, monkeypatch):
    # sha256 of the output of the recursive enumerator this one replaced
    code, out, _ = run_cli(["enumerate"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 449
    assert lines[-1] == "count=448 exhaustive=true"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "dcabc739ead3c8f37c5bcf8b272c225c1c4ac322ac1069a7a3e326b489282442")


# --------------------------------------------------------------------- hunt


def test_hunt_byte_identical_runs(capsys):
    argv = ["hunt", "--degree", "3", "--min-n", "8", "--max-n", "10",
            "--count", "5", "--seed", "3"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.startswith("hunt degree=3 n_min=8 n_max=10 count=5 seed=3 ")
    code3, out3, _ = run_cli(argv + ["--workers", "2"], capsys)
    assert out3 == out1 and code3 == EXIT_OK


def test_hunt_infeasible_range(capsys):
    code, _, err = run_cli(
        ["hunt", "--degree", "3", "--min-n", "9", "--max-n", "9"], capsys)
    assert code == EXIT_ERROR
    assert "no feasible vertex count" in err


def test_hunt_dump_dir_on_counterexample(tmp_path, capsys, monkeypatch):
    cfg = HuntConfig(degree=3, n_min=8, n_max=10, count=2, seed=0)
    mgf = serialize_mgf(build_B(2))
    fake = HuntSummary(config=cfg, items=(
        HuntItem(index=0, seed=1, n=14, verdict="counterexample",
                 method="certificate", matchings_examined=0,
                 exhaustive=False, mgf=mgf),
        HuntItem(index=1, seed=2, n=8, verdict="holds", method="short-circuit",
                 matchings_examined=0, exhaustive=False),
    ))
    monkeypatch.setattr("matchex.cli.run_hunt", lambda config, workers: fake)
    dump = tmp_path / "hits"
    code, out, _ = run_cli(
        ["hunt", "--degree", "3", "--count", "2", "--dump-dir", str(dump)], capsys)
    assert code == EXIT_COUNTEREXAMPLE
    assert "counterexamples=1" in out
    written = dump / "counterexample_0.mgf"
    assert written.read_text(encoding="utf-8") == mgf
    assert not (dump / "counterexample_1.mgf").exists()


# --------------------------------------------------------------- export-dot


def test_export_dot_multiplicities(capsys, monkeypatch):
    code, out, _ = run_cli(["export-dot"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(build_G(3)))
    assert code == EXIT_OK
    assert out.count("3 -- 4;") == 3
    assert 'label="v1^(1)"' in out


def test_export_dot_mark_exposed(capsys, monkeypatch):
    code, out, _ = run_cli(["export-dot", "--mark-exposed"], capsys, monkeypatch,
                           stdin_text=serialize_mgf(build_B(2)))
    assert code == EXIT_OK
    assert out.count("style=filled") == 2  # deficiency of B(2)


# ------------------------------------------------------------------ parsing


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "matchex" in out


def test_missing_command(capsys):
    assert run_cli([], capsys)[0] == EXIT_ERROR


def test_unknown_command(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == EXIT_ERROR
