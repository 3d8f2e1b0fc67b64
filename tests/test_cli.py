"""Command-line interface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from btlrank import (ComparisonData, ComparisonGraph, ExperimentConfig, LaplacianOperator,
                     MleProblem, ScoreVector, SolverConfig, cli, dc, experiments, make_scores,
                     run_experiment, solve_mle, spectral_estimate)
from btlrank.cli import _build_parser, main


def run(*args) -> int:
    return main(list(args))


def test_generate_sample_estimate_roundtrip(tmp_path):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    assert run("generate", "--kind", "grid1d", "--n", "100", "--r", "5",
               "--p", "1", "--L", "40", "--seed", "7", "--out", str(g)) == 0
    graph = ComparisonGraph.from_csv(g)
    assert graph.n == 100 and graph.num_edges == 485
    assert run("sample", "--graph", str(g), "--score-kind", "sine",
               "--score-r", "5", "--seed", "3", "--out", str(d)) == 0
    assert run("estimate", "--method", "mle-precond", "--graph", str(g),
               "--data", str(d), "--out", str(out)) == 0
    scores = ScoreVector.from_json(out)
    assert scores.n == 100
    assert abs(scores.values.sum()) <= 1e-6


def test_generate_partition_and_dc_estimate(tmp_path):
    g = tmp_path / "g.csv"
    p = tmp_path / "p.json"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    assert run("generate", "--kind", "grid1d", "--n", "64", "--r", "8",
               "--p", "1", "--L", "30", "--out", str(g),
               "--partition-out", str(p)) == 0
    assert json.loads(p.read_text())  # non-empty subset list
    assert run("sample", "--graph", str(g), "--score-kind", "linear",
               "--score-r", "8", "--seed", "1", "--out", str(d)) == 0
    assert run("estimate", "--method", "dc-overlap", "--graph", str(g),
               "--data", str(d), "--partition", str(p), "--out", str(out)) == 0
    assert ScoreVector.from_json(out).n == 64


def test_generate_partition_of_a_non_grid_writes_nothing(tmp_path, capsys):
    g = tmp_path / "pg.csv"
    p = tmp_path / "pp.json"
    assert run("generate", "--kind", "line", "--n", "4", "--out", str(g),
               "--partition-out", str(p)) == 1
    assert "--partition-out needs a grid kind" in capsys.readouterr().err
    assert not g.exists() and not p.exists()


def test_each_dc_method_takes_the_partitions_that_fit_it(tmp_path, capsys, monkeypatch):
    g, d, out = tmp_path / "g.csv", tmp_path / "d.csv", tmp_path / "theta.json"
    parts = {name: tmp_path / f"{name}.json" for name in ("overlapping", "disjoint", "whole")}
    for mode in ("overlapping", "disjoint"):
        assert run("generate", "--kind", "grid1d", "--n", "48", "--r", "6", "--L", "30",
                   "--out", str(g), "--partition-mode", mode,
                   "--partition-out", str(parts[mode])) == 0
    parts["whole"].write_text(json.dumps([list(range(48))]))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "6", "--out", str(d))
    estimate = ("estimate", "--graph", str(g), "--data", str(d), "--out", str(out))
    assert run(*estimate, "--method", "mle-precond") == 0
    mle = ScoreVector.from_json(out).values
    # one subset is both overlapping and disjoint, and either method returns the MLE
    for method in ("dc-overlap", "dc-community"):
        assert run(*estimate, "--method", method, "--partition", str(parts["whole"])) == 0
        assert np.abs(ScoreVector.from_json(out).values - mle).max() <= 1e-12, method
    capsys.readouterr()
    assert run(*estimate, "--method", "dc-overlap", "--partition", str(parts["disjoint"])) == 1
    assert "overlap super-graph is disconnected" in capsys.readouterr().err

    def local_estimates(*args):
        raise AssertionError("a local solve ran")

    monkeypatch.setattr(dc, "local_estimates", local_estimates)
    assert run(*estimate, "--method", "dc-community",
               "--partition", str(parts["overlapping"])) == 1
    assert "cross edges need a disjoint partition" in capsys.readouterr().err


@pytest.mark.parametrize("subsets, named", [([list(range(40)), []], "[1]"),
                                            ([list(range(20)), [], list(range(20, 40))], "[1]")])
def test_a_partition_with_an_empty_subset_is_a_usage_error(tmp_path, capsys, subsets, named):
    g, d, p = tmp_path / "g.csv", tmp_path / "d.csv", tmp_path / "p.json"
    assert run("generate", "--kind", "grid1d", "--n", "40", "--r", "4", "--L", "10",
               "--out", str(g)) == 0
    assert run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "4",
               "--out", str(d)) == 0
    p.write_text(json.dumps(subsets))
    for method in ("dc-overlap", "dc-community", "mle-pgd"):
        capsys.readouterr()
        assert run("estimate", "--method", method, "--graph", str(g), "--data", str(d),
                   "--partition", str(p), "--out", str(tmp_path / "theta.json")) == 1, method
        assert f"partition subsets {named} are empty" in capsys.readouterr().err, method


def test_removed_estimate_options_are_usage_errors(tmp_path, capsys):
    # precond_gd takes its preconditioner from the oracle scores, which the CLI
    # cannot pass, and the partition file or the method sets the partition's kind
    g, d = tmp_path / "g.csv", tmp_path / "d.csv"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "3", "--out", str(d))
    estimate = ("estimate", "--graph", str(g), "--data", str(d),
                "--out", str(tmp_path / "theta.json"))
    capsys.readouterr()
    for value in ("oracle_Lz", "quarter_LG", "surrogate_LG"):
        assert run(*estimate, "--method", "mle-precond", "--preconditioner", value) == 1
        assert "unrecognized arguments: --preconditioner" in capsys.readouterr().err
    assert run(*estimate, "--method", "dc-overlap", "--auto-partition", "grid", "--r", "3",
               "--partition-mode", "overlapping") == 1
    assert "unrecognized arguments: --partition-mode" in capsys.readouterr().err


def test_malformed_json_inputs_are_usage_errors(tmp_path, capsys):
    g, d, p, s = (tmp_path / name for name in ("g.csv", "d.csv", "p.json", "s.json"))
    out = str(tmp_path / "out")
    run("generate", "--kind", "grid1d", "--n", "10", "--r", "2", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "2", "--out", str(d))
    # node ids 1.5 and 4.9 would otherwise load as 1 and 4
    p.write_text("[[0, 1.5, 2, 3, 4, 5], [4.9, 5, 6, 7, 8, 9]]")
    capsys.readouterr()
    assert run("estimate", "--method", "dc-overlap", "--graph", str(g), "--data", str(d),
               "--partition", str(p), "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lists of integer node ids" in err
    for raw in ('{"a": 1}', "null", '[0, 1, "2", 3, 4, 5, 6, 7, 8, 9]'):
        s.write_text(raw)
        for command in ("bounds", "sample"):
            assert run(command, "--graph", str(g), "--scores", str(s), "--out", out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "a JSON list of numbers" in err, (raw, command)


def test_estimate_auto_partition_pgd(tmp_path):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    run("generate", "--kind", "grid1d", "--n", "48", "--r", "6", "--p", "1",
        "--L", "30", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "6",
        "--seed", "2", "--out", str(d))
    assert run("estimate", "--method", "mle-pgd", "--graph", str(g),
               "--data", str(d), "--auto-partition", "grid", "--r", "6",
               "--step-size", "0.005", "--max-iter", "5000",
               "--out", str(out)) == 0


def test_trace_emits_csv(tmp_path):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out, trace = tmp_path / "theta.json", tmp_path / "trace.csv"
    run("generate", "--kind", "complete", "--n", "12", "--L", "25",
        "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "3",
        "--seed", "5", "--out", str(d))
    assert run("estimate", "--method", "mle-gd", "--graph", str(g),
               "--data", str(d), "--out", str(out), "--trace", str(trace)) == 0
    header = trace.read_text().splitlines()[0]
    assert header.startswith("iteration,loss,grad_norm")
    # trace of a non-iterative method is a usage error
    assert run("estimate", "--method", "spectral", "--graph", str(g),
               "--data", str(d), "--out", str(out), "--trace", str(trace)) == 1


def test_estimate_trace_is_the_solver_trace(tmp_path):
    g, d = tmp_path / "g.csv", tmp_path / "d.csv"
    out, trace, want = tmp_path / "theta.json", tmp_path / "t.csv", tmp_path / "want.csv"
    run("generate", "--kind", "grid1d", "--n", "40", "--r", "4", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "4", "--out", str(d))
    graph = ComparisonGraph.from_csv(g)
    problem = MleProblem(graph, ComparisonData.from_csv(d, graph))
    for method, config in [("mle-gd", SolverConfig(method="gd")),
                           ("mle-precond", SolverConfig(method="precond_gd"))]:
        assert run("estimate", "--method", method, "--graph", str(g), "--data", str(d),
                   "--out", str(out), "--trace", str(trace)) == 0
        solve_mle(problem, config)[1].to_csv(want)
        assert trace.read_bytes() == want.read_bytes(), method


def test_the_trace_command_is_gone(tmp_path, capsys):
    # `estimate --trace PATH` replaces it
    assert run("trace", "--method", "mle-gd", "--graph", "g.csv", "--data", "d.csv",
               "--out", str(tmp_path / "t.csv")) == 1
    assert "invalid choice: 'trace'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_trace_of_a_method_without_one_is_a_usage_error(tmp_path, capsys):
    g, d = tmp_path / "g.csv", tmp_path / "d.csv"
    out, trace = tmp_path / "theta.json", tmp_path / "t.csv"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "3", "--out", str(d))
    capsys.readouterr()
    assert run("estimate", "--method", "dc-overlap", "--graph", str(g), "--data", str(d),
               "--out", str(out), "--trace", str(trace), "--auto-partition", "grid",
               "--r", "3") == 1
    assert "trace output requires an iterative MLE method" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()
    # checked before any input is read
    assert run("estimate", "--method", "dc-community", "--graph", str(tmp_path / "none.csv"),
               "--data", str(d), "--out", str(out), "--trace", str(trace)) == 1
    assert "trace output requires an iterative MLE method" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_resistance_table(tmp_path):
    g = tmp_path / "g.csv"
    out = tmp_path / "omega.csv"
    run("generate", "--kind", "line", "--n", "4", "--L", "2", "--out", str(g))
    assert run("resistance", "--graph", str(g), "--pairs", "all",
               "--unit-weights", "--out", str(out)) == 0
    rows = {tuple(map(int, line.split(",")[:2])): float(line.split(",")[2])
            for line in out.read_text().splitlines()[1:]}
    assert rows[(0, 3)] == pytest.approx(3.0, abs=1e-9)
    # weighted by counts L=2: conductances double, resistances halve
    out2 = tmp_path / "omega2.csv"
    assert run("resistance", "--graph", str(g), "--pairs", "0,3",
               "--out", str(out2)) == 0
    val = float(out2.read_text().splitlines()[1].split(",")[2])
    assert val == pytest.approx(1.5, abs=1e-9)


def test_barbell_needs_no_node_count(tmp_path):
    # barbell's n is clique1 + clique2, so --n is optional and ignored when given
    with_n, without = tmp_path / "with.csv", tmp_path / "without.csv"
    args = ("generate", "--kind", "barbell", "--clique1", "6", "--clique2", "9", "--L", "4",
            "--L-st", "2", "--out")
    assert run(*args, str(without)) == 0
    assert run(*args, str(with_n), "--n", "15") == 0
    assert without.read_bytes() == with_n.read_bytes()
    assert ComparisonGraph.from_csv(without).n == 15


@pytest.mark.parametrize("kind, message", [("grid1d", "error: --kind grid1d needs --n\n"),
                                           ("grid2d", "error: --kind grid2d needs --n\n"),
                                           ("line", "error: line requires n\n"),
                                           ("tree", "error: tree requires n\n")])
def test_a_kind_that_needs_a_node_count_without_n_is_a_usage_error(tmp_path, capsys, kind,
                                                                   message):
    out = tmp_path / "g.csv"
    assert run("generate", "--kind", kind, "--out", str(out)) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("er", "--n", "40", "--p", "1.5"), "error: edge probability must be in (0, 1], got p=1.5\n"),
    (("tree", "--n", "1"), "error: tree needs n >= 2, got n=1\n"),
    (("ring", "--n", "2"), "error: ring needs n >= 3, got n=2\n"),
    (("barbell", "--clique1", "0", "--clique2", "3"),
     "error: barbell needs clique1 >= 1, got clique1=0\n")])
def test_a_special_kind_out_of_range_is_a_usage_error(tmp_path, capsys, args, message):
    out = tmp_path / "g.csv"
    assert run("generate", "--kind", *args, "--out", str(out)) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--max-iter", "-1", "max_iter must be >= 0, not -1"),
    ("--step-size", "-0.5", "step_size must be finite and positive, not -0.5"),
    ("--step-size", "nan", "step_size must be finite and positive, not nan"),
])
def test_a_solver_setting_without_an_answer_is_a_usage_error(tmp_path, capsys, option, value,
                                                             message):
    g, d = tmp_path / "g.csv", tmp_path / "d.csv"
    run("generate", "--kind", "grid1d", "--n", "40", "--r", "4", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "4", "--out", str(d))
    capsys.readouterr()
    out, trace = tmp_path / "theta.json", tmp_path / "tr.csv"
    for method in ("mle-precond", "mle-gd"):
        assert run("estimate", "--method", method, "--graph", str(g), "--data", str(d),
                   "--out", str(out), "--trace", str(trace), option, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not trace.exists()


def test_a_capped_solve_fails_and_writes_its_scores_and_trace(tmp_path, capsys):
    g, d, out = tmp_path / "g.csv", tmp_path / "d.csv", tmp_path / "theta.json"
    trace = tmp_path / "tr.csv"
    run("generate", "--kind", "grid1d", "--n", "40", "--r", "4", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "4", "--out", str(d))
    capsys.readouterr()
    assert run("estimate", "--method", "mle-gd", "--graph", str(g), "--data", str(d),
               "--out", str(out), "--trace", str(trace), "--max-iter", "2") == 2
    assert capsys.readouterr().err == (
        "numerical failure: hit the iteration cap before the gradient tolerance\n")
    assert ScoreVector.from_json(out).n == 40
    assert [row.split(",")[0] for row in trace.read_text().splitlines()] == [
        "iteration", "0", "1", "2"]


@pytest.mark.parametrize("method, n, capped, failed", [
    ("mle", 40, False, False), ("mle", 40, True, True),
    ("spectral", 12, False, False), ("spectral", 40, False, True)])
def test_the_cli_fails_exactly_when_the_comparison_record_does(tmp_path, capsys, monkeypatch,
                                                                method, n, capped, failed):
    # one verdict, the result's failed and reason: exit code 2 and the printed reason on
    # one side, the record's failed and note on the other, on the harness's own instance.
    # Spectral meets its tolerance within the budget at n=12 and not at n=40.
    config = ExperimentConfig(experiment="mle-vs-spectral", n_list=(n,), r_list=(5,),
                              p_list=(0.9,), L_list=(20,), score_kinds=("sine",), trials=1,
                              base_seed=7, methods=(method,))
    coords = (n, 5, 0.9, 20, "sine")
    _, graph, _, data = experiments._build_instance(
        config, coords, experiments._trial_rng(config, coords, 0))
    g, d, out = tmp_path / "g.csv", tmp_path / "d.csv", tmp_path / "theta.json"
    graph.to_csv(g)
    data.to_csv(d)
    cap = ["--max-iter", "2"] if capped else []
    code = run("estimate", "--method", "mle-precond" if method == "mle" else "spectral",
               "--graph", str(g), "--data", str(d), "--out", str(out), *cap)
    err = capsys.readouterr().err
    if capped:
        monkeypatch.setattr(SolverConfig, "resolved_max_iter", lambda self: 2)
    (rec,), _ = run_experiment(config, write_files=False)
    assert rec.failed == failed and code == (2 if failed else 0)
    assert err == (f"numerical failure: {rec.note}\n" if failed else "")
    assert rec.note or not failed


def test_barbell_without_a_clique_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run("generate", "--kind", "barbell", "--n", "8", "--clique1", "4",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: barbell requires clique2\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["resistance", "bounds"])
def test_all_pairs_are_every_pair_in_row_major_order(tmp_path, command):
    # "all" writes what listing every pair k < l row by row writes, and a pair given
    # as (l, k) is written as (k, l)
    g, s = tmp_path / "g.csv", tmp_path / "s.json"
    assert run("generate", "--kind", "er", "--n", "12", "--p", "0.5", "--L", "6", "--seed", "1",
               "--out", str(g)) == 0
    make_scores("sine", 12, 2).to_json(s)
    args = [command, "--graph", str(g)] + (["--scores", str(s)] if command == "bounds" else [])
    pairs = [(k, l) for k in range(12) for l in range(k + 1, 12)]
    outs = []
    for listed in ("all", ";".join(f"{l},{k}" for k, l in pairs)):
        outs.append(tmp_path / f"{len(outs)}.csv")
        assert run(*args, "--pairs", listed, "--out", str(outs[-1])) == 0
    text = outs[0].read_bytes()
    assert text == outs[1].read_bytes()
    rows = [tuple(map(int, line.split(b",")[:2])) for line in text.splitlines()[1:]]
    assert rows == pairs


def test_resistance_on_a_disconnected_graph(tmp_path, capsys):
    # nodes 0..29 and 30..259 (a band too wide to factor) are two components; 260 has no edges
    rng = np.random.default_rng(4)
    edges = {(k, k + 1) for k in range(259) if k != 29}
    edges |= {(int(a), int(b)) for a, b in zip(rng.integers(30, 140, 60), rng.integers(150, 260, 60))}
    ei, ej = np.array(sorted(edges)).T
    g = tmp_path / "g.csv"
    ComparisonGraph(261, ei, ej, rng.integers(1, 4, len(ei))).to_csv(g)
    out = tmp_path / "omega.csv"
    assert run("resistance", "--graph", str(g), "--pairs", "0,20;31,250", "--out", str(out)) == 0
    graph = ComparisonGraph.from_csv(g)
    pinv = np.linalg.pinv(LaplacianOperator(261, graph.edge_i, graph.edge_j,
                                            graph.counts).matrix.toarray())
    for line in out.read_text().splitlines()[1:]:
        k, l, omega = line.split(",")
        k, l = int(k), int(l)
        assert float(omega) == pytest.approx(pinv[k, k] - 2 * pinv[k, l] + pinv[l, l], rel=1e-8)
    capsys.readouterr()
    assert run("resistance", "--graph", str(g), "--pairs", "0,20;20,31", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "components" in err and "blocks" not in err


def test_bounds_command(tmp_path):
    g = tmp_path / "g.csv"
    s = tmp_path / "scores.json"
    out = tmp_path / "bounds.csv"
    run("generate", "--kind", "complete", "--n", "6", "--L", "4",
        "--out", str(g))
    make_scores("sine", 6, 2).to_json(s)
    assert run("bounds", "--graph", str(g), "--scores", str(s),
               "--delta", "0.1", "--pairs", "0,5;1,2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,l,omega,B,Q,V"
    assert len(lines) == 3


def test_a_c0_that_is_not_finite_and_positive_is_a_usage_error(tmp_path, capsys):
    # each used to write nan or inf for B and Q and exit 0
    g, s, out = tmp_path / "g.csv", tmp_path / "s.json", tmp_path / "out.csv"
    run("generate", "--kind", "grid1d", "--n", "40", "--r", "4", "--out", str(g))
    make_scores("sine", 40, 4).to_json(s)
    capsys.readouterr()
    for c0 in ("nan", "inf"):
        assert run("bounds", "--graph", str(g), "--scores", str(s), "--c0", c0,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: C0 must be finite and positive, not {c0}\n"
        assert not out.exists()


def test_a_pair_of_one_node_is_a_usage_error(tmp_path, capsys):
    g, s, out = tmp_path / "g.csv", tmp_path / "s.json", tmp_path / "out.csv"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    make_scores("sine", 30, 3).to_json(s)
    capsys.readouterr()
    for command in (("resistance",), ("bounds", "--scores", str(s))):
        for pairs, message in (("0,1;3,3", "pair '3,3' needs two different nodes"),
                               ("0,30", "pair '0,30' out of range")):
            assert run(*command, "--graph", str(g), "--pairs", pairs, "--out", str(out)) == 1
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not out.exists()


def test_scores_of_the_wrong_length_are_usage_errors(tmp_path, capsys):
    # the library checks the length; the CLI passes its message on
    g, s, out = tmp_path / "g.csv", tmp_path / "s.json", tmp_path / "out.csv"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    make_scores("sine", 50, 3).to_json(s)
    capsys.readouterr()
    for command in (("sample",), ("sample", "--exact"), ("bounds",)):
        assert run(*command, "--graph", str(g), "--scores", str(s), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: score length 50 must match node count 30\n"
        assert not out.exists(), command


def check_spectral_failure(g, d, out, capsys, reason):
    """`estimate --method spectral` exits 2, prints the run's own failure text and
    still writes the partial estimate for inspection."""
    capsys.readouterr()
    assert run("estimate", "--method", "spectral", "--graph", str(g),
               "--data", str(d), "--out", str(out)) == 2
    graph = ComparisonGraph.from_csv(g)
    assert cli.spectral_estimate(graph, ComparisonData.from_csv(d, graph)).reason == reason
    assert capsys.readouterr().err == f"numerical failure: {reason}\n"
    assert ScoreVector.from_json(out).n == graph.n


def test_spectral_failure_exit_code(tmp_path, capsys):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    run("generate", "--kind", "grid1d", "--n", "240", "--r", "10", "--p", "1",
        "--L", "50", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "linear",
        "--score-r", "10", "--exact", "--out", str(d))
    check_spectral_failure(g, d, out, capsys,
                           "small stationary entries not resolved within the iteration budget")


def test_spectral_underflow_exit_code(tmp_path, capsys, monkeypatch):
    g, d, s = (tmp_path / name for name in ("g.csv", "d.csv", "s.json"))
    out = tmp_path / "theta.json"
    # a gap of 40 per edge on a path underflows once the run goes on to tolerance 0
    run("generate", "--kind", "line", "--n", "30", "--out", str(g))
    ScoreVector.zero_sum(40.0 * np.arange(30)).to_json(s)
    run("sample", "--graph", str(g), "--scores", str(s), "--exact", "--out", str(d))
    monkeypatch.setattr(cli, "spectral_estimate", lambda graph, data: spectral_estimate(
        graph, data, tol=0.0, max_iter=3000))
    check_spectral_failure(g, d, out, capsys,
                           "stationary distribution underflow; log-scores may contain -inf")


def test_nonexistence_exit_code(tmp_path, capsys):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    run("generate", "--kind", "line", "--n", "3", "--L", "2", "--out", str(g))
    (tmp_path / "d.csv").write_text("i,j,wins,L\n0,1,2,2\n1,2,2,2\n")
    capsys.readouterr()
    for method in ("mle-precond", "spectral"):
        assert run("estimate", "--method", method, "--graph", str(g),
                   "--data", str(d), "--out", str(out)) == 2
        assert capsys.readouterr().err == ("numerical failure: MLE does not exist: nodes [2] "
                                           "never recorded a win over their complement\n")
        assert not out.exists()


def test_diverging_step_exit_code(tmp_path, capsys):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "3",
        "--out", str(d))
    capsys.readouterr()
    assert run("estimate", "--method", "mle-gd", "--step-size", "1e305", "--graph", str(g),
               "--data", str(d), "--out", str(tmp_path / "theta.json")) == 2
    assert "diverged at iteration" in capsys.readouterr().err


def test_alignment_solve_failure_exit_code(tmp_path, capsys, monkeypatch):
    # only the super-graph solve fails; the local and whole-graph solves still converge
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    run("generate", "--kind", "grid1d", "--n", "48", "--r", "6", "--L", "30", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "6", "--out", str(d))
    super_laplacian = dc._super_laplacian

    def failing(*args):  # the super-graphs factor; an answer tripled misses 1e-10
        op = super_laplacian(*args)
        solve = op._factor_solve
        op._factor_solve = lambda b: 3 * solve(b)
        return op

    monkeypatch.setattr(dc, "_super_laplacian", failing)
    capsys.readouterr()
    for method in ("dc-overlap", "dc-community", "mle-pgd"):
        assert run("estimate", "--method", method, "--graph", str(g), "--data", str(d),
                   "--auto-partition", "grid", "--r", "6",
                   "--out", str(tmp_path / "theta.json")) == 2, method
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Laplacian solve on ")
        assert "did not reach 1e-10 (factor residual 2.00e+00 after 0 iterations)" in err, err


def test_malformed_experiment_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw, message in [({"experiment": "convergence", "trails": 3, "seeds": 1},
                          "unknown experiment config keys ['seeds', 'trails']"),
                         (["convergence"], "is not a JSON object"),
                         ({"trials": 3}, "is not a JSON object with an experiment key"),
                         ({"experiment": "convergence", "trials": "3"},
                          "trials must be an int, not '3'"),
                         ({"experiment": "convergence", "n_list": 60},
                          "n_list must be a list, not 60")]:
        cfg.write_text(json.dumps(raw))
        assert run("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("score_kinds", ["sine", "cubic"], "unknown score_kinds ['cubic']"),
    ("kind", "grid3d", "unknown kind ['grid3d']"),
    ("methods", ["mle", "newton"], "unknown methods ['newton']"),
    ("p_list", [1.5], "edge probability must be in (0, 1], got p=1.5"),
    ("p_list", [float("nan")], "edge probability must be in (0, 1], got p=nan"),
    ("L_list", [0], "each entry of L_list must be >= 1, not 0"),
    ("n_list", [1], "need at least two nodes, got n=1"),
    ("r_list", [0], "radius must be >= 1, got r=0"),
    ("score_kinds", ["linear2d"], "linear2d requires a perfect-square n")])
def test_an_unknown_name_in_an_experiment_config_is_a_usage_error(tmp_path, capsys, field,
                                                                   value, message):
    # each used to get past the config: a KeyError or a NaN-to-integer error from the
    # trial's seed, or every record of the kind, method or sweep point failed with exit
    # code 0
    cfg = tmp_path / "cfg.json"
    raw = {"experiment": "mle-vs-spectral", "n_list": [30], "r_list": [3], "L_list": [20],
           "score_kinds": ["sine"], "trials": 1, field: value}
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run("experiment", "--config", str(cfg), "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_a_gap_tol_factor_that_is_not_finite_and_positive_is_a_usage_error(tmp_path, capsys,
                                                                         value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "convergence", "gap_tol_factor": value}))
    out = tmp_path / "out"
    assert run("experiment", "--config", str(cfg), "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: gap_tol_factor must be finite and positive, not {value}\n"
    assert not out.exists()


def test_usage_errors(tmp_path):
    assert run("generate", "--kind", "grid1d", "--n", "10") == 1  # no --out
    assert run("estimate", "--method", "warp", "--graph", "x", "--data", "y",
               "--out", "z") == 1
    assert run("resistance", "--graph", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "o.csv")) == 1
    g = tmp_path / "g.csv"
    run("generate", "--kind", "line", "--n", "4", "--out", str(g))
    assert run("resistance", "--graph", str(g), "--pairs", "0,9",
               "--out", str(tmp_path / "o.csv")) == 1
    assert run("experiment") == 1  # needs --id or --config


def test_parser_serves_calls_after_a_usage_error(tmp_path, capsys):
    # the parser is built once per process; a failed parse must leave it intact
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run("generate", "--kind", "grid1d", "--n", "30", "--r", "3", "--L", "20", "--out", str(g))
    run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "3", "--out", str(d))
    estimate = ("estimate", "--method", "mle-precond", "--graph", str(g), "--data", str(d))
    assert run(*estimate, "--out", str(first)) == 0
    capsys.readouterr()
    assert run(*estimate, "--out", str(second), "--step-size", "fast") == 1
    assert "invalid float value" in capsys.readouterr().err
    assert not second.exists()
    assert run(*estimate, "--out", str(second)) == 0
    assert second.read_bytes() == first.read_bytes()
    assert ScoreVector.from_json(second).n == 30
    assert _build_parser() is _build_parser()


def test_experiment_command(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "mle-vs-spectral", "kind": "grid1d", "n_list": [40],
        "r_list": [5], "p_list": [0.9], "L_list": [20],
        "score_kinds": ["sine"], "trials": 2, "base_seed": 11,
        "methods": None, "out_dir": str(out), "gap_tol_factor": 1e-6}))
    assert run("experiment", "--config", str(cfg), "--out-dir", str(out)) == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()


def test_data_rows_off_the_graph_are_a_usage_error(tmp_path):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    g.write_text("i,j,L\n0,1,4\n1,2,4\n2,3,4\n")
    for rows in ("0,1,2,4\n0,2,3,4\n2,3,1,4\n", "0,1,2,4\n0,1,3,4\n2,3,1,4\n"):
        d.write_text("i,j,wins,L\n" + rows)
        assert run("estimate", "--method", "mle-precond", "--graph", str(g),
                   "--data", str(d), "--out", str(tmp_path / "theta.json")) == 1


def test_nonfinite_inputs_are_usage_errors(tmp_path, capsys):
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    s = tmp_path / "s.json"
    run("generate", "--kind", "line", "--n", "3", "--L", "10", "--out", str(g))
    d.write_text("i,j,wins,L\n0,1,nan,10\n1,2,4,10\n")
    assert run("estimate", "--method", "mle-precond", "--graph", str(g),
               "--data", str(d), "--out", str(tmp_path / "theta.json")) == 1
    s.write_text("[0.0, 1.0, -Infinity]")
    assert run("bounds", "--graph", str(g), "--scores", str(s),
               "--out", str(tmp_path / "b.csv")) == 1
    err = capsys.readouterr().err
    assert "wins must be finite" in err and "zero-sum gauge needs finite scores" in err


def test_exact_data_roundtrip_recovers_the_scores(tmp_path):
    # exact data has fractional wins, so it is read by the general CSV path
    g = tmp_path / "g.csv"
    d = tmp_path / "d.csv"
    out = tmp_path / "theta.json"
    assert run("generate", "--kind", "grid1d", "--n", "300", "--r", "5", "--p", "0.8",
               "--L", "40", "--seed", "7", "--out", str(g)) == 0
    assert run("sample", "--graph", str(g), "--score-kind", "sine", "--score-r", "5",
               "--exact", "--out", str(d)) == 0
    assert "." in d.read_text()
    truth = make_scores("sine", 300, 5).values
    for method, tol in [("mle-precond", 1e-5), ("dc-overlap", 1e-6), ("dc-community", 1e-6)]:
        partition = ["--auto-partition", "grid", "--r", "5"] if method.startswith("dc") else []
        assert run("estimate", "--method", method, "--graph", str(g), "--data", str(d),
                   *partition, "--out", str(out)) == 0
        assert np.abs(ScoreVector.from_json(out).values - truth).max() <= tol, method
