"""Experiment harness: seeding, determinism, parallel equality, outputs."""

import csv
import math
import os
import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from btlrank import (ExperimentConfig, ScoreVector, default_config, exact_comparisons,
                     experiments, run_experiment, spectral_estimate, trial_seed)
from btlrank.estimators import DEFAULT_SPECTRAL_MAX_ITER, SolverConfig
from btlrank.experiments import records_to_csv, small_step


def tiny_config(out_dir, **overrides):
    base = dict(experiment="mle-vs-spectral", kind="grid1d", n_list=(40,),
                r_list=(5,), p_list=(0.9,), L_list=(20,),
                score_kinds=("sine",), trials=3, base_seed=7,
                out_dir=str(out_dir))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trial_seed_is_xor():
    assert trial_seed(2024, 0) == 2024
    assert trial_seed(2024, 5) == 2024 ^ 5
    seeds = {trial_seed(8, t) for t in range(100)}
    assert len(seeds) == 100


def test_small_step_formulas():
    assert small_step("grid1d", 10, 0.8, 100) == pytest.approx(1.0 / 800)
    assert small_step("grid2d", 4, 0.5, 30) == pytest.approx(1.0 / 240)


def test_default_configs():
    c = default_config("mle-vs-spectral")
    assert c.n_list == (60, 120, 240)
    assert c.resolved_methods() == ("mle", "spectral")
    c = default_config("mle-vs-dcoverlap")
    assert c.L_list == (10, 30, 100)
    assert c.resolved_methods() == ("mle", "dc-overlap")
    c = default_config("convergence", trials=2)
    assert c.trials == 2
    assert "pgd" in c.resolved_methods()
    with pytest.raises(ValueError):
        default_config("nope")


def test_run_is_deterministic(tmp_path):
    config = tiny_config(tmp_path / "a")
    rec1, _ = run_experiment(config, write_files=False)
    rec2, _ = run_experiment(config, write_files=False)
    assert len(rec1) == 3 * 2  # trials x methods
    for a, b in zip(rec1, rec2):
        assert a.linf == b.linf
        assert a.seed == b.seed
        assert a.method == b.method


def test_parallel_matches_sequential(tmp_path, monkeypatch):
    config = tiny_config(tmp_path / "b", trials=4)
    seq, _ = run_experiment(config, write_files=False)
    monkeypatch.setenv("BTLRANK_WORKERS", "2")
    par, _ = run_experiment(config, write_files=False)

    def fields_but_time(rec):  # repr, so that NaN fields compare equal
        return repr(astuple(replace(rec, seconds=0.0)))

    assert [fields_but_time(a) for a in seq] == [fields_but_time(b) for b in par]
    assert len(seq) == 4 * 2


def test_output_files(tmp_path):
    out = tmp_path / "c"
    config = tiny_config(out)
    records, summary = run_experiment(config)
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config.json").exists()
    with open(out / "records.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records)
    assert {row["method"] for row in rows} == {"mle", "spectral"}
    back = ExperimentConfig.from_json(out / "config.json")
    assert back == config


def test_summary_contents(tmp_path):
    out = tmp_path / "d"
    config = tiny_config(out, experiment="mle-vs-dcoverlap", n_list=(48,),
                         r_list=(6,), p_list=(0.8,), L_list=(30,),
                         score_kinds=("linear",), trials=3)
    records, summary = run_experiment(config, write_files=False)
    by_method = {row["method"]: row for row in summary}
    assert set(by_method) == {"mle", "dc-overlap"}
    for row in by_method.values():
        assert row["trials"] == 3
        assert math.isfinite(row["mean_linf"])
        assert "theory_bound" in row


def test_spectral_summary_counts_the_failed_trials(tmp_path):
    # at n=12 the power iteration meets its tolerance within the default budget, at n=40 not
    records, summary = run_experiment(tiny_config(tmp_path, n_list=(12, 40)), write_files=False)
    spectral = [row for row in summary if row["method"] == "spectral"]
    assert {row["n"]: row["failures"] for row in spectral} == {12: 0, 40: 3}
    assert not any("converged" in row for row in summary)
    assert [rec.iterations < DEFAULT_SPECTRAL_MAX_ITER for rec in records
            if rec.method == "spectral"] == [True] * 3 + [False] * 3
    # a record keeps the run's failure text as its note; an unmet tolerance is a failure
    budget = "small stationary entries not resolved within the iteration budget"
    assert [(rec.n, rec.failed, rec.note) for rec in records if rec.method == "spectral"] == [
        (12, False, "")] * 3 + [(40, True, budget)] * 3


def test_a_spectral_underflow_fails_its_record_with_the_reason(tmp_path, monkeypatch):
    def underflowing(graph, data):  # exact data with a gap of 40 per edge, run to tolerance 0
        exact = exact_comparisons(graph, ScoreVector.zero_sum(40.0 * np.arange(graph.n)))
        return spectral_estimate(graph, exact, tol=0.0, max_iter=3000)

    monkeypatch.setattr(experiments, "spectral_estimate", underflowing)
    config = tiny_config(tmp_path, n_list=(30,), r_list=(1,), p_list=(1.0,), trials=1,
                         methods=("spectral",))  # a path
    (rec,), _ = run_experiment(config, write_files=False)
    assert rec.failed
    assert rec.note == "stationary distribution underflow; log-scores may contain -inf"


def test_a_capped_mle_fails_its_record_and_keeps_its_error(tmp_path, monkeypatch):
    monkeypatch.setattr(SolverConfig, "resolved_max_iter", lambda self: 1)
    config = tiny_config(tmp_path, n_list=(30,), r_list=(3,), trials=1, methods=("mle",))
    (rec,), _ = run_experiment(config, write_files=False)
    assert rec.failed and rec.iterations == 1
    assert rec.note == "hit the iteration cap before the gradient tolerance"
    assert math.isfinite(rec.linf) and rec.linf > 0


def test_convergence_records(tmp_path):
    out = tmp_path / "e"
    config = ExperimentConfig(experiment="convergence", kind="grid1d",
                              n_list=(60,), r_list=(6,), p_list=(0.9,),
                              L_list=(40,), score_kinds=("linear",),
                              trials=1, base_seed=3, out_dir=str(out))
    records, _ = run_experiment(config)
    by_method = {rec.method: rec for rec in records}
    assert set(by_method) == {"precond-oracle", "precond-lg", "pgd", "cd",
                              "gd-small", "gd-large"}
    assert by_method["precond-oracle"].iterations >= 0
    assert by_method["precond-oracle"].iterations <= by_method["pgd"].iterations
    # per-method trace files are written
    assert (out / "trace_precond-oracle_n60_trial0.csv").exists()


def test_records_csv_roundtrip(tmp_path):
    config = tiny_config(tmp_path / "f")
    records, _ = run_experiment(config, write_files=False)
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["linf"]) == pytest.approx(records[0].linf)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="mystery")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="convergence", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="convergence", n_list=())
    for field, value, message in [
            ("trials", True, "trials must be an int, not True"),
            ("base_seed", 1.0, "base_seed must be an int"),
            ("r_list", [2, "3"], "each entry of r_list must be an int, not '3'"),
            ("L_list", (10, False), "each entry of L_list must be an int, not False"),
            ("p_list", [0.5, "0.8"], "each entry of p_list must be a real number"),
            ("gap_tol_factor", None, "gap_tol_factor must be a real number"),
            ("kind", 1, "kind must be a string"),
            ("out_dir", ["x"], "out_dir must be a string"),
            ("score_kinds", "sine", "score_kinds must be a list, not 'sine'"),
            ("methods", ["cd", 2], "each entry of methods must be a string")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(experiment="convergence", **{field: value})
    # each family runs only its own methods
    with pytest.raises(ValueError, match=re.escape("unknown methods ['dc-overlap']")):
        ExperimentConfig(experiment="mle-vs-spectral", methods=["mle", "dc-overlap"])
    # numbers of every real type pass; methods may be left unset
    ExperimentConfig(experiment="convergence", p_list=[1, 0.5], gap_tol_factor=1, methods=None)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_a_gap_tol_factor_must_be_finite_and_positive(value):
    # NaN read every convergence record as -1 iterations and not failed, and inf met
    # the gap at iteration 0 for every method
    with pytest.raises(ValueError, match=re.escape(
            f"gap_tol_factor must be finite and positive, not {value}")):
        ExperimentConfig(experiment="convergence", gap_tol_factor=value)


def test_no_files_without_write_files(tmp_path):
    out = tmp_path / "res"
    config = ExperimentConfig(experiment="convergence", kind="grid1d",
                              n_list=(40,), r_list=(5,), p_list=(0.9,),
                              L_list=(30,), score_kinds=("linear",),
                              trials=1, base_seed=3, methods=("precond-lg",),
                              out_dir=str(out))
    records, _ = run_experiment(config, write_files=False)
    assert len(records) == 1 and not records[0].failed
    assert not out.exists()
    assert os.listdir(tmp_path) == []


def test_csv_fields_holding_commas_round_trip(tmp_path):
    # failure notes quote node lists such as "nodes [3, 4]": a comma must not split the field.
    # At L = 2 this sample has no MLE, so both methods fail, naming the same nine nodes.
    config = ExperimentConfig(experiment="mle-vs-spectral", n_list=(30,), r_list=(3,),
                              L_list=(2,), score_kinds=("linear",), trials=1, base_seed=0,
                              out_dir=str(tmp_path))
    records, summary = run_experiment(config)
    assert [(rec.method, rec.failed) for rec in records] == [("mle", True), ("spectral", True)]
    assert records[0].note == records[1].note == (
        "MLE does not exist: nodes [0, 1, 2, 3, 4, 5, 6, 7, 8] "
        "never recorded a win over their complement")
    with open(tmp_path / "records.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["note"] for row in rows] == [rec.note for rec in records]
    assert all(None not in row for row in rows)  # no overflow into an unnamed column
    with open(tmp_path / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["method"] for row in rows] == [row["method"] for row in summary]
    assert all(None not in row for row in rows)
    # a config rejects unknown methods and score kinds, so commas there are written directly
    odd = replace(records[0], method="no such, method", score_kind="a, b")
    records_to_csv([odd], tmp_path / "one.csv")
    with open(tmp_path / "one.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    assert (row["method"], row["score_kind"], row["note"]) == (odd.method, odd.score_kind, odd.note)
    assert None not in row


def method_config_at_parent(method, truth, ref, eta_small, spec):
    """The convergence runner's per-method if-chain before the method table, verbatim."""
    from btlrank.graphs import grid_partition

    if method == "precond-oracle":
        return SolverConfig(method="precond_gd", oracle_scores=truth,
                            reference=ref.values)
    if method == "precond-lg":
        return SolverConfig(method="precond_gd", reference=ref.values)
    if method == "pgd":
        return SolverConfig(method="pgd", partition=grid_partition(spec, "overlapping"),
                            step_size=eta_small, reference=ref.values)
    if method == "cd":
        return SolverConfig(method="cd", max_iter=500, reference=ref.values)
    if method == "gd-small":
        return SolverConfig(method="gd", step_size=eta_small,
                            max_iter=50_000, reference=ref.values)
    return SolverConfig(method="gd", step_size=5.0 * eta_small,  # gd-large
                        max_iter=2_000, reference=ref.values)


def test_the_method_table_builds_the_configs_of_the_if_chain(monkeypatch):
    assert experiments._METHODS["convergence"] == (
        "precond-oracle", "precond-lg", "pgd", "cd", "gd-small", "gd-large")
    config = default_config("convergence", n_list=(40,), r_list=(4,), L_list=(20,))
    coords = (40, 4, 0.8, 20, "linear")
    spec, graph, truth, data = experiments._build_instance(
        config, coords, experiments._trial_rng(config, coords, 0))
    built, results = [], []
    solve_mle, grid_partition = experiments.solve_mle, experiments.grid_partition
    partitions = []

    def spy(problem, solver_config):
        # the reference solve runs; every method gets its result back without a run
        built.append(solver_config)
        if not results:
            results.append(solve_mle(problem, solver_config))
        return results[0]

    def partition_spy(*args):
        partitions.append(args)
        return grid_partition(*args)

    monkeypatch.setattr(experiments, "solve_mle", spy)
    monkeypatch.setattr(experiments, "grid_partition", partition_spy)
    run = experiments._convergence_runner(config, coords, spec, graph, truth, data)
    ref = results[0][0]
    eta_small = small_step("grid1d", 4, 0.8, 20)
    for method in experiments._METHODS["convergence"]:
        record = experiments.TrialRecord("convergence", "grid1d", 40, 4, 0.8, 20, "linear",
                                         0, 0, method)
        run(method, record)
        assert partitions == ([(spec, "overlapping")] if method == "pgd" else [])
        partitions.clear()  # pgd's partition is built only when pgd runs
        want = method_config_at_parent(method, truth, ref, eta_small, spec)
        got = built[-1]
        for f in fields(SolverConfig):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "partition" and a is not None:
                assert a.n == b.n and len(a.subsets) == len(b.subsets), method
                assert all(map(np.array_equal, a.subsets, b.subsets)), method
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), (method, f.name)
            else:
                assert a is b or a == b, (method, f.name)
