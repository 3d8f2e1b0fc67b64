"""The benchmark's traced run (``perfbench/run.py --trace 1``) swaps btlrank
entry points by name for timing wrappers and unpacks some results. These
checks keep those names and result shapes in place, so that a refactor which
breaks them fails here instead of in the traced run."""

import json
import sys
from pathlib import Path

import numpy as np

from btlrank import cli, dc, estimators, graphs, laplacian, model

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer, rebound  # noqa: E402

OWNERS = (cli, dc, estimators, graphs.ComparisonGraph, laplacian.LaplacianOperator,
          model.ComparisonData)


def test_rebound_wraps_entry_points_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    with rebound(tracer):
        assert cli.dc_overlap is not before[0]["dc_overlap"]
        spec = graphs.GridSpec(kind="grid1d", n=40, r=4)
        graph = graphs.generate_grid(spec, L=20)
        truth = model.make_scores("sine", 40, 4)
        data = model.exact_comparisons(graph, truth)
        # the benchmark unpacks partition_grid's pair and dc_overlap's triple
        partition, _ = cli.partition_grid(graph, spec, "overlapping")
        _, local, shifts = cli.dc_overlap(graph, data, partition)
        assert dc.alignment_identity_residual(local, shifts, truth) <= 1e-8
    for owner, names in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == names.keys()
        assert all(now[name] is value for name, value in names.items()), owner
    traced = {span.name for span in tracer.spans}
    assert {"graphs.partition", "dc.dc_overlap", "dc.local", "dc.align", "dc.merge",
            "estimators.solve_mle", "laplacian.assemble", "laplacian.solve"} <= traced


def test_estimate_calls_the_cli_names_the_benchmark_rebinds(tmp_path, monkeypatch):
    # keeping_dc_overlap swaps cli.dc_overlap and the traced run cli.solve_mle, so the
    # estimate command must call each through the cli module, once, and write what it returned
    spec = graphs.GridSpec(kind="grid1d", n=40, r=4)
    graph = graphs.generate_grid(spec, L=20)
    g, d = tmp_path / "g.csv", tmp_path / "d.csv"
    graph.to_csv(g)
    model.sample_comparisons(graph, model.make_scores("sine", 40, 4),
                             np.random.default_rng(3)).to_csv(d)
    marker = model.ScoreVector.zero_sum(np.arange(40.0))
    for name, method in (("dc_overlap", ["dc-overlap", "--auto-partition", "grid", "--r", "4"]),
                         ("solve_mle", ["mle-precond"])):
        calls = []
        real = getattr(cli, name)

        def spy(*args, real=real, calls=calls, **kwargs):
            calls.append(args)
            return (marker, *real(*args, **kwargs)[1:])

        monkeypatch.setattr(cli, name, spy)
        out = tmp_path / f"{name}.json"
        assert cli.main(["estimate", "--graph", str(g), "--data", str(d), "--out", str(out),
                         "--method", *method]) == 0
        assert len(calls) == 1, name
        assert json.loads(out.read_text()) == marker.values.tolist()
