"""The benchmark's traced run (``perfbench/run.py --trace 1``) swaps btlrank
entry points by name for timing wrappers and unpacks some results. These
checks keep those names and result shapes in place, so that a refactor which
breaks them fails here instead of in the traced run."""

import sys
from pathlib import Path

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
