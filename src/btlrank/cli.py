"""Command-line interface: graph/data generation, estimation, resistances,
bound tables, and the experiment harness.

Exit codes: 0 success, 1 usage error, 2 numerical or nonexistence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .dc import dc_community, dc_overlap
from .estimators import (MleProblem, NonexistenceError, SolverConfig,
                         SolverError, solve_mle, spectral_estimate)
from .experiments import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .graphs import (ComparisonGraph, GraphError, GridSpec, Partition,
                     generate_grid, generate_special, grid_partition, write_csv)
from .graphs import partition_grid  # noqa: F401  perfbench/tracing.py wraps cli.partition_grid
from .laplacian import LaplacianError, LaplacianOperator
from .metrics import bound_quantities
from .model import (ComparisonData, ModelError, ScoreVector,
                    exact_comparisons, make_scores, sample_comparisons)

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

ESTIMATE_METHODS = ("mle-gd", "mle-cd", "mle-precond", "mle-pgd", "spectral",
                    "dc-overlap", "dc-community")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="btlrank")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a comparison graph (and optional partition)")
    g.add_argument("--kind", required=True,
                   choices=["grid1d", "grid2d", "er", "line", "ring", "complete",
                            "barbell", "tree"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, default=1)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--L", type=int, default=1)
    g.add_argument("--clique1", type=int)
    g.add_argument("--clique2", type=int)
    g.add_argument("--L-st", type=int, dest="L_st")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--partition-out")
    g.add_argument("--partition-mode", choices=["overlapping", "disjoint"],
                   default="overlapping")

    s = sub.add_parser("sample", help="sample comparison outcomes on a graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--scores")
    s.add_argument("--score-kind", choices=["sine", "linear", "linear2d"])
    s.add_argument("--score-r", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--exact", action="store_true",
                   help="emit infinite-sample win fractions instead of sampling")
    s.add_argument("--out", required=True)

    for name in ("estimate", "trace"):
        e = sub.add_parser(name, help="run an estimator" if name == "estimate"
                           else "run a solver and emit only its trace")
        e.add_argument("--method", required=True, choices=ESTIMATE_METHODS)
        e.add_argument("--graph", required=True)
        e.add_argument("--data", required=True)
        e.add_argument("--out", required=True)
        e.add_argument("--trace")
        e.add_argument("--partition")
        e.add_argument("--auto-partition", choices=["grid"])
        e.add_argument("--grid-kind", choices=["grid1d", "grid2d"], default="grid1d")
        e.add_argument("--r", type=int)
        e.add_argument("--step-size", type=float)
        e.add_argument("--max-iter", type=int)

    r = sub.add_parser("resistance", help="effective resistance table")
    r.add_argument("--graph", required=True)
    r.add_argument("--pairs", default="all",
                   help='"all" or semicolon-separated "k,l" pairs')
    r.add_argument("--unit-weights", action="store_true",
                   help="ignore sample counts; weight every edge 1")
    r.add_argument("--out", required=True)

    b = sub.add_parser("bounds", help="per-pair bound quantities B, Q, V")
    b.add_argument("--graph", required=True)
    b.add_argument("--scores", required=True)
    b.add_argument("--delta", type=float, default=0.1)
    b.add_argument("--c0", type=float, default=1.0)
    b.add_argument("--pairs", default="all")
    b.add_argument("--out", required=True)

    x = sub.add_parser("experiment", help="run a Monte-Carlo experiment sweep")
    x.add_argument("--id", choices=list(EXPERIMENTS))
    x.add_argument("--config", help="JSON config file (overrides --id defaults)")
    x.add_argument("--trials", type=int)
    x.add_argument("--seed", type=int)
    x.add_argument("--out-dir", default="results")

    return parser


def _parse_pairs(text: str, n: int):
    if text == "all":
        return None
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            k, l = (int(v) for v in chunk.split(","))
        except ValueError as exc:
            raise CliError(f"bad pair {chunk!r}; expected k,l", USAGE_ERROR) from exc
        if not (0 <= k < n and 0 <= l < n) or k == l:
            raise CliError(f"pair {chunk!r} out of range", USAGE_ERROR)
        pairs.append((k, l))
    if not pairs:
        raise CliError("empty pair list", USAGE_ERROR)
    return pairs


def _cmd_generate(args) -> int:
    if args.partition_out and args.kind not in ("grid1d", "grid2d"):
        raise CliError("--partition-out needs a grid kind", USAGE_ERROR)
    rng = np.random.default_rng(args.seed)
    if args.kind in ("grid1d", "grid2d"):
        spec = GridSpec(kind=args.kind, n=args.n, r=args.r, p=args.p)
        graph = generate_grid(spec, L=args.L, rng=rng)
    else:
        params = {"n": args.n, "p": args.p, "L": args.L}
        if args.kind == "barbell":
            if args.clique1 is None or args.clique2 is None:
                raise CliError("barbell needs --clique1 and --clique2", USAGE_ERROR)
            params = {"clique1": args.clique1, "clique2": args.clique2,
                      "L": args.L, "L_st": args.L_st or args.L}
        graph = generate_special(args.kind, rng=rng, **params)
    graph.to_csv(args.out)
    if args.partition_out:
        grid_partition(spec, args.partition_mode).to_json(args.partition_out)
    if not graph.connected:
        print("warning: generated graph is disconnected", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    graph = ComparisonGraph.from_csv(args.graph)
    if args.scores:
        scores = ScoreVector.from_json(args.scores)
        if scores.n != graph.n:
            raise CliError("score length does not match graph", USAGE_ERROR)
    elif args.score_kind:
        scores = make_scores(args.score_kind, graph.n, args.score_r)
    else:
        raise CliError("need --scores or --score-kind", USAGE_ERROR)
    if args.exact:
        data = exact_comparisons(graph, scores)
    else:
        data = sample_comparisons(graph, scores, np.random.default_rng(args.seed))
    data.to_csv(args.out)
    return 0


def _load_partition(args, graph: ComparisonGraph, grid_mode: str):
    """The ``--partition`` file, or grid windows of the stride ``grid_mode`` names."""
    if args.partition:
        return Partition.from_json(args.partition, n=graph.n)
    if args.auto_partition == "grid":
        if args.r is None:
            raise CliError("--auto-partition grid needs --r", USAGE_ERROR)
        spec = GridSpec(kind=args.grid_kind, n=graph.n, r=args.r, p=1.0)
        return grid_partition(spec, grid_mode)
    raise CliError("method needs --partition or --auto-partition grid", USAGE_ERROR)


def _cmd_estimate(args, trace_only: bool) -> int:
    if (trace_only or args.trace) and not args.method.startswith("mle-"):
        raise CliError("trace output requires an iterative MLE method", USAGE_ERROR)
    graph = ComparisonGraph.from_csv(args.graph)
    data = ComparisonData.from_csv(args.data, graph)
    if args.method == "spectral":
        result = spectral_estimate(graph, data)
        scores = result.theta
        if result.failed:
            scores.to_json(args.out)
            reason = ("stationary distribution underflow; log-scores contain -inf"
                      if result.underflow else
                      "small stationary entries not resolved within the iteration budget")
            print(f"numerical failure: {reason}", file=sys.stderr)
            return NUMERICAL_ERROR
    elif args.method == "dc-overlap":
        partition = _load_partition(args, graph, "overlapping")
        scores, _, _ = dc_overlap(graph, data, partition)
    elif args.method == "dc-community":
        partition = _load_partition(args, graph, "disjoint")
        scores, _, _ = dc_community(graph, data, partition)
    else:
        method = {"mle-gd": "gd", "mle-cd": "cd", "mle-precond": "precond_gd",
                  "mle-pgd": "pgd"}[args.method]
        config = SolverConfig(method=method, step_size=args.step_size,
                              max_iter=args.max_iter)
        if method == "pgd":
            config.partition = _load_partition(args, graph, "overlapping")
        scores, trace = solve_mle(MleProblem(graph, data), config)
        if not trace.converged:
            print("warning: solver hit the iteration cap before the gradient "
                  "tolerance", file=sys.stderr)
    if trace_only:
        trace.to_csv(args.out)
        return 0
    scores.to_json(args.out)
    if args.trace:
        trace.to_csv(args.trace)
    return 0


def _cmd_resistance(args) -> int:
    graph = ComparisonGraph.from_csv(args.graph)
    pairs = _parse_pairs(args.pairs, graph.n)
    weights = np.ones(graph.num_edges) if args.unit_weights \
        else graph.counts.astype(np.float64)
    op = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, weights)
    resistances = op.resistance_matrix(pairs=pairs)
    write_csv(args.out, ["k", "l", "omega"],
              [(k, l, omega) for (k, l), omega in sorted(resistances.items())])
    return 0


def _cmd_bounds(args) -> int:
    graph = ComparisonGraph.from_csv(args.graph)
    scores = ScoreVector.from_json(args.scores)
    if scores.n != graph.n:
        raise CliError("score length does not match graph", USAGE_ERROR)
    pairs = _parse_pairs(args.pairs, graph.n)
    quantities = bound_quantities(graph, scores, delta=args.delta, C0=args.c0,
                                  pairs=pairs)
    quantities.to_csv(args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    elif args.id:
        config = default_config(args.id)
    else:
        raise CliError("need --id or --config", USAGE_ERROR)
    overrides = {"out_dir": args.out_dir}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    from dataclasses import replace

    config = replace(config, **overrides)
    records, _ = run_experiment(config)
    failures = sum(rec.failed for rec in records)
    print(f"{len(records)} records, {failures} failures -> {config.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "estimate":
            return _cmd_estimate(args, trace_only=False)
        if args.command == "trace":
            return _cmd_estimate(args, trace_only=True)
        if args.command == "resistance":
            return _cmd_resistance(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_experiment(args)  # the subparsers are required, so no other command
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NonexistenceError, SolverError, LaplacianError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (GraphError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
