"""Command-line interface: graph/data generation, estimation, resistances,
bound tables, and the experiment harness.

Exit codes: 0 success, 1 usage error, 2 numerical or nonexistence failure, including
an estimate whose result reads ``failed`` (its scores and any trace are still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .dc import dc_community, dc_overlap
from .estimators import (MleProblem, NonexistenceError, SolverConfig,
                         SolverError, solve_mle, spectral_estimate)
from .experiments import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .graphs import (GRID_KINDS, PARTITION_MODES, SPECIAL_KINDS, ComparisonGraph, GraphError,
                     GridSpec, Partition, generate_grid, generate_special, grid_partition,
                     write_csv)
from .graphs import partition_grid  # noqa: F401  perfbench/tracing.py wraps cli.partition_grid
from .laplacian import LaplacianError, LaplacianOperator
from .metrics import bound_quantities
from .model import (SCORE_KINDS, ComparisonData, ModelError, ScoreVector,
                    exact_comparisons, make_scores, sample_comparisons)

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

ESTIMATE_METHODS = ("mle-gd", "mle-cd", "mle-precond", "mle-pgd", "spectral",
                    "dc-overlap", "dc-community")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    if not text.isdecimal():  # digits only, so no sign
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="btlrank")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a comparison graph (and optional partition)")
    g.add_argument("--kind", required=True, choices=[*GRID_KINDS, *SPECIAL_KINDS])
    g.add_argument("--n", type=int, help="node count (grid kinds, and special kinds but barbell)")
    g.add_argument("--r", type=int, default=1)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--L", type=int, default=1)
    g.add_argument("--clique1", type=int)
    g.add_argument("--clique2", type=int)
    g.add_argument("--L-st", type=int, dest="L_st")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--partition-out")
    g.add_argument("--partition-mode", choices=PARTITION_MODES, help=f"default {PARTITION_MODES[0]}")

    s = sub.add_parser("sample", help="sample comparison outcomes on a graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--scores")
    s.add_argument("--score-kind", choices=SCORE_KINDS)
    s.add_argument("--score-r", type=int, default=1)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--exact", action="store_true",
                   help="emit infinite-sample win fractions instead of sampling")
    s.add_argument("--out", required=True)

    e = sub.add_parser("estimate", help="run an estimator")
    e.add_argument("--method", required=True, choices=ESTIMATE_METHODS)
    e.add_argument("--graph", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--trace", help="also write the convergence trace CSV (mle-* methods)")
    e.add_argument("--partition")
    e.add_argument("--auto-partition", choices=["grid"])
    e.add_argument("--grid-kind", choices=GRID_KINDS, help="default grid1d")
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
    x.add_argument("--seed", type=_seed)
    x.add_argument("--out-dir", default="results")

    return parser


def _parse_pairs(text: str):
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
        if k == l:
            raise CliError(f"pair {chunk!r} needs two different nodes", USAGE_ERROR)
        pairs.append((k, l))
    if not pairs:
        raise CliError("empty pair list", USAGE_ERROR)
    return pairs


def _cmd_generate(args) -> int:
    if args.partition_out and args.kind not in GRID_KINDS:
        raise CliError("--partition-out needs a grid kind", USAGE_ERROR)
    if args.partition_mode and not args.partition_out:
        raise CliError("--partition-mode needs --partition-out", USAGE_ERROR)
    rng = np.random.default_rng(args.seed)
    if args.kind in GRID_KINDS:
        if args.n is None:
            raise CliError(f"--kind {args.kind} needs --n", USAGE_ERROR)
        spec = GridSpec(kind=args.kind, n=args.n, r=args.r, p=args.p)
        graph = generate_grid(spec, L=args.L, rng=rng)
    else:
        graph = generate_special(args.kind, rng=rng, n=args.n, p=args.p, L=args.L,
                                 clique1=args.clique1, clique2=args.clique2, L_st=args.L_st)
    graph.to_csv(args.out)
    if args.partition_out:
        grid_partition(spec, args.partition_mode or PARTITION_MODES[0]).to_json(args.partition_out)
    if not graph.connected:
        print("warning: generated graph is disconnected", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    graph = ComparisonGraph.from_csv(args.graph)
    if args.scores:
        scores = ScoreVector.from_json(args.scores)
    elif args.score_kind:
        scores = make_scores(args.score_kind, graph.n, args.score_r)
    else:
        raise CliError("need --scores or --score-kind", USAGE_ERROR)
    data = (exact_comparisons(graph, scores) if args.exact
            else sample_comparisons(graph, scores, np.random.default_rng(args.seed)))
    data.to_csv(args.out)
    return 0


def _load_partition(args, graph: ComparisonGraph, grid_mode: str):
    """The ``--partition`` file, or grid windows of the stride ``grid_mode`` names."""
    if args.partition:
        return Partition.from_json(args.partition, n=graph.n)
    if args.auto_partition == "grid":
        if args.r is None:
            raise CliError("--auto-partition grid needs --r", USAGE_ERROR)
        spec = GridSpec(kind=args.grid_kind or "grid1d", n=graph.n, r=args.r, p=1.0)
        return grid_partition(spec, grid_mode)
    raise CliError("method needs --partition or --auto-partition grid", USAGE_ERROR)


def _cmd_estimate(args) -> int:
    for reads, options, who in ((args.method.startswith("mle-"),
                                 ("--trace", "--step-size", "--max-iter"), "the mle-* methods"),
                                (args.method in ("mle-pgd", "dc-overlap", "dc-community"),
                                 ("--partition", "--auto-partition", "--grid-kind", "--r"),
                                 "mle-pgd and the dc-* methods")):
        given = [o for o in options if getattr(args, o[2:].replace("-", "_")) is not None]
        if given and not reads:
            raise CliError(f"{given[0]} is read only by {who}, not {args.method}", USAGE_ERROR)
    graph = ComparisonGraph.from_csv(args.graph)
    data = ComparisonData.from_csv(args.data, graph)
    result = None  # the run's ConvergenceTrace or SpectralResult; dc raises instead
    if args.method == "spectral":
        result = spectral_estimate(graph, data)
        scores = result.theta
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
        scores, result = solve_mle(MleProblem(graph, data), config)
    scores.to_json(args.out)
    if args.trace:
        result.to_csv(args.trace)
    if result is not None and result.failed:
        print(f"numerical failure: {result.reason}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def _cmd_resistance(args) -> int:
    graph = ComparisonGraph.from_csv(args.graph)
    pairs = _parse_pairs(args.pairs)
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
    pairs = _parse_pairs(args.pairs)
    bound_quantities(graph, scores, delta=args.delta, C0=args.c0, pairs=pairs).to_csv(args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    elif args.id:
        config = default_config(args.id)
    else:
        raise CliError("need --id or --config", USAGE_ERROR)
    overrides = {"out_dir": args.out_dir, "trials": args.trials, "base_seed": args.seed}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    records, _ = run_experiment(config)
    failures = sum(rec.failed for rec in records)
    print(f"{len(records)} records, {failures} failures -> {config.out_dir}")
    return 0


COMMANDS = {"generate": _cmd_generate, "sample": _cmd_sample, "estimate": _cmd_estimate,
            "resistance": _cmd_resistance, "bounds": _cmd_bounds,
            "experiment": _cmd_experiment}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return COMMANDS[args.command](args)  # the subparsers are required, so one of these
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
