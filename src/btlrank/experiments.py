"""Monte-Carlo experiment harness: estimator comparisons on locality grids
and solver convergence traces, with deterministic seeding and CSV output."""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from itertools import product

import numpy as np

from .dc import dc_overlap
from .estimators import (ConvergenceTrace, MleProblem, SolverConfig, loss,
                         solve_mle, spectral_estimate)
from .graphs import GRID_KINDS, GraphError, GridSpec, generate_grid, grid_partition, write_csv
from .metrics import error_report, locality_bound
from .model import SCORE_KINDS, make_scores, sample_comparisons

# each convergence method and the SolverConfig it builds from the truth, the small step
# and the grid spec; the runner adds the reference solution
_CONVERGENCE = {
    "precond-oracle": lambda truth, eta, spec: SolverConfig(method="precond_gd",
                                                            oracle_scores=truth),
    "precond-lg": lambda truth, eta, spec: SolverConfig(method="precond_gd"),
    "pgd": lambda truth, eta, spec: SolverConfig(
        method="pgd", partition=grid_partition(spec, "overlapping"), step_size=eta),
    "cd": lambda truth, eta, spec: SolverConfig(method="cd", max_iter=500),
    "gd-small": lambda truth, eta, spec: SolverConfig(method="gd", step_size=eta,
                                                      max_iter=50_000),
    "gd-large": lambda truth, eta, spec: SolverConfig(method="gd", step_size=5.0 * eta,
                                                      max_iter=2_000),
}
# each experiment family and its methods; a config runs all of them or the ones it lists
_METHODS = {"mle-vs-spectral": ("mle", "spectral"), "mle-vs-dcoverlap": ("mle", "dc-overlap"),
            "convergence": tuple(_CONVERGENCE)}
EXPERIMENTS = tuple(_METHODS)
_IS = {"an int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
       "a real number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
       "a string": lambda v: isinstance(v, str)}
# the type of each ExperimentConfig field a config file sets; [t] is a list of t
_FIELD_TYPES = {"kind": "a string", "n_list": ["an int"], "r_list": ["an int"],
                "p_list": ["a real number"], "L_list": ["an int"], "score_kinds": ["a string"],
                "trials": "an int", "base_seed": "an int", "methods": ["a string"],
                "out_dir": "a string", "gap_tol_factor": "a real number"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition for one experiment family.

    The sweep is the cartesian product of n_list x r_list x p_list x L_list
    x score_kinds; each point runs ``trials`` seeded trials.
    """

    experiment: str
    kind: str = "grid1d"
    n_list: tuple = (60, 120, 240)
    r_list: tuple = (10,)
    p_list: tuple = (0.8,)
    L_list: tuple = (100,)
    score_kinds: tuple = ("sine", "linear")
    trials: int = 20
    base_seed: int = 2024
    methods: tuple | None = None
    out_dir: str = "results"
    gap_tol_factor: float = 1e-6  # convergence experiment threshold

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name, want in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(want, str):
                if not _IS[want](value):
                    raise ValueError(f"{name} must be {want}, not {value!r}")
            elif not (name == "methods" and value is None):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list, not {value!r}")
                for v in value:
                    if not _IS[want[0]](v):
                        raise ValueError(f"each entry of {name} must be {want[0]}, not {v!r}")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if not (math.isfinite(self.gap_tol_factor) and self.gap_tol_factor > 0):
            raise ValueError(f"gap_tol_factor must be finite and positive, not {self.gap_tol_factor}")
        for name in ("n_list", "r_list", "p_list", "L_list", "score_kinds"):
            seq = tuple(getattr(self, name))
            if not seq:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, seq)
        if self.methods is not None:
            object.__setattr__(self, "methods", tuple(self.methods))
        for name, value, known in (("kind", (self.kind,), GRID_KINDS),
                                   ("score_kinds", self.score_kinds, SCORE_KINDS),
                                   ("methods", self.resolved_methods(), _METHODS[self.experiment])):
            unknown = [v for v in value if v not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; choose from {list(known)}")
        for n, r, p in product(self.n_list, self.r_list, self.p_list):
            GridSpec(kind=self.kind, n=n, r=r, p=p)  # raises GraphError for an impossible grid
        for n, r, score_kind in product(self.n_list, self.r_list, self.score_kinds):
            make_scores(score_kind, n, r)  # raises ModelError for scores it cannot build
        if min(self.L_list) < 1:
            raise ValueError(f"each entry of L_list must be >= 1, not {min(self.L_list)}")

    def resolved_methods(self) -> tuple:
        return _METHODS[self.experiment] if self.methods is None else self.methods

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict) or "experiment" not in raw:
            raise ValueError(f"{path}: experiment config is not a JSON object with an experiment key")
        unknown = sorted(raw.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown experiment config keys {unknown}")
        return cls(**raw)


# what each family's desk-scale sweep changes in ExperimentConfig's defaults,
# which are the mle-vs-spectral sweep
_DEFAULT_SWEEPS = {
    "mle-vs-dcoverlap": dict(n_list=(256,), r_list=(16,), p_list=(0.5,), L_list=(10, 30, 100),
                             score_kinds=("linear",)),
    "convergence": dict(n_list=(200,), score_kinds=("linear",), trials=5),
}


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults for each experiment family."""
    return ExperimentConfig(experiment=experiment,
                            **{**_DEFAULT_SWEEPS.get(experiment, {}), **overrides})


@dataclass
class TrialRecord:
    experiment: str
    kind: str
    n: int
    r: int
    p: float
    L: int
    score_kind: str
    trial: int
    seed: int
    method: str
    linf: float = math.nan
    max_pairwise: float = math.nan
    l2: float = math.nan
    pi_rel_err: float = math.nan
    iterations: int = -1
    seconds: float = 0.0
    failed: bool = False
    note: str = ""


def records_to_csv(records: list[TrialRecord], path) -> None:
    write_csv(path, [f.name for f in fields(TrialRecord)], [astuple(rec) for rec in records])


def trial_seed(base_seed: int, trial: int) -> int:
    return base_seed ^ trial


def _trial_rng(config: ExperimentConfig, coords, trial: int) -> np.random.Generator:
    n, r, p, L, score_kind = coords
    seed = trial_seed(config.base_seed, trial)
    return np.random.default_rng(
        [seed, n, r, int(round(p * 10 ** 6)), L, SCORE_KINDS.index(score_kind) + 1])


def small_step(kind: str, r: int, p: float, L: int) -> float:
    """Safe vanilla gradient step for a d-dimensional locality grid: 1/(r^d p L)."""
    return 1.0 / (r ** (GRID_KINDS.index(kind) + 1) * p * L)


def _build_instance(config: ExperimentConfig, coords, rng):
    n, r, p, L, score_kind = coords
    spec = GridSpec(kind=config.kind, n=n, r=r, p=p)
    graph = generate_grid(spec, L=L, rng=rng)
    if not graph.connected:
        raise GraphError("sampled grid came out disconnected")
    truth = make_scores(score_kind, n, r)
    data = sample_comparisons(graph, truth, rng)
    return spec, graph, truth, data


def iterations_to_gap(losses, loss_star: float, gap: float) -> int:
    """First trace index with loss - loss_star <= gap, or -1 if never."""
    for t, value in enumerate(losses):
        if math.isfinite(value) and value - loss_star <= gap:
            return t
    return -1


def _comparison_runner(config: ExperimentConfig, coords, spec, graph, truth, data):
    """Estimate with one comparison method; no trace is kept."""
    problem = MleProblem(graph, data)

    def run(method: str, rec: TrialRecord):
        if method == "dc-overlap":  # raises on a failure
            return dc_overlap(graph, data, grid_partition(spec, "overlapping"))[0], None
        if method == "mle":
            scores, result = solve_mle(problem, SolverConfig(method="precond_gd"))
            rec.iterations = len(result.iterations) - 1
        else:  # spectral
            result = spectral_estimate(graph, data)
            scores = result.theta
            rec.iterations = result.iterations
            pi_star = np.exp(truth.values)
            pi_star /= pi_star.sum()
            rec.pi_rel_err = float(np.abs(result.pi - pi_star).max()
                                   / np.abs(pi_star).max())
        rec.failed, rec.note = result.failed, result.reason
        return scores, None

    return run


def _convergence_runner(config: ExperimentConfig, coords, spec, graph, truth, data):
    """Solve with one convergence method and count its iterations to the loss gap
    of an oracle-preconditioned reference solve."""
    _, r, p, L, _ = coords
    problem = MleProblem(graph, data)
    ref, _ = solve_mle(problem, SolverConfig(
        method="precond_gd", oracle_scores=truth, grad_tol_factor=1e-13, max_iter=5000))
    loss_star = loss(problem, ref.values)
    gap = config.gap_tol_factor * graph.total_samples
    eta_small = small_step(config.kind, r, p, L)

    def run(method: str, rec: TrialRecord):
        method_config = _CONVERGENCE[method](truth, eta_small, spec)
        scores, trace = solve_mle(problem, replace(method_config, reference=ref.values))
        rec.iterations = iterations_to_gap(trace.losses, loss_star, gap)
        if rec.iterations < 0:
            rec.note = "did not reach the loss-gap threshold"
        return scores, trace

    return run


def _trial_task(args) -> tuple[list[TrialRecord], dict[str, ConvergenceTrace]]:
    """Every method on one seeded instance: records, plus each kept trace by file name.

    The family's runner does one method's work; this loop times it, scores it
    and notes a failure. An instance that cannot be set up fails every method.
    """
    config, coords, trial = args
    n, r, p, L, score_kind = coords
    base = dict(experiment=config.experiment, kind=config.kind, n=n, r=r, p=p,
                L=L, score_kind=score_kind, trial=trial,
                seed=trial_seed(config.base_seed, trial))
    runner = _convergence_runner if config.experiment == "convergence" else _comparison_runner
    records, traces = [], {}
    rng = _trial_rng(config, coords, trial)
    try:
        spec, graph, truth, data = _build_instance(config, coords, rng)
        run = runner(config, coords, spec, graph, truth, data)
    except (ValueError, RuntimeError) as exc:
        return [TrialRecord(**base, method=method, failed=True, note=f"instance: {exc}")
                for method in config.resolved_methods()], traces
    for method in config.resolved_methods():
        start = time.perf_counter()
        rec = TrialRecord(**base, method=method)
        try:
            scores, trace = run(method, rec)
            report = error_report(scores, truth)
            rec.linf = report.linf
            rec.max_pairwise = report.max_pairwise
            rec.l2 = report.l2
            if trace is not None:
                traces[f"trace_{method}_n{n}_trial{trial}.csv"] = trace
        except (ValueError, RuntimeError) as exc:
            rec.failed = True
            rec.note = str(exc)
        rec.seconds = time.perf_counter() - start
        records.append(rec)
    return records, traces


def _summarize(config: ExperimentConfig, records: list[TrialRecord]) -> list[dict]:
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = (rec.n, rec.r, rec.p, rec.L, rec.score_kind, rec.method)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups, key=str):
        recs = groups[key]
        n, r, p, L, score_kind, method = key
        ok = [rec for rec in recs if math.isfinite(rec.linf)]
        linf = np.array([rec.linf for rec in ok]) if ok else np.array([math.nan])
        iters = np.array([rec.iterations for rec in recs if rec.iterations >= 0])
        row = dict(n=n, r=r, p=p, L=L, score_kind=score_kind, method=method,
                   trials=len(recs), failures=sum(rec.failed for rec in recs),
                   mean_linf=float(np.mean(linf)), median_linf=float(np.median(linf)),
                   median_iterations=float(np.median(iters)) if len(iters) else math.nan)
        if config.experiment == "mle-vs-dcoverlap":
            row["theory_bound"] = locality_bound(config.kind, n, r, p, L)
        if config.experiment == "mle-vs-spectral" and method == "spectral":
            rel = [rec.pi_rel_err for rec in recs if math.isfinite(rec.pi_rel_err)]
            row["mean_pi_rel_err"] = float(np.mean(rel)) if rel else math.nan
        rows.append(row)
    return rows


def run_experiment(config: ExperimentConfig,
                   write_files: bool = True) -> tuple[list[TrialRecord], list[dict]]:
    """Run all sweep points x trials; emit records.csv, summary.csv and traces.

    With ``write_files=False`` nothing is written and ``out_dir`` is not
    created.

    Worker count comes from the BTLRANK_WORKERS environment variable (default 1,
    sequential; a value that is not an integer >= 1 raises ValueError first); parallel
    runs give identical records, as each trial seeds from (base seed XOR trial index).
    """
    points = product(config.n_list, config.r_list, config.p_list, config.L_list, config.score_kinds)
    tasks = [(config, coords, trial) for coords in points for trial in range(config.trials)]
    value = os.environ.get("BTLRANK_WORKERS", "1")
    if not (value.isdecimal() and (workers := int(value)) >= 1):
        raise ValueError(f"BTLRANK_WORKERS must be a positive integer, not {value!r}")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_trial_task, tasks))
    else:
        chunks = [_trial_task(t) for t in tasks]
    records = [rec for recs, _ in chunks for rec in recs]
    summary = _summarize(config, records)
    if write_files:
        os.makedirs(config.out_dir, exist_ok=True)
        for _, traces in chunks:
            for name, trace in traces.items():
                trace.to_csv(os.path.join(config.out_dir, name))
        records_to_csv(records, os.path.join(config.out_dir, "records.csv"))
        if summary:
            cols = sorted({k for row in summary for k in row},
                          key=lambda c: (c not in ("n", "r", "p", "L", "score_kind", "method"), c))
            write_csv(os.path.join(config.out_dir, "summary.csv"), cols,
                      [[row.get(c) for c in cols] for row in summary])
        config.to_json(os.path.join(config.out_dir, "config.json"))
    return records, summary
