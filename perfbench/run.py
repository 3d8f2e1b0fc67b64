"""Seeded end-to-end and per-layer benchmark of btlrank.

    python3 perfbench/run.py --workload grid1d-chain --seed 1 --seconds 30 --trace 0

One process, one caller: every op starts after the previous one returned
(a closed loop). CLI ops call ``btlrank.cli.main`` in process, so start-up
and import are paid once, in set-up. Every output is checked against the
references in ``reference.py``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer times and counts, from direct
calls into each module and from spans around its public entry points.
The last line of standard output is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
# BLAS pools size themselves when numpy loads, so the cap is set first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
# Unset, the experiment harness runs its trials sequentially in this process.
WORKERS_ENV = os.environ.pop("BTLRANK_WORKERS", None)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracing import Tracer, rebound  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SNIPPET = f"import sys; sys.path.insert(0, {str(SRC)!r}); import btlrank.cli"


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    r: int
    p: float
    L: int
    scores: str

    def pairs(self):
        n = self.n
        return [(0, n // 8), (0, n // 4), (0, n // 2), (0, n - 1)]


SWEEP_METHODS = ("precond-oracle", "precond-lg", "pgd", "cd", "gd-small", "gd-large")
# The methods whose order criterion 05 checks; cd takes most of a full sweep.
FAST_SWEEP = ("precond-oracle", "precond-lg", "pgd", "gd-small")
OPS = ("estimate", "dc_overlap", "dc_community", "resistance", "sweep", "bounds")
DATA_OPS = ("estimate", "dc_overlap", "dc_community")
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    number: int  # part of every RNG stream key
    main: Instance  # graph of the CLI ops
    bounds: Instance  # graph of the bounds op, for the pair (0, n-1)
    sweep_methods: tuple
    reps: dict  # fixed runs of the data ops, each on its own comparison sample

    @property
    def replicates(self):
        return max(self.reps.values())


SMALL = Instance("grid1d", 400, 10, 0.8, 50, "sine")
SMALLER = Instance("grid1d", 200, 10, 0.8, 50, "sine")
# Replicate counts: accuracy is a mean over this many comparison samples
# of one graph, enough to keep its seed-to-seed spread within the bound.
# Every result carries every metric, so the chain and the blocks also time
# a sweep and a bounds op, reduced to stay cheap enough to repeat.
WORKLOADS = {
    "grid1d-chain": Workload(
        1, Instance("grid1d", 5000, 10, 0.8, 50, "sine"), SMALLER, FAST_SWEEP,
        {"estimate": 1, "dc_overlap": 4, "dc_community": 6}),
    "grid2d-blocks": Workload(
        2, Instance("grid2d", 10000, 4, 0.8, 50, "linear2d"), SMALLER, FAST_SWEEP,
        {"estimate": 1, "dc_overlap": 1, "dc_community": 2}),
    "grid1d-small": Workload(
        3, SMALL, SMALL, SWEEP_METHODS,
        {"estimate": 10, "dc_overlap": 10, "dc_community": 10}),
}

END_TO_END = {
    "setup_s": "s", "estimate_s": "s", "estimate_rmse": "ratio",
    "dc_overlap_s": "s", "dc_overlap_rmse": "ratio", "dc_community_s": "s",
    "dc_community_rmse": "ratio", "resistance_per_s": "pairs/s", "sweep_s": "s",
    "bounds_s": "s", "ok_frac": "ratio",
}
PER_LAYER = {
    "graphs.generate_s": "s", "graphs.partition_overlap_s": "s",
    "graphs.partition_disjoint_s": "s", "graphs.from_csv_s": "s",
    "graphs.blocks_overlap": "count", "graphs.blocks_disjoint": "count",
    "model.sample_s": "s", "model.data_from_csv_s": "s",
    "laplacian.assemble_s": "s", "laplacian.solve_s": "s", "laplacian.solve_iters": "count",
    "laplacian.solve_residual": "ratio", "laplacian.resistance_s": "s",
    "laplacian.solve_calls": "count", "laplacian.solve_self_s": "s",
    "laplacian.cg_iters_total": "count", "laplacian.dense_solves": "count",
    "laplacian.cg_solves": "count",
    "estimators.gradient_s": "s", "estimators.loss_s": "s",
    "estimators.gradient_bytes": "bytes", "estimators.mle_exists_s": "s",
    "estimators.solve_mle_s": "s", "estimators.precond_outer_iters": "count",
    "estimators.spectral_s": "s", "estimators.spectral_iters": "count",
    "estimators.spectral_failed": "count",
    "dc.local_overlap_s": "s", "dc.align_s": "s", "dc.merge_s": "s",
    "dc.alignment_residual": "score", "dc.local_disjoint_s": "s", "dc.stitch_s": "s",
    "metrics.bounds_s": "s", "metrics.bounds_solves": "count",
    **{f"experiments.{m}_{suffix}": unit for m in SWEEP_METHODS
       for suffix, unit in (("s", "s"), ("iters", "count"))},
    "experiments.cd_missed_gap": "count", "experiments.gd-large_diverged": "count",
    "cli.overhead_s": "s", "trace.overhead_s": "s",
    "trace.estimate_laplacian_share": "ratio", "trace.dc_overlap_local_share": "ratio",
    "trace.selfsum_gap_s": "s",
}
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
NO_ESTIMATE = 1e9  # accuracy ratio reported when no replicate gave a usable estimate


def import_btlrank():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import btlrank.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import btlrank from {SRC}: {exc}")
    import btlrank

    if Path(btlrank.__file__).resolve().parent != SRC / "btlrank":
        sys.exit(f"perfbench: btlrank resolved to {btlrank.__file__}, not {SRC}")


def provenance():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # the benchmark may run in a checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted((SRC / "btlrank").glob("*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "BTLRANK_WORKERS": WORKERS_ENV, "commit": commit,
            "src_lines": src_lines}


@dataclass
class Inputs:
    """Files the ops read, and the arrays and objects behind them."""

    inst: Instance
    graph_csv: str
    data_csvs: list
    ei: np.ndarray
    ej: np.ndarray
    counts: np.ndarray
    wins: list
    truth: np.ndarray
    bounds_graph_csv: str
    bounds_scores_json: str
    bounds_arrays: tuple  # (ei, ej, counts) of the bounds graph
    bounds_truth: np.ndarray
    graph: object  # btlrank objects of the main graph, for direct layer calls
    data: list


def rng(seed, workload, stream):
    return np.random.default_rng([seed, workload.number, stream])


def make_inputs(workload, seed, workdir):
    """Generate the graphs and comparison samples and write the input files."""
    from btlrank.graphs import GridSpec, generate_grid
    from btlrank.model import make_scores, sample_comparisons

    def grid(inst, stream):
        spec = GridSpec(kind=inst.kind, n=inst.n, r=inst.r, p=inst.p)
        gen = rng(seed, workload, stream)
        return generate_grid(spec, L=inst.L, rng=gen), make_scores(inst.scores, inst.n, inst.r)

    inst = workload.main
    graph, truth = grid(inst, 0)
    data = [sample_comparisons(graph, truth, rng(seed, workload, 1 + k))
            for k in range(workload.replicates)]
    graph_csv = str(workdir / "graph.csv")
    graph.to_csv(graph_csv)
    data_csvs = []
    for k, d in enumerate(data):
        data_csvs.append(str(workdir / f"data{k}.csv"))
        d.to_csv(data_csvs[-1])
    if workload.bounds == inst:
        bgraph, btruth, bcsv = graph, truth, graph_csv
    else:
        bgraph, btruth = grid(workload.bounds, 1000)
        bcsv = str(workdir / "bounds_graph.csv")
        bgraph.to_csv(bcsv)
    bjson = str(workdir / "bounds_scores.json")
    btruth.to_json(bjson)
    return Inputs(inst, graph_csv, data_csvs, graph.edge_i, graph.edge_j,
                  graph.counts.astype(np.float64), [d.wins for d in data],
                  truth.values, bcsv, bjson,
                  (bgraph.edge_i, bgraph.edge_j, bgraph.counts.astype(np.float64)),
                  btruth.values, graph, data)


def timed(fn, probe=None):
    """Seconds ``fn()`` took, speed-corrected when a probe runs, and its result."""
    if probe is not None:
        return probe.time(fn)
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def timed_setup(workload, seed, workdir, probe=None):
    """Interpreter start-up and import in a fresh process, then make_inputs."""

    def setup():
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True, timeout=120)
        return make_inputs(workload, seed, workdir)

    return timed(setup, probe)


@dataclass
class Execution:
    op: str
    rep: int
    seconds: float
    ok: bool
    detail: str
    output: object = None
    traced: bool = False
    wall: float = 0.0  # wall time of the whole call, check included


@contextmanager
def keeping_dc_overlap(kept):
    """Keep what the CLI's dc_overlap returns; it writes only the merged scores.

    A pass-through that records no time, so the alignment identity can be
    checked on the very estimate the CLI wrote.
    """
    from btlrank import cli

    original = cli.dc_overlap

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(result)
        return result

    cli.dc_overlap = keep
    try:
        yield
    finally:
        cli.dc_overlap = original


class Bench:
    def __init__(self, name, seed, workdir, inputs):
        from btlrank import cli

        self.cli = cli
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.inputs = inputs
        self.executions: list[Execution] = []
        self.tracer = None  # set while an op runs traced
        self.probe = None  # a SpeedProbe while untraced ops are timed
        self.alignment_residual = None
        self._resistance_ref = None
        self._omega_ref = None

    # -- ops ---------------------------------------------------------------
    def _cli(self, name, argv):
        """Time one in-process CLI call; the op's root span when traced."""

        def call():
            try:
                if self.tracer is not None:
                    with self.tracer.span("cli." + name):
                        return self.cli.main(argv)
                return self.cli.main(argv)
            except Exception:  # an op that crashes is a failed op, not a crashed run
                print(traceback.format_exc(), file=sys.stderr)
                return None

        return timed(call, self.probe)

    def _estimate(self, name, method, rep):
        inst = self.inputs.inst
        out = str(self.workdir / f"{name}.json")
        argv = ["estimate", "--method", method, "--graph", self.inputs.graph_csv,
                "--data", self.inputs.data_csvs[rep], "--out", out]
        if method.startswith("dc-"):
            argv += ["--auto-partition", "grid", "--grid-kind", inst.kind,
                     "--r", str(inst.r)]
        seconds, code = self._cli(name, argv)
        if code != 0:
            return seconds, None
        with open(out) as f:
            return seconds, np.asarray(json.load(f), dtype=np.float64)

    def op_estimate(self, rep):
        seconds, theta = self._estimate("estimate", "mle-precond", rep)
        if theta is None:
            return seconds, False, "non-zero exit", None
        inp = self.inputs
        ok, detail = ref.check_kkt(theta, inp.inst.n, inp.ei, inp.ej, inp.counts, inp.wins[rep])
        return seconds, ok, detail, theta

    def op_dc_overlap(self, rep):
        kept = []
        with keeping_dc_overlap(kept):
            seconds, theta = self._estimate("dc_overlap", "dc-overlap", rep)
        if theta is None:
            return seconds, False, "non-zero exit", None
        ok, detail = ref.check_scores(theta, self.inputs.inst.n)
        if rep == 0 and self.alignment_residual is None:
            ok2, detail2 = self._alignment_check(theta, kept)
            ok, detail = ok and ok2, f"{detail}; {detail2}"
        return seconds, ok, detail, theta

    def _alignment_check(self, theta, kept):
        from btlrank.dc import alignment_identity_residual
        from btlrank.model import ScoreVector

        if len(kept) != 1:
            return False, f"expected one dc_overlap result, kept {len(kept)}"
        merged, local, shifts = kept[0]
        truth = ScoreVector.zero_sum(self.inputs.truth)
        self.alignment_residual = alignment_identity_residual(local, shifts, truth)
        ok, detail = ref.check_alignment(self.alignment_residual)
        gap = float(np.abs(merged.values - theta).max())
        return ok and gap == 0.0, f"{detail}; written vs returned scores differ by {gap:.1e}"

    def op_dc_community(self, rep):
        seconds, theta = self._estimate("dc_community", "dc-community", rep)
        if theta is None:
            return seconds, False, "non-zero exit", None
        ok, detail = ref.check_scores(theta, self.inputs.inst.n)
        return seconds, ok, detail, theta

    def op_resistance(self, rep):
        inp = self.inputs
        out = str(self.workdir / "resistance.csv")
        pairs = ";".join(f"{k},{l}" for k, l in inp.inst.pairs())
        seconds, code = self._cli("resistance", ["resistance", "--graph", inp.graph_csv,
                                                 "--pairs", pairs, "--out", out])
        if code != 0:
            return seconds, False, "non-zero exit", None
        got = {}
        with open(out) as f:
            next(f)
            for line in f:
                k, l, omega = line.strip().split(",")
                got[(int(k), int(l))] = float(omega)
        if self._resistance_ref is None:
            self._resistance_ref = ref.resistances(inp.inst.n, inp.ei, inp.ej, inp.counts,
                                                   inp.inst.pairs())
        ok, detail = ref.check_resistances(got, self._resistance_ref)
        return seconds, ok, detail, got

    def op_bounds(self, rep):
        inp = self.inputs
        out = str(self.workdir / "bounds.csv")
        n = self.workload.bounds.n
        seconds, code = self._cli("bounds", [
            "bounds", "--graph", inp.bounds_graph_csv, "--scores", inp.bounds_scores_json,
            "--pairs", f"0,{n - 1}", "--out", out])
        if code != 0:
            return seconds, False, "non-zero exit", None
        with open(out) as f:
            next(f)
            text = next(f).split(",")[2]
        # BoundQuantities.to_csv writes repr() of numpy scalars, which numpy >= 2
        # spells np.float64(x); the value is checked and the format reported.
        wrapped = NUMPY_REPR.fullmatch(text)
        omega = float(wrapped.group(1) if wrapped else text)
        if self._omega_ref is None:
            ei, ej, counts = inp.bounds_arrays
            w = ref.oracle_weights(ei, ej, counts, inp.bounds_truth)
            self._omega_ref = ref.dense_omega(n, ei, ej, w, 0, n - 1)
        ok, detail = ref.check_omega(omega, self._omega_ref)
        if wrapped:
            detail += f"; format defect: CSV field {text!r} is not a plain number"
        return seconds, ok, detail, omega

    def op_sweep(self, rep, methods=None):
        from btlrank.experiments import default_config, run_experiment

        # The convergence trial writes trace CSVs even with write_files=False,
        # so it gets a directory of its own that is removed afterwards.
        out_dir = self.workdir / "sweep"
        config = default_config("convergence", trials=1, base_seed=self.seed,
                                out_dir=str(out_dir),
                                methods=methods or self.workload.sweep_methods)

        def call():
            try:
                return run_experiment(config, write_files=False)[0]
            except Exception:
                print(traceback.format_exc(), file=sys.stderr)
                return None

        try:
            seconds, records = timed(call, self.probe)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if records is None:
            return seconds, False, "run_experiment raised", None
        ok, detail = ref.check_sweep(records)
        return seconds, ok, detail, records

    def run(self, op, rep, traced=False, **kwargs):
        start = perf_counter()
        seconds, ok, detail, output = getattr(self, "op_" + op)(rep, **kwargs)
        ex = Execution(op, rep, seconds, ok, detail, output, traced, perf_counter() - start)
        self.executions.append(ex)
        return ex

    def failed(self):
        return sum(not ex.ok for ex in self.executions)


def median(values):
    return float(statistics.median(values))


def run_untraced(bench, seconds, setup_times):
    """Fixed samples first, then more samples while the next op fits the window."""
    workload = bench.workload
    start = perf_counter()
    done = dict.fromkeys(OPS, 0)
    # The other ops are spread over the replicate rounds, so the samples of
    # each data op span much of the window rather than one short stretch.
    others = [op for op in OPS if op not in DATA_OPS]
    rounds = workload.replicates
    for k in range(rounds):
        due = [op for op in DATA_OPS if k < workload.reps[op]]
        due += [op for j, op in enumerate(others) if j * rounds // len(others) == k]
        for op in due:
            bench.run(op, done[op])
            done[op] += 1
    spent = dict.fromkeys(OPS, 0.0)
    for ex in bench.executions:
        spent[ex.op] += ex.wall
    while True:
        left = seconds - (perf_counter() - start)
        fits = [op for op in OPS
                if median([ex.wall for ex in bench.executions if ex.op == op]) <= left]
        if not fits:
            break
        # The op with the fewest samples runs next, so the long ops gather as
        # many as the window allows; short ops fill what is left at the end.
        op = min(fits, key=lambda o: (done[o], spent[o]))
        spent[op] += bench.run(op, done[op] % workload.reps.get(op, 1)).wall
        done[op] += 1
    window = perf_counter() - start

    first = {}
    for ex in bench.executions:
        first.setdefault((ex.op, ex.rep), ex)
    ratios, raw = accuracy(bench, first)
    times = {op: [ex.seconds for ex in bench.executions if ex.op == op] for op in OPS}
    attempted = len(bench.executions)
    metrics = {
        "setup_s": (median(setup_times), len(setup_times)),
        "estimate_rmse": ratios["estimate"],
        "dc_overlap_rmse": ratios["dc_overlap"],
        "dc_community_rmse": ratios["dc_community"],
        "resistance_per_s": (len(bench.inputs.inst.pairs()) / median(times["resistance"]),
                             len(times["resistance"])),
        "ok_frac": (1.0 - bench.failed() / attempted, attempted),
    }
    for op in ("estimate", "dc_overlap", "dc_community", "sweep", "bounds"):
        metrics[op + "_s"] = (median(times[op]), len(times[op]))
    print(f"window {window:.2f}s for {attempted} ops (closed loop, one caller)")
    if bench.probe is not None:
        slow = [t / NOMINAL_S for _, t in bench.probe.probes]
        print(f"host slowness (probe time over {NOMINAL_S:g}s): median {median(slow):.3f}, "
              f"min {min(slow):.3f}, max {max(slow):.3f}, {len(slow)} probes")
    print_checks(bench)
    builtin_outcomes(bench)
    for op, errs in raw.items():
        print(f"error against the truth, {op}: " + ", ".join(
            f"sample {k}: rms {e[0]:.4g} linf {e[1]:.4g} (exact MLE rms {m[0]:.4g} linf {m[1]:.4g})"
            for k, (e, m) in enumerate(errs)))
    for name, unit in END_TO_END.items():
        value, count = metrics[name]
        stat = "mean" if name.endswith("_rmse") else "value" if name == "ok_frac" else "median"
        print(f"metric {name:<18} unit={unit:<8} {stat}={value:.6g} samples={count}")
    print(f"metric failed_frac        unit=ops/ops  value={bench.failed()}/{attempted}")
    return {name: value for name, (value, _) in metrics.items()}


def accuracy(bench, first):
    """Mean over each op's samples of its RMS error over the exact MLE's.

    Both errors are taken against the truth on the same comparison sample,
    which removes most of the sample-to-sample spread of the error itself.
    Each error is a (rms, linf) pair; the linf errors are only logged.
    """
    inp = bench.inputs
    reps = bench.workload.reps

    def errors(theta):
        return ref.rms_error(theta, inp.truth), ref.linf_error(theta, inp.truth)

    exact = {}
    for rep in range(bench.workload.replicates):
        start = next((first[(op, rep)].output for op in DATA_OPS
                      if (op, rep) in first and first[(op, rep)].ok), np.zeros(inp.inst.n))
        exact[rep] = errors(ref.exact_mle(inp.inst.n, inp.ei, inp.ej, inp.counts,
                                          inp.wins[rep], start))
    ratios, raw = {}, {}
    for op in DATA_OPS:
        raw[op] = [(errors(first[(op, k)].output), exact[k])
                   for k in range(reps[op]) if first[(op, k)].ok]
        value = float(np.mean([e[0] / m[0] for e, m in raw[op]])) if raw[op] else NO_ESTIMATE
        ratios[op] = (value, len(raw[op]))
    return ratios, raw


def print_checks(bench):
    for ex in bench.executions:
        tag = "PASS" if ex.ok else "FAIL"
        kind = "traced" if ex.traced else "untraced"
        print(f"check {ex.op} sample {ex.rep} ({kind}, {ex.seconds:.3f}s): {tag} {ex.detail}")


def builtin_outcomes(bench):
    """Outcomes the paper builds in, counted rather than failed."""
    sweeps = [ex.output for ex in bench.executions if ex.op == "sweep" and ex.output]
    records = [r for recs in sweeps for r in recs]
    cd_missed = sum(r.method == "cd" and r.iterations < 0 for r in records)
    large = sum(r.method == "gd-large" and r.iterations < 0 for r in records)
    print(f"counted outcomes: cd missed the loss gap {cd_missed}x, "
          f"gd-large never reached it {large}x, in {len(sweeps)} sweep(s)")
    return cd_missed, large


# -- traced run ---------------------------------------------------------------

def median_time(fn, max_reps=3, budget=1.0):
    """Median time of up to ``max_reps`` calls, stopping once ``budget`` is spent."""
    times, results = [], []
    while len(times) < max_reps and sum(times) < budget:
        start = perf_counter()
        results.append(fn())
        times.append(perf_counter() - start)
    return median(times), results


def direct_layers(bench, repeats):
    """Per-layer times from direct calls into each module, untraced."""
    from btlrank import estimators
    from btlrank.graphs import ComparisonGraph, GridSpec, generate_grid, partition_grid
    from btlrank.laplacian import LaplacianOperator
    from btlrank.model import ComparisonData, ScoreVector, sample_comparisons

    inp = bench.inputs
    inst = inp.inst
    graph, data = inp.graph, inp.data[0]
    spec = GridSpec(kind=inst.kind, n=inst.n, r=inst.r, p=inst.p)
    out = {}
    out["graphs.generate_s"], _ = median_time(
        lambda: generate_grid(spec, L=inst.L, rng=rng(bench.seed, bench.workload, 0)))
    truth = ScoreVector.zero_sum(inp.truth)
    out["model.sample_s"], _ = median_time(
        lambda: sample_comparisons(graph, truth, rng(bench.seed, bench.workload, 1)))
    out["graphs.from_csv_s"], _ = median_time(lambda: ComparisonGraph.from_csv(inp.graph_csv))
    out["model.data_from_csv_s"], _ = median_time(
        lambda: ComparisonData.from_csv(inp.data_csvs[0], graph))
    part_spec = GridSpec(kind=inst.kind, n=inst.n, r=inst.r, p=1.0)  # as the CLI builds it
    for mode, short in (("overlapping", "overlap"), ("disjoint", "disjoint")):
        seconds, parts = median_time(lambda: partition_grid(graph, part_spec, mode))
        out[f"graphs.partition_{short}_s"] = seconds
        repeats[f"graphs.blocks_{short}"] = [p.m for p, _ in parts]

    weights = 0.25 * inp.counts  # the quarter_LG preconditioner of precond_gd
    out["laplacian.assemble_s"], ops = median_time(
        lambda: LaplacianOperator(inst.n, inp.ei, inp.ej, weights))
    problem = estimators.MleProblem(graph, data)
    rhs = estimators.gradient(problem, np.zeros(inst.n))
    out["laplacian.solve_s"], solves = median_time(lambda: ops[0].solve_orthogonal(rhs))
    repeats["laplacian.solve_iters"] = [report.iterations for _, report in solves]
    out["laplacian.solve_residual"] = float(solves[0][1].residual)
    unit = LaplacianOperator(inst.n, inp.ei, inp.ej, inp.counts)
    out["laplacian.resistance_s"], _ = median_time(
        lambda: unit.resistance_matrix(pairs=inst.pairs()), max_reps=1)

    theta = inp.truth
    out["estimators.gradient_s"], _ = median_time(
        lambda: estimators.gradient(problem, theta), max_reps=21, budget=0.5)
    out["estimators.loss_s"], _ = median_time(
        lambda: estimators.loss(problem, theta), max_reps=21, budget=0.5)
    # Computed, not measured: 15 passes over per-edge 8-byte arrays (5 inputs,
    # 2 gathers, 5 intermediates, 3 scatter reads) plus the n-vector written.
    out["estimators.gradient_bytes"] = float(8 * (15 * len(inp.ei) + inst.n))
    out["estimators.mle_exists_s"], _ = median_time(
        lambda: estimators.mle_exists(problem), max_reps=5)
    out["estimators.spectral_s"], spectral = median_time(
        lambda: estimators.spectral_estimate(graph, data), max_reps=1)
    out["estimators.spectral_iters"] = float(spectral[0].iterations)
    out["estimators.spectral_failed"] = float(spectral[0].failed)
    return out


def traced_ops(bench):
    """Each op untraced then traced on sample 0; returns per-layer metrics."""
    tracer = Tracer()
    walls = {}  # op -> (untraced, traced) speed-corrected seconds, traced wall seconds
    # Probes before and after each op only, so that none runs inside a span.
    bench.probe = SpeedProbe(period=0)
    for op in OPS:
        if op == "sweep":
            continue  # its per-method records give the experiments.* metrics
        plain = bench.run(op, 0)
        tracer.op = op
        bench.tracer = tracer
        try:
            with rebound(tracer):
                traced = bench.run(op, 0, traced=True)
        finally:
            bench.tracer = None
        walls[op] = (plain.seconds, traced.seconds, bench.probe.walls[-1][0])
        if plain.ok and traced.ok and op in DATA_OPS:
            if not np.array_equal(plain.output, traced.output):
                traced.ok = False
                traced.detail += "; traced output differs from the untraced one"

    own: dict[tuple, float] = {}  # (op, span name) -> summed self time
    for op in walls:
        for span, self_time in tracer.self_times(op):
            own[(op, span.name)] = own.get((op, span.name), 0.0) + self_time

    def inclusive(op, name):
        return sum(s.duration for s in tracer.spans if s.op == op and s.name == name)

    solves = [s for s in tracer.spans if s.name == "laplacian.solve"]
    top = [s for s in tracer.spans if s.op == "estimate" and s.name == "estimators.solve_mle"]
    out = {
        "laplacian.solve_calls": float(len(solves)),
        "laplacian.solve_self_s": sum(v for (_, name), v in own.items()
                                      if name == "laplacian.solve"),
        "laplacian.cg_iters_total": float(sum(s.info for s in solves)),
        "laplacian.dense_solves": float(sum(s.info == 0 for s in solves)),
        "laplacian.cg_solves": float(sum(s.info > 0 for s in solves)),
        "estimators.solve_mle_s": top[0].duration,
        "dc.local_overlap_s": inclusive("dc_overlap", "dc.local"),
        "dc.align_s": inclusive("dc_overlap", "dc.align"),
        "dc.merge_s": inclusive("dc_overlap", "dc.merge"),
        "dc.alignment_residual": float(bench.alignment_residual),
        "dc.local_disjoint_s": inclusive("dc_community", "dc.local"),
        "dc.stitch_s": (inclusive("dc_community", "dc.dc_community")
                        - inclusive("dc_community", "dc.local")),
        "metrics.bounds_s": inclusive("bounds", "metrics.bounds"),
        "metrics.bounds_solves": float(sum(s.op == "bounds" for s in solves)),
        "cli.overhead_s": own.get(("estimate", "cli.estimate"), 0.0),
    }
    overhead = sum(t - p for p, t, _ in walls.values())
    out["trace.overhead_s"] = overhead
    out["trace.estimate_laplacian_share"] = (own.get(("estimate", "laplacian.solve"), 0.0)
                                             / walls["estimate"][2])
    out["trace.dc_overlap_local_share"] = out["dc.local_overlap_s"] / walls["dc_overlap"][2]
    # Self times of all spans of an op, the root's remainder included, should
    # add up to the op's traced wall time; the gap is time outside any span.
    gap = sum(abs(wall - sum(v for (o, _), v in own.items() if o == op))
              for op, (_, _, wall) in walls.items())
    out["trace.selfsum_gap_s"] = gap

    print("tracing overhead (traced minus untraced, speed-corrected, summed over ops): "
          f"{overhead:.4f}s")
    for op, (plain, traced, wall) in walls.items():
        print(f"op {op}: untraced {plain:.4f}s, traced {traced:.4f}s (corrected), "
              f"traced wall {wall:.4f}s")
        for v, name in sorted(((v, name) for (o, name), v in own.items() if o == op),
                              reverse=True):
            print(f"    self {name:<24} {v:.4f}s  {v / wall:6.1%}")
    print(f"share of estimate in laplacian solves: {out['trace.estimate_laplacian_share']:.1%}")
    print(f"share of dc_overlap in dc.local (local overlap solves): "
          f"{out['trace.dc_overlap_local_share']:.1%}")
    verdict = "PASS" if gap <= max(overhead, 0.0) + 1e-3 else "FAIL"
    print(f"self times + remainder vs traced wall: gap {gap:.2e}s, {verdict} "
          f"against overhead {overhead:.2e}s")
    return out, [top[0].info], tracer


def run_traced(bench, out_dir):
    repeats: dict[str, list] = {}
    layers = direct_layers(bench, repeats)
    traced, precond_iters, tracer = traced_ops(bench)
    layers.update(traced)
    repeats["estimators.precond_outer_iters"] = precond_iters
    records = bench.run("sweep", 0, methods=SWEEP_METHODS).output or []
    for method in SWEEP_METHODS:
        mine = [r for r in records if r.method == method]
        layers[f"experiments.{method}_s"] = median([r.seconds for r in mine]) if mine else 0.0
        repeats[f"experiments.{method}_iters"] = [r.iterations for r in mine]
    cd_missed, large = builtin_outcomes(bench)
    layers["experiments.cd_missed_gap"] = float(cd_missed)
    layers["experiments.gd-large_diverged"] = float(large)

    counts = {}
    for name, values in repeats.items():
        counts[name] = values[0] if values else -1
        layers[name] = float(counts[name])
        if len(set(values)) > 1:
            print(f"count {name} did not repeat within the run: {values} "
                  f"(spread {max(values) - min(values)})")
    check_counts_across_runs(bench, counts, out_dir)
    write_spans(bench, tracer, out_dir)
    print_checks(bench)
    for name in sorted(layers):
        print(f"layer {name:<36} {layers[name]:.6g}")
    return layers


def check_counts_across_runs(bench, counts, out_dir):
    """Compare exact counts with the previous traced run of this workload and seed."""
    path = out_dir / f"counts-{bench.name}-seed{bench.seed}.json"
    if path.exists():
        with open(path) as f:
            previous = json.load(f)
        diff = {k: (previous.get(k), v) for k, v in counts.items() if previous.get(k) != v}
        if diff:
            print(f"counts differ from the previous run (previous, now): {diff}")
        else:
            print(f"counts repeat exactly across runs ({len(counts)} counts)")
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)


def write_spans(bench, tracer, out_dir):
    path = out_dir / f"spans-{bench.name}-seed{bench.seed}.jsonl"
    with open(path, "w") as f:
        for k, s in enumerate(tracer.spans):
            f.write(json.dumps({"id": k, "op": s.op, "name": s.name, "start": s.start,
                                "end": s.end, "parent": s.parent}) + "\n")
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_btlrank()
    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))

    # A terminated run still removes its input files (finally below).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace == 0:
            with SpeedProbe() as probe:
                setups = [timed_setup(workload, args.seed, workdir, probe)
                          for _ in range(SETUP_REPS)]
                bench = Bench(args.workload, args.seed, workdir, setups[-1][1])
                bench.probe = probe
                values = run_untraced(bench, args.seconds, [t for t, _ in setups])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            bench = Bench(args.workload, args.seed, workdir,
                          timed_setup(workload, args.seed, workdir)[1])
            layers = run_traced(bench, out_dir)
            if set(layers) != set(PER_LAYER):
                raise RuntimeError(f"per-layer names drifted: {set(layers) ^ set(PER_LAYER)}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run still uses it
    failed = bench.failed()
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.executions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
