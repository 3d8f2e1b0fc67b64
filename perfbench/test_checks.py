"""The benchmark's output checks must count a wrong output as a failed op.

    python3 -m pytest perfbench/test_checks.py
"""

import json

import numpy as np
import pytest

import reference as ref
import run

run.import_btlrank()


class CorruptingCli:
    """Runs the real CLI, then edits the file it wrote."""

    def __init__(self, cli, corrupt):
        self.cli = cli
        self.corrupt = corrupt

    def main(self, argv):
        code = self.cli.main(argv)
        self.corrupt(argv[argv.index("--out") + 1])
        return code


def shift_two_scores(path):
    with open(path) as f:
        theta = json.load(f)
    theta[0] += 1e-3  # the pair keeps the zero-sum gauge, so only the KKT check sees it
    theta[1] -= 1e-3
    with open(path, "w") as f:
        json.dump(theta, f)


def scale_last_resistance(path):
    with open(path) as f:
        lines = f.read().splitlines()
    k, l, omega = lines[-1].split(",")
    lines[-1] = f"{k},{l},{float(omega) * (1 + 1e-5)!r}"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.fixture
def bench(tmp_path):
    inputs = run.make_inputs(run.WORKLOADS["grid1d-small"], 5, tmp_path)
    return run.Bench("grid1d-small", 5, tmp_path, inputs)


def test_correct_outputs_pass(bench):
    assert bench.run("estimate", 0).ok
    assert bench.run("resistance", 0).ok
    assert bench.failed() == 0


@pytest.mark.parametrize("op, corrupt", [("estimate", shift_two_scores),
                                         ("resistance", scale_last_resistance)])
def test_perturbed_output_counts_as_failed(bench, op, corrupt):
    bench.cli = CorruptingCli(bench.cli, corrupt)
    ex = bench.run(op, 0)
    assert not ex.ok, ex.detail
    assert bench.failed() == 1


def test_exact_mle_is_a_stationary_point(bench):
    inp = bench.inputs
    theta = ref.exact_mle(inp.inst.n, inp.ei, inp.ej, inp.counts, inp.wins[0],
                          np.zeros(inp.inst.n))
    g = ref.gradient(inp.inst.n, inp.ei, inp.ej, inp.counts, inp.wins[0], theta)
    assert np.linalg.norm(g) <= ref.EXACT_GRAD_FACTOR * inp.counts.sum()
