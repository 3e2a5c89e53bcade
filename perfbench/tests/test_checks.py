"""The output checks accept the solvers' results and reject altered ones."""

import dataclasses

import pytest

import bbl
import bbl.cli
import workloads


def first_results(workload, seed=3, limit=None):
    state = workload.build(bbl, workload.inputs(seed))
    ops = workload.ops(bbl, state)
    results = {}
    for op in ops[:limit]:
        results.setdefault(op.key, (op, op.call()))
    return state, results


def test_discrete_checks():
    w = workloads.WORKLOADS["discrete-beliefs"]
    state, results = first_results(w)
    firsts = {k: r for k, (_, r) in results.items()}
    for key, (op, result) in results.items():
        assert w.check(bbl, state, op, result, firsts) is None, key
    op, result = results["linear-solve:0"]
    worse = dataclasses.replace(result, total_utility=result.total_utility - 1e-3)
    assert w.check(bbl, state, op, worse, firsts)
    op, result = results["general:13"]
    assert w.check(bbl, state, op, dataclasses.replace(result, subjective_expectation=result.subjective_expectation + 0.1), firsts)


def test_continuous_compare_check_rejects_a_wrong_verdict():
    w = workloads.WORKLOADS["continuous-sweep"]
    state = w.build(bbl, w.inputs(3))
    op = next(o for o in w.ops(bbl, state) if o.kind == "compare-sophisticated")
    result = op.call()
    assert w.check(bbl, state, op, result, {}) is None
    flipped = "prefer_b" if result.verdict == "prefer_a" else "prefer_a"
    assert w.check(bbl, state, op, dataclasses.replace(result, verdict=flipped), {})


def test_portfolio_check_rejects_a_worse_share():
    w = workloads.WORKLOADS["portfolio-shares"]
    state = w.build(bbl, w.inputs(3))
    op = next(o for o in w.ops(bbl, state) if o.kind == "rational")
    result = op.call()
    assert w.check(bbl, state, op, result, {}) is None
    moved = dataclasses.replace(result, alpha=result.alpha + 0.1)
    assert w.check(bbl, state, op, moved, {})


def test_known_naive_nonconvergence_is_counted_apart_and_checked():
    w = workloads.WORKLOADS["portfolio-shares"]
    state = w.build(bbl, w.inputs(3))
    op = next(o for o in w.ops(bbl, state) if o.key == "naive:normal:7")  # eta 0.85
    result = op.call()
    assert not result.converged and result.iterations == 200
    assert w.nonconverged(result) and w.failure(result) is None
    assert w.check(bbl, state, op, result, {}) is None
    assert w.check(bbl, state, op, dataclasses.replace(result, value=result.value + 1e-3), {})


def test_cli_nonconvergence_exit_is_counted_apart_and_checked():
    w = workloads.CliMix(subprocesses=False)
    state = w.build(bbl, w.inputs(3))
    op = next(o for o in w.ops(bbl, state) if o.key == "portfolio-naive")
    code, out, err = op.call()
    assert code == 2 and w.nonconverged((code, out, err)) and w.failure((code, out, err)) is None
    assert w.check(bbl, state, op, (code, out, err), {}) is None
    assert w.failure((1, "", "error: bad flag\n")) == "exit 1: error: bad flag"
    assert not w.nonconverged((2, "", "error\n"))


@pytest.mark.parametrize("out", ['{"q": [1.0], "utility": NaN}\n', '{"x": Infinity}\n', "not json\n"])
def test_cli_check_rejects_non_strict_output(out):
    w = workloads.CliMix(subprocesses=False)
    state = w.build(bbl, w.inputs(3))
    op = next(o for o in w.ops(bbl, state) if o.key == "verify-beliefs")
    assert w.check(bbl, state, op, (0, out, ""), {}).startswith("stdout does not parse")


def test_cli_checks_accept_in_process_output():
    w = workloads.CliMix(subprocesses=False)
    state = w.build(bbl, w.inputs(3))
    for op in w.ops(bbl, state):
        if op.key in ("portfolio-naive", "verify-beliefs-random"):
            continue  # slow; covered by the benchmark runs
        assert w.check(bbl, state, op, op.call(), {}) is None, op.key
