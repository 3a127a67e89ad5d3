"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _batch(workload: str, seed: int):
    return workloads.build(run.import_library(), workload, seed, run.HERE)


def _inputs(workload: str, seed: int) -> bytes:
    return _batch(workload, seed).inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = _inputs(workload, 3)
    assert first == _inputs(workload, 3)
    assert first != _inputs(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_the_default_batch(workload):
    ids = {t.id for t in _batch(workload, workloads.DEFAULT_SEED).tasks}
    assert set(run.load_reference(workload)) == ids


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, kind):
    result, _ = run.run(workload, 2, 0.1, bool(trace), limit=4)
    result = json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_corrupted_result_is_counted():
    lib, batch, _ = run.set_up("cohomology", workloads.DEFAULT_SEED, run.HERE)
    tasks = batch.tasks[:6]

    def off_by_one(lib, *payload):
        dims = workloads._cohomology(lib, *payload)
        return (dims[0] + 1,) + dims[1:]

    tasks[2] = dataclasses.replace(tasks[2], fn=off_by_one)
    checker = run.Checker(lib, batch, run.load_reference("cohomology"))
    passes = [run.run_pass(lib, tasks, checker) for _ in range(2)]
    assert [tid for tid, _ in checker.failures] == [tasks[2].id] * 2
    metrics, _ = run.end_to_end(passes, [0.1], checker)
    assert metrics["correct_ratio"] == pytest.approx(10 / 12)


def test_missing_reference_digest_is_counted():
    lib, batch, _ = run.set_up("cohomology", workloads.DEFAULT_SEED, run.HERE)
    reference = run.load_reference("cohomology")
    del reference[batch.tasks[0].id]
    checker = run.Checker(lib, batch, reference)
    run.run_pass(lib, batch.tasks[:2], checker)
    assert checker.failures == [(batch.tasks[0].id,
                                 "no reference digest for this task")]


def test_exception_is_counted():
    lib, batch, _ = run.set_up("cohomology", workloads.DEFAULT_SEED, run.HERE)

    def broken(lib, *payload):
        raise ZeroDivisionError("injected")

    tasks = [dataclasses.replace(batch.tasks[0], fn=broken)]
    checker = run.Checker(lib, batch, {})
    run.run_pass(lib, tasks, checker)
    assert checker.failures == [(tasks[0].id, "raised ZeroDivisionError: "
                                              "injected")]


def test_a_missing_layer_function_is_reported_absent(monkeypatch):
    lib = run.import_library()
    monkeypatch.delattr(sys.modules["zinbiel.deformation"],
                        "deformation_violations")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["deformation.validate"]
        tracer.begin_task("t")
        lib.zb.morphism_cohomology_dim(
            lib.zb.identity_morphism(
                lib.catalog.truncated_polynomials(lib.fields.QQ, 2)), 2)
        tracer.end_task()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, {"t": "Q"})
    assert not any(k.startswith("deformation.validate") for k in metrics)
    assert metrics["linalg.rank.calls"] == 2


def test_uninstall_restores_every_binding():
    lib = run.import_library()
    before = {(m, a): getattr(sys.modules[m], a)
              for _, _, m, a in tracing.WRAPPED}
    sampling_rank = lib.sampling.rank_nullspace
    tracer = tracing.Tracer()
    tracer.install()
    assert lib.sampling.rank_nullspace is not sampling_rank
    tracer.uninstall()
    assert lib.sampling.rank_nullspace is sampling_rank
    assert all(getattr(sys.modules[m], a) is f
               for (m, a), f in before.items())
