"""Tests of the benchmark itself.  Run with ``PYTHONPATH=src python -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import child
import htspec
import layers
import run
from spans import Rebinder, Span, Tracer, self_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def _span(name, thread, parent, start, end, cpu=None):
    cpu_start, cpu_end = cpu if cpu is not None else (start, end)
    return Span(name, thread, parent, start, cpu_start, end, cpu_end)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds D [2, 3]) and C [5, 6].
    spans = [
        _span("A", 0, None, 0.0, 10.0, cpu=(0.0, 8.0)),
        _span("B", 0, 0, 1.0, 4.0, cpu=(1.0, 3.0)),
        _span("D", 0, 1, 2.0, 3.0, cpu=(1.5, 2.0)),
        _span("C", 0, 0, 5.0, 6.0, cpu=(3.0, 4.0)),
    ]
    assert self_times(spans) == [(6.0, 5.0), (2.0, 1.5), (1.0, 0.5), (1.0, 1.0)]


def test_self_time_does_not_subtract_spans_of_another_thread():
    # B runs on a second thread inside A's interval; it is not A's child.
    spans = [
        _span("A", 0, None, 0.0, 10.0),
        _span("B", 1, None, 2.0, 8.0),
        _span("C", 1, 0, 3.0, 4.0),
    ]
    assert self_times(spans) == [(10.0, 10.0), (5.0, 5.0), (1.0, 1.0)]


def test_tracer_links_parents_per_thread():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0)

    def worker():
        tracer.call("inner", lambda: None, (), {})

    def outer():
        t = threading.Thread(target=lambda: tracer.call("pool", worker, (), {}))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        tracer.call("child", lambda: tracer.call("grandchild", lambda: None, (), {}), (), {})

    tracer.call("outer", outer, (), {})
    spans = {s.name: s for s in tracer.spans()}
    assert spans["outer"].parent is None
    assert spans["pool"].parent is None and spans["pool"].thread != spans["outer"].thread
    assert spans["inner"].thread == spans["pool"].thread and spans["inner"].parent == 0
    assert spans["child"].thread == spans["outer"].thread and spans["child"].parent == 0
    assert spans["grandchild"].parent == 1
    times = dict(zip((s.name for s in tracer.spans()), self_times(tracer.spans())))
    outer_span, child_span = spans["outer"], spans["child"]
    assert times["outer"][0] == (outer_span.end - outer_span.start) - (child_span.end - child_span.start)


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "htspec" or name.startswith("htspec.")
        for attr, value in vars(mod).items()
    }


def test_install_rebinds_every_binding_and_restore_undoes_it():
    import htspec.cli  # noqa: F401  - one more module holding direct imports

    before = _bindings()
    init, to_dense = htspec.SparseMatrix.__init__, htspec.SparseMatrix.to_dense
    originals = [getattr(module, name) for module, name, _ in layers.TRACED] + [htspec.mix64]
    rebinder = layers.install(Tracer())
    try:
        during = _bindings()
        for key, value in before.items():
            if any(value is fn for fn in originals):
                assert during[key] is not value, key
        assert during[("htspec.experiments", "sample_matrix")] is during[("htspec.tails", "sample_matrix")]
        assert htspec.SparseMatrix.__init__ is not init
        assert htspec.SparseMatrix.to_dense is not to_dense
    finally:
        rebinder.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert htspec.SparseMatrix.__init__ is init and htspec.SparseMatrix.to_dense is to_dense


def test_rebinder_restores_class_attributes():
    class Owner:
        def method(self):
            return 1

    rebinder = Rebinder("htspec")
    rebinder.set_attr(Owner, "method", lambda self: 2)
    assert Owner().method() == 2
    rebinder.restore()
    assert Owner().method() == 1


def test_tail_and_end_to_end_aggregation():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(39)]) == (38.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    passes = [
        {"latencies_s": [0.1, 0.3], "wall_s": 0.5, "cpu_s": 1.0, "peak_rss_mib": 10.0, "setup_s": 1.0},
        {"latencies_s": [0.2, 0.2], "wall_s": 0.4, "cpu_s": 0.8, "peak_rss_mib": 12.0, "setup_s": 3.0},
        {"latencies_s": [9.0, 9.0], "wall_s": 0.5, "cpu_s": 1.0, "peak_rss_mib": 11.0, "setup_s": 2.0},
    ]
    metrics = run.end_to_end(passes, min_passes=2)
    assert metrics["replicates_per_s"] == pytest.approx(4.0)
    # Percentiles come from the first two passes only; the third is a sample too many.
    assert metrics["replicate_p50_ms"] == pytest.approx(200.0)
    assert metrics["replicate_tail_ms"] == pytest.approx(300.0)
    assert metrics["cpu_ms_per_replicate"] == pytest.approx(500.0)
    assert metrics["setup_s"] == 2.0 and metrics["peak_rss_mib"] == 11.0
    assert set(metrics) == set(run.END_TO_END)


def test_per_layer_takes_maxima_and_overhead():
    pairs = [
        ({"wall_s": 1.0}, {"wall_s": 1.1, "layers": {"x.calls": 2.0, "x.iterations_max": 5.0}}),
        ({"wall_s": 2.0}, {"wall_s": 2.0, "layers": {"x.calls": 4.0, "x.iterations_max": 9.0}}),
    ]
    out = run.per_layer(pairs)
    assert out["x.calls"] == 3.0 and out["x.iterations_max"] == 9.0
    assert out["trace.overhead_frac"] == pytest.approx(0.05)


TINY = {
    "poisson-cov": dict(replicates=3, n=40),
    "edge-cov": dict(replicates=2, n=40),
    "sparse-herm": dict(replicates=2, n=300),
    "verify-small": dict(replicates=2, suite_instances=5, suite_lemma_instances=2),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_of_each_workload(name):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    run_pass, checks = child.prepare(w, seed=7)
    result = child.finish(run_pass())
    assert result["failed"] == 0 and result["failures"] == []
    assert result["checks"] == checks
    assert len(result["latencies_s"]) == w.replicates

    tracer = Tracer()
    rebinder = layers.install(tracer)
    try:
        traced = child.prepare(w, seed=7)[0]()
    finally:
        rebinder.restore()
    metrics = layers.pass_metrics(tracer, traced.get("experiment"))
    assert child.finish(traced)["failed"] == 0
    assert traced.get("digest") == result.get("digest")
    assert metrics["tails.sample_matrix.calls"] >= w.replicates
    assert metrics["seeding.mix64.calls"] > 0
    assert (metrics["experiments.run.wall_s"] > 0) == (name in ("poisson-cov", "edge-cov"))


@pytest.mark.parametrize("name", ["poisson-cov", "edge-cov"])
def test_spot_check_catches_a_wrong_eigenvalue_or_entry(name):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    cfg, runner = child.experiment_config(w, seed=7)
    report = getattr(htspec.experiments, runner)(cfg)
    assert child._spot_failures(cfg, report) == []
    spot = report.aggregates["interlacing_spot"]["replicate"]
    rec = next(rec for rec in report.records if rec.r == spot)
    rec.eigs[0] *= 1.0 + 1e-6
    assert len(child._spot_failures(cfg, report)) == 1
    rec.eigs[0] /= 1.0 + 1e-6
    rec.entries[0], rec.entries[1] = rec.entries[1], rec.entries[0]
    assert len(child._spot_failures(cfg, report)) == 1


def test_printed_metrics_are_the_declared_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    layer_names = [*layers.pass_metrics(Tracer(), None), "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names
    }
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-small"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
