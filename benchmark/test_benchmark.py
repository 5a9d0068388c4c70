"""Tests for the benchmark's own logic (run with PYTHONPATH=src)."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import worker
import workloads
from opalg import cli, gauge, numkit, report, shift, volterra

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1):
    return spans.Span(name, float(start), float(end), parent)


def test_self_time_subtracts_covered_part_of_children():
    trace = [
        span("cli.run_experiment", 0, 10),     # 0
        span("volterra.build_vf", 1, 4, 0),    # 1
        span("numkit.operator_norm", 3, 6, 0),  # 2: overlaps 1 on [3, 4]
        span("numkit.as_array", 3.5, 4.5, 2),  # 3: grandchild of 0
        span("report.format_float", 9, 12, 0),  # 4: runs past its parent's end
    ]
    assert spans.self_times(trace) == pytest.approx([10 - 5 - 1, 3, 2, 1, 3])
    metrics = spans.layer_metrics(trace)
    assert metrics["cli.self_s"] == pytest.approx(4)
    assert metrics["numkit.self_s"] == pytest.approx(3)
    assert metrics["cli.run_experiment.busy_s"] == pytest.approx(10)


def test_group_busy_time_counts_outermost_spans_only():
    trace = [
        span("volterra.parse_kernel_spec", 0, 5),
        span("volterra.kernel_constant", 1, 4, 0),
        span("volterra.kernel_norm", 5, 9),
        span("volterra.kernel_step", 9, 10),
    ]
    metrics = spans.layer_metrics(trace)
    assert metrics["volterra.kernels.calls"] == 3
    assert metrics["volterra.kernels.busy_s"] == pytest.approx(6)


def test_install_rebinds_every_module_level_binding():
    modules = [cli, gauge, numkit, report, shift, volterra]
    original = numkit.operator_norm
    tracer = spans.Tracer()
    undo = spans.install(tracer, modules)
    try:
        assert shift.operator_norm is gauge.operator_norm is numkit.operator_norm
        assert numkit.operator_norm is not original
        cli.run_experiment(cli.ExperimentConfig("gauge-scan", dim=6, nodes=8))
    finally:
        spans.uninstall(undo)
    assert numkit.operator_norm is original and cli.operator_norm is original
    assert cli.EXPERIMENTS["gauge-scan"] is cli.run_gauge_scan
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.run_experiment" and tracer.spans[0].parent == -1
    assert "cli.run_gauge_scan" in names and "gauge.gauge_conjugate" in names
    norm = next(s for s in tracer.spans if s.name == "numkit.operator_norm")
    assert norm.size == 6 * 6 * 16
    assert tracer.spans[norm.parent].name == "cli.run_gauge_scan"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    latencies = list(range(24, 0, -1))
    assert run.tail(latencies) == (14, pytest.approx(100 * 14 / 24), 10)
    assert run.tail(range(11)) == (0, pytest.approx(100 / 11), 10)
    # no percentile has ten beyond it: the maximum, with none beyond
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


class Noop:
    def __call__(self):
        return None

    def check(self, result):
        return None

    def notes(self, result):
        return []


def test_closed_loop_runs_every_pass_unless_capped():
    passes = [[Noop(), Noop()] for _ in range(3)]
    out = worker.closed_loop(passes)
    assert (out["passes"], out["attempted"], out["capped"]) == (3, 6, False)
    assert len(out["latencies"]) == 6
    # the cap ends the run at the first pass boundary past it
    out = worker.closed_loop(passes, cap_s=0.0)
    assert (out["passes"], out["attempted"], out["capped"]) == (1, 2, True)


def test_inputs_derive_deterministically_from_the_seed():
    seeds = workloads.experiment_seeds(7)
    assert seeds == workloads.experiment_seeds(7) != workloads.experiment_seeds(8)
    assert sorted(seeds) == list(range(workloads.SEED_POOL))
    run_passes = workloads.passes("shift-gauge", 7)
    assert len(run_passes) == workloads.PASSES["shift-gauge"]
    assert [(op.name, op.seed) for op in run_passes[1]] == [
        (name, seeds[1]) for name in workloads.WORKLOADS["shift-gauge"]]
    a, b = (workloads.passes("oracle-crosscheck", 7, 2) for _ in range(2))
    assert all(np.array_equal(x.matrix, y.matrix)
               for pa, pb in zip(a, b) for x, y in zip(pa, pb))
    assert [x.matrix.shape[0] for x in a[0]] == list(workloads.ORACLE_SIZES)
    assert not np.array_equal(a[0][-1].matrix, a[1][-1].matrix)
    c = workloads.passes("oracle-crosscheck", 8, 1)
    assert not np.array_equal(a[0][-1].matrix, c[0][-1].matrix)
    assert min(workloads.ORACLE_SIZES) >= 2 and max(workloads.ORACLE_SIZES) <= 128


def test_printed_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    fake = {"latencies": [0.5, 0.25], "attempted": 2, "failed": 0, "pass_s": 1.0,
            "peak_rss_mb": 40.0}
    assert set(run.end_to_end(fake, [0.2])) == set(run.END_TO_END)
    traced = {"layers": spans.layer_metrics([]), "bytes_changed": 0, "pass_s": 1.2}
    assert set(run.per_layer(fake, traced)) == set(run.PER_LAYER)
    assert set(workloads.COVERAGE) == set(workloads.WORKLOADS) == set(workloads.PASSES)
    for groups in workloads.COVERAGE.values():
        assert set(groups) <= set(spans.GROUPS)


def test_expected_flags_and_digests_cover_every_experiment():
    names = [n for names in workloads.WORKLOADS.values() for n in names]
    assert set(names) == set(workloads.EXPECTED_FLAGS) <= set(cli.EXPERIMENTS)
    digests = json.loads(Path(workloads.__file__).with_name("digests.json").read_text())
    assert set(digests) == set(names)
    assert all(len(row) == workloads.SEED_POOL for row in digests.values())
