"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run single batches, so they take about a minute.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

run.load_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _ready(name, seed, work_dir):
    workload = workloads.WORKLOADS[name](seed, work_dir)
    workload.setup()
    return workload, workload.ops()


def test_every_wrapped_attribute_is_restored():
    points = tracing.wrap_points()
    assert len(points) > len(tracing.TARGETS)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(getattr(ns, key) is not fn for ns, key, fn, _ in points)
            raise RuntimeError("stop mid-run")
    assert all(getattr(ns, key) is fn for ns, key, fn, _ in points)


def test_traced_batch_restores_attributes_and_nests_spans(tmp_path):
    before = [(ns, key, getattr(ns, key)) for ns, key, _, _ in tracing.wrap_points()]
    workload, ops = _ready("build", 3, tmp_path)
    gate = run.Gate({})
    _, spans = run.traced_pass(workload, lambda t: run.run_batch(workload, ops, gate, t))
    assert all(getattr(ns, key) is value for ns, key, value in before)
    assert gate.failed == 0
    names = {span[tracing.NAME] for span in spans}
    assert {"construct.build_m2", "sequences.check_distinguishable"} <= names
    # each build's self-check nests under the build that called it
    for span in spans:
        if span[tracing.NAME] == "construct.build_m2":
            index = spans.index(span)
            assert any(
                s[tracing.PARENT] == index and s[tracing.NAME] == "sequences.check_distinguishable"
                for s in spans
            )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(name, tmp_path):
    workload, ops = _ready(name, 5, tmp_path)
    plain, traced = run.Gate({}), run.Gate({})
    run.run_batch(workload, ops, plain)
    run.traced_pass(workload, lambda t: run.run_batch(workload, ops, traced, t))
    assert plain.failed == traced.failed == 0
    assert plain.digests and plain.digests == traced.digests


def test_exact_counts_repeat_between_traced_batches(tmp_path):
    workload, ops = _ready("certify", 0, tmp_path)
    gate = run.Gate({})
    counts = []
    for _ in range(2):
        _, spans = run.traced_pass(workload, lambda t: run.run_batch(workload, ops, gate, t))
        metrics = tracing.layer_metrics(spans)
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["search.instances"] == 6
    assert counts[0]["search.lengths_exhausted"] == 3 + 6  # (4,3) and (5,3)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "certify", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_layer_metrics_cover_the_per_layer_list():
    produced = set(tracing.layer_metrics([]))
    listed = {m["name"] for m in SPEC["per_layer"]}
    supplied_elsewhere = {name for name in listed if name.startswith(("cli.", "trace."))}
    assert produced == listed - supplied_elsewhere


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_give_different_inputs_with_the_same_work(name, tmp_path):
    plans = []
    for seed in (1, 2):
        work_dir = tmp_path / str(seed)
        work_dir.mkdir()
        workload = workloads.WORKLOADS[name](seed, work_dir)
        if name == "track":
            workload.setup()
        plans.append(workload.ops())
    first, second = plans
    assert workloads.work_counts(first) == workloads.work_counts(second)
    assert [op.kind for op in first] == [op.kind for op in second]
    if name != "certify":  # its searches are fixed; only its tables move
        assert [op.key for op in first] != [op.key for op in second]
    else:
        assert [op.key for op in first if op.kind == "table"] != [
            op.key for op in second if op.kind == "table"
        ]


def test_oracle_reports_the_smallest_colliding_pair():
    import oracle

    # linear windows {1,2} {2,2} {1,2} {1,1}: only windows 0 and 2 collide
    assert oracle.sequence_verdict((1, 2, 2, 1, 1), 2, False) == ((0, 2), 4)
    # cyclic windows {1,2} {1,2} {1,1} {1,1}: (0, 1) precedes (2, 3)
    assert oracle.sequence_verdict((1, 2, 1, 1), 2, True) == ((0, 1), 4)
    assert oracle.sequence_verdict((1, 2, 3), 2, True) == (None, 3)
    assert oracle.grid_verdict(((1, 1), (1, 1)), 1, 1, False) == (((0, 0), (0, 1)), 4)
