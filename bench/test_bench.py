"""Tests of the benchmark's own code: seeded inputs, checks and tracing.

Run with the package on the path:
    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import random
from pathlib import Path

import pytest

import bench_inputs
import bench_trace
import run as bench_run
from qsikit import chartab, qsi
from qsikit.perm import PermGroup
from qsikit.qsi import decide_qsi_group

ROOT = Path(__file__).resolve().parent.parent


def relabelled_group(name, seed):
    degree, gens = bench_inputs.relabelled(ROOT, name, random.Random(seed))
    return PermGroup(degree, gens)


def ops_and_files(workload, seed, workdir):
    ops = bench_inputs.workload_ops(workload, seed, ROOT, workdir)
    return ops, {p.name: p.read_text() for p in workdir.glob("*.gens")}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = ops_and_files(workload, 7, tmp_path)
    assert ops_and_files(workload, 7, tmp_path) == first
    assert ops_and_files(workload, 8, tmp_path) != first


def test_relabelling_moves_points():
    degree, gens = bench_inputs.fixture_generators(ROOT, "PSL211")
    moved = {tuple(g) for seed in range(5)
             for g in bench_inputs.relabelled(ROOT, "PSL211",
                                              random.Random(seed))[1]}
    assert not moved & {tuple(g) for g in gens}


@pytest.mark.parametrize("name", ["A5", "S4"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_group_keeps_order_and_verdicts(name, seed):
    group = relabelled_group(name, seed)
    assert group.order == bench_inputs.EXPECTED_ORDERS[name]
    multiset = bench_inputs.verdict_multiset(decide_qsi_group(group))
    assert multiset == bench_inputs.EXPECTED_VERDICTS[name]


def test_checker_counts_a_tampered_verdict_as_a_failure():
    degree, gens = bench_inputs.relabelled(ROOT, "A5", random.Random(3))
    op = {"kind": "decide", "name": "A5", "degree": degree, "gens": gens}
    summary, _ = bench_inputs.run_op(op, lambda: 0.0)
    assert bench_inputs.check_summary(op, summary) == []
    (degree_status, count), *rest = summary["verdicts"]
    tampered = dict(summary, verdicts=[((degree_status[0], "QSI-with-witness"),
                                        count)] + rest)
    assert bench_inputs.check_summary(op, tampered)


def test_cli_checker_counts_a_tampered_verdict_as_a_failure():
    op = {"kind": "cli", "argv": ["qsi", "A5.gens", "--json"], "name": "A5"}
    verdicts = [{"character_degree": d, "status": s}
                for (d, s), n in bench_inputs.EXPECTED_VERDICTS["A5"].items()
                for _ in range(n)]
    envelope = {"command": "qsi",
                "result": {"group_order": 60, "verdicts": verdicts}}
    assert bench_inputs.check_cli(op, 0, json.dumps(envelope)) == []
    verdicts[-1]["status"] = "refuted-exhaustive"
    assert bench_inputs.check_cli(op, 0, json.dumps(envelope))
    assert bench_inputs.check_cli(op, 1, "")


def test_smallest_ppd():
    assert bench_inputs.smallest_ppd(2, 6) is None
    assert bench_inputs.smallest_ppd(2, 10) == 11
    assert bench_inputs.smallest_ppd(5, 6) == 7
    assert bench_inputs.smallest_ppd(2, 4) == 5


def run_reference():
    group = relabelled_group("PSL27", 4)
    verdicts = [v.to_json() for v in decide_qsi_group(group)]
    table = chartab.character_table(relabelled_group("S4", 4)).to_json()
    return verdicts, table


def test_wrappers_leave_results_identical(tmp_path):
    originals = (PermGroup.__init__, PermGroup.contains_tuple,
                 qsi.decide_qsi_character, qsi.character_table,
                 chartab.character_table)
    before = run_reference()
    tracer = bench_trace.Tracer().install()
    try:
        assert qsi.character_table is not originals[3]
        traced = run_reference()
    finally:
        tracer.remove()
    after = run_reference()
    assert before == traced == after
    assert (PermGroup.__init__, PermGroup.contains_tuple,
            qsi.decide_qsi_character, qsi.character_table,
            chartab.character_table) == originals

    path = tmp_path / "spans.json"
    tracer.dump(path)
    values = bench_trace.per_layer([path], 1)
    assert values["perm.bsgs_builds"][0] > 0
    assert values["perm.membership_tests"][0] > 0
    assert values["perm.lattice_classes"][0] == 15
    assert values["chartab.tables"][0] >= 2
    assert 0 < values["perm.lattice_yield"][0] < 1


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert bench_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_build_count_takes_nested_build_spans_as_one(tmp_path):
    # a bounded build that ends in PermGroup(...), then a plain build
    spans = [["perm.lattice", 0.0, 10.0, -1], ["perm.bsgs", 1.0, 4.0, 0],
             ["perm.bsgs", 3.0, 4.0, 1], ["perm.bsgs", 5.0, 6.0, 0],
             ["perm.bsgs", 11.0, 12.0, -1]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans, "counts": {}}))
    _, calls, _, builds, lattice_builds = bench_trace.span_totals([path])
    assert calls["perm.bsgs"] == 4
    assert (builds, lattice_builds) == (3, 2)


@pytest.mark.parametrize("workload, base", [
    ("lattice", [0.5, 1.6, 3.9]),
    ("cli-cold", [0.19 + 0.005 * i for i in range(15)]),
])
def test_latency_figures_do_not_depend_on_pass_count(workload, base):
    rng = random.Random(7)

    def passes(count):
        return [[{"latency": value * rng.uniform(0.99, 1.01)}
                 for value in base] for _ in range(count)]

    few = bench_run.latency_figures(workload, passes(3))
    many = bench_run.latency_figures(workload, passes(8))
    assert few[2] == many[2]
    for a, b in zip(few[:2], many[:2]):
        assert abs(a - b) / a < 0.03
