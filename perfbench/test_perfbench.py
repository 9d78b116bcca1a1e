"""Tests of the benchmark itself:  python3 -m pytest perfbench

They need no finitetop: the generator, the span arithmetic and the op
loop are checked on their own.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import gen
import layers
import oracle
import passrun
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, workload):
    first, again, other = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (first, again, other):
        d.mkdir()
    gen.build(workload, 7, str(first))
    gen.build(workload, 7, str(again))
    gen.build(workload, 8, str(other))
    assert _files(first) == _files(again)
    assert _files(first)["ops.json"] != _files(other)["ops.json"]


def test_ops_record_their_input_properties(tmp_path):
    ops = gen.build("datum", 3, str(tmp_path))
    assert len(ops) == len(gen.DATUM_SLOTS)
    assert sum(op["props"]["defect"] for op in ops) == gen.DEFECTS
    for op in ops:
        assert {"points", "opens", "locally_closed", "pairs",
                "torsion_share"} <= set(op["props"])
    torsion = [op for op in ops if op["props"]["family"] == "torsion"]
    assert torsion and all(op["props"]["torsion_share"] > 0 for op in torsion)


def test_oracle_counts_small_cases():
    chain3 = oracle.closure_rows(3, [(0, 1), (1, 2)])
    assert oracle.opens_of(chain3) == [0, 0b100, 0b110, 0b111]
    sierpinski = oracle.opens_of(oracle.closure_rows(2, [(0, 1)]))
    # filters on {{1}, {0, 1}}: {X} and {{1}, X}; their completion is a chain
    filters = oracle.admissible_filters(sierpinski)
    assert len(filters) == 2
    assert oracle.completion_open_count(filters) == 3
    assert oracle.isomorphic(chain3, oracle.relabel(chain3, [2, 0, 1]))
    assert not oracle.isomorphic(chain3, oracle.closure_rows(3, [(0, 1), (0, 2)]))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 5]
    parent = [layers.ROOT, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 5.0, 9.0]
    assert layers.self_times(parent, start, end) == [3.0, 2.0, 3.0, 2.0]
    names = [0, 1, 2, 3]
    assert layers.has_ancestor(parent, names, 2, 0)
    assert not layers.has_ancestor(parent, names, 3, 1)


def test_tracer_counts_calls_raises_and_nested_calls():
    tracer = layers.Tracer()
    wrapped = {}

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return wrapped["inner"](x) + wrapped["inner"](x)

    wrapped["inner"] = tracer._wrap(inner, "intmat.smith_normal_form")
    outer_w = tracer._wrap(outer, "ktheory.is_exact_at")
    root = tracer.begin_op()
    outer_w(1)
    wrapped["inner"](2)
    with pytest.raises(ValueError):
        wrapped["inner"](-1)
    tracer.end_op(root)
    table = tracer.table()
    assert table["intmat.smith_normal_form.calls"] == 4
    assert table["intmat.smith_normal_form.raised"] == 1
    assert table["ktheory.is_exact_at.calls"] == 1
    assert table["intmat.smith_normal_form@ktheory.is_exact_at"] == 2
    assert all(v >= 0 for k, v in table.items() if k.endswith(".self_s"))


def test_calibration_brackets_each_op_and_scales_its_time():
    calibrator = passrun.Calibrator()
    calibrator.starts, calibrator.times = [0.0, 1.0, 2.0], [0.01, 0.03, 0.02]
    # an op from 0.5 to 0.9 lies between the kernels at 0.0 and 1.0
    assert calibrator.around(0.5, 0.9) == pytest.approx(0.02)
    # an op from 1.2 to 1.8 lies between the kernels at 1.0 and 2.0
    assert calibrator.around(1.2, 1.8) == pytest.approx(0.025)
    # a machine twice as slow doubles both the op and the kernel
    slow = [{"latencies": [0.2, 0.04], "kernels": [2 * run.KERNEL_REF_S] * 2}]
    fast = [{"latencies": [0.1, 0.02], "kernels": [run.KERNEL_REF_S] * 2}]
    assert run.op_latencies(slow) == pytest.approx(run.op_latencies(fast))
    # each op's latency is the median of its passes
    passes = [{"latencies": [x, 1.0], "kernels": [run.KERNEL_REF_S] * 2}
              for x in (0.3, 0.1, 0.2)]
    assert run.op_latencies(passes) == pytest.approx([0.2, 1.0])


class _Runner:
    """Answers x + 1, except that op 2 raises."""

    def execute(self, op):
        if op["id"] == 2:
            raise RuntimeError("program crashed")
        return op["x"] + 1, 0

    @staticmethod
    def check(op, result):
        return result == op["expect"]


def test_wrong_expectation_is_a_failed_op_not_a_crash():
    ops = [{"id": 0, "x": 1, "expect": 2},
           {"id": 1, "x": 1, "expect": 3},   # deliberately wrong
           {"id": 2, "x": 1, "expect": 2}]   # raises inside the program
    latencies, kernels, failed, _, errors = passrun.run_ops(ops, _Runner(),
                                                             passrun.Calibrator())
    assert len(latencies) == len(kernels) == 3
    assert failed == 2
    assert len(errors) == 1 and "program crashed" in errors[0]


def test_check_rejects_wrong_values_and_bad_output():
    op = {"check": "validate", "expect": {"ok": True, "size": 2, "opens": 3}}
    good = json.dumps({"ok": True, "size": 2, "opens": 3})
    assert checks.check(op, 0, good, "")
    assert not checks.check(dict(op, expect={"ok": True, "size": 2, "opens": 4}),
                            0, good, "")
    assert not checks.check(op, 0, "not json", "")
    assert not checks.check(op, 2, good, "")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
