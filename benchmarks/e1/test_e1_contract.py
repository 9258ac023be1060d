"""E1's contract with itself: the declaration parses, every declared
metric is measured, counts repeat exactly, spans account for the burst,
and a corrupted egress frame fails the run.  Quick profile throughout —
this checks the benchmark's plumbing, not the router's speed."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from benchmarks.e1 import runner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(capsys, workload, trace, tamper=None):
    """One quick in-process run → (exit code, result line)."""
    capsys.readouterr()
    code = runner.main(
        ["--workload", workload, "--seconds", "0.1", "--trace", str(trace), "--quick"],
        tamper=tamper,
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Each (workload, trace) pair's first run, shared by the tests."""
    return {}


def first_run(runs, capsys, workload, trace):
    if (workload, trace) not in runs:
        runs[workload, trace] = run(capsys, workload, trace)
    return runs[workload, trace]


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["benchmarks/e1"]
    assert all(not part.startswith("/") and ".." not in part for part in BENCHMARK["command"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(WORKLOADS) == set(runner.workloads())


def test_every_declared_metric_is_emitted_with_its_unit(runs, capsys):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in WORKLOADS:
            code, line = first_run(runs, capsys, workload, trace)
            assert code == 0 and line["correct"] and line["failed"] == 0, (workload, line)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            assert emitted == declared, (workload, trace)
            if trace == 0:
                assert all(m["value"] > 0 for m in line["metrics"].values()), (workload, line)


def test_two_runs_count_the_same_events(runs, capsys):
    exact = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    exact.append("osbase.scheduler.virtual_us_per_frame")
    for workload in ("fleet-2x2", "reconfig-churn"):
        _, first = first_run(runs, capsys, workload, 1)
        _, again = run(capsys, workload, 1)
        for name in exact:
            assert first["metrics"][name] == again["metrics"][name], (workload, name)
    # The counts are not vacuous: the layers each workload exists for did work.
    fleet = first_run(runs, capsys, "fleet-2x2", 1)[1]["metrics"]
    assert fleet["netsim.engine.events_per_frame"]["value"] > 0
    assert fleet["router.fleet.malformed"]["value"] > 0
    assert fleet["router.components.drop_ttl"]["value"] > 0
    assert fleet["router.components.drop_checksum"]["value"] > 0
    churn = first_run(runs, capsys, "reconfig-churn", 1)[1]["metrics"]
    assert churn["osbase.sharding.resize_moved_buckets"]["value"] > 0
    assert churn["osbase.scheduler.quanta_per_kframe"]["value"] > 0


def test_span_self_times_add_up_to_the_bursts(runs, capsys):
    for workload in WORKLOADS:
        metrics = first_run(runs, capsys, workload, 1)[1]["metrics"]
        spans = metrics["run.span_sum_ns"]["value"]
        bursts = metrics["run.burst_sum_ns"]["value"]
        assert abs(spans - bursts) <= 0.01 * bursts, (workload, spans, bursts)


def test_a_corrupted_egress_frame_fails_the_run(capsys):
    def flip_ttl(data: bytes) -> bytes:
        return data[:8] + bytes([data[8] ^ 1]) + data[9:]

    code, line = run(capsys, "nic-spine", 0, tamper=flip_ttl)
    assert code != 0
    assert not line["correct"]
    assert line["failed"] > 0  # loss_ratio = failed / attempted > 0
