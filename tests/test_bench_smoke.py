"""Tier-1 wiring of the benchmark smoke mode.

Runs ``benchmarks/run_all.py --smoke`` — the batching, zero-copy,
buffer-lifecycle, sharding, elasticity, fault, compiled-hot-path and
self-adaptation data-path benchmarks (C11–C19, R1) on a tiny trace.
Smoke gates on the deterministic claims only: delivered counts, C13's
copies-per-packet, C14's zero steady-state allocations and balanced
acquire/release, C15's virtual-time multicore scaling, C16's zero-drop
live resizes, R1's fault scenario, C19's adaptive-beats-worst margin and
typed veto, per-flow ordering and per-shard pool audits — so a
dispatch-, byte-path-, buffer-lifecycle- or concurrency regression
fails the ordinary test run.  No smoke bench times anything: every
wall-clock comparison (the paper orderings, speedup ratios) runs on the
full profile only, so a busy host cannot fail this gate.  The
performance record is E1 (``benchmarks/e1/``); ``run_all.py``'s JSON
output is a local scratch file.

Also covers the harness's own gate: every ``bench_*.py`` must carry the
``bench`` pytest marker or ``run_all.py`` refuses to run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.bench


def _load_run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", REPO_ROOT / "benchmarks" / "run_all.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_smoke_orders_hold(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "run_all.py"),
            "--smoke",
            "--out",
            str(out),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    payload = json.loads(out.read_text())
    assert payload["smoke"] is True
    names = set(payload["benchmarks"])
    assert {
        "bench_c11_batching",
        "bench_c12_pull_batching",
        "bench_c13_zerocopy",
        # The buffer-lifecycle gate: C14 fails on any nonzero steady-state
        # allocation count or unbalanced acquire/release, so a PR that
        # reintroduces per-packet allocation cannot pass tier-1.
        "bench_c14_steady_state",
        # The sharding gate: C15 fails on broken per-flow ordering, an
        # unbalanced per-shard pool slice, or lost modelled-multicore
        # scaling (virtual-time, so deterministic even at smoke scale).
        "bench_c15_sharding",
        # The elastic gate: C16 fails on any frame dropped or reordered
        # across a live resize, or an unbalanced re-carve hand-off.
        "bench_c16_elastic",
        # The compiled-hot-path gate: C17 fails if any cell stops
        # delivering the whole trace or the compilation plan stops
        # reporting an active specialised chain.
        "bench_c17_compiled",
        # The self-adaptation gate: C19 fails if the closed loop stops
        # beating the worst static configuration on the adversarial
        # trace, if the deliberately unsafe live-port swap is no longer
        # vetoed with a typed reason, or if any pool audit goes
        # unbalanced across an adaptation.
        "bench_c19_adaptation",
    } <= names
    for name, outcome in payload["benchmarks"].items():
        assert outcome["status"] == "passed", (name, outcome["tail"])
        assert outcome["tables"], name  # the report tables were captured
    assert payload["summary"]["failed"] == 0
    # run_all records benchmark-declared metadata: C15's shard sweep,
    # C16's diurnal fleet-size trace.
    assert payload["benchmarks"]["bench_c15_sharding"]["meta"]["shards"] == "1,4"
    assert (
        payload["benchmarks"]["bench_c16_elastic"]["meta"]["phases"]
        == "2-4-8-4-2"
    )
    # C19's adaptation gate, from its recorded metadata: the closed loop
    # delivered more than the worst static cell of the sweep, and the
    # deliberately unsafe mid-run swap was vetoed at least once.
    c19_meta = payload["benchmarks"]["bench_c19_adaptation"]["meta"]
    assert c19_meta["phases"] == "burst-starve-flash-quiet"
    assert int(c19_meta["vetoes"]) >= 1
    sweep = {
        name: int(delivered)
        for name, delivered in (
            pair.rsplit(":", 1) for pair in c19_meta["static_sweep"].split(",")
        )
    }
    assert len(sweep) >= 4  # the sweep actually ran, not a degenerate pair
    assert int(c19_meta["adaptive_delivered"]) > min(sweep.values())
    # The property suites ride along on the bounded (tier-1) profile.
    assert payload["properties"]["status"] == "passed"
    assert payload["properties"]["profile"] == "bounded"


def test_every_benchmark_carries_the_bench_marker():
    run_all = _load_run_all()
    benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    assert benches, "no benchmark files found"
    assert run_all.missing_bench_markers(benches) == []


def test_child_runs_find_src_without_any_env(monkeypatch):
    # Every child pytest (benchmarks and property suites alike) gets the
    # repo's src/ first on PYTHONPATH, so run_all.py works from the repo
    # root with nothing exported.
    run_all = _load_run_all()
    src = str(REPO_ROOT / "src")
    monkeypatch.delenv("PYTHONPATH", raising=False)
    assert run_all.subprocess_env()["PYTHONPATH"] == src
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert run_all.subprocess_env()["PYTHONPATH"].split(os.pathsep) == [
        src,
        "elsewhere",
    ]


def test_run_all_fails_loudly_on_unmarked_benchmark(tmp_path):
    run_all = _load_run_all()
    marked = tmp_path / "bench_marked.py"
    marked.write_text("import pytest\npytestmark = pytest.mark.bench\n")
    unmarked = tmp_path / "bench_unmarked.py"
    unmarked.write_text("def test_sneaky():\n    pass\n")
    assert run_all.missing_bench_markers([marked, unmarked]) == [
        "bench_unmarked.py"
    ]
