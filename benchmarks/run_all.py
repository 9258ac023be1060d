"""Run every benchmark file and record a perf trajectory.

Usage, from the repository root (no environment needed; every child
run gets ``src/`` on ``PYTHONPATH``)::

    python benchmarks/run_all.py [--out BENCH_results.json]
    python benchmarks/run_all.py --smoke

Each ``bench_*.py`` is executed as its own pytest session (isolation: one
benchmark's interpreter state cannot skew another's timings).  The result
file maps benchmark name to status, wall-clock duration and the captured
report tables.  It is a local scratch output (``BENCH_results.json``, or
``BENCH_smoke.json`` under ``--smoke``; both git-ignored): the
performance record of this repository is E1, ``benchmarks/e1/``.

``--smoke`` runs only the smoke-capable data-path benchmarks on a tiny
trace (``REPRO_BENCH_SMOKE=1``; see ``benchmarks/conftest.py``).  No smoke
bench times anything: each gates on its deterministic claims only —
delivered counts, copies and allocations per packet, pool audits,
virtual-time scaling, per-flow order — and skips every wall-clock
comparison.  Tier-1 runs this mode through ``tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Benchmarks that understand REPRO_BENCH_SMOKE (tiny trace, no wall-clock
#: comparison: every timing-derived assertion is skipped, every exact
#: count kept); --smoke runs exactly these.  C6 also scales under smoke
#: (C11/C12 import its constants) but is excluded here: its claims are
#: timing ratios, and C11–C14 already gate on the same trace's delivered
#: counts.
SMOKE_BENCHES = (
    # C11/C12 gate on every system delivering the whole trace; their
    # paper-ordering and batching-speedup claims are full-run only.
    "bench_c11_batching.py",
    "bench_c12_pull_batching.py",
    # C13 gates on copies/packet (an exact ledger count); its ordering
    # and wire-vs-copy timing claims are full-run only.
    "bench_c13_zerocopy.py",
    # C14's headline claims (zero steady-state allocations, zero net pool
    # occupancy drift, full free-list recovery) are exact event counts,
    # so they gate tier-1 at full strength even on the smoke trace; its
    # paper ordering is full-run only.
    "bench_c14_steady_state.py",
    # C15's headline claims are likewise deterministic: virtual-time
    # multicore scaling, per-flow ordering, and the per-shard
    # acquired==released audit all gate at full strength; its sweep
    # runs one pass and asserts no wall-clock comparison under smoke.
    "bench_c15_sharding.py",
    # C16 asserts no wall-clock comparison under smoke and runs one
    # pass; its headline claims (zero drops across live resizes,
    # per-flow FIFO, acquired==released on every re-carve hand-off) are
    # exact event counts and gate at full strength.
    "bench_c16_elastic.py",
    # R1's fault scenario is entirely virtual-time + seeded-RNG driven
    # (kill/partition/loss schedule, reconfiguration rounds, per-flow
    # ordering, pool audits), so it gates at full strength under smoke;
    # its fault-free control cells run one pass and assert no wall-clock
    # comparison, only their pool audits.
    "bench_r1_faults.py",
    # C17 asserts no wall-clock comparison under smoke; its plan-shape
    # and delivered-count checks are exact at any scale.
    "bench_c17_compiled.py",
    # C18's headline claims (virtual-time fleet scaling, node-kill flow
    # conservation and ≤1-home-move, byte-identical aborted rollout) are
    # deterministic, so they gate at full strength under smoke; its
    # paper-ordering cells run one pass and assert no wall-clock
    # comparison, only their delivered counts.
    "bench_c18_fleet.py",
    # C19's adversarial trace is entirely virtual-time driven, so the
    # adaptive-beats-worst-static margin, the typed veto count, and the
    # pool audits are deterministic and gate at full strength under
    # smoke; the adaptive-beats-*every*-static claim and the control
    # cells' wall-clock paper ordering only gate on the full profile
    # (under smoke the control cells gate on their counts and audits).
    "bench_c19_adaptation.py",
)

#: Benchmarks may print ``[bench-meta] key=value`` lines (e.g. C15's
#: ``shards=1,2,4,8``) which are recorded verbatim in each result entry,
#: so the trajectory file says *what configuration* produced the tables.
_META_PREFIX = "[bench-meta] "

#: Every benchmark file must opt into the ``bench`` pytest marker
#: (``pytestmark = pytest.mark.bench``) so ``-m "not bench"`` reliably
#: deselects the whole suite; a missing marker is a hard error here
#: rather than a silently unmarked benchmark.
_MARKER_TOKEN = "pytest.mark.bench"


def only_matches(pattern: str, bench_name: str) -> bool:
    """Case-insensitive ``--only`` filter: a substring of the file name,
    or a prefix of the experiment name with or without the ``bench_``
    stem — so ``c18``, ``C18``, ``c18_fleet`` and ``bench_c18_fleet.py``
    all select ``bench_c18_fleet.py``."""
    needle = pattern.lower()
    name = bench_name.lower()
    stem = name.removesuffix(".py")
    return (
        needle in name
        or stem.startswith(needle)
        or stem.removeprefix("bench_").startswith(needle)
    )


def missing_bench_markers(benches: list[Path]) -> list[str]:
    """Names of benchmark files that never mention the ``bench`` marker."""
    return [
        bench.name
        for bench in benches
        if _MARKER_TOKEN not in bench.read_text(encoding="utf-8")
    ]


def subprocess_env() -> dict[str, str]:
    """The environment every child pytest starts from: this process's,
    with the repository's ``src/`` first on ``PYTHONPATH``, so the script
    runs from the repo root with no environment set up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_one(bench: Path, *, smoke: bool = False) -> dict:
    """Run one benchmark file under pytest; capture tables and status."""
    env = subprocess_env()
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(bench), "-q", "-s", "--no-header"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    duration = time.perf_counter() - start
    # Keep only the experiment tables ("=== title ===" blocks) — the rest
    # of the pytest output is noise for a trajectory file.  ``[bench-meta]``
    # lines become the entry's ``meta`` mapping (C15 records its shard
    # sweep this way).
    tables: list[str] = []
    meta: dict[str, str] = {}
    keep = False
    for line in proc.stdout.splitlines():
        if line.startswith(_META_PREFIX):
            key, _, value = line[len(_META_PREFIX):].partition("=")
            meta[key.strip()] = value.strip()
            continue
        if line.startswith("=== ") and line.rstrip().endswith("==="):
            keep = True
        elif keep and (not line.strip() or line.startswith("---- ") or line[:1] == "="):
            keep = line.startswith("=== ")
        if keep:
            tables.append(line)
    return {
        "status": "passed" if proc.returncode == 0 else "failed",
        "returncode": proc.returncode,
        "duration_s": round(duration, 3),
        "meta": meta,
        "tables": "\n".join(tables),
        "tail": "" if proc.returncode == 0 else "\n".join(proc.stdout.splitlines()[-25:]),
    }


#: Property-based suites (``-m slow``) run alongside the benchmarks:
#: bounded examples under ``--smoke`` (the same profile tier-1 uses),
#: the exhaustive ``full`` profile on a full run.  See
#: ``tests/osbase/test_elastic_properties.py``.
PROPERTY_SUITES = (
    "tests/osbase/test_elastic_properties.py",
    "tests/opencom/test_compile_differential.py",
    "tests/router/test_fleet_steering_properties.py",
    "tests/coordination/test_adaptation_properties.py",
    "tests/osbase/test_steering_differential.py",
)


def run_properties(*, smoke: bool = False) -> dict:
    """Run the slow property suites; full example budget unless smoke."""
    profile = "bounded" if smoke else "full"
    env = subprocess_env()
    env["REPRO_PROPERTY_PROFILE"] = profile
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *PROPERTY_SUITES, "-q", "--no-header"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    duration = time.perf_counter() - start
    return {
        "status": "passed" if proc.returncode == 0 else "failed",
        "returncode": proc.returncode,
        "duration_s": round(duration, 3),
        "profile": profile,
        "suites": list(PROPERTY_SUITES),
        "tail": "" if proc.returncode == 0 else "\n".join(proc.stdout.splitlines()[-25:]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the results JSON, a local scratch output "
        "(default: BENCH_results.json, or BENCH_smoke.json under --smoke)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="case-insensitive filter on benchmark names: matches a "
        "substring of the file name or a prefix of the experiment name "
        "with or without the bench_ stem (e.g. 'c11', 'C18', "
        "'bench_c16_elastic')",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-trace mode: run only the smoke-capable benchmarks with "
        "REPRO_BENCH_SMOKE=1 (deterministic claims only, nothing timed)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = str(
            REPO_ROOT / ("BENCH_smoke.json" if args.smoke else "BENCH_results.json")
        )

    benches = sorted(BENCH_DIR.glob("bench_*.py"))
    unmarked = missing_bench_markers(benches)
    if unmarked:
        print(
            "[run_all] ERROR: benchmark file(s) missing the 'bench' pytest "
            f"marker: {', '.join(unmarked)} — add 'pytestmark = "
            "pytest.mark.bench' so tier-1 can deselect them",
            flush=True,
        )
        return 2
    if args.smoke:
        benches = [b for b in benches if b.name in SMOKE_BENCHES]
    if args.only:
        benches = [b for b in benches if only_matches(args.only, b.name)]
        if not benches:
            print(f"[run_all] no benchmark matches --only {args.only!r}")
            return 2
    results: dict[str, dict] = {}
    failed = 0
    for bench in benches:
        print(f"[run_all] {bench.name} ...", flush=True)
        outcome = run_one(bench, smoke=args.smoke)
        results[bench.stem] = outcome
        if outcome["status"] != "passed":
            failed += 1
        print(
            f"[run_all]   {outcome['status']} in {outcome['duration_s']}s",
            flush=True,
        )

    properties = None
    if args.only is None:  # --only selects benchmarks; skip the suites
        print("[run_all] property suites ...", flush=True)
        properties = run_properties(smoke=args.smoke)
        if properties["status"] != "passed":
            failed += 1
        print(
            f"[run_all]   {properties['status']} in {properties['duration_s']}s "
            f"({properties['profile']} profile)",
            flush=True,
        )

    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "smoke": args.smoke,
        "benchmarks": results,
        "properties": properties,
        "summary": {
            "total": len(results) + (1 if properties else 0),
            "failed": failed,
        },
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[run_all] wrote {out_path} ({len(results)} benchmarks, {failed} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
