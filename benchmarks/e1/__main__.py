"""``python -m benchmarks.e1 run|trace|compare`` — several runs at once.

``run`` repeats every workload (one process per run, repeats interleaved
across workloads) and reports each end-to-end metric's median, quartiles
and n.  ``trace`` makes one traced run per workload and reports the
per-layer metrics.  ``compare A.json B.json`` sets two such records side
by side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e1.run import ROOT, bootstrap

RUN = Path(__file__).with_name("run.py")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int, out: Path | None) -> dict:
    """One run in its own process; returns its result line."""
    command = [
        sys.executable, str(RUN),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if out is not None:
        command += ["--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} seed {seed}: no result line\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarise(values: list[float], unit: str) -> dict:
    record = {"unit": unit, "median": statistics.median(values), "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        record.update(q1=q1, q3=q3)
    return record


def commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args: argparse.Namespace, trace: int) -> int:
    names = [w["name"] for w in benchmark()["workloads"]]
    if args.workload:
        names = [args.workload]
    repeats = 1 if trace else args.repeats
    seeds = [args.seed + i * args.seed_step for i in range(repeats)]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            spans = None
            if trace and args.out is not None:
                spans = args.out.with_name(f"{args.out.stem}.{name}.spans.json")
            results[name].append(one_run(name, seed, args.seconds, trace, spans))
            print(f"  ran {name} seed {seed}", file=sys.stderr)
    record = {
        "benchmark": "E1",
        "section": "per_layer" if trace else "end_to_end",
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name, runs in results.items():
        record["workloads"][name] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                metric: summarise([run["metrics"][metric]["value"] for run in runs], first["unit"])
                for metric, first in runs[0]["metrics"].items()
            },
        }
    for name, entry in record["workloads"].items():
        print(f"{name}: attempted {entry['attempted']}, failed {entry['failed']}")
        for metric, row in entry["metrics"].items():
            spread = (
                f"  q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  iqr/median {spread_of(row):.3f}"
                if "q1" in row
                else ""
            )
            print(f"  {metric:44s} {row['median']:14.4f} {row['unit']:10s} n={row['n']}{spread}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    return 0 if all(entry["correct"] for entry in record["workloads"].values()) else 1


def spread_of(row: dict) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    return (row["q3"] - row["q1"]) / row["median"] if "q1" in row and row["median"] else 0.0


def verdict(a: dict, b: dict, spec: dict) -> tuple[str, str]:
    """(B/A with its base, verdict).  A bounded metric is ``ok``,
    ``regressed`` or — when the runs' spread is wider than the bound and
    B's runs do not all beat A's — ``unresolved``.  An exact counter
    (any count, and the scheduler's virtual time) is ``equal`` or
    ``changed``.  Unbounded timings are shown, not judged."""
    base, new = a["median"], b["median"]
    ratio = f"{new / base:.3f}x of A's {base:.4g}" if base else f"{new:.4g} (A is 0)"
    if "bound" not in spec:
        if spec["unit"] != "count" and not spec["name"].startswith("osbase.scheduler."):
            return ratio, "-"
        return ratio, "equal" if base == new else "changed"
    if spec["better"] == "higher":
        worsening = (base - new) / base
        clear_win = min(b["values"]) > max(a["values"])
    else:
        worsening = (new - base) / base
        clear_win = max(b["values"]) < min(a["values"])
    if max(spread_of(a), spread_of(b)) > spec["bound"] and not clear_win:
        return ratio, "unresolved"
    return ratio, "regressed" if worsening > spec["bound"] else "ok"


def compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    if a["section"] != b["section"]:
        sys.exit(f"A holds {a['section']} metrics, B holds {b['section']}")
    specs = {m["name"]: m for m in benchmark()[a["section"]]}
    print(f"A {args.a} ({a['commit'][:12]})  B {args.b} ({b['commit'][:12]})")
    print(f"{'workload':16s} {'metric':40s} {'A':>12s} {'B':>12s}  {'B/A (base A)':28s} {'bound':>6s} verdict")
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        rows_a, rows_b = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        for metric, row_a in rows_a.items():
            if metric not in rows_b:
                continue
            spec = specs.get(metric, {"name": metric, "unit": row_a["unit"]})
            ratio, word = verdict(row_a, rows_b[metric], spec)
            regressed = regressed or word in ("regressed", "changed")
            bound = f"{spec['bound']:.0%}" if "bound" in spec else "-"
            print(
                f"{name:16s} {metric:40s} {row_a['median']:12.4f} "
                f"{rows_b[metric]['median']:12.4f}  {ratio:28s} {bound:>6s} {word}"
            )
        for side, rows in (("A", a), ("B", b)):
            failed = rows["workloads"][name]["failed"]
            if failed:
                regressed = True
                print(f"{name:16s} {side} failed {failed} of {rows['workloads'][name]['attempted']} frames")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e1", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seed-step", type=int, default=0, help="added to the seed each repeat")
        sub.add_argument("--repeats", type=int, default=5)
        sub.add_argument("--seconds", type=float, default=3.0)
        sub.add_argument("--workload")
        sub.add_argument("--out", type=Path)
    sub = commands.add_parser("compare")
    sub.add_argument("a", type=Path)
    sub.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    return measure(args, trace=1 if args.command == "trace" else 0)


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
