"""E1, one run: ``python3 benchmarks/e1/run.py --workload W --seed N
--seconds S --trace 0|1``.  See ``README.md`` beside this file."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Put the repository root and ``src/`` on the import path; the
    benchmark builds nothing, but it cannot run without the program."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"E1 needs src/repro and BENCHMARK.json under {ROOT}")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def steady_process() -> None:
    """Take two sources of run-to-run difference out of a measured run:
    string-hash randomisation (dict and set layouts differ per process
    unless ``PYTHONHASHSEED`` is fixed) and core migration (the
    lowest-numbered core also serves interrupts and whatever launched
    us, so the run pins itself to the highest one it may use)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


if __name__ == "__main__":
    bootstrap()
    steady_process()
    from benchmarks.e1.runner import main

    sys.exit(main())
