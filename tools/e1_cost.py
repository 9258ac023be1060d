"""Exact cost of one E1 workload: bytecode ops per frame, layer by layer.

    python3 tools/e1_cost.py --workload nic-spine --bursts 16

Builds the workload exactly as E1 does (its ``runner``, ``traffic`` and
``oracle`` modules, imported and left unchanged), runs one full warm lap
so every cache and memo is in its steady state, then replays *bursts*
bursts of the lap under ``sys.settrace`` with opcode events on.  Every
executed bytecode is charged to the code object that ran it, and each
code object to a layer by its module, using the layer names
``BENCHMARK.json`` declares (``netsim.wire``, ``osbase.nic``, ...; E1's
own loop and sink are ``run``).  A module no declared layer covers is
its own layer (``netsim.packet``, ``osbase.memory``, ...), and standard
library code is charged to the layer that called it.  Layers then add
up into the groups ROADMAP's ops table uses.

Ops are a proxy: a C call's own cost is invisible, so a speed claim
still needs a wall-clock pair run.  They are exact, though — the same
tree gives the same counts in every process — and depend only on the
CPython minor version, which the report prints.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e1 import runner  # noqa: E402
from benchmarks.e1.oracle import EgressSink  # noqa: E402
from benchmarks.e1.tracing import NullTracer  # noqa: E402
from benchmarks.e1.traffic import BURST, load_routes, make_traffic  # noqa: E402

#: ROADMAP's ops-table groups, by layer prefix (first match wins).
GROUPS = (
    ("harness", ("run",)),
    ("fleet", ("router.fleet", "netsim.node", "netsim.link", "netsim.engine")),
    ("runtime", ("osbase.sharding", "osbase.scheduler", "osbase.threads", "osbase.timers",
                 "osbase.clock")),
    ("substrate", ("netsim.wire", "netsim.packet", "osbase.nic", "osbase.buffers",
                   "osbase.memory")),
    ("spine", ("router", "opencom", "cf")),
)

#: Functions the report lists, costliest first.
TOP = 15


def declared_layers() -> set[str]:
    """The layer names ``BENCHMARK.json``'s per-layer metrics live under."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"].rsplit(".", 1)[0] for metric in benchmark["per_layer"]}


def module_of(filename: str) -> str:
    """Dotted module of a source file: ``repro.x.y`` under ``src/``,
    ``benchmarks.e1.z`` under the benchmark, else the bare file stem."""
    path = Path(filename)
    parts = path.with_suffix("").parts
    for anchor in ("repro", "benchmarks"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return ".".join(parts[index:])
    return path.stem


def layer_of(module: str, layers: set[str]) -> str:
    """The declared layer covering *module* (longest prefix), else the
    module's first two names below ``repro``; E1 itself is ``run``."""
    if module.startswith("benchmarks."):
        return "run"
    if not module.startswith("repro."):
        return "python"
    dotted = module[len("repro."):]
    names = dotted.split(".")
    for end in range(len(names), 0, -1):
        candidate = ".".join(names[:end])
        if candidate in layers:
            return candidate
    return ".".join(names[:2])


def group_of(layer: str) -> str:
    for group, prefixes in GROUPS:
        if any(layer == p or layer.startswith(p + ".") for p in prefixes):
            return group
    return "other"


def count_ops(body: Any) -> Counter:
    """Run *body* with opcode tracing on; returns ops per ``(code,
    charged)`` pair.  *charged* is the code object the ops are billed
    to: the running code when it is the program's or the benchmark's,
    else (the standard library) the nearest caller that is, so a layer
    pays for the library work it asks for."""
    ops: Counter = Counter()
    ours: dict[str, bool] = {}

    def is_ours(code: Any) -> bool:
        name = code.co_filename
        if name not in ours:
            ours[name] = module_of(name).startswith(("repro.", "benchmarks."))
        return ours[name]

    def call(frame: Any, event: str, arg: Any) -> Any:
        code = frame.f_code
        owner = frame
        while owner is not None and not is_ours(owner.f_code):
            owner = owner.f_back
        key = (code, code if owner is None else owner.f_code)

        def local(frame: Any, event: str, arg: Any) -> Any:
            if event == "opcode":
                ops[key] += 1
            return local

        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        body()
    finally:
        sys.settrace(previous)
    return ops


def measure(workload: str, *, bursts: int = 16, quick: bool = False) -> dict:
    """Ops per frame of *workload* on E1's default seed, per layer, per
    group and per function, over *bursts* replayed bursts after a full
    warm lap; *quick* picks E1's small self-test profile."""
    spec = runner.workloads(quick)[workload]
    routes = load_routes(spec.routes)
    traffic = make_traffic(
        routes, seed=runner.DEFAULT_SEED, frames=spec.lap * BURST, **spec.traffic
    )
    laps = traffic.bursts()
    tracer = NullTracer()
    setup = runner.set_up(spec, EgressSink(), tracer, laps[: spec.warm])
    system = setup.system
    runner.drive(system, laps, tracer, [])
    replay = [laps[i % len(laps)] for i in range(bursts)]
    try:
        ops = count_ops(partial(runner.drive, system, replay, tracer, []))
    finally:
        system.close()
    frames = sum(len(burst) for burst in replay)
    layers = declared_layers()
    per_layer: Counter = Counter()
    per_function: Counter = Counter()
    for (code, charged), n in ops.items():
        per_layer[layer_of(module_of(charged.co_filename), layers)] += n
        per_function[f"{module_of(code.co_filename)}:{code.co_qualname}"] += n
    per_group: Counter = Counter()
    for layer, n in per_layer.items():
        per_group[group_of(layer)] += n
    scale = 1.0 / frames
    return {
        "workload": workload,
        "seed": runner.DEFAULT_SEED,
        "bursts": bursts,
        "frames": frames,
        "python": sys.version.split()[0],
        "total": sum(ops.values()) * scale,
        "groups": {k: v * scale for k, v in sorted(per_group.items())},
        "layers": {k: v * scale for k, v in sorted(per_layer.items())},
        "functions": {k: v * scale for k, v in per_function.most_common()},
    }


def report(cost: dict) -> str:
    lines = [
        f"E1 cost {cost['workload']} seed={cost['seed']} bursts={cost['bursts']} "
        f"frames={cost['frames']} python={cost['python']}",
        "  ops per frame, by group:",
    ]
    lines += [f"    {name:28s} {value:10.1f}" for name, value in cost["groups"].items()]
    lines.append("  ops per frame, by layer:")
    lines += [f"    {name:28s} {value:10.1f}" for name, value in cost["layers"].items()]
    lines.append(f"  top {TOP} functions:")
    for name, value in list(cost["functions"].items())[:TOP]:
        lines.append(f"    {value:8.1f}  {name}")
    lines.append(f"  total ops per frame {cost['total']:.1f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/e1_cost.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(runner.workloads()))
    parser.add_argument("--bursts", type=int, default=16)
    args = parser.parse_args(argv)
    print(report(measure(args.workload, bursts=args.bursts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
