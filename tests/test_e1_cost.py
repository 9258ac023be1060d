"""``tools/e1_cost.py`` counts executed bytecodes, so its figures repeat
exactly: two measurements of one tree give identical ops per frame, per
layer and per function.  Quick profile, a few seconds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("e1_cost", ROOT / "tools" / "e1_cost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_count_identical_ops():
    tool = load_tool()
    first = tool.measure("nic-spine", bursts=2, quick=True)
    second = tool.measure("nic-spine", bursts=2, quick=True)
    assert first["frames"] == 512
    assert first["total"] == second["total"] > 0
    assert first["layers"] == second["layers"]
    assert first["functions"] == second["functions"]
    # Every op is charged to a layer and every layer to a group.
    assert abs(sum(first["layers"].values()) - first["total"]) < 1e-6
    assert abs(sum(first["groups"].values()) - first["total"]) < 1e-6
    assert {"substrate", "spine", "harness"} <= set(first["groups"])
    assert first["layers"]["osbase.nic"] > 0 and first["layers"]["run"] > 0


def test_modules_map_to_declared_layers():
    tool = load_tool()
    layers = tool.declared_layers()
    assert tool.layer_of("repro.netsim.wire", layers) == "netsim.wire"
    assert tool.layer_of("repro.router.components.forwarding", layers) == "router.components"
    assert tool.layer_of("repro.netsim.packet", layers) == "netsim.packet"
    assert tool.layer_of("benchmarks.e1.oracle", layers) == "run"
    assert tool.group_of("netsim.packet") == "substrate"
    assert tool.group_of("router.fleet") == "fleet"
    assert tool.group_of("opencom.vtable") == "spine"
