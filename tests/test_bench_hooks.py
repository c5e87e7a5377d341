"""The traced benchmark run reports every layer metric that
BENCHMARK.json declares.  perfbench/hooks.py wraps module attributes
by name and silently leaves out each metric whose target is gone, so
renaming or deleting one of those names drops a metric without an
error anywhere else."""

import importlib.util
import json
from pathlib import Path

from tanglekit import cli, counting, sample

ROOT = Path(__file__).resolve().parent.parent


def test_every_declared_layer_metric_is_hooked():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", ROOT / "perfbench" / "hooks.py")
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    # built, never installed: no attribute of the package is replaced
    tracer = hooks.Tracer({"cli": cli, "sample": sample, "counting": counting})
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # these two come from run.py itself, not from a hook
    declared -= {"host.ref_ms", "trace.overhead"}
    assert declared <= set(hooks.layer_metrics(tracer.totals()))
